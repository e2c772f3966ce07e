"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.microcode.layout import StructLayout, read_bits, write_bits
from repro.ml.gradients import GradientQuantizer
from repro.net import IPv4Address, MACAddress, Packet
from repro.net.headers import IPv4Header, UDPHeader, ipv4_checksum
from repro.sim import Environment
from repro.trio.chipset import GENERATIONS
from repro.trio.memory import SharedMemorySystem
from repro.trio.reorder import ReorderEngine
from repro.trioml.protocol import (
    TRIO_ML_HEADER_LAYOUT,
    TrioMLHeader,
    decode_trio_ml,
    encode_trio_ml,
)
from repro.trioml.records import BlockRecord, JobRecord


# ---------------------------------------------------------------------------
# Bitfield layout
# ---------------------------------------------------------------------------


@given(
    data=st.binary(min_size=1, max_size=32),
    bit_offset=st.integers(min_value=0, max_value=200),
    width=st.integers(min_value=1, max_value=64),
    value=st.integers(min_value=0),
)
def test_write_then_read_bits_roundtrip(data, bit_offset, width, value):
    buf = bytearray(data)
    if bit_offset + width > len(buf) * 8:
        return  # out of range; covered by the unit tests
    write_bits(buf, bit_offset, width, value)
    assert read_bits(buf, bit_offset, width) == value & ((1 << width) - 1)


@given(
    data=st.binary(min_size=4, max_size=16),
    bit_offset=st.integers(min_value=0, max_value=64),
    width=st.integers(min_value=1, max_value=32),
)
def test_write_bits_does_not_disturb_neighbours(data, bit_offset, width):
    buf = bytearray(data)
    if bit_offset + width > len(buf) * 8:
        return
    before = [read_bits(buf, i, 1) for i in range(len(buf) * 8)]
    write_bits(buf, bit_offset, width, (1 << width) - 1)
    after = [read_bits(buf, i, 1) for i in range(len(buf) * 8)]
    for i, (a, b) in enumerate(zip(before, after)):
        if bit_offset <= i < bit_offset + width:
            assert b == 1
        else:
            assert a == b


@given(
    widths=st.lists(st.integers(min_value=1, max_value=32), min_size=1,
                    max_size=10),
    data=st.data(),
)
def test_struct_pack_unpack_roundtrip(widths, data):
    total = sum(widths)
    fields = [(f"f{i}", w) for i, w in enumerate(widths)]
    if total % 8:
        fields.append((None, 8 - total % 8))
    layout = StructLayout("t", fields)
    values = {
        f"f{i}": data.draw(st.integers(min_value=0, max_value=(1 << w) - 1))
        for i, w in enumerate(widths)
    }
    assert layout.unpack(layout.pack(**values)) == values


# ---------------------------------------------------------------------------
# Addresses and headers
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**48 - 1))
def test_mac_string_roundtrip(value):
    mac = MACAddress(value)
    assert MACAddress(str(mac)) == mac
    assert MACAddress.from_bytes(mac.to_bytes()) == mac


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_ipv4_string_roundtrip(value):
    ip = IPv4Address(value)
    assert IPv4Address(str(ip)) == ip
    assert IPv4Address.from_bytes(ip.to_bytes()) == ip


@given(
    src=st.integers(min_value=0, max_value=2**32 - 1),
    dst=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=1, max_value=255),
    length=st.integers(min_value=20, max_value=1500),
)
def test_ipv4_header_checksum_always_validates(src, dst, ttl, length):
    header = IPv4Header(src=IPv4Address(src), dst=IPv4Address(dst),
                        ttl=ttl, total_length=length)
    packed = header.pack()
    assert ipv4_checksum(packed) == 0
    parsed, __ = IPv4Header.parse(packed)
    assert parsed.src == header.src and parsed.dst == header.dst


@given(
    payload=st.binary(max_size=512),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_port=st.integers(min_value=0, max_value=65535),
)
def test_udp_frame_roundtrip(payload, src_port, dst_port):
    packet = Packet.udp(
        src_mac=MACAddress(1), dst_mac=MACAddress(2),
        src_ip=IPv4Address("1.2.3.4"), dst_ip=IPv4Address("5.6.7.8"),
        src_port=src_port, dst_port=dst_port, payload=payload,
    )
    __, __, udp, parsed_payload = packet.parse_udp()
    assert parsed_payload == payload
    assert (udp.src_port, udp.dst_port) == (src_port, dst_port)


# ---------------------------------------------------------------------------
# Trio-ML protocol and records
# ---------------------------------------------------------------------------

_int32 = st.integers(min_value=-2**31, max_value=2**31 - 1)


@given(data=st.binary(min_size=12, max_size=12))
def test_trio_ml_header_unpack_matches_layout(data):
    fields = TRIO_ML_HEADER_LAYOUT.unpack(data)
    header = TrioMLHeader.unpack(data)
    assert header == TrioMLHeader(
        job_id=fields["job_id"], block_id=fields["block_id"],
        src_id=fields["src_id"], grad_cnt=fields["grad_cnt"],
        gen_id=fields["gen_id"], age_op=fields["age_op"],
        final=bool(fields["final"]), degraded=bool(fields["degraded"]),
        src_cnt=fields["src_cnt"])
    assert type(header.final) is bool and type(header.degraded) is bool


@given(
    job_id=st.integers(min_value=0, max_value=255),
    block_id=st.integers(min_value=0, max_value=2**32 - 1),
    src_id=st.integers(min_value=0, max_value=255),
    gen_id=st.integers(min_value=0, max_value=2**16 - 1),
    gradients=st.lists(_int32, min_size=0, max_size=64),
)
def test_trio_ml_payload_roundtrip(job_id, block_id, src_id, gen_id,
                                   gradients):
    header = TrioMLHeader(job_id=job_id, block_id=block_id, src_id=src_id,
                          grad_cnt=len(gradients), gen_id=gen_id)
    parsed, decoded = decode_trio_ml(encode_trio_ml(header, gradients))
    assert decoded.tolist() == gradients
    assert (parsed.job_id, parsed.block_id, parsed.src_id, parsed.gen_id) == (
        job_id, block_id, src_id, gen_id
    )


@given(
    src_cnt=st.integers(min_value=0, max_value=255),
    src_mask=st.integers(min_value=0, max_value=2**256 - 1),
    grad_max=st.integers(min_value=0, max_value=4095),
    exp_ms=st.integers(min_value=0, max_value=255),
)
def test_job_record_roundtrip(src_cnt, src_mask, grad_max, exp_ms):
    record = JobRecord(job_id=1, src_cnt=src_cnt, src_mask=src_mask,
                       block_grad_max=grad_max, block_exp_ms=exp_ms)
    parsed = JobRecord.unpack(record.pack(), job_id=1)
    assert parsed.src_mask == src_mask
    assert parsed.src_cnt == src_cnt
    assert parsed.block_grad_max == grad_max


@given(
    rcvd_mask=st.integers(min_value=0, max_value=2**256 - 1),
    grad_cnt=st.integers(min_value=0, max_value=4095),
    start=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_block_record_roundtrip(rcvd_mask, grad_cnt, start):
    record = BlockRecord(job_id=1, block_id=2, gen_id=3, grad_cnt=grad_cnt,
                         block_exp_ms=10, block_start_time=start,
                         job_ctx_paddr=0, aggr_paddr=0, rcvd_mask=rcvd_mask)
    parsed = BlockRecord.unpack(record.pack(), job_id=1, block_id=2, gen_id=3)
    assert parsed.rcvd_mask == rcvd_mask
    assert parsed.grad_cnt == grad_cnt
    assert parsed.block_start_time == start


# ---------------------------------------------------------------------------
# Shared memory
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000),
                  st.binary(min_size=1, max_size=64)),
        min_size=1, max_size=20,
    )
)
def test_memory_last_write_wins(writes):
    env = Environment()
    memory = SharedMemorySystem(env, GENERATIONS[5])
    base = memory.alloc(2048, region="sram")
    shadow = bytearray(2048)
    for offset, data in writes:
        memory.write_raw(base + offset, data)
        shadow[offset:offset + len(data)] = data
    assert memory.read_raw(base, 2048) == bytes(shadow)


@settings(max_examples=20, deadline=None)
@given(
    vectors=st.lists(
        st.lists(_int32, min_size=8, max_size=8), min_size=1, max_size=8
    )
)
def test_bulk_add32_commutes_with_python_sum(vectors):
    env = Environment()
    memory = SharedMemorySystem(env, GENERATIONS[5])
    addr = memory.alloc(64, region="sram")

    def proc():
        for vector in vectors:
            yield from memory.bulk_add32(addr, vector)

    env.run(until=env.process(proc()))
    raw = memory.read_raw(addr, 32)
    for i in range(8):
        expected = sum(v[i] for v in vectors) & 0xFFFFFFFF
        assert int.from_bytes(raw[4 * i:4 * i + 4], "little") == expected


# ---------------------------------------------------------------------------
# Reorder engine
# ---------------------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    completion_order=st.permutations(list(range(8))),
)
def test_reorder_releases_in_arrival_order(completion_order):
    released = []
    engine = ReorderEngine(release=released.append)
    seqs = [engine.arrival("flow") for __ in range(8)]
    for index in completion_order:
        engine.complete("flow", seqs[index], [index])
    assert released == list(range(8))


@settings(max_examples=30, deadline=None)
@given(
    flows=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20),
    data=st.data(),
)
def test_reorder_per_flow_order_with_interleaving(flows, data):
    released = []
    engine = ReorderEngine(release=released.append)
    arrivals = [(flow, engine.arrival(flow), i) for i, flow in enumerate(flows)]
    order = data.draw(st.permutations(arrivals))
    for flow, seq, tag in order:
        engine.complete(flow, seq, [(flow, tag)])
    for flow in "abc":
        tags = [tag for f, tag in released if f == flow]
        assert tags == sorted(tags)


# ---------------------------------------------------------------------------
# Quantiser
# ---------------------------------------------------------------------------


@given(
    gradients=st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=1, max_size=64,
    )
)
def test_quantizer_error_bounded(gradients):
    quantizer = GradientQuantizer(scale=1e4, num_workers=6)
    assert quantizer.roundtrip_error(gradients) <= 0.5 / quantizer.scale + 1e-12


@given(
    gradients=st.lists(st.floats(min_value=-1e9, max_value=1e9,
                                 allow_nan=False),
                       min_size=1, max_size=32),
    workers=st.integers(min_value=1, max_value=8),
)
def test_quantizer_sum_never_overflows_int32(gradients, workers):
    quantizer = GradientQuantizer(scale=1e6, num_workers=workers)
    ticks = quantizer.quantize(gradients)
    worst = max(abs(t) for t in ticks)
    assert worst * workers <= 2**31 - 1 + workers  # rounding slack
