"""Tests for the Trio-ML packet format and record structures."""

import pytest

from repro.trioml import (
    TRIO_ML_HEADER_LAYOUT,
    TrioMLHeader,
    decode_trio_ml,
    encode_trio_ml,
)
from repro.trioml.protocol import MAX_GRADIENTS_PER_PACKET
from repro.trioml.records import (
    BLOCK_RECORD_LAYOUT,
    BlockRecord,
    JOB_RECORD_LAYOUT,
    JobRecord,
)


class TestHeaderLayout:
    def test_header_is_12_bytes(self):
        # Figure 8: "12 bytes".
        assert TRIO_ML_HEADER_LAYOUT.size_bytes == 12

    def test_field_widths_match_figure8(self):
        widths = {name: f.width for name, f in TRIO_ML_HEADER_LAYOUT.fields.items()}
        assert widths == {
            "job_id": 8, "block_id": 32, "age_op": 4, "final": 1,
            "degraded": 1, "src_id": 8, "src_cnt": 8, "gen_id": 16,
            "grad_cnt": 12,
        }

    def test_roundtrip_all_fields(self):
        header = TrioMLHeader(
            job_id=7, block_id=0xDEADBEEF, src_id=200, grad_cnt=1024,
            gen_id=0xABCD, age_op=3, final=True, degraded=True, src_cnt=5,
        )
        assert TrioMLHeader.unpack(header.pack()) == header

    def test_default_flags_clear(self):
        header = TrioMLHeader(job_id=1, block_id=2, src_id=3, grad_cnt=4)
        parsed = TrioMLHeader.unpack(header.pack())
        assert not parsed.final and not parsed.degraded
        assert parsed.age_op == 0 and parsed.src_cnt == 0


class TestPayloadCodec:
    def test_roundtrip_with_negatives(self):
        header = TrioMLHeader(job_id=1, block_id=2, src_id=3, grad_cnt=5)
        values = [0, 1, -1, 2**31 - 1, -2**31]
        parsed, decoded = decode_trio_ml(encode_trio_ml(header, values))
        assert decoded.tolist() == values
        assert parsed.block_id == 2

    def test_count_mismatch_rejected(self):
        header = TrioMLHeader(job_id=1, block_id=2, src_id=3, grad_cnt=5)
        with pytest.raises(ValueError):
            encode_trio_ml(header, [1, 2, 3])

    def test_max_gradients_enforced(self):
        n = MAX_GRADIENTS_PER_PACKET + 1
        header = TrioMLHeader(job_id=1, block_id=2, src_id=3, grad_cnt=n)
        with pytest.raises(ValueError):
            encode_trio_ml(header, [0] * n)

    def test_truncated_payload_rejected(self):
        header = TrioMLHeader(job_id=1, block_id=2, src_id=3, grad_cnt=4)
        payload = encode_trio_ml(header, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            decode_trio_ml(payload[:-2])

    def test_too_short_for_header_rejected(self):
        with pytest.raises(ValueError):
            decode_trio_ml(b"\x00" * 5)

    def test_max_size_packet_is_4kb_payload(self):
        # Figure 7: "Up to 4096 bytes (1024 Gradients)".
        header = TrioMLHeader(job_id=1, block_id=0, src_id=0,
                              grad_cnt=MAX_GRADIENTS_PER_PACKET)
        payload = encode_trio_ml(header, [0] * MAX_GRADIENTS_PER_PACKET)
        assert len(payload) == 12 + 4096


class TestJobRecord:
    def test_layout_is_58_bytes(self):
        assert JOB_RECORD_LAYOUT.size_bytes == 58
        assert JobRecord.SIZE == 58

    def test_figure17_field_widths(self):
        widths = {name: f.width for name, f in JOB_RECORD_LAYOUT.fields.items()}
        assert widths["block_curr_cnt"] == 16
        assert widths["block_cnt_max"] == 12
        assert widths["block_grad_max"] == 12
        assert widths["block_exp"] == 8
        assert widths["block_total_cnt"] == 32
        assert widths["out_src_addr"] == 32
        assert widths["src_cnt"] == 8
        assert all(widths[f"src_mask_{i}"] == 64 for i in range(4))

    def test_pack_unpack_roundtrip(self):
        record = JobRecord(
            job_id=3, src_cnt=6, src_mask=(1 << 70) | 0b111111,
            block_grad_max=1024, block_exp_ms=10,
            out_src_addr=0x0A0B0C0D, out_dst_addr=0xEF010203,
            out_nh_addr=0x1234, block_curr_cnt=9, block_total_cnt=100,
        )
        parsed = JobRecord.unpack(record.pack(), job_id=3)
        assert parsed.src_mask == record.src_mask
        assert parsed.block_grad_max == 1024
        assert parsed.out_dst_addr == 0xEF010203
        assert parsed.block_curr_cnt == 9
        assert parsed.block_total_cnt == 100


class TestBlockRecord:
    def test_layout_is_58_bytes(self):
        assert BLOCK_RECORD_LAYOUT.size_bytes == 58
        assert BlockRecord.SIZE == 58

    def test_figure18_field_widths(self):
        widths = {name: f.width
                  for name, f in BLOCK_RECORD_LAYOUT.fields.items()}
        assert widths["block_exp"] == 8
        assert widths["block_age"] == 8
        assert widths["block_start_time"] == 64
        assert widths["job_ctx_paddr"] == 32
        assert widths["aggr_paddr"] == 32
        assert widths["grad_cnt"] == 12
        assert widths["rcvd_cnt"] == 8
        assert all(widths[f"rcvd_mask_{i}"] == 64 for i in range(4))

    def test_pack_unpack_roundtrip(self):
        record = BlockRecord(
            job_id=1, block_id=2, gen_id=3, grad_cnt=512, block_exp_ms=10,
            block_start_time=123_456_789_000, job_ctx_paddr=0x100,
            aggr_paddr=0x2000, rcvd_cnt=4, rcvd_mask=(1 << 130) | 0b1111,
            block_age=2,
        )
        parsed = BlockRecord.unpack(record.pack(), job_id=1, block_id=2,
                                    gen_id=3)
        assert parsed.grad_cnt == 512
        assert parsed.block_start_time == 123_456_789_000
        assert parsed.rcvd_mask == record.rcvd_mask
        assert parsed.block_age == 2
        assert parsed.aggr_paddr == 0x2000
