"""Tests: the Microcode port of Trio-ML's header parse agrees with the
Python protocol implementation."""

import pytest

from repro.microcode import MicrocodeExecutor
from repro.microcode.programs import BUILTIN_PROGRAMS
from repro.net import IPv4Address, MACAddress, Packet
from repro.sim import Environment
from repro.trio import PFE
from repro.trio.ppe import PacketContext, ThreadContext
from repro.trioml.protocol import TRIO_ML_UDP_PORT, TrioMLHeader, encode_trio_ml


@pytest.fixture(scope="module")
def program():
    return BUILTIN_PROGRAMS["trio_ml_parse"].compile()


def run_parse(program, packet):
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    outcome = {}

    def forward_packet(tctx, pctx):
        yield from tctx.execute(1)
        outcome["path"] = "forward"

    def aggregate(tctx, pctx):
        yield from tctx.execute(1)
        outcome["path"] = "aggregate"

    executor = MicrocodeExecutor(
        program,
        terminals={"forward_packet": forward_packet,
                   "aggregate": aggregate},
    )
    head, tail = packet.split(pfe.config.head_size_bytes)
    pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
    tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                         memory=pfe.memory, hash_table=pfe.hash_table,
                         packet_ctx=pctx)
    proc = env.process(executor.run(tctx, pctx))
    env.run(until=proc)
    regs = {
        name: tctx.registers[idx] for name, idx in program.reg_map.items()
    }
    return outcome.get("path"), regs


def ml_packet(header, gradients):
    return Packet.udp(
        src_mac=MACAddress(1), dst_mac=MACAddress(0xFE),
        src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.255.0.1"),
        src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
        payload=encode_trio_ml(header, gradients),
    )


class TestClassification:
    def test_aggregation_packet_parsed(self, program):
        header = TrioMLHeader(job_id=7, block_id=0xABCDEF, src_id=3,
                              grad_cnt=17, gen_id=0x1234)
        path, regs = run_parse(program, ml_packet(header, [0] * 17))
        assert path == "aggregate"
        assert regs["r_job_id"] == 7
        assert regs["r_block_id"] == 0xABCDEF
        assert regs["r_src_id"] == 3
        assert regs["r_grad_cnt"] == 17
        assert regs["r_gen_id"] == 0x1234

    def test_other_udp_forwarded(self, program):
        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.0.0.2"),
            src_port=53, dst_port=53, payload=b"dns",
        )
        path, __ = run_parse(program, packet)
        assert path == "forward"

    def test_non_ip_forwarded(self, program):
        from repro.net.headers import ETHERTYPE_ARP, EthernetHeader
        ether = EthernetHeader(MACAddress(2), MACAddress(1),
                               ethertype=ETHERTYPE_ARP)
        path, __ = run_parse(program, Packet(ether.pack() + bytes(50)))
        assert path == "forward"

    def test_every_instruction_fits_its_budget(self, program):
        # TC accepted the program: every instruction's operand traffic is
        # within the 4-reg/2-mem read and 2/2 write budget.
        for name, budget in program.budgets.items():
            assert budget.reg_reads <= budget.MAX_REG_READS
            assert budget.mem_reads <= budget.MAX_MEM_READS, name

    def test_parse_agrees_with_python_decoder(self, program):
        for job, block, src, cnt, gen in (
            (1, 0, 0, 1, 0),
            (255, 2**32 - 1, 255, 1024, 65535),
            (42, 1234, 17, 500, 7),
        ):
            header = TrioMLHeader(job_id=job, block_id=block, src_id=src,
                                  grad_cnt=cnt, gen_id=gen)
            path, regs = run_parse(program, ml_packet(header, [0] * cnt))
            assert path == "aggregate"
            assert (regs["r_job_id"], regs["r_block_id"], regs["r_src_id"],
                    regs["r_grad_cnt"], regs["r_gen_id"]) == (
                job, block, src, cnt, gen
            )
