"""Unit tests for the Trio Compiler (TC) and the Microcode executor."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.microcode import (
    CompileError,
    MicrocodeExecutor,
    MicrocodeRuntimeError,
    TrioCompiler,
)
from repro.microcode.analysis import DEFAULT_LMEM_BYTES, _PointerChecker
from repro.microcode.programs import (
    FILTER_PROGRAM_SOURCE,
    build_filter_executor,
    compile_filter_program,
)
from repro.net import IPv4Address, MACAddress, Packet
from repro.net.headers import ETHERTYPE_ARP, EthernetHeader
from repro.sim import Environment
from repro.trio import PFE
from repro.trio.ppe import PacketContext, ThreadContext


def make_thread(env=None):
    env = env or Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    return env, pfe


def run_program(env, pfe, executor, packet):
    head, tail = packet.split(pfe.config.head_size_bytes)
    pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
    tctx = ThreadContext(
        env=env, ppe=pfe.ppes[0], config=pfe.config, memory=pfe.memory,
        hash_table=pfe.hash_table, packet_ctx=pctx,
    )
    proc = env.process(executor.run(tctx, pctx))
    env.run(until=proc)
    return pctx, tctx


class TestCompiler:
    def test_filter_program_compiles(self):
        program = compile_filter_program()
        assert program.entry == "process_ether"
        assert set(program.instructions) == {
            "process_ether", "process_ip", "count_dropped"
        }
        assert program.extern_labels == {"forward_packet", "drop_packet"}

    def test_struct_sizes_resolved(self):
        program = compile_filter_program()
        assert program.structs["ether_t"].size_bytes == 14
        assert program.structs["ipv4_t"].size_bytes == 20

    def test_const_folding(self):
        compiler = TrioCompiler()
        program = compiler.compile("""
        const A = 4;
        const B = A * 2 + 1;
        foo:
        begin
            exit;
        end
        """)
        assert program.consts["B"] == 9

    def test_undefined_goto_rejected(self):
        compiler = TrioCompiler()
        with pytest.raises(CompileError, match="undefined label"):
            compiler.compile("""
            foo:
            begin
                goto nowhere;
            end
            """)

    def test_extern_labels_allowed(self):
        compiler = TrioCompiler(extern_labels=["nowhere"])
        program = compiler.compile("""
        foo:
        begin
            goto nowhere;
        end
        """)
        assert "nowhere" in program.extern_labels

    def test_unknown_identifier_rejected(self):
        with pytest.raises(CompileError, match="unknown identifier"):
            TrioCompiler().compile("""
            reg r;
            foo:
            begin
                r = mystery;
                exit;
            end
            """)

    def test_duplicate_instruction_rejected(self):
        with pytest.raises(CompileError, match="duplicate instruction"):
            TrioCompiler().compile("""
            foo:
            begin
                exit;
            end
            foo:
            begin
                exit;
            end
            """)

    def test_no_instructions_rejected(self):
        with pytest.raises(CompileError):
            TrioCompiler().compile("const A = 1;")

    def test_register_read_budget_enforced(self):
        # Five register reads in one instruction: over the 4-read budget.
        with pytest.raises(CompileError, match="does not fit"):
            TrioCompiler().compile("""
            reg a; reg b; reg c; reg d; reg e; reg out;
            foo:
            begin
                out = a + b + c + d + e;
                exit;
            end
            """)

    def test_memory_read_budget_enforced(self):
        with pytest.raises(CompileError, match="does not fit"):
            TrioCompiler().compile("""
            struct t { x : 8; y : 8; z : 8; : 8; };
            ptr p = t @ 0;
            reg out;
            foo:
            begin
                out = p->x + p->y + p->z;
                exit;
            end
            """)

    def test_register_write_budget_enforced(self):
        with pytest.raises(CompileError, match="does not fit"):
            TrioCompiler().compile("""
            reg a; reg b; reg c;
            foo:
            begin
                a = 1;
                b = 2;
                c = 3;
                exit;
            end
            """)

    def test_fits_exactly_at_budget(self):
        program = TrioCompiler().compile("""
        reg a; reg b; reg c; reg d;
        reg out;
        foo:
        begin
            out = a + b + c + d;
            exit;
        end
        """)
        assert program.budgets["foo"].reg_reads == 4

    def test_splitting_across_instructions_passes(self):
        # The same five reads split over two instructions compile fine.
        program = TrioCompiler().compile("""
        reg a; reg b; reg c; reg d; reg e; reg tmp; reg out;
        first:
        begin
            tmp = a + b + c + d;
            goto second;
        end
        second:
        begin
            out = tmp + e;
            exit;
        end
        """)
        assert program.num_instructions == 2

    def test_ptr_to_unknown_struct_rejected(self):
        with pytest.raises(CompileError, match="unknown struct"):
            TrioCompiler().compile("""
            ptr p = ghost @ 0;
            foo:
            begin
                exit;
            end
            """)

    def test_entry_override(self):
        program = TrioCompiler().compile("""
        a:
        begin
            exit;
        end
        b:
        begin
            exit;
        end
        """, entry="b")
        assert program.entry == "b"
        with pytest.raises(CompileError):
            TrioCompiler().compile("a:\nbegin\nexit;\nend", entry="zz")

    def test_division_by_zero_in_const(self):
        with pytest.raises(CompileError):
            TrioCompiler().compile("""
            const BAD = 1 / 0;
            foo:
            begin
                exit;
            end
            """)


class TestExecutor:
    def make_udp(self):
        return Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.0.0.2"),
            src_port=1, dst_port=2, payload=b"x" * 30,
        )

    def test_filter_forwards_clean_ip(self):
        env, pfe = make_thread()
        executor = build_filter_executor(
            pfe.memory.alloc(32, region="sram", align=16)
        )
        pctx, __ = run_program(env, pfe, executor, self.make_udp())
        assert pctx.action == "forward"

    def test_filter_drops_and_counts_non_ip(self):
        env, pfe = make_thread()
        base = pfe.memory.alloc(32, region="sram", align=16)
        executor = build_filter_executor(base)
        ether = EthernetHeader(MACAddress(2), MACAddress(1),
                               ethertype=ETHERTYPE_ARP)
        pctx, __ = run_program(env, pfe, executor,
                               Packet(ether.pack() + bytes(50)))
        assert pctx.action == "drop"
        raw = pfe.memory.read_raw(base, 16)
        assert int.from_bytes(raw[:8], "little") == 1
        assert int.from_bytes(raw[8:], "little") == 64

    def test_filter_drops_ip_options_into_second_counter(self):
        env, pfe = make_thread()
        base = pfe.memory.alloc(32, region="sram", align=16)
        executor = build_filter_executor(base)
        packet = self.make_udp()
        raw = bytearray(packet.data)
        raw[14] = 0x46  # version 4, IHL 6 -> options present
        pctx, __ = run_program(env, pfe, executor, Packet(bytes(raw)))
        assert pctx.action == "drop"
        counter2 = pfe.memory.read_raw(base + 16, 16)
        assert int.from_bytes(counter2[:8], "little") == 1

    def test_instruction_latency_charged(self):
        env, pfe = make_thread()
        executor = build_filter_executor(
            pfe.memory.alloc(32, region="sram", align=16)
        )
        __, tctx = run_program(env, pfe, executor, self.make_udp())
        # process_ether + process_ip + forward terminal (4 instr).
        assert tctx.instructions >= 3
        assert env.now > 0

    def test_missing_terminal_rejected(self):
        program = compile_filter_program()
        with pytest.raises(MicrocodeRuntimeError, match="terminal"):
            MicrocodeExecutor(program, terminals={})

    def test_goto_loop_detected(self):
        program = TrioCompiler().compile("""
        spin:
        begin
            goto spin;
        end
        """)
        executor = MicrocodeExecutor(program)
        env, pfe = make_thread()

        def run_bad():
            packet = self.make_udp()
            head, tail = packet.split(192)
            pctx = PacketContext(packet=packet, head=bytearray(head),
                                 tail=tail)
            tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                                 memory=pfe.memory,
                                 hash_table=pfe.hash_table, packet_ctx=pctx)
            yield from executor.run(tctx, pctx)

        proc = env.process(run_bad())
        with pytest.raises(MicrocodeRuntimeError, match="goto loop"):
            env.run(until=proc)

    def test_unknown_intrinsic_raises(self):
        program = TrioCompiler().compile("""
        foo:
        begin
            Fire(1);
            exit;
        end
        """)
        executor = MicrocodeExecutor(program)
        env, pfe = make_thread()
        packet = self.make_udp()
        head, tail = packet.split(192)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)
        proc = env.process(executor.run(tctx, pctx))
        with pytest.raises(MicrocodeRuntimeError, match="intrinsic"):
            env.run(until=proc)

    def test_field_write_visible_in_lmem(self):
        program = TrioCompiler().compile("""
        struct t { a : 16; };
        ptr p = t @ 0;
        foo:
        begin
            p->a = 0xBEEF;
            exit;
        end
        """)
        executor = MicrocodeExecutor(program)
        env, pfe = make_thread()
        packet = self.make_udp()
        head, tail = packet.split(192)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)
        proc = env.process(executor.run(tctx, pctx))
        env.run(until=proc)
        assert bytes(tctx.lmem[:2]) == b"\xBE\xEF"

    def test_registers_persist_across_instructions(self):
        program = TrioCompiler().compile("""
        reg acc;
        first:
        begin
            acc = 5;
            goto second;
        end
        second:
        begin
            acc = acc * 3;
            exit;
        end
        """)
        executor = MicrocodeExecutor(program)
        env, pfe = make_thread()
        packet = self.make_udp()
        head, tail = packet.split(192)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)
        proc = env.process(executor.run(tctx, pctx))
        env.run(until=proc)
        assert tctx.registers[program.reg_map["acc"]] == 15

    def test_short_circuit_evaluation(self):
        # `0 && (1/0)` must not evaluate the right side.
        program = TrioCompiler().compile("""
        reg r;
        foo:
        begin
            r = 0 && 1 / 0;
            exit;
        end
        """)
        executor = MicrocodeExecutor(program)
        env, pfe = make_thread()
        packet = self.make_udp()
        head, tail = packet.split(192)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)
        proc = env.process(executor.run(tctx, pctx))
        env.run(until=proc)
        assert tctx.registers[program.reg_map["r"]] == 0


# ---------------------------------------------------------------------------
# One expression semantics: TC, the analyzer and the interpreter agree.
# ---------------------------------------------------------------------------

_UNARY_OPS = ("-", "~", "!")
_BINARY_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "==", "!=", "<",
               ">", "<=", ">=", "&&", "||")


def _constant_exprs():
    """Constant expressions over every operator, as Microcode source.

    A shift count is a small literal, negated or not, so no shift builds
    a huge integer (a negative count is a compile error).
    """
    literals = st.integers(min_value=0, max_value=2**40).map(str)
    shift_counts = st.integers(min_value=-2, max_value=70).map(
        lambda n: f"-({-n})" if n < 0 else str(n))

    def grow(children):
        unary = st.tuples(st.sampled_from(_UNARY_OPS), children).map(
            lambda t: f"{t[0]}({t[1]})")
        binary = st.tuples(children, st.sampled_from(_BINARY_OPS),
                           children).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        shift = st.tuples(children, st.sampled_from(("<<", ">>")),
                          shift_counts).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        return unary | binary | shift

    return st.recursive(literals, grow, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(_constant_exprs())
@example("~(-(65))")
@example("!((7 % 0))")
@example("(1 << -(1))")
def test_constant_expression_has_one_value(expr):
    # TC: a top-level const.
    try:
        expected = TrioCompiler().compile(
            f"const X = {expr};\nfoo: begin exit; end").consts["X"]
    except CompileError as exc:
        expected = exc
    program = TrioCompiler().compile(f"""
    reg r;
    foo:
    begin
        const : k = {expr};
        r = {expr};
        exit;
    end
    """)
    # The analyzer: the pointer pass's fold of the local const.  It
    # never folds what TC rejects.
    checker = _PointerChecker(program, DEFAULT_LMEM_BYTES, [], "<test>")
    checker._collect()
    if isinstance(expected, CompileError):
        assert "k" not in checker.consts
        return
    assert checker.consts["k"] == expected
    # The interpreter: the value a PPE thread writes to its register.
    env, pfe = make_thread()
    packet = Packet.udp(
        src_mac=MACAddress(1), dst_mac=MACAddress(2),
        src_ip=IPv4Address("10.0.0.1"), dst_ip=IPv4Address("10.0.0.2"),
        src_port=1, dst_port=2, payload=b"x",
    )
    __, tctx = run_program(env, pfe, MicrocodeExecutor(program), packet)
    assert tctx.registers[program.reg_map["r"]] == expected % 2**64
