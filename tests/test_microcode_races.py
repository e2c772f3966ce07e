"""MC4xx shared-state atomicity tests: the race corpus, the clean
twins, inline probes of the per-path walker, the Dmem intrinsic
executors, and the deterministic-CLI contract.

The static verdicts asserted here are cross-validated at runtime by
``tests/test_racecheck.py`` (the same racy program must lose updates on
concurrent threads; the RMW-correct twin must not).
"""

import os

import pytest

from repro.microcode import (
    AnalysisError,
    BUILTIN_PROGRAMS,
    MicrocodeExecutor,
    TrioCompiler,
    analyze_program,
)
from repro.microcode.analysis import main as analysis_main
from repro.microcode.intrinsics import SHARED_INTRINSICS

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _analyze_corpus(filename, entry="main", externs=("out",)):
    path = os.path.join(CORPUS, filename)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = TrioCompiler(extern_labels=externs).compile(source, entry=entry)
    return analyze_program(program, source=source, filename=path)


def _analyze_source(source, entry="main", externs=("out",)):
    program = TrioCompiler(extern_labels=externs).compile(source, entry=entry)
    return analyze_program(program, source=source, filename="<test>")


def _codes(report):
    return {diag.code for diag in report.diagnostics}


# ---------------------------------------------------------------------------
# The intrinsic table is the single source of truth all three consumers
# (compiler, analyzer, interpreter) share.
# ---------------------------------------------------------------------------

def test_intrinsic_table_classification():
    assert SHARED_INTRINSICS["DmemLoad"].access == "read"
    assert not SHARED_INTRINSICS["DmemLoad"].atomic
    assert SHARED_INTRINSICS["DmemStore"].access == "write"
    assert not SHARED_INTRINSICS["DmemStore"].atomic
    assert SHARED_INTRINSICS["DmemAdd32"].atomic
    assert SHARED_INTRINSICS["DmemSwap"].atomic
    assert SHARED_INTRINSICS["CounterIncPhys"].atomic
    # CounterIncPhys addresses are in 8-byte words over 16-byte counters.
    assert SHARED_INTRINSICS["CounterIncPhys"].addr_scale == 8
    assert SHARED_INTRINSICS["CounterIncPhys"].size_bytes == 16


# ---------------------------------------------------------------------------
# The seeded-defect corpus (one defect per file) and the clean twins.
# ---------------------------------------------------------------------------

def test_corpus_race_mc401_lost_update():
    report = _analyze_corpus("race_mc401.mc")
    diag = next(d for d in report.diagnostics if d.code == "MC401")
    assert diag.severity == "error"
    assert diag.span is not None and diag.span.line > 0
    assert "lost update" in diag.message
    # MC401 subsumes the torn-access diagnosis for the same pair.
    assert "MC402" not in _codes(report)


def test_corpus_race_mc401_folded_address():
    # The store address is `~(-65)`: TC's constant semantics fold it to
    # the loaded word 64, so the pair is the same lost update.
    report = _analyze_corpus("race_mc401_folded.mc")
    assert [d.code for d in report.diagnostics] == ["MC401"]
    assert "dmem[0x40..0x44)" in report.diagnostics[0].message


def test_corpus_race_mc402_torn_access():
    report = _analyze_corpus("race_mc402.mc")
    diag = next(d for d in report.diagnostics if d.code == "MC402")
    assert diag.severity == "error"
    assert diag.span is not None and diag.span.line > 0
    # The stored constant is not derived from the load: no lost-update
    # dataflow, so MC401 must NOT fire.
    assert "MC401" not in _codes(report)


def test_corpus_race_mc403_needless_serialization():
    report = _analyze_corpus("race_mc403.mc")
    diag = next(d for d in report.diagnostics if d.code == "MC403")
    assert diag.severity == "warning"
    assert not report.errors


@pytest.mark.parametrize("filename", [
    "clean/race_mc401_fixed.mc",
    "clean/race_mc402_fixed.mc",
    "clean/race_mc403_fixed.mc",
])
def test_clean_twins_have_no_diagnostics(filename):
    report = _analyze_corpus(filename)
    assert report.diagnostics == []


def test_builtin_programs_pass_mc4xx():
    for name, builtin in sorted(BUILTIN_PROGRAMS.items()):
        program = TrioCompiler(
            extern_labels=builtin.extern_labels).compile(
            builtin.source, entry=builtin.entry)
        report = analyze_program(program, source=builtin.source,
                                 filename=name)
        assert not any(d.code.startswith("MC4") for d in report.diagnostics), \
            f"builtin {name} tripped MC4xx"


# ---------------------------------------------------------------------------
# Walker behaviour probes.
# ---------------------------------------------------------------------------

def test_rmw_barrier_does_not_clear_taint():
    # The DmemAdd32 closes the torn window, but the store still writes a
    # value derived from the stale load — the add is clobbered.  MC401
    # must survive the barrier.
    report = _analyze_source("""
        const CNT = 64;
        reg r;
        main: begin
            DmemLoad(r, CNT);
            DmemAdd32(CNT, 1);
            DmemStore(CNT, r);
            goto out;
        end
    """)
    assert "MC401" in _codes(report)


def test_disjoint_extents_are_clean():
    report = _analyze_source("""
        const A = 64;
        const B = 128;
        reg r;
        main: begin
            DmemLoad(r, A);
            DmemStore(B, 7);
            goto out;
        end
    """)
    assert not any(c.startswith("MC4") for c in _codes(report))


def test_symbolic_alias_through_local_const():
    # The address is register-derived (not foldable to an int) but both
    # accesses expand to the same canonical expression: still a race.
    report = _analyze_source("""
        reg r_idx;
        reg r_val;
        main: begin
            r_idx = r_work.pkt_len;
            const : slot = r_idx * 4;
            DmemLoad(r_val, slot);
            goto bump;
        end
        bump: begin
            const : slot = r_idx * 4;
            r_val = r_val + 1;
            DmemStore(slot, r_val);
            goto out;
        end
    """)
    assert "MC401" in _codes(report)


def test_race_detected_across_subroutine():
    report = _analyze_source("""
        const CNT = 64;
        reg r;
        main: begin
            DmemLoad(r, CNT);
            r = r + 1;
            call flush;
            goto out;
        end
        flush: begin
            DmemStore(CNT, r);
            return;
        end
    """)
    assert "MC401" in _codes(report)


def test_compiler_inline_analysis_rejects_racy_program():
    from repro.tools.racecheck import RACY_COUNTER_SOURCE, SAFE_COUNTER_SOURCE

    with pytest.raises(AnalysisError):
        TrioCompiler(extern_labels=("done",), analyze="error").compile(
            RACY_COUNTER_SOURCE, entry="count")
    # The RMW-correct twin compiles under the same gate.
    TrioCompiler(extern_labels=("done",), analyze="error").compile(
        SAFE_COUNTER_SOURCE, entry="count")


# ---------------------------------------------------------------------------
# Dmem intrinsic execution (the interpreter side of the same table).
# ---------------------------------------------------------------------------

def _run_program(source, entry, num_threads=1):
    from repro.net import IPv4Address, MACAddress, Packet
    from repro.sim import Environment
    from repro.trio import PFE
    from repro.trio.ppe import PacketContext, ThreadContext

    program = TrioCompiler(extern_labels=("done",)).compile(
        source, entry=entry)

    def done(tctx, pctx):
        return
        yield  # pragma: no cover

    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    contexts = []

    def one_thread():
        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=IPv4Address("1.1.1.1"), dst_ip=IPv4Address("2.2.2.2"),
            src_port=1, dst_port=2, payload=b"x" * 20,
        )
        head, tail = packet.split(pfe.config.head_size_bytes)
        pctx = PacketContext(packet=packet, head=bytearray(head), tail=tail)
        tctx = ThreadContext(
            env=env, ppe=pfe.ppes[0], config=pfe.config,
            memory=pfe.memory, hash_table=pfe.hash_table, packet_ctx=pctx,
        )
        contexts.append(tctx)
        executor = MicrocodeExecutor(program, terminals={"done": done})
        yield from executor.run(tctx, pctx)

    for _ in range(num_threads):
        env.process(one_thread())
    env.run()
    return pfe, program, contexts


def test_dmem_store_and_load_round_trip():
    pfe, program, contexts = _run_program("""
        reg r_back;
        main: begin
            DmemStore(128, 3735928559);
            DmemLoad(r_back, 128);
            goto done;
        end
    """, "main")
    assert int.from_bytes(pfe.memory.read_raw(128, 4), "little") == 0xDEADBEEF
    index = program.reg_map["r_back"]
    assert contexts[0].registers[index] == 0xDEADBEEF


def test_dmem_add32_accumulates_atomically():
    from repro.tools.racecheck import SAFE_COUNTER_SOURCE, \
        _run_microcode_threads

    final, threads = _run_microcode_threads(SAFE_COUNTER_SOURCE, 16)
    assert final == threads  # no update lost through the RMW engine


def test_dmem_racy_counter_loses_updates():
    # The dynamic ground truth behind MC401: the load/modify/store
    # program really does lose updates under thread concurrency.
    from repro.tools.racecheck import RACY_COUNTER_SOURCE, \
        _run_microcode_threads

    final, threads = _run_microcode_threads(RACY_COUNTER_SOURCE, 16)
    assert final < threads


def test_dmem_swap_replaces_word():
    pfe, _, _ = _run_program("""
        main: begin
            DmemStore(64, 17);
            DmemSwap(64, 99);
            goto done;
        end
    """, "main")
    assert int.from_bytes(pfe.memory.read_raw(64, 4), "little") == 99


# ---------------------------------------------------------------------------
# Deterministic CLI output.
# ---------------------------------------------------------------------------

def _run_cli(args, capsys):
    code = analysis_main(args)
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def test_cli_output_is_byte_identical_across_runs(capsys):
    path = os.path.join(CORPUS, "race_mc402.mc")
    first_code, first = _run_cli([path, "--extern", "out"], capsys)
    second_code, second = _run_cli([path, "--extern", "out"], capsys)
    assert first_code == second_code
    assert first == second
    assert "MC402" in first


def test_cli_builtins_output_is_byte_identical(capsys):
    first_code, first = _run_cli(["--builtins", "--werror"], capsys)
    second_code, second = _run_cli(["--builtins", "--werror"], capsys)
    assert first_code == second_code == 0
    assert first == second


def test_cli_diagnostics_sorted_by_position(capsys):
    # Two independent defects in one file: the report must come out in
    # (line, column, code) order regardless of discovery order.
    import tempfile

    source = """\
// two independent torn accesses
const A = 64;
const B = 128;
reg ra;
reg rb;

main: begin
    DmemLoad(rb, B);
    DmemLoad(ra, A);
    DmemStore(B, 0);
    DmemStore(A, 0);
    goto out;
end
"""
    with tempfile.NamedTemporaryFile(
            "w", suffix=".mc", delete=False) as handle:
        handle.write(source)
        path = handle.name
    try:
        code, output = _run_cli([path, "--extern", "out"], capsys)
        assert code == 1
        lines = [int(line.split(":")[-1].strip())
                 for line in output.splitlines()
                 if line.strip().startswith("--> ")]
        assert lines == sorted(lines)
        assert len(lines) >= 2
    finally:
        os.unlink(path)
