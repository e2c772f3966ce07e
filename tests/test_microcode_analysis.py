"""Static-analysis tests: the bad-program corpus, clean builtins, the
compiler integration, and disassembly round-trips.

``tests/corpus/*.mc`` are deliberately defective programs, one seeded
defect class per file; each test asserts the analyzer reports the
expected diagnostic *code* anchored with a real source location.
"""

import os

import pytest

from repro.microcode import (
    AnalysisError,
    BUILTIN_PROGRAMS,
    TrioCompiler,
    analyze_program,
    disassemble,
)
from repro.microcode.analysis import _PointerChecker
from repro.microcode.analysis import analyze_program as analyze_direct, main

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")


def _analyze_corpus(filename, entry="main", externs=("out",)):
    path = os.path.join(CORPUS, filename)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    compiler = TrioCompiler(extern_labels=externs)
    program = compiler.compile(source, entry=entry)
    return analyze_program(program, source=source, filename=path)


def _codes(report):
    return {diag.code for diag in report.diagnostics}


# ---------------------------------------------------------------------------
# The seeded-defect corpus.
# ---------------------------------------------------------------------------

def test_corpus_goto_loop_reports_mc201():
    report = _analyze_corpus("goto_loop.mc", externs=())
    assert "MC201" in _codes(report)
    assert report.errors
    diag = next(d for d in report.diagnostics if d.code == "MC201")
    assert diag.severity == "error"
    assert diag.span is not None and diag.span.line > 0
    assert "goto_loop.mc" in diag.span.filename
    assert not report.entry_budget().bounded


def test_corpus_use_before_def_reports_mc101():
    report = _analyze_corpus("use_before_def.mc")
    assert "MC101" in _codes(report)
    diag = next(d for d in report.diagnostics if d.code == "MC101")
    assert diag.severity == "error"
    assert "r0" in diag.message
    # The span must point into the entry body, not at the reg decl.
    assert diag.span.line >= 7


def test_corpus_bad_pointer_reports_layout_errors():
    report = _analyze_corpus("bad_pointer.mc")
    codes = _codes(report)
    assert "MC301" in codes  # binding extent leaves LMEM
    assert "MC303" in codes  # field the struct never defines
    assert all(
        d.severity == "error"
        for d in report.diagnostics if d.code in ("MC301", "MC303")
    )


def test_corpus_bad_pointer_folded_offsets():
    # `base + ~(-1277)` and `base + off` (a local const) both fold to
    # byte 1276: each pointer's extent and each `->b` leave LMEM.
    report = _analyze_corpus("bad_pointer_folded.mc")
    found = sorted((d.span.line, d.code) for d in report.diagnostics)
    assert found == [(20, "MC301"), (21, "MC302"),
                     (23, "MC301"), (24, "MC302")]
    assert all(d.severity == "error" for d in report.diagnostics)


def test_local_const_folds_only_when_every_binding_agrees():
    source = """
    struct hdr_t { a : 32; b : 32; };
    reg r0;
    ptr base = hdr_t @ 0;
    main: begin
        if (r_work.pkt_len > 64) {
            const : off = 1276;
            const hdr_t *p = base + off;
        } else {
            const : off = 0;
        }
        const : far = 1276;
        const hdr_t *q = base + far;
        r0 = q->a;
        goto out;
    end
    """
    program = TrioCompiler(extern_labels=("out",)).compile(source)
    report = analyze_program(program, source=source)
    # `p` is checked at its binding, where `off` is 1276; `far` has one
    # binding, so `q` is folded and its extent is reported too.
    assert sorted(d.code for d in report.diagnostics) == ["MC301", "MC301"]
    checker = _PointerChecker(program, 1280, [], "<test>")
    checker._collect()
    assert "off" not in checker.consts  # two bindings disagree
    assert checker.consts["far"] == 1276


def test_corpus_bad_pointer_respects_lmem_size():
    # With a large enough LMEM the extent errors disappear; the
    # undefined field remains.
    path = os.path.join(CORPUS, "bad_pointer.mc")
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    program = TrioCompiler(extern_labels=("out",)).compile(source, entry="main")
    report = analyze_direct(program, source=source, lmem_bytes=4096)
    codes = _codes(report)
    assert "MC301" not in codes
    assert "MC302" not in codes
    assert "MC303" in codes


def test_corpus_unreachable_reports_mc103():
    report = _analyze_corpus("unreachable.mc")
    assert "MC103" in _codes(report)
    diag = next(d for d in report.diagnostics if d.code == "MC103")
    assert diag.severity == "warning"
    assert "orphan" in diag.message
    assert "orphan" not in report.reachable
    assert not report.errors  # dead code alone is not an error


def test_corpus_cli_exit_codes(capsys):
    loop = os.path.join(CORPUS, "goto_loop.mc")
    assert main([loop]) == 1
    out = capsys.readouterr().out
    assert "MC201" in out and "goto_loop.mc" in out
    # Warnings alone pass, unless --werror.
    orphan = os.path.join(CORPUS, "unreachable.mc")
    assert main([orphan, "--extern", "out"]) == 0
    capsys.readouterr()
    assert main([orphan, "--extern", "out", "--werror"]) == 1


def test_cli_reports_unreadable_files_and_goes_on(tmp_path, capsys):
    binary = tmp_path / "binary.mc"
    binary.write_bytes(b"\xff\xfe not utf-8")
    missing = tmp_path / "missing.mc"
    clean = os.path.join(CORPUS, "unreachable.mc")
    assert main([str(missing), str(tmp_path), str(binary), clean,
                 "--extern", "out"]) == 1
    captured = capsys.readouterr()
    assert f"error: {missing}: No such file or directory" in captured.err
    assert f"error: {tmp_path}: Is a directory" in captured.err
    assert f"error: {binary}: 'utf-8' codec can't decode" in captured.err
    assert f"== {clean}" in captured.out  # the readable file still ran


def test_corpus_recursive_call_reports_mc204(capsys):
    # A self call and a mutual pair: def-use stops at a label already
    # on its call chain, and the bound solver reports each chain once.
    report = _analyze_corpus("recursive_call.mc")
    chains = [d for d in report.diagnostics if d.code == "MC204"]
    assert sorted(d.message.split("'")[1] for d in chains) == ["ping", "spin"]
    assert all(d.severity == "warning" for d in chains)
    assert not report.entry_budget().bounded
    path = os.path.join(CORPUS, "recursive_call.mc")
    assert main([path, "--extern", "out", "--werror"]) == 1
    assert "MC204" in capsys.readouterr().out


def test_corpus_huge_shift_exits_one_with_diagnostic(capsys):
    path = os.path.join(CORPUS, "huge_shift.mc")
    assert main([path, "--extern", "out", "--werror"]) == 1
    assert "shift count too large" in capsys.readouterr().err


def test_huge_local_const_shift_is_left_unfolded():
    # TC never folds a local const, so this program compiles; the
    # analyzer's fold treats the over-bound shift as unfoldable.
    source = """
    reg r0;
    main: begin
        const : k = 1 << (1 << 63);
        r0 = k;
        goto out;
    end
    """
    program = TrioCompiler(extern_labels=("out",)).compile(source)
    assert analyze_program(program, source=source).clean
    checker = _PointerChecker(program, 1280, [], "<test>")
    checker._collect()
    assert "k" not in checker.consts


# ---------------------------------------------------------------------------
# Builtins must be clean, bounded, and round-trippable.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAMS))
def test_builtin_programs_analyze_clean(name):
    spec = BUILTIN_PROGRAMS[name]
    program = spec.compile()
    report = analyze_program(program, source=spec.source)
    assert report.clean, report.render()
    budget = report.entry_budget()
    assert budget.bounded
    assert 1 <= budget.instructions < 100


@pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAMS))
def test_builtin_programs_compile_under_analyze_error(name):
    spec = BUILTIN_PROGRAMS[name]
    program = spec.compile(analyze="error")
    assert program.analysis is not None
    assert program.analysis.clean


def test_builtins_cli_gate_passes():
    assert main(["--builtins", "--werror"]) == 0


@pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAMS))
def test_builtin_disassembly_round_trips(name):
    spec = BUILTIN_PROGRAMS[name]
    program = spec.compile()
    text = disassemble(program)
    reprogram = TrioCompiler(extern_labels=spec.extern_labels).compile(
        text, entry=spec.entry
    )
    assert disassemble(reprogram) == text
    for struct, layout in program.structs.items():
        assert reprogram.structs[struct].total_bits == layout.total_bits
    # The round-tripped program is just as clean.
    assert analyze_program(reprogram, source=text).clean


@pytest.mark.parametrize("name", sorted(BUILTIN_PROGRAMS))
def test_disassembly_carries_analysis_annotations(name):
    spec = BUILTIN_PROGRAMS[name]
    program = spec.compile()
    report = analyze_program(program, source=spec.source)
    text = disassemble(program, analysis=report)
    assert "// analysis:" in text
    assert "worst case from here:" in text


# ---------------------------------------------------------------------------
# Compiler integration.
# ---------------------------------------------------------------------------

LOOP_SOURCE = """
main:
begin
    goto main;
end
"""


def test_compiler_analyze_error_rejects_divergence():
    compiler = TrioCompiler(analyze="error")
    with pytest.raises(AnalysisError) as excinfo:
        compiler.compile(LOOP_SOURCE)
    assert any(d.code == "MC201" for d in excinfo.value.diagnostics)


def test_compiler_analyze_warn_attaches_report(capsys):
    compiler = TrioCompiler(analyze="warn")
    program = compiler.compile(LOOP_SOURCE)
    assert program.analysis is not None
    assert any(d.code == "MC201" for d in program.analysis.diagnostics)
    assert "MC201" in capsys.readouterr().err


def test_compiler_analyze_off_skips_analysis():
    program = TrioCompiler().compile(LOOP_SOURCE)
    assert program.analysis is None


def test_compiler_rejects_unknown_analyze_mode():
    with pytest.raises(ValueError):
        TrioCompiler(analyze="strict")


def test_data_dependent_loop_is_warning_not_error():
    source = """
reg r0;

main:
begin
    r0 = 0;
    goto step;
end

step:
begin
    r0 = r0 + 1;
    if (r0 == 8) {
        goto out;
    }
    goto step;
end
"""
    program = TrioCompiler(extern_labels=("out",)).compile(source)
    report = analyze_program(program, source=source)
    codes = _codes(report)
    assert "MC203" in codes
    assert "MC201" not in codes
    assert not report.errors
    assert not report.entry_budget().bounded
