"""Dynamic race checker tests: happens-before analysis over synthetic
windows, the race session as an obs-bus sink (one recording gate), the
CI scenarios, and the zero-overhead contract (results bit-identical with
the checker on or off)."""

import os
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.flowsim import packetref, reset_reference_caches
from repro.harness import experiments
from repro.microcode import TrioCompiler, analyze_program
from repro.sim import Environment
from repro.tools import racecheck as rc
from repro.tools.racecheck import (
    RACY_COUNTER_SOURCE,
    SAFE_COUNTER_SOURCE,
    RaceCheckSession,
    _run_microcode_threads,
)
from repro.trio import PFE, Policer


@pytest.fixture(autouse=True)
def _no_leaked_session():
    rc.disable()
    yield
    rc.disable()


# ---------------------------------------------------------------------------
# Happens-before analysis over synthetic access windows.
# ---------------------------------------------------------------------------

def test_lost_update_detected():
    s = RaceCheckSession()
    # Victim thread 0: plain read then plain write-back of [64, 68).
    s.record(0, "read", 64, 4, start=0.0, end=10.0)
    s.record(0, "write", 64, 4, start=20.0, end=30.0)
    # Thread 1's write commits inside the span: overwritten.
    s.record(1, "write", 64, 4, start=12.0, end=15.0)
    kinds = {f.kind for f in s.analyze()}
    assert "lost_update" in kinds


def test_lost_update_requires_other_actor_commit_inside_span():
    s = RaceCheckSession()
    s.record(0, "read", 64, 4, start=0.0, end=10.0)
    s.record(0, "write", 64, 4, start=20.0, end=30.0)
    # The other write commits after the victim's write-back: no loss.
    s.record(1, "write", 64, 4, start=40.0, end=50.0)
    assert [f for f in s.analyze() if f.kind == "lost_update"] == []


def test_same_actor_atomic_closes_the_span():
    s = RaceCheckSession()
    s.record(0, "read", 64, 4, start=0.0, end=10.0)
    # The victim synchronizes through the RMW engine before writing.
    s.record(0, "write", 64, 4, start=12.0, end=14.0, atomic=True)
    s.record(0, "write", 64, 4, start=20.0, end=30.0)
    s.record(1, "write", 64, 4, start=15.0, end=16.0)
    assert [f for f in s.analyze() if f.kind == "lost_update"] == []


def test_concurrent_plain_conflict_detected():
    s = RaceCheckSession()
    s.record(0, "write", 64, 4, start=0.0, end=10.0)
    s.record(1, "read", 66, 4, start=5.0, end=15.0)  # overlapping extent
    findings = s.analyze()
    assert any(f.kind == "concurrent_conflict" for f in findings)
    conflict = next(f for f in findings if f.kind == "concurrent_conflict")
    assert conflict.lo == 66 and conflict.hi == 68


def test_rmw_involved_overlaps_never_flagged():
    # The fig14 straggler pattern: a timer thread's bulk_read racing a
    # straggler's bulk_add32 — both engine-serialized, both correct.
    s = RaceCheckSession()
    s.record(0, "write", 64, 64, start=0.0, end=10.0, atomic=True)
    s.record(1, "read", 64, 64, start=5.0, end=15.0, atomic=True)
    s.record(2, "write", 64, 4, start=6.0, end=9.0, atomic=True)
    assert s.analyze() == []


def test_read_read_overlap_is_not_a_conflict():
    s = RaceCheckSession()
    s.record(0, "read", 64, 4, start=0.0, end=10.0)
    s.record(1, "read", 64, 4, start=5.0, end=15.0)
    assert s.analyze() == []


def test_disjoint_extents_are_not_a_conflict():
    s = RaceCheckSession()
    s.record(0, "write", 64, 4, start=0.0, end=10.0)
    s.record(1, "write", 68, 4, start=5.0, end=15.0)
    assert s.analyze() == []


def test_disjoint_windows_are_not_a_conflict():
    s = RaceCheckSession()
    s.record(0, "write", 64, 4, start=0.0, end=10.0)
    s.record(1, "write", 64, 4, start=10.0, end=20.0)
    assert [f for f in s.analyze() if f.kind == "concurrent_conflict"] == []


def test_findings_dedup_to_one_per_location():
    s = RaceCheckSession()
    for actor in range(8):
        s.record(actor, "write", 64, 4, start=0.0, end=100.0)
    findings = s.analyze()
    assert len([f for f in findings
                if f.kind == "concurrent_conflict"]) == 1


def test_unattributed_accesses_get_unique_anonymous_actors():
    s = RaceCheckSession()
    # Two driver-level accesses with no thread id must never be fused
    # into a same-actor read->write victim pair...
    s.record(None, "read", 64, 4, start=0.0, end=10.0)
    s.record(None, "write", 64, 4, start=20.0, end=30.0)
    s.record(1, "write", 64, 4, start=12.0, end=15.0)
    assert [f for f in s.analyze() if f.kind == "lost_update"] == []
    # ...but they still participate as *different* actors.
    actors = {a.actor for a in s.accesses}
    assert len(actors) == 3


def test_hash_keys_intern_to_synthetic_space():
    s = RaceCheckSession()
    s.record_hash(0, "write", ("job", 1), start=0.0, end=1.0)
    s.record_hash(1, "read", ("job", 1), start=0.5, end=1.5)
    s.record_hash(0, "write", ("job", 2), start=0.0, end=1.0)
    assert s.summary()["hash_keys"] == 2
    # Hash-block ops are serialized by the block: atomic, never flagged.
    assert s.analyze() == []


def test_engine_commit_accounting():
    s = RaceCheckSession()
    s.note_engine_commit(3)
    s.note_engine_commit(3)
    s.note_engine_commit(5)
    assert s.engine_commits == {3: 2, 5: 1}
    assert s.summary()["engine_commits"] == 3


# ---------------------------------------------------------------------------
# One recording gate: the race session is a sink on the obs bus.
# ---------------------------------------------------------------------------

def test_session_lifecycle():
    assert obs.session() is None
    active = rc.enable()
    assert obs.session() is active
    assert obs.enabled()
    finished = rc.disable()
    assert finished is active
    assert obs.session() is None
    assert rc.disable() is None


def test_plain_obs_session_keeps_no_windows():
    # Windows go to the active sink only: a plain session pushed over a
    # race session drops them, and the race session below sees none.
    below = rc.enable()
    plain = obs.enable()
    try:
        _run_microcode_threads(RACY_COUNTER_SOURCE, 4)
    finally:
        obs.disable()
        rc.disable()
    assert below.accesses == [] and below.engine_commits == {}
    assert not hasattr(plain, "accesses")


def test_race_session_nests_on_the_obs_stack():
    outer = obs.enable()
    try:
        race = rc.enable()
        assert obs.session() is race
        assert rc.disable() is race
        assert obs.session() is outer
    finally:
        obs.disable()
    assert obs.session() is None


def test_disable_pops_only_a_race_session():
    plain = obs.enable()
    try:
        assert rc.disable() is None
        assert obs.session() is plain
    finally:
        obs.disable()


def test_policed_packet_records_one_atomic_window():
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    policer = Policer(env, pfe.memory, rate_bps=8e6, burst_bytes=1000)
    active = rc.enable()
    try:
        env.run(until=env.process(policer.police(100)))
    finally:
        rc.disable()
    assert active.summary() == {"accesses": 1, "plain": 0, "atomic": 1,
                                "hash_keys": 0, "engine_commits": 1}
    (window,) = active.accesses
    assert (window.op, window.addr, window.size) == (
        "write", policer.addr, 16)


def test_suppressed_reference_run_records_no_windows():
    """A reference microsim runs with obs suppressed: its clock restarts
    at zero, so its windows must not splice into the race session."""
    def fig14_slice():
        experiments.profile_dataplane_slice(
            blocks=6, grads_per_packet=256, timeout_ms=2.5,
            detector_threads=8)

    alone = rc.enable()
    try:
        fig14_slice()
    finally:
        rc.disable()
    spliced = rc.enable()
    try:
        fig14_slice()
        reset_reference_caches()
        with obs.suppressed():
            packetref.packet_pfe_goodput()
    finally:
        rc.disable()
    assert spliced.summary() == alone.summary()
    assert spliced.analyze() == []


def _repro_modules_loaded_by(package):
    """``repro`` modules a fresh interpreter loads for ``import package``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import {package}; "
            "print(*sorted(m for m in sys.modules "
            "if m.startswith('repro.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_trio_model_loads_no_tooling():
    loaded = _repro_modules_loaded_by("repro.trio")
    assert "repro.trio.memory" in loaded
    assert [m for m in loaded if m.startswith("repro.tools")] == []


def test_obs_bus_is_a_leaf():
    loaded = _repro_modules_loaded_by("repro.obs")
    assert "repro.obs.bus" in loaded
    assert [m for m in loaded if not m.startswith("repro.obs")] == []


# ---------------------------------------------------------------------------
# CI scenarios: static/dynamic agreement on real programs.
# ---------------------------------------------------------------------------

def test_injected_scenario_reproduces_mc401_lost_update():
    active = rc.enable()
    final, threads = _run_microcode_threads(RACY_COUNTER_SOURCE, 16)
    rc.disable()
    findings = active.analyze()
    assert final < threads  # updates really were lost
    kinds = {f.kind for f in findings}
    assert "lost_update" in kinds
    # Exactly one racy location: the shared counter word.
    assert {(f.space, f.lo) for f in findings} == {("mem", 64)}


def test_static_and_dynamic_verdicts_agree_on_folded_address():
    # The counter is stored back through `~(-65)`, which folds to the
    # loaded word 64: the analyzer must report the same one lost update
    # that concurrent threads really suffer.
    source = """
    reg r_cnt;
    count: begin
        DmemLoad(r_cnt, 64);
        r_cnt = r_cnt + 1;
        DmemStore(~(-65), r_cnt);
        goto done;
    end
    """
    program = TrioCompiler(extern_labels=("done",)).compile(
        source, entry="count")
    report = analyze_program(program, source=source)
    assert [d.code for d in report.diagnostics] == ["MC401"]
    active = rc.enable()
    final, threads = _run_microcode_threads(source, 16)
    rc.disable()
    assert final < threads
    findings = active.analyze()
    assert "lost_update" in {f.kind for f in findings}
    assert {(f.space, f.lo) for f in findings} == {("mem", 64)}


def test_safe_counter_records_only_atomic_accesses():
    active = rc.enable()
    final, threads = _run_microcode_threads(SAFE_COUNTER_SOURCE, 16)
    rc.disable()
    assert final == threads
    assert active.analyze() == []
    summary = active.summary()
    assert summary["plain"] == 0
    assert summary["atomic"] == threads
    # Every add was served (and thus serialized) by an RMW engine.
    assert summary["engine_commits"] == threads


def test_checker_off_changes_nothing():
    # Zero-overhead contract, measured end to end: the simulated result
    # is bit-identical whether or not the checker records.
    off_final, _ = _run_microcode_threads(RACY_COUNTER_SOURCE, 16)
    rc.enable()
    on_final, _ = _run_microcode_threads(RACY_COUNTER_SOURCE, 16)
    rc.disable()
    assert obs.session() is None
    assert on_final == off_final


def test_main_exit_codes():
    assert rc.main(["injected", "--expect-races", "1"]) == 0
    assert rc.main(["injected", "--expect-races", "2"]) == 1
    assert rc.main(["injected", "--expect-clean"]) == 1
    assert rc.main(["builtins", "--expect-clean"]) == 0


def test_main_output_is_deterministic(capsys):
    assert rc.main(["injected"]) == 0
    first = capsys.readouterr().out
    assert rc.main(["injected"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "lost_update" in first
