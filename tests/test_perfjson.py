"""Unit tests for the kernel benchmark recorder/checker."""

import collections
import json

import pytest

from repro.harness import perfjson


def _fake_doc(delay: float, timeout: float,
              probe_ns: float = 50.0) -> dict:
    return {
        "schema": perfjson.SCHEMA,
        "kernel": {
            "delay_events_per_s": delay,
            "timeout_events_per_s": timeout,
        },
        "obs": {
            "null_probe_ns": probe_ns,
            "null_probe_fields_ns": probe_ns,
            "ceiling_ns": perfjson.OBS_PROBE_NS_CEILING,
        },
    }


@pytest.fixture
def measured(monkeypatch):
    """Pin collect() so check() compares against known numbers."""

    def _pin(delay, timeout, probe_ns=50.0):
        monkeypatch.setattr(
            perfjson, "collect",
            lambda quick=False: _fake_doc(delay, timeout, probe_ns),
        )

    return _pin


def test_check_passes_within_tolerance(tmp_path, measured, capsys):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(750_000, 900_000)  # -25% and -10%: inside the 30% budget
    assert perfjson.check(committed) == 0
    assert "PASS" in capsys.readouterr().out


def test_check_fails_on_regression(tmp_path, measured, capsys):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(500_000, 1_000_000)  # delay path halved: regression
    assert perfjson.check(committed) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "delay_events_per_s" in out


def test_check_improvement_always_passes(tmp_path, measured):
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(3_000_000, 2_000_000)
    assert perfjson.check(committed) == 0


def test_check_fails_on_obs_probe_over_ceiling(tmp_path, measured, capsys):
    """The obs overhead check is an absolute ceiling, not a ratio."""
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(_fake_doc(1_000_000, 1_000_000)))
    measured(1_000_000, 1_000_000,
             probe_ns=perfjson.OBS_PROBE_NS_CEILING * 10)
    assert perfjson.check(committed) == 1
    assert "obs.null_probe_ns" in capsys.readouterr().out


def test_check_guards_trainer_entry(tmp_path, monkeypatch, capsys):
    """A committed trainer.iterations_per_s is regression-checked too."""
    committed_doc = _fake_doc(1_000_000, 1_000_000)
    committed_doc["trainer"] = {"iterations_per_s": 300_000}
    committed = tmp_path / "bench.json"
    committed.write_text(json.dumps(committed_doc))
    measured_doc = _fake_doc(1_000_000, 1_000_000)
    measured_doc["trainer"] = {"iterations_per_s": 100_000}  # -67%
    monkeypatch.setattr(perfjson, "collect",
                        lambda quick=False: measured_doc)
    assert perfjson.check(committed) == 1
    assert "trainer.iterations_per_s" in capsys.readouterr().out


def _fail_scale_point():
    raise AssertionError("collect() ran the opt-in scale point")


def test_collect_quick_schema(monkeypatch):
    # The million-flow point is opt-in (--scale): a plain collect()
    # must never run it.
    monkeypatch.setattr(perfjson, "bench_flowsim_scale", _fail_scale_point)
    doc = perfjson.collect(quick=True)
    assert "flowsim_scale" not in doc
    assert doc["schema"] == perfjson.SCHEMA
    assert doc["kernel"]["delay_events_per_s"] > 0
    assert doc["kernel"]["timeout_events_per_s"] > 0
    assert doc["macro"]["packets_per_s"] > 0
    assert doc["trainer"]["iterations_per_s"] > 0
    assert doc["fig15_sweep"]["scheduled_events"] > 0
    assert 0 < doc["obs"]["null_probe_ns"]
    assert doc["obs"]["ceiling_ns"] == perfjson.OBS_PROBE_NS_CEILING
    assert set(doc["seed_baseline"]) == {
        "delay_events_per_s", "timeout_events_per_s", "fig15_cpu_s",
    }


def test_collect_scale_records_flowsim_scale(monkeypatch):
    # Every bench faked: only the document's shape is under test.  Six
    # benches return one number, the rest a dict of numbers.
    scalar = {"bench_delay_path", "bench_timeout_path",
              "bench_trainer_loop", "bench_solver", "bench_nf_chain",
              "bench_traffic"}
    numbers = collections.defaultdict(lambda: 1.0)
    for name in perfjson.__all__:
        if name.startswith("bench_"):
            result = 1.0 if name in scalar else numbers
            monkeypatch.setattr(perfjson, name,
                                lambda result=result, **_: result)
    doc = perfjson.collect(quick=True, scale=True)
    assert doc["flowsim_scale"]["scenario"] == "cache"
    assert doc["flowsim_scale"]["solves"] == 1.0


def test_main_writes_json(tmp_path, monkeypatch):
    out = tmp_path / "bench.json"
    monkeypatch.setattr(
        perfjson, "collect",
        lambda quick=False, scale=False: _fake_doc(2_000_000, 1_000_000),
    )
    assert perfjson.main(["--output", str(out), "--quick"]) == 0
    doc = json.loads(out.read_text())
    assert doc["kernel"]["delay_events_per_s"] == 2_000_000


@pytest.mark.parametrize("text", ["", "{not json", "[]", '{"kernel": {}}',
                                  '{"kernel": {"delay_events_per_s": 1, '
                                  '"timeout_events_per_s": "fast"}}'])
def test_check_rejects_malformed_record(tmp_path, monkeypatch, capsys, text):
    """An empty or malformed record is named with a non-zero exit, before
    any measurement runs."""
    record = tmp_path / "bench.json"
    record.write_text(text)
    monkeypatch.setattr(perfjson, "collect", _fail_scale_point)
    assert perfjson.main(["--check", "--output", str(record)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(record) in err
