"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Workloads run here at small sizes passed straight to the workload
functions, so the whole file takes seconds, not minutes.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from compare import compare, verdict  # noqa: E402
from layers import LAYERS, LayerProbe, layer_metric_names  # noqa: E402
from tracer import UNATTRIBUTED, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


def ticking_clock(step: int = 10):
    """A clock that advances ``step`` ns per read: exact, repeatable."""
    counter = itertools.count(0, step)
    return lambda: next(counter)


# -- tracer ----------------------------------------------------------------


def leaf(x):
    return x + 1


def middle(x):
    return leaf(x) * 2


def pump(n):
    """Generator: yields n values, computing each through ``middle``."""
    total = 0
    for i in range(n):
        got = yield middle(i)
        total += got or 0
    return total


class Box:
    def work(self, x):
        return leaf(x)


@pytest.fixture
def traced_module():
    """This module's functions traced as four layers."""
    tracer = Tracer(clock=ticking_clock())
    here = __name__
    assert tracer.install("leaf", f"{here}:leaf") == 1
    assert tracer.install("middle", f"{here}:middle") == 1
    assert tracer.install("gen", f"{here}:pump") == 1
    assert tracer.install("box", f"{here}:Box.*") == 1
    yield tracer
    tracer.uninstall()


def test_tracer_plain_functions_nest(traced_module):
    tracer = traced_module
    tracer.start()
    assert middle(3) == 8
    assert Box().work(1) == 2
    tracer.stop()
    report = tracer.report()
    assert report["middle"]["calls"] == 1
    assert report["leaf"]["calls"] == 2
    assert report["box"]["calls"] == 1
    # Every clock read is one 10 ns tick.  middle owns the ticks before
    # and after its nested leaf call; its inclusive time covers leaf's.
    ns = 1e-9
    assert report["middle"]["self_s"] == pytest.approx(20 * ns)
    assert report["middle"]["incl_s"] == pytest.approx(30 * ns)
    assert report["leaf"]["self_s"] == pytest.approx(20 * ns)
    assert report["box"]["self_s"] == pytest.approx(20 * ns)
    assert report[UNATTRIBUTED]["self_s"] == pytest.approx(30 * ns)
    assert tracer.total_ns == 90
    total = sum(layer["self_s"] for layer in report.values())
    assert total == pytest.approx(tracer.total_ns / 1e9, abs=1e-12)
    assert sum(layer["share"] for layer in report.values()) == (
        pytest.approx(1.0))


def test_tracer_generator_resumptions(traced_module):
    tracer = traced_module
    tracer.start()
    gen = pump(3)
    assert next(gen) == 2
    assert gen.send(10) == 4
    assert gen.send(20) == 6
    with pytest.raises(StopIteration) as stop:
        gen.send(30)
    tracer.stop()
    assert stop.value.value == 60
    report = tracer.report()
    assert report["gen"]["calls"] == 1  # one call, four resumptions
    assert report["middle"]["calls"] == 3
    assert report["gen"]["incl_s"] > report["gen"]["self_s"] > 0
    total = sum(layer["self_s"] for layer in report.values())
    assert total == pytest.approx(tracer.total_ns / 1e9, abs=1e-12)
    assert report[UNATTRIBUTED]["self_s"] > 0  # between resumptions
    # Spans nest: every span lies inside its parent's interval.
    spans = {span[4]: span for span in tracer.spans}
    for _, _, start, end, _, parent in tracer.spans:
        if parent in spans:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
    events = tracer.chrome_trace()["traceEvents"]
    assert len(events) == len(tracer.spans)
    assert {event["cat"] for event in events} == {"gen", "middle", "leaf"}


def test_tracer_relays_throw_and_close(traced_module):
    def catcher():
        try:
            yield 1
        except KeyError:
            yield "caught"

    tracer = traced_module
    wrapped = tracer.wrap(catcher, "catcher")
    tracer.start()
    gen = wrapped()
    assert gen.__name__ == "catcher"
    assert next(gen) == 1
    assert gen.throw(KeyError("k")) == "caught"
    gen.close()
    tracer.stop()
    assert tracer.report()["catcher"]["calls"] == 1


def test_tracer_uninstall_restores_originals():
    original_leaf, original_work = leaf, Box.work
    tracer = Tracer()
    tracer.install("leaf", f"{__name__}:leaf")
    tracer.install("box", f"{__name__}:Box.work")
    assert sys.modules[__name__].leaf is not original_leaf
    tracer.uninstall()
    assert sys.modules[__name__].leaf is original_leaf
    assert Box.work is original_work


def test_missing_targets_are_reported_not_raised():
    tracer = Tracer()
    assert tracer.install("x", "repro.no_such_module:f") == 0
    assert tracer.install("x", "repro.sim.core:no_such_function") == 0
    assert tracer.install("x", "repro.sim.core:Environment.no_such") == 0
    assert tracer.install("x", "repro.sim.core:NoSuchClass.run") == 0
    tracer.uninstall()
    assert len(tracer.missing) == 4
    assert all(layer == "x" for layer, _, _ in tracer.missing)


def test_every_layer_target_resolves():
    tracer = Tracer()
    LayerProbe(tracer).install()
    try:
        assert tracer.missing == []
        assert set(tracer.layers) == {UNATTRIBUTED} | {
            layer for layer, _ in LAYERS}
    finally:
        tracer.uninstall()


def test_lru_cache_attributes_forwarded():
    from repro.flowsim import packetref
    from repro.flowsim.escalate import reset_reference_caches

    tracer = Tracer()
    LayerProbe(tracer).install()
    try:
        assert packetref.packet_pair is not packetref.packet_pair.__wrapped__
        reset_reference_caches()
        packetref.packet_pair(2000)
        packetref.packet_pair(2000)
        info = packetref.packet_pair.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        reset_reference_caches()
        assert packetref.packet_pair.cache_info().currsize == 0
    finally:
        tracer.uninstall()


# -- workloads: identical outputs traced and untraced -----------------------


SMALL = {
    "hybrid": {"num_flows": 1500},
    "fig16": {"windows": (1, 4, 16), "grad_counts": (512,)},
    "cache": {"scenario": "cache", "num_flows": 1500, "instances": 2,
              "chain_packets": 256},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_does_not_change_outputs(name):
    workload = WORKLOADS[name]
    params = SMALL[name]
    plain = workload.outputs(workload.run(**params), **params)
    assert workload.invariants(plain, **params) == []

    tracer = Tracer()
    probe = LayerProbe(tracer)
    probe.install()
    try:
        tracer.start()
        result = workload.run(**params)
        tracer.stop()
    finally:
        tracer.uninstall()
    traced = workload.outputs(result, **params)
    assert digest(traced) == digest(plain)

    report = tracer.report()
    total = sum(layer["self_s"] for layer in report.values())
    assert total == pytest.approx(tracer.total_ns / 1e9, rel=1e-9)
    flowsim = [layer for layer, _ in LAYERS if layer.startswith("flowsim.")]
    if name == "fig16":
        assert all(report[layer]["calls"] == 0 for layer in flowsim)
    else:
        top = max((report[layer]["self_s"], layer) for layer, _ in LAYERS)
        assert top[1] == "flowsim.solver"
        ratios = probe.ratios()
        assert ratios["flowsim.solver.resolve_us_p50"] > 0
        assert (ratios["flowsim.solver.resolve_us_p99"]
                >= ratios["flowsim.solver.resolve_us_p50"])
        assert 0 < ratios["flowsim.solver.changed_frac"] <= 1


# -- BENCHMARK.json --------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_spec(spec) -> None:
    """The benchmark-definition contract, as assertions."""
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(arg, str) and len(arg) <= 200
               for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_json_meets_the_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    assert os.path.getsize(path) <= 64 * 1024
    with open(path) as handle:
        spec = json.load(handle)
    validate_spec(spec)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    known = dict(layer_metric_names())
    for metric in spec["per_layer"]:
        assert known[metric["name"]] == metric["unit"]


@pytest.mark.parametrize("breakage", [
    lambda s: s["workloads"].__setitem__(slice(1, None), []),
    lambda s: s["workloads"].extend(dict(s["workloads"][0], name=f"w{i}")
                                    for i in range(8)),
    lambda s: s["end_to_end"].extend(dict(s["end_to_end"][1], name=f"m{i}")
                                     for i in range(16)),
    lambda s: s["per_layer"].extend(dict(s["per_layer"][0], name=f"l{i}")
                                    for i in range(128)),
    lambda s: s["workloads"][0].__setitem__("name", "_bad"),
    lambda s: s["end_to_end"][0].__setitem__("name", "x" * 65),
    lambda s: s["end_to_end"][1].__setitem__("bound", 0.3),
])
def test_benchmark_json_validation_rejects(breakage):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    breakage(spec)
    with pytest.raises(AssertionError):
        validate_spec(spec)


# -- compare.py verdicts ---------------------------------------------------


def metric(samples):
    import statistics

    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


TIGHT = [10.0, 10.05, 10.1, 10.15, 10.2]


@pytest.mark.parametrize("new, better, expected", [
    ([s * 1.2 for s in TIGHT], "lower", "worse"),
    ([s * 0.8 for s in TIGHT], "lower", "better"),
    ([s * 1.05 for s in TIGHT], "lower", "same"),
    ([s * 1.2 for s in TIGHT], "higher", "better"),
    ([s * 0.8 for s in TIGHT], "higher", "worse"),
    # Wider than the 10% bound and overlapping: unresolved.
    ([8.0, 9.0, 10.0, 11.5, 13.0], "lower", "unresolved"),
    # Wide, but every run beats every base run.
    ([5.0, 6.0, 7.0, 8.0, 9.9], "lower", "better"),
    ([10.3, 12.0, 14.0, 16.0, 18.0], "lower", "worse"),
])
def test_verdicts(new, better, expected):
    got, _ = verdict("run_cpu_s", metric(TIGHT), metric(new), better, 0.10)
    assert got == expected


def test_setup_floor_absorbs_small_absolute_moves():
    base = metric([0.100, 0.101, 0.102, 0.103, 0.104])
    new = metric([0.130, 0.131, 0.132, 0.133, 0.134])  # +30%, +0.03 s
    assert verdict("setup_s", base, new, "lower", 0.25)[0] == "same"
    assert verdict("run_cpu_s", base, new, "lower", 0.25)[0] == "worse"


def test_compare_rows_per_workload_and_failed_frac():
    def entry(cpu, failed):
        return {"metrics": {"run_cpu_s": metric(cpu),
                            "failed_frac": {"median": failed, "q1": failed,
                                            "q3": failed, "n": 5,
                                            "samples": [failed]}}}

    spec = {"end_to_end": [{"name": "run_cpu_s", "unit": "s",
                            "better": "lower", "bound": 0.1}]}
    base = {"workloads": {"a": entry(TIGHT, 0.0), "b": entry(TIGHT, 0.0)}}
    new = {"workloads": {"a": entry(TIGHT, 0.0), "b": entry(TIGHT, 0.01)}}
    table = compare(base, new, spec)
    assert table["a"]["run_cpu_s"][0] == "same"
    assert table["a"]["failed_frac"][0] == "same"
    assert table["b"]["failed_frac"][0] == "worse"
