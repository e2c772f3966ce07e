"""Tests for the repro.obs observability subsystem."""

import json

import pytest

from repro import obs
from repro.obs import bus
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
)
from repro.obs.trace import Tracer, render_timeline, validate_chrome_trace
from repro.sim import Environment


@pytest.fixture(autouse=True)
def obs_disabled():
    """Every test starts and ends with observability disabled."""
    while bus.disable() is not None:
        pass
    yield
    while bus.disable() is not None:
        pass


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_labels_and_values(self):
        registry = MetricsRegistry()
        counter = registry.counter("sim.events", "events", ("kind",))
        counter.inc(kind="Delay")
        counter.inc(2.0, kind="Delay")
        counter.inc(kind="Timeout")
        assert counter.value(kind="Delay") == 3.0
        assert counter.value(kind="Timeout") == 1.0
        assert counter.value(kind="Never") == 0.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_label_mismatch_rejected(self):
        counter = MetricsRegistry().counter("c", labels=("a",))
        with pytest.raises(ValueError):
            counter.inc(1.0)  # missing label
        with pytest.raises(ValueError):
            counter.inc(1.0, a="x", b="y")  # extra label

    def test_get_or_create_consistency(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(TypeError):
            registry.gauge("m", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("m", labels=("b",))

    def test_gauge_set_add(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5.0)
        gauge.add(2.5)
        assert gauge.value() == 7.5

    def test_histogram_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        stats = hist.stats()
        assert stats["count"] == 4
        assert stats["min"] == 0.5 and stats["max"] == 100.0
        series = hist._series[()]
        # <=1: two (0.5, 1.0); <=10: one (5.0); overflow: one (100.0)
        assert series.bucket_counts == [2, 1, 1]

    def test_snapshot_deterministic_ordering(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("z.last").inc()
        a.counter("a.first", labels=("k",)).inc(k="x")
        a.counter("a.first", labels=("k",)).inc(k="a")
        b.counter("a.first", labels=("k",)).inc(k="a")
        b.counter("a.first", labels=("k",)).inc(k="x")
        b.counter("z.last").inc()
        assert a.to_json() == b.to_json()
        assert list(a.snapshot()["metrics"]) == ["a.first", "z.last"]

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(3.0)
        b.counter("c").inc(4.0)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b.snapshot())
        assert a.counter("c").value() == 7.0
        stats = a.histogram("h", buckets=(1.0,)).stats()
        assert stats["count"] == 2
        assert stats["min"] == 0.5 and stats["max"] == 2.0

    def test_merge_gauge_last_wins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.merge(b.snapshot())
        assert a.gauge("g").value() == 9.0

    def test_merge_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            MetricsRegistry().merge({"schema": "something/else"})

    def test_default_buckets_cover_decades(self):
        assert DEFAULT_BUCKETS[0] == 1e-9
        assert DEFAULT_BUCKETS[-1] == 10.0


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_chrome_export_valid_and_in_microseconds(self):
        tracer = Tracer(scope="main")
        tracer.complete("work", 1e-6, 3e-6, track="t", tag="x")
        tracer.instant("mark", 2e-6, track="t")
        tracer.sample("depth", 1e-6, 4.0)
        doc = tracer.to_chrome()
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["ts"] == pytest.approx(1.0)
        assert spans[0]["dur"] == pytest.approx(2.0)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 4.0

    def test_track_metadata_emitted(self):
        tracer = Tracer(scope="run7")
        tracer.instant("a", 0.0, track="alpha")
        tracer.instant("b", 0.0, track="beta")
        doc = tracer.to_chrome()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert names == {"process_name": "run7"}
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert threads == {"alpha", "beta"}

    def test_merge_gets_fresh_pids(self):
        parent = Tracer(scope="main")
        parent.instant("p", 0.0)
        child = Tracer(scope="point000")
        child.instant("c", 0.0)
        parent.merge(child.export())
        doc = parent.to_chrome()
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 2
        assert validate_chrome_trace(doc) == []

    def test_max_events_drops_counted(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.instant(f"e{i}", 0.0)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert tracer.to_chrome()["otherData"]["dropped_events"] == 3

    def test_validator_flags_bad_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        bad_phase = {"traceEvents": [{"ph": "?", "name": "x"}]}
        assert any("unknown phase" in e
                   for e in validate_chrome_trace(bad_phase))
        missing = {"traceEvents": [{"ph": "X", "name": "x", "ts": 0.0}]}
        assert any("missing" in e for e in validate_chrome_trace(missing))
        negative = {"traceEvents": [
            {"ph": "i", "name": "x", "ts": -1.0, "pid": 1, "tid": 1}
        ]}
        assert any("negative" in e for e in validate_chrome_trace(negative))

    def test_timeline_render(self):
        tracer = Tracer()
        tracer.complete("span-a", 0.0, 5e-6, track="work")
        tracer.instant("tick", 2e-6, track="work")
        tracer.sample("depth", 1e-6, 3.0)
        text = render_timeline(tracer.to_chrome())
        assert text.startswith("timeline")
        assert "span-a" in text and "#" in text
        assert "[depth]" in text and "samples=1" in text


# ---------------------------------------------------------------------------
# Bus
# ---------------------------------------------------------------------------

class TestBus:
    def test_disabled_is_inert(self):
        assert not bus.enabled()
        assert bus.session() is None
        # Nothing to record into, and suppressing keeps it that way:
        with bus.suppressed():
            assert bus.session() is None
        assert bus.disable() is None

    def test_enable_records_disable_restores(self):
        session = bus.enable(scope="test")
        assert bus.enabled() and bus.session() is session
        bus.session().probe("hits", kind="a")
        bus.session().probe("hits", 2.0, kind="a")
        finished = bus.disable()
        assert finished is session
        assert not bus.enabled() and bus.session() is None
        counter = session.registry.get("hits")
        assert counter.value(kind="a") == 3.0

    def test_sessions_stack(self):
        outer = bus.enable(scope="outer")
        inner = bus.enable(scope="inner")
        bus.session().probe("n")
        assert bus.disable() is inner
        assert bus.session() is outer
        bus.session().probe("n")
        bus.disable()
        assert bus.session() is None
        assert inner.registry.get("n").value() == 1.0
        assert outer.registry.get("n").value() == 1.0

    def test_collectors_run_once_at_finalize(self):
        calls = []
        bus.enable()
        bus.session().register_collector(lambda registry: calls.append(1))
        session = bus.disable()
        session.export()  # finalize is idempotent
        assert calls == [1]

    def test_captured_worker_roundtrip(self):
        def worker(point):
            bus.session().probe("work.items", float(point))
            return point * 2

        result, exported = obs.CapturedWorker(worker)((3, 5))
        assert result == 10
        assert exported["scope"] == "point003"
        assert not bus.enabled()
        parent = MetricsRegistry()
        parent.merge(exported["metrics"])
        assert parent.counter("work.items").value() == 5.0


# ---------------------------------------------------------------------------
# Simulated-kernel integration
# ---------------------------------------------------------------------------

class TestObservedKernel:
    def run_workload(self):
        env = Environment()

        def proc():
            for _ in range(10):
                yield env.delay(1.0)

        env.process(proc())
        env.run()
        return env

    def test_observed_run_records_kernel_metrics(self):
        bus.enable()
        env = self.run_workload()
        session = bus.disable()
        events = session.registry.get("sim.events")
        assert events is not None
        total = sum(events._series.values())
        assert total == env.scheduled_events
        share = session.registry.get("sim.process_share_s")
        assert sum(share._series.values()) == pytest.approx(env.now)

    def test_observed_run_schedules_identically(self):
        plain = self.run_workload()
        bus.enable()
        observed = self.run_workload()
        bus.disable()
        assert observed.scheduled_events == plain.scheduled_events
        assert observed.now == plain.now

    @staticmethod
    def run_until(shape):
        """Drive a mixed workload with ``run`` stopped by ``shape``.

        Returns ``(env, results)``; ``results`` holds what each ``run``
        call returned.
        """
        env = Environment()

        def proc(n, dt):
            for _ in range(n):
                yield env.delay(dt)
            return n

        first = env.process(proc(10, 1.0))
        env.process(proc(6, 2.5))
        env.call_later(3.0, lambda: None)
        if shape == "none":
            results = [env.run()]
        elif shape == "time":
            results = [env.run(until=4.0)]
            assert env._queue, "until=<time> must stop with events queued"
            results.append(env.run())
        else:
            results = [env.run(until=first)]
            assert env._queue, "until=<process> must stop with events queued"
        return env, results

    @pytest.mark.parametrize("shape", ["none", "time", "process"])
    def test_observed_run_matches_plain_for_every_until(self, shape):
        plain, plain_results = self.run_until(shape)
        bus.enable()
        observed, observed_results = self.run_until(shape)
        session = bus.disable()
        assert observed_results == plain_results
        assert observed.now == plain.now
        assert observed.scheduled_events == plain.scheduled_events
        assert len(observed._queue) == len(plain._queue)
        popped = observed.scheduled_events - len(observed._queue)
        events = session.registry.get("sim.events")
        assert sum(events._series.values()) == popped


# ---------------------------------------------------------------------------
# Sweep capture: serial == parallel, results unchanged by recording
# ---------------------------------------------------------------------------

class TestSweepCapture:
    def test_fig15_point_identical_with_obs(self):
        from repro.harness.experiments import _fig15_point

        from repro.net.packet import reset_packet_ids

        reset_packet_ids()
        plain = _fig15_point((32, 10))
        bus.enable()
        reset_packet_ids()
        observed = _fig15_point((32, 10))
        bus.disable()
        assert observed == plain

    def test_map_points_serial_parallel_bit_identical(self):
        from repro.harness.experiments import _fig15_point, _map_points

        def capture(parallel):
            session = bus.enable()
            try:
                rows = _map_points(_fig15_point, [(32, 10), (64, 10)],
                                   parallel)
                session.finalize()
                return (rows, session.registry.to_json(),
                        json.dumps(session.tracer.to_chrome(),
                                   sort_keys=True))
            finally:
                bus.disable()

        serial = capture(parallel=1)
        fanned = capture(parallel=2)
        assert serial == fanned


# ---------------------------------------------------------------------------
# CLI: profile mode and the trace validator
# ---------------------------------------------------------------------------

class TestProfileCLI:
    def test_profile_produces_valid_artifacts(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        assert main(["profile", "--fast",
                     "--trace", str(trace),
                     "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "dataplane slice" in out
        assert "timeline" in out

        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        tracks = {e["args"]["name"] for e in doc["traceEvents"]
                  if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert any(t.startswith("ppe.threads_in_use/") for t in tracks)
        assert any(t.startswith("rmw.engines_busy/") for t in tracks)
        assert "trioml/blocks" in tracks

        snapshot = json.loads(metrics.read_text())
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        for family in ("ppe.occupancy", "rmw.utilization",
                       "trioml.blocks_completed", "trioml.mitigations"):
            assert family in snapshot["metrics"]

    def test_obs_flag_without_slice(self, tmp_path, capsys):
        from repro.harness.__main__ import main

        metrics = tmp_path / "m.json"
        assert main(["table1", "--obs", "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "dataplane slice" not in out
        assert json.loads(metrics.read_text())["schema"] == SNAPSHOT_SCHEMA

    def test_validate_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer = Tracer()
        tracer.instant("x", 0.0)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(tracer.to_chrome()))
        assert main(["validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "?"}]}))
        assert main(["validate", str(bad)]) == 1

    def test_timeline_cli(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tracer = Tracer()
        tracer.complete("work", 0.0, 1e-6, track="t")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tracer.to_chrome()))
        assert main(["timeline", str(path)]) == 0
        assert "timeline" in capsys.readouterr().out

    @pytest.mark.parametrize("doc", [{"traceEvents": 5}, [1, 2]])
    def test_timeline_cli_rejects_malformed_trace(self, tmp_path, capsys,
                                                  doc):
        from repro.obs.__main__ import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["timeline", str(path)]) == 1
        err = capsys.readouterr().err
        assert main(["validate", str(path)]) == 1
        assert err == capsys.readouterr().err  # validate's error lines

    @pytest.mark.parametrize("width", ["0", "-3"])
    def test_timeline_cli_rejects_width_below_one(self, tmp_path, capsys,
                                                  width):
        from repro.obs.__main__ import main

        tracer = Tracer()
        tracer.instant("tick", 1e-6, track="t")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(tracer.to_chrome()))
        with pytest.raises(SystemExit) as exit_info:
            main(["timeline", str(path), "--width", width])
        assert exit_info.value.code == 2
        assert "--width must be >= 1" in capsys.readouterr().err
