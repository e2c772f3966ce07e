"""Tests for the two-level hybrid flow/packet simulation (repro.flowsim).

Covers the max-min solver's fairness invariants, the fluid engine's
closed-form completions and level-aware scheduling, the escalation
boundary (classification, packet-pinned rates, obs visibility), and the
fluid/packet calibration bridge.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.flowsim import (
    DEFAULT_MTU_PAYLOAD_BYTES,
    EscalationConfig,
    EscalationPolicy,
    FRAME_OVERHEAD_BYTES,
    FabricShape,
    FlowSpec,
    FluidEngine,
    MIN_RATE_BPS,
    PathClassSolver,
    ScenarioConfig,
    build_leaf_spine,
    generate_flows,
    max_min_class_rates,
    max_min_rates,
    mean_fct_s,
    packet_fan_in,
    packet_pair,
    reset_reference_caches,
    run_flows,
    run_packet_flows,
    run_scenario,
    wire_efficiency,
)
from repro.flowsim import fabric as fabric_module
from repro.flowsim.calibrate import PAIR_BAND, calibrate
from repro.flowsim.escalate import _degree_bucket
from repro.flowsim.fabric import host_name
from repro.sim import FLOW_LEVEL_PRIORITY, PACKET_LEVEL_PRIORITY, Environment


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class TestMaxMinSolver:
    def test_equal_share_single_link(self):
        rates = max_min_rates({1: (0,), 2: (0,), 3: (0,)}, {0: 30e9})
        assert rates == {1: pytest.approx(10e9), 2: pytest.approx(10e9),
                         3: pytest.approx(10e9)}

    def test_classic_max_min_example(self):
        # Flow 1 crosses both links; flow 2 only the narrow one; flow 3
        # only the wide one.  Flow 2 and flow 1 share the 10G bottleneck
        # at 5G each; flow 3 gets the wide link's remainder.
        rates = max_min_rates(
            {1: (0, 1), 2: (0,), 3: (1,)},
            {0: 10e9, 1: 20e9},
        )
        assert rates[1] == pytest.approx(5e9)
        assert rates[2] == pytest.approx(5e9)
        assert rates[3] == pytest.approx(15e9)

    def test_pinned_demand_is_subtracted(self):
        rates = max_min_rates({1: (0,)}, {0: 10e9}, pinned_bps={0: 4e9})
        assert rates[1] == pytest.approx(6e9)

    def test_pinned_saturation_hits_rate_floor_not_zero(self):
        rates = max_min_rates({1: (0,)}, {0: 10e9}, pinned_bps={0: 20e9})
        assert rates[1] == MIN_RATE_BPS

    def test_no_capacity_left_idle_when_demand_exists(self):
        rates = max_min_rates(
            {1: (0,), 2: (0, 1)}, {0: 10e9, 1: 4e9})
        # Flow 2 is bottlenecked at 4G, so flow 1 takes the rest.
        assert rates[2] == pytest.approx(4e9)
        assert rates[1] == pytest.approx(6e9)

    def test_deterministic(self):
        flows = {i: (i % 3, 3 + i % 2) for i in range(20)}
        caps = {0: 10e9, 1: 12e9, 2: 8e9, 3: 40e9, 4: 25e9}
        assert max_min_rates(flows, caps) == max_min_rates(flows, caps)


# ---------------------------------------------------------------------------
# Path-class solver: max-min optimal, and agrees with the per-flow reference
# ---------------------------------------------------------------------------


def _random_instance(rng):
    """A randomized solver instance spanning the solver's corner cases.

    Capacities range down to MIN_RATE_BPS scale (so the rate floor
    engages), pinned demand covers none/partial/exact/over-saturation
    (so pinned subtraction and the clamp at zero both engage), and
    signatures include empty paths and repeated links.
    """
    nlinks = rng.randint(1, 40)
    caps = {i: rng.choice([1e3, 1e4, 1e6, 1e9]) * rng.uniform(0.5, 2.0)
            for i in range(nlinks)}
    class_flows = {}
    for _ in range(rng.randint(1, 60)):
        sig = tuple(rng.choices(range(nlinks), k=rng.randint(0, 6)))
        mult = rng.randint(1, 50) if rng.random() < 0.3 else 1
        class_flows[sig] = class_flows.get(sig, 0) + mult
    pinned = {}
    for i in range(nlinks):
        r = rng.random()
        if r < 0.15:
            pinned[i] = 0.0
        elif r < 0.3:
            pinned[i] = caps[i] * 0.5
        elif r < 0.4:
            pinned[i] = caps[i]          # exactly saturated
        elif r < 0.45:
            pinned[i] = caps[i] * 2.0    # over-saturated -> rate floor
    return caps, class_flows, pinned


def _expand(class_flows):
    """Per-flow inputs for the reference: one flow per class member."""
    flows = {}
    fid = 0
    for sig, mult in sorted(class_flows.items()):
        for _ in range(mult):
            flows[fid] = list(sig)
            fid += 1
    return flows


def _reference_by_class(class_flows, caps, pinned):
    """Reference rates regrouped per class; asserts members agree."""
    flows = _expand(class_flows)
    ref = max_min_rates(flows, caps, pinned)
    by_class = {}
    fid = 0
    for sig, mult in sorted(class_flows.items()):
        rates = {ref[fid + k] for k in range(mult)}
        assert len(rates) == 1, f"members of {sig} diverge: {rates}"
        by_class[sig] = rates.pop()
        fid += mult
    return by_class


#: Relative tolerance between two solves of one state.  Float64 epsilon
#: is 2.2e-16; a region re-solve reads outside load off per-link sums
#: kept by deltas, so its rates sit a few ulps from a full solve's.
REL_TOL = 1e-9


def _assert_rates_close(got, want):
    assert got.keys() == want.keys()
    for sig, rate in want.items():
        assert abs(got[sig] - rate) <= REL_TOL * rate, (sig, got[sig], rate)


def _link_loads(class_flows, rates):
    """Per-link elastic load: sum of multiplicity x rate, counted once
    per occurrence of the link in a signature."""
    load = {}
    for sig, mult in class_flows.items():
        for key in sig:
            load[key] = load.get(key, 0.0) + mult * rates[sig]
    return load


def _assert_max_min_optimal(class_flows, rates, caps, pinned):
    """Max-min optimality, checked directly on a solved state.

    Capacity: no link carries more than its capacity less pinned
    demand, unless every class crossing it sits at the rate floor.
    Bottleneck: every class above the floor crosses a saturated link on
    which no class has a higher rate.
    """
    load = _link_loads(class_flows, rates)
    crossing = {}
    for sig in class_flows:
        for key in sig:
            crossing.setdefault(key, {})[sig] = rates[sig]
    avail = {key: max(caps[key] - pinned.get(key, 0.0), 0.0)
             for key in load}
    for key, carried in load.items():
        assert (carried <= avail[key] * (1 + REL_TOL)
                or all(rate == MIN_RATE_BPS
                       for rate in crossing[key].values())), (key, carried)
    for sig, rate in rates.items():
        if rate == MIN_RATE_BPS:
            continue
        assert any(
            load[key] >= avail[key] * (1 - REL_TOL)
            and max(crossing[key].values()) <= rate * (1 + REL_TOL)
            for key in sig), (sig, rate)


@st.composite
def _churn_instances(draw):
    """A link set and a list of add/remove/pin steps, drawn like
    :func:`_random_instance`: capacities down to MIN_RATE_BPS scale,
    pinned demand none/partial/exact/over capacity, and signatures with
    empty paths and repeated links."""
    nlinks = draw(st.integers(1, 12))
    caps = {i: draw(st.sampled_from([1e3, 1e4, 1e6, 1e9]))
            * draw(st.floats(0.5, 2.0)) for i in range(nlinks)}
    link = st.integers(0, nlinks - 1)
    step = st.one_of(
        st.tuples(st.just("add"), st.lists(link, max_size=5).map(tuple),
                  st.integers(1, 50)),
        st.tuples(st.just("remove"), st.integers(0, 10**6),
                  st.integers(1, 50)),
        st.tuples(st.just("pin"), link,
                  st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    )
    return caps, draw(st.lists(step, min_size=1, max_size=40))


class TestMaxMinOptimality:
    @settings(max_examples=150, deadline=None)
    @given(_churn_instances())
    def test_every_resolve_is_max_min_optimal(self, instance):
        # After each delta and resolve(): the rates are max-min optimal
        # and ``changed`` holds exactly the classes whose rate moved.
        caps, steps = instance
        solver = PathClassSolver(caps)
        live, last = {}, {}
        for op, arg, amount in steps:
            if op == "add":
                solver.add(arg, amount)
                live[arg] = live.get(arg, 0) + amount
            elif op == "remove":
                if not live:
                    continue
                sig = sorted(live)[arg % len(live)]
                count = min(amount, live[sig])
                solver.remove(sig, count)
                live[sig] -= count
                if not live[sig]:
                    del live[sig]
                    last.pop(sig, None)
            else:
                solver.pin(arg, caps[arg] * amount
                           - solver.pinned_demand(arg))
            changed = solver.resolve()
            rates = solver.solve()
            assert solver.changed == {}
            pinned = {key: solver.pinned_demand(key) for key in caps}
            _assert_max_min_optimal(live, rates, caps, pinned)
            assert changed == {sig: rate for sig, rate in rates.items()
                               if last.get(sig) != rate}
            last = rates


class TestPathClassSolverEquivalence:
    """The incremental class solver agrees with the from-scratch
    per-flow reference within :data:`REL_TOL`, and reports exactly the
    classes whose rate moved."""

    def test_one_shot_equivalence_randomized(self):
        for trial in range(120):
            rng = random.Random(trial * 7919 + 13)
            caps, class_flows, pinned = _random_instance(rng)
            got = max_min_class_rates(class_flows, caps, pinned)
            _assert_rates_close(
                got, _reference_by_class(class_flows, caps, pinned))

    def test_incremental_churn_equivalence_randomized(self):
        # Random add/remove/pin churn with a solve every few steps:
        # the live incremental state must keep matching a fresh
        # reference solve over the same flows, and the changed set
        # must be exactly the classes whose rate moved.
        for trial in range(12):
            rng = random.Random(trial * 104729 + 7)
            nlinks = rng.randint(2, 30)
            caps = {i: rng.choice([1e3, 1e5, 1e8, 1e9])
                    * rng.uniform(0.5, 2.0) for i in range(nlinks)}
            solver = PathClassSolver(caps)
            live, last = {}, {}
            for step in range(400):
                op = rng.random()
                if op < 0.45 or not live:
                    sig = tuple(rng.choices(range(nlinks),
                                            k=rng.randint(0, 5)))
                    solver.add(sig)
                    live[sig] = live.get(sig, 0) + 1
                elif op < 0.8:
                    sig = rng.choice(sorted(live))
                    solver.remove(sig)
                    live[sig] -= 1
                    if not live[sig]:
                        del live[sig]
                        last.pop(sig, None)
                else:
                    i = rng.randrange(nlinks)
                    delta = (rng.choice([1.0, -1.0]) * caps[i]
                             * rng.uniform(0, 0.6))
                    if solver.pinned_demand(i) + delta < 0:
                        delta = -solver.pinned_demand(i)
                    solver.pin(i, delta)
                if step % 5 != 4:
                    continue
                changed = solver.resolve()
                got = solver.solve()
                pinned = {i: solver.pinned_demand(i)
                          for i in range(nlinks)}
                _assert_rates_close(
                    got, _reference_by_class(live, caps, pinned))
                want = {s: r for s, r in got.items()
                        if last.get(s, object()) != r}
                assert changed == want
                last = dict(got)

    def test_incremental_resolve_matches_fresh_solver(self):
        # Every incremental resolve() agrees with a fresh solver built
        # from the same live classes and pins: the re-solve of a
        # delta's region against a solve of everything.
        for trial in range(8):
            rng = random.Random(trial * 15485863 + 3)
            nlinks = rng.randint(2, 24)
            caps = {i: rng.choice([1e3, 1e5, 1e8, 1e9])
                    * rng.uniform(0.5, 2.0) for i in range(nlinks)}
            solver = PathClassSolver(caps)
            live = {}
            for _step in range(300):
                op = rng.random()
                if op < 0.5 or not live:
                    sig = tuple(rng.choices(range(nlinks),
                                            k=rng.randint(0, 4)))
                    count = rng.randint(1, 3)
                    solver.add(sig, count)
                    live[sig] = live.get(sig, 0) + count
                elif op < 0.85:
                    sig = rng.choice(sorted(live))
                    solver.remove(sig)
                    live[sig] -= 1
                    if not live[sig]:
                        del live[sig]
                else:
                    i = rng.randrange(nlinks)
                    solver.pin(i, caps[i] * rng.choice([0.0, 0.5, 1.0])
                               - solver.pinned_demand(i))
                solver.resolve()
                pinned = {i: solver.pinned_demand(i) for i in range(nlinks)}
                _assert_rates_close(solver.solve(),
                                    max_min_class_rates(live, caps, pinned))

    def test_shared_bottleneck_churn_matches_fresh_solver(self):
        # The regime where one delta reaches most classes: a sliding
        # window of flows over a leaf/spine fabric whose 3:1
        # oversubscribed leaf uplinks carry most classes, as in
        # ``perfjson.bench_solver``.  Each resolve agrees with a fresh
        # solve of the same live set.
        leaves, hosts_per_leaf, window = 4, 12, 96
        nhosts = leaves * hosts_per_leaf
        caps = {}
        for host in range(nhosts):
            caps[2 * host] = caps[2 * host + 1] = 100e9
        for leaf in range(leaves):
            caps[1000 + 2 * leaf] = caps[1001 + 2 * leaf] = 400e9
        rng = random.Random(0)
        sigs = []
        for _ in range(400):
            src = rng.randrange(nhosts)
            dst = rng.randrange(nhosts - 1)
            dst += dst >= src
            src_leaf, dst_leaf = src // hosts_per_leaf, dst // hosts_per_leaf
            if src_leaf == dst_leaf:
                sigs.append((2 * src, 2 * dst + 1))
            else:
                sigs.append((2 * src, 1000 + 2 * src_leaf,
                             1001 + 2 * dst_leaf, 2 * dst + 1))
        uplinks = [key for key in caps if key >= 1000]
        solver = PathClassSolver(caps)
        live, last = {}, {}
        widest_reach = 0
        for index, sig in enumerate(sigs):
            steps = [(solver.add, sig, 1)]
            if index >= window:
                steps.append((solver.remove, sigs[index - window], -1))
            for op, step_sig, delta in steps:
                op(step_sig)
                live[step_sig] = live.get(step_sig, 0) + delta
                if not live[step_sig]:
                    del live[step_sig]
                    last.pop(step_sig, None)
                changed = solver.resolve()
                got = solver.solve()
                _assert_rates_close(got, max_min_class_rates(live, caps))
                assert changed == {s: r for s, r in got.items()
                                   if last.get(s) != r}
                last = dict(got)
                load = _link_loads(live, got)
                full = [key for key in uplinks
                        if load.get(key, 0.0) >= caps[key] * (1 - REL_TOL)]
                widest_reach = max(widest_reach, sum(
                    1 for s in live if any(key in s for key in full))
                    / len(live))
        # Saturated uplinks carry most classes: a delta there reaches
        # them all.
        assert widest_reach > 0.5

    def test_min_rate_floor_and_saturated_links(self):
        # Every link fully pinned: all classes land exactly on the
        # floor, the reference's `share is None` path.
        caps = {0: 10e9, 1: 2e9}
        class_flows = {(0,): 3, (0, 1): 2, (1, 1): 1, (): 4}
        pinned = {0: 10e9, 1: 4e9}
        got = max_min_class_rates(class_flows, caps, pinned)
        assert got == _reference_by_class(class_flows, caps, pinned)
        assert set(got.values()) == {MIN_RATE_BPS}

    def test_multiplicity_matches_expanded_flows(self):
        # One class of N flows sees the share N separate flows see in
        # the reference.
        caps = {0: 9.9e9, 1: 3.3e9}
        class_flows = {(0,): 7, (0, 1): 5, (1,): 11}
        got = max_min_class_rates(class_flows, caps)
        _assert_rates_close(got, _reference_by_class(class_flows, caps, {}))

    def test_dead_class_recreation_reports_changed(self):
        solver = PathClassSolver({0: 10e9})
        solver.add((0,), 2)
        first = solver.resolve()
        assert first == {(0,): 5e9}
        solver.remove((0,))
        solver.remove((0,))
        assert solver.resolve() == {}
        # Re-created at the same rate: must still be reported, since
        # the engine builds a fresh class object for it.
        solver.add((0,), 2)
        assert solver.resolve() == {(0,): 5e9}


def _one_class_case(monkeypatch, caps, steps):
    """Apply ``steps`` (``(op, arg, amount)`` deltas) to a solver,
    resolving after each, and check its rates against the reference
    and a fresh solver given every delta at once.  Returns the solver,
    the fills its last resolve ran, its rates, and the fresh solver."""
    calls = []
    for name in ("_fill_one", "_fill_region", "_fill_all"):
        def spy(self, *args, _name=name,
                _original=getattr(PathClassSolver, name)):
            calls.append(_name)
            return _original(self, *args)
        monkeypatch.setattr(PathClassSolver, name, spy)
    solver = PathClassSolver(caps)
    fresh = PathClassSolver(caps)
    live = {}
    for op, arg, amount in steps:
        getattr(solver, op)(arg, amount)
        getattr(fresh, op)(arg, amount)
        if op != "pin":
            live[arg] = live.get(arg, 0) + (amount if op == "add"
                                            else -amount)
            if not live[arg]:
                del live[arg]
        del calls[:]
        solver.resolve()
    last = list(calls)
    rates = solver.solve()
    pinned = {key: solver.pinned_demand(key) for key in caps}
    _assert_rates_close(rates, _reference_by_class(live, caps, pinned))
    _assert_rates_close(rates, fresh.solve())
    return solver, last, rates, fresh


class TestOneClassRegion:
    """A region of one class is filled in closed form.  Each branch
    agrees with the per-flow reference and with a fresh solver given
    the same deltas."""

    def test_links_shared_with_outside_classes(self, monkeypatch):
        # Two flows of (1, 2) hold 4e9 of link 2; the new class gets
        # what they leave of it.
        solver, calls, rates, __ = _one_class_case(
            monkeypatch, {0: 100e9, 1: 4e9, 2: 10e9},
            [("add", (1, 2), 2), ("add", (0, 2), 1)])
        assert calls == ["_fill_one"]
        assert rates == {(1, 2): 2e9, (0, 2): 6e9}
        assert solver._info[(0, 2)][4] == solver._key2idx[2]

    def test_pinned_saturation_gives_the_rate_floor(self, monkeypatch):
        # The pin leaves the region empty; the overloaded link's check
        # brings the class in alone.
        __, calls, rates, __ = _one_class_case(
            monkeypatch, {0: 10e9, 1: 10e9, 2: 10e9},
            [("add", (2,), 1), ("add", (0, 1), 1), ("pin", 1, 10e9)])
        assert calls == ["_fill_one"]
        assert rates[(0, 1)] == MIN_RATE_BPS

    def test_tie_goes_to_the_lower_dense_index(self, monkeypatch):
        # Key 3 is interned before key 5, so the second link of (5, 3)
        # holds the lower dense index.
        solver, calls, rates, fresh = _one_class_case(
            monkeypatch, {3: 10e9, 5: 10e9, 7: 10e9},
            [("add", (7,), 1), ("add", (3,), 1), ("remove", (3,), 1),
             ("add", (5, 3), 1)])
        assert calls == ["_fill_one"]
        assert rates[(5, 3)] == 10e9
        assert solver._key2idx[3] < solver._key2idx[5]
        assert solver._info[(5, 3)][4] == solver._key2idx[3]
        assert fresh._info[(5, 3)][4] == solver._key2idx[3]

    def test_repeated_link_goes_through_the_loop(self, monkeypatch):
        # One flow crossing link 0 twice counts twice there.
        __, calls, rates, __ = _one_class_case(
            monkeypatch, {0: 10e9, 1: 10e9},
            [("add", (1,), 1), ("add", (0, 0), 1)])
        assert calls == ["_fill_one", "_fill_region"]
        assert rates[(0, 0)] == 5e9


# ---------------------------------------------------------------------------
# Flow specs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, value, match", [
    ("size_bytes", 0.0, "size"),
    ("size_bytes", -1.0, "size"),
    ("size_bytes", float("nan"), "size"),
    ("size_bytes", float("inf"), "size"),
    ("start_s", -1e-9, "start"),
    ("start_s", float("nan"), "start"),
    ("start_s", float("inf"), "start"),
    ("dst", host_name(0, 0), "its own source"),
])
def test_flow_no_run_can_finish_is_rejected(field, value, match):
    fields = dict(flow_id=1, src=host_name(0, 0), dst=host_name(0, 1),
                  size_bytes=1e4, start_s=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match=match):
        FlowSpec(**fields)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def _engine(policy=None, **fabric):
    env = Environment()
    config = ScenarioConfig(leaves=1, hosts_per_leaf=16, **fabric)
    topology = build_leaf_spine(env, config)
    engine = FluidEngine(env, topology,
                         policy=policy or EscalationPolicy())
    return env, engine


class TestFluidEngine:
    def test_single_flow_closed_form_fct(self):
        env, engine = _engine()
        size = 1e6
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 0),
                                   dst=host_name(0, 1),
                                   size_bytes=size, start_s=0.0))
        env.run()
        (record,) = engine.records
        efficiency = wire_efficiency(DEFAULT_MTU_PAYLOAD_BYTES)
        transfer = size * 8 / (100e9 * efficiency)
        assert record.fct_s == pytest.approx(transfer, rel=0.05)
        assert record.goodput_bps == pytest.approx(size * 8 / record.fct_s)
        assert record.escalated is None

    def test_two_flows_share_then_speed_up(self):
        # Two equal flows into one host halve each other's rate; FCT of
        # the pair is ~2x a lone flow, not 1x (fair share) and the
        # engine must re-solve at the first departure.
        env, engine = _engine()
        size = 1e6
        for fid, src in ((1, host_name(0, 1)), (2, host_name(0, 2))):
            engine.start_flow(FlowSpec(flow_id=fid, src=src,
                                       dst=host_name(0, 0),
                                       size_bytes=size, start_s=0.0))
        env.run()
        assert len(engine.records) == 2
        lone = size * 8 / (100e9 * wire_efficiency())
        for record in engine.records:
            assert record.fct_s == pytest.approx(2 * lone, rel=0.05)

    def test_late_arrival_triggers_resolve(self):
        env, engine = _engine()
        size = 4e6
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 1),
                                   dst=host_name(0, 0),
                                   size_bytes=size, start_s=0.0))
        env.call_at(1e-4, engine.start_flow,
                    FlowSpec(flow_id=2, src=host_name(0, 2),
                             dst=host_name(0, 0),
                             size_bytes=size, start_s=1e-4))
        env.run()
        first = next(r for r in engine.records if r.flow_id == 1)
        lone = size * 8 / (100e9 * wire_efficiency())
        # Flow 1 ran alone for 1e-4 s, then shared: slower than a lone
        # run but faster than full-time sharing.
        assert lone < first.fct_s < 2 * lone

    def test_flow_level_events_run_after_packet_level(self):
        env = Environment()
        order = []
        env.call_at(1.0, lambda: order.append("flow"),
                    priority=FLOW_LEVEL_PRIORITY)
        env.call_at(1.0, lambda: order.append("packet"),
                    priority=PACKET_LEVEL_PRIORITY)
        env.run()
        assert order == ["packet", "flow"]

    def test_same_timestamp_arrivals_coalesce_into_one_solve(self):
        env, engine = _engine()
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=2e5, start_s=0.0))
        env.run()
        # One solve for the batch arrival + one per completion batch,
        # not one per arrival.
        assert engine.solves <= 3

    def test_duplicate_flow_id_rejected(self):
        env, engine = _engine()
        spec = FlowSpec(flow_id=1, src=host_name(0, 0),
                        dst=host_name(0, 1), size_bytes=1e4, start_s=0.0)
        engine.start_flow(spec)
        with pytest.raises(ValueError, match="duplicate flow id"):
            engine.start_flow(spec)

    def test_fan_in_counts_active_flows_to_a_host(self):
        # Incast threshold 2: the second arrival escalates, and the
        # engine's fan-in counts it like the elastic first flow.
        policy = EscalationPolicy(EscalationConfig(incast_degree=2))
        env, engine = _engine(policy=policy)
        dst = host_name(0, 0)
        for fid in (1, 2):
            engine.start_flow(FlowSpec(flow_id=fid, src=host_name(0, fid),
                                       dst=dst, size_bytes=1e5,
                                       start_s=0.0))
        assert engine.active[1].escalated is None
        assert engine.active[2].escalated == "incast"
        assert engine.fan_in(dst) == 2
        assert engine.fan_in(host_name(0, 1)) == 0
        env.run()
        assert not engine.active
        assert len(engine.records) == 2
        assert engine.fan_in(dst) == 0

    def test_finish_heap_stays_bounded_under_churn(self, monkeypatch):
        # A cache draw re-aims class projections thousands of times; the
        # superseded ones may not pile up past two per live class.
        from repro.flowsim import engine as engine_module
        from repro.traffic import get_scenario, run_fluid

        resolve = engine_module.FluidEngine._resolve
        excess = []

        def checked(self, now):
            resolve(self, now)
            excess.append(len(self._finish_heap)
                          - 2 * self.path_classes - 64)

        monkeypatch.setattr(engine_module.FluidEngine, "_resolve", checked)
        result = run_fluid(get_scenario("cache"), 3000)
        assert len(excess) == result.solves > 3000
        assert max(excess) <= 0


# ---------------------------------------------------------------------------
# Escalation boundary
# ---------------------------------------------------------------------------


class TestEscalation:
    def test_degree_bucketing(self):
        assert _degree_bucket(1) == 2
        assert _degree_bucket(2) == 2
        assert _degree_bucket(3) == 4
        assert _degree_bucket(12) == 16
        assert _degree_bucket(100) == 32  # clamped

    def test_incast_burst_escalates_past_threshold(self):
        policy = EscalationPolicy(EscalationConfig(incast_degree=4))
        env, engine = _engine(policy=policy)
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=4e4, start_s=0.0))
        env.run()
        escalated = [r for r in engine.records if r.escalated == "incast"]
        # Arrivals below the fan-in threshold stay fluid; the rest of
        # the burst crosses the boundary.
        assert len(escalated) == 5
        assert engine.escalations == {"incast": 5}

    def test_large_flows_stay_fluid_inside_incast(self):
        policy = EscalationPolicy(EscalationConfig(
            incast_degree=4, incast_max_flow_bytes=1e5))
        env, engine = _engine(policy=policy)
        for fid in range(8):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=5e6, start_s=0.0))
        env.run()
        assert engine.escalations == {}

    def test_straggler_host_escalates_and_is_rate_limited(self):
        policy = EscalationPolicy(EscalationConfig(
            straggler_hosts=(host_name(0, 0),),
            straggler_tx_overhead_s=2e-6,
        ))
        env, engine = _engine(policy=policy)
        engine.start_flow(FlowSpec(flow_id=1, src=host_name(0, 0),
                                   dst=host_name(0, 1),
                                   size_bytes=1e6, start_s=0.0))
        env.run()
        (record,) = engine.records
        assert record.escalated == "straggler"
        # A 2 us/packet host cost caps a 1458 B payload stream near
        # 5.8 Gbps — far below the 100G access link.
        assert record.goodput_bps < 10e9

    def test_aggregation_contention_escalates(self):
        policy = EscalationPolicy(EscalationConfig(
            pfe_contention_threshold=4))
        env, engine = _engine(policy=policy)
        for fid in range(6):
            env.call_at(0.0, engine.start_flow,
                        FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                                 dst=host_name(0, 0),
                                 size_bytes=5e4, start_s=0.0,
                                 service="aggregation"))
        env.run()
        assert engine.escalations.get("pfe-hash") == 3

    def test_escalations_visible_through_obs(self):
        session = obs.enable(scope="test")
        try:
            policy = EscalationPolicy(EscalationConfig(incast_degree=2))
            env, engine = _engine(policy=policy)
            for fid in range(4):
                env.call_at(0.0, engine.start_flow,
                            FlowSpec(flow_id=fid,
                                     src=host_name(0, 1 + fid),
                                     dst=host_name(0, 0),
                                     size_bytes=4e4, start_s=0.0))
            env.run()
        finally:
            obs.disable()
        names = set(session.registry.snapshot()["metrics"])
        assert "flowsim.escalations" in names
        assert "flowsim.fct_s" in names
        chrome = session.tracer.to_chrome()
        tracks = {event["args"]["name"] for event in chrome["traceEvents"]
                  if event["ph"] == "M" and event["name"] == "thread_name"}
        assert {"flowsim/escalations", "flowsim/active_flows"} <= tracks
        spans = [event for event in chrome["traceEvents"]
                 if event["ph"] == "X"
                 and event["name"].startswith("escalated:")]
        assert spans and all(event["dur"] > 0 for event in spans)

    def test_reference_runs_do_not_pollute_active_trace(self):
        """Packet reference microsims run with obs suppressed: their
        internal time-zero timelines must not splice into the trace."""
        reset_reference_caches()
        session = obs.enable(scope="test")
        try:
            before = len(session.tracer.export()["events"])
            packet_fan_in(2, 20_000)
            after = len(session.tracer.export()["events"])
        finally:
            obs.disable()
        assert before == after

    def test_observed_runs_record_identical_metrics(self):
        """Sinks never read the wall clock: two observed runs of one
        fluid scenario record equal metric snapshots."""
        snapshots = []
        for _ in range(2):
            session = obs.enable(scope="test")
            try:
                run_scenario(ScenarioConfig(num_flows=200))
            finally:
                obs.disable()
            snapshots.append(session.registry.snapshot())
        assert snapshots[0] == snapshots[1]


# ---------------------------------------------------------------------------
# Packet references
# ---------------------------------------------------------------------------


class TestPacketReferences:
    def test_pair_fct_close_to_serialisation_time(self):
        result = packet_pair(100_000, bandwidth_bps=100e9)
        wire = 100_000 * 8 / (100e9 * wire_efficiency())
        # FCT = serialisation + 2 hops of propagation (1 us each) +
        # pipeline fill (one extra frame per store-and-forward stage).
        assert wire < mean_fct_s(result) < wire + 3e-6

    def test_fan_in_degrades_per_flow_fct(self):
        lone = packet_pair(20_000, bandwidth_bps=100e9)
        crowd = packet_fan_in(8, 20_000, bandwidth_bps=100e9)
        assert mean_fct_s(crowd) > 3 * mean_fct_s(lone)
        # Aggregate goodput still approaches the bottleneck capacity.
        bits = 8 * sum(record.spec.size_bytes for record in crowd)
        assert bits / max(record.finish_s for record in crowd) > 0.5 * 100e9

    def test_reference_results_are_cached_and_deterministic(self):
        reset_reference_caches()
        first = packet_fan_in(4, 20_000)
        assert packet_fan_in(4, 20_000) is first  # lru hit
        reset_reference_caches()
        again = packet_fan_in(4, 20_000)
        assert again == first and again is not first

    def test_records_in_flow_order(self):
        records = packet_fan_in(4, 20_000)
        assert [record.flow_id for record in records] == [0, 1, 2, 3]
        assert all(record.escalated is None for record in records)


class TestPacketFlows:
    """``run_packet_flows`` over the leaf/spine fabric the fluid level
    runs on."""

    def test_cross_leaf_flow_crosses_the_spine(self, monkeypatch):
        built = []
        build = fabric_module.build_leaf_spine

        def capture(env, fabric):
            built.append(build(env, fabric))
            return built[-1]

        monkeypatch.setattr(fabric_module, "build_leaf_spine", capture)
        fabric = FabricShape(leaves=2, hosts_per_leaf=2)
        spec = FlowSpec(flow_id=7, src=host_name(0, 1), dst=host_name(1, 0),
                        size_bytes=100_000.0, start_s=0.0)
        (packet,) = run_packet_flows(fabric, [spec])
        frames = -(-100_000 // DEFAULT_MTU_PAYLOAD_BYTES)
        (topology,) = built
        spine_in = topology.find_port("spine:leaf0")
        spine_out = topology.find_port("spine:leaf1")
        assert spine_in.rx_packets == spine_out.tx_packets == frames
        assert packet.spec is spec and packet.escalated is None
        fluid = run_flows(fabric, EscalationConfig(),
                          lambda env: [spec]).records[0]
        assert 1 / PAIR_BAND <= fluid.fct_s / packet.fct_s <= PAIR_BAND

    def test_flows_start_at_their_start_time(self):
        fabric = FabricShape(leaves=1, hosts_per_leaf=3)
        early = FlowSpec(flow_id=0, src=host_name(0, 1), dst=host_name(0, 0),
                         size_bytes=3000.0, start_s=0.0)
        late = FlowSpec(flow_id=1, src=host_name(0, 2), dst=host_name(0, 0),
                        size_bytes=3000.0, start_s=1e-3)
        first, second = run_packet_flows(fabric, [early, late])
        # Alone on the path, the late flow sees the early flow's FCT.
        assert second.finish_s == pytest.approx(1e-3 + first.fct_s)
        assert second.fct_s == pytest.approx(first.fct_s)
        assert first.goodput_bps == pytest.approx(3000 * 8 / first.fct_s)

    def test_unknown_host_is_a_value_error(self):
        spec = FlowSpec(flow_id=3, src=host_name(1, 0), dst=host_name(0, 0),
                        size_bytes=1000.0, start_s=0.0)
        with pytest.raises(ValueError, match="flow 3: unknown host 'h01-00'"):
            run_packet_flows(FabricShape(leaves=1, hosts_per_leaf=2), [spec])

    def test_straggler_overhead_slows_only_its_host(self):
        fabric = FabricShape(leaves=1, hosts_per_leaf=3)
        flows = [FlowSpec(flow_id=i, src=host_name(0, 1 + i),
                          dst=host_name(0, 0) if i else host_name(0, 2),
                          size_bytes=20_000.0, start_s=0.0)
                 for i in range(2)]
        lone = run_packet_flows(fabric, flows)
        slowed = run_packet_flows(fabric, flows, {host_name(0, 1): 2e-6})
        assert slowed[0].fct_s > 5 * lone[0].fct_s
        assert slowed[1].fct_s == lone[1].fct_s


# ---------------------------------------------------------------------------
# Scenario + calibration
# ---------------------------------------------------------------------------


class TestScenario:
    def test_generate_flows_is_seed_deterministic(self):
        config = ScenarioConfig(num_flows=200)
        flows_a = generate_flows(Environment(seed=5), config)
        flows_b = generate_flows(Environment(seed=5), config)
        flows_c = generate_flows(Environment(seed=6), config)
        assert flows_a == flows_b
        assert flows_a != flows_c
        assert len(flows_a) == 200

    def test_run_scenario_completes_all_flows(self):
        result = run_scenario(ScenarioConfig(num_flows=300))
        assert result.summary["flows"] == 300
        assert result.simulated_payload_bytes > 0
        assert result.sim_seconds > 0
        # The canonical scenario exercises every escalation reason.
        assert set(result.escalations) == {"incast", "straggler",
                                           "pfe-hash"}

    def test_configured_escalation_is_honoured(self):
        """``ScenarioConfig.escalation`` reaches the policy unchanged,
        straggler hosts included."""
        moved = run_scenario(ScenarioConfig(
            num_flows=400,
            escalation=EscalationConfig(straggler_hosts=("h01-00",))))
        stragglers = [record for record in moved.records
                      if record.escalated == "straggler"]
        assert stragglers
        assert all(record.spec.src == "h01-00" for record in stragglers)
        none = run_scenario(ScenarioConfig(
            num_flows=400, escalation=EscalationConfig()))
        assert "straggler" not in none.escalations

    def test_malformed_config_is_a_value_error(self):
        """A fabric without leaves or a zero load is diagnosed, not a
        ZeroDivisionError from the arrival draw."""
        with pytest.raises(ValueError, match="leaf"):
            generate_flows(Environment(), ScenarioConfig(leaves=0))
        with pytest.raises(ValueError, match="rate must be positive"):
            generate_flows(Environment(), ScenarioConfig(load=0.0))

    @pytest.mark.parametrize("field", ["leaves", "hosts_per_leaf"])
    @pytest.mark.parametrize("value", [0, 300])
    def test_unaddressable_fabric_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            FabricShape(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("host_bandwidth_bps", math.nan),
        ("host_bandwidth_bps", math.inf),
        ("host_bandwidth_bps", 0.0),
        ("uplink_bandwidth_bps", -1.0),
        ("uplink_bandwidth_bps", math.nan),
        ("propagation_s", math.nan),
        ("propagation_s", math.inf),
        ("propagation_s", -1e-6),
    ])
    def test_bad_link_parameter_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            FabricShape(**{field: value})

    @pytest.mark.parametrize("shape", [
        FabricShape(leaves=256, hosts_per_leaf=1),
        FabricShape(leaves=1, hosts_per_leaf=255),
    ])
    def test_largest_addressable_fabric_builds(self, shape):
        topology = build_leaf_spine(Environment(), shape)
        addresses = {int(host.ip) for host in topology.hosts.values()}
        assert len(addresses) == shape.num_hosts

    def test_find_path_routes_across_leaves(self):
        env = Environment()
        topology = build_leaf_spine(env, ScenarioConfig())
        same_leaf = topology.find_path(host_name(0, 0), host_name(0, 1))
        cross_leaf = topology.find_path(host_name(0, 0), host_name(1, 0))
        assert len(same_leaf) == 2       # host -> leaf -> host
        assert len(cross_leaf) == 4      # host -> leaf -> spine -> leaf -> host
        with pytest.raises(ValueError, match="unknown node"):
            topology.find_path("nope", host_name(0, 0))


class TestRunFlowsCost:
    """What ``run_flows`` pays per flow: solves, kernel events and
    packet-reference runs, counted exactly."""

    def test_same_instant_arrivals_cost_one_solve(self):
        # Eight 1 MB flows into one host: too large to escalate, so all
        # share its access link equally and finish together.
        flows = [FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                          dst=host_name(0, 0), size_bytes=1e6, start_s=0.0)
                 for fid in range(8)]
        fabric = FabricShape(leaves=1, hosts_per_leaf=9)
        result = run_flows(fabric, EscalationConfig(), lambda env: flows)
        assert result.escalations == {}
        # One solve for the arrivals, one when all eight finish.
        assert result.solves == 2
        # Past what the fabric schedules on its own: the arrivals,
        # their one solve, and one completion wake-up.
        idle = run_flows(fabric, EscalationConfig(), lambda env: [])
        assert result.scheduled_events - idle.scheduled_events == 8 + 1 + 1

    def test_arrival_at_a_projected_finish_shares_its_solve(self):
        fabric = FabricShape(leaves=1, hosts_per_leaf=4)
        capacity = fabric.host_bandwidth_bps * wire_efficiency()
        size_a, size_b = 1e6, 3e5
        finish_a = size_a * 8.0 / capacity
        flows = [
            FlowSpec(flow_id=0, src=host_name(0, 0), dst=host_name(0, 1),
                     size_bytes=size_a, start_s=0.0),
            FlowSpec(flow_id=1, src=host_name(0, 2), dst=host_name(0, 3),
                     size_bytes=size_b, start_s=finish_a),
        ]
        result = run_flows(fabric, EscalationConfig(), lambda env: flows)
        # Flow 0's arrival; the instant flow 0 finishes and flow 1
        # arrives; flow 1's finish.
        assert result.solves == 3
        frame_bits = (DEFAULT_MTU_PAYLOAD_BYTES + FRAME_OVERHEAD_BYTES) * 8
        hop = fabric.propagation_s + frame_bits / fabric.host_bandwidth_bps
        latency = 0.0 + hop + hop
        finish_b = finish_a + size_b * 8.0 / capacity
        first, second = sorted(result.records, key=lambda r: r.flow_id)
        assert (first.finish_s, first.fct_s) == (
            finish_a + latency, finish_a - 0.0 + latency)
        assert (second.finish_s, second.fct_s) == (
            finish_b + latency, finish_b - finish_a + latency)

    def test_traffic_point_after_another_matches_a_cold_start(self):
        from repro.harness.experiments import _traffic_point

        reset_reference_caches()
        _traffic_point(("microburst", 300, 256))
        misses = packet_fan_in.cache_info().misses
        hits = packet_fan_in.cache_info().hits
        warm = _traffic_point(("ddos", 300, 256))
        # The second point ran from the first one's references.
        assert packet_fan_in.cache_info().misses == misses
        assert packet_fan_in.cache_info().hits > hits
        reset_reference_caches()
        assert _traffic_point(("ddos", 300, 256)) == warm

    def test_second_run_adds_no_reference_miss(self):
        flows = [FlowSpec(flow_id=fid, src=host_name(0, 1 + fid),
                          dst=host_name(0, 0), size_bytes=4e4, start_s=0.0)
                 for fid in range(12)]
        fabric = FabricShape(leaves=1, hosts_per_leaf=13)
        reset_reference_caches()
        first = run_flows(fabric, EscalationConfig(), lambda env: flows)
        assert first.escalations == {"incast": 5}
        before = packet_fan_in.cache_info()
        assert before.misses > 0
        second = run_flows(fabric, EscalationConfig(), lambda env: flows)
        after = packet_fan_in.cache_info()
        # The second run repeats the first one's lookups, all as hits.
        assert after.misses == before.misses
        assert after.hits - before.hits == before.hits + before.misses
        assert second.records == first.records


class TestCalibration:
    def test_all_cases_within_band(self):
        cases = calibrate()
        assert set(cases) == {"pair", "shared", "incast"}
        for case in cases.values():
            assert case.within_band, (
                f"{case.case}: fluid {case.fluid_value:.4g} vs packet "
                f"{case.packet_value:.4g} ({case.ratio:.2f}x) outside "
                f"[{1 / case.band:.2f}x, {case.band:.2f}x]"
            )

    def test_cli_werror_passes(self, capsys):
        from repro.flowsim.calibrate import main

        assert main(["--werror"]) == 0
        out = capsys.readouterr().out
        assert "all cases within the calibration band" in out

    def test_cli_checks_out_directory_before_running(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.flowsim import calibrate as cli

        def run_nothing(*_args):
            raise AssertionError("calibrated before checking --out")

        monkeypatch.setattr(cli, "calibrate", run_nothing)
        path = tmp_path / "missing" / "x.txt"
        assert cli.main(["--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: --out {path}")
