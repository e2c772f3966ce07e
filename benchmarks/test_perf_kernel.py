"""Fast-path kernel performance and determinism checks.

The ISSUE's acceptance bar: the pooled-delay hot loop must sustain at
least 3x the seed kernel's ~500k events/s (i.e. >= 1.5M events/s), and
figure sweeps must be bit-identical whether run serially, through the
fast path, or fanned across processes with ``--parallel``.

Thresholds use :func:`time.process_time` best-of-N with the GC paused
(see :mod:`repro.harness.perfjson` for the methodology), so they hold on
a loaded shared box; they are still throughput assertions, so run this
file on an otherwise-idle interpreter for trustworthy numbers.
"""

from __future__ import annotations

from repro.harness import perfjson
from repro.harness.experiments import (
    FIG15_GRAD_COUNTS,
    _fig15_point,
    _map_points,
    fig15_latency_rate,
)

#: 3x the seed baseline the issue quotes (~500k events/s).
MIN_DELAY_EVENTS_PER_S = 1_500_000


def _sustained(bench, floor: float, attempts: int = 3) -> float:
    """Best rate over up to ``attempts`` measurement rounds.

    A shared runner can stall any single round; a throughput *capability*
    assertion only needs one clean round, so stop as soon as the floor
    is met.
    """
    best = 0.0
    for _ in range(attempts):
        best = max(best, bench(events=200_000, repeats=5))
        if best >= floor:
            break
    return best


def test_delay_path_meets_3x_throughput_floor():
    rate = _sustained(perfjson.bench_delay_path, MIN_DELAY_EVENTS_PER_S)
    assert rate >= MIN_DELAY_EVENTS_PER_S, (
        f"pooled delay path sustained {rate:,.0f} events/s, "
        f"below the {MIN_DELAY_EVENTS_PER_S:,} floor"
    )


def test_timeout_path_not_regressed():
    """The general (unpooled) path must stay above the seed baseline."""
    floor = perfjson.SEED_BASELINE["timeout_events_per_s"] * 0.85
    rate = _sustained(perfjson.bench_timeout_path, floor)
    assert rate >= floor, (
        f"timeout path sustained {rate:,.0f} events/s, below the seed "
        f"baseline floor of {floor:,.0f}"
    )


#: The refactored trainer loop (registry dispatch instead of inlined
#: if/else) sustains ~300k it/s at p=16% on the reference box; 100k is a
#: generous floor that still catches an accidental per-iteration
#: registry lookup or config re-validation landing in the hot loop.
MIN_TRAINER_ITERATIONS_PER_S = 100_000


def test_trainer_loop_meets_throughput_floor():
    rate = _sustained(
        lambda events, repeats: perfjson.bench_trainer_loop(
            iterations=events, repeats=repeats
        ),
        MIN_TRAINER_ITERATIONS_PER_S,
    )
    assert rate >= MIN_TRAINER_ITERATIONS_PER_S, (
        f"trainer loop sustained {rate:,.0f} iterations/s, below the "
        f"{MIN_TRAINER_ITERATIONS_PER_S:,} floor"
    )


#: The NF chain executor sustains ~400k packets/s through the canonical
#: three-NF chain on the reference box; 100k is a generous floor that
#: still catches an accidental per-packet chain re-compile, registry
#: lookup, or state-spec re-validation landing in the dispatch loop.
MIN_CHAIN_PACKETS_PER_S = 100_000


def test_nf_chain_meets_throughput_floor():
    rate = _sustained(
        lambda events, repeats: perfjson.bench_nf_chain(
            packets=events // 10, repeats=repeats
        ),
        MIN_CHAIN_PACKETS_PER_S,
    )
    assert rate >= MIN_CHAIN_PACKETS_PER_S, (
        f"NF chain executor sustained {rate:,.0f} packets/s, below the "
        f"{MIN_CHAIN_PACKETS_PER_S:,} floor"
    )


#: The traffic library generates ~270k websearch flow specs/s on the
#: reference box (CDF inverse-transform sizes, Poisson arrivals); 50k is
#: a generous floor that still catches an accidental per-flow sampler
#: rebuild or CDF re-validation landing in the generation loop.
MIN_TRAFFIC_FLOWS_PER_S = 50_000


def test_traffic_generation_meets_throughput_floor():
    rate = _sustained(
        lambda events, repeats: perfjson.bench_traffic(
            num_flows=events // 4, repeats=repeats
        ),
        MIN_TRAFFIC_FLOWS_PER_S,
    )
    assert rate >= MIN_TRAFFIC_FLOWS_PER_S, (
        f"traffic generator sustained {rate:,.0f} flows/s, below the "
        f"{MIN_TRAFFIC_FLOWS_PER_S:,} floor"
    )


def test_macro_packet_path_reports_throughput():
    stats = perfjson.bench_packet_path(blocks=40, repeats=2)
    assert stats["packets"] > 0
    assert stats["packets_per_s"] > 0
    assert stats["scheduled_events"] > stats["packets"]


def test_flowsim_meets_bytes_per_cpu_second_floor():
    """The hybrid acceptance bar: the flow level must simulate at least
    ``FLOWSIM_SPEEDUP_FLOOR``x (400x) more traffic bytes per CPU-second
    than the packet level.

    With the incremental path-class solver, full sizing (10^4 flows)
    lands ~900-1000x on the reference box; the reduced sizing here
    keeps the test fast while staying far enough above the floor that
    scheduler noise cannot trip it.  The packet side reuses the macro
    data-plane bench so both sides share the process_time/GC-paused
    methodology.
    """
    packet = perfjson.bench_packet_path(blocks=40, repeats=2)
    flowsim = perfjson.bench_flowsim(num_flows=2_000, repeats=2)
    ratio = (flowsim["simulated_bytes_per_cpu_s"]
             / packet["simulated_bytes_per_cpu_s"])
    assert ratio >= perfjson.FLOWSIM_SPEEDUP_FLOOR, (
        f"flow level simulated {flowsim['simulated_bytes_per_cpu_s']:,.0f} "
        f"bytes/cpu-s vs packet level "
        f"{packet['simulated_bytes_per_cpu_s']:,.0f} — only {ratio:.1f}x, "
        f"below the {perfjson.FLOWSIM_SPEEDUP_FLOOR:.0f}x floor"
    )
    assert flowsim["escalated_flows"] > 0, (
        "the benchmark scenario must exercise the escalation boundary; "
        "an all-fluid run would overstate the speedup"
    )


#: The incremental path-class solver sustains ~3.5-4k flow
#: arrival/departure events per second at a ~100-class live window
#: (each event is a full incremental re-solve), vs well under 1k for a
#: from-scratch per-flow rebuild at the same point.  1k is a generous
#: floor that still trips immediately if the incremental path ever
#: regresses to rebuilding `elastic`/`pinned` state per solve.
MIN_SOLVER_FLOWS_PER_S = 1_000


def test_incremental_solver_meets_churn_floor():
    rate = _sustained(
        lambda events, repeats: perfjson.bench_solver(
            num_flows=events // 50, repeats=repeats
        ),
        MIN_SOLVER_FLOWS_PER_S,
    )
    assert rate >= MIN_SOLVER_FLOWS_PER_S, (
        f"path-class solver sustained {rate:,.0f} flows/s of churn, "
        f"below the {MIN_SOLVER_FLOWS_PER_S:,} floor"
    )


def test_flowsim_event_budget_holds():
    """The dead-wake-up guard end to end: `bench_flowsim` itself raises
    if the event heap grows past ~3.5 events/flow, so a pass here means
    completion wake-ups are being reused/cancelled, not abandoned."""
    stats = perfjson.bench_flowsim(num_flows=1_000, repeats=1)
    assert stats["scheduled_events_per_flow"] <= 3.5
    assert stats["wake_reused"] > 0, (
        "no completion wake-up was ever reused; the single-live-wake "
        "path is not engaged"
    )


def test_fig15_serial_parallel_bit_identical():
    """Same rows AND same kernel event counts, serial vs ``--parallel``.

    Every sweep point builds its Environment from its arguments alone,
    so process fan-out cannot change any simulated result; the scheduled
    event count is the kernel-level fingerprint that would catch even a
    result-preserving divergence in event order bookkeeping.
    """
    points = [(grads, 5) for grads in FIG15_GRAD_COUNTS]
    serial = _map_points(_fig15_point, points, parallel=None)
    fanned = _map_points(_fig15_point, points, parallel=2)
    assert [row for row, _ in serial] == [row for row, _ in fanned]
    assert [events for _, events in serial] == [
        events for _, events in fanned
    ]


def test_fig15_driver_parallel_matches_serial():
    """The public driver agrees with itself under ``parallel=``."""
    assert fig15_latency_rate(blocks=3) == fig15_latency_rate(
        blocks=3, parallel=2
    )

def test_disabled_obs_probe_under_ceiling():
    """The zero-overhead contract: a disabled recording site is an
    ``obs.session()`` call returning None plus an ``is not None`` test.
    The absolute ceiling is generous (tens of ns measured vs a 2000 ns
    bound) so box noise cannot trip it, but a site that records while
    "disabled" jumps 10-100x and fails immediately."""
    stats = perfjson.bench_obs_overhead(calls=200_000, repeats=3)
    for key in ("null_probe_ns", "null_probe_fields_ns"):
        assert stats[key] <= perfjson.OBS_PROBE_NS_CEILING, (
            f"disabled recording site ({key}) costs {stats[key]:.0f} ns/call, "
            f"above the {perfjson.OBS_PROBE_NS_CEILING:.0f} ns ceiling"
        )


def test_disabled_obs_keeps_kernel_throughput():
    """Observability wiring must not tax the disabled hot loop: with
    recording off ``env.run()`` binds plain ``heappop`` as the loop's
    pop, so the only disabled-mode cost is one ``enabled()`` check per
    ``env.run()`` call.  Reuses the delay-path floor as the budget."""
    from repro.obs import bus

    assert not bus.enabled()
    rate = _sustained(perfjson.bench_delay_path, MIN_DELAY_EVENTS_PER_S)
    assert rate >= MIN_DELAY_EVENTS_PER_S, (
        f"delay path with obs wiring sustained {rate:,.0f} events/s, "
        f"below the {MIN_DELAY_EVENTS_PER_S:,} floor"
    )
