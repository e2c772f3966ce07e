"""Experiment drivers — one per table/figure of the paper's evaluation.

Each function returns structured results; :mod:`repro.harness.figures`
renders them as the rows/series the paper reports.  Packet-level
experiments (Figures 14–16, the §6.3 analysis, and the ablations) run on
the simulated Trio testbed; training-level experiments (Figures 12–13)
use the calibrated iteration-time models of :mod:`repro.ml`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.collectives import available_backends
from repro.ml.accuracy import AccuracyCurve
from repro.obs import bus as _obs
from repro.ml.models import DNNModel, MODEL_ZOO
from repro.ml.training import DataParallelTrainer, TrainingConfig
from repro.sim import Environment, Resource
from repro.trio.chipset import GENERATIONS
from repro.trio.pfe import PFE
from repro.trioml.aggregator import (
    INSTRUCTIONS_PER_GRADIENT,
    STATIC_PROGRAM_INSTRUCTIONS,
)
from repro.trioml.config import TrioMLJobConfig
from repro.harness.testbed import (
    SinglePfeTestbed,
    build_hierarchical_testbed,
    build_single_pfe_testbed,
    run_single_pfe_allreduce,
)

__all__ = [
    "BackendSweepRow",
    "ChainRow",
    "DEFAULT_CHAIN",
    "Fig12Result",
    "Fig13Row",
    "Fig14Row",
    "Fig15Row",
    "Fig16Row",
    "FluidRow",
    "HybridRow",
    "ProgramAnalysis",
    "TRAFFIC_CHAIN",
    "TrafficRow",
    "ablation_hierarchy",
    "ablation_rmw_offload",
    "ablation_scan_threads",
    "ablation_tail_chunk",
    "backend_sweep",
    "chains_sweep",
    "fig12_time_to_accuracy",
    "fig13_iteration_time",
    "fig14_mitigation",
    "fig15_latency_rate",
    "fig16_window_sweep",
    "generation_scaling",
    "hybrid_sweep",
    "loss_recovery_sweep",
    "microcode_program_analysis",
    "profile_dataplane_slice",
    "profile_flowsim_slice",
    "table1_models",
    "traffic_sweep",
]

#: Straggle probabilities swept in Figure 13 (x-axis 0..16%).
FIG13_PROBABILITIES = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16)


def _map_points(worker: Callable, points: Sequence,
                parallel: Optional[int] = None) -> List:
    """Run ``worker`` over independent sweep points, optionally fanning
    them across worker processes.

    Every sweep point builds its own :class:`Environment` from its
    arguments alone, so each point is deterministic in isolation —
    executing points in separate processes cannot change any result.
    ``ProcessPoolExecutor.map`` preserves input order, so the returned
    list is bit-identical to the serial loop.  The process-wide default
    seed (``--seed``) is replicated into each worker so seeded and
    serial runs agree under any multiprocessing start method.

    Under an active obs session each point runs in a fresh scoped
    session (serial: nested on the stack; parallel: the only session in
    its worker process) and returns ``(result, export)``; the parent
    merges the exports in point order.  Both modes execute the identical
    enable-run-export sequence per point, so the merged snapshot is
    bit-identical serial vs parallel.
    """
    points = list(points)
    parent = _obs.session()
    if parent is not None:
        worker = _obs.CapturedWorker(worker)
        points = list(enumerate(points))
    if not parallel or parallel <= 1 or len(points) <= 1:
        results = [worker(point) for point in points]
    else:
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim import default_seed, set_default_seed

        with ProcessPoolExecutor(
            max_workers=min(parallel, len(points)),
            initializer=set_default_seed,
            initargs=(default_seed(),),
        ) as pool:
            results = list(pool.map(worker, points))
    if parent is None:
        return results
    for __, exported in results:
        parent.merge(exported)
    return [result for result, __ in results]


#: Gradient-per-packet sweep of Figure 15.
FIG15_GRAD_COUNTS = (64, 128, 256, 512, 1024)
#: Window sweep of Figure 16.
FIG16_WINDOWS = (1, 4, 16, 64, 256, 1024, 4096)
#: Timeout sweep of Figure 14 (milliseconds).
FIG14_TIMEOUTS_MS = (2.5, 5.0, 10.0, 15.0, 20.0)


def _iteration_s(model: DNNModel, systems: Sequence[str], probability: float,
                 iterations: int, seed: int) -> Dict[str, float]:
    """Mean iteration time (s) of training ``model`` on each system."""
    return {
        system: DataParallelTrainer(TrainingConfig(
            model=model, system=system, straggle_probability=probability,
            seed=seed,
        )).average_iteration_s(iterations)
        for system in systems
    }


def _grouped(points: Sequence[tuple], rows: List) -> Dict:
    """Sweep rows grouped by the first element of their points."""
    results: Dict = {}
    for (key, *__), row in zip(points, rows):
        results.setdefault(key, []).append(row)
    return results


def _straggler_run(blocks: int, grads_per_packet: int, timeout_ms: float,
                   detector_threads: int) -> Tuple[SinglePfeTestbed, List]:
    """Figure 14's set-up: four workers on one PFE with the straggler
    detector on, and server 4 never sending, so every block ages out.

    Returns the testbed and the three workers that sent.
    """
    env = Environment()
    config = TrioMLJobConfig(
        grads_per_packet=grads_per_packet,
        window=blocks,
        timeout_s=timeout_ms / 1e3,
        detector_threads=detector_threads,
    )
    testbed = build_single_pfe_testbed(
        env, config, num_workers=4, with_detector=True
    )
    vector = [1] * (grads_per_packet * blocks)
    senders = testbed.workers[:3]  # server 4 is the straggler
    procs = [env.process(w.allreduce(vector)) for w in senders]
    env.run(until=env.all_of(procs))
    return testbed, senders


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


def table1_models() -> List[Dict[str, object]]:
    """The DNN workload table (Table 1)."""
    return [
        {
            "model": model.name,
            "size_mb": model.size_mb,
            "batch_size_per_gpu": model.batch_size,
            "dataset": model.dataset,
        }
        for model in MODEL_ZOO.values()
    ]


# ---------------------------------------------------------------------------
# Figure 12: time-to-accuracy
# ---------------------------------------------------------------------------


@dataclass
class Fig12Result:
    """One panel of Figure 12."""

    model: str
    target_accuracy: float
    trioml_minutes: float
    switchml_minutes: float
    speedup: float
    #: (minutes, accuracy) series for each system.
    trioml_curve: List[Tuple[float, float]]
    switchml_curve: List[Tuple[float, float]]


def fig12_time_to_accuracy(
    straggle_probability: float = 0.16,
    iterations: int = 100,
    seed: int = 0,
    models: Optional[Sequence[str]] = None,
) -> Dict[str, Fig12Result]:
    """Figure 12: validation accuracy vs wall-clock time at p = 16%."""
    results: Dict[str, Fig12Result] = {}
    for key in models or MODEL_ZOO:
        model = MODEL_ZOO[key]
        curve = AccuracyCurve(model)
        iteration_s = _iteration_s(model, ("trioml", "switchml"),
                                   straggle_probability, iterations, seed)
        target = model.target_accuracy
        tta = {
            system: curve.time_to_accuracy_s(target, iteration_s[system]) / 60
            for system in iteration_s
        }
        results[key] = Fig12Result(
            model=model.name,
            target_accuracy=target,
            trioml_minutes=tta["trioml"],
            switchml_minutes=tta["switchml"],
            speedup=tta["switchml"] / tta["trioml"],
            trioml_curve=curve.curve(iteration_s["trioml"], target),
            switchml_curve=curve.curve(iteration_s["switchml"], target),
        )
    return results


# ---------------------------------------------------------------------------
# Figure 13: iteration time vs straggling probability
# ---------------------------------------------------------------------------


@dataclass
class Fig13Row:
    probability: float
    ideal_ms: float
    trioml_ms: float
    switchml_ms: float

    @property
    def speedup(self) -> float:
        return self.switchml_ms / self.trioml_ms


def _fig13_point(args: Tuple[str, float, int, int]) -> Fig13Row:
    """One (model, probability) point of Figure 13."""
    key, probability, iterations, seed = args
    averages = _iteration_s(MODEL_ZOO[key], ("ideal", "trioml", "switchml"),
                            probability, iterations, seed)
    return Fig13Row(
        probability=probability,
        ideal_ms=averages["ideal"] * 1e3,
        trioml_ms=averages["trioml"] * 1e3,
        switchml_ms=averages["switchml"] * 1e3,
    )


def fig13_iteration_time(
    probabilities: Sequence[float] = FIG13_PROBABILITIES,
    iterations: int = 100,
    seed: int = 0,
    models: Optional[Sequence[str]] = None,
    parallel: Optional[int] = None,
) -> Dict[str, List[Fig13Row]]:
    """Figure 13: average iteration time of the first 100 iterations."""
    keys = list(models or MODEL_ZOO)
    points = [
        (key, probability, iterations, seed)
        for key in keys
        for probability in probabilities
    ]
    return _grouped(points, _map_points(_fig13_point, points, parallel))


# ---------------------------------------------------------------------------
# Backend sweep: Figure 13 generalised over the collective registry
# ---------------------------------------------------------------------------


@dataclass
class BackendSweepRow:
    """Average iteration time of every swept backend at one probability."""

    probability: float
    #: backend name -> mean iteration time (ms).
    iteration_ms: Dict[str, float]


def _backend_sweep_point(
    args: Tuple[str, float, int, int, Tuple[str, ...]]
) -> BackendSweepRow:
    """One probability point of the registry-wide backend sweep."""
    key, probability, iterations, seed, systems = args
    iteration_s = _iteration_s(MODEL_ZOO[key], systems, probability,
                               iterations, seed)
    iteration_ms = {system: value * 1e3
                    for system, value in iteration_s.items()}
    return BackendSweepRow(probability=probability, iteration_ms=iteration_ms)


def backend_sweep(
    model: str = "resnet50",
    probabilities: Sequence[float] = FIG13_PROBABILITIES,
    systems: Optional[Sequence[str]] = None,
    iterations: int = 100,
    seed: int = 0,
    parallel: Optional[int] = None,
) -> List[BackendSweepRow]:
    """Figure 13's sweep generalised over the collective-backend registry.

    By default every registered backend is a series — including ones the
    paper does not plot (e.g. ``ring-straggler``), which is how a new
    plugin becomes a figure without touching the harness.  Pass
    ``systems`` to sweep a subset.
    """
    systems = tuple(systems) if systems else available_backends()
    points = [
        (model, probability, iterations, seed, systems)
        for probability in probabilities
    ]
    return _map_points(_backend_sweep_point, points, parallel)


# ---------------------------------------------------------------------------
# Figure 14: straggler mitigation time vs timeout
# ---------------------------------------------------------------------------


@dataclass
class Fig14Row:
    timeout_ms: float
    mean_mitigation_ms: float
    max_mitigation_ms: float
    blocks_mitigated: int


def _fig14_point(args: Tuple[float, int, int, int]) -> Fig14Row:
    """One timeout point of Figure 14."""
    timeout_ms, blocks, grads_per_packet, detector_threads = args
    __, senders = _straggler_run(blocks, grads_per_packet, timeout_ms,
                                 detector_threads)
    mitigation_ms: List[float] = []
    for worker in senders:
        for key, sent in worker.send_times.items():
            received = worker.result_times.get(key)
            if received is not None:
                mitigation_ms.append((received - sent) * 1e3)
    return Fig14Row(
        timeout_ms=timeout_ms,
        mean_mitigation_ms=sum(mitigation_ms) / len(mitigation_ms),
        max_mitigation_ms=max(mitigation_ms),
        blocks_mitigated=len(mitigation_ms),
    )


def fig14_mitigation(
    timeouts_ms: Sequence[float] = FIG14_TIMEOUTS_MS,
    blocks: int = 20,
    grads_per_packet: int = 256,
    detector_threads: int = 20,
    parallel: Optional[int] = None,
) -> List[Fig14Row]:
    """Figure 14: time from sending an aggregation packet to receiving the
    (partial) result, with one permanently straggling server.

    Four servers on one PFE; server 4 never sends; the others send
    ``blocks`` back-to-back packets each.  Every block must age out, so
    the measured latency is the straggler-detection time — the paper's
    claim is that it stays within 2x the timeout interval.
    """
    points = [
        (timeout_ms, blocks, grads_per_packet, detector_threads)
        for timeout_ms in timeouts_ms
    ]
    return _map_points(_fig14_point, points, parallel)


# ---------------------------------------------------------------------------
# Figure 15: aggregation latency and rate vs gradients per packet
# ---------------------------------------------------------------------------


@dataclass
class Fig15Row:
    grads_per_packet: int
    latency_us: float
    rate_grads_per_us: float


def _fig15_point(args: Tuple[int, int]) -> Tuple[Fig15Row, int]:
    """One gradients-per-packet point of Figure 15.

    Returns the row plus the kernel's total scheduled-event count — the
    determinism fingerprint the regression test compares across serial,
    fast-path, and ``--parallel`` runs.
    """
    grads, blocks = args
    testbed, __ = run_single_pfe_allreduce(
        TrioMLJobConfig(grads_per_packet=grads, window=1), blocks)
    latencies = testbed.handle.aggregator.packet_latencies
    mean_latency_s = sum(latencies) / len(latencies)
    row = Fig15Row(
        grads_per_packet=grads,
        latency_us=mean_latency_s * 1e6,
        rate_grads_per_us=grads / (mean_latency_s * 1e6),
    )
    return row, testbed.env.scheduled_events


def fig15_latency_rate(
    grad_counts: Sequence[int] = FIG15_GRAD_COUNTS,
    blocks: int = 100,
    parallel: Optional[int] = None,
) -> List[Fig15Row]:
    """Figure 15: per-PFE aggregation latency (window = 1) and the derived
    aggregation rate, as gradients-per-packet grows."""
    points = [(grads, blocks) for grads in grad_counts]
    return [row for row, _ in _map_points(_fig15_point, points, parallel)]


# ---------------------------------------------------------------------------
# Figure 16: window sweep
# ---------------------------------------------------------------------------


@dataclass
class Fig16Row:
    window: int
    latency_us: float
    throughput_gbps: float


def _fig16_point(args: Tuple[int, int, int]) -> Fig16Row:
    """One (grads, window) point of Figure 16."""
    grads, window, blocks = args
    testbed, __ = run_single_pfe_allreduce(
        TrioMLJobConfig(grads_per_packet=grads, window=window), blocks)
    elapsed = testbed.env.now
    aggregator = testbed.handle.aggregator
    latencies = aggregator.packet_latencies
    total_bits = aggregator.gradients_aggregated * 32
    return Fig16Row(
        window=window,
        latency_us=sum(latencies) / len(latencies) * 1e6,
        throughput_gbps=total_bits / elapsed / 1e9,
    )


def fig16_window_sweep(
    windows: Sequence[int] = FIG16_WINDOWS,
    grad_counts: Sequence[int] = (512, 1024),
    blocks_for: Optional[Callable[[int], int]] = None,
    parallel: Optional[int] = None,
) -> Dict[int, List[Fig16Row]]:
    """Figure 16: aggregation latency and PFE throughput vs window size,
    for Trio-ML-512 and Trio-ML-1024."""
    if blocks_for is None:
        blocks_for = lambda window: max(128, min(2 * window, window + 1024))
    # blocks_for is resolved here so the sweep points stay picklable even
    # when the caller passes a lambda.
    points = [
        (grads, window, blocks_for(window))
        for grads in grad_counts
        for window in windows
    ]
    return _grouped(points, _map_points(_fig16_point, points, parallel))


# ---------------------------------------------------------------------------
# §6.3 Microcode program analysis
# ---------------------------------------------------------------------------


@dataclass
class ProgramAnalysis:
    """The numbers §6.3's prose reports."""

    static_instructions: int
    loop_instructions_per_gradient: float
    measured_instructions_per_gradient: float
    rmw_engines: int
    rmw_add_cycles: int
    rmw_add_rate_ops_per_s: float


def microcode_program_analysis(
    grads_per_packet: int = 1024, blocks: int = 32
) -> ProgramAnalysis:
    """Reproduce the §6.3 program analysis: ~60 static instructions,
    ~1.2 run-time instructions per gradient in the aggregation loop, and
    6 billion RMW add operations per second per PFE."""
    testbed, __ = run_single_pfe_allreduce(
        TrioMLJobConfig(grads_per_packet=grads_per_packet, window=8), blocks)
    aggregator = testbed.handle.aggregator
    total_instructions = sum(
        ppe.instructions_executed for ppe in testbed.pfe.ppes
    )
    chipset = testbed.pfe.config
    return ProgramAnalysis(
        static_instructions=STATIC_PROGRAM_INSTRUCTIONS,
        loop_instructions_per_gradient=INSTRUCTIONS_PER_GRADIENT,
        measured_instructions_per_gradient=(
            total_instructions / aggregator.gradients_aggregated
        ),
        rmw_engines=chipset.num_rmw_engines,
        rmw_add_cycles=chipset.rmw_add32_cycles,
        rmw_add_rate_ops_per_s=chipset.rmw_add32_rate_ops_s,
    )


# ---------------------------------------------------------------------------
# Ablations (design choices DESIGN.md calls out)
# ---------------------------------------------------------------------------


@dataclass
class AblationRow:
    """Generic (label, value) ablation result."""

    label: str
    value: float
    unit: str


# ---------------------------------------------------------------------------
# Supplementary: packet-loss resiliency (§7 provisions, implemented)
# ---------------------------------------------------------------------------


@dataclass
class LossRow:
    loss_rate: float
    completion_ms: float
    frames_lost: int
    retransmissions: int
    results_replayed: int


def _loss_point(args: Tuple[float, int, int]) -> LossRow:
    """One loss-rate point of the loss-recovery sweep."""
    loss_rate, blocks, grads_per_packet = args
    config = TrioMLJobConfig(
        grads_per_packet=grads_per_packet,
        window=8,
        loss_recovery=True,
        retransmit_timeout_s=0.002,
    )
    testbed, procs = run_single_pfe_allreduce(config, blocks,
                                              link_loss_rate=loss_rate)
    for proc in procs:
        if any(block.values != [4] * grads_per_packet
               for block in proc.value):
            raise AssertionError(
                f"loss recovery produced a wrong sum at {loss_rate:.0%}"
            )
    runtime = next(iter(testbed.handle.runtimes.values()))
    return LossRow(
        loss_rate=loss_rate,
        completion_ms=testbed.env.now * 1e3,
        frames_lost=sum(l.frames_lost for l in testbed.topology.links),
        retransmissions=sum(w.retransmissions for w in testbed.workers),
        results_replayed=runtime.results_replayed,
    )


def loss_recovery_sweep(
    loss_rates: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.10),
    blocks: int = 32,
    grads_per_packet: int = 256,
    parallel: Optional[int] = None,
) -> List[LossRow]:
    """Supplementary experiment: allreduce completion under transient
    packet loss with the §7 resiliency provisions enabled (worker
    retransmission + aggregator Result replay).  Every run must complete
    with exact sums; higher loss costs retransmission round trips."""
    points = [
        (loss_rate, blocks, grads_per_packet) for loss_rate in loss_rates
    ]
    return _map_points(_loss_point, points, parallel)


# ---------------------------------------------------------------------------
# Supplementary: generation scaling (§2's six generations)
# ---------------------------------------------------------------------------


@dataclass
class GenerationRow:
    generation: int
    year: int
    num_ppes: int
    rmw_engines: int
    completion_ms: float
    throughput_gbps: float


def generation_scaling(
    generations: Sequence[int] = (1, 2, 3, 4, 5, 6),
    blocks: int = 128,
    grads_per_packet: int = 512,
    window: int = 64,
    parallel: Optional[int] = None,
) -> List[GenerationRow]:
    """Supplementary experiment: the same Trio-ML aggregation job on every
    chipset generation (§2: 16 PPEs/2 RMW engines in 2009 through 160
    PPEs/24 engines in 2022).  Aggregation throughput scales with the RMW
    complex, the paper's stated scaling strategy ("Juniper Networks
    increased the number of read-modify-write engines in each generation
    ... so that the memory bandwidth increases with the packet processing
    bandwidth", §2.3)."""
    points = [
        (gen, blocks, grads_per_packet, window) for gen in generations
    ]
    return _map_points(_generation_point, points, parallel)


def _generation_point(args: Tuple[int, int, int, int]) -> GenerationRow:
    """One chipset-generation point of the generation-scaling sweep."""
    gen, blocks, grads_per_packet, window = args
    chipset = GENERATIONS[gen]
    config = TrioMLJobConfig(grads_per_packet=grads_per_packet,
                             window=window)
    testbed, __ = run_single_pfe_allreduce(config, blocks, chipset=chipset)
    env = testbed.env
    total_bits = testbed.handle.aggregator.gradients_aggregated * 32
    return GenerationRow(
        generation=gen,
        year=chipset.year,
        num_ppes=chipset.num_ppes,
        rmw_engines=chipset.num_rmw_engines,
        completion_ms=env.now * 1e3,
        throughput_gbps=total_bits / env.now / 1e9,
    )


def ablation_rmw_offload(num_threads: int = 64,
                         updates_per_thread: int = 32) -> List[AblationRow]:
    """§2.3's design argument: offloading read-modify-writes to engines
    next to memory vs giving one thread ownership of the location.

    Simulates ``num_threads`` concurrent threads all incrementing the
    same counter.  The lock-based variant pays two memory round trips
    (read, then write) per update while holding the location; the RMW
    engine pays one service slot next to the memory.
    """
    def contend(update) -> float:
        """Simulated time for every thread to apply its updates."""
        env = Environment()
        pfe = PFE(env, "pfe", config=GENERATIONS[5], num_ports=1)
        addr = pfe.memory.alloc(16, region="sram", align=16)
        lock = Resource(env)

        def worker():
            for __ in range(updates_per_thread):
                yield from update(pfe.memory, addr, lock)

        procs = [env.process(worker()) for __ in range(num_threads)]
        env.run(until=env.all_of(procs))
        return env.now

    def rmw(memory, addr, lock):
        yield from memory.counter_inc(addr, 100)

    def locked(memory, addr, lock):
        yield lock.request()
        try:
            # Move the data to the thread, modify, move it back.
            raw = yield from memory.read(addr, 16)
            packets = int.from_bytes(raw[:8], "little") + 1
            nbytes = int.from_bytes(raw[8:], "little") + 100
            yield from memory.write(
                addr,
                packets.to_bytes(8, "little") + nbytes.to_bytes(8, "little"),
            )
        finally:
            lock.release()

    return [
        AblationRow("rmw-engine offload", contend(rmw) * 1e6, "us"),
        AblationRow("thread-ownership lock", contend(locked) * 1e6, "us"),
    ]


def ablation_scan_threads(
    thread_counts: Sequence[int] = (1, 10, 100),
    num_records: int = 20_000,
) -> List[AblationRow]:
    """§5's design argument: N parallel timer threads each scanning 1/N of
    a large hash table vs one thread scanning everything.  Reports the
    wall time of one full sweep."""
    rows: List[AblationRow] = []
    for num_threads in thread_counts:
        env = Environment()
        pfe = PFE(env, "pfe", config=GENERATIONS[5], num_ports=1)
        table = pfe.hash_table
        for i in range(num_records):
            table.insert_nowait(("job", i), i)

        def sweep(index: int, n: int = num_threads):
            def work(tctx):
                records = yield from table.scan_segment(index, n)
                yield from tctx.execute(2 * len(records))

            return work

        procs = [
            pfe.spawn_internal_thread(sweep(i), name=f"scan{i}")
            for i in range(num_threads)
        ]
        env.run(until=env.all_of(procs))
        rows.append(
            AblationRow(f"{num_threads} scan threads", env.now * 1e6, "us")
        )
    return rows


def ablation_hierarchy(blocks: int = 512,
                       grads_per_packet: int = 512,
                       window: int = 256) -> List[AblationRow]:
    """§4's hierarchical aggregation: six workers on one PFE vs three per
    first-level PFE with a top-level aggregator.

    Reports allreduce completion time in two regimes: a small
    latency-bound stream (window 4), where the extra level only adds
    fabric hops, and a saturating stream (the defaults), where hierarchy
    spreads the RMW-add load — each first-level PFE sums 3 streams and
    the top level only 2, instead of one complex summing all 6 — and
    wins on completion time.
    """

    def run(build, win: int) -> float:
        env = Environment()
        testbed = build(env, TrioMLJobConfig(grads_per_packet=grads_per_packet,
                                             window=win))
        n = blocks if win >= window else max(16, blocks // 8)
        vector = [1] * (grads_per_packet * n)
        procs = testbed.run_allreduce([vector] * 6)
        env.run(until=env.all_of(procs))
        return env.now

    rows: List[AblationRow] = []
    for label, win in (("latency regime, window 4", 4),
                       (f"saturating regime, window {window}", window)):
        flat_time = run(partial(build_single_pfe_testbed, num_workers=6), win)
        hier_time = run(build_hierarchical_testbed, win)
        rows.append(AblationRow(
            f"single-level, {label}", flat_time * 1e3, "ms"))
        rows.append(AblationRow(
            f"hierarchical, {label}", hier_time * 1e3, "ms"))
    return rows


def ablation_tail_chunk(
    chunk_sizes: Sequence[int] = (16, 32, 64),
    grads_per_packet: int = 1024,
    blocks: int = 32,
) -> List[AblationRow]:
    """Figure 10's 64-byte tail-chunk loop: smaller chunks mean more
    Memory-and-Queueing-Subsystem round trips per packet."""
    rows: List[AblationRow] = []
    for chunk in chunk_sizes:
        testbed, __ = run_single_pfe_allreduce(
            TrioMLJobConfig(grads_per_packet=grads_per_packet, window=1),
            blocks, tail_chunk_bytes=chunk)
        latencies = testbed.handle.aggregator.packet_latencies
        rows.append(
            AblationRow(
                f"{chunk}-byte tail chunks",
                sum(latencies) / len(latencies) * 1e6,
                "us",
            )
        )
    return rows

# ---------------------------------------------------------------------------
# Hybrid flow/packet sweep (repro.flowsim)
# ---------------------------------------------------------------------------

#: Offered loads (fraction of aggregate host access bandwidth) swept by
#: the hybrid mode.
HYBRID_LOADS = (0.3, 0.5, 0.7)


@dataclass
class FluidRow:
    """The fluid-level summary of one hybrid run: the columns the hybrid
    and traffic sweeps share."""

    flows: int
    mean_fct_ms: float
    p99_fct_ms: float
    mean_goodput_gbps: float
    simulated_gbytes: float
    sim_seconds: float
    solves: int
    #: Escalation counts by reason ("incast", "straggler", "pfe-hash",
    #: and the traffic library's "microburst" and "ddos").
    escalations: Dict[str, int]

    @property
    def escalated_total(self) -> int:
        return sum(self.escalations.values())

    @classmethod
    def from_run(cls, result, **fields):
        """Summarise a hybrid run's result; ``fields`` fill the
        subclass's own columns."""
        summary = result.summary
        return cls(
            flows=int(summary["flows"]),
            mean_fct_ms=summary["mean_fct_s"] * 1e3,
            p99_fct_ms=summary["p99_fct_s"] * 1e3,
            mean_goodput_gbps=summary["mean_goodput_bps"] / 1e9,
            simulated_gbytes=result.simulated_payload_bytes / 1e9,
            sim_seconds=result.sim_seconds,
            solves=result.solves,
            escalations=dict(sorted(result.escalations.items())),
            **fields,
        )


@dataclass
class HybridRow(FluidRow):
    """One offered-load point of the hybrid flow/packet sweep."""

    load: float


def _hybrid_point(args: Tuple[int, float, float]) -> HybridRow:
    """One offered-load point: a full hybrid scenario run."""
    from repro.flowsim import ScenarioConfig, run_scenario

    num_flows, load, mean_flow_bytes = args
    result = run_scenario(ScenarioConfig(
        num_flows=num_flows, load=load, mean_flow_bytes=mean_flow_bytes,
    ))
    return HybridRow.from_run(result, load=load)


def hybrid_sweep(
    loads: Sequence[float] = HYBRID_LOADS,
    num_flows: int = 2000,
    mean_flow_bytes: float = 2e6,
    parallel: Optional[int] = None,
) -> List[HybridRow]:
    """The two-level hybrid simulation swept over offered load.

    Each point runs ``num_flows`` flows on the leaf/spine fabric through
    the fluid engine, with incast bursts, a straggler host, and
    synchronised aggregation steps escalating to the packet level.  Every
    point is a pure function of its arguments plus the process-default
    seed, so ``--parallel`` runs are bit-identical to serial ones.
    """
    points = [(num_flows, load, mean_flow_bytes) for load in loads]
    return _map_points(_hybrid_point, points, parallel)


def profile_flowsim_slice(num_flows: int = 300) -> Dict[str, float]:
    """A small hybrid run for the ``profile`` harness mode.

    Sized so every escalation reason fires: the trace gains the
    ``flowsim/escalations`` track (escalation instants plus
    escalated-flow spans in simulated time) and the metrics snapshot
    gains the ``flowsim.*`` counters the profile report lists.
    """
    from repro.flowsim import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(
        num_flows=num_flows,
        incast_fraction=0.1,
        aggregation_fraction=0.1,
    ))
    stats: Dict[str, float] = {
        "simulated_s": result.sim_seconds,
        "flows": result.summary["flows"],
        "solves": float(result.solves),
        "escalated_flows": result.summary["escalated"],
    }
    for reason, count in sorted(result.escalations.items()):
        stats[f"escalations.{reason}"] = float(count)
    return stats


# ---------------------------------------------------------------------------
# Traffic scenario sweep (ROADMAP item 1, repro.traffic)
# ---------------------------------------------------------------------------

def _execute_chain(compiled, placement, trace):
    """Run ``trace`` through a compiled chain split as ``placement``.

    Returns the chain result, the placement's cost, and the packet
    verdict totals as the ``forwarded``/``dropped``/``consumed`` fields
    the traffic and chain rows share.
    """
    from repro.nf import run_chain

    cost = compiled.placement_costs(placement)
    result = run_chain(compiled.spec, compiled.nfs, placement, trace,
                       per_packet_s=cost.per_packet_s)
    tallies = result.flow_verdicts.values()
    verdicts = {
        "forwarded": sum(t[0] for t in tallies),
        "dropped": sum(t[1] for t in tallies),
        "consumed": sum(t[2] for t in tallies),
    }
    return result, cost, verdicts


#: The chain every scenario's packet stream is validated against: the
#: DDoS and heavy-hitter families exist to exercise exactly these two
#: NFs (per-source policers, per-flow accounting).
TRAFFIC_CHAIN = "firewall -> telemetry"


@dataclass
class TrafficRow(FluidRow):
    """One registered traffic scenario, run at both simulation levels.

    The fluid columns come from a full hybrid run of the scenario on
    its own fabric; the packet columns from pushing the same scenario's
    wire-format stream through :data:`TRAFFIC_CHAIN`.
    """

    scenario: str
    chain_packets: int
    forwarded: int
    dropped: int
    consumed: int

    @property
    def drop_fraction(self) -> float:
        if self.chain_packets <= 0:
            return 0.0
        return self.dropped / self.chain_packets


def _traffic_point(args: Tuple[str, int, int]) -> TrafficRow:
    """One scenario: a fluid run plus a packet run through the chain.

    Self-contained — the scenario is looked up by name and both runs
    are pure functions of ``(name, sizes, process default seed)`` — so
    points fan across worker processes bit-identically.
    """
    from repro.nf import compile_chain, greedy_place
    from repro.traffic import get_scenario, packet_stream, run_fluid

    name, num_flows, chain_packets = args
    scenario = get_scenario(name)
    fluid = run_fluid(scenario, num_flows)
    compiled = compile_chain(TRAFFIC_CHAIN)
    trace = packet_stream(scenario, chain_packets)
    chain, __, verdicts = _execute_chain(compiled, greedy_place(compiled),
                                         trace)
    return TrafficRow.from_run(fluid, scenario=name,
                               chain_packets=chain.packets, **verdicts)


def traffic_sweep(
    scenarios: Optional[Sequence[str]] = None,
    num_flows: int = 100_000,
    chain_packets: int = 4096,
    parallel: Optional[int] = None,
) -> List[TrafficRow]:
    """Every registered traffic scenario at datacenter flow counts.

    Each point drives one scenario end-to-end through the fluid level
    (``num_flows`` flows on the scenario's leaf/spine fabric, the
    escalation boundary active) and through :data:`TRAFFIC_CHAIN` at
    packet level.  Scenario streams live under distinct seed-tree keys
    (``traffic/<name>``), so every point is a pure function of its
    arguments plus the process default seed and ``--parallel`` runs are
    bit-identical to serial ones.
    """
    from repro.traffic import available_scenarios

    names = list(scenarios) if scenarios else list(available_scenarios())
    points = [(name, num_flows, chain_packets) for name in names]
    return _map_points(_traffic_point, points, parallel)


# ---------------------------------------------------------------------------
# NF chain placement sweep (ROADMAP item 4, repro.nf)
# ---------------------------------------------------------------------------

#: The canonical chain of the three shipped NFs.
DEFAULT_CHAIN = "firewall -> telemetry -> aggregate"


@dataclass
class ChainRow:
    """One legal placement of the chain, priced and executed packet-level."""

    placement: Tuple[str, ...]
    per_packet_ns: float
    crossings: int
    forwarded: int
    dropped: int
    consumed: int
    #: Canonical digest of the semantic results (placement excluded);
    #: every row of a sweep must carry the same one.
    fingerprint: str
    #: True on the greedy cost-driven choice.
    chosen: bool = False


def _chain_point(args: Tuple[str, Tuple[str, ...], int, int]) -> ChainRow:
    """One placement of the chain sweep.

    Self-contained: compiles the chain and synthesises the trace from the
    point arguments alone, so placements fan across worker processes and
    the per-placement fingerprints are what serial-vs-parallel identity
    is asserted over.
    """
    from repro.nf import compile_chain, generate_trace

    spec, placement, packets, seed = args
    result, cost, verdicts = _execute_chain(
        compile_chain(spec), placement, generate_trace(packets, seed=seed))
    return ChainRow(
        placement=tuple(placement),
        per_packet_ns=cost.per_packet_s * 1e9,
        crossings=cost.crossings,
        fingerprint=result.fingerprint(),
        **verdicts,
    )


def chains_sweep(
    spec: str = DEFAULT_CHAIN,
    packets: int = 4096,
    seed: Optional[int] = None,
    parallel: Optional[int] = None,
) -> List[ChainRow]:
    """Every legal placement of ``spec``, cheapest first, executed
    packet-level over the same deterministic trace.

    The rows double as the placement-invariance check the figure prints:
    NF semantics live in logical packet-count time, so every placement —
    and a ``--parallel`` fan-out of them — must report one distinct
    result fingerprint.  ``seed`` defaults to the process-wide base seed
    (the harness ``--seed`` flag), falling back to 0.
    """
    from repro.nf import compile_chain, enumerate_placements, greedy_place
    from repro.sim import default_seed

    if seed is None:
        base = default_seed()
        seed = base if isinstance(base, int) else 0
    compiled = compile_chain(spec)
    chosen = greedy_place(compiled)
    options = enumerate_placements(compiled)
    points = [
        (compiled.spec, option.placement, packets, seed)
        for option in options
    ]
    rows = _map_points(_chain_point, points, parallel)
    for row in rows:
        row.chosen = row.placement == chosen
    return rows


# ---------------------------------------------------------------------------
# Profiling slice: a data-plane run that exercises every probe family
# ---------------------------------------------------------------------------


def profile_dataplane_slice(
    blocks: int = 6,
    grads_per_packet: int = 256,
    timeout_ms: float = 2.5,
    detector_threads: int = 8,
) -> Dict[str, float]:
    """A small Figure-14-shaped run for the ``profile`` harness mode.

    Some experiments (Figures 12–13) never touch the packet-level
    testbed, so a profile of them alone would carry no PPE, RMW, or
    block-lifecycle tracks.  This slice guarantees them: one PFE, four
    workers, the straggler detector on, and only three workers sending —
    every block ages out, so the trace shows dispatch, PPE occupancy,
    RMW engine activity, hash scans, block create/complete spans, and
    mitigation instants.
    """
    testbed, __ = _straggler_run(blocks, grads_per_packet, timeout_ms,
                                 detector_threads)
    env = testbed.env
    return {
        "simulated_s": env.now,
        "scheduled_events": float(env.scheduled_events),
        "blocks_mitigated": float(sum(
            len(detector.mitigations)
            for detector in testbed.handle.detectors.values()
        )),
    }
