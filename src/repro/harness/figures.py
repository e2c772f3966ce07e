"""The experiment table: every table and figure the harness prints.

Each :class:`Sweep` entry holds a driver, the keyword arguments of its
``--fast`` run (a full run is the driver's defaults), and the title and
columns its result prints as.  Adding an experiment to the harness means
adding one entry to :data:`EXPERIMENTS`.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro.collectives import get_backend
from repro.collectives.calibrate import calibrate, render_calibration
from repro.harness import charts
from repro.harness import experiments as exp

__all__ = ["Column", "EXPERIMENTS", "SWEEPS", "Sweep"]

#: The alignment and width at the head of a format spec.
_ALIGN_WIDTH = re.compile(r"[<>^]?(\d*)")


@dataclass(frozen=True)
class Column:
    """One column: its header, the format spec of its cells, and the
    function reading a cell's value from a row.  The header takes the
    spec's alignment and width."""

    header: str
    spec: str
    value: Callable[[Any], Any]

    @property
    def width(self) -> int:
        return int(_ALIGN_WIDTH.match(self.spec).group(1) or 0)

    def head(self) -> str:
        return format(self.header, _ALIGN_WIDTH.match(self.spec).group())

    def cell(self, row: Any) -> str:
        return format(self.value(row), self.spec)


@dataclass(frozen=True, eq=False)
class Sweep:
    """One experiment's driver and the table it prints: ``title``
    (formatted with the driver's arguments), a rule at least ``rule``
    wide, the headers (unless all empty), and one line per row.  A
    grouped driver returns ``{key: rows}``, printed group by group under
    ``group_label``; ``footer`` adds a rule and a summary line."""

    driver: Callable[..., Any]
    title: str = ""
    #: The columns, or a function building them from the rows.
    columns: Union[Sequence[Column], Callable[[list], Sequence[Column]]] = ()
    #: Keyword arguments of the ``--fast`` run.
    fast: Dict[str, Any] = field(default_factory=dict)
    #: The rows of a result (of each group's result, when grouped).
    rows: Callable[[Any], Sequence] = list
    group: str = ""
    group_label: str = "[{}]"
    rule: int = 72
    footer: Optional[Callable[[Sequence], str]] = None
    #: ``chart(result, key)``: the ASCII chart of one group (``--chart``).
    chart: Optional[Callable[[Any, Any], str]] = None
    #: A report the driver's own module renders, in place of the table.
    report: Optional[Callable[[Any], str]] = None

    def run(self, fast: bool = False, chart: bool = False,
            parallel: Optional[int] = None) -> str:
        """Run the driver at full or ``--fast`` size and render it."""
        kwargs = dict(self.fast) if fast else {}
        if "parallel" in inspect.signature(self.driver).parameters:
            kwargs["parallel"] = parallel
        result = self.driver(**kwargs)
        rendered = self.render(result, **kwargs)
        if chart and self.chart is not None:
            rendered += "\n\n" + "\n\n".join(
                self.chart(result, key) for key in result)
        return rendered

    def render(self, result: Any, **kwargs: Any) -> str:
        """The table of ``result``, returned by ``driver(**kwargs)``."""
        if self.report is not None:
            return self.report(result)
        bound = inspect.signature(self.driver).bind(**kwargs)
        bound.apply_defaults()
        groups = [(key, self.rows(rows)) for key, rows in self._groups(result)]
        every = [row for __, rows in groups for row in rows]
        columns = (self.columns(every) if callable(self.columns)
                   else self.columns)
        rule = "-" * max(self.rule, sum(column.width for column in columns))
        lines = [self.title.format(**bound.arguments), rule]
        for key, rows in groups:
            if self.group:
                lines.append(self.group_label.format(key))
            if any(column.header for column in columns):
                lines.append("".join(column.head() for column in columns))
            lines += ["".join(column.cell(row) for column in columns)
                      for row in rows]
        if self.footer is not None:
            lines += [rule, self.footer(every)]
        return "\n".join(lines)

    def to_csv(self, result: Any) -> str:
        """``result`` as CSV with one column per row dataclass field,
        led by the group key column for a grouped sweep."""
        keyed = [((key,) if self.group else (), row)
                 for key, rows in self._groups(result)
                 for row in self.rows(rows)]
        names = [f.name for f in dataclasses.fields(keyed[0][1])]
        header = ((self.group,) if self.group else ()) + tuple(names)
        lines = [",".join(header)]
        for key, row in keyed:
            cells = key + tuple(getattr(row, name) for name in names)
            lines.append(",".join(str(cell) for cell in cells))
        return "\n".join(lines) + "\n"

    def _groups(self, result: Any) -> Sequence[Tuple[Any, Any]]:
        return list(result.items()) if self.group else [(None, result)]


def _percent(attr: str, digits: int) -> Callable[[Any], str]:
    """A cell showing the fraction ``row.<attr>`` as a percentage."""
    return lambda row: f"{getattr(row, attr) * 100:.{digits}f}%"


def _fluid_columns(flows_width: int) -> list:
    """The flow count and FCT/goodput columns of a fluid-level run."""
    return [
        Column("Flows", f">{flows_width}", attrgetter("flows")),
        Column("Mean FCT (ms)", ">15.3f", attrgetter("mean_fct_ms")),
        Column("p99 (ms)", ">10.2f", attrgetter("p99_fct_ms")),
        Column("Goodput (Gbps)", ">16.2f", attrgetter("mean_goodput_gbps")),
    ]


def _escalation_detail(row: exp.FluidRow) -> str:
    detail = ", ".join(f"{reason} {count}"
                       for reason, count in row.escalations.items())
    return f"  ({detail})" if detail else ""


def _backend_columns(rows: Sequence[exp.BackendSweepRow]) -> list:
    """The probability, then one column per swept backend."""
    systems = list(rows[0].iteration_ms) if rows else []
    names = [get_backend(system).display_name for system in systems]
    width = max([14] + [len(name) + 2 for name in names])
    return [Column("p", ">6", _percent("probability", 0))] + [
        Column(name, f">{width}.1f",
               lambda row, system=system: row.iteration_ms[system])
        for system, name in zip(systems, names)
    ]


def _analysis_rows(a: exp.ProgramAnalysis) -> list:
    # The "~" of the approximate static size hangs left of the values.
    return [
        ("static program size:", f"~{a.static_instructions} instructions"),
        ("aggregation loop efficiency:",
         f" {a.loop_instructions_per_gradient:.2f} instructions/gradient"),
        ("measured (incl. overheads):",
         f" {a.measured_instructions_per_gradient:.2f} "
         "instructions/gradient"),
        ("read-modify-write engines:",
         f" {a.rmw_engines} ({a.rmw_add_cycles} cycles/add)"),
        ("aggregate add rate:",
         f" {a.rmw_add_rate_ops_per_s / 1e9:.1f} Gops/s per PFE"),
    ]


def _ablation(driver: Callable[..., Any], title: str,
              **fast: Any) -> Sweep:
    return Sweep(driver, title, [
        Column("", "<46", attrgetter("label")),
        Column("", ">14.2f", attrgetter("value")),
        Column("", "", lambda row: f" {row.unit}"),
    ], fast=fast)


def _chain_footer(rows: Sequence[exp.ChainRow]) -> str:
    distinct = len({row.fingerprint for row in rows})
    return (f"{len(rows)} legal placement(s), {distinct} distinct result "
            "fingerprint(s); * = greedy cost-driven choice")


def _traffic_footer(rows: Sequence[exp.TrafficRow]) -> str:
    flows = sum(row.flows for row in rows)
    gbytes = sum(row.simulated_gbytes for row in rows)
    return (f"{len(rows)} scenario(s), {flows} flows, "
            f"{gbytes:.2f} GB simulated payload")


#: Every experiment the CLI runs, in ``list`` order; an entry holding
#: several sweeps prints their tables one after another.
EXPERIMENTS: Dict[str, Tuple[Sweep, ...]] = {
    "table1": (Sweep(
        exp.table1_models, "Table 1: DNN models used in the experiments", [
            Column("Model", "<14", itemgetter("model")),
            # The cell is one character wider than its header.
            Column("Size", ">8", lambda row: f"{row['size_mb']:>6} MB"),
            Column("Batch size/GPU", ">18",
                   itemgetter("batch_size_per_gpu")),
            Column("Dataset", ">12", itemgetter("dataset")),
        ]),),
    "fig12": (Sweep(
        exp.fig12_time_to_accuracy,
        "Figure 12: time-to-accuracy at straggling probability "
        "p={straggle_probability:.0%}", [
            Column("", "<14", attrgetter("model")),
            Column("", "", lambda row: (
                f" target {row.target_accuracy:.0f}% top-5: "
                f"Trio-ML {row.trioml_minutes:7.1f} min | "
                f"SwitchML {row.switchml_minutes:7.1f} min | "
                f"speedup {row.speedup:.2f}x")),
        ], rows=dict.values),),
    "fig13": (Sweep(
        exp.fig13_iteration_time,
        "Figure 13: training iteration time vs straggling probability", [
            Column("p", ">6", _percent("probability", 0)),
            Column("Ideal (ms)", ">14.1f", attrgetter("ideal_ms")),
            Column("Trio-ML (ms)", ">14.1f", attrgetter("trioml_ms")),
            Column("SwitchML (ms)", ">15.1f", attrgetter("switchml_ms")),
            Column("speedup", ">10", lambda row: f"{row.speedup:.2f}x"),
        ], group="model", chart=charts.fig13_chart),),
    "fig14": (Sweep(
        exp.fig14_mitigation,
        "Figure 14: in-network timer threads' efficiency", [
            Column("Timeout (ms)", ">14.1f", attrgetter("timeout_ms")),
            Column("Mean mitigation (ms)", ">22.2f",
                   attrgetter("mean_mitigation_ms")),
            Column("Max (ms)", ">10.2f", attrgetter("max_mitigation_ms")),
            Column("Blocks", ">8", attrgetter("blocks_mitigated")),
        ], fast={"blocks": 8}),),
    "fig15": (Sweep(
        exp.fig15_latency_rate,
        "Figure 15: per-PFE aggregation latency and rate (window=1)", [
            Column("Grads/packet", ">13", attrgetter("grads_per_packet")),
            Column("Latency (us)", ">14.2f", attrgetter("latency_us")),
            Column("Rate (grad/us)", ">16.2f",
                   attrgetter("rate_grads_per_us")),
        ], fast={"blocks": 20}),),
    "fig16": (Sweep(
        exp.fig16_window_sweep,
        "Figure 16: impact of window size on latency and throughput", [
            Column("Window", ">8", attrgetter("window")),
            Column("Latency (us)", ">14.1f", attrgetter("latency_us")),
            Column("Throughput (Gbps)", ">19.2f",
                   attrgetter("throughput_gbps")),
        ], fast={"windows": (1, 4, 16, 64, 256)}, group="grads_per_packet",
        group_label="[Trio-ML-{}]", chart=charts.fig16_chart),),
    "backends": (Sweep(
        exp.backend_sweep,
        "Backend sweep: iteration time (ms) vs straggling probability "
        "[{model}]", _backend_columns),),
    "hybrid": (Sweep(
        exp.hybrid_sweep,
        "Hybrid flow/packet simulation: FCT and escalations vs offered "
        "load", [
            Column("Load", ">6", _percent("load", 0)),
            *_fluid_columns(7),
            Column("Sim (GB)", ">10.2f", attrgetter("simulated_gbytes")),
            Column("Solves", ">8", attrgetter("solves")),
            Column("Escalated", ">11", attrgetter("escalated_total")),
            Column("", "", _escalation_detail),
        ], fast={"num_flows": 500}, rule=88),),
    "chains": (Sweep(
        exp.chains_sweep, "NF chain placement sweep: {spec}", [
            Column("Placement", "<26", lambda row: (
                ("*" if row.chosen else " ") + ",".join(row.placement))),
            Column("ns/pkt", ">10.1f", attrgetter("per_packet_ns")),
            Column("Mpps", ">8.2f", lambda row: (
                1e3 / row.per_packet_ns if row.per_packet_ns > 0 else 0.0)),
            Column("Cross", ">7", attrgetter("crossings")),
            Column("Fwd", ">8", attrgetter("forwarded")),
            Column("Drop", ">8", attrgetter("dropped")),
            Column("Consume", ">9", attrgetter("consumed")),
            Column("Fingerprint", ">14", lambda row: row.fingerprint[:12]),
        ], fast={"packets": 1024}, footer=_chain_footer),),
    "traffic": (Sweep(
        exp.traffic_sweep,
        "Traffic scenario sweep (fluid level + packet level vs "
        f"{exp.TRAFFIC_CHAIN})", [
            Column("Scenario", "<14", attrgetter("scenario")),
            *_fluid_columns(8),
            Column("Escalated", ">11", attrgetter("escalated_total")),
            Column("Pkts", ">7", attrgetter("chain_packets")),
            Column("Drop%", ">7", _percent("drop_fraction", 1)),
            Column("", "", _escalation_detail),
        ], fast={"num_flows": 5_000, "chain_packets": 2048}, rule=100,
        footer=_traffic_footer),),
    "calibrate": (Sweep(calibrate, report=render_calibration),),
    "analysis": (Sweep(
        exp.microcode_program_analysis,
        "Section 6.3: Trio-ML Microcode program analysis", [
            Column("", "<31", itemgetter(0)),
            Column("", "", itemgetter(1)),
        ], rows=_analysis_rows),),
    "ablations": (
        _ablation(exp.ablation_rmw_offload,
                  "Ablation: RMW engine offload vs thread-ownership "
                  "locking (§2.3)", num_threads=16, updates_per_thread=8),
        _ablation(exp.ablation_scan_threads,
                  "Ablation: parallel timer-thread table scanning (§5)",
                  num_records=2_000),
        _ablation(exp.ablation_hierarchy,
                  "Ablation: single-level vs hierarchical aggregation (§4)",
                  blocks=64, window=32),
        _ablation(exp.ablation_tail_chunk,
                  "Ablation: tail-read chunk size (Figure 10 loop)",
                  blocks=8),
    ),
    "generations": (Sweep(
        exp.generation_scaling,
        "Supplementary: the same aggregation job across Trio generations", [
            Column("Gen", ">4", attrgetter("generation")),
            Column("Year", ">6", attrgetter("year")),
            Column("PPEs", ">6", attrgetter("num_ppes")),
            Column("RMW engines", ">13", attrgetter("rmw_engines")),
            Column("Completion (ms)", ">17.3f", attrgetter("completion_ms")),
            Column("Throughput (Gbps)", ">19.2f",
                   attrgetter("throughput_gbps")),
        ], fast={"blocks": 32}),),
    "loss": (Sweep(
        exp.loss_recovery_sweep,
        "Supplementary: allreduce under packet loss with §7 resiliency", [
            Column("Loss rate", ">10", _percent("loss_rate", 1)),
            Column("Completion (ms)", ">17.3f", attrgetter("completion_ms")),
            Column("Frames lost", ">13", attrgetter("frames_lost")),
            Column("Retransmits", ">13", attrgetter("retransmissions")),
            Column("Replays", ">9", attrgetter("results_replayed")),
        ], fast={"blocks": 16}),),
}

#: Every sweep by its driver: how callers outside the CLI render a
#: driver's result (``SWEEPS[exp.fig13_iteration_time].render(result)``).
SWEEPS: Dict[Callable[..., Any], Sweep] = {
    sweep.driver: sweep for sweeps in EXPERIMENTS.values() for sweep in sweeps
}
