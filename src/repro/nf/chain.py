"""The NF chain compiler: parse, check feasibility, price, place.

A chain spec is an arrow expression over registered NF names::

    firewall -> telemetry -> aggregate

:func:`compile_chain` resolves each name in the registry and builds the
per-(NF, backend) feasibility matrix against real budgets:

* **Trio** — the NF's Microcode parse front-end must exist in
  :data:`repro.microcode.programs.BUILTIN_PROGRAMS` and pass static
  analysis clean with a bounded worst-case path under the generation's
  LMEM budget (:func:`repro.microcode.analysis.analyze_program`); its
  declared hash entries must fit the hash block, its timer threads the
  hardware-timer budget (jointly, across every Trio-placed NF).
* **PISA** — the NF's register arrays are installed on a scratch
  :class:`repro.pisa.pipeline.PisaPipeline` (one register per stage,
  the one-RMW-per-stage idiom); width, stage-count, and per-stage SRAM
  violations surface as the pipeline's own :class:`PipelineError`.
  Co-located NFs must compose stage-disjointly (``install_many``).
* **Host** — software workers are unconstrained (only slow).

:func:`CompiledChain.placement_costs` prices a placement with the
models in :mod:`repro.nf.cost`; the searches in
:mod:`repro.nf.placement` minimise it.  ``python -m repro.nf.chain``
is the single-chain CLI (compile, report, execute, validate).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.microcode.analysis import analyze_program
from repro.microcode.programs import BUILTIN_PROGRAMS
from repro.nf.base import NF, NFError
from repro.nf.cost import (
    BACKENDS,
    BACKEND_HOST,
    BACKEND_PISA,
    BACKEND_TRIO,
    CROSSING_LATENCY_S,
    CostModel,
    NFCost,
    default_models,
)
from repro.nf.registry import get_nf
from repro.pisa.pipeline import P4Program, PipelineError, PisaPipeline
from repro.sim import Environment
from repro.trio.chipset import GENERATIONS, TrioChipsetConfig

__all__ = [
    "ChainError",
    "CompiledChain",
    "Feasibility",
    "NFP4Program",
    "PlacementCost",
    "compile_chain",
    "main",
    "parse_chain",
]

#: Hash-block entry budget on one PFE (records across all applications).
TRIO_HASH_ENTRIES_BUDGET = 1 << 20


class ChainError(NFError):
    """A chain spec failed to parse, resolve, compile, or place."""


def parse_chain(text: str) -> Tuple[str, ...]:
    """Parse ``"a -> b -> c"`` into NF names (lowercased, in order)."""
    if "->" not in text and not text.strip():
        raise ChainError("empty chain spec")
    names = [part.strip().lower() for part in text.split("->")]
    if any(not name for name in names):
        raise ChainError(
            f"chain spec {text!r} has an empty element; expected "
            "'nf -> nf -> ...'"
        )
    return tuple(names)


@dataclass(frozen=True)
class Feasibility:
    """Verdict for one (NF, backend) cell of the matrix."""

    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class PlacementCost:
    """Modeled cost of one full placement."""

    placement: Tuple[str, ...]
    nf_costs: Tuple[NFCost, ...]
    crossings: int

    @property
    def per_packet_s(self) -> float:
        return (
            sum(cost.per_packet_s for cost in self.nf_costs)
            + self.crossings * CROSSING_LATENCY_S
        )

    @property
    def per_packet_ns(self) -> float:
        return self.per_packet_s * 1e9


class NFP4Program(P4Program):
    """The PISA realisation of one NF's declared state.

    One register array per declared resource, one stage per array
    starting at ``stage_offset`` — the standard one-RMW-per-stage
    layout.  Only the declaration matters here: the chain executor runs
    NF semantics directly, and the pipeline's install-time validation
    is the feasibility check.
    """

    def __init__(self, nf: NF, stage_offset: int = 0):
        super().__init__()
        self.name = f"nf:{nf.name}"
        self.nf = nf
        self.stage_offset = stage_offset

    def on_install(self, pipeline: PisaPipeline) -> None:
        for slot, (name, size, width_bits) in enumerate(self.nf.pisa_registers()):
            self.register(name, self.stage_offset + slot, size, width_bits)


def _scratch_pipeline(num_stages: int) -> PisaPipeline:
    """A throwaway pipeline for install-time validation only."""
    env = Environment(initial_time=0.0, seed=0)
    return PisaPipeline(env, "nf-feasibility", num_stages=num_stages)


@dataclass
class CompiledChain:
    """A resolved, feasibility-checked chain ready for placement."""

    spec: str
    names: Tuple[str, ...]
    nfs: Tuple[NF, ...]
    trio_config: TrioChipsetConfig
    num_pisa_stages: int
    #: (nf name, backend) -> verdict.
    feasibility: Dict[Tuple[str, str], Feasibility]
    #: nf name -> statically analysed parse-instruction bound on Trio.
    parse_bounds: Dict[str, float]
    #: Non-fatal compile diagnostics (``--werror`` promotes these).
    warnings: List[str]
    models: Tuple[CostModel, ...]

    def feasible_backends(self, name: str) -> Tuple[str, ...]:
        """Backends where NF ``name`` is individually feasible."""
        return tuple(
            backend for backend in BACKENDS
            if self.feasibility[(name, backend)].ok
        )

    def validate_placement(self, placement: Sequence[str]) -> List[str]:
        """All reasons ``placement`` is illegal (empty list = legal).

        Covers the per-NF matrix plus the joint constraints: Trio
        hardware timers and hash entries are shared by every Trio-placed
        NF, and PISA-placed NFs must co-install stage-disjointly on one
        pipeline.
        """
        problems: List[str] = []
        if len(placement) != len(self.nfs):
            return [
                f"placement names {len(placement)} backends for "
                f"{len(self.nfs)} NFs"
            ]
        for name, backend in zip(self.names, placement):
            if backend not in BACKENDS:
                problems.append(f"unknown backend {backend!r} for {name!r}")
                continue
            verdict = self.feasibility[(name, backend)]
            if not verdict.ok:
                problems.append(
                    f"{name!r} infeasible on {backend}: {verdict.reason}"
                )
        if problems:
            return problems
        trio_nfs = [
            nf for nf, backend in zip(self.nfs, placement)
            if backend == BACKEND_TRIO
        ]
        timers = sum(nf.timer_threads() for nf in trio_nfs)
        if timers > self.trio_config.num_hw_timers:
            problems.append(
                f"Trio placement needs {timers} timer threads, hardware "
                f"has {self.trio_config.num_hw_timers}"
            )
        entries = sum(nf.hash_entries() for nf in trio_nfs)
        if entries > TRIO_HASH_ENTRIES_BUDGET:
            problems.append(
                f"Trio placement needs {entries} hash entries, budget is "
                f"{TRIO_HASH_ENTRIES_BUDGET}"
            )
        pisa_nfs = [
            nf for nf, backend in zip(self.nfs, placement)
            if backend == BACKEND_PISA
        ]
        if pisa_nfs:
            programs: List[P4Program] = []
            offset = 0
            for nf in pisa_nfs:
                programs.append(NFP4Program(nf, stage_offset=offset))
                offset += len(nf.pisa_registers())
            try:
                _scratch_pipeline(self.num_pisa_stages).install_many(programs)
            except PipelineError as exc:
                problems.append(f"PISA co-installation failed: {exc}")
        return problems

    def placement_costs(self, placement: Sequence[str]) -> PlacementCost:
        """Price a placement (legal or not) with the shipped models."""
        by_backend = {model.backend: model for model in self.models}
        nf_costs: List[NFCost] = []
        for name, nf, backend in zip(self.names, self.nfs, placement):
            model = by_backend[backend]
            nf_costs.append(model.cost(nf, self.parse_bounds.get(name, 0.0)))
        crossings = sum(
            1 for left, right in zip(placement, placement[1:])
            if left != right
        )
        return PlacementCost(
            placement=tuple(placement),
            nf_costs=tuple(nf_costs),
            crossings=crossings,
        )


def _check_trio(nf: NF, config: TrioChipsetConfig,
                warnings: List[str]) -> Tuple[Feasibility, float]:
    """Trio feasibility: Microcode analysis + per-NF hardware budgets."""
    parse_bound = 0.0
    if nf.microcode_program is not None:
        program = BUILTIN_PROGRAMS.get(nf.microcode_program)
        if program is None:
            return Feasibility(
                False,
                f"Microcode program {nf.microcode_program!r} is not in "
                "BUILTIN_PROGRAMS",
            ), 0.0
        try:
            compiled = program.compile()
        except Exception as exc:  # compiler errors carry the reason
            return Feasibility(
                False, f"{nf.microcode_program!r} failed to compile: {exc}"
            ), 0.0
        report = analyze_program(
            compiled, lmem_bytes=config.lmem_bytes,
            filename=f"builtin:{program.name}",
        )
        if not report.clean:
            finding = report.findings[0]
            return Feasibility(
                False,
                f"{nf.microcode_program!r} analysis: {finding.message}",
            ), 0.0
        budget = report.entry_budget()
        if not budget.bounded:
            return Feasibility(
                False,
                f"{nf.microcode_program!r} worst-case path is unbounded",
            ), 0.0
        parse_bound = budget.instructions
    else:
        warnings.append(
            f"NF {nf.name!r} declares no Microcode parse front-end; Trio "
            "cost covers its body charge only"
        )
    if nf.hash_entries() > TRIO_HASH_ENTRIES_BUDGET:
        return Feasibility(
            False,
            f"declares {nf.hash_entries()} hash entries, hash block "
            f"budget is {TRIO_HASH_ENTRIES_BUDGET}",
        ), parse_bound
    if nf.timer_threads() > config.num_hw_timers:
        return Feasibility(
            False,
            f"declares {nf.timer_threads()} timer threads, hardware has "
            f"{config.num_hw_timers}",
        ), parse_bound
    return Feasibility(True), parse_bound


def _check_pisa(nf: NF, num_stages: int) -> Feasibility:
    """PISA feasibility: install the NF's registers on a scratch pipeline."""
    registers = nf.pisa_registers()
    if len(registers) > num_stages:
        return Feasibility(
            False,
            f"needs {len(registers)} stages (one register per stage), "
            f"pipeline has {num_stages}",
        )
    try:
        _scratch_pipeline(num_stages).install(NFP4Program(nf))
    except PipelineError as exc:
        return Feasibility(False, str(exc))
    return Feasibility(True)


def compile_chain(
    spec: str,
    trio_config: Optional[TrioChipsetConfig] = None,
    num_pisa_stages: int = 12,
    models: Optional[Tuple[CostModel, ...]] = None,
) -> CompiledChain:
    """Resolve, feasibility-check, and price a chain spec."""
    names = parse_chain(spec)
    try:
        nfs = tuple(get_nf(name) for name in names)
    except Exception as exc:
        raise ChainError(str(exc)) from None
    config = trio_config if trio_config is not None else GENERATIONS[5]
    warnings: List[str] = []
    feasibility: Dict[Tuple[str, str], Feasibility] = {}
    parse_bounds: Dict[str, float] = {}
    for name, nf in zip(names, nfs):
        trio_verdict, parse_bound = _check_trio(nf, config, warnings)
        feasibility[(name, BACKEND_TRIO)] = trio_verdict
        parse_bounds[name] = parse_bound
        feasibility[(name, BACKEND_PISA)] = _check_pisa(nf, num_pisa_stages)
        feasibility[(name, BACKEND_HOST)] = Feasibility(True)
        if not any(feasibility[(name, backend)].ok for backend in BACKENDS):
            raise ChainError(f"NF {name!r} is feasible on no backend")
    return CompiledChain(
        spec=" -> ".join(names),
        names=names,
        nfs=nfs,
        trio_config=config,
        num_pisa_stages=num_pisa_stages,
        feasibility=feasibility,
        parse_bounds=parse_bounds,
        warnings=warnings,
        models=models if models is not None else default_models(config),
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _render_matrix(compiled: CompiledChain) -> str:
    lines = [f"chain: {compiled.spec}"]
    header = f"  {'nf':<12}" + "".join(f"{b:>10}" for b in BACKENDS)
    lines.append(header)
    for name in compiled.names:
        cells = []
        for backend in BACKENDS:
            verdict = compiled.feasibility[(name, backend)]
            cells.append(f"{'ok' if verdict.ok else 'NO':>10}")
        lines.append(f"  {name:<12}" + "".join(cells))
        for backend in BACKENDS:
            verdict = compiled.feasibility[(name, backend)]
            if not verdict.ok:
                lines.append(f"    {backend}: {verdict.reason}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.nf.exec import generate_trace, run_chain
    from repro.nf.placement import enumerate_placements, greedy_place

    parser = argparse.ArgumentParser(
        prog="python -m repro.nf.chain",
        description="Compile, place, and execute one NF chain.",
    )
    parser.add_argument(
        "spec", nargs="?", default="firewall -> telemetry -> aggregate",
        help="chain spec, e.g. 'firewall -> telemetry -> aggregate'",
    )
    parser.add_argument(
        "--backend", choices=BACKENDS, default=None,
        help="place every NF on this backend",
    )
    parser.add_argument(
        "--placement", default=None,
        help="comma-separated backend per NF, e.g. trio,pisa,host",
    )
    parser.add_argument("--packets", type=int, default=4096,
                        help="trace length (default 4096)")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace seed (default 0)")
    parser.add_argument(
        "--validate-all", action="store_true",
        help="execute every legal placement and require identical results",
    )
    parser.add_argument(
        "--werror", action="store_true",
        help="treat compile warnings as errors (exit 2)",
    )
    args = parser.parse_args(argv)
    if args.packets < 1:
        parser.error("--packets must be >= 1")

    try:
        compiled = compile_chain(args.spec)
    except ChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_render_matrix(compiled))
    for warning in compiled.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if args.werror and compiled.warnings:
        return 2

    if args.placement is not None:
        placement: Tuple[str, ...] = tuple(
            part.strip().lower() for part in args.placement.split(",")
        )
    elif args.backend is not None:
        placement = tuple(args.backend for __ in compiled.nfs)
    else:
        placement = greedy_place(compiled)
    problems = compiled.validate_placement(placement)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    cost = compiled.placement_costs(placement)
    print(f"placement: {','.join(placement)}  "
          f"({cost.per_packet_ns:.1f} ns/packet, "
          f"{cost.crossings} crossing(s))")

    trace = generate_trace(args.packets, seed=args.seed)
    result = run_chain(compiled.spec, compiled.nfs, placement, trace,
                       per_packet_s=cost.per_packet_s)
    forwarded = sum(t[0] for t in result.flow_verdicts.values())
    dropped = sum(t[1] for t in result.flow_verdicts.values())
    consumed = sum(t[2] for t in result.flow_verdicts.values())
    print(f"executed {result.packets} packets: {forwarded} forwarded, "
          f"{dropped} dropped, {consumed} consumed; "
          f"fingerprint {result.fingerprint()[:16]}")

    if args.validate_all:
        legal = enumerate_placements(compiled)
        fingerprints = set()
        for option in legal:
            res = run_chain(compiled.spec, compiled.nfs, option.placement,
                            trace, per_packet_s=option.per_packet_s)
            fingerprints.add(res.fingerprint())
        print(f"validated {len(legal)} legal placements: "
              f"{len(fingerprints)} distinct fingerprint(s)")
        if len(fingerprints) != 1:
            print("error: placements disagree on results", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
