"""The PISA match-action pipeline.

A :class:`PisaPipeline` has a fixed number of stages; each stage owns
register arrays allocated by the installed :class:`P4Program`.  Packets
traverse every stage in order at line rate.  Per-packet register-access
constraints are enforced at run time via :class:`StageContext`: a program
that touches a register array twice in one pass, or touches an array from
the wrong stage, raises :class:`PipelineError` — exactly the class of
restriction that makes rich per-packet processing (and partial/timed
behaviour) so hard on PISA devices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.packet import Packet
from repro.sim import Environment

__all__ = [
    "ComposedProgram",
    "P4Program",
    "PipelineError",
    "PisaPipeline",
    "RegisterArray",
    "StageContext",
]


class PipelineError(Exception):
    """A P4 program violated a PISA architectural constraint."""


class RegisterArray:
    """A stateful register array owned by one stage.

    ``width_bits`` is the element width (Tofino supports up to 64-bit
    pairs; SwitchML uses 32-bit values); ``size`` is the element count.
    """

    def __init__(self, name: str, stage: int, size: int, width_bits: int = 32):
        if width_bits not in (8, 16, 32, 64):
            raise PipelineError(
                f"register {name!r}: unsupported width {width_bits}"
            )
        if size < 1:
            raise PipelineError(f"register {name!r}: size must be >= 1")
        self.name = name
        self.stage = stage
        self.size = size
        self.width_bits = width_bits
        self._mask = (1 << width_bits) - 1
        self._values = [0] * size
        self.accesses = 0

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise PipelineError(
                f"register {self.name!r}: index {index} outside 0..{self.size - 1}"
            )

    def read_raw(self, index: int) -> int:
        """Control-plane read (no per-packet constraint)."""
        self._check_index(index)
        return self._values[index]

    def write_raw(self, index: int, value: int) -> None:
        """Control-plane write (no per-packet constraint)."""
        self._check_index(index)
        self._values[index] = value & self._mask

    @property
    def bits(self) -> int:
        """SRAM footprint of this array."""
        return self.size * self.width_bits


class StageContext:
    """Run-time guard enforcing per-pass stage and register constraints.

    Handed to the P4 program for each packet pass.  The program must call
    :meth:`stage` in non-decreasing order and may access each register
    array at most once per pass, only while in its owning stage.
    """

    #: Register actions one stage can perform on one packet pass
    #: (representative of Tofino's per-stage ALU budget).  SwitchML-64
    #: fits 64 gradients in one pass; SwitchML-256 does not, which is why
    #: it needs all four pipelines (§6.1).
    MAX_ACCESSES_PER_STAGE = 6

    def __init__(self, pipeline: "PisaPipeline"):
        self._pipeline = pipeline
        self._current_stage = 0
        self._touched: Set[str] = set()
        self._stage_accesses = 0

    def stage(self, index: int) -> None:
        """Advance to stage ``index`` (monotonically forward only)."""
        if index < self._current_stage:
            raise PipelineError(
                f"cannot move backwards from stage {self._current_stage} to "
                f"{index}; recirculate instead"
            )
        if index >= self._pipeline.num_stages:
            raise PipelineError(
                f"stage {index} beyond pipeline depth "
                f"{self._pipeline.num_stages}"
            )
        if index != self._current_stage:
            self._stage_accesses = 0
        self._current_stage = index

    def _check(self, reg: RegisterArray) -> None:
        if reg.stage != self._current_stage:
            raise PipelineError(
                f"register {reg.name!r} lives in stage {reg.stage}, accessed "
                f"from stage {self._current_stage}"
            )
        if reg.name in self._touched:
            raise PipelineError(
                f"register {reg.name!r} accessed twice in one pass; PISA "
                "allows one RMW per register per packet"
            )
        if self._stage_accesses >= self.MAX_ACCESSES_PER_STAGE:
            raise PipelineError(
                f"stage {self._current_stage} exceeded its per-pass budget "
                f"of {self.MAX_ACCESSES_PER_STAGE} register actions"
            )
        self._stage_accesses += 1
        self._touched.add(reg.name)

    def read(self, reg: RegisterArray, index: int) -> int:
        """One-shot read of a register element."""
        self._check(reg)
        reg.accesses += 1
        return reg.read_raw(index)

    def write(self, reg: RegisterArray, index: int, value: int) -> None:
        """One-shot write of a register element."""
        self._check(reg)
        reg.accesses += 1
        reg.write_raw(index, value)

    def read_modify_write(
        self, reg: RegisterArray, index: int,
        fn: Callable[[int], int],
    ) -> Tuple[int, int]:
        """Atomic RMW of one element; returns (old, new)."""
        self._check(reg)
        reg.accesses += 1
        old = reg.read_raw(index)
        new = fn(old)
        reg.write_raw(index, new)
        return old, reg.read_raw(index)


@dataclass
class PassResult:
    """Outcome of one pipeline pass."""

    #: Packets to emit (packet, egress port name or None for flood/none).
    emit: List[Tuple[Packet, Optional[str]]] = field(default_factory=list)
    #: Recirculate this packet for another pass.
    recirculate: bool = False
    #: Drop (nothing emitted, no recirculation).
    dropped: bool = False


class P4Program:
    """Base class for programs installed on a PISA pipeline.

    ``process(ctx, packet, pass_index)`` runs once per pipeline pass and
    returns a :class:`PassResult`.  Register arrays are declared through
    :meth:`register` at install time; total per-stage SRAM is checked
    against the stage budget.
    """

    name = "p4-program"

    def __init__(self):
        self.registers: Dict[str, RegisterArray] = {}
        self.pipeline: Optional["PisaPipeline"] = None

    def register(self, name: str, stage: int, size: int,
                 width_bits: int = 32) -> RegisterArray:
        """Declare a register array in ``stage``."""
        if name in self.registers:
            raise PipelineError(f"duplicate register {name!r}")
        reg = RegisterArray(name, stage, size, width_bits)
        self.registers[name] = reg
        return reg

    def on_install(self, pipeline: "PisaPipeline") -> None:
        """Hook for resource declaration; default does nothing."""

    def process(self, ctx: StageContext, packet: Packet,
                pass_index: int) -> PassResult:
        """Process one pass; default drops everything."""
        return PassResult(dropped=True)


class ComposedProgram(P4Program):
    """Several stage-disjoint programs sharing one pipeline.

    Built by :meth:`PisaPipeline.install_many`.  Sub-programs run in
    installation order within the same pass; a sub-program signals
    "continue to the next program" by emitting the original packet (the
    standard forwarding idiom), and the composed program defers that
    emission until the last sub-program has run.  A drop, consume, or
    recirculation by any sub-program ends the pass there — exactly how a
    dropped packet never reaches later stages of a physical pipeline.
    Extra packets (results, clones) are emitted immediately.
    """

    name = "composed"

    def __init__(self, programs: List[P4Program]):
        super().__init__()
        self.programs = list(programs)
        for program in self.programs:
            self.registers.update(program.registers)

    def process(self, ctx: StageContext, packet: Packet,
                pass_index: int) -> PassResult:
        final = PassResult()
        egress: Optional[str] = None
        for program in self.programs:
            result = program.process(ctx, packet, pass_index)
            forwarded = False
            for out_packet, out_egress in result.emit:
                if out_packet is packet:
                    forwarded = True
                    egress = out_egress
                else:
                    final.emit.append((out_packet, out_egress))
            if result.recirculate:
                final.recirculate = True
                return final
            if not forwarded:
                final.dropped = result.dropped
                return final
        final.emit.append((packet, egress))
        return final


class PisaPipeline:
    """One ingress-to-egress pipeline with fixed stages and line-rate flow.

    Timing model: every pass takes ``pass_latency_s`` (parser + stages +
    deparser) and the pipeline admits packets at ``packet_rate_pps``
    (line-rate packet budget shared by fresh and recirculated packets, so
    recirculation halves usable bandwidth, as on real hardware).
    Admission is a FIFO server, settled in closed form like a
    :class:`~repro.net.link.Link` direction: a packet offered at ``now``
    is admitted at ``max(now, free_at) + 1/packet_rate_pps`` and its pass
    runs ``pass_latency_s`` later, one scheduled event per pass.
    """

    #: Per-stage register SRAM budget in bits (representative of Tofino).
    STAGE_SRAM_BITS = 1_280_000

    def __init__(
        self,
        env: Environment,
        name: str,
        num_stages: int = 12,
        pass_latency_s: float = 600e-9,
        packet_rate_pps: float = 1.0e9,
    ):
        # Chained bounds: NaN fails them, where it passes `<= 0`.
        if not 0 < packet_rate_pps < math.inf:
            raise ValueError(f"packet_rate_pps must be positive and finite, "
                             f"got {packet_rate_pps}")
        if not 0 <= pass_latency_s < math.inf:
            raise ValueError(f"pass_latency_s must be non-negative and "
                             f"finite, got {pass_latency_s}")
        self.env = env
        self.name = name
        self.num_stages = num_stages
        self.pass_latency_s = pass_latency_s
        self.packet_rate_pps = packet_rate_pps
        self.program: Optional[P4Program] = None
        self._emit_handler: Optional[Callable[[Packet, Optional[str]], None]] = None
        #: When the packets already offered have all been admitted.
        self._free_at = env.now
        self.passes = 0
        self.recirculations = 0
        self.drops = 0

    def _validate_registers(self, registers: List[RegisterArray]) -> None:
        """Check stage range and per-stage SRAM for a register set."""
        per_stage_bits: Dict[int, int] = {}
        for reg in registers:
            if not 0 <= reg.stage < self.num_stages:
                raise PipelineError(
                    f"register {reg.name!r} placed in stage {reg.stage}, "
                    f"pipeline has {self.num_stages} stages"
                )
            per_stage_bits[reg.stage] = per_stage_bits.get(reg.stage, 0) + reg.bits
        for stage, bits in sorted(per_stage_bits.items()):
            if bits > self.STAGE_SRAM_BITS:
                raise PipelineError(
                    f"stage {stage} needs {bits} register bits, budget is "
                    f"{self.STAGE_SRAM_BITS}"
                )

    def install(self, program: P4Program) -> P4Program:
        """Install a program, validating its register placement."""
        program.pipeline = self
        program.on_install(self)
        self._validate_registers(list(program.registers.values()))
        self.program = program
        return program

    def install_many(self, programs: List[P4Program]) -> ComposedProgram:
        """Install several programs side by side (stage-disjoint).

        Multi-tenancy on one pipeline: each program keeps its own
        registers, but no stage may be shared between two programs and
        no register name may collide — both raise :class:`PipelineError`
        naming the offending programs, as does blowing a stage's SRAM
        budget.  Returns the :class:`ComposedProgram` that now owns the
        pass loop.
        """
        if not programs:
            raise PipelineError("install_many needs at least one program")
        owner_by_register: Dict[str, str] = {}
        owner_by_stage: Dict[int, str] = {}
        for program in programs:
            program.pipeline = self
            program.on_install(self)
            for reg in program.registers.values():
                if reg.name in owner_by_register:
                    raise PipelineError(
                        f"register {reg.name!r} declared by both "
                        f"{owner_by_register[reg.name]!r} and "
                        f"{program.name!r}"
                    )
                owner_by_register[reg.name] = program.name
                stage_owner = owner_by_stage.get(reg.stage)
                if stage_owner is not None and stage_owner != program.name:
                    raise PipelineError(
                        f"stage {reg.stage} used by both {stage_owner!r} "
                        f"and {program.name!r}; composed programs must be "
                        "stage-disjoint"
                    )
                owner_by_stage[reg.stage] = program.name
        self._validate_registers(
            [reg for program in programs
             for reg in program.registers.values()]
        )
        composed = ComposedProgram(programs)
        composed.pipeline = self
        self.program = composed
        return composed

    def set_emit_handler(
        self, handler: Callable[[Packet, Optional[str]], None]
    ) -> None:
        """Install the function that receives emitted packets."""
        self._emit_handler = handler

    def submit(self, packet: Packet) -> None:
        """Offer a fresh packet to the pipeline (from a port or another
        pipeline)."""
        self._admit(packet, 0)

    def _admit(self, packet: Packet, pass_index: int) -> None:
        """Queue a pass behind the packets already offered (fresh or
        recirculated) and schedule its body."""
        now = self.env.now
        free_at = self._free_at
        # Line-rate admission: one packet per 1/pps.
        admitted = ((free_at if free_at > now else now)
                    + 1.0 / self.packet_rate_pps)
        self._free_at = admitted
        self.env.call_at(admitted + self.pass_latency_s, self._run_pass,
                         packet, pass_index)

    def _run_pass(self, packet: Packet, pass_index: int) -> None:
        self.passes += 1
        if self.program is None:
            self.drops += 1
            return
        ctx = StageContext(self)
        result = self.program.process(ctx, packet, pass_index)
        for out_packet, egress in result.emit:
            if self._emit_handler is not None:
                self._emit_handler(out_packet, egress)
        if result.recirculate:
            self.recirculations += 1
            self._admit(packet, pass_index + 1)
        elif result.dropped:
            self.drops += 1
