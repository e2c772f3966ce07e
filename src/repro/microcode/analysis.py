"""Static analysis of compiled Microcode programs.

The Trio Compiler's per-instruction budget check (§3.1) guarantees each
instruction fits the hardware, but says nothing about the *program*:
run-to-completion PPE threads (§2.2) additionally require that control
flow terminates and that every pointer access stays inside the thread's
local memory.  Until now those properties were only enforced at runtime
(the ``MAX_EXECUTED_INSTRUCTIONS`` valve in :mod:`repro.microcode.interp`
and bit-range checks in :mod:`repro.microcode.layout`), so a bad program
failed mid-simulation instead of at compile time.

:func:`analyze_program` builds a control-flow graph over the compiled
instructions — one node per ``InstructionDef``, edges from ``goto``,
``switch`` arms, fall-through, and ``call`` — and runs four passes:

* **Termination** — instructions from which *no* path reaches an exit
  (``exit``, fall-off-end, or a transfer to an extern label) form a goto
  cycle not broken by any conditional: ``MC201``.  For terminating
  programs the pass computes a worst-case executed-instruction bound per
  entry label and cross-checks it against ``MAX_EXECUTED_INSTRUCTIONS``
  (``MC202``); data-dependent loops that are statically unbounded but
  can terminate get ``MC203``, recursive ``call`` chains ``MC204``.
* **Def-use** — registers read on some path before any write (``MC101``),
  writes that are re-written before any read or escape (``MC102``),
  instructions unreachable from the entry (``MC103``), and statements
  unreachable inside a body (``MC104``).  Transfers to extern labels and
  ``exit`` treat every register as live-out: the surrounding codebase
  (Figure 4) owns the register file afterwards.
* **Pointer/layout safety** — ``ptr`` bindings and typed local-const
  pointers whose extent leaves thread-local memory (``MC301``), field
  accesses beyond local memory (``MC302``), and accesses to fields the
  struct layout does not define (``MC303``).
* **Shared-state atomicity (MC4xx)** — classifies every intrinsic
  memory access (:data:`repro.microcode.intrinsics.SHARED_INTRINSICS`)
  as thread-local (LMEM) vs shared (DMEM / counter space) and walks the
  paths from the entry: a plain load whose value flows into a plain
  store of an overlapping shared location is a lost-update race
  (``MC401`` — hundreds of PPE threads run this code unsynchronized,
  §2.3); a plain read and plain write of overlapping extents on one
  path without an intervening RMW barrier is a torn access (``MC402``);
  an RMW op whose address provably resolves to thread-local memory is
  needless serialization at the RMW engines (``MC403``, a perf note).
* **Budget accounting** — aggregates each instruction's
  :class:`~repro.microcode.compiler.InstructionBudget` along worst-case
  CFG paths, reporting the peak register/local-memory operand traffic a
  single packet can generate from each entry label.

Diagnostic codes
----------------

==========  =========  ====================================================
code        severity   meaning
==========  =========  ====================================================
``MC101``   error      register may be read before any write
``MC102``   warning    dead register write (overwritten before read/escape)
``MC103``   warning    instruction unreachable from the entry label
``MC104``   warning    statement unreachable inside an instruction body
``MC201``   error      goto cycle with no exit path (guaranteed divergence)
``MC202``   error      worst-case bound exceeds MAX_EXECUTED_INSTRUCTIONS
``MC203``   warning    loop statically unbounded (broken only by data)
``MC204``   warning    recursive subroutine call chain
``MC301``   error      pointer binding extends beyond local memory
``MC302``   error      field access extends beyond local memory
``MC303``   error      field not defined by the pointer's struct layout
``MC401``   error      shared load→modify→store not routed through an RMW
                       op (lost-update race)
``MC402``   error      shared read+write of overlapping extents on one
                       path with no RMW barrier (torn access)
``MC403``   warning    RMW op on a provably thread-local location
                       (needless serialization)
==========  =========  ====================================================

Run it from the command line with rustc-style output::

    python -m repro.microcode.analysis prog.mc --extern forward_packet
    python -m repro.microcode.analysis --builtins   # CI gate over programs.py
"""

from __future__ import annotations

import argparse
import operator
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.microcode import ast_nodes as ast
from repro.microcode.compiler import (
    BUILTIN_NAMESPACES,
    CompiledProgram,
    const_value,
)
from repro.microcode.errors import (
    Diagnostic,
    MicrocodeError,
    SourceSpan,
    render_diagnostics,
)
from repro.microcode.intrinsics import SHARED_INTRINSICS, IntrinsicSpec
from repro.microcode.layout import StructLayout

__all__ = [
    "AnalysisReport",
    "CFGNode",
    "PathBudget",
    "analyze_program",
    "main",
]

#: Default thread-local memory size, matching TrioConfig.lmem_bytes
#: (1.25 KB, §2.2).  Kept as a literal so the microcode package stays
#: independent of the chipset model; pass ``lmem_bytes=`` to override.
DEFAULT_LMEM_BYTES = 1280

_INF = float("inf")


# ---------------------------------------------------------------------------
# Control-flow graph
# ---------------------------------------------------------------------------


@dataclass
class CFGNode:
    """Per-instruction control-flow summary.

    ``successors`` maps each possible ``goto`` target (internal or
    extern) to the statement that transfers there; ``calls`` lists
    subroutine targets; ``may_exit`` is True when some path through the
    body ends in ``exit``, fall-off-end, or ``return``.
    """

    name: str
    instr: ast.InstructionDef
    successors: Dict[str, ast.Goto] = field(default_factory=dict)
    calls: List[ast.CallSub] = field(default_factory=list)
    may_exit: bool = False


def _arms(stmt: object) -> List[Sequence[object]]:
    """The alternative bodies a statement runs next: the arms of an
    ``if`` or ``switch``, where an empty arm stands for falling through
    (no ``else``, or no ``default`` arm matching the selector), or the
    one empty arm of a straight-line statement."""
    if isinstance(stmt, ast.If):
        return [stmt.then_body, stmt.else_body]
    if isinstance(stmt, ast.Switch):
        arms: List[Sequence[object]] = [case.body for case in stmt.cases]
        if all(case.values is not None for case in stmt.cases):
            arms.append(())
        return arms
    return [()]


class _BodyWalker:
    """Extracts successors/calls and flags unreachable statements."""

    def __init__(self, node: CFGNode, diagnostics: List[Diagnostic],
                 filename: str):
        self.node = node
        self.diagnostics = diagnostics
        self.filename = filename

    def walk(self, body: Sequence[object]) -> bool:
        """Process a statement sequence; returns True when the sequence
        may complete normally (fall through to whatever follows)."""
        completes = True
        for index, stmt in enumerate(body):
            if not completes:
                self.diagnostics.append(Diagnostic(
                    "warning", "MC104",
                    f"statement unreachable in instruction "
                    f"{self.node.name!r}: every prior path has already "
                    "transferred control",
                    _span(stmt, self.filename),
                ))
                break
            completes = self.walk_stmt(stmt)
        return completes

    def walk_stmt(self, stmt: object) -> bool:
        node = self.node
        if isinstance(stmt, ast.Goto):
            node.successors.setdefault(stmt.label, stmt)
            return False
        if isinstance(stmt, ast.ExitStmt):
            node.may_exit = True
            return False
        if isinstance(stmt, ast.ReturnStmt):
            # Ends the enclosing subroutine; from the caller's point of
            # view the instruction chain terminated normally.
            node.may_exit = True
            return False
        if isinstance(stmt, ast.CallSub):
            node.calls.append(stmt)
            return True
        # A straight-line statement completes; a branch completes when
        # any of its arms does (each arm is walked for its diagnostics).
        return any([self.walk(arm) for arm in _arms(stmt)])


def _span(stmt: object, filename: str) -> Optional[SourceSpan]:
    line = getattr(stmt, "line", 0)
    return SourceSpan(line, filename=filename) if line else None


def build_cfg(program: CompiledProgram, diagnostics: List[Diagnostic],
              filename: str) -> Dict[str, CFGNode]:
    """One CFG node per instruction, with goto/call edges extracted."""
    cfg: Dict[str, CFGNode] = {}
    for name, instr in program.instructions.items():
        node = CFGNode(name=name, instr=instr)
        completes = _BodyWalker(node, diagnostics, filename).walk(instr.body)
        if completes:
            node.may_exit = True  # fall off the end: thread terminates
        cfg[name] = node
    return cfg


# ---------------------------------------------------------------------------
# Termination and worst-case bounds
# ---------------------------------------------------------------------------


def _terminating_labels(cfg: Dict[str, CFGNode],
                        extern: Set[str]) -> Set[str]:
    """Labels from which at least one path reaches an exit.

    Computed as a least fixpoint: a node terminates if its body may
    exit, it can transfer to an extern label, or it can transfer to a
    terminating node.
    """
    terminating: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, node in cfg.items():
            if name in terminating:
                continue
            if node.may_exit or any(
                succ in extern or succ in terminating
                for succ in node.successors
            ):
                terminating.add(name)
                changed = True
    return terminating


def _reachable_from(cfg: Dict[str, CFGNode], entry: str) -> Set[str]:
    seen: Set[str] = set()
    stack = [entry]
    while stack:
        label = stack.pop()
        if label in seen or label not in cfg:
            continue
        seen.add(label)
        node = cfg[label]
        stack.extend(node.successors)
        stack.extend(call.label for call in node.calls)
    return seen


@dataclass
class PathBudget:
    """Worst-case operand traffic along any path from an entry label.

    ``instructions`` is the worst-case executed-instruction bound (the
    static analogue of the interpreter's runtime valve); all fields are
    ``inf`` when a data-dependent loop makes the path length unbounded.
    """

    instructions: float = 0.0
    reg_reads: float = 0.0
    mem_reads: float = 0.0
    reg_writes: float = 0.0
    mem_writes: float = 0.0

    @classmethod
    def unbounded(cls) -> "PathBudget":
        return cls(_INF, _INF, _INF, _INF, _INF)

    # vars() lists the fields in declaration order, without astuple's
    # deep copy.
    def __add__(self, other: "PathBudget") -> "PathBudget":
        """Both paths, one after the other."""
        return PathBudget(*map(operator.add, vars(self).values(),
                               vars(other).values()))

    def peak(self, other: "PathBudget") -> "PathBudget":
        """The worse of two alternative paths, field by field."""
        return PathBudget(*map(max, vars(self).values(),
                               vars(other).values()))

    @property
    def bounded(self) -> bool:
        return self.instructions != _INF

    def describe(self) -> str:
        def fmt(value: float) -> str:
            return "unbounded" if value == _INF else str(int(value))

        return (f"worst case: {fmt(self.instructions)} instructions, "
                f"reads {fmt(self.reg_reads)} reg / {fmt(self.mem_reads)} "
                f"mem, writes {fmt(self.reg_writes)} reg / "
                f"{fmt(self.mem_writes)} mem")


class _BoundSolver:
    """Memoized longest-path solver over the (possibly cyclic) CFG.

    Cycles yield ``inf``; subroutine calls add the callee's bound (every
    call in a body is charged — a sound upper bound even when the calls
    are on exclusive branches).
    """

    def __init__(self, program: CompiledProgram, cfg: Dict[str, CFGNode],
                 diagnostics: List[Diagnostic], filename: str):
        self.program = program
        self.cfg = cfg
        self.diagnostics = diagnostics
        self.filename = filename
        self.extern = set(program.extern_labels)
        self._memo: Dict[str, PathBudget] = {}
        self._visiting: Set[str] = set()
        self._reported_recursion: Set[str] = set()

    def bound(self, label: str) -> PathBudget:
        if label in self.extern or label not in self.cfg:
            return PathBudget()
        if label in self._memo:
            return self._memo[label]
        if label in self._visiting:
            return PathBudget.unbounded()
        self._visiting.add(label)
        node = self.cfg[label]
        budget = self.program.budgets.get(label)

        result = PathBudget(1.0, *map(float, vars(budget).values())) \
            if budget else PathBudget(1.0)
        for call in node.calls:
            if call.label in self._visiting:
                if call.label not in self._reported_recursion:
                    self._reported_recursion.add(call.label)
                    self.diagnostics.append(Diagnostic(
                        "warning", "MC204",
                        f"recursive subroutine call chain through "
                        f"{call.label!r}; the PPE call stack nests at "
                        "most 8 levels (§2.2)",
                        _span(call, self.filename),
                    ))
                sub = PathBudget.unbounded()
            else:
                sub = self.bound(call.label)
            result = result + sub

        best = PathBudget()  # exit / fall-through path costs nothing more
        for succ in node.successors:
            if succ not in self.extern:
                best = best.peak(self.bound(succ))
        result = result + best

        self._visiting.discard(label)
        self._memo[label] = result
        return result


def _check_termination(
    program: CompiledProgram,
    cfg: Dict[str, CFGNode],
    reachable: Set[str],
    diagnostics: List[Diagnostic],
    filename: str,
    max_instructions: int,
) -> Dict[str, PathBudget]:
    extern = set(program.extern_labels)
    terminating = _terminating_labels(cfg, extern)

    # Guaranteed divergence: reachable nodes with no path to an exit.
    # Report each connected trap region once, anchored at its first goto.
    doomed = sorted(
        (reachable & set(cfg)) - terminating,
        key=lambda name: cfg[name].instr.line,
    )
    reported: Set[str] = set()
    for name in doomed:
        if name in reported:
            continue
        region = {
            label for label in _reachable_from(cfg, name)
            if label in cfg and label not in terminating
        }
        reported |= region
        node = cfg[name]
        anchor: object = node.instr
        for succ, goto in node.successors.items():
            if succ in region:
                anchor = goto
                break
        cycle = " -> ".join(sorted(region, key=lambda n: cfg[n].instr.line))
        diagnostics.append(Diagnostic(
            "error", "MC201",
            f"instructions form a goto cycle with no exit path: {cycle}",
            _span(anchor, filename),
            notes=["every path loops forever; the runtime valve "
                   f"(MAX_EXECUTED_INSTRUCTIONS={max_instructions}) would "
                   "kill the thread mid-simulation"],
        ))

    solver = _BoundSolver(program, cfg, diagnostics, filename)
    bounds = {label: solver.bound(label) for label in cfg}

    entry_bound = bounds.get(program.entry)
    if entry_bound is not None:
        if not entry_bound.bounded:
            if program.entry in terminating and not doomed:
                diagnostics.append(Diagnostic(
                    "warning", "MC203",
                    f"entry {program.entry!r} sits on a loop broken only "
                    "by a data-dependent conditional: the executed-"
                    "instruction count is statically unbounded",
                    _span(cfg[program.entry].instr, filename),
                    notes=["the interpreter enforces "
                           f"MAX_EXECUTED_INSTRUCTIONS={max_instructions} "
                           "at runtime"],
                ))
        elif entry_bound.instructions > max_instructions:
            diagnostics.append(Diagnostic(
                "error", "MC202",
                f"worst-case bound from entry {program.entry!r} is "
                f"{int(entry_bound.instructions)} executed instructions, "
                f"above MAX_EXECUTED_INSTRUCTIONS={max_instructions}",
                _span(cfg[program.entry].instr, filename),
            ))
    return bounds


# ---------------------------------------------------------------------------
# Def-use analysis
# ---------------------------------------------------------------------------


def _operands(stmt: object) -> List[object]:
    """The expressions ``stmt`` itself evaluates, in order: an
    assignment's value then its target, an intrinsic's arguments, an
    ``if`` condition or a ``switch`` selector (never a nested body)."""
    if isinstance(stmt, ast.Assign):
        return [stmt.expr, stmt.target]
    if isinstance(stmt, ast.LocalConst):
        return [stmt.expr]
    if isinstance(stmt, ast.CallStmt):
        return list(stmt.args)
    if isinstance(stmt, ast.If):
        return [stmt.cond]
    if isinstance(stmt, ast.Switch):
        return [stmt.selector]
    return []


def _effects(stmt: object, regs: Mapping[str, int]
             ) -> Tuple[List[ast.Name], Optional[ast.Name]]:
    """The registers ``stmt`` itself reads, in evaluation order, and the
    register it writes (``None`` when it writes none).

    The written operand is not a read: an assignment's target name, or
    an intrinsic's out-register (the XTXN reply lands there).
    """
    out: object = None
    if isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Name):
        out = stmt.target
    elif isinstance(stmt, ast.CallStmt):
        spec = SHARED_INTRINSICS.get(stmt.name)
        if spec is not None and spec.out_reg is not None \
                and spec.out_reg < len(stmt.args):
            out = stmt.args[spec.out_reg]
    reads = [name for expr in _operands(stmt) if expr is not out
             for name in ast.iter_exprs(expr)
             if isinstance(name, ast.Name) and name.ident in regs]
    written = out if isinstance(out, ast.Name) and out.ident in regs else None
    return reads, written


class _DefUse:
    """Forward must-def plus backward liveness over the goto graph.

    Must-def catches reads on paths where no write has happened yet
    (MC101); liveness catches writes that every continuation overwrites
    before reading (MC102).  Extern transfers and ``exit`` make all
    registers live: the surrounding codebase reads them (Figure 4 hands
    parse results to the aggregation code through registers).
    """

    def __init__(self, program: CompiledProgram, cfg: Dict[str, CFGNode],
                 reachable: Set[str], diagnostics: List[Diagnostic],
                 filename: str):
        self.program = program
        self.cfg = cfg
        self.reachable = reachable
        self.diagnostics = diagnostics
        self.filename = filename
        self.regs = set(program.reg_map)
        self.extern = set(program.extern_labels)
        # Both passes revisit statements until a fixpoint: take each
        # statement's effects once.
        self.effects = {
            id(stmt): _effects(stmt, program.reg_map)
            for instr in program.instructions.values()
            for stmt in ast.iter_stmts(instr.body)
        }

    # -- forward must-def -------------------------------------------------

    def run_must_def(self) -> None:
        # in-state per label: None = not yet seen; else frozenset of regs
        # definitely written on every path reaching the label.
        in_state: Dict[str, Optional[frozenset]] = {
            label: None for label in self.cfg
        }
        in_state[self.program.entry] = frozenset()
        worklist = [self.program.entry]
        # Collect (stmt, reg) pairs so fixpoint iterations do not emit
        # duplicate diagnostics.
        flagged: Set[Tuple[int, str]] = set()
        while worklist:
            label = worklist.pop(0)
            if label not in self.cfg:
                continue
            state = in_state[label]
            assert state is not None
            outs: Dict[str, frozenset] = {}
            self._walk_must(self.cfg[label].instr.body, set(state), outs,
                            flagged, report=False)
            for succ, out in outs.items():
                if succ in self.extern or succ not in self.cfg:
                    continue
                previous = in_state[succ]
                joined = out if previous is None else (previous & out)
                if previous is None or joined != previous:
                    in_state[succ] = frozenset(joined)
                    worklist.append(succ)
        # Second pass with stable in-states: emit diagnostics.
        for label in self.cfg:
            state = in_state[label]
            if state is None:
                continue  # unreachable; MC103 covers it
            self._walk_must(self.cfg[label].instr.body, set(state), {},
                            flagged, report=True)

    def _walk_must(self, body: Sequence[object], defined: Set[str],
                   outs: Dict[str, frozenset],
                   flagged: Set[Tuple[int, str]], report: bool) -> bool:
        """Returns True when the sequence may complete; updates ``outs``
        with the defined-set flowing along each goto edge."""
        for stmt in body:
            if isinstance(stmt, ast.Goto):
                previous = outs.get(stmt.label)
                current = frozenset(defined)
                outs[stmt.label] = (current if previous is None
                                    else previous & current)
                return False
            if isinstance(stmt, (ast.ExitStmt, ast.ReturnStmt)):
                return False
            reads, written = self.effects[id(stmt)]
            self._check_reads(reads, defined, flagged, report)
            if written is not None:
                defined.add(written.ident)
            if isinstance(stmt, ast.CallSub):
                # Callee reads run under the caller's defined set; its
                # writes are not guaranteed on every path, so the set is
                # unchanged (sound for must-def).
                self._propagate_call(stmt.label, defined, outs, flagged,
                                     report)
                continue
            if isinstance(stmt, (ast.If, ast.Switch)):
                completing: List[Set[str]] = []
                for arm in _arms(stmt):
                    arm_set = set(defined)
                    if self._walk_must(arm, arm_set, outs, flagged, report):
                        completing.append(arm_set)
                if not completing:
                    return False
                joined = completing[0].intersection(*completing[1:])
                defined.clear()
                defined.update(joined)
        return True

    def _propagate_call(self, label: str, defined: Set[str],
                        outs: Dict[str, frozenset],
                        flagged: Set[Tuple[int, str]], report: bool) -> None:
        if label in self.extern or label not in self.cfg:
            return
        # Reads inside the callee happen with (at least) the caller's
        # defined registers; checking with exactly that set is the
        # intersection semantics the fixpoint would give us.
        self._walk_must(self.cfg[label].instr.body, set(defined), outs,
                        flagged, report)

    def _check_reads(self, reads: List[ast.Name], defined: Set[str],
                     flagged: Set[Tuple[int, str]], report: bool) -> None:
        for name in reads:
            if name.ident in defined:
                continue
            if not report:
                continue
            key = (id(name), name.ident)
            if key in flagged:
                continue
            flagged.add(key)
            self.diagnostics.append(Diagnostic(
                "error", "MC101",
                f"register {name.ident!r} may be read before any "
                f"write on a path from entry {self.program.entry!r}",
                _span(name, self.filename),
                notes=["intermediate registers are thread-scratch "
                       "state; initialise before use (§3.1)"],
            ))

    # -- backward liveness -------------------------------------------------

    def run_liveness(self) -> None:
        all_regs = frozenset(self.regs)
        live_in: Dict[str, frozenset] = {
            label: frozenset() for label in self.cfg
        }
        changed = True
        while changed:
            changed = False
            for label in self.cfg:
                new = self._body_live(
                    self.cfg[label].instr.body, live_in, all_regs,
                    report=False,
                )
                if new != live_in[label]:
                    live_in[label] = new
                    changed = True
        for label in self.cfg:
            if label not in self.reachable:
                continue
            self._body_live(self.cfg[label].instr.body, live_in, all_regs,
                            report=True)

    def _body_live(self, body: Sequence[object],
                   live_in: Dict[str, frozenset],
                   all_regs: frozenset, report: bool) -> frozenset:
        """Live registers at the start of ``body``.

        Fall-off-end terminates the thread with the surrounding codebase
        holding the register file, so the sequence's live-out is
        ``all_regs``.
        """
        return self._seq_live(list(body), live_in, all_regs, all_regs,
                              report)

    def _seq_live(self, stmts: Sequence[object],
                  live_in: Dict[str, frozenset], all_regs: frozenset,
                  live_out: frozenset, report: bool) -> frozenset:
        live = set(live_out)
        for stmt in reversed(stmts):
            live = self._stmt_live(stmt, live_in, all_regs,
                                   frozenset(live), report)
        return frozenset(live)

    def _stmt_live(self, stmt: object, live_in: Dict[str, frozenset],
                   all_regs: frozenset, live_out: frozenset,
                   report: bool) -> Set[str]:
        if isinstance(stmt, ast.Goto):
            if stmt.label in self.extern or stmt.label not in self.cfg:
                return set(all_regs)
            return set(live_in[stmt.label])
        if isinstance(stmt, (ast.ExitStmt, ast.ReturnStmt, ast.CallSub)):
            # The surrounding codebase reads the register file after an
            # exit; a called subroutine may read any register.
            return set(all_regs)
        live: Set[str] = set()
        for arm in _arms(stmt):
            live |= self._seq_live(arm, live_in, all_regs, live_out, report)
        reads, written = self.effects[id(stmt)]
        if written is not None:
            if (isinstance(stmt, ast.Assign) and written.ident not in live
                    and report):
                # No MC102 for an intrinsic's out-register: the load's
                # XTXN is a real memory access even if the reply is unused.
                self.diagnostics.append(Diagnostic(
                    "warning", "MC102",
                    f"dead write to register {written.ident!r}: every "
                    "following path overwrites it before reading",
                    _span(written, self.filename),
                ))
            live.discard(written.ident)
        live.update(name.ident for name in reads)
        return live


# ---------------------------------------------------------------------------
# Pointer / layout safety
# ---------------------------------------------------------------------------


def _fold(expr: object, consts: Mapping[str, int],
          structs: Mapping[str, StructLayout]) -> Optional[int]:
    """TC's value of ``expr`` (:func:`~repro.microcode.compiler.const_value`),
    or None where TC would not fold it (or a shift overflows Python's
    integers)."""
    try:
        return const_value(expr, consts, structs)
    except (MicrocodeError, OverflowError):
        return None


@dataclass(frozen=True)
class _AbstractPtr:
    struct_name: Optional[str]  # None once arithmetic strips the type
    offset: Optional[int]       # None when not statically known


class _PointerChecker:
    """Abstract interpretation of pointer expressions against LMEM."""

    def __init__(self, program: CompiledProgram, lmem_bytes: int,
                 diagnostics: List[Diagnostic], filename: str):
        self.program = program
        self.lmem_bytes = lmem_bytes
        self.diagnostics = diagnostics
        self.filename = filename
        # Flow-insensitive pointer environment: every binding a name can
        # take anywhere in the program.
        self.env: Dict[str, List[_AbstractPtr]] = {}
        for name, (struct_name, offset) in program.ptr_map.items():
            self.env[name] = [_AbstractPtr(struct_name, offset)]
        # Program consts plus the integer local consts whose every
        # binding folds to the same value (filled in by _collect).
        self.consts: Dict[str, int] = dict(program.consts)

    def run(self) -> None:
        for name, (struct_name, offset) in self.program.ptr_map.items():
            layout = self.program.structs[struct_name]
            extent = offset + layout.size_bytes
            if offset < 0 or extent > self.lmem_bytes:
                self.diagnostics.append(Diagnostic(
                    "error", "MC301",
                    f"ptr {name!r} binds {struct_name} at byte {offset}: "
                    f"extent {extent} exceeds the {self.lmem_bytes}-byte "
                    "thread-local memory (§2.2)",
                ))
        self._collect()
        # Check every member access: the statement's own operands (an
        # assignment's target included), every sub-expression.
        for instr in self.program.instructions.values():
            for stmt in ast.iter_stmts(instr.body):
                for operand in _operands(stmt):
                    for expr in ast.iter_exprs(operand):
                        if isinstance(expr, ast.Member):
                            self._check_member(expr)

    # -- collection -------------------------------------------------------

    def _collect(self) -> None:
        """Bind every local const program-wide, in source order."""
        folded: Dict[str, Optional[int]] = {}
        for instr in self.program.instructions.values():
            for stmt in ast.iter_stmts(instr.body):
                if isinstance(stmt, ast.LocalConst):
                    self._bind(stmt, folded)

    def _bind(self, stmt: ast.LocalConst,
              folded: Dict[str, Optional[int]]) -> None:
        value = None if stmt.is_pointer else _fold(stmt.expr, self.consts,
                                                   self.program.structs)
        if folded.get(stmt.name, value) != value:
            value = None  # two bindings disagree: the name stays unknown
        folded[stmt.name] = value
        if value is None:
            self.consts.pop(stmt.name, None)
        else:
            self.consts[stmt.name] = value
        ptr = self._eval_ptr(stmt.expr)
        if stmt.is_pointer:
            ptr = _AbstractPtr(stmt.type_name,
                               ptr.offset if ptr is not None else None)
            layout = self.program.structs.get(stmt.type_name)
            if layout is not None and ptr.offset is not None:
                extent = ptr.offset + layout.size_bytes
                if ptr.offset < 0 or extent > self.lmem_bytes:
                    self.diagnostics.append(Diagnostic(
                        "error", "MC301",
                        f"pointer {stmt.name!r} points "
                        f"{stmt.type_name} at byte {ptr.offset}: "
                        f"extent {extent} exceeds the "
                        f"{self.lmem_bytes}-byte thread-local "
                        "memory (§2.2)",
                        _span(stmt, self.filename),
                    ))
        if ptr is not None:
            self.env.setdefault(stmt.name, []).append(ptr)

    def _eval_ptr(self, expr: object) -> Optional[_AbstractPtr]:
        """Abstract pointer value of ``expr``, or None when scalar/unknown."""
        if isinstance(expr, ast.Name):
            values = self.env.get(expr.ident)
            if values:
                return values[0]
            return None
        if isinstance(expr, ast.Binary) and expr.op == "+":
            for base, delta in ((expr.left, expr.right),
                                (expr.right, expr.left)):
                ptr = self._eval_ptr(base)
                if ptr is not None:
                    offset = _fold(delta, self.consts, self.program.structs)
                    if ptr.offset is None or offset is None:
                        return _AbstractPtr(None, None)
                    return _AbstractPtr(None, ptr.offset + offset)
        return None

    # -- access checks ----------------------------------------------------

    def _check_member(self, member: ast.Member) -> None:
        base = member.base
        if isinstance(base, ast.Name) and base.ident in BUILTIN_NAMESPACES:
            return
        candidates: List[_AbstractPtr] = []
        if isinstance(base, ast.Name):
            candidates = self.env.get(base.ident, [])
        else:
            value = self._eval_ptr(base)
            if value is not None:
                candidates = [value]
        for ptr in candidates:
            if ptr.struct_name is None:
                continue
            layout = self.program.structs.get(ptr.struct_name)
            if layout is None:
                continue
            if member.field_name not in layout.fields:
                self.diagnostics.append(Diagnostic(
                    "error", "MC303",
                    f"struct {ptr.struct_name!r} has no field "
                    f"{member.field_name!r} "
                    f"(has: {', '.join(sorted(layout.fields))})",
                    _span(member, self.filename),
                ))
                continue
            if ptr.offset is None:
                continue
            fld = layout.fields[member.field_name]
            end_bit = ptr.offset * 8 + fld.bit_offset + fld.width
            if ptr.offset < 0 or end_bit > self.lmem_bytes * 8:
                self.diagnostics.append(Diagnostic(
                    "error", "MC302",
                    f"access {member.field_name!r} at LMEM byte "
                    f"{ptr.offset}+{fld.bit_offset // 8} reaches bit "
                    f"{end_bit}, beyond the {self.lmem_bytes}-byte "
                    "thread-local memory (§2.2)",
                    _span(member, self.filename),
                ))


# ---------------------------------------------------------------------------
# Shared-state atomicity (MC4xx)
# ---------------------------------------------------------------------------


#: Statement-walk budget for the race pass.  Paths fork at every branch;
#: real Microcode programs are tiny (the interpreter refuses more than
#: 100k executed instructions), so a generous cap keeps the pass linear
#: in practice while bounding pathological branch ladders.
_RACE_WALK_BUDGET = 200_000


@dataclass(frozen=True)
class _AccessKey:
    """Abstract address of one shared-memory access.

    ``kind`` is ``"num"`` (statically known byte extent), ``"sym"``
    (canonical expression text — equal text means same address), or
    ``"lmem"`` (provably thread-local).  Two keys may alias only when
    both are numeric with overlapping extents in the same space, or both
    symbolic with identical text in the same space; a numeric and a
    symbolic key are conservatively treated as disjoint.
    """

    kind: str
    space: str = ""
    lo: int = 0
    hi: int = 0
    text: str = ""

    def aliases(self, other: "_AccessKey") -> bool:
        if self.kind == "num" and other.kind == "num":
            return (self.space == other.space
                    and self.lo < other.hi and other.lo < self.hi)
        if self.kind == "sym" and other.kind == "sym":
            return self.space == other.space and self.text == other.text
        return False

    def describe(self) -> str:
        if self.kind == "num":
            return f"{self.space}[{self.lo:#x}..{self.hi:#x})"
        if self.kind == "sym":
            return f"{self.space}[{self.text}]"
        return "thread-local memory"


@dataclass
class _SharedAccess:
    """One pending plain access on the current path."""

    key: _AccessKey
    stmt: ast.CallStmt
    spec: IntrinsicSpec


class _RaceState:
    """Per-path state of the race walk; forked at every branch."""

    __slots__ = ("visited", "reads", "writes", "taint", "consts", "syms")

    def __init__(self) -> None:
        self.visited: Set[str] = set()
        self.reads: List[_SharedAccess] = []
        self.writes: List[_SharedAccess] = []
        # reg name -> plain loads whose value (transitively) reached it
        self.taint: Dict[str, List[_SharedAccess]] = {}
        # Program consts overlaid with the path's local consts that fold
        # (an unfoldable local const shadows a program const).
        self.consts: Dict[str, int] = {}
        self.syms: Dict[str, str] = {}     # local consts, canonical text

    def fork(self) -> "_RaceState":
        other = _RaceState.__new__(_RaceState)
        other.visited = set(self.visited)
        other.reads = list(self.reads)
        other.writes = list(self.writes)
        other.taint = {reg: list(accs) for reg, accs in self.taint.items()}
        other.consts = dict(self.consts)
        other.syms = dict(self.syms)
        return other


class _RaceChecker:
    """Path-sensitive lost-update / torn-access detection (MC4xx).

    Walks every path from the entry (each instruction label visited at
    most once per path, subroutine bodies inlined) carrying the plain
    shared reads and writes still "pending" — not yet separated by an
    aliasing RMW op — plus a register taint map tracking which plain
    loads each register's value derives from.  A plain store whose value
    is tainted by an aliasing load is the classic lost update (MC401); a
    plain read and plain write of overlapping extents with no RMW
    barrier in between is a torn access (MC402).  RMW ops are the §2.3
    contract and never conflict — but an RMW whose address provably
    resolves into LMEM serializes at an engine for state no other thread
    can see (MC403).
    """

    def __init__(self, program: CompiledProgram, cfg: Dict[str, CFGNode],
                 lmem_bytes: int, diagnostics: List[Diagnostic],
                 filename: str):
        self.program = program
        self.cfg = cfg
        self.diagnostics = diagnostics
        self.filename = filename
        self.extern = set(program.extern_labels)
        self._budget = _RACE_WALK_BUDGET
        self._flagged: Set[Tuple[str, int, int]] = set()
        # Reuse the pointer checker's abstract environment to decide
        # whether an address expression is an LMEM pointer (MC403).
        self._ptrs = _PointerChecker(program, lmem_bytes, [], filename)
        self._ptrs._collect()

    def run(self) -> None:
        state = _RaceState()
        state.consts.update(self.program.consts)
        self._walk_label(self.program.entry, state)

    # -- walking -----------------------------------------------------------

    def _walk_label(self, label: str, state: _RaceState) -> None:
        if label in self.extern or label not in self.cfg:
            return
        if label in state.visited or self._budget <= 0:
            return
        state.visited.add(label)
        self._walk_body(self.cfg[label].instr.body, [state], in_sub=False)

    def _walk_body(self, body: Sequence[object], states: List[_RaceState],
                   in_sub: bool) -> List[_RaceState]:
        """Walk ``body`` with each state; returns the states that fall
        through (or ``return``, when ``in_sub``) to whatever follows."""
        for stmt in body:
            if not states:
                return []
            next_states: List[_RaceState] = []
            for st in states:
                next_states.extend(self._walk_stmt(stmt, st, in_sub))
            states = next_states
        return states

    def _walk_stmt(self, stmt: object, state: _RaceState,
                   in_sub: bool) -> List[_RaceState]:
        self._budget -= 1
        if self._budget <= 0:
            return []
        if isinstance(stmt, ast.Goto):
            self._walk_label(stmt.label, state)
            return []
        if isinstance(stmt, ast.ExitStmt):
            return []
        if isinstance(stmt, ast.ReturnStmt):
            # Inside an inlined subroutine a return continues in the
            # caller; at top level it ends the thread.
            return [state] if in_sub else []
        if isinstance(stmt, ast.CallSub):
            if stmt.label in state.visited or stmt.label not in self.cfg:
                return [state]  # recursion: MC204's department
            state.visited.add(stmt.label)
            body = self.cfg[stmt.label].instr.body
            out = self._walk_body(body, [state], in_sub=True)
            for st in out:
                st.visited.discard(stmt.label)
            return out
        if isinstance(stmt, (ast.If, ast.Switch)):
            out: List[_RaceState] = []
            for arm in _arms(stmt):
                out.extend(self._walk_body(arm, [state.fork()], in_sub))
            return out
        if isinstance(stmt, ast.LocalConst):
            value = _fold(stmt.expr, state.consts, self.program.structs)
            if value is None:
                state.consts.pop(stmt.name, None)
            else:
                state.consts[stmt.name] = value
            state.syms[stmt.name] = self._canonical(stmt.expr, state)
            return [state]
        if isinstance(stmt, ast.Assign):
            self._propagate_taint(stmt, state)
            return [state]
        if isinstance(stmt, ast.CallStmt):
            self._visit_intrinsic(stmt, state)
            return [state]
        return [state]

    # -- the checks --------------------------------------------------------

    def _visit_intrinsic(self, stmt: ast.CallStmt, state: _RaceState) -> None:
        spec = SHARED_INTRINSICS.get(stmt.name)
        if spec is None or spec.addr_arg >= len(stmt.args):
            return
        key = self._key_for(stmt.args[spec.addr_arg], spec, state)

        if spec.access == "rmw":
            if key.kind == "lmem":
                self._emit(Diagnostic(
                    "warning", "MC403",
                    f"{stmt.name} targets provably thread-local memory: "
                    "RMW engines serialize every caller for state no "
                    "other thread can observe",
                    _span(stmt, self.filename),
                    notes=["LMEM is private to the PPE thread (§2.2); "
                           "a plain field update costs no engine trip"],
                ))
                return
            # The RMW op is the barrier: pending plain accesses to the
            # same location are now ordered through the engine.
            state.reads = [a for a in state.reads
                           if not a.key.aliases(key)]
            state.writes = [a for a in state.writes
                            if not a.key.aliases(key)]
            return
        if key.kind == "lmem":
            return  # plain access to LMEM is thread-private, always fine

        if spec.access == "read":
            for prior in state.writes:
                if prior.key.aliases(key):
                    self._emit(Diagnostic(
                        "error", "MC402",
                        f"plain {stmt.name} of {key.describe()} follows a "
                        f"plain {prior.spec.name} of the same shared "
                        "location with no RMW barrier in between",
                        _span(stmt, self.filename),
                        notes=[f"the write is at line {prior.stmt.line}; "
                               "another thread's access can interleave "
                               "between the two plain XTXNs (§2.3)"],
                    ))
                    break
            access = _SharedAccess(key=key, stmt=stmt, spec=spec)
            state.reads.append(access)
            out_reg = spec.out_reg
            if out_reg is not None and out_reg < len(stmt.args):
                arg = stmt.args[out_reg]
                if isinstance(arg, ast.Name):
                    state.taint[arg.ident] = [access]
            return

        # spec.access == "write"
        tainting: List[_SharedAccess] = []
        for index in spec.value_args:
            if index < len(stmt.args):
                tainting.extend(self._expr_taint(stmt.args[index], state))
        lost = [acc for acc in tainting if acc.key.aliases(key)]
        if lost:
            load = lost[0]
            self._emit(Diagnostic(
                "error", "MC401",
                f"lost update: {stmt.name} writes {key.describe()} with a "
                f"value derived from the plain {load.spec.name} of the "
                "same shared location — the read-modify-write is not "
                "atomic",
                _span(stmt, self.filename),
                notes=[f"the load is at line {load.stmt.line}; any other "
                       "thread's update between load and store is "
                       "silently overwritten — route the modification "
                       "through an RMW op (DmemAdd32/DmemSwap, §2.3)"],
            ))
            consumed = set(map(id, lost))
            state.reads = [a for a in state.reads
                           if id(a) not in consumed]
        else:
            for prior in state.reads:
                if prior.key.aliases(key):
                    self._emit(Diagnostic(
                        "error", "MC402",
                        f"plain {stmt.name} of {key.describe()} follows a "
                        f"plain {prior.spec.name} of the same shared "
                        "location with no RMW barrier in between",
                        _span(stmt, self.filename),
                        notes=[f"the read is at line {prior.stmt.line}; "
                               "if the write depends on what was read, "
                               "another thread's update in between is "
                               "lost (§2.3)"],
                    ))
                    break
        state.writes.append(_SharedAccess(key=key, stmt=stmt, spec=spec))

    def _emit(self, diagnostic: Diagnostic) -> None:
        line = diagnostic.span.line if diagnostic.span else 0
        column = diagnostic.span.column if diagnostic.span else 0
        dedup = (diagnostic.code, line, column)
        if dedup in self._flagged:
            return  # the same racy pair, reached along another path
        self._flagged.add(dedup)
        self.diagnostics.append(diagnostic)

    # -- taint -------------------------------------------------------------

    def _propagate_taint(self, stmt: ast.Assign, state: _RaceState) -> None:
        sources = self._expr_taint(stmt.expr, state)
        target = stmt.target
        if isinstance(target, ast.Name) and target.ident in self.program.reg_map:
            if sources:
                state.taint[target.ident] = sources
            else:
                state.taint.pop(target.ident, None)
        # Member targets park the value in LMEM; we do not track taint
        # through thread-local memory (a deliberate under-approximation —
        # MC401 stays a high-confidence error).

    def _expr_taint(self, expr: object, state: _RaceState) -> List[_SharedAccess]:
        sources: List[_SharedAccess] = []
        seen: Set[int] = set()
        for name in ast.iter_exprs(expr):
            if not isinstance(name, ast.Name):
                continue
            for access in state.taint.get(name.ident, ()):
                if id(access) not in seen:
                    seen.add(id(access))
                    sources.append(access)
        return sources

    # -- address abstraction ----------------------------------------------

    def _key_for(self, expr: object, spec: IntrinsicSpec,
                 state: _RaceState) -> _AccessKey:
        if self._ptrs._eval_ptr(expr) is not None:
            return _AccessKey(kind="lmem")
        value = _fold(expr, state.consts, self.program.structs)
        if value is not None:
            lo = value * spec.addr_scale
            return _AccessKey(kind="num", space=spec.space,
                              lo=lo, hi=lo + spec.size_bytes)
        return _AccessKey(kind="sym", space=spec.space,
                          text=self._canonical(expr, state))

    def _canonical(self, expr: object, state: _RaceState) -> str:
        """Canonical text for an address we cannot fold to an integer.

        Local-const names are expanded to their defining expression so
        two intrinsics addressing through the same ``const :`` binding —
        or through its spelled-out equivalent — compare equal.
        """
        value = _fold(expr, state.consts, self.program.structs)
        if value is not None:
            return str(value)
        if isinstance(expr, ast.Name):
            return state.syms.get(expr.ident, expr.ident)
        if isinstance(expr, ast.Unary):
            return f"({expr.op}{self._canonical(expr.operand, state)})"
        if isinstance(expr, ast.Binary):
            left = self._canonical(expr.left, state)
            right = self._canonical(expr.right, state)
            return f"({left}{expr.op}{right})"
        if isinstance(expr, ast.Member):
            base = self._canonical(expr.base, state)
            arrow = "->" if expr.arrow else "."
            return f"{base}{arrow}{expr.field_name}"
        from repro.microcode.disasm import format_expr
        return format_expr(expr)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@dataclass
class AnalysisReport:
    """Everything the static passes learned about one compiled program."""

    entry: str
    diagnostics: List[Diagnostic]
    cfg: Dict[str, CFGNode]
    reachable: Set[str]
    path_budgets: Dict[str, PathBudget]
    source: Optional[str] = None
    filename: str = "<source>"

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def findings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity != "note"]

    @property
    def clean(self) -> bool:
        return not self.findings

    def entry_budget(self) -> PathBudget:
        return self.path_budgets.get(self.entry, PathBudget())

    def render(self) -> str:
        """Human-readable report: findings first, then the bound summary."""
        parts: List[str] = []
        if self.diagnostics:
            parts.append(render_diagnostics(self.diagnostics, self.source))
        summary = [
            f"entry {self.entry!r}: {self.entry_budget().describe()}",
            f"{len(self.cfg)} instructions, "
            f"{len(self.reachable & set(self.cfg))} reachable from entry",
        ]
        errors = len(self.errors)
        warnings = len(self.warnings)
        summary.append(
            f"analysis: {errors} error(s), {warnings} warning(s)"
        )
        parts.append("\n".join(summary))
        return "\n\n".join(parts)


def analyze_program(
    program: CompiledProgram,
    source: Optional[str] = None,
    lmem_bytes: int = DEFAULT_LMEM_BYTES,
    max_instructions: Optional[int] = None,
    filename: str = "<source>",
) -> AnalysisReport:
    """Run every static pass over ``program`` and collect diagnostics.

    ``source`` (the original Microcode text) enables quoted source lines
    in rendered diagnostics; analysis itself only needs the compiled
    program.
    """
    if max_instructions is None:
        from repro.microcode.interp import MAX_EXECUTED_INSTRUCTIONS
        max_instructions = MAX_EXECUTED_INSTRUCTIONS
    if source is None:
        source = program.source
    diagnostics: List[Diagnostic] = []
    cfg = build_cfg(program, diagnostics, filename)
    reachable = _reachable_from(cfg, program.entry)

    for name, node in cfg.items():
        if name not in reachable:
            diagnostics.append(Diagnostic(
                "warning", "MC103",
                f"instruction {name!r} is unreachable from entry "
                f"{program.entry!r}: no goto or call targets it",
                _span(node.instr, filename),
            ))

    path_budgets = _check_termination(
        program, cfg, reachable, diagnostics, filename, max_instructions
    )

    defuse = _DefUse(program, cfg, reachable, diagnostics, filename)
    defuse.run_must_def()
    defuse.run_liveness()

    _PointerChecker(program, lmem_bytes, diagnostics, filename).run()

    _RaceChecker(program, cfg, lmem_bytes, diagnostics, filename).run()

    return AnalysisReport(
        entry=program.entry,
        diagnostics=diagnostics,
        cfg=cfg,
        reachable=reachable,
        path_budgets=path_budgets,
        source=source,
        filename=filename,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _analyze_source(source: str, entry: Optional[str],
                    externs: Sequence[str], filename: str,
                    lmem_bytes: int) -> AnalysisReport:
    from repro.microcode.compiler import TrioCompiler

    compiler = TrioCompiler(extern_labels=externs)
    program = compiler.compile(source, entry=entry)
    return analyze_program(program, source=source, lmem_bytes=lmem_bytes,
                           filename=filename)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.microcode.analysis",
        description="Static analysis of Microcode programs: termination, "
                    "def-use, pointer/layout safety, and worst-case "
                    "operand-budget accounting.",
    )
    parser.add_argument("files", nargs="*",
                        help="Microcode source files to analyze")
    parser.add_argument("--entry", default=None,
                        help="entry instruction (default: first defined)")
    parser.add_argument("--extern", dest="externs", action="append",
                        default=[], metavar="LABEL",
                        help="extern label resolved by the surrounding "
                             "codebase (repeatable)")
    parser.add_argument("--lmem-bytes", type=int, default=DEFAULT_LMEM_BYTES,
                        help="thread-local memory size "
                             f"(default {DEFAULT_LMEM_BYTES})")
    parser.add_argument("--builtins", action="store_true",
                        help="analyze every shipped program in "
                             "repro.microcode.programs (the CI gate)")
    parser.add_argument("--werror", action="store_true",
                        help="exit non-zero on warnings as well as errors")
    args = parser.parse_args(argv)

    if not args.files and not args.builtins:
        parser.error("give Microcode files or --builtins")

    failed = False
    reports: List[Tuple[str, AnalysisReport]] = []

    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            report = _analyze_source(source, args.entry, args.externs,
                                     path, args.lmem_bytes)
        except MicrocodeError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            failed = True
            continue
        reports.append((path, report))

    if args.builtins:
        from repro.microcode.programs import BUILTIN_PROGRAMS
        for name, spec in BUILTIN_PROGRAMS.items():
            try:
                report = _analyze_source(
                    spec.source, spec.entry, spec.extern_labels,
                    f"<builtin:{name}>", args.lmem_bytes,
                )
            except MicrocodeError as exc:
                print(f"error: builtin {name}: {exc}", file=sys.stderr)
                failed = True
                continue
            reports.append((f"builtin:{name}", report))

    # Deterministic output: reports stay in argument order (then builtin
    # definition order); within a report, diagnostics sort by span and
    # code, so two runs over the same corpus are byte-identical.
    for path, report in reports:
        report.diagnostics.sort(key=_diagnostic_sort_key)
        print(f"== {path}")
        print(report.render())
        print()
        if report.errors or (args.werror and report.findings):
            failed = True

    return 1 if failed else 0


def _diagnostic_sort_key(diagnostic: Diagnostic) -> Tuple[int, int, str]:
    span = diagnostic.span
    line = span.line if span else 0
    column = span.column if span else 0
    return (line, column, diagnostic.code)


if __name__ == "__main__":
    sys.exit(main())
