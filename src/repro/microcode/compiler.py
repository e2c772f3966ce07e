"""The Trio Compiler (TC) (§3.1).

TC has characteristics of both compilers and assemblers: it translates
C-style expressions to hardware operations, but the programmer delineates
instruction boundaries (``name: begin … end``), and code that does not fit
the resources of a single instruction **fails compilation** — TC never
splits one instruction into several.  TC also has no separate linking
phase: it takes the complete source and produces one binary image.

Modelled per-instruction resource budget (§3.1): a single Microcode
instruction can perform **four register or two local-memory reads**, and
**two register or two local-memory writes**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple,
)

from repro.microcode import ast_nodes as ast
from repro.microcode.errors import AnalysisError, CompileError
from repro.microcode.intrinsics import SHARED_INTRINSICS
from repro.microcode.layout import StructLayout
from repro.microcode.parser import parse

__all__ = [
    "CompiledProgram",
    "InstructionBudget",
    "TrioCompiler",
    "apply_binary",
    "apply_unary",
    "const_value",
]

#: Builtin bus variables always available to programs (r_work.pkt_len etc.)
BUILTIN_NAMESPACES = frozenset({"r_work"})


@dataclass
class InstructionBudget:
    """Operand traffic of one instruction, checked against the hardware."""

    reg_reads: int = 0
    mem_reads: int = 0
    reg_writes: int = 0
    mem_writes: int = 0

    MAX_REG_READS = 4
    MAX_MEM_READS = 2
    MAX_REG_WRITES = 2
    MAX_MEM_WRITES = 2

    def check(self, instruction_name: str) -> None:
        problems = []
        if self.reg_reads > self.MAX_REG_READS:
            problems.append(
                f"{self.reg_reads} register reads (max {self.MAX_REG_READS})"
            )
        if self.mem_reads > self.MAX_MEM_READS:
            problems.append(
                f"{self.mem_reads} local-memory reads (max {self.MAX_MEM_READS})"
            )
        if self.reg_writes > self.MAX_REG_WRITES:
            problems.append(
                f"{self.reg_writes} register writes (max {self.MAX_REG_WRITES})"
            )
        if self.mem_writes > self.MAX_MEM_WRITES:
            problems.append(
                f"{self.mem_writes} local-memory writes (max {self.MAX_MEM_WRITES})"
            )
        if problems:
            raise CompileError(
                f"instruction {instruction_name!r} does not fit: "
                + "; ".join(problems)
                + " — TC cannot implement the requested actions across "
                "multiple instructions (§3.1)"
            )


@dataclass
class CompiledProgram:
    """TC output: the binary image plus the symbols the driver needs."""

    structs: Dict[str, StructLayout]
    consts: Dict[str, int]
    reg_map: Dict[str, int]
    ptr_map: Dict[str, Tuple[str, int]]  # name -> (struct name, byte offset)
    instructions: Dict[str, ast.InstructionDef]
    entry: str
    extern_labels: FrozenSet[str]
    budgets: Dict[str, InstructionBudget] = field(default_factory=dict)
    #: The original source text (for diagnostics and disassembly).
    source: Optional[str] = None
    #: Static-analysis report, populated when TC runs with analyze!="off".
    analysis: Optional[object] = None

    @property
    def num_instructions(self) -> int:
        return len(self.instructions)


class TrioCompiler:
    """Compiles complete Microcode source into a :class:`CompiledProgram`.

    ``extern_labels`` names branch targets resolved by the surrounding
    codebase (the existing Junos Microcode the new application is added
    to, Figure 4) — e.g. ``forward_packet`` and ``drop_packet``.
    """

    #: Valid values for the ``analyze`` compile mode.
    ANALYZE_MODES = ("off", "warn", "error")

    def __init__(self, extern_labels: Iterable[str] = (),
                 analyze: str = "off",
                 lmem_bytes: Optional[int] = None):
        """``analyze`` wires the static analyzer into compilation:

        * ``"off"`` — budget checks only (the seed behaviour).
        * ``"warn"`` — run :func:`repro.microcode.analysis.analyze_program`
          after compilation, attach the report to
          :attr:`CompiledProgram.analysis`, and print findings to stderr.
        * ``"error"`` — same, but reject the program with
          :class:`~repro.microcode.errors.AnalysisError` when the
          analyzer reports any error (non-termination, use-before-def,
          out-of-layout pointers) — the program never reaches the
          simulator.

        ``lmem_bytes`` overrides the thread-local memory size used by
        the pointer-safety pass.
        """
        if analyze not in self.ANALYZE_MODES:
            raise ValueError(
                f"analyze must be one of {self.ANALYZE_MODES}, "
                f"got {analyze!r}"
            )
        self.extern_labels = frozenset(extern_labels)
        self.analyze = analyze
        self.lmem_bytes = lmem_bytes

    def compile(self, source: str, entry: Optional[str] = None
                ) -> CompiledProgram:
        """Compile ``source``; ``entry`` defaults to the first instruction."""
        program = parse(source)
        structs = self._layout_structs(program.structs)
        consts = self._eval_consts(program.consts, structs)
        reg_map = self._assign_registers(program.regs)
        ptr_map = self._bind_pointers(program.ptrs, structs, consts)
        instructions: Dict[str, ast.InstructionDef] = {}
        for instr in program.instructions:
            if instr.name in instructions:
                raise CompileError(f"duplicate instruction {instr.name!r}")
            instructions[instr.name] = instr
        if not instructions:
            raise CompileError("program defines no instructions")
        if entry is None:
            entry = program.instructions[0].name
        elif entry not in instructions:
            raise CompileError(f"entry instruction {entry!r} is not defined")

        known_labels = set(instructions) | self.extern_labels
        budgets: Dict[str, InstructionBudget] = {}
        for instr in program.instructions:
            self._check_labels(instr, known_labels)
            budget = InstructionBudget()
            local_consts: Set[str] = set()
            for stmt in instr.body:
                self._account_stmt(
                    stmt, budget, reg_map, ptr_map, consts, structs,
                    local_consts, instr.name,
                )
            budget.check(instr.name)
            budgets[instr.name] = budget

        compiled = CompiledProgram(
            structs=structs,
            consts=consts,
            reg_map=reg_map,
            ptr_map=ptr_map,
            instructions=instructions,
            entry=entry,
            extern_labels=self.extern_labels,
            budgets=budgets,
            source=source,
        )
        if self.analyze != "off":
            self._run_analysis(compiled)
        return compiled

    def _run_analysis(self, compiled: CompiledProgram) -> None:
        # Imported here: analysis depends on this module for the program
        # representation, so the top level cannot import it back.
        from repro.microcode import analysis as mca

        kwargs = {}
        if self.lmem_bytes is not None:
            kwargs["lmem_bytes"] = self.lmem_bytes
        report = mca.analyze_program(compiled, **kwargs)
        compiled.analysis = report
        if self.analyze == "error" and report.errors:
            raise AnalysisError(
                f"static analysis rejected the program with "
                f"{len(report.errors)} error(s):\n"
                + report.render(),
                report.diagnostics,
            )
        if report.findings:
            import sys
            print(report.render(), file=sys.stderr)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _layout_structs(self, defs: List[ast.StructDef]
                        ) -> Dict[str, StructLayout]:
        structs: Dict[str, StructLayout] = {}
        for struct in defs:
            if struct.name in structs:
                raise CompileError(f"duplicate struct {struct.name!r}")
            try:
                structs[struct.name] = StructLayout(struct.name, struct.fields)
            except ValueError as exc:
                raise CompileError(str(exc)) from None
        return structs

    def _eval_consts(self, defs: List[ast.ConstDef],
                     structs: Dict[str, StructLayout]) -> Dict[str, int]:
        consts: Dict[str, int] = {}
        for const in defs:
            if const.name in consts:
                raise CompileError(f"duplicate const {const.name!r}")
            consts[const.name] = const_value(const.expr, consts, structs)
        return consts

    def _assign_registers(self, defs: List[ast.RegDef]) -> Dict[str, int]:
        reg_map: Dict[str, int] = {}
        for reg in defs:
            if reg.name in reg_map:
                raise CompileError(f"duplicate reg {reg.name!r}")
            reg_map[reg.name] = len(reg_map)
        return reg_map

    def _bind_pointers(
        self,
        defs: List[ast.PtrDef],
        structs: Dict[str, StructLayout],
        consts: Dict[str, int],
    ) -> Dict[str, Tuple[str, int]]:
        ptr_map: Dict[str, Tuple[str, int]] = {}
        for ptr in defs:
            if ptr.struct_name not in structs:
                raise CompileError(
                    f"ptr {ptr.name!r} references unknown struct "
                    f"{ptr.struct_name!r}"
                )
            offset = const_value(ptr.offset_expr, consts, structs)
            ptr_map[ptr.name] = (ptr.struct_name, offset)
        return ptr_map

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_labels(self, instr: ast.InstructionDef,
                      known: Set[str]) -> None:
        for stmt in ast.iter_stmts(instr.body):
            if isinstance(stmt, ast.Goto) and stmt.label not in known:
                raise CompileError(
                    f"line {stmt.line}: goto to undefined label "
                    f"{stmt.label!r} (declare it as an extern if "
                    "the existing codebase provides it)"
                )
            if isinstance(stmt, ast.CallSub) and stmt.label not in known:
                raise CompileError(
                    f"line {stmt.line}: call to undefined "
                    f"subroutine {stmt.label!r}"
                )

    def _account_stmt(self, stmt: object, budget: InstructionBudget,
                      reg_map: Dict[str, int],
                      ptr_map: Dict[str, Tuple[str, int]],
                      consts: Dict[str, int],
                      structs: Dict[str, StructLayout],
                      local_consts: Set[str], instr_name: str) -> None:
        if isinstance(stmt, ast.Assign):
            self._account_expr(stmt.expr, budget, reg_map, ptr_map,
                               consts, local_consts, instr_name)
            if isinstance(stmt.target, ast.Name):
                if stmt.target.ident in reg_map:
                    budget.reg_writes += 1
                else:
                    raise CompileError(
                        f"line {stmt.line}: assignment to undeclared "
                        f"variable {stmt.target.ident!r}"
                    )
            elif isinstance(stmt.target, ast.Member):
                budget.mem_writes += 1
                self._account_expr(stmt.target.base, budget, reg_map,
                                   ptr_map, consts, local_consts, instr_name)
        elif isinstance(stmt, ast.LocalConst):
            if stmt.is_pointer and stmt.type_name not in structs:
                raise CompileError(
                    f"line {stmt.line}: unknown type {stmt.type_name!r}"
                )
            self._account_expr(stmt.expr, budget, reg_map, ptr_map,
                               consts, local_consts, instr_name)
            local_consts.add(stmt.name)
        elif isinstance(stmt, ast.If):
            # Only one branch executes: the sequencing logic selects it, so
            # the branches share the instruction's ALU slots and the cost
            # is the maximum over the arms, not their sum.
            self._account_expr(stmt.cond, budget, reg_map, ptr_map,
                               consts, local_consts, instr_name)
            self._merge_branch_budgets(
                [stmt.then_body, stmt.else_body], budget, reg_map, ptr_map,
                consts, structs, local_consts, instr_name,
            )
        elif isinstance(stmt, ast.CallStmt):
            spec = SHARED_INTRINSICS.get(stmt.name)
            if spec is not None and len(stmt.args) != spec.arity:
                raise CompileError(
                    f"line {stmt.line}: intrinsic {stmt.name} takes "
                    f"{spec.arity} operand(s), got {len(stmt.args)}"
                )
            for index, arg in enumerate(stmt.args):
                if spec is not None and spec.out_reg == index:
                    # The destination operand is written, not read, and
                    # must be a bare register name (assembler-style).
                    if not (isinstance(arg, ast.Name)
                            and arg.ident in reg_map):
                        raise CompileError(
                            f"line {stmt.line}: {stmt.name} operand "
                            f"{index} must be a declared register "
                            "(the XTXN reply lands there)"
                        )
                    budget.reg_writes += 1
                    continue
                self._account_expr(arg, budget, reg_map, ptr_map, consts,
                                   local_consts, instr_name)
        elif isinstance(stmt, ast.Switch):
            self._account_expr(stmt.selector, budget, reg_map, ptr_map,
                               consts, local_consts, instr_name)
            default_arms = 0
            for case in stmt.cases:
                if case.values is None:
                    default_arms += 1
                else:
                    for value in case.values:
                        # Case labels must be compile-time constants.
                        const_value(value, consts, structs)
            if default_arms > 1:
                raise CompileError(
                    f"line {stmt.line}: switch has {default_arms} default "
                    "arms"
                )
            # Arms are mutually exclusive multi-way branches (§2.2): cost
            # is the maximum over the arms.
            self._merge_branch_budgets(
                [case.body for case in stmt.cases], budget, reg_map,
                ptr_map, consts, structs, local_consts, instr_name,
            )
        elif isinstance(stmt, (ast.Goto, ast.ExitStmt, ast.CallSub,
                               ast.ReturnStmt)):
            pass
        else:
            raise CompileError(f"unsupported statement {type(stmt).__name__}")

    def _merge_branch_budgets(self, branches: List[List[object]],
                              budget: InstructionBudget,
                              reg_map: Dict[str, int],
                              ptr_map: Dict[str, Tuple[str, int]],
                              consts: Dict[str, int],
                              structs: Dict[str, StructLayout],
                              local_consts: Set[str],
                              instr_name: str) -> None:
        """Account mutually exclusive branches at their elementwise max."""
        peaks = InstructionBudget()
        for body in branches:
            arm = InstructionBudget()
            arm_locals = set(local_consts)
            for sub in body:
                self._account_stmt(sub, arm, reg_map, ptr_map, consts,
                                   structs, arm_locals, instr_name)
            peaks.reg_reads = max(peaks.reg_reads, arm.reg_reads)
            peaks.mem_reads = max(peaks.mem_reads, arm.mem_reads)
            peaks.reg_writes = max(peaks.reg_writes, arm.reg_writes)
            peaks.mem_writes = max(peaks.mem_writes, arm.mem_writes)
        budget.reg_reads += peaks.reg_reads
        budget.mem_reads += peaks.mem_reads
        budget.reg_writes += peaks.reg_writes
        budget.mem_writes += peaks.mem_writes

    def _account_expr(self, expr: object, budget: InstructionBudget,
                      reg_map: Dict[str, int],
                      ptr_map: Dict[str, Tuple[str, int]],
                      consts: Dict[str, int],
                      local_consts: Set[str], instr_name: str) -> None:
        # Only register reads and LMEM field reads cost operands: consts,
        # pointers and the builtin bus variables are free.
        for node in ast.iter_exprs(expr):
            if isinstance(node, ast.Name):
                ident = node.ident
                if ident in reg_map:
                    budget.reg_reads += 1
                elif not (ident in consts or ident in ptr_map
                          or ident in local_consts
                          or ident in BUILTIN_NAMESPACES):
                    raise CompileError(
                        f"line {node.line}: unknown identifier {ident!r} in "
                        f"instruction {instr_name!r}"
                    )
            elif isinstance(node, ast.Member):
                base = node.base
                if node.arrow and not (isinstance(base, ast.Name)
                                       and base.ident in BUILTIN_NAMESPACES):
                    budget.mem_reads += 1
            elif not isinstance(node, (ast.IntLit, ast.SizeOf, ast.Unary,
                                       ast.Binary)):
                raise CompileError(
                    f"unsupported expression {type(node).__name__}"
                )


def const_value(expr: object, consts: Mapping[str, int],
                structs: Mapping[str, StructLayout]) -> int:
    """Fold a compile-time constant expression to its integer value.

    This is the one constant folder of the dialect: TC evaluates ``const``
    declarations, ``ptr`` offsets and ``case`` labels with it, and the
    static analyzer folds addresses and pointer offsets with it (layering
    the local consts it knows over the program's).  Every operand must
    fold, even the right side of ``&&``/``||``; wherever folding succeeds
    the value is the one the interpreter computes.  Raises
    :class:`CompileError` when ``expr`` is not a constant (a register, a
    field access, an unknown name or type) or an operator fails on its
    operands (division by zero, a negative shift count).
    """
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.ident in consts:
            return consts[expr.ident]
        raise CompileError(
            f"line {expr.line}: {expr.ident!r} is not a compile-time "
            "constant"
        )
    if isinstance(expr, ast.SizeOf):
        if expr.type_name not in structs:
            raise CompileError(
                f"line {expr.line}: sizeof of unknown type "
                f"{expr.type_name!r}"
            )
        return structs[expr.type_name].size_bytes
    if isinstance(expr, ast.Unary):
        return apply_unary(expr.op, const_value(expr.operand, consts, structs))
    if isinstance(expr, ast.Binary):
        left = const_value(expr.left, consts, structs)
        right = const_value(expr.right, consts, structs)
        return apply_binary(expr.op, left, right)
    raise CompileError("expression is not a compile-time constant")


def apply_unary(op: str, value: int) -> int:
    """Evaluate one Microcode unary operator over a Python int.

    The unary half of :func:`apply_binary`, shared by the same three
    consumers.  ``!`` is C's logical not (0 or 1).
    """
    if op == "-":
        return -value
    if op == "~":
        return ~value
    if op == "!":
        return int(not value)
    raise CompileError(f"unsupported operator {op!r}")


def apply_binary(op: str, left: int, right: int) -> int:
    """Evaluate one Microcode binary operator over Python ints.

    This is the single source of truth for the dialect's integer
    semantics (C-style comparisons returning 0/1, floor division,
    short-circuit operators already decided by the caller), shared by
    :func:`const_value` (TC and the static analyzer) and the interpreter
    (:mod:`repro.microcode.interp`).  Raises :class:`CompileError` on
    division or modulo by zero, a negative shift count, and unknown
    operators.
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise CompileError("division by zero")
        return left // right
    if op == "%":
        if right == 0:
            raise CompileError("modulo by zero")
        return left % right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op in ("<<", ">>"):
        if right < 0:
            raise CompileError("negative shift count")
        return left << right if op == "<<" else left >> right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == ">":
        return int(left > right)
    if op == "<=":
        return int(left <= right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise CompileError(f"unsupported operator {op!r}")
