"""AST node definitions for the Microcode dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "Assign",
    "Binary",
    "CallStmt",
    "CallSub",
    "ConstDef",
    "ExitStmt",
    "Goto",
    "If",
    "InstructionDef",
    "IntLit",
    "LocalConst",
    "Member",
    "Name",
    "Program",
    "PtrDef",
    "RegDef",
    "ReturnStmt",
    "SizeOf",
    "StructDef",
    "Switch",
    "SwitchCase",
    "Unary",
    "iter_exprs",
    "iter_stmts",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class IntLit:
    value: int
    line: int = 0


@dataclass
class Name:
    ident: str
    line: int = 0


@dataclass
class Member:
    """``base->field`` (arrow=True) or ``base.field`` (arrow=False)."""

    base: object
    field_name: str
    arrow: bool
    line: int = 0


@dataclass
class Binary:
    op: str
    left: object
    right: object
    line: int = 0


@dataclass
class Unary:
    op: str
    operand: object
    line: int = 0


@dataclass
class SizeOf:
    type_name: str
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Assign:
    target: object  # Name or Member
    expr: object
    line: int = 0


@dataclass
class LocalConst:
    """``const type *name = expr;`` or ``const : name = expr;``"""

    name: str
    type_name: Optional[str]  # struct name if this is a typed pointer
    is_pointer: bool
    expr: object
    line: int = 0


@dataclass
class If:
    cond: object
    then_body: List[object]
    else_body: List[object] = field(default_factory=list)
    line: int = 0


@dataclass
class Goto:
    label: str
    line: int = 0


@dataclass
class ExitStmt:
    line: int = 0


@dataclass
class CallStmt:
    """Intrinsic XTXN invocation, e.g. ``CounterIncPhys(addr, len);``"""

    name: str
    args: List[object]
    line: int = 0


@dataclass
class CallSub:
    """``call label;`` — subroutine call (nested up to 8 levels, §2.2)."""

    label: str
    line: int = 0


@dataclass
class ReturnStmt:
    """``return;`` — return to the statement after the ``call``."""

    line: int = 0


@dataclass
class SwitchCase:
    """One ``case N, M:`` arm (or the ``default:`` arm when values is None)."""

    values: Optional[List[object]]
    body: List[object] = field(default_factory=list)
    line: int = 0


@dataclass
class Switch:
    """``switch (expr) { case …: … default: … }`` — multi-way branch,
    matching Trio's single-instruction multi-way sequencing (§2.2)."""

    selector: object
    cases: List[SwitchCase] = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class StructDef:
    name: str
    fields: List[Tuple[Optional[str], int]]
    line: int = 0


@dataclass
class ConstDef:
    """Top-level ``const NAME = expr;`` (virtual storage class)."""

    name: str
    expr: object
    line: int = 0


@dataclass
class RegDef:
    """``reg name;`` — an intermediate register (memory storage class)."""

    name: str
    line: int = 0


@dataclass
class PtrDef:
    """``ptr name = struct_name @ offset;`` — a header pointer into the
    packet head, pre-bound before the program starts."""

    name: str
    struct_name: str
    offset_expr: object
    line: int = 0


@dataclass
class InstructionDef:
    """One explicitly delineated instruction: ``name: begin … end``."""

    name: str
    body: List[object]
    line: int = 0


@dataclass
class Program:
    structs: List[StructDef] = field(default_factory=list)
    consts: List[ConstDef] = field(default_factory=list)
    regs: List[RegDef] = field(default_factory=list)
    ptrs: List[PtrDef] = field(default_factory=list)
    instructions: List[InstructionDef] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Flow-insensitive walks
# ---------------------------------------------------------------------------


def iter_stmts(body: Iterable[object]) -> Iterator[object]:
    """Every statement of ``body`` in pre-order, descending into the
    ``if``/``else`` and ``switch`` arms (each arm after its statement)."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from iter_stmts(stmt.then_body)
            yield from iter_stmts(stmt.else_body)
        elif isinstance(stmt, Switch):
            for case in stmt.cases:
                yield from iter_stmts(case.body)


def iter_exprs(expr: object) -> Iterator[object]:
    """``expr`` and every sub-expression in pre-order (left before right,
    a ``Member`` before its base)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Member):
            stack.append(node.base)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack.append(node.right)
            stack.append(node.left)
