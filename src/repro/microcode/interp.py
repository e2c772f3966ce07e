"""Execution of compiled Microcode on a PPE thread.

The executor walks the program one instruction at a time, charging one
datapath-instruction latency per Microcode instruction through the
thread context, issuing real XTXNs for intrinsics, and dispatching to
*terminal handlers* (the surrounding codebase's ``forward_packet`` /
``drop_packet``) when control transfers to an extern label.

Pointer values are byte offsets into the thread's local memory (where the
packet head was loaded before the thread started, §2.2), optionally typed
with a struct layout so ``ptr->field`` reads/writes the right bit-field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

from repro.microcode import ast_nodes as ast
from repro.microcode.compiler import CompiledProgram, apply_binary, apply_unary
from repro.microcode.errors import CompileError, MicrocodeRuntimeError
from repro.microcode.intrinsics import SHARED_INTRINSICS
from repro.microcode.layout import StructLayout

__all__ = ["MicrocodeExecutor", "PointerValue"]

#: Safety valve against non-terminating programs (goto loops).
MAX_EXECUTED_INSTRUCTIONS = 100_000

#: Control-flow signals returned by statement execution.
_NEXT = ("next",)
_EXIT = ("exit",)
_RETURN = ("return",)


@dataclass(frozen=True)
class PointerValue:
    """A typed pointer into thread-local memory (byte offset + layout)."""

    offset: int
    struct: Optional[StructLayout] = None

    def __add__(self, other: object) -> Any:
        if isinstance(other, int):
            return PointerValue(self.offset + other, None)
        return NotImplemented

    def retyped(self, struct: StructLayout) -> "PointerValue":
        return PointerValue(self.offset, struct)


class MicrocodeExecutor:
    """Runs one :class:`CompiledProgram` over packets on PPE threads."""

    def __init__(
        self,
        program: CompiledProgram,
        terminals: Optional[Dict[str, Callable]] = None,
        intrinsics: Optional[Dict[str, Callable]] = None,
    ):
        """``terminals`` maps extern labels to generator functions
        ``handler(tctx, pctx)``; ``intrinsics`` maps call names to
        generator functions ``fn(tctx, pctx, *arg_values)``.
        ``CounterIncPhys`` is provided by default (§3.2): its first
        argument is a counter address in 8-byte words, its second the
        packet length in bytes.  The ``Dmem*`` family issues 4-byte
        Shared Memory XTXNs at ``dmem_base_addr + addr``: ``DmemLoad``
        (plain read into a register), ``DmemStore`` (plain write),
        ``DmemAdd32``/``DmemSwap`` (RMW-engine-serialised, §2.3)."""
        self.program = program
        self.terminals = dict(terminals or {})
        self.intrinsics = {
            "CounterIncPhys": self._counter_inc_phys,
            "DmemLoad": self._dmem_load,
            "DmemStore": self._dmem_store,
            "DmemAdd32": self._dmem_add32,
            "DmemSwap": self._dmem_swap,
        }
        if intrinsics:
            self.intrinsics.update(intrinsics)
        missing = program.extern_labels - set(self.terminals)
        if missing:
            raise MicrocodeRuntimeError(
                f"no terminal handlers for extern labels: {sorted(missing)}"
            )
        #: Base byte address of the counter bank used by CounterIncPhys.
        self.counter_base_addr = 0
        #: Base byte address of the shared-DMEM window the Dmem* family
        #: addresses into (analogous to counter_base_addr).
        self.dmem_base_addr = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(self, tctx: Any, pctx: Any) -> Iterator[Any]:
        """Process one packet: generator, ``yield from executor.run(...)``."""
        yield from self._run(tctx, pctx)
        # Deferred (coalesced) execute charges become one kernel event, so
        # running a program standalone still advances simulated time.
        yield from tctx.flush()

    def _run(self, tctx: Any, pctx: Any) -> Iterator[Any]:
        state = _ThreadState(self, tctx, pctx)
        label = self.program.entry
        executed = 0
        while True:
            if label in self.terminals:
                yield from self.terminals[label](tctx, pctx)
                return
            instr = self.program.instructions.get(label)
            if instr is None:
                raise MicrocodeRuntimeError(f"jump to unknown label {label!r}")
            executed += 1
            if executed > MAX_EXECUTED_INSTRUCTIONS:
                raise MicrocodeRuntimeError(
                    f"program exceeded {MAX_EXECUTED_INSTRUCTIONS} "
                    "instructions; likely a goto loop"
                )
            yield from tctx.execute(1)
            signal = yield from state.exec_body(instr.body)
            if signal is _RETURN:
                raise MicrocodeRuntimeError(
                    f"return outside a subroutine in {label!r}"
                )
            if signal is _EXIT or signal is _NEXT:
                return
            label = signal[1]  # goto target

    def _counter_inc_phys(self, tctx: Any, pctx: Any, addr_words: int,
                          pkt_len: int) -> Iterator[Any]:
        """The CounterIncPhys XTXN: increments a 16-byte Packet/Byte
        Counter whose address is given in 8-byte words (Figure 6 uses
        +2 per counter)."""
        byte_addr = self.counter_base_addr + int(addr_words) * 8
        yield from tctx.counter_inc(byte_addr, pkt_len)

    def _dmem_load(self, tctx: Any, pctx: Any, reg_index: int,
                   addr: int) -> Iterator[Any]:
        """DmemLoad(r_dst, addr): plain 4-byte read XTXN into ``r_dst``.

        The destination operand arrives pre-resolved to a register index
        (see ``_ThreadState.exec_stmt``); the reply lands there.
        """
        raw = yield from tctx.mem_read(self.dmem_base_addr + int(addr), 4)
        tctx.set_register(reg_index, int.from_bytes(raw, "little"))

    def _dmem_store(self, tctx: Any, pctx: Any, addr: int,
                    value: int) -> Iterator[Any]:
        """DmemStore(addr, value): plain 4-byte write XTXN (NOT atomic)."""
        data = (int(value) & 0xFFFFFFFF).to_bytes(4, "little")
        yield from tctx.mem_write(self.dmem_base_addr + int(addr), data)

    def _dmem_add32(self, tctx: Any, pctx: Any, addr: int,
                    delta: int) -> Iterator[Any]:
        """DmemAdd32(addr, delta): RMW-engine-serialised 32-bit add."""
        yield from tctx.mem_add32(self.dmem_base_addr + int(addr),
                                  int(delta) & 0xFFFFFFFF)

    def _dmem_swap(self, tctx: Any, pctx: Any, addr: int,
                   value: int) -> Iterator[Any]:
        """DmemSwap(addr, value): atomic fetch-and-swap of one word."""
        from repro.trio.rmw import RMWOpKind

        yield from tctx.mem_fetch_and_op(
            RMWOpKind.FETCH_AND_SWAP, self.dmem_base_addr + int(addr),
            int(value) & 0xFFFFFFFF, size=4,
        )


class _ThreadState:
    """Per-packet interpreter state: local consts and builtin variables."""

    def __init__(self, executor: MicrocodeExecutor, tctx: Any, pctx: Any):
        self.executor = executor
        self.program = executor.program
        self.tctx = tctx
        self.pctx = pctx
        self.locals: Dict[str, Any] = {}
        self.call_depth = 0

    # -- statement execution (generators returning a control signal) -----

    def exec_body(self, body: Any) -> Iterator[Any]:
        for stmt in body:
            signal = yield from self.exec_stmt(stmt)
            if signal is not _NEXT:
                return signal
        return _NEXT

    def exec_stmt(self, stmt: Any) -> Iterator[Any]:
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.expr)
            self.store(stmt.target, value)
            return _NEXT
            yield  # pragma: no cover - makes this a generator
        if isinstance(stmt, ast.LocalConst):
            value = self.eval(stmt.expr)
            if stmt.is_pointer:
                struct = self.program.structs[stmt.type_name]
                if isinstance(value, PointerValue):
                    value = value.retyped(struct)
                else:
                    value = PointerValue(int(value), struct)
            self.locals[stmt.name] = value
            return _NEXT
            yield  # pragma: no cover
        if isinstance(stmt, ast.If):
            cond = self.eval(stmt.cond)
            branch = stmt.then_body if cond else stmt.else_body
            signal = yield from self.exec_body(branch)
            return signal
        if isinstance(stmt, ast.Goto):
            return ("goto", stmt.label)
            yield  # pragma: no cover
        if isinstance(stmt, ast.ExitStmt):
            return _EXIT
            yield  # pragma: no cover
        if isinstance(stmt, ast.CallStmt):
            fn = self.executor.intrinsics.get(stmt.name)
            if fn is None:
                raise MicrocodeRuntimeError(
                    f"line {stmt.line}: unknown intrinsic {stmt.name!r}"
                )
            spec = SHARED_INTRINSICS.get(stmt.name)
            out_reg = spec.out_reg if spec is not None else None
            args = []
            for index, arg in enumerate(stmt.args):
                if index == out_reg:
                    # Destination operand: resolve the register *index*
                    # (TC already validated it names a declared reg).
                    if not (isinstance(arg, ast.Name)
                            and arg.ident in self.program.reg_map):
                        raise MicrocodeRuntimeError(
                            f"line {stmt.line}: {stmt.name} operand "
                            f"{index} must name a register"
                        )
                    args.append(self.program.reg_map[arg.ident])
                else:
                    args.append(self.eval(arg))
            yield from fn(self.tctx, self.pctx, *args)
            return _NEXT
        if isinstance(stmt, ast.ReturnStmt):
            return _RETURN
            yield  # pragma: no cover
        if isinstance(stmt, ast.CallSub):
            signal = yield from self.exec_subroutine(stmt)
            return signal
        if isinstance(stmt, ast.Switch):
            selector = self.eval(stmt.selector)
            default_body = None
            for case in stmt.cases:
                if case.values is None:
                    default_body = case.body
                    continue
                if any(self.eval(value) == selector for value in case.values):
                    signal = yield from self.exec_body(case.body)
                    return signal
            if default_body is not None:
                signal = yield from self.exec_body(default_body)
                return signal
            return _NEXT
        raise MicrocodeRuntimeError(
            f"unsupported statement {type(stmt).__name__}"
        )

    def exec_subroutine(self, stmt: ast.CallSub) -> Iterator[Any]:
        """Run a ``call`` target until ``return`` (or fall-off-end).

        The PPE's call-return stack nests at most ``call_stack_depth``
        levels (§2.2: eight).
        """
        limit = self.tctx.config.call_stack_depth
        if self.call_depth >= limit:
            raise MicrocodeRuntimeError(
                f"line {stmt.line}: call depth exceeds the hardware "
                f"limit of {limit} (§2.2)"
            )
        self.call_depth += 1
        try:
            label = stmt.label
            while True:
                if label in self.executor.terminals:
                    yield from self.executor.terminals[label](
                        self.tctx, self.pctx
                    )
                    return _EXIT
                instr = self.program.instructions.get(label)
                if instr is None:
                    raise MicrocodeRuntimeError(
                        f"call/goto to unknown label {label!r}"
                    )
                yield from self.tctx.execute(1)
                signal = yield from self.exec_body(instr.body)
                if signal is _RETURN or signal is _NEXT:
                    return _NEXT  # resume the caller after the call
                if signal is _EXIT:
                    return _EXIT
                label = signal[1]
        finally:
            self.call_depth -= 1

    # -- expression evaluation (pure; XTXNs only via intrinsics) ---------

    def eval(self, expr: Any) -> Any:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.SizeOf):
            return self.program.structs[expr.type_name].size_bytes
        if isinstance(expr, ast.Name):
            return self.resolve_name(expr.ident, expr.line)
        if isinstance(expr, ast.Member):
            return self.read_member(expr)
        if isinstance(expr, ast.Unary):
            return apply_unary(expr.op, self.eval(expr.operand))
        if isinstance(expr, ast.Binary):
            left = self.eval(expr.left)
            # Short-circuit so && / || behave like the sequencing logic.
            if expr.op == "&&" and not left:
                return 0
            if expr.op == "||" and left:
                return 1
            right = self.eval(expr.right)
            if isinstance(left, PointerValue):
                if expr.op == "+":
                    return left + int(right)
                raise MicrocodeRuntimeError(
                    f"line {expr.line}: unsupported pointer op {expr.op!r}"
                )
            try:
                return apply_binary(expr.op, left, right)
            except CompileError as exc:
                raise MicrocodeRuntimeError(
                    f"line {expr.line}: {exc}") from None
        raise MicrocodeRuntimeError(
            f"unsupported expression {type(expr).__name__}"
        )

    def resolve_name(self, ident: str, line: int) -> Any:
        if ident in self.locals:
            return self.locals[ident]
        program = self.program
        if ident in program.reg_map:
            return self.tctx.registers[program.reg_map[ident]]
        if ident in program.consts:
            return program.consts[ident]
        if ident in program.ptr_map:
            struct_name, offset = program.ptr_map[ident]
            return PointerValue(offset, program.structs[struct_name])
        raise MicrocodeRuntimeError(f"line {line}: unknown name {ident!r}")

    def read_member(self, expr: ast.Member) -> Any:
        base = expr.base
        if isinstance(base, ast.Name) and base.ident == "r_work":
            return self.builtin_work_register(expr.field_name, expr.line)
        value = self.eval(base)
        if not isinstance(value, PointerValue) or value.struct is None:
            raise MicrocodeRuntimeError(
                f"line {expr.line}: {expr.field_name!r} accessed through a "
                "non-struct pointer"
            )
        return value.struct.read(self.tctx.lmem, value.offset, expr.field_name)

    def builtin_work_register(self, field_name: str, line: int) -> int:
        """The r_work builtin bus variables available to every thread."""
        if field_name == "pkt_len":
            return self.pctx.length if self.pctx is not None else 0
        if field_name == "time_ns":
            # Thread-local clock: includes coalesced execute charges, so
            # programs observe the same timestamps as eager charging.
            return int(self.tctx.now * 1e9)
        raise MicrocodeRuntimeError(
            f"line {line}: unknown builtin r_work.{field_name}"
        )

    def store(self, target: Any, value: Any) -> None:
        if isinstance(target, ast.Name):
            program = self.program
            if target.ident in program.reg_map:
                self.tctx.set_register(
                    program.reg_map[target.ident], int(value)
                )
                return
            raise MicrocodeRuntimeError(
                f"line {target.line}: cannot assign to {target.ident!r}"
            )
        if isinstance(target, ast.Member):
            base = self.eval(target.base)
            if not isinstance(base, PointerValue) or base.struct is None:
                raise MicrocodeRuntimeError(
                    f"line {target.line}: field write through a non-struct "
                    "pointer"
                )
            base.struct.write(
                self.tctx.lmem, base.offset, target.field_name, int(value)
            )
            return
        raise MicrocodeRuntimeError("unsupported assignment target")
