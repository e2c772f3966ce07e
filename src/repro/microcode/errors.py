"""Error types and diagnostics for the Microcode toolchain.

Besides the exception hierarchy, this module owns the *diagnostic*
machinery shared by the static analyzer (:mod:`repro.microcode.analysis`)
and the simulator determinism linter (:mod:`repro.tools.detlint`): a
:class:`SourceSpan` locating a finding in source text, a typed
:class:`Diagnostic` with a stable code, and a rustc-style renderer that
shows the offending source line under the message::

    error[MC201]: instructions form a goto cycle with no exit path: spin
      --> bad.mc:9
       |
     9 |     goto spin;
       |     ^
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

__all__ = [
    "AnalysisError",
    "CompileError",
    "Diagnostic",
    "LexError",
    "MicrocodeError",
    "MicrocodeRuntimeError",
    "ParseError",
    "SourceSpan",
    "render_diagnostics",
]


class MicrocodeError(Exception):
    """Base class for all Microcode toolchain errors."""


class LexError(MicrocodeError):
    """Malformed token in the source text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class ParseError(MicrocodeError):
    """The token stream does not form a valid program."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f"line {line}, col {column}: " if line else ""
        super().__init__(f"{location}{message}")
        self.line = line
        self.column = column


class CompileError(MicrocodeError):
    """TC rejected the program (unknown symbol, resource budget, …)."""


class MicrocodeRuntimeError(MicrocodeError):
    """A fault while executing a compiled program on a PPE thread."""


# ---------------------------------------------------------------------------
# Diagnostics (shared by the static analyzer and detlint)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpan:
    """A location in source text: 1-based line, 0-based column."""

    line: int
    column: int = 0
    filename: str = "<source>"

    def __str__(self) -> str:
        return f"{self.filename}:{self.line}"


@dataclass
class Diagnostic:
    """One analyzer/linter finding with a stable code.

    ``severity`` is ``"error"``, ``"warning"``, or ``"note"``; only
    errors and warnings count as *findings* for CI gating purposes.
    """

    severity: str
    code: str
    message: str
    span: Optional[SourceSpan] = None
    notes: List[str] = field(default_factory=list)

    def render(self, source_lines: Optional[Sequence[str]] = None) -> str:
        """Rustc-style rendering, quoting the source line when available."""
        lines = [f"{self.severity}[{self.code}]: {self.message}"]
        if self.span is not None:
            lines.append(f"  --> {self.span}")
            quoted = None
            if source_lines and 1 <= self.span.line <= len(source_lines):
                quoted = source_lines[self.span.line - 1].rstrip("\n")
            if quoted is not None:
                gutter = len(str(self.span.line))
                lines.append(f"{' ' * (gutter + 1)}|")
                lines.append(f"{self.span.line} | {quoted}")
                indent = len(quoted) - len(quoted.lstrip())
                caret_col = max(self.span.column, indent)
                lines.append(f"{' ' * (gutter + 1)}| {' ' * caret_col}^")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def render_diagnostics(diagnostics: Sequence[Diagnostic],
                       source: Optional[str] = None) -> str:
    """Render a batch of diagnostics, most severe first."""
    source_lines = source.splitlines() if source is not None else None
    order = {"error": 0, "warning": 1, "note": 2}
    ranked = sorted(
        diagnostics,
        key=lambda d: (order.get(d.severity, 3),
                       d.span.line if d.span else 0),
    )
    return "\n\n".join(d.render(source_lines) for d in ranked)


class AnalysisError(MicrocodeError):
    """Static analysis rejected the program (``analyze="error"``).

    Carries the individual :class:`Diagnostic` objects so callers can
    inspect codes programmatically.
    """

    def __init__(self, message: str, diagnostics: List[Diagnostic]):
        super().__init__(message)
        self.diagnostics = diagnostics
