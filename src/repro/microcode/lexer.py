"""Tokenizer for the Microcode dialect.

Recognises C-style identifiers, integer literals (decimal and ``0x`` hex),
the operators used by Microcode expressions, punctuation, and ``//`` and
``/* ... */`` comments.  Every token carries its source position for error
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.microcode.errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "struct",
        "union",
        "const",
        "if",
        "else",
        "goto",
        "begin",
        "end",
        "sizeof",
        "exit",
        "reg",
        "ptr",
        "call",
        "return",
        "switch",
        "case",
        "default",
        "bool",
        "label",
    }
)

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "+=", "-=",
    "+", "-", "*", "/", "%", "=", "<", ">", "&", "|", "^", "~", "!",
    "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "@", "?",
]


@dataclass(frozen=True)
class Token:
    """One lexical token: kind is 'ident', 'keyword', 'int', 'op', or 'eof'."""

    kind: str
    text: str
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`LexError` on malformed input."""
    tokens: List[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(source)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for __ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, column
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start_line, start_col)
            advance(2)
            continue
        if ch.isdigit():
            start = i
            start_line, start_col = line, column
            if source.startswith("0x", i) or source.startswith("0X", i):
                advance(2)
                while i < n and (source[i].isdigit() or source[i] in "abcdefABCDEF"):
                    advance(1)
                text = source[start:i]
                if len(text) == 2:
                    raise LexError("malformed hex literal", start_line, start_col)
            else:
                while i < n and source[i].isdigit():
                    advance(1)
                text = source[start:i]
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise LexError(
                    f"malformed number {source[start:i + 1]!r}",
                    start_line, start_col,
                )
            tokens.append(Token("int", text, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_line, start_col = line, column
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            text = source[start:i]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, start_line, start_col))
            continue
        for op in _OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, column))
                advance(len(op))
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens
