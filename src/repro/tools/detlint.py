"""Determinism linter for the simulator's own Python sources.

The whole reproduction rests on one invariant: a simulation's result is a
pure function of its inputs.  That is what makes figures reproducible,
lets ``--parallel N`` fan sweep points across processes with bit-identical
output, and lets ``tests/test_determinism.py`` compare scheduled-event
fingerprints.  The invariant is easy to break silently — one
``random.random()`` (module-global RNG, shared mutable state), one
``time.time()`` leaking wall-clock into simulated behaviour, one
iteration over a ``set`` (ordering depends on string-hash randomisation
*per process*) feeding event scheduling — and results drift between runs
or between the serial and fanned-out paths.

``detlint`` walks each file's :mod:`ast` and reports:

==========  =========  ====================================================
code        severity   meaning
==========  =========  ====================================================
``DET101``  error      call to a module-level :mod:`random` function
                       (``random.random()``, ``random.seed()``, bare
                       ``shuffle()`` imported from random, ...) — these
                       share the interpreter-global RNG
``DET102``  error      ``random.Random()`` / ``SystemRandom()``
                       constructed without a seed argument
``DET103``  error      wall-clock call (``time.time``, ``perf_counter``,
                       ``datetime.now``, ...) in simulation code
``DET104``  error      iteration over a ``set``/``frozenset`` expression
                       (set literal, ``set(...)`` call, set
                       comprehension) — order varies across processes
``DET105``  warning    ``for`` over ``dict.values()/keys()/items()``
                       whose body schedules simulation events —
                       insertion-ordered, hence deterministic in-run,
                       but fragile against refactors; prefer an
                       explicitly ordered collection
``DET106``  error      ambient-environment read: ``os.environ`` access,
                       ``os.getenv(...)``, ``os.urandom(...)``, or
                       ``uuid.uuid4()`` — results depend on the host
                       environment or OS entropy, not on simulation
                       inputs
``DET107``  error      mutable default argument (``dict``/``list``/
                       ``set``/``bytearray`` literal, comprehension, or
                       bare constructor call) — the default is created
                       once at function definition and shared by every
                       call, so a mutation in one call leaks into the
                       next: hidden cross-call state, the same family
                       of bug as the global RNG
==========  =========  ====================================================

Findings are suppressed by a pragma comment on the offending line (give a
reason)::

    start = time.perf_counter()  # detlint: ok(wall-clock progress report)

or for a whole file with ``# detlint: skip-file`` near the top.  Usage::

    python -m repro.tools.detlint src             # lint a tree (CI gate)
    python -m repro.tools.detlint --list-codes
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence, Set

from repro.microcode.errors import Diagnostic, SourceSpan

__all__ = ["lint_file", "lint_source", "lint_tree", "main"]

#: Module-level random functions that draw from the shared global RNG.
_GLOBAL_RANDOM_FUNCS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
    "vonmisesvariate", "weibullvariate",
})

#: Wall-clock sources: calling any of these inside simulation code makes
#: behaviour depend on the host instead of on simulated time.
_WALLCLOCK_TIME_FUNCS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})
_WALLCLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Ambient-environment reads (for DET106): values that depend on the
#: host's environment variables or the OS entropy pool.
_OS_AMBIENT_FUNCS = frozenset({"getenv", "urandom"})
_UUID_AMBIENT_FUNCS = frozenset({"uuid1", "uuid4"})

#: Attribute calls that schedule simulation events (for DET105).
_SCHEDULING_ATTRS = frozenset({
    "process", "schedule", "call_later", "timeout", "delay", "succeed",
    "fail",
})

#: Bare constructor calls that build a fresh mutable container — as a
#: default argument these are just as shared as a literal (for DET107).
_MUTABLE_CTORS = frozenset({"dict", "list", "set", "bytearray"})

_PRAGMA = "detlint:"


@dataclass
class _Imports:
    """Names the module binds to the random/time/datetime machinery."""

    random_modules: Set[str] = dataclass_field(default_factory=set)
    random_funcs: Dict[str, str] = dataclass_field(default_factory=dict)
    random_classes: Set[str] = dataclass_field(default_factory=set)
    time_modules: Set[str] = dataclass_field(default_factory=set)
    time_funcs: Dict[str, str] = dataclass_field(default_factory=dict)
    datetime_modules: Set[str] = dataclass_field(default_factory=set)
    datetime_classes: Set[str] = dataclass_field(default_factory=set)
    os_modules: Set[str] = dataclass_field(default_factory=set)
    os_funcs: Dict[str, str] = dataclass_field(default_factory=dict)
    environ_names: Set[str] = dataclass_field(default_factory=set)
    uuid_modules: Set[str] = dataclass_field(default_factory=set)
    uuid_funcs: Dict[str, str] = dataclass_field(default_factory=dict)


def _collect_imports(tree: ast.Module) -> _Imports:
    imports = _Imports()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name == "random":
                    imports.random_modules.add(bound)
                elif alias.name == "time":
                    imports.time_modules.add(bound)
                elif alias.name == "datetime":
                    imports.datetime_modules.add(bound)
                elif alias.name == "os":
                    imports.os_modules.add(bound)
                elif alias.name == "uuid":
                    imports.uuid_modules.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in ("Random", "SystemRandom"):
                        imports.random_classes.add(bound)
                    elif alias.name in _GLOBAL_RANDOM_FUNCS:
                        imports.random_funcs[bound] = alias.name
            elif node.module == "time":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in _WALLCLOCK_TIME_FUNCS:
                        imports.time_funcs[bound] = alias.name
            elif node.module == "datetime":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in ("datetime", "date"):
                        imports.datetime_classes.add(bound)
            elif node.module == "os":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in _OS_AMBIENT_FUNCS:
                        imports.os_funcs[bound] = alias.name
                    elif alias.name == "environ":
                        imports.environ_names.add(bound)
            elif node.module == "uuid":
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if alias.name in _UUID_AMBIENT_FUNCS:
                        imports.uuid_funcs[bound] = alias.name
    return imports


class _Linter(ast.NodeVisitor):
    def __init__(self, imports: _Imports, filename: str):
        self.imports = imports
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []

    # -- helpers ----------------------------------------------------------

    def _diag(self, severity: str, code: str, message: str,
              node: ast.AST, notes: Optional[List[str]] = None) -> None:
        self.diagnostics.append(Diagnostic(
            severity, code, message,
            SourceSpan(node.lineno, getattr(node, "col_offset", 0),
                       self.filename),
            notes=notes or [],
        ))

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")):
            return True
        return False

    # -- random -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name)
                    and base.id in self.imports.random_modules):
                if func.attr in _GLOBAL_RANDOM_FUNCS:
                    self._diag(
                        "error", "DET101",
                        f"call to module-level random.{func.attr}(): the "
                        "global RNG is shared mutable state",
                        node,
                        notes=["derive a stream from the simulation "
                               "Environment instead: env.rng_stream(key)"],
                    )
                elif (func.attr in ("Random", "SystemRandom")
                        and not node.args and not node.keywords):
                    self._diag(
                        "error", "DET102",
                        f"random.{func.attr}() constructed without a "
                        "seed: every run draws a different stream",
                        node,
                    )
            elif (isinstance(base, ast.Name)
                    and base.id in self.imports.time_modules
                    and func.attr in _WALLCLOCK_TIME_FUNCS):
                self._diag(
                    "error", "DET103",
                    f"wall-clock call time.{func.attr}() in simulation "
                    "code: results must be a function of simulated time "
                    "only (env.now)",
                    node,
                )
            elif (func.attr in _WALLCLOCK_DATETIME_FUNCS
                    and isinstance(base, ast.Name)
                    and base.id in self.imports.datetime_classes):
                self._diag(
                    "error", "DET103",
                    f"wall-clock call {base.id}.{func.attr}() in "
                    "simulation code",
                    node,
                )
            elif (func.attr in _WALLCLOCK_DATETIME_FUNCS
                    and isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id in self.imports.datetime_modules):
                self._diag(
                    "error", "DET103",
                    f"wall-clock call datetime.{base.attr}."
                    f"{func.attr}() in simulation code",
                    node,
                )
            elif (isinstance(base, ast.Name)
                    and base.id in self.imports.os_modules
                    and func.attr in _OS_AMBIENT_FUNCS):
                self._diag(
                    "error", "DET106",
                    f"ambient-environment read os.{func.attr}(): the "
                    "result depends on the host, not on simulation "
                    "inputs",
                    node,
                    notes=["thread configuration in explicitly, or "
                           "derive bytes from env.rng_stream(key)"],
                )
            elif (isinstance(base, ast.Name)
                    and base.id in self.imports.uuid_modules
                    and func.attr in _UUID_AMBIENT_FUNCS):
                self._diag(
                    "error", "DET106",
                    f"ambient-environment read uuid.{func.attr}(): "
                    "draws from the OS entropy pool / host identity, "
                    "so every run produces different ids",
                    node,
                    notes=["derive stable ids from simulation inputs "
                           "(e.g. a counter or env.rng_stream(key))"],
                )
        elif isinstance(func, ast.Name):
            if func.id in self.imports.random_funcs:
                original = self.imports.random_funcs[func.id]
                self._diag(
                    "error", "DET101",
                    f"call to module-level random function "
                    f"{func.id}() (random.{original}): the global RNG "
                    "is shared mutable state",
                    node,
                )
            elif (func.id in self.imports.random_classes
                    and not node.args and not node.keywords):
                self._diag(
                    "error", "DET102",
                    f"{func.id}() constructed without a seed: every "
                    "run draws a different stream",
                    node,
                )
            elif func.id in self.imports.time_funcs:
                original = self.imports.time_funcs[func.id]
                self._diag(
                    "error", "DET103",
                    f"wall-clock call {func.id}() (time.{original}) in "
                    "simulation code",
                    node,
                )
            elif func.id in self.imports.os_funcs:
                original = self.imports.os_funcs[func.id]
                self._diag(
                    "error", "DET106",
                    f"ambient-environment read {func.id}() "
                    f"(os.{original}): the result depends on the host, "
                    "not on simulation inputs",
                    node,
                )
            elif func.id in self.imports.uuid_funcs:
                original = self.imports.uuid_funcs[func.id]
                self._diag(
                    "error", "DET106",
                    f"ambient-environment read {func.id}() "
                    f"(uuid.{original}): draws from the OS entropy "
                    "pool, so every run produces different ids",
                    node,
                )
        self.generic_visit(node)

    # -- ambient environment (DET106) -------------------------------------

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (node.attr == "environ" and isinstance(node.value, ast.Name)
                and node.value.id in self.imports.os_modules):
            self._diag(
                "error", "DET106",
                "ambient-environment read via os.environ: behaviour "
                "becomes a function of the host's environment variables",
                node,
                notes=["thread configuration in explicitly (CLI flag or "
                       "config object) instead of reading the "
                       "environment"],
            )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (isinstance(node.ctx, ast.Load)
                and node.id in self.imports.environ_names):
            self._diag(
                "error", "DET106",
                f"ambient-environment read via {node.id} (os.environ): "
                "behaviour becomes a function of the host's environment "
                "variables",
                node,
            )
        self.generic_visit(node)

    # -- mutable default arguments (DET107) -------------------------------

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set,
                             ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _MUTABLE_CTORS)

    def _check_defaults(self, node: ast.AST) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None and self._is_mutable_default(default):
                self._diag(
                    "error", "DET107",
                    "mutable default argument: created once at function "
                    "definition and shared by every call, so mutations "
                    "leak across calls",
                    default,
                    notes=["use None as the sentinel and build the "
                           "container inside the function body"],
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- set / dict-view iteration ---------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self._diag(
                "error", "DET104",
                "iteration over a set: element order depends on "
                "per-process string-hash randomisation",
                iter_node,
                notes=["wrap in sorted(...) or keep an ordered "
                       "collection alongside the set"],
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self._check_dict_view_scheduling(node)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehensions(self, node: ast.AST) -> None:
        for comp in node.generators:
            self._check_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehensions
    visit_SetComp = _visit_comprehensions
    visit_DictComp = _visit_comprehensions
    visit_GeneratorExp = _visit_comprehensions

    def _check_dict_view_scheduling(self, node: ast.For) -> None:
        iter_node = node.iter
        if not (isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in ("values", "keys", "items")
                and not iter_node.args):
            return
        schedules = [
            sub for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _SCHEDULING_ATTRS
        ]
        if schedules:
            self._diag(
                "warning", "DET105",
                f"for-loop over dict.{iter_node.func.attr}() schedules "
                "simulation events: order is insertion order today, but "
                "any change to the fill order silently reorders events",
                iter_node,
                notes=["prefer an explicitly ordered list, or document "
                       "the insertion order with a pragma"],
            )


def _pragma_lines(source: str) -> Set[int]:
    """1-based line numbers carrying a ``# detlint: ok`` pragma."""
    lines: Set[int] = set()
    for number, text in enumerate(source.splitlines(), start=1):
        marker = text.find("#")
        while marker != -1:
            comment = text[marker + 1:].strip()
            if comment.startswith(_PRAGMA):
                directive = comment[len(_PRAGMA):].strip()
                if directive.startswith("ok"):
                    lines.add(number)
                break
            marker = text.find("#", marker + 1)
    return lines


def _skip_file(source: str) -> bool:
    head = source.splitlines()[:5]
    return any("detlint: skip-file" in line for line in head)


def lint_source(source: str, filename: str = "<source>"
                ) -> List[Diagnostic]:
    """Lint Python source text; returns unsuppressed diagnostics."""
    if _skip_file(source):
        return []
    tree = ast.parse(source, filename=filename)
    linter = _Linter(_collect_imports(tree), filename)
    linter.visit(tree)
    suppressed = _pragma_lines(source)
    return [
        diag for diag in linter.diagnostics
        if diag.span is None or diag.span.line not in suppressed
    ]


def lint_file(path: str) -> List[Diagnostic]:
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), filename=path)


def _tree_files(root: str) -> List[str]:
    """Every ``.py`` file under ``root``, in deterministic order."""
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        paths.extend(os.path.join(dirpath, name)
                     for name in sorted(filenames) if name.endswith(".py"))
    return paths


def lint_tree(root: str) -> List[Diagnostic]:
    """Lint every ``.py`` file under ``root`` (deterministic order)."""
    diagnostics: List[Diagnostic] = []
    for path in _tree_files(root):
        diagnostics.extend(lint_file(path))
    return diagnostics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.detlint",
        description="Determinism linter: flags unseeded randomness, "
                    "wall-clock reads, and order-unstable iteration in "
                    "simulation code.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--list-codes", action="store_true",
                        help="print the diagnostic codes and exit")
    args = parser.parse_args(argv)

    if args.list_codes:
        print(__doc__)
        return 0
    if not args.paths:
        parser.error("give files or directories to lint")

    files: List[str] = []
    for path in args.paths:
        files.extend(_tree_files(path) if os.path.isdir(path) else [path])
    diagnostics: List[Diagnostic] = []
    unreadable = False
    for path in files:
        try:
            diagnostics.extend(lint_file(path))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            print(f"error: {path}: {reason}", file=sys.stderr)
            unreadable = True

    sources: Dict[str, str] = {}
    for diag in diagnostics:
        if diag.span and diag.span.filename not in sources:
            try:
                with open(diag.span.filename, "r", encoding="utf-8") as fh:
                    sources[diag.span.filename] = fh.read()
            except OSError:
                sources[diag.span.filename] = ""
    for diag in diagnostics:
        source = sources.get(diag.span.filename) if diag.span else None
        print(diag.render(source.splitlines() if source else None))
        print()

    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    print(f"detlint: {errors} error(s), {warnings} warning(s)")
    return 1 if diagnostics or unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
