"""Every import in the project's code is used.

An imported name counts as used when the module reads it as a ``Name``
or names it in a string constant; ``__all__`` entries and string
annotations are string constants.  ``bench/`` is not checked: its files
belong to the benchmark.
"""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
CHECKED = ("src", "tests", "benchmarks", "examples")
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def unused_imports(source, filename="<source>"):
    """``(line, name)`` of every imported name the module never uses."""
    imported = []
    used = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    # ``import a.b`` binds ``a``.
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((node.lineno, name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(_IDENTIFIER.findall(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_flagged():
    source = "import os\nimport sys as system\nfrom a import b\nb()\n"
    assert unused_imports(source) == [(1, "os"), (2, "system")]


def test_name_in_all_is_used():
    assert unused_imports('from a import b\n__all__ = ["b"]\n') == []


def test_name_in_string_annotation_is_used():
    assert unused_imports('from a import B\ndef f(x: "B"): pass\n') == []


def test_no_unused_imports():
    found = []
    for top in CHECKED:
        for dirpath, __, filenames in os.walk(os.path.join(ROOT, top)):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                found += [(os.path.relpath(path, ROOT), line, name)
                          for line, name in unused_imports(source, path)]
    assert not found, "unused imports:\n" + "\n".join(
        f"{path}:{line}: {name}" for path, line, name in sorted(found))
