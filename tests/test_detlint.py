"""Unit tests for the determinism linter (``repro.tools.detlint``)."""

import os
import textwrap

import pytest

from repro.tools.detlint import lint_source, lint_tree, main


def _codes(diagnostics):
    return [diag.code for diag in diagnostics]


def _lint(snippet):
    return lint_source(textwrap.dedent(snippet))


# ---------------------------------------------------------------------------
# DET101 — module-level random functions (interpreter-global RNG).
# ---------------------------------------------------------------------------

def test_global_random_call_flagged():
    diags = _lint("""
        import random
        x = random.random()
    """)
    assert _codes(diags) == ["DET101"]
    assert diags[0].severity == "error"
    assert diags[0].span.line == 3


def test_global_random_call_via_module_alias():
    diags = _lint("""
        import random as rnd
        rnd.shuffle(items)
    """)
    assert _codes(diags) == ["DET101"]


def test_from_import_random_function_flagged():
    diags = _lint("""
        from random import uniform as uni
        delay = uni(0.5, 2.0)
    """)
    assert _codes(diags) == ["DET101"]
    assert "random.uniform" in diags[0].message


def test_seeded_instance_methods_are_fine():
    diags = _lint("""
        import random
        rng = random.Random(42)
        x = rng.random()
        rng.shuffle(items)
    """)
    assert diags == []


# ---------------------------------------------------------------------------
# DET102 — unseeded Random construction.
# ---------------------------------------------------------------------------

def test_unseeded_random_flagged():
    diags = _lint("""
        import random
        rng = random.Random()
    """)
    assert _codes(diags) == ["DET102"]


def test_unseeded_random_from_import_flagged():
    diags = _lint("""
        from random import Random
        rng = Random()
    """)
    assert _codes(diags) == ["DET102"]


def test_seeded_random_is_fine():
    diags = _lint("""
        import random
        a = random.Random(0)
        b = random.Random(seed)
    """)
    assert diags == []


# ---------------------------------------------------------------------------
# DET103 — wall-clock reads.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    "time.time()", "time.perf_counter()", "time.monotonic()",
    "time.process_time()",
])
def test_time_module_calls_flagged(call):
    diags = _lint(f"""
        import time
        start = {call}
    """)
    assert _codes(diags) == ["DET103"]


def test_from_import_time_flagged():
    diags = _lint("""
        from time import perf_counter
        start = perf_counter()
    """)
    assert _codes(diags) == ["DET103"]


def test_datetime_now_flagged():
    diags = _lint("""
        from datetime import datetime
        stamp = datetime.now()
    """)
    assert _codes(diags) == ["DET103"]


def test_datetime_module_attribute_flagged():
    diags = _lint("""
        import datetime
        stamp = datetime.datetime.utcnow()
    """)
    assert _codes(diags) == ["DET103"]


def test_time_sleep_is_fine():
    # Not a clock *read*; duration does not leak into results.
    assert _lint("""
        import time
        time.sleep(1)
    """) == []


# ---------------------------------------------------------------------------
# DET104 / DET105 — order-unstable iteration.
# ---------------------------------------------------------------------------

def test_iterating_a_set_literal_flagged():
    diags = _lint("""
        for item in {3, 1, 2}:
            handle(item)
    """)
    assert _codes(diags) == ["DET104"]


def test_iterating_a_set_call_flagged():
    diags = _lint("""
        for item in set(names):
            handle(item)
    """)
    assert _codes(diags) == ["DET104"]


def test_set_comprehension_iter_flagged():
    diags = _lint("""
        rows = [f(x) for x in {a, b}]
    """)
    assert _codes(diags) == ["DET104"]


def test_sorted_set_is_fine():
    assert _lint("""
        for item in sorted(set(names)):
            handle(item)
    """) == []


def test_dict_values_feeding_scheduler_warned():
    diags = _lint("""
        for worker in workers.values():
            env.process(worker.run())
    """)
    assert _codes(diags) == ["DET105"]
    assert diags[0].severity == "warning"


def test_dict_values_without_scheduling_is_fine():
    assert _lint("""
        for worker in workers.values():
            total += worker.count
    """) == []


# ---------------------------------------------------------------------------
# DET106 — ambient-environment reads (host env vars, OS entropy).
# ---------------------------------------------------------------------------

def test_os_environ_access_flagged():
    diags = _lint("""
        import os
        mode = os.environ.get("MODE")
    """)
    assert _codes(diags) == ["DET106"]
    assert diags[0].severity == "error"
    assert "os.environ" in diags[0].message


def test_os_environ_subscript_flagged():
    diags = _lint("""
        import os
        key = os.environ["KEY"]
    """)
    assert _codes(diags) == ["DET106"]


def test_os_getenv_flagged():
    diags = _lint("""
        import os
        debug = os.getenv("DEBUG", "0")
    """)
    assert _codes(diags) == ["DET106"]


def test_from_import_environ_and_getenv_flagged():
    diags = _lint("""
        from os import environ, getenv as ge
        a = environ["A"]
        b = ge("B")
    """)
    assert _codes(diags) == ["DET106", "DET106"]


def test_os_urandom_flagged():
    diags = _lint("""
        import os
        salt = os.urandom(16)
    """)
    assert _codes(diags) == ["DET106"]
    assert "os.urandom" in diags[0].message


def test_uuid4_flagged():
    diags = _lint("""
        import uuid
        from uuid import uuid4
        a = uuid.uuid4()
        b = uuid4()
    """)
    assert _codes(diags) == ["DET106", "DET106"]


def test_os_path_and_walk_are_fine():
    # Only the ambient reads are flagged, not ordinary os usage.
    assert _lint("""
        import os
        for root, dirs, files in os.walk("src"):
            p = os.path.join(root, "x")
    """) == []


def test_uuid5_is_fine():
    # uuid5 is a pure function of its inputs (namespace + name).
    assert _lint("""
        import uuid
        ident = uuid.uuid5(uuid.NAMESPACE_DNS, "node-1")
    """) == []


def test_det106_pragma_escape():
    diags = _lint("""
        import os
        home = os.environ.get("HOME")  # detlint: ok(artifact output dir)
    """)
    assert diags == []


# ---------------------------------------------------------------------------
# DET107: mutable default arguments.
# ---------------------------------------------------------------------------

def test_mutable_default_literal_flagged():
    diags = _lint("""
        def f(pinned={}):
            return pinned

        def g(path=[], seen=set()):
            return path, seen
    """)
    assert _codes(diags) == ["DET107", "DET107", "DET107"]


def test_mutable_default_constructor_call_flagged():
    diags = _lint("""
        def f(table=dict(), row=list(), buf=bytearray()):
            return table
    """)
    assert _codes(diags) == ["DET107", "DET107", "DET107"]


def test_mutable_default_kwonly_and_lambda_flagged():
    diags = _lint("""
        def f(*, acc=[]):
            return acc

        g = lambda xs={}: xs
    """)
    assert _codes(diags) == ["DET107", "DET107"]


def test_none_sentinel_and_immutable_defaults_are_fine():
    assert _lint("""
        def f(pinned=None, sig=(), name="x", k=3):
            if pinned is None:
                pinned = {}
            return pinned, sig, name, k
    """) == []


def test_mutable_default_pragma_escape():
    assert _lint("""
        def f(shared={}):  # detlint: ok(intentional cross-call memo)
            return shared
    """) == []


# ---------------------------------------------------------------------------
# Suppression.
# ---------------------------------------------------------------------------

def test_pragma_suppresses_finding_on_its_line():
    diags = _lint("""
        import time
        a = time.time()  # detlint: ok(benchmark harness)
        b = time.time()
    """)
    assert _codes(diags) == ["DET103"]
    assert diags[0].span.line == 4


def test_skip_file_pragma():
    assert _lint("""
        # detlint: skip-file
        import random
        x = random.random()
    """) == []


# ---------------------------------------------------------------------------
# CLI and tree walking.
# ---------------------------------------------------------------------------

def test_lint_tree_and_cli(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    good = tmp_path / "good.py"
    good.write_text("import random\nrng = random.Random(7)\n")
    diags = lint_tree(str(tmp_path))
    assert _codes(diags) == ["DET101"]
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET101" in out and "bad.py" in out
    assert main([str(good)]) == 0


def test_cli_reports_missing_and_unparsable_files(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\n")
    missing = tmp_path / "missing.py"
    assert main([str(missing), str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert f"error: {missing}: No such file or directory" in captured.err
    assert f"error: {broken}: invalid syntax" in captured.err
    assert "DET101" in captured.out  # the parsable file is still linted


def test_repo_sources_are_clean():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    diags = lint_tree(src)
    assert diags == [], [f"{d.code}@{d.span.filename}:{d.span.line}"
                         for d in diags]
