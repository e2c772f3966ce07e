"""Shared helpers for the per-figure benchmark harness.

Each benchmark runs one experiment driver exactly once under
pytest-benchmark (the drivers are deterministic discrete-event
simulations, so repeated rounds would measure the same thing), records
the reproduced rows/series in ``benchmark.extra_info``, and prints the
table the harness CLI prints for it (its entry in
:data:`repro.harness.figures.SWEEPS`) so ``pytest benchmarks/
--benchmark-only -s`` regenerates the paper's evaluation output.
"""

from __future__ import annotations

import pytest

from repro.harness.figures import SWEEPS


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` once under the benchmark fixture; returns its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture
def record(benchmark, capsys):
    """Helper: run a driver once, render it, stash it in extra_info."""

    def _record(fn, **kwargs):
        result = run_once(benchmark, fn, **kwargs)
        rendered = SWEEPS[fn].render(result, **kwargs)
        benchmark.extra_info["rendered"] = rendered
        with capsys.disabled():
            print()
            print(rendered)
        return result

    return _record
