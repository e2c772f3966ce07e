"""Repository tooling: linters and checks that run in CI.

* :mod:`repro.tools.detlint` — static determinism linter over the
  simulator's own Python sources.
* :mod:`repro.tools.band` — the in-band check, report cell and
  ``--werror`` exit both calibration bridges share.
"""
