"""Experiment harness: per-figure drivers and testbed builders.

Every table and figure of the paper's evaluation has one driver in
:mod:`repro.harness.experiments`; :mod:`repro.harness.testbed` builds the
Figure 11 topologies; :mod:`repro.harness.figures` holds the experiment
table that runs and renders every driver for the CLI.  The table is not
imported with the package, so importing the drivers alone stays cheap.
"""

from repro.harness.testbed import (
    HierarchicalTestbed,
    SinglePfeTestbed,
    SwitchMLTestbed,
    build_hierarchical_testbed,
    build_single_pfe_testbed,
    build_switchml_testbed,
)
from repro.harness import experiments

__all__ = [
    "HierarchicalTestbed",
    "SinglePfeTestbed",
    "SwitchMLTestbed",
    "build_hierarchical_testbed",
    "build_single_pfe_testbed",
    "build_switchml_testbed",
    "experiments",
]
