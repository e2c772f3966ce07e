"""trio-repro: a full-system reproduction of *Using Trio — Juniper
Networks' Programmable Chipset — for Emerging In-Network Applications*
(SIGCOMM 2022).

Subpackages, bottom-up:

* :mod:`repro.sim` — discrete-event simulation kernel.
* :mod:`repro.net` — byte-accurate packets, links, NICs, hosts.
* :mod:`repro.trio` — the Trio chipset: PFEs, multi-threaded PPEs, the
  Shared Memory System with read-modify-write engines, hash block, timer
  threads, multi-PFE routers, AFI, and vMX.
* :mod:`repro.microcode` — the Microcode language, Trio Compiler, and
  interpreter.
* :mod:`repro.pisa` / :mod:`repro.switchml` — the PISA/Tofino model and
  the SwitchML baseline.
* :mod:`repro.trioml` — the Trio-ML in-network aggregation application
  with timer-thread straggler mitigation.
* :mod:`repro.ml` — DNN training workload models.
* :mod:`repro.harness` — experiment drivers for every table and figure.

See DESIGN.md for the architecture and EXPERIMENTS.md for
paper-vs-measured results.
"""

__version__ = "1.0.0"
