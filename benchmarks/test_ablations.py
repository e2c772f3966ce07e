"""Ablation benches for the design choices DESIGN.md calls out.

* RMW offload (§2.3) — engines next to memory vs thread-ownership locks.
* Multi-thread hash scanning (§5) — N timer threads vs one.
* Hierarchical aggregation (§4) — 3+3 workers over two PFEs + top level
  vs six workers on one PFE.
* 64-byte tail chunks (Figure 10) — the chunk-size latency trade-off.
"""

from repro.harness import experiments as exp


def test_ablation_rmw_offload(record):
    rows = record(exp.ablation_rmw_offload)
    rmw_us, lock_us = rows[0].value, rows[1].value
    # Offloading the update to the engine next to memory wins clearly:
    # the lock path pays two full memory round trips per update while
    # holding the location.
    assert lock_us > 2 * rmw_us


def test_ablation_scan_threads(record):
    rows = record(exp.ablation_scan_threads)
    sweep_us = {row.label: row.value for row in rows}
    # Each N-fold increase in scan threads cuts the sweep time ~N-fold.
    assert sweep_us["10 scan threads"] < sweep_us["1 scan threads"] / 5
    assert sweep_us["100 scan threads"] < sweep_us["10 scan threads"]


def test_ablation_hierarchy(record):
    rows = record(exp.ablation_hierarchy)
    values = {row.label: row.value for row in rows}
    # In the latency regime the extra level costs time (fabric hops and a
    # second aggregation pass)...
    assert (values["hierarchical, latency regime, window 4"]
            > values["single-level, latency regime, window 4"])
    # ...but once the stream saturates the RMW complex, spreading the add
    # load over three PFEs wins on completion time (§4's motivation).
    assert (values["hierarchical, saturating regime, window 256"]
            < values["single-level, saturating regime, window 256"])


def test_ablation_tail_chunks(record):
    rows = record(exp.ablation_tail_chunk)
    by_chunk = {row.label: row.value for row in rows}
    # Bigger chunks mean fewer Memory-and-Queueing-Subsystem round trips:
    # the hardware's 64-byte choice is the fastest of the sweep.
    assert (by_chunk["64-byte tail chunks"]
            < by_chunk["32-byte tail chunks"]
            < by_chunk["16-byte tail chunks"])
