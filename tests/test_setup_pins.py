"""Full-precision pins of what each Trio-ML job set-up leaves behind.

A job is set up by the control plane alone (§4): a packed job record in
SRAM, its hash entry, the runtime the data plane reads, and an optional
straggler detector.  These tests pin that state for every aggregator of
the single-PFE testbed, the Figure 11(b) hierarchy and the two-device
hierarchy, and pin whether each aggregator's Results are final by
watching the Results it builds.  Two end-to-end numbers the set-ups
feed are pinned by ``repr``: the hierarchy ablation and the calibration
bridge's goodputs.
"""

from repro.collectives import calibrate as cal
from repro.harness import build_hierarchical_testbed, build_single_pfe_testbed
from repro.harness.experiments import ablation_hierarchy
from repro.sim import Environment
from repro.trioml import TrioMLJobConfig
from repro.trioml.protocol import decode_trio_ml
from repro.trioml.records import JobRecord
from tests.test_trioml_multidevice import build_two_device_hierarchy


def _level_state(handle):
    """One row per configured aggregator, in the handle's order."""
    rows = []
    for name, runtime in handle.runtimes.items():
        detector = handle.detectors.get(name)
        rows.append((
            name,
            runtime.record.pack().hex(),
            runtime.record.paddr,
            runtime.own_src_id,
            runtime.top_pfe,
            str(runtime.result_src_ip),
            str(runtime.result_dst_ip),
            None if detector is None
            else (detector.timeout_s, detector.num_threads),
        ))
    return rows


def _watch_finality(aggregators):
    """Record the ``final`` bit of every Result each aggregator builds."""
    finals = {name: set() for name in aggregators}

    def watch(name, aggregator):
        build = aggregator.generate_result

        def generate_result(*args, **kwargs):
            result = yield from build(*args, **kwargs)
            __, __, __, payload = result.parse_udp()
            finals[name].add(decode_trio_ml(payload)[0].final)
            return result

        aggregator.generate_result = generate_result

    for name, aggregator in aggregators.items():
        watch(name, aggregator)
    return finals


def _run(env, workers, gradients):
    procs = [env.process(worker.allreduce([1] * gradients))
             for worker in workers]
    env.run(until=env.all_of(procs))


CONFIG = dict(grads_per_packet=64, window=2, timeout_s=0.002,
              detector_threads=4)

SINGLE = [
    ("pfe1", "0000fff04002000000000aff0001ef0101010000000000000004000000"
     "000000000f000000000000000000000000000000000000000000000000",
     64, 0, None, "10.255.0.1", "239.1.1.1", (0.002, 4)),
]

HIERARCHICAL = [
    ("pfe4", "0000fff04002000000000aff0001ef0101010000000000000002000000"
     "0000000000000000300000000000000000000000000000000000000000",
     64, 0, None, "10.255.0.1", "239.1.1.1", (0.004, 4)),
    ("pfe1", "0000fff04002000000000aff00010aff00010000000000000003000000"
     "0000000007000000000000000000000000000000000000000000000000",
     64, 100, "pfe4", "10.255.0.1", "10.255.0.1", (0.002, 4)),
    ("pfe2", "0000fff04002000000000aff00010aff00010000000000000003000000"
     "0000000038000000000000000000000000000000000000000000000000",
     64, 101, "pfe4", "10.255.0.1", "10.255.0.1", (0.002, 4)),
]

TWO_DEVICE = [
    ("deviceA", "0000fff0400a000000000aff00010aff00020000000000000002000000"
     "0000000003000000000000000000000000000000000000000000000000",
     64, 100, None, "10.255.0.1", "10.255.0.2", None),
    ("deviceB", "0000fff0400a000000000aff0002ef0808080000000000000003000000"
     "0000000003000000100000000000000000000000000000000000000000",
     64, 0, None, "10.255.0.2", "239.8.8.8", None),
]


def test_single_pfe_setup_is_pinned():
    env = Environment()
    testbed = build_single_pfe_testbed(env, TrioMLJobConfig(**CONFIG),
                                       with_detector=True)
    assert _level_state(testbed.handle) == SINGLE
    assert list(testbed.handle.aggregators) == ["pfe1"]
    finals = _watch_finality(testbed.handle.aggregators)
    _run(env, testbed.workers, 128)
    assert finals == {"pfe1": {True}}


def test_hierarchical_setup_is_pinned():
    env = Environment()
    testbed = build_hierarchical_testbed(env, TrioMLJobConfig(**CONFIG),
                                         with_detector=True)
    assert _level_state(testbed.handle) == HIERARCHICAL
    assert list(testbed.handle.aggregators) == ["pfe4", "pfe1", "pfe2"]
    assert list(testbed.handle.detectors) == ["pfe4", "pfe1", "pfe2"]
    finals = _watch_finality(testbed.handle.aggregators)
    _run(env, testbed.workers, 128)
    assert finals == {"pfe4": {True}, "pfe1": {False}, "pfe2": {False}}


def test_two_device_setup_is_pinned():
    env = Environment()
    (__, __, a_workers, b_workers,
     handle_a, handle_b) = build_two_device_hierarchy(env)
    assert _level_state(handle_a) + _level_state(handle_b) == TWO_DEVICE
    finals = _watch_finality({**handle_a.aggregators, **handle_b.aggregators})
    _run(env, a_workers + b_workers, 64)
    assert finals == {"deviceA": {False}, "deviceB": {True}}


def test_sram_job_records_match_their_runtime_records():
    """Every set-up helper packs the job record it runs with into SRAM:
    the control plane's copy and the data plane's agree byte for byte."""
    env = Environment()
    config = TrioMLJobConfig(**CONFIG)
    handles = [
        build_single_pfe_testbed(env, config, with_detector=True).handle,
        build_hierarchical_testbed(env, config, with_detector=True).handle,
        *build_two_device_hierarchy(env)[4:],
    ]
    checked = 0
    for handle in handles:
        for name, runtime in handle.runtimes.items():
            memory = handle.aggregators[name].pfe.memory
            record = runtime.record
            assert memory.read_raw(record.paddr, JobRecord.SIZE) == (
                record.pack()), name
            checked += 1
    assert checked == 6


def test_hierarchy_ablation_is_pinned():
    assert repr(ablation_hierarchy(blocks=16, grads_per_packet=64,
                                   window=8)) == (
        "[AblationRow(label='single-level, latency regime, window 4', "
        "value=0.023268800000000006, unit='ms'), "
        "AblationRow(label='hierarchical, latency regime, window 4', "
        "value=0.041876399999999994, unit='ms'), "
        "AblationRow(label='single-level, saturating regime, window 8', "
        "value=0.011929466666666647, unit='ms'), "
        "AblationRow(label='hierarchical, saturating regime, window 8', "
        "value=0.0212564, unit='ms')]"
    )


def test_calibration_goodputs_are_pinned():
    goodputs = {name: (record.wire_goodput_bps, record.derived_goodput_bps)
                for name, record in cal.calibrate().items()}
    assert repr(goodputs) == (
        "{'trioml': (31744658040.307507, 31744658040.307507), "
        "'switchml': (78927298812.07423, 23154866453.47039)}"
    )
