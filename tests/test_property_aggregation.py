"""Property-based end-to-end tests: aggregation is exact summation.

Whatever the gradient values, worker count, block size, and window, both
in-network aggregation systems must return the exact per-index int32 sum
to every worker — the core correctness invariant of the reproduction.
"""

from hypothesis import given, settings, strategies as st

from repro.harness import build_single_pfe_testbed, build_switchml_testbed
from repro.sim import Environment
from repro.switchml.switch import SwitchMLJob
from repro.trioml import TrioMLJobConfig

_small_int32 = st.integers(min_value=-2**24, max_value=2**24)


@settings(max_examples=15, deadline=None)
@given(
    num_workers=st.integers(min_value=2, max_value=4),
    grads_per_packet=st.sampled_from([16, 64, 160]),
    window=st.integers(min_value=1, max_value=6),
    num_gradients=st.integers(min_value=1, max_value=400),
    data=st.data(),
)
def test_trioml_allreduce_is_exact_summation(num_workers, grads_per_packet,
                                             window, num_gradients, data):
    env = Environment()
    config = TrioMLJobConfig(grads_per_packet=grads_per_packet,
                             window=window)
    testbed = build_single_pfe_testbed(env, config,
                                       num_workers=num_workers)
    vectors = [
        data.draw(st.lists(_small_int32, min_size=num_gradients,
                           max_size=num_gradients))
        for __ in range(num_workers)
    ]
    expected = [sum(v[i] for v in vectors) for i in range(num_gradients)]
    procs = testbed.run_allreduce(vectors)
    env.run(until=env.all_of(procs))
    for proc in procs:
        flat = [v for block in proc.value for v in block.values]
        assert flat[:num_gradients] == expected
        assert all(block.src_cnt == num_workers for block in proc.value)


@settings(max_examples=10, deadline=None)
@given(
    num_workers=st.integers(min_value=2, max_value=3),
    pool_size=st.integers(min_value=1, max_value=4),
    num_gradients=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_switchml_allreduce_is_exact_summation(num_workers, pool_size,
                                               num_gradients, data):
    env = Environment()
    job = SwitchMLJob(num_workers=num_workers, pool_size=pool_size,
                      grads_per_packet=64)
    testbed = build_switchml_testbed(env, job)
    vectors = [
        data.draw(st.lists(_small_int32, min_size=num_gradients,
                           max_size=num_gradients))
        for __ in range(num_workers)
    ]
    expected = [sum(v[i] for v in vectors) for i in range(num_gradients)]
    procs = testbed.run_allreduce(vectors)
    env.run(until=env.all_of(procs))
    for proc in procs:
        assert proc.value == expected


@settings(max_examples=8, deadline=None)
@given(
    loss_seedling=st.integers(min_value=1, max_value=1000),
    num_gradients=st.integers(min_value=32, max_value=256),
)
def test_trioml_exact_under_loss_with_recovery(loss_seedling,
                                               num_gradients):
    """Loss never corrupts sums, only delays them (with recovery on)."""
    env = Environment()
    config = TrioMLJobConfig(grads_per_packet=32, window=4,
                             loss_recovery=True,
                             retransmit_timeout_s=0.001)
    testbed = build_single_pfe_testbed(
        env, config, num_workers=3, link_loss_rate=0.05,
    )
    # Distinct per-worker constants make cross-contamination visible.
    vectors = [[(w + 1) * 7] * num_gradients for w in range(3)]
    expected_value = 7 + 14 + 21
    procs = testbed.run_allreduce(vectors)
    env.run(until=env.all_of(procs))
    for proc in procs:
        flat = [v for block in proc.value for v in block.values]
        assert flat[:num_gradients] == [expected_value] * num_gradients
