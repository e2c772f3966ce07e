#!/usr/bin/env python3
"""Head-to-head: SwitchML on Tofino vs Trio-ML on Trio, with a straggler.

Runs the same small allreduce twice at packet level:

* SwitchML on the PISA model — its pool slots need **every** worker, so a
  straggling worker stalls everyone for the full straggle duration;
* Trio-ML on the Trio model with timer-thread straggler detection — the
  healthy workers receive partial results within ~2x the timeout.

This is the packet-level mechanism behind the Figure 13 gap.  The same
two systems also exist as closed-form plugins in the collective-backend
registry (``repro.collectives``); the run ends by asking each backend
what it *predicts* the straggle costs, so you can see the packet level
and the training-level model agree.

Run:  python examples/switchml_vs_trioml.py
"""

from repro.collectives import get_backend
from repro.harness import build_single_pfe_testbed, build_switchml_testbed
from repro.sim import Environment
from repro.switchml.switch import SwitchMLJob
from repro.trioml import TrioMLJobConfig

NUM_WORKERS = 4
GRADS_PER_PACKET = 64
BLOCKS = 8
STRAGGLE_S = 0.030  # 30 ms sleep before chunk 2
TIMEOUT_S = 0.005   # Trio-ML detection timeout


def straggle_hook(worker_index):
    if worker_index != 3:
        return None
    return lambda chunk_id: STRAGGLE_S if chunk_id == 2 else 0.0


def run_switchml() -> float:
    env = Environment()
    job = SwitchMLJob(num_workers=NUM_WORKERS, pool_size=4,
                      grads_per_packet=GRADS_PER_PACKET)
    testbed = build_switchml_testbed(env, job, hook_factory=straggle_hook)
    vector = [1] * (GRADS_PER_PACKET * BLOCKS)
    procs = testbed.run_allreduce([vector] * NUM_WORKERS)
    finish = {}

    def watch(index, proc):
        yield proc
        finish[index] = env.now

    for index, proc in enumerate(procs):
        env.process(watch(index, proc))
    env.run(until=env.all_of(procs))
    healthy = max(t for i, t in finish.items() if i != 3)
    return healthy


def run_trioml() -> float:
    env = Environment()
    config = TrioMLJobConfig(
        grads_per_packet=GRADS_PER_PACKET, window=4,
        timeout_s=TIMEOUT_S, detector_threads=10,
    )
    testbed = build_single_pfe_testbed(
        env, config, num_workers=NUM_WORKERS, with_detector=True,
        hook_factory=straggle_hook,
    )
    vector = [1] * (GRADS_PER_PACKET * BLOCKS)
    procs = testbed.run_allreduce([vector] * NUM_WORKERS)
    finish = {}

    def watch(index, proc):
        yield proc
        finish[index] = env.now

    for index, proc in enumerate(procs):
        env.process(watch(index, proc))
    env.run(until=env.all_of(procs))
    healthy = max(t for i, t in finish.items() if i != 3)
    return healthy


def closed_form_predictions() -> dict:
    """What each registered backend predicts the straggle costs.

    The backends' ``iteration_duration`` encapsulates exactly the
    semantics the packet level just demonstrated: SwitchML absorbs the
    straggler's full delay, Trio-ML caps it at the detection bound.
    """
    delays = {3: STRAGGLE_S}
    predictions = {}
    for name in ("switchml", "trioml"):
        backend = get_backend(name)
        duration, mitigated = backend.iteration_duration(
            compute_s=0.0, comm_s=0.0, delays=delays,
            mitigation_bound_s=2 * TIMEOUT_S,
        )
        predictions[name] = (backend.display_name, duration, mitigated)
    return predictions


def main() -> None:
    switchml_s = run_switchml()
    trioml_s = run_trioml()
    print(f"one worker straggles for {STRAGGLE_S * 1e3:.0f} ms mid-allreduce\n")
    print(f"SwitchML: healthy workers finish at {switchml_s * 1e3:7.2f} ms "
          "(stalled for the whole straggle)")
    print(f"Trio-ML:  healthy workers finish at {trioml_s * 1e3:7.2f} ms "
          f"(partial results within ~2x the {TIMEOUT_S * 1e3:.0f} ms timeout)")
    print(f"\nspeedup for the healthy workers: {switchml_s / trioml_s:.2f}x")

    print("\nclosed-form backends (repro.collectives) predict the same "
          "straggle overhead:")
    for name, (label, duration, mitigated) in (
            closed_form_predictions().items()):
        tag = "mitigated" if mitigated else "absorbed in full"
        print(f"  {label:<14} +{duration * 1e3:6.2f} ms ({tag})")


if __name__ == "__main__":
    main()
