"""repro.obs — observability for the simulated data plane.

Three pieces, one switch:

* :mod:`repro.obs.metrics` — labeled ``Counter``/``Gauge``/``Histogram``
  registry with deterministic JSON snapshots and a Prometheus-style
  text dump;
* :mod:`repro.obs.trace` — span/instant/counter tracer on the simulated
  clock exporting Chrome ``trace_event`` JSON (Perfetto-loadable) plus
  an ASCII timeline renderer;
* :mod:`repro.obs.bus` — the active :class:`ObsSession`, or None while
  observability is off.  Every recording site asks ``obs.session()``
  once and records only through the session it returns, so
  instrumented code costs one ``is not None`` test when off.

Typical use::

    from repro import obs

    session = obs.enable()
    run_experiment()
    obs.disable()
    print(session.registry.render_prom())
    json.dump(session.tracer.to_chrome(), open("trace.json", "w"))

or from the harness: ``python -m repro.harness profile fig15 --fast
--trace out.json --metrics metrics.json``.

Everything here is deterministic: probes read only the simulated clock,
never schedule events, and never draw randomness (detlint-enforced), so
observed runs stay bit-identical to unobserved runs and parallel sweeps
snapshot identically to serial ones.
"""

from repro.obs.bus import (
    CapturedWorker,
    ObsSession,
    disable,
    enable,
    enabled,
    session,
    suppressed,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
)
from repro.obs.trace import Tracer, render_timeline, validate_chrome_trace

__all__ = [
    "CapturedWorker",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsSession",
    "SNAPSHOT_SCHEMA",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "render_timeline",
    "session",
    "suppressed",
    "validate_chrome_trace",
]
