"""Labeled metrics: Counter, Gauge, Histogram, and their registry.

The registry is the metrics half of :mod:`repro.obs`.  Every metric is a
named family of *series* keyed by label values (``Counter("sim.events",
labels=("kind",))`` holds one monotonic value per event class), and the
whole registry snapshots to a plain-dict document that is

* deterministic — metric families and series are emitted in sorted
  order, so two runs that made the same observations produce equal
  snapshots byte-for-byte when JSON-encoded with ``sort_keys``;
* mergeable — :meth:`MetricsRegistry.merge` folds a snapshot from
  another registry (typically a ``--parallel`` worker process) into this
  one: counters and histograms add, gauges keep the last merged value.
  Merging per-point snapshots in sweep order makes a parallel run's
  aggregate bit-identical to a serial run's.

Exports: :meth:`MetricsRegistry.snapshot` (plain dict), ``to_json``,
and :meth:`MetricsRegistry.render_prom` (Prometheus text exposition).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
]

SNAPSHOT_SCHEMA = "trio-repro/obs-metrics/v1"

#: Default histogram buckets: decades from 1 ns to 10 s — wide enough
#: for every simulated-latency family without per-call-site tuning.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-9, 2))


def _json_number(value: float):
    """Integral floats snapshot as ints (tidier JSON, still deterministic)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


class _Metric:
    """Shared machinery: a named family of label-keyed series."""

    kind = "metric"

    __slots__ = ("name", "help", "label_names", "_series")

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = ()):
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: Dict[Tuple[str, ...], object] = {}

    def _key(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if len(labels) != len(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        try:
            return tuple(str(labels[label]) for label in self.label_names)
        except KeyError as exc:
            raise ValueError(
                f"{self.name}: missing label {exc.args[0]!r} "
                f"(expected {self.label_names})"
            ) from None


class Counter(_Metric):
    """Monotonically increasing value per label set."""

    kind = "counter"
    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(f"{self.name}: counters only go up, got {value}")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._series.get(self._key(labels), 0.0)

    def _snapshot_series(self, key: Tuple[str, ...]) -> dict:
        return {"labels": list(key),
                "value": _json_number(self._series[key])}

    def _merge_series(self, key: Tuple[str, ...], data: dict) -> None:
        self._series[key] = self._series.get(key, 0.0) + data["value"]


class Gauge(_Metric):
    """Last-written value per label set (set/add semantics)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels) -> None:
        self._series[self._key(labels)] = value

    def add(self, value: float, **labels) -> None:
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels) -> float:
        return self._series.get(self._key(labels), 0.0)

    def _snapshot_series(self, key: Tuple[str, ...]) -> dict:
        return {"labels": list(key),
                "value": _json_number(self._series[key])}

    def _merge_series(self, key: Tuple[str, ...], data: dict) -> None:
        # Gauges are point-in-time readings; the last merged snapshot
        # wins.  Merge order is the sweep-point order, so this stays
        # deterministic (and identical between serial and parallel runs).
        self._series[key] = data["value"]


class _HistSeries:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, num_buckets: int):
        self.bucket_counts = [0] * (num_buckets + 1)  # + overflow bucket
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None


class Histogram(_Metric):
    """Bucketed distribution with count/sum/min/max per label set."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self, name: str, help: str = "",
                 label_names: Tuple[str, ...] = (),
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, label_names)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"{self.name}: need at least one bucket bound")

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        series.bucket_counts[index] += 1
        series.count += 1
        series.sum += value
        series.min = value if series.min is None else min(series.min, value)
        series.max = value if series.max is None else max(series.max, value)

    def stats(self, **labels) -> Optional[dict]:
        series = self._series.get(self._key(labels))
        if series is None:
            return None
        return {"count": series.count, "sum": series.sum,
                "min": series.min, "max": series.max}

    def _snapshot_series(self, key: Tuple[str, ...]) -> dict:
        series = self._series[key]
        return {
            "labels": list(key),
            "count": series.count,
            "sum": series.sum,
            "min": series.min,
            "max": series.max,
            "bucket_counts": list(series.bucket_counts),
        }

    def _merge_series(self, key: Tuple[str, ...], data: dict) -> None:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        incoming = data["bucket_counts"]
        if len(incoming) != len(series.bucket_counts):
            raise ValueError(
                f"{self.name}: bucket layout mismatch on merge "
                f"({len(incoming)} vs {len(series.bucket_counts)})"
            )
        for i, count in enumerate(incoming):
            series.bucket_counts[i] += count
        series.count += data["count"]
        series.sum += data["sum"]
        for attr, pick in (("min", min), ("max", max)):
            theirs = data[attr]
            if theirs is None:
                continue
            ours = getattr(series, attr)
            setattr(series, attr,
                    theirs if ours is None else pick(ours, theirs))


class MetricsRegistry:
    """Name-keyed collection of metrics with get-or-create accessors."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Tuple[str, ...], **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(
                name, help=help, label_names=tuple(labels), **kwargs
            )
            return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"{name} already registered as {metric.kind}, "
                f"wanted {cls.kind}"
            )
        if metric.label_names != tuple(labels):
            raise ValueError(
                f"{name}: label mismatch — registered "
                f"{metric.label_names}, requested {tuple(labels)}"
            )
        return metric

    def counter(self, name: str, help: str = "",
                labels: Tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Tuple[str, ...] = (),
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, labels,
                                     buckets=buckets)
        if metric.buckets != tuple(sorted(buckets)):
            raise ValueError(f"{name}: bucket layout mismatch")
        return metric

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict document of every metric, deterministically ordered."""
        metrics = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            entry = {
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.label_names),
                "series": [
                    metric._snapshot_series(key)
                    for key in sorted(metric._series)
                ],
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            metrics[name] = entry
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise ValueError(
                f"not a metrics snapshot: schema={snapshot.get('schema')!r}"
            )
        kinds = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
        for name, entry in snapshot["metrics"].items():
            cls = kinds[entry["type"]]
            if cls is Histogram:
                metric = self.histogram(name, entry["help"],
                                        tuple(entry["labels"]),
                                        buckets=entry["buckets"])
            else:
                metric = self._get_or_create(cls, name, entry["help"],
                                             tuple(entry["labels"]))
            for data in entry["series"]:
                metric._merge_series(tuple(data["labels"]), data)

    def render_prom(self) -> str:
        """Prometheus text-exposition dump of the registry."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom_name = name.replace(".", "_").replace("-", "_")
            if metric.help:
                lines.append(f"# HELP {prom_name} {metric.help}")
            lines.append(f"# TYPE {prom_name} {metric.kind}")
            for key in sorted(metric._series):
                label_str = _prom_labels(metric.label_names, key)
                if isinstance(metric, Histogram):
                    series = metric._series[key]
                    cumulative = 0
                    for bound, count in zip(metric.buckets,
                                            series.bucket_counts):
                        cumulative += count
                        le = _prom_labels(
                            metric.label_names + ("le",),
                            key + (_format_number(bound),),
                        )
                        lines.append(f"{prom_name}_bucket{le} {cumulative}")
                    le = _prom_labels(metric.label_names + ("le",),
                                      key + ("+Inf",))
                    lines.append(f"{prom_name}_bucket{le} {series.count}")
                    lines.append(f"{prom_name}_sum{label_str} "
                                 f"{_format_number(series.sum)}")
                    lines.append(f"{prom_name}_count{label_str} "
                                 f"{series.count}")
                else:
                    value = metric._series[key]
                    lines.append(f"{prom_name}{label_str} "
                                 f"{_format_number(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_number(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _prom_labels(names: Tuple[str, ...], values: Tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{value}"' for name, value in zip(names, values)
    )
    return "{" + pairs + "}"
