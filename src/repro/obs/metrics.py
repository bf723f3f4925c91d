"""A thread-safe metrics registry with Prometheus text export.

Three instrument kinds — :class:`Counter` (monotonic), :class:`Gauge`
(set/add), :class:`Histogram` (fixed cumulative buckets + sum/count) —
live in a :class:`MetricsRegistry`.  Registration is get-or-create
(two call sites asking for ``repro_cache_lookups_total`` share one
counter); names must match ``repro_[a-z0-9_]+`` (enforced here *and*
by the ``span-discipline`` lint rule, so a typo'd name is a red CI
lane, not a dark metric).

Export paths:

* ``registry.render()`` — the Prometheus text format behind
  ``GET /metrics``;
* ``registry.snapshot()`` — a JSON-able dict folded into ``/stats``;
* :func:`merge_snapshots` + :func:`render_snapshot` — the supervisor
  aggregates per-worker snapshots (counters/gauges sum, histograms
  sum bucket-wise) and renders the cluster view at the front.

There is no process-wide default: each server owns one registry and
everything it serves counts into that one (a ``SharedCacheManager``
creates it, and its ``ServiceState``, HTTP core and circuit breakers
share it; the supervised front has its own).  So ``/metrics`` and
``/stats`` read the same instruments, and two servers in one process
never mix their counts.  Stdlib-only, and must never import
:mod:`repro.service`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRIC_NAME_RE",
    "MetricsRegistry",
    "merge_snapshots",
    "render_snapshot",
]

#: Names must be ``repro_``-prefixed lowercase snake case.
METRIC_NAME_RE = re.compile(r"repro_[a-z0-9_]+\Z")

#: Latency buckets in seconds (sub-ms to 10 s; +Inf is implicit).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def _escape_label(value: Any) -> str:
    text = str(value)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, Any]) -> Tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Metric:
    """Base: a named family of samples keyed by label values.

    All mutation happens under the owning registry's lock (shared so a
    snapshot is a consistent cut across every instrument).
    """

    kind = "untyped"

    _GUARDED_BY = {"_samples": "self._lock"}

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._lock = lock
        self._samples: Dict[Tuple[str, ...], Any] = {}


class Counter(_Metric):
    kind = "counter"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if not self.labelnames:
            # Renders ``name 0`` before the first increment, so a fault
            # that never happened reads 0 rather than "no data".
            self._samples[()] = 0.0

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def total(self) -> float:
        """The sum over every label set."""
        with self._lock:
            return float(sum(self._samples.values()))

    def by_label(self) -> Dict[str, float]:
        """Every sample of a one-label counter, keyed by its label value."""
        with self._lock:
            return {key[0]: float(value) for key, value in self._samples.items()}


class Gauge(_Metric):
    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))


class Histogram(_Metric):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str],
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be sorted, unique, non-empty")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                # counts has one slot per finite bucket plus +Inf.
                sample = {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0}
                self._samples[key] = sample
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            sample["counts"][idx] += 1
            sample["sum"] += value

    def value(self, **labels: Any) -> Dict[str, Any]:
        """``{"count": n, "sum": s}`` for one label set (0/0 if unseen)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                return {"count": 0, "sum": 0.0}
            return {"count": sum(sample["counts"]), "sum": sample["sum"]}


class MetricsRegistry:
    """Get-or-create instrument registry with a consistent snapshot."""

    _GUARDED_BY = {"_metrics": "self._lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Metric:
        """Caller does *not* hold ``self._lock``; this takes it."""
        if not METRIC_NAME_RE.fullmatch(name):
            raise ValueError(
                f"metric name {name!r} must match {METRIC_NAME_RE.pattern!r}"
            )
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    # -- export --------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able consistent cut of every instrument."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry: Dict[str, Any] = {
                    "type": metric.kind,
                    "help": metric.help,
                    "labelnames": list(metric.labelnames),
                    "samples": [],
                }
                for key in sorted(metric._samples):
                    labels = dict(zip(metric.labelnames, key))
                    raw = metric._samples[key]
                    if metric.kind == "histogram":
                        entry["samples"].append(
                            {
                                "labels": labels,
                                "buckets": [
                                    [b, c]
                                    for b, c in zip(metric.buckets, raw["counts"])
                                ],
                                "inf": raw["counts"][-1],
                                "sum": raw["sum"],
                                "count": sum(raw["counts"]),
                            }
                        )
                    else:
                        entry["samples"].append({"labels": labels, "value": raw})
                out[name] = entry
        return out

    def render(self) -> str:
        """The Prometheus text exposition of :meth:`snapshot`."""
        return render_snapshot(self.snapshot())

    def reset(self) -> None:
        """Drop every instrument (production code never calls this)."""
        with self._lock:
            self._metrics.clear()


def _render_labels(labels: Dict[str, Any], extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_snapshot(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot (one registry's, or a merged cluster one) as
    Prometheus text format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        for sample in entry["samples"]:
            labels = sample.get("labels", {})
            if entry["type"] == "histogram":
                cumulative = 0
                for bound, count in sample["buckets"]:
                    cumulative += count
                    label_str = _render_labels(labels, ("le", _format_value(bound)))
                    lines.append(f"{name}_bucket{label_str} {cumulative}")
                cumulative += sample["inf"]
                label_str = _render_labels(labels, ("le", "+Inf"))
                lines.append(f"{name}_bucket{label_str} {cumulative}")
                lines.append(
                    f"{name}_sum{_render_labels(labels)} {_format_value(sample['sum'])}"
                )
                lines.append(f"{name}_count{_render_labels(labels)} {sample['count']}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {_format_value(sample['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots: counters and gauges sum per label set,
    histograms sum bucket-wise (buckets matched by bound).

    Gauges *sum* deliberately — the cluster-level reading of
    ``repro_inflight_requests`` or queue depth is the total across
    workers, which is what capacity planning wants.
    """
    merged: Dict[str, Any] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, entry in snap.items():
            target = merged.get(name)
            if target is None:
                target = {
                    "type": entry["type"],
                    "help": entry.get("help", ""),
                    "labelnames": list(entry.get("labelnames", [])),
                    "_samples": {},
                }
                merged[name] = target
            for sample in entry["samples"]:
                key = tuple(sorted(sample.get("labels", {}).items()))
                slot = target["_samples"].get(key)
                if entry["type"] == "histogram":
                    if slot is None:
                        slot = {
                            "labels": dict(sample.get("labels", {})),
                            "buckets": {},
                            "inf": 0,
                            "sum": 0.0,
                            "count": 0,
                        }
                        target["_samples"][key] = slot
                    for bound, count in sample["buckets"]:
                        slot["buckets"][float(bound)] = (
                            slot["buckets"].get(float(bound), 0) + count
                        )
                    slot["inf"] += sample["inf"]
                    slot["sum"] += sample["sum"]
                    slot["count"] += sample["count"]
                else:
                    if slot is None:
                        slot = {"labels": dict(sample.get("labels", {})), "value": 0.0}
                        target["_samples"][key] = slot
                    slot["value"] += sample["value"]
    out: Dict[str, Any] = {}
    for name in sorted(merged):
        entry = merged[name]
        samples = []
        for key in sorted(entry["_samples"]):
            slot = entry["_samples"][key]
            if entry["type"] == "histogram":
                samples.append(
                    {
                        "labels": slot["labels"],
                        "buckets": [
                            [b, slot["buckets"][b]] for b in sorted(slot["buckets"])
                        ],
                        "inf": slot["inf"],
                        "sum": slot["sum"],
                        "count": slot["count"],
                    }
                )
            else:
                samples.append({"labels": slot["labels"], "value": slot["value"]})
        out[name] = {
            "type": entry["type"],
            "help": entry["help"],
            "labelnames": entry["labelnames"],
            "samples": samples,
        }
    return out
