"""Observability: request tracing, metrics, and phase-level profiling.

The serving stack (PRs 5-9) accumulated *counters* — hits, builds,
replays — but no answer to "where did this request's latency go?".
This package is the measurement substrate the ROADMAP's
workload-adaptive policy item needs:

* :mod:`repro.obs.trace` — a contextvars-based span tree.  A trace id
  is minted at the first process that sees the request (the supervisor
  front under ``--workers N``), propagated across the front→worker hop
  in an ``X-Repro-Trace`` header, and preserved through retries and
  replays, so one id correlates the front span, the worker that died,
  and the replica that answered.  Handlers open a request scope;
  phases (validate / cache-lookup / adjacency-build / selection /
  repair / shm-attach) nest under it.
* :mod:`repro.obs.metrics` — a thread-safe registry (one per server)
  of counters, gauges and histograms rendered as Prometheus text
  (``GET /metrics``) and folded into ``/stats`` (the supervisor
  aggregates per-worker snapshots).  Metric names must match
  ``repro_[a-z0-9_]+`` — enforced at registration *and* by the
  ``span-discipline`` lint rule.
* :mod:`repro.obs.sink` — completed traces written as size-capped
  JSONL (``--trace-log``) carrying the request feature vector
  (n, radius, metric, engine, method) and per-phase durations —
  exactly the records a ``bench --tune`` policy campaign consumes —
  plus the rollup behind ``repro trace summarize``.

Like :mod:`repro.cancellation`, everything here is stdlib-only and
dependency-free: it must never import :mod:`repro.service` (the
service imports *us*), and every entry point is no-op cheap when no
trace is active and no sink is configured.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    render_snapshot,
)
from repro.obs.sink import (
    TRACE_SCHEMA,
    TraceSink,
    build_record,
    iter_trace_records,
    render_trace_summary,
    summarize_traces,
    validate_trace_record,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Span,
    annotate,
    annotate_root,
    attach,
    current_span,
    format_trace_header,
    new_trace_id,
    parse_trace_header,
    phase,
    phase_totals,
    record_phase,
    request_scope,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "Span",
    "TRACE_HEADER",
    "TRACE_SCHEMA",
    "TraceSink",
    "annotate",
    "annotate_root",
    "attach",
    "build_record",
    "current_span",
    "format_trace_header",
    "iter_trace_records",
    "merge_snapshots",
    "new_trace_id",
    "parse_trace_header",
    "phase",
    "phase_totals",
    "record_phase",
    "render_snapshot",
    "render_trace_summary",
    "request_scope",
    "summarize_traces",
    "validate_trace_record",
]
