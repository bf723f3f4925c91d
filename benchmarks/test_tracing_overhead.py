"""Tracing overhead gate: the span sink adds at most 5% to p50 latency.

Replays the 4-client zoom trace (clustered, n=20k) against a fresh
single-process server with the trace sink off and on.  The latency
measured is the server's own: the ``Server-Timing`` ``total`` of every
request (its root span, from the parsed request to the response),
which leaves out the client threads, the barrier between zoom steps and
the loopback hop.  Spans are recorded either way; the sink only builds
and appends the record after the response is written, so its cost
reaches latency through the event loop it occupies, which the totals of
the requests in flight include.  Client wall time resolves one barrier
step at best: on a 2-vCPU box its p50 of 32 requests moved by up to ±9%
with no tracing change.  The lanes alternate mirror-ordered (off on |
off on on off), which keeps slow monotone drift from biasing either
lane, and the gate compares the median of every request of every run
in one lane against the other's (96 samples each).  Every traced run's JSONL is
read back through the schema validator, so the number never comes from
a sink that silently wrote garbage.
"""

from __future__ import annotations

from repro.obs.sink import iter_trace_records, validate_trace_record
from repro.service.load import CLIENTS, replay_single, zoom_trace

#: The acceptance bar: added p50 latency with the sink on, in percent.
MAX_OVERHEAD_PCT = 5.0

#: Three runs per lane, mirror-ordered overall; every request of a
#: lane's runs is pooled.
LANES = ("off", "on", "off", "on", "on", "off")


def _p50(values) -> float:
    """Nearest-rank median."""
    ordered = sorted(values)
    return ordered[int(round(0.5 * (len(ordered) - 1)))]


def _span_names(spans):
    for span in spans or []:
        yield span.get("name")
        yield from _span_names(span.get("children"))


def test_tracing_overhead_within_five_percent(tmp_path):
    trace = zoom_trace(20_000)
    totals_ms = {"off": [], "on": []}
    for i, lane in enumerate(LANES):
        log = str(tmp_path / f"trace{i}.jsonl") if lane == "on" else None
        records, _ = replay_single(trace, trace_log=log)
        assert len(records) == CLIENTS * len(trace.radii)
        for record in records:
            assert record["status"] == 200
            assert record["selected"] == trace.reference[record["radius"]]
            totals_ms[lane].append(record["server_timing"]["total"])
        if log is None:
            continue
        assert all(r["trace"] for r in records)
        emitted = list(iter_trace_records(log))
        assert len(emitted) >= len(records)
        assert all(validate_trace_record(r) == [] for r in emitted)
        assert any("selection" in _span_names(r["spans"]) for r in emitted)
    p50_off, p50_on = _p50(totals_ms["off"]), _p50(totals_ms["on"])
    overhead_pct = (p50_on - p50_off) / p50_off * 100.0
    print(f"tracing server-side p50 {p50_off:.3f} ms off -> {p50_on:.3f} ms "
          f"on = {overhead_pct:+.2f}% ({len(totals_ms['on'])} requests a lane)")
    assert overhead_pct <= MAX_OVERHEAD_PCT, (p50_off, p50_on)
