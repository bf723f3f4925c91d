"""Observability layer: span tracing, metrics registry, trace sink.

Four layers, cheapest first:

* pure-unit coverage of :mod:`repro.obs.trace` (mint/adopt/malformed
  headers, phase nesting, the executor ``attach`` hop, retroactive
  phases, ``phase_totals``);
* :mod:`repro.obs.metrics` (name validation, get-or-create sharing,
  Prometheus text shape, cluster snapshot merging);
* :mod:`repro.obs.sink` (record schema + validator, size-capped
  rotation, torn-line tolerance, the summarize rollup and CLI);
* live servers — the ``/metrics`` contract (content type, counter
  monotonicity, histogram bucket sums), ``Server-Timing`` parsing,
  trace-log records, header adoption, and trace-id propagation across
  a 2-worker supervised cluster including deterministic crash-replay.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.sink import (
    TRACE_SCHEMA,
    TraceSink,
    build_record,
    iter_trace_records,
    render_trace_summary,
    summarize_traces,
    validate_trace_record,
)
from repro.service import shm as shm_mod
from repro.service.cache import SharedCacheManager
from repro.service.client import ServiceClient, parse_server_timing
from repro.service.registry import DatasetRegistry
from repro.service.server import start_in_thread
from repro.service.state import ServiceState
from repro.service.supervisor import start_supervised

N = 600
SEED = 7
RADIUS = 0.1
ENGINE = {"name": "grid", "options": {"cell_size": RADIUS}}

TRACE_RE = re.compile(r"[0-9a-f]{16,32}:[0-9a-f]{8,32}\Z")


# ----------------------------------------------------------------------
# trace: spans, headers, context propagation
# ----------------------------------------------------------------------
class TestTrace:
    def test_request_scope_mints_and_finishes(self):
        with obs_trace.request_scope("request") as root:
            assert obs_trace.current_span() is root
            assert len(root.trace_id) == 16
            assert set(root.trace_id) <= set("0123456789abcdef")
            assert root.parent_id is None
            assert root.duration_ms is None  # still open
        assert root.duration_ms is not None and root.duration_ms >= 0
        assert obs_trace.current_span() is None

    def test_header_adoption_and_parent(self):
        header = "deadbeefdeadbeef:cafebabe"
        with obs_trace.request_scope("request", header=header) as root:
            assert root.trace_id == "deadbeefdeadbeef"
            assert root.parent_id == "cafebabe"
            # The outgoing hop carries *this* span as the parent.
            out = obs_trace.format_trace_header(root)
            assert out == f"deadbeefdeadbeef:{root.span_id}"

    @pytest.mark.parametrize(
        "bad",
        ["", "not-hex", "abc:def:ghi", "a" * 40, "deadbeef:XYZ", "g" * 16],
    )
    def test_malformed_header_mints_fresh(self, bad):
        assert obs_trace.parse_trace_header(bad) == (None, None)
        with obs_trace.request_scope("request", header=bad) as root:
            assert len(root.trace_id) == 16  # fresh mint, not the junk

    def test_parse_format_roundtrip(self):
        with obs_trace.request_scope("request") as root:
            trace_id, parent = obs_trace.parse_trace_header(
                obs_trace.format_trace_header(root)
            )
        assert trace_id == root.trace_id
        assert parent == root.span_id

    def test_phase_nesting_builds_tree(self):
        with obs_trace.request_scope("request") as root:
            with obs_trace.phase("selection") as sel:
                with obs_trace.phase("adjacency-build", engine="grid") as build:
                    assert obs_trace.current_span() is build
                assert build.duration_ms is not None
                assert obs_trace.current_span() is sel
        assert [c.name for c in root.children] == ["selection"]
        assert [c.name for c in sel.children] == ["adjacency-build"]
        assert build.annotations == {"engine": "grid"}
        assert build.trace_id == root.trace_id

    def test_phase_is_noop_outside_trace(self):
        assert obs_trace.current_span() is None
        with obs_trace.phase("selection") as span:
            assert span is None
        obs_trace.annotate(ignored=True)  # must not raise
        obs_trace.annotate_root(ignored=True)
        assert obs_trace.record_phase("build", 1.0) is None

    def test_attach_carries_span_across_thread(self):
        seen = {}

        def thunk(span):
            with obs_trace.attach(span):
                with obs_trace.phase("in-thread") as child:
                    seen["trace_id"] = child.trace_id

        with obs_trace.request_scope("request") as root:
            worker = threading.Thread(target=thunk, args=(obs_trace.current_span(),))
            worker.start()
            worker.join()
        assert seen["trace_id"] == root.trace_id
        assert [c.name for c in root.children] == ["in-thread"]
        with obs_trace.attach(None) as nothing:  # no-op scope
            assert nothing is None

    def test_record_phase_and_totals(self):
        with obs_trace.request_scope("request") as root:
            obs_trace.record_phase("adjacency-build", 30.0, coalesced=False)
            obs_trace.record_phase("adjacency-build", 12.5)
            with obs_trace.phase("selection"):
                pass
        totals = obs_trace.phase_totals(root)
        assert totals["adjacency-build"] == pytest.approx(42.5)
        assert "request" not in totals  # the root is the total, not a phase
        assert totals["selection"] >= 0

    def test_annotate_root_from_nested_phase(self):
        with obs_trace.request_scope("request") as root:
            with obs_trace.phase("selection"):
                obs_trace.annotate_root(features={"dataset": "uniform"})
                obs_trace.annotate(local=True)
        assert root.annotations["features"] == {"dataset": "uniform"}
        assert root.children[0].annotations == {"local": True}


# ----------------------------------------------------------------------
# metrics: registry, rendering, merging
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_and_labels(self):
        reg = obs_metrics.MetricsRegistry()
        c = reg.counter("repro_things_total", "things", labelnames=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        with pytest.raises(ValueError):
            c.inc(-1, kind="a")

    def test_unlabelled_counter_renders_zero_before_first_inc(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("repro_quiet_total", "never incremented")
        reg.counter("repro_split_total", "labelled", labelnames=("kind",))
        lines = reg.render().splitlines()
        assert "repro_quiet_total 0" in lines
        # A labelled family has no label set to seed: no sample line.
        assert not [line for line in lines if line.startswith("repro_split_total")]

    def test_name_and_label_validation(self):
        reg = obs_metrics.MetricsRegistry()
        for bad in ("things_total", "repro_Things", "repro_", "repro_x-y"):
            with pytest.raises(ValueError):
                reg.counter(bad, "bad name")
        with pytest.raises(ValueError):
            reg.counter("repro_ok_total", "bad label", labelnames=("0kind",))

    def test_get_or_create_shares_and_conflicts_raise(self):
        reg = obs_metrics.MetricsRegistry()
        first = reg.counter("repro_shared_total", "shared")
        second = reg.counter("repro_shared_total", "shared")
        assert first is second
        with pytest.raises(ValueError):
            reg.gauge("repro_shared_total", "now a gauge")  # type conflict
        with pytest.raises(ValueError):
            reg.counter("repro_shared_total", "shared", labelnames=("k",))

    def test_gauge_set_and_add(self):
        reg = obs_metrics.MetricsRegistry()
        g = reg.gauge("repro_inflight", "inflight")
        g.set(5)
        g.add(-2)
        assert g.value() == 3

    def test_histogram_buckets_and_render(self):
        reg = obs_metrics.MetricsRegistry()
        h = reg.histogram(
            "repro_latency_seconds", "latency", buckets=(0.1, 1.0)
        )
        for v in (0.05, 0.5, 0.7, 5.0):
            h.observe(v)
        assert h.value() == {"count": 4, "sum": pytest.approx(6.25)}
        text = reg.render()
        assert "# TYPE repro_latency_seconds histogram" in text
        # Rendered buckets are cumulative; +Inf equals _count.
        assert 'repro_latency_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_latency_seconds_bucket{le="1"} 3' in text
        assert 'repro_latency_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_latency_seconds_count 4" in text
        assert "repro_latency_seconds_sum 6.25" in text

    def test_histogram_rejects_bad_buckets(self):
        reg = obs_metrics.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("repro_bad_seconds", "x", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            reg.histogram("repro_worse_seconds", "x", buckets=(1.0, float("inf")))

    def test_render_escapes_label_values(self):
        reg = obs_metrics.MetricsRegistry()
        c = reg.counter("repro_paths_total", "paths", labelnames=("path",))
        c.inc(path='with"quote\\and\nnewline')
        text = reg.render()
        assert '\\"quote' in text and "\\\\and" in text and "\\n" in text

    def test_merge_snapshots_sums_counters_and_buckets(self):
        snaps = []
        for count in (1, 2):
            reg = obs_metrics.MetricsRegistry()
            c = reg.counter("repro_reqs_total", "reqs", labelnames=("ep",))
            c.inc(count, ep="/select")
            h = reg.histogram("repro_dur_seconds", "dur", buckets=(0.1, 1.0))
            h.observe(0.05 * count)
            snaps.append(reg.snapshot())
        merged = obs_metrics.merge_snapshots(snaps)
        (counter_sample,) = merged["repro_reqs_total"]["samples"]
        assert counter_sample["value"] == 3
        (hist_sample,) = merged["repro_dur_seconds"]["samples"]
        assert hist_sample["count"] == 2
        assert hist_sample["buckets"][0] == [0.1, 2]
        text = obs_metrics.render_snapshot(merged)
        assert 'repro_reqs_total{ep="/select"} 3' in text

    def test_registry_reset_clears_instruments(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("repro_gone_total", "gone").inc()
        reg.reset()
        assert reg.snapshot() == {}


# ----------------------------------------------------------------------
# sink: records, validation, rotation, summaries
# ----------------------------------------------------------------------
def _finished_root(status_phase: str = "selection") -> obs_trace.Span:
    with obs_trace.request_scope("request") as root:
        obs_trace.annotate_root(
            features={"dataset": "uniform", "radius": 0.1}, coalesced=False
        )
        with obs_trace.phase(status_phase):
            obs_trace.record_phase("adjacency-build", 3.0)
    return root


class TestSink:
    def test_build_record_shape(self):
        root = _finished_root()
        record = build_record(root, 200, "POST", "/select", worker={"worker_id": 1})
        assert record["schema"] == TRACE_SCHEMA
        assert record["trace_id"] == root.trace_id
        assert record["status"] == 200
        # The feature vector is lifted out of annotations...
        assert record["features"] == {"dataset": "uniform", "radius": 0.1}
        # ...and the leftovers stay under "annotations".
        assert record["annotations"] == {"coalesced": False}
        assert record["worker"] == {"worker_id": 1}
        (selection,) = record["spans"]
        assert selection["name"] == "selection"
        assert selection["children"][0]["name"] == "adjacency-build"
        assert validate_trace_record(record) == []

    def test_validator_flags_each_field(self):
        record = build_record(_finished_root(), 200, "POST", "/select")
        for mutate, fragment in [
            (lambda r: r.pop("trace_id"), "trace_id"),
            (lambda r: r.__setitem__("schema", "v0"), "schema"),
            (lambda r: r.__setitem__("duration_ms", -1), "duration_ms"),
            (lambda r: r.__setitem__("features", []), "features"),
            (lambda r: r.__setitem__("status", "200"), "status"),
            (
                lambda r: r["spans"][0]["children"].append({"duration_ms": 1.0}),
                "children[1]",
            ),
        ]:
            broken = json.loads(json.dumps(record))
            mutate(broken)
            problems = validate_trace_record(broken)
            assert problems, fragment
            assert any(fragment in p for p in problems), problems
        assert validate_trace_record("not a dict") == ["record is not an object"]

    def test_rotation_keeps_newest_in_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        record = build_record(_finished_root(), 200, "POST", "/select")
        line_bytes = len(
            json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"
        )
        sink = TraceSink(path, max_bytes=line_bytes * 3 + 1)
        try:
            for _ in range(7):
                sink.emit(record)
        finally:
            sink.close()
        assert os.path.exists(path + ".1")
        newest = list(iter_trace_records(path))
        rotated = list(iter_trace_records(path + ".1"))
        assert sink.written == 7
        # Disk is bounded: one live file + one backup, each capped, so
        # a second rotation drops the oldest generation.
        assert 0 < len(newest) <= 3
        assert len(rotated) == 3
        assert len(newest) + len(rotated) < 7
        with pytest.raises(ValueError):
            TraceSink(path, max_bytes=0)

    def test_iter_skips_blank_and_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        record = build_record(_finished_root(), 200, "POST", "/select")
        good = json.dumps(record)
        path.write_text(f"{good}\n\n{good}\n{{\"schema\": \"repro-tr")
        records = list(iter_trace_records(str(path)))
        assert len(records) == 2
        assert all(validate_trace_record(r) == [] for r in records)

    def test_summarize_and_render(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        lines = []
        for status in (200, 200, 404):
            lines.append(json.dumps(build_record(_finished_root(), status, "POST", "/select")))
        lines.append("not json at all")
        path.write_text("\n".join(lines) + "\n")
        summary = summarize_traces([str(path)])
        assert summary["records"] == 3
        assert summary["statuses"] == {"200": 2, "404": 1}
        build = summary["phases"]["adjacency-build"]
        assert build["count"] == 3
        assert build["total_ms"] == pytest.approx(9.0)
        assert build["p50_ms"] == pytest.approx(3.0)
        assert len(summary["slowest"]) == 3
        text = render_trace_summary(summary)
        assert "adjacency-build" in text and "slowest traces:" in text

    def test_trace_cli_summarize_and_validate(self, tmp_path, capsys):
        from repro.cli import main

        good_path = tmp_path / "good.jsonl"
        good_path.write_text(
            json.dumps(build_record(_finished_root(), 200, "POST", "/select")) + "\n"
        )
        bad_path = tmp_path / "bad.jsonl"
        bad_path.write_text('{"schema": "wrong", "spans": 3}\n')

        assert main(["trace", "validate", str(good_path)]) == 0
        assert main(["trace", "validate", str(bad_path)]) != 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(good_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 1
        assert "selection" in summary["phases"]
        assert main(["trace", "summarize", str(good_path)]) == 0
        assert "adjacency-build" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Live single-process server: /metrics contract, Server-Timing, trace log
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_service(tmp_path_factory):
    trace_log = str(tmp_path_factory.mktemp("obs") / "trace.jsonl")
    registry = DatasetRegistry()
    registry.register_builtin("uniform", n=N, seed=SEED)
    state = ServiceState(
        registry, cache=SharedCacheManager(max_entries=16), workers=2
    )
    with start_in_thread(state, trace_log=trace_log) as running:
        running.trace_log = trace_log
        yield running


@pytest.fixture()
def client(traced_service):
    with ServiceClient(traced_service.host, traced_service.port) as c:
        yield c


def _http_get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read().decode("utf-8")
        return response.status, dict(response.getheaders()), body
    finally:
        conn.close()


def _wait_for_record(trace_log: str, trace_id: str, timeout_s: float = 5.0) -> dict:
    """The record for ``trace_id``, polling briefly: the server emits
    the sink line *after* draining the response, so a client that just
    got its answer can race the write."""
    deadline = time.monotonic() + timeout_s
    while True:
        matches = [
            r for r in iter_trace_records(trace_log) if r["trace_id"] == trace_id
        ]
        if matches or time.monotonic() >= deadline:
            assert len(matches) == 1, f"{len(matches)} records for {trace_id}"
            return matches[0]
        time.sleep(0.02)


def _sample(text: str, name: str, label_fragment: str = "") -> float:
    """The first exposition sample of ``name`` whose labels contain
    ``label_fragment`` (summed would hide regressions; first is enough
    for the monotonicity deltas used here)."""
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        ident, _, value = line.rpartition(" ")
        if ident != name and not ident.startswith(name + "{"):
            continue
        if label_fragment and label_fragment not in ident:
            continue
        return float(value)
    raise AssertionError(f"no sample {name!r} ({label_fragment!r}) in exposition")


class TestMetricsEndpoint:
    def test_content_type_and_line_shape(self, traced_service, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        status, headers, body = _http_get(
            traced_service.host, traced_service.port, "/metrics"
        )
        assert status == 200
        assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
        assert body.endswith("\n")
        sample_re = re.compile(
            r"[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE.+-]*\Z"
        )
        for line in body.splitlines():
            if not line or line.startswith("#"):
                continue
            assert sample_re.fullmatch(line), line
        # Every instrument is repro_-namespaced (span-discipline's twin).
        for line in body.splitlines():
            if line and not line.startswith("#"):
                assert line.startswith("repro_"), line

    def test_counters_are_monotonic_across_requests(self, traced_service, client):
        host, port = traced_service.host, traced_service.port
        _, _, before = _http_get(host, port, "/metrics")
        served = _sample(before, "repro_http_responses_total", 'status="200"')
        client.select("uniform", RADIUS, engine=ENGINE)
        client.select("uniform", RADIUS, engine=ENGINE)
        _, _, after = _http_get(host, port, "/metrics")
        # Delta-based: other tests also drive this server.
        assert _sample(after, "repro_http_responses_total", 'status="200"') >= served + 2
        assert (
            _sample(after, "repro_traces_written_total")
            >= _sample(before, "repro_traces_written_total") + 2
        )

    def test_histogram_bucket_sums_are_cumulative(self, traced_service, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        _, _, body = _http_get(traced_service.host, traced_service.port, "/metrics")
        buckets = [
            float(line.rpartition(" ")[2])
            for line in body.splitlines()
            if line.startswith("repro_request_duration_seconds_bucket{")
            and 'path="/select"' in line
        ]
        assert buckets, body
        assert buckets == sorted(buckets)  # cumulative counts never decrease
        count = _sample(body, "repro_request_duration_seconds_count", 'path="/select"')
        assert buckets[-1] == count  # the +Inf bucket is the total
        assert _sample(body, "repro_request_duration_seconds_sum", 'path="/select"') > 0

    def test_stats_counters_are_read_from_the_registry(self, client):
        """``/stats`` reports the registry's own counters, as ints, and
        the cache shares the server's registry (one store, one help
        text per family)."""
        client.select("uniform", RADIUS, engine=ENGINE)
        client.select("uniform", RADIUS, engine=ENGINE)
        stats = client.stats()
        snapshot = stats["metrics"]

        def value(name):
            return sum(s["value"] for s in snapshot[name]["samples"])

        for key, name in (
            ("computations", "repro_computations_total"),
            ("coalesced_requests", "repro_coalesced_requests_total"),
            ("degraded_responses", "repro_degraded_responses_total"),
            ("mutations_applied", "repro_mutations_applied_total"),
        ):
            assert isinstance(stats[key], int) and stats[key] == value(name), key
        assert stats["computations"] >= 2
        assert stats["cache"]["builds"] == value("repro_adjacency_builds_total") >= 1
        assert stats["cache"]["hits"] == value("repro_cache_lookups_total") - (
            stats["cache"]["misses"]
        )
        phases = snapshot["repro_phase_duration_seconds"]
        assert phases["help"] == "Measured duration of one request phase, by phase."
        assert {s["labels"]["phase"] for s in phases["samples"]} >= {
            "adjacency-build", "selection",
        }

    def test_stats_folds_in_metrics_and_queue_depth(self, client):
        stats = client.stats()
        assert "queue_depth" in stats
        snapshot = stats["metrics"]
        assert "repro_http_requests_total" in snapshot
        assert snapshot["repro_http_requests_total"]["type"] == "counter"


class TestServerTracing:
    def test_server_timing_header_is_parsed(self, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        timing = client.last_server_timing
        assert timing is not None
        assert timing["total"] > 0
        assert "select" in timing
        assert parse_server_timing('total;dur=12.5, build;dur=3.0') == {
            "total": 12.5,
            "build": 3.0,
        }
        assert parse_server_timing(None) is None

    def test_response_carries_trace_header(self, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        assert client.last_trace is not None
        assert TRACE_RE.fullmatch(client.last_trace), client.last_trace

    def test_trace_log_records_are_valid_and_featureful(self, traced_service, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        wanted = client.last_trace.split(":")[0]
        record = _wait_for_record(traced_service.trace_log, wanted)
        records = list(iter_trace_records(traced_service.trace_log))
        assert records
        assert all(validate_trace_record(r) == [] for r in records)
        assert record["path"] == "/select"
        assert record["status"] == 200
        features = record["features"]
        assert features["dataset"] == "uniform"
        assert features["n"] == N
        assert features["radius"] == RADIUS
        names = {s["name"] for s in record["spans"]}
        assert {"validate", "selection"} <= names

    def test_cache_phases_appear_under_selection(self, traced_service, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        wanted = client.last_trace.split(":")[0]
        record = _wait_for_record(traced_service.trace_log, wanted)
        (selection,) = [s for s in record["spans"] if s["name"] == "selection"]
        child_names = {c["name"] for c in selection.get("children", [])}
        # The radius is warm by now: at minimum the cache lookup ran.
        assert "cache-lookup" in child_names

    def test_incoming_header_is_adopted(self, traced_service):
        conn = http.client.HTTPConnection(
            traced_service.host, traced_service.port, timeout=60
        )
        try:
            payload = json.dumps(
                {"dataset": "uniform", "radius": RADIUS, "engine": ENGINE}
            )
            conn.request(
                "POST",
                "/select",
                body=payload,
                headers={
                    "Content-Type": "application/json",
                    "X-Repro-Trace": "feedfacefeedface:cafebabe",
                },
            )
            response = conn.getresponse()
            response.read()
            echoed = response.getheader("X-Repro-Trace")
        finally:
            conn.close()
        assert echoed.split(":")[0] == "feedfacefeedface"
        record = _wait_for_record(traced_service.trace_log, "feedfacefeedface")
        assert record["parent_span_id"] == "cafebabe"


# ----------------------------------------------------------------------
# Supervised cluster: one trace id front-to-worker, even across a crash
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    not shm_mod.shm_available(), reason="POSIX shared memory not available"
)
class TestSupervisedTracing:
    def test_trace_id_propagates_front_to_worker(self, tmp_path):
        trace_log = str(tmp_path / "cluster.jsonl")
        cluster = start_supervised(
            ["uniform"], 2, n=400, threads=2, trace_log=trace_log
        )
        try:
            trace_ids = []
            with ServiceClient(cluster.host, cluster.port) as client:
                for _ in range(3):
                    client.select("uniform", RADIUS, engine=ENGINE)
                    trace_ids.append(client.last_trace.split(":")[0])
                # Satellite: the rollup carries the cluster capacity and
                # degradation counters alongside the cache totals.
                totals = client.stats()["totals"]
                assert {
                    "queue_depth",
                    "migrations",
                    "stale_served",
                    "corrupt_entries",
                    "degraded_responses",
                } <= set(totals)
                status, headers, body = _http_get(
                    cluster.host, cluster.port, "/metrics"
                )
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
            # The front merges worker snapshots: worker-side selection
            # counters surface in the front's exposition.
            assert "repro_http_requests_total" in body
            # Fault counters that never fired still export a 0 sample.
            lines = body.splitlines()
            assert "repro_request_replays_total 0" in lines
            assert "repro_worker_stall_kills_total 0" in lines
        finally:
            cluster.stop()

        front_records = [
            r for r in iter_trace_records(trace_log) if r["path"] == "/select"
        ]
        assert {r["trace_id"] for r in front_records} == set(trace_ids)
        assert all(validate_trace_record(r) == [] for r in front_records)
        assert all(r["worker"] == {"role": "front"} for r in front_records)
        for record in front_records:
            names = {s["name"] for s in record["spans"]}
            assert "proxy" in names

        worker_records = []
        for k in range(2):
            worker_log = f"{trace_log}.w{k}"
            if os.path.exists(worker_log):
                worker_records.extend(iter_trace_records(worker_log))
        worker_by_trace = {r["trace_id"]: r for r in worker_records}
        for trace_id in trace_ids:
            worker_record = worker_by_trace[trace_id]  # same id, other process
            assert worker_record["worker"] is not None
            assert worker_record["worker"] != {"role": "front"}
            # The worker root's parent is the front's proxy hop.
            assert "parent_span_id" in worker_record

    def test_crash_replay_preserves_trace_id(self, tmp_path):
        trace_log = str(tmp_path / "crash.jsonl")
        crash = {"seed": 3, "worker_crash_rate": 1.0, "worker_crash_limit": 1}
        cluster = start_supervised(
            ["uniform"],
            2,
            n=300,
            threads=2,
            heartbeat_s=0.1,
            faults=[crash, None],
            trace_log=trace_log,
        )
        try:
            with ServiceClient(cluster.host, cluster.port) as client:
                for _ in range(4):
                    status, payload = client.request(
                        "POST",
                        "/select",
                        {"dataset": "uniform", "radius": RADIUS, "engine": ENGINE},
                    )
                    assert status == 200, payload
        finally:
            cluster.stop()
        # Teardown reaps every worker the cluster spawned, the crash
        # replacement included (a restart cancelled mid-spawn too).
        spawned = cluster.supervisor.spawned_processes()
        assert len(spawned) >= 2
        for process in spawned:
            if process.proc is None:
                continue  # its spawn failed before a child existed
            assert process.poll() is not None, process.proc.pid
            with pytest.raises(ProcessLookupError):
                os.kill(process.proc.pid, 0)

        replayed = [
            r
            for r in iter_trace_records(trace_log)
            if len([s for s in r["spans"] if s["name"] == "proxy"]) >= 2
        ]
        assert replayed, "no front record shows a second proxy attempt"
        record = replayed[0]
        assert record["status"] == 200
        assert record.get("annotations", {}).get("replayed") is True
        # The replayed attempts hit *different* workers under one id...
        attempts = [s for s in record["spans"] if s["name"] == "proxy"]
        assert len({a["annotations"]["worker"] for a in attempts}) == 2
        # ...and the replica that answered logged the same trace id.
        worker_ids = set()
        for k in range(2):
            worker_log = f"{trace_log}.w{k}"
            if os.path.exists(worker_log):
                worker_ids.update(
                    r["trace_id"] for r in iter_trace_records(worker_log)
                )
        assert record["trace_id"] in worker_ids
