"""Supervised multi-process serving: shm segments, failover, chaos.

Three layers, cheapest first:

* in-process unit tests of the :mod:`repro.service.shm` segment
  registry — publish/attach parity, checksum rejection of torn
  segments, the orphan sweep, and the build-once guarantee across two
  cache managers;
* real 2-worker clusters (``start_supervised``) — routing parity with
  :func:`repro.api.disc_select`, the ``/stats`` rollup, deterministic
  crash-mid-request replay, and the crash-loop quarantine;
* the ``chaos``-marked kill-9 trace (CI's chaos lane; excluded from
  the default run) asserting the PR's acceptance scenario end to end.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import disc_select
from repro.datasets import uniform_dataset
from repro.graph.csr import CSRNeighborhood
from repro.service import shm as shm_mod
from repro.service.cache import SharedCacheManager
from repro.service.client import (
    ServiceClient,
    parse_server_timing,
    wait_until_healthy,
)
from repro.service.faults import FaultConfig
from repro.service import load
from repro.service.load import SESSION_ZOOM_PATTERN
from repro.service.server import start_in_thread
from repro.service.shm import SharedSegmentStore, ShmCacheBacking
from repro.service.state import ServiceState
from repro.service.registry import DatasetRegistry
from repro.service.supervisor import Supervisor, build_worker_configs, start_supervised

pytestmark = pytest.mark.skipif(
    not shm_mod.shm_available(), reason="POSIX shared memory not available"
)

ENGINE = {"name": "grid", "options": {"cell_size": 0.1}}


def _fresh_store(**kwargs) -> SharedSegmentStore:
    return SharedSegmentStore(shm_mod.new_run_id(), **kwargs)


def _sample_csr() -> CSRNeighborhood:
    indptr = np.array([0, 2, 3, 5, 5], dtype=np.int64)
    indices = np.array([1, 2, 0, 0, 3], dtype=np.int32)
    return CSRNeighborhood(indptr, indices)


# ----------------------------------------------------------------------
# Shared-memory segment registry (in-process)
# ----------------------------------------------------------------------
class TestSegmentStore:
    def test_publish_then_attach_roundtrip(self):
        store = _fresh_store()
        try:
            status, claim = store.acquire("adj:test:r1")
            assert status == "claim"
            csr = _sample_csr()
            store.publish(claim, "csr", csr.to_shared_arrays(), {"note": "x"})
            status, got = store.acquire("adj:test:r1")
            assert status == "value"
            assert got["kind"] == "csr"
            np.testing.assert_array_equal(got["arrays"]["indptr"], csr.indptr)
            np.testing.assert_array_equal(got["arrays"]["indices"], csr.indices)
            assert got["meta"]["note"] == "x"
            # Attached views are read-only: a worker cannot corrupt the
            # cluster-wide copy in place.
            with pytest.raises(ValueError):
                got["arrays"]["indices"][0] = 99
        finally:
            store.close(sweep=True)
        assert shm_mod.list_run_segments(store.run_id) == []

    def test_second_process_view_shares_one_copy(self):
        first = _fresh_store()
        second = SharedSegmentStore(first.run_id)
        try:
            status, claim = first.acquire("k")
            csr = _sample_csr()
            first.publish(claim, "csr", csr.to_shared_arrays())
            status, got = second.acquire("k")
            assert status == "value"
            np.testing.assert_array_equal(got["arrays"]["indptr"], csr.indptr)
            assert second.counters()["attaches"] >= 1
        finally:
            second.close()
            first.close(sweep=True)

    def test_checksum_rejects_torn_segment(self):
        store = _fresh_store()
        try:
            status, claim = store.acquire("torn")
            data_name = claim.data_name
            store.publish(claim, "csr", _sample_csr().to_shared_arrays())
            # Corrupt one payload byte behind the registry's back.
            with open(f"/dev/shm/{data_name}", "r+b") as handle:
                handle.seek(8)
                byte = handle.read(1)
                handle.seek(8)
                handle.write(bytes([byte[0] ^ 0xFF]))
            # A torn segment must never be served: the reader detects
            # the checksum mismatch and takes over the build slot.
            fresh = SharedSegmentStore(store.run_id)
            try:
                status, got = fresh.acquire("torn")
                assert status == "claim"
                assert fresh.counters()["checksum_failures"] >= 1
                got.abandon()
            finally:
                fresh.close()
        finally:
            store.close(sweep=True)

    def test_unstamped_claim_is_waited_on_not_taken_over(self):
        """A claimer creates the meta segment, then writes its header.
        A reader in between must wait, not unlink the live claim (which
        let a second worker build the same radius); a header still
        missing after the grace period means the claimer died, and is
        taken over."""
        store = _fresh_store()
        meta = shm_mod._open_segment(
            store._meta_name("fresh"), create=True, size=shm_mod._META_SIZE
        )
        try:
            assert store.acquire("fresh", wait_s=0.2) == ("miss", None)
            assert store.counters()["takeovers"] == 0
            status, claim = store.acquire("fresh", wait_s=10.0)
            assert status == "claim"
            assert store.counters()["takeovers"] == 1
            claim.abandon()
        finally:
            meta.close()
            store.close(sweep=True)

    def test_sweep_orphans_reclaims_dead_runs(self):
        store = _fresh_store()  # no lease held -> run reads as orphaned
        status, claim = store.acquire("leak")
        store.publish(claim, "csr", _sample_csr().to_shared_arrays())
        names = shm_mod.list_run_segments(store.run_id)
        assert names
        store.close()  # detach WITHOUT sweeping: simulated unclean exit
        removed = shm_mod.sweep_orphans()
        assert set(names) <= set(removed)
        assert shm_mod.list_run_segments(store.run_id) == []

    def test_sweep_orphans_spares_live_runs(self):
        store = _fresh_store(hold_lease=True)
        try:
            status, claim = store.acquire("alive")
            store.publish(claim, "csr", _sample_csr().to_shared_arrays())
            shm_mod.sweep_orphans()
            status, got = store.acquire("alive")
            assert status == "value"
        finally:
            store.close(sweep=True)


class TestShmCacheBacking:
    def test_two_managers_build_once(self):
        """The cluster-wide guarantee in miniature: two cache managers
        (two processes in production), one adjacency build."""
        run = shm_mod.new_run_id()
        store_a = SharedSegmentStore(run)
        store_b = SharedSegmentStore(run)
        cache_a = SharedCacheManager(max_entries=8, backing=ShmCacheBacking(store_a))
        cache_b = SharedCacheManager(max_entries=8, backing=ShmCacheBacking(store_b))
        key = ("uniform", "euclidean", 0.1)
        try:
            assert cache_a.get(key) is None  # miss claims the build
            built = _sample_csr()
            cache_a.put(key, built)
            assert cache_a.cache_info()["shm_stores"] == 1

            got = cache_b.get(key)  # other "process": attach, no build
            assert got is not None
            np.testing.assert_array_equal(got.indptr, built.indptr)
            np.testing.assert_array_equal(got.indices, built.indices)
            info_b = cache_b.cache_info()
            assert info_b["shm_hits"] == 1
            assert info_b["builds"] == 0
        finally:
            cache_a.clear()
            cache_b.clear()
            store_b.close()
            store_a.close(sweep=True)

    def test_abandoned_claim_releases_slot(self):
        store = _fresh_store()
        cache = SharedCacheManager(max_entries=8, backing=ShmCacheBacking(store))
        key = ("uniform", "euclidean", 0.2)
        try:
            assert cache.get(key) is None
            cache.abandon(key)
            # The slot must be claimable again, not wedged "building".
            status, claim = store.acquire(cache.backing._key_str(key), wait_s=5.0)
            assert status == "claim"
            claim.abandon()
        finally:
            store.close(sweep=True)


# ----------------------------------------------------------------------
# Worker config / routing plumbing (in-process)
# ----------------------------------------------------------------------
class TestWorkerConfigs:
    def test_replicate_all_by_default(self):
        configs = build_worker_configs(["a", "b"], 3)
        assert all(c["datasets"] == ["a", "b"] for c in configs)

    def test_sharded_replication(self):
        configs = build_worker_configs(["a", "b", "c"], 3, replication=2)
        assigned = [c["datasets"] for c in configs]
        # dataset i lands on workers (i, i+1) % 3
        assert assigned == [["a", "c"], ["a", "b"], ["b", "c"]]

    def test_per_worker_faults_list(self):
        crash = {"worker_crash_rate": 1.0, "worker_crash_limit": 1}
        configs = build_worker_configs(["a"], 2, faults=[crash, None])
        assert configs[0]["faults"] == crash
        assert configs[1]["faults"] is None
        with pytest.raises(ValueError, match="per-worker faults"):
            build_worker_configs(["a"], 2, faults=[crash])

    def test_bad_replication_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            build_worker_configs(["a"], 2, replication=3)


# ----------------------------------------------------------------------
# Fault config validation (satellite: no silently-inert configs)
# ----------------------------------------------------------------------
class TestFaultConfigValidation:
    def test_unknown_key_lists_valid_names(self):
        with pytest.raises(ValueError) as err:
            FaultConfig.from_dict({"bogus_rate": 0.5})
        message = str(err.value)
        assert "bogus_rate" in message
        assert "worker_crash_rate" in message  # the valid names are listed

    @pytest.mark.parametrize(
        "payload",
        [
            {"worker_crash_rate": 1.5},
            {"worker_crash_rate": "high"},
            {"worker_crash_limit": -1},
            {"worker_crash_limit": True},
            {"worker_stall_hard_s": -0.1},
            {"seed": 1.5},
        ],
    )
    def test_bad_values_rejected(self, payload):
        with pytest.raises(ValueError):
            FaultConfig.from_dict(payload)

    def test_inert_rate_without_duration_rejected(self):
        with pytest.raises(ValueError, match="inert"):
            FaultConfig.from_dict({"worker_stall_hard_rate": 0.5})

    def test_cli_serve_rejects_bad_faults(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown fault config keys"):
            main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--datasets",
                    "uniform",
                    "--faults",
                    '{"typo_rate": 1.0}',
                ]
            )

    def test_cli_serve_rejects_inert_faults(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="inert"):
            main(
                [
                    "serve",
                    "--port",
                    "0",
                    "--datasets",
                    "uniform",
                    "--faults",
                    '{"slow_build_rate": 0.5}',
                ]
            )


# ----------------------------------------------------------------------
# Client keep-alive (satellite)
# ----------------------------------------------------------------------
class TestClientKeepAlive:
    def test_sequential_requests_reuse_one_connection(self):
        registry = DatasetRegistry()
        registry.register_spec(
            "tiny", lambda: uniform_dataset(n=120, seed=7), family="uniform"
        )
        state = ServiceState(registry, cache=None, workers=2)
        try:
            with start_in_thread(state) as running:
                with ServiceClient(running.host, running.port) as client:
                    client.healthz()
                    client.select("tiny", 0.2, engine=ENGINE)
                    client.stats()
                    assert client.opened_connections == 1
                    client.close()  # simulated reset: reopen transparently
                    client.healthz()
                    assert client.opened_connections == 2
        finally:
            state.close()

    def test_wait_until_healthy_single_client(self):
        registry = DatasetRegistry()
        registry.register_spec(
            "tiny", lambda: uniform_dataset(n=120, seed=7), family="uniform"
        )
        state = ServiceState(registry, cache=None, workers=2)
        try:
            with start_in_thread(state) as running:
                payload = wait_until_healthy(running.host, running.port, timeout=10)
                assert payload["status"] == "ok"
        finally:
            state.close()


# ----------------------------------------------------------------------
# Real clusters (subprocess workers)
# ----------------------------------------------------------------------
class TestSupervisedCluster:
    def test_smoke_parity_and_rollup(self):
        """2 workers, the zoom pattern's three radii: parity with
        disc_select, one build per radius cluster-wide, clean shm
        teardown."""
        cluster = start_supervised(["uniform"], 2, n=400, threads=2)
        run_id = cluster.run_id
        radii = [0.1 * m for m in SESSION_ZOOM_PATTERN]
        try:
            reference = {
                radius: [
                    int(i)
                    for i in disc_select(
                        uniform_dataset(n=400, seed=42),
                        radius,
                        engine="grid",
                        engine_options={"cell_size": 0.1},
                    ).selected
                ]
                for radius in set(radii)
            }
            with ServiceClient(cluster.host, cluster.port) as client:
                assert client.healthz()["workers"] == {"healthy": 2}
                # Sequential requests: the rotating pick spreads them
                # over both workers; answers must not depend on which
                # worker served them.
                for radius in radii:
                    response = client.select("uniform", radius, engine=ENGINE)
                    assert response["result"]["selected"] == reference[radius]
                stats = client.stats()
            assert len(stats["workers"]) == 2
            assert {w["state"] for w in stats["workers"]} == {"healthy"}
            totals = stats["totals"]
            # builds == unique radii cluster-wide: one worker built each
            # radius, the other attached its shared segment.
            assert len(reference) == 3
            assert totals["builds"] == 3
            assert totals["shm_stores"] == 3
            assert totals["shm_hits"] >= 1
        finally:
            removed = cluster.stop()
        assert removed  # the run's segments existed and were swept
        assert shm_mod.list_run_segments(run_id) == []

    def test_concurrent_zoom_trace_builds_once_per_radius(self):
        """The zoom trace's step-synchronised clients on 2 workers:
        both workers miss the same radius at once and race for the
        shared build, yet each radius is built once cluster-wide."""
        trace = load.zoom_trace(1200)
        cluster = start_supervised(
            [load.WORKLOAD], 2, n=1200, seed=42, threads=load.CLIENTS
        )
        try:
            records = load._replay(cluster.host, cluster.port, trace)
            with ServiceClient(cluster.host, cluster.port) as client:
                totals = client.stats()["totals"]
        finally:
            cluster.stop()
        assert all(r["status"] == 200 for r in records)
        assert all(r["selected"] == trace.reference[r["radius"]] for r in records)
        assert totals["builds"] == len(set(trace.radii)) == 3, totals
        assert totals["shm_hits"] >= 1

    def test_cluster_metrics_count_each_client_request_once(self):
        """Front and workers both see every proxied request, and the
        workers also see the front's heartbeats and rollups: the cluster
        exposition must still count each client request exactly once,
        and the front's ``/stats`` reads the same counts."""
        cluster = start_supervised(["uniform"], 2, n=300, threads=2)
        try:
            with ServiceClient(cluster.host, cluster.port) as client:
                for _ in range(5):
                    client.select("uniform", 0.1, engine=ENGINE)
                client.stats()
                # Let heartbeat probes land in the workers' own counters.
                time.sleep(3 * cluster.supervisor.heartbeat_s)
                conn = http.client.HTTPConnection(cluster.host, cluster.port, timeout=60)
                try:
                    conn.request("GET", "/metrics")
                    text = conn.getresponse().read().decode("utf-8")
                finally:
                    conn.close()
                stats = client.stats()
        finally:
            cluster.stop()
        samples = {}
        for line in text.splitlines():
            ident, _, value = line.rpartition(" ")
            if ident.startswith(("repro_http_", "repro_request_duration_seconds_count")):
                samples[ident] = float(value)
        assert samples == {
            'repro_http_requests_total{endpoint="GET /metrics"}': 1,
            'repro_http_requests_total{endpoint="GET /stats"}': 1,
            'repro_http_requests_total{endpoint="POST /select"}': 5,
            'repro_http_responses_total{status="200"}': 6,
            'repro_request_duration_seconds_count{path="/select"}': 5,
            'repro_request_duration_seconds_count{path="/stats"}': 1,
        }
        # Worker-side families still merge in (the selections ran there).
        assert "repro_computations_total 5" in text.splitlines()
        assert stats["requests"] == {
            "POST /select": 5, "GET /stats": 2, "GET /metrics": 1,
        }
        assert stats["responses"] == {"200": 7}
        assert stats["timeouts"] == 0

    def test_crash_mid_request_is_replayed(self):
        """Deterministic worker_crash on one worker: the client sees
        200s only; the supervisor logs the replay and restarts the
        corpse."""
        crash = {"seed": 3, "worker_crash_rate": 1.0, "worker_crash_limit": 1}
        cluster = start_supervised(
            ["uniform"],
            2,
            n=300,
            threads=2,
            heartbeat_s=0.1,
            faults=[crash, None],
        )
        try:
            with ServiceClient(cluster.host, cluster.port) as client:
                for _ in range(4):
                    status, payload = client.request(
                        "POST",
                        "/select",
                        {"dataset": "uniform", "radius": 0.1, "engine": ENGINE},
                    )
                    assert status == 200, payload
                deadline = time.monotonic() + 30
                supervisor = None
                while time.monotonic() < deadline:
                    supervisor = client.stats()["supervisor"]
                    if supervisor["restarts"] >= 1:
                        break
                    time.sleep(0.2)
                assert supervisor["replays"] >= 1
                assert supervisor["crashes"] >= 1
                assert supervisor["restarts"] >= 1
                assert supervisor["quarantined"] == 0
        finally:
            cluster.stop()

    def test_crash_loop_quarantines_and_503s(self):
        """A worker that dies on every request trips the loop breaker;
        with no replica left the front answers a structured 503."""
        crash = {"seed": 5, "worker_crash_rate": 1.0}  # no limit: every time
        cluster = start_supervised(
            ["uniform"],
            1,
            n=200,
            threads=2,
            heartbeat_s=0.1,
            quarantine_after=2,
            faults=crash,
        )
        try:
            with ServiceClient(cluster.host, cluster.port) as client:
                status, payload = client.request(
                    "POST",
                    "/select",
                    {"dataset": "uniform", "radius": 0.1, "engine": ENGINE},
                )
                assert status == 503
                assert payload["error"]["code"] in ("no_workers", "replay_exhausted")
                supervisor = client.stats()["supervisor"]
                assert supervisor["quarantined"] == 1
                assert supervisor["crashes"] >= 2
        finally:
            cluster.stop()

    def test_stop_survives_a_swallowed_heartbeat_cancel(self, monkeypatch):
        """On Python < 3.12 ``asyncio.wait_for`` returns the probe's
        result instead of raising when ``stop()``'s cancel lands as the
        probe completes.  Teardown must still finish and reap every
        worker."""

        async def stubborn_probe(self, slot):
            try:
                await asyncio.sleep(0.5)
            except asyncio.CancelledError:
                pass  # swallowed, as wait_for does
            return True

        monkeypatch.setattr(Supervisor, "_probe", stubborn_probe)
        cluster = start_supervised(["uniform"], 1, n=200, threads=2, heartbeat_s=0.001)
        time.sleep(0.2)  # the heartbeat is now inside a probe
        started = time.monotonic()
        cluster.stop()
        assert time.monotonic() - started < 30
        for process in cluster.supervisor.spawned_processes():
            assert process.poll() is not None

    def test_worker_cli_reports_bad_config(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in ("src", env.get("PYTHONPATH")) if part
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--config", "{not json"],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=60,
        )
        assert proc.returncode == 2
        message = json.loads(proc.stdout.strip().splitlines()[-1])
        assert "worker_error" in message


# ----------------------------------------------------------------------
# The front forwards worker bytes and Server-Timing
# ----------------------------------------------------------------------
#: Deliberately non-canonical worker answers: unsorted keys, odd
#: whitespace, error bodies.  A front that re-encodes would change them.
STUB_ANSWERS = {
    ("/select", "ok"): (200, b'{"zeta": 1,\n   "alpha" :[3, 2,1] }  '),
    ("/zoom", "ok"): (200, b'{ "result" : {"selected":[5,1]},"a":0.10}'),
    ("/select", "bad"): (400, b'{"error": { "message":"no", "code":"bad_request"}}'),
    ("/zoom", "down"): (503, b'{"error":{"code" : "overloaded","message":"busy"} }\n'),
}
STUB_TIMING = "total;dur=2.500, build;dur=0.000, select;dur=1.250"
#: What the stub answers to any other request.
STUB_UNKNOWN = (400, b'{"error": {"code": "bad_request", "message": "stub"}}')


class _StubWorker:
    """A worker slot's process stand-in: an HTTP server answering each
    ``(path, dataset)`` with the fixed bytes of :data:`STUB_ANSWERS`."""

    def __init__(self) -> None:
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def _answer(self, status, body):
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Server-Timing", STUB_TIMING)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                self._answer(200, b'{"status": "ok"}')

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                request = json.loads(self.rfile.read(length))
                key = (self.path, request.get("dataset"))
                self._answer(*STUB_ANSWERS.get(key, STUB_UNKNOWN))

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.port = self.server.server_address[1]
        self.pid = os.getpid()
        self.settled = threading.Event()
        self.settled.set()
        threading.Thread(target=self.server.serve_forever, daemon=True).start()

    def poll(self):
        return None

    def alive(self):
        return True

    def terminate(self):
        self.server.shutdown()
        self.server.server_close()

    kill = terminate

    def wait(self, timeout=None):
        return 0


@contextlib.contextmanager
def stub_front():
    """A supervised front over one :class:`_StubWorker` (no subprocess)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Supervisor, "_spawn_worker", lambda self, slot: _StubWorker())
        cluster = start_supervised(["stub"], 1, use_shm=False)
    try:
        yield cluster
    finally:
        cluster.stop()


def _raw_post(host, port, path, payload):
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestFrontPassThrough:
    def test_worker_bytes_and_status_reach_the_client_unchanged(self):
        with stub_front() as cluster:
            for (path, dataset), (status, body) in STUB_ANSWERS.items():
                got_status, headers, got_body = _raw_post(
                    cluster.host, cluster.port, path, {"dataset": dataset}
                )
                assert (got_status, got_body) == (status, body), (path, dataset)
                assert headers["Content-Length"] == str(len(body))
                assert "X-Repro-Trace" in headers
                timing = headers["Server-Timing"]
                assert timing.startswith(STUB_TIMING + ", front;dur=")

    def test_non_object_body_is_400_on_a_kept_connection(self):
        """The front answers a JSON body that is not an object as the
        single process does — 400 ``bad_request`` — and the keep-alive
        connection stays usable."""
        with stub_front() as cluster:
            conn = http.client.HTTPConnection(cluster.host, cluster.port, timeout=60)
            try:
                for path in ("/select", "/mutate"):
                    for payload in ([1, 2], "abc", 5):
                        conn.request("POST", path, body=json.dumps(payload))
                        response = conn.getresponse()
                        answer = json.loads(response.read())
                        assert response.status == 400, (path, payload)
                        assert answer["error"]["code"] == "bad_request"
                conn.request("GET", "/healthz")
                assert conn.getresponse().status == 200
            finally:
                conn.close()

    def test_real_cluster_forwards_bytes_and_server_timing(self, monkeypatch):
        """A supervised ``/zoom`` body is byte for byte what the worker
        wrote, and ``/select`` carries the worker's Server-Timing plus
        the front's own component."""
        from repro.service import supervisor as supervisor_mod

        worker_bodies = []
        read = supervisor_mod._read_http_response

        async def tapped(reader):
            answer = await read(reader)
            worker_bodies.append(answer[2])
            return answer

        monkeypatch.setattr(supervisor_mod, "_read_http_response", tapped)
        cluster = start_supervised(["uniform"], 2, n=300, threads=2)
        try:
            status, headers, _body = _raw_post(
                cluster.host, cluster.port, "/select",
                {"dataset": "uniform", "radius": 0.1, "engine": ENGINE},
            )
            assert status == 200
            timing = parse_server_timing(headers["Server-Timing"])
            assert {"total", "build", "select", "front"} <= set(timing)
            assert timing["front"] >= timing["total"]
            status, headers, body = _raw_post(
                cluster.host, cluster.port, "/zoom",
                {"dataset": "uniform", "radius": 0.1, "to": 0.05,
                 "engine": ENGINE},
            )
            assert status == 200
            assert body in worker_bodies
            assert "closest_black" not in json.loads(body)["result"]
            assert "front" in parse_server_timing(headers["Server-Timing"])
            with ServiceClient(cluster.host, cluster.port) as client:
                catalogue = client.datasets()["datasets"]
            assert [row["id"] for row in catalogue] == ["uniform"]
        finally:
            cluster.stop()


# ----------------------------------------------------------------------
# Chaos lane (kill -9 mid-trace; excluded from the default run)
# ----------------------------------------------------------------------
@pytest.mark.chaos
def test_kill9_mid_trace_loses_nothing():
    """The acceptance scenario: SIGKILL a worker mid-zoom-trace.

    Zero lost or hung requests, responses byte-identical to the
    fault-free reference, the in-flight gauge drained, the worker
    restarted, and the orphan sweep finds no leaked segment.
    """
    from repro.service.load import run_kill9_trace

    out = run_kill9_trace(n=1200)
    assert out["killed"] and "pid" in out["killed"]
    assert out["requests"] == out["expected_requests"]
    assert out["failures"] == 0, out["status_counts"]
    assert out["byte_identical"], out["mismatched_radii"]
    assert out["restarts"] >= 1
    # One kill, not a crash loop: the restarted worker is not re-armed.
    assert out["crashes"] == 1, out
    assert out["inflight_final"] == 0
    assert out["leaked_segments"] == []
    # PR 10 acceptance: one trace id correlates the front span with the
    # worker that answered after the SIGKILL replay.
    correlation = out["trace_correlation"]
    # >=: the front also logs health/stat polls, not just the trace load.
    assert correlation["front_records"] >= out["requests"]
    assert correlation["correlated"], correlation
    replayed = correlation["replayed_request"]
    assert replayed is not None, "no front record shows a replay"
    assert replayed["proxy_attempts"] >= 2
    assert replayed["served_by_workers"], replayed


@pytest.mark.chaos
def test_chaos_fault_mix_under_supervision():
    """The PR 6 fault mix (build failures, slow builds, stalls, resets)
    replayed through the single-process chaos harness — the chaos lane
    runs both generations of failure modes."""
    from repro.service.load import run_chaos_trace

    out = run_chaos_trace(
        {
            "seed": 11,
            "build_failure_rate": 0.2,
            "build_failure_limit": 4,
            "slow_build_rate": 0.3,
            "slow_build_s": 0.1,
            "connection_reset_rate": 0.1,
            "worker_stall_rate": 0.2,
            "worker_stall_s": 0.1,
        },
        n=1200,
    )
    assert out["requests"] == out["expected_requests"]
    assert out["byte_identical"], out["mismatched_radii"]
    assert out["inflight_final"] == 0
