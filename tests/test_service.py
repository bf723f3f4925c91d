"""Serving-layer tests: registry, shared cache, HTTP server, CLI smoke.

Covers the :mod:`repro.service` subsystem end to end at small n so it
stays in the tier-1 lane:

* :class:`DatasetRegistry` — load-once handles, immutability, arrays;
* :class:`SharedCacheManager` — keys/bucketing, TTL, byte budgets,
  build coalescing;
* the asyncio HTTP server — endpoint contracts, error mapping,
  byte-parity of served selections with direct :func:`disc_select`
  calls, single-flight coalescing;
* the ``repro serve`` CLI as a real subprocess — multi-client zoom
  trace, cache hits, clean SIGTERM shutdown (the CI smoke lane runs
  this file explicitly).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.api import DiscSession, build_index, disc_select
from repro.core import closest_black_distances
from repro.datasets import uniform_dataset
from repro.service import (
    DatasetRegistry,
    ServiceClient,
    ServiceError,
    ServiceState,
    SharedCacheManager,
    start_in_thread,
    wait_until_healthy,
)
from repro.service.server import MAX_BODY_BYTES

N = 1200
SEED = 7
RADIUS = 0.1
ENGINE = {"name": "grid", "options": {"cell_size": RADIUS}}


# ----------------------------------------------------------------------
# DatasetRegistry
# ----------------------------------------------------------------------
class TestDatasetRegistry:
    def test_load_once_returns_identical_handles(self):
        registry = DatasetRegistry()
        registry.register_builtin("uniform", n=50, seed=1)
        first = registry.get("uniform")
        second = registry.get("uniform")
        assert first is second
        assert first.dataset_id == "uniform"
        assert first.n == 50

    def test_concurrent_first_loads_coalesce(self):
        registry = DatasetRegistry()
        loads = []
        registry.register_spec(
            "counted",
            lambda: (loads.append(1), uniform_dataset(n=40, seed=2))[1],
        )
        handles = []
        threads = [
            threading.Thread(target=lambda: handles.append(registry.get("counted")))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(loads) == 1
        assert all(h is handles[0] for h in handles)

    def test_handles_are_immutable(self):
        registry = DatasetRegistry()
        registry.register_builtin("uniform", n=30, seed=1)
        handle = registry.get("uniform")
        with pytest.raises((ValueError, RuntimeError)):
            handle.dataset.points[0, 0] = 99.0

    def test_register_array_and_catalogue(self):
        registry = DatasetRegistry()
        points = np.random.default_rng(0).random((25, 2))
        handle = registry.register_array("uploaded", points, "euclidean")
        assert registry.get("uploaded") is handle
        registry.register_builtin("cities")
        catalogue = {row["id"]: row for row in registry.describe()}
        assert catalogue["uploaded"]["loaded"] is True
        assert catalogue["uploaded"]["metric"] == "euclidean"
        assert catalogue["cities"]["loaded"] is False  # lazy until get()
        assert json.dumps(registry.describe())  # JSON-serialisable

    def test_duplicate_and_unknown_names(self):
        registry = DatasetRegistry()
        registry.register_builtin("uniform", n=30)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_builtin("uniform")
        with pytest.raises(ValueError, match="unknown built-in"):
            registry.register_builtin("nope")
        with pytest.raises(KeyError, match="unknown dataset"):
            registry.get("nope")


# ----------------------------------------------------------------------
# SharedCacheManager
# ----------------------------------------------------------------------
class _Sized:
    """Stand-in adjacency with a declared byte size."""

    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


class TestSharedCacheManager:
    def test_bucketed_keys_hit_across_float_noise(self):
        manager = SharedCacheManager()
        view = manager.view("ds", "euclidean")
        assert view.get(0.3) is None  # miss claims the build slot
        view.put(0.3, _Sized(8))
        # 0.1 * 3 != 0.3 exactly, but it is the same radius to a user.
        assert view.get(0.1 * 3) is not None
        assert manager.hits == 1 and manager.builds == 1

    def test_views_namespace_datasets_and_metrics(self):
        manager = SharedCacheManager()
        a = manager.view("a", "euclidean")
        b = manager.view("b", "euclidean")
        a.get(RADIUS)
        a.put(RADIUS, _Sized(8))
        assert b.get(RADIUS) is None  # different dataset, different key
        b.abandon(RADIUS)
        assert a.get(RADIUS) is not None
        info = a.cache_info()
        assert info["dataset"] == "a" and info["entries"] == 1
        assert json.dumps(manager.cache_info())  # /stats serialisability

    def test_ttl_expires_entries(self):
        manager = SharedCacheManager(ttl_s=0.05)
        key = ("ds", "euclidean", 0.1)
        assert manager.get(key) is None
        manager.put(key, _Sized(8))
        assert manager.get(key) is not None
        time.sleep(0.08)
        assert manager.get(key) is None  # expired -> miss, slot claimed
        manager.abandon(key)
        assert manager.expirations == 1

    def test_byte_budget_evicts_lru(self):
        manager = SharedCacheManager(max_entries=None, max_bytes=100)
        for i, radius in enumerate((0.1, 0.2, 0.3)):
            key = ("ds", "euclidean", radius)
            manager.get(key)
            manager.put(key, _Sized(60))
        assert len(manager) == 1  # only the most recent survives 100B
        assert manager.evictions == 2
        assert manager.cache_info()["bytes"] <= 100

    def test_concurrent_misses_coalesce_to_one_build(self):
        manager = SharedCacheManager()
        key = ("ds", "euclidean", 0.5)
        outcomes = []

        def builder():
            value = manager.get(key)
            assert value is None
            time.sleep(0.1)  # simulate the adjacency build
            manager.put(key, _Sized(8))
            outcomes.append("built")

        def waiter():
            time.sleep(0.02)  # ensure the builder claimed the slot
            value = manager.get(key)
            outcomes.append("waited" if value is not None else "rebuilt")

        threads = [threading.Thread(target=builder)] + [
            threading.Thread(target=waiter) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("built") == 1
        assert outcomes.count("waited") == 3
        assert manager.builds == 1
        assert manager.coalesced_builds == 3

    def test_abandon_releases_waiters(self):
        manager = SharedCacheManager(build_wait_s=5.0)
        key = ("ds", "euclidean", 0.7)
        assert manager.get(key) is None

        seen = []

        def waiter():
            t0 = time.perf_counter()
            value = manager.get(key)  # becomes the new owner post-abandon
            seen.append((value, time.perf_counter() - t0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        manager.abandon(key)
        thread.join(timeout=5)
        assert not thread.is_alive()
        value, waited = seen[0]
        assert value is None  # waiter takes over the (non-)build
        assert waited < 2.0  # released by abandon, not by timeout


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    registry = DatasetRegistry()
    registry.register_builtin("uniform", n=N, seed=SEED)
    registry.register_builtin("clustered", n=N, seed=SEED)
    state = ServiceState(
        registry, cache=SharedCacheManager(max_entries=16), workers=3
    )
    with start_in_thread(state) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


@pytest.fixture(scope="module", params=["single", "front"])
def http_server(request, service):
    """Both servers behind the one error contract: the single process
    above, and a supervised front over a stub worker (no subprocess)."""
    if request.param == "single":
        yield service
        return
    from test_supervisor import stub_front

    with stub_front() as front:
        yield front


class TestServerEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "uniform" in health["datasets"]

    def test_datasets_catalogue(self, client):
        catalogue = {row["id"] for row in client.datasets()["datasets"]}
        assert {"uniform", "clustered"} <= catalogue

    def test_select_matches_direct_disc_select(self, client):
        response = client.select("uniform", RADIUS, engine=ENGINE)
        reference = disc_select(
            uniform_dataset(n=N, seed=SEED),
            RADIUS,
            engine="grid",
            engine_options={"cell_size": RADIUS},
        )
        assert response["result"]["selected"] == [int(i) for i in reference.selected]
        assert response["result"]["algorithm"] == reference.algorithm
        assert response["result"]["radius"] == RADIUS
        # The whole result payload round-trips through the documented
        # wire format.
        from repro.core import DiscResult

        back = DiscResult.from_dict(response["result"])
        assert back.selected == [int(i) for i in reference.selected]

    def test_nested_request_form_is_equivalent(self, client):
        flat = client.select("uniform", RADIUS, engine=ENGINE)
        status, nested = client.request(
            "POST",
            "/select",
            {
                "dataset": "uniform",
                "request": {"radius": RADIUS, "method": "greedy", "engine": ENGINE},
            },
        )
        assert status == 200
        assert nested["result"]["selected"] == flat["result"]["selected"]

    def test_zoom_in_and_out(self, client):
        zoomed = client.zoom("uniform", RADIUS, RADIUS / 2, engine=ENGINE)
        assert zoomed["direction"] == "in"
        base = set(zoomed["from_result"]["selected"])
        finer = set(zoomed["result"]["selected"])
        assert base <= finer  # zoom-in keeps every black object
        out = client.zoom("uniform", RADIUS, RADIUS * 2, engine=ENGINE)
        assert out["direction"] == "out"
        assert len(out["result"]["selected"]) <= len(out["from_result"]["selected"])

    def test_zoom_accepts_nested_request_form(self, client):
        flat = client.zoom("uniform", RADIUS, RADIUS / 2, engine=ENGINE)
        status, nested = client.request(
            "POST",
            "/zoom",
            {
                "dataset": "uniform",
                "to": RADIUS / 2,
                "request": {"radius": RADIUS, "engine": ENGINE},
            },
        )
        assert status == 200
        assert nested["result"]["selected"] == flat["result"]["selected"]

    def test_error_mapping(self, http_server):
        with ServiceClient(http_server.host, http_server.port) as client:
            for method, path, status, code in [
                ("GET", "/nope", 404, "not_found"),
                ("POST", "/nope", 404, "not_found"),
                ("GET", "/select", 405, "method_not_allowed"),
                ("POST", "/stats", 405, "method_not_allowed"),
                ("FROB", "/select", 405, "method_not_allowed"),
            ]:
                got, payload = client.request(method, path)
                assert (got, payload["error"]["code"]) == (status, code), path

    def test_validation_error_mapping(self, client):
        assert client.request("POST", "/select", {"dataset": "missing", "radius": 0.1})[0] == 404
        assert client.request("POST", "/select", {"dataset": "uniform"})[0] == 400
        assert client.request(
            "POST", "/select", {"dataset": "uniform", "radius": 0.1, "method": "nope"}
        )[0] == 400
        assert client.request(
            "POST",
            "/select",
            {"dataset": "uniform", "radius": 0.1, "method_options": {"bogus": 1}},
        )[0] == 400
        assert client.request(
            "POST", "/zoom", {"dataset": "uniform", "radius": 0.1, "to": 0.1}
        )[0] == 400
        with pytest.raises(ServiceError) as excinfo:
            client.select("missing", 0.1)
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "body, not_json",
        [
            (b"{not json", True),
            # Valid JSON: no key of a body can mark it as invalid JSON.
            (b'{"\\u0000invalid-json": true}', False),
        ],
    )
    def test_invalid_json_body_is_400(self, http_server, body, not_json):
        conn = http.client.HTTPConnection(http_server.host, http_server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/select",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "bad_request"
            assert ("not valid JSON" in payload["error"]["message"]) == not_json
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "length, status, code, words",
        [
            ("abc", 400, "bad_request", "Content-Length"),
            (str(MAX_BODY_BYTES + 1), 413, "payload_too_large", "too large"),
        ],
    )
    def test_malformed_content_length_is_400(
        self, http_server, length, status, code, words
    ):
        conn = http.client.HTTPConnection(http_server.host, http_server.port, timeout=30)
        try:
            conn.putrequest("POST", "/select", skip_accept_encoding=True)
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == status
            assert payload["error"]["code"] == code
            assert words in payload["error"]["message"]
            # The body framing is lost: the server closes the connection.
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_stats_shape(self, client):
        client.select("uniform", RADIUS, engine=ENGINE)
        stats = client.stats()
        assert stats["computations"] >= 1
        assert "POST /select" in stats["requests"]
        assert stats["cache"] is not None
        assert {"hits", "misses", "builds", "coalesced_builds"} <= set(stats["cache"])
        assert json.dumps(stats)  # fully serialisable

    def test_request_counters_stay_bounded_under_junk(self):
        """Unknown paths and made-up methods collapse into ``other``, so
        client input cannot grow ``/stats`` or ``/metrics``."""
        from repro.obs.metrics import MetricsRegistry

        routes = ["GET /healthz", "GET /stats", "GET /metrics", "GET /datasets",
                  "POST /select", "POST /zoom", "POST /mutate"]
        state = ServiceState(DatasetRegistry(), metrics=MetricsRegistry())
        with start_in_thread(state) as running:
            conn = http.client.HTTPConnection(running.host, running.port, timeout=30)
            try:
                junk = [("GET", f"/junk/{i}") for i in range(200)]
                junk += [(f"FROB{i}", f"/x{i}") for i in range(20)]
                junk += [("POST", "/nope"), ("FROB", "/select")]
                for method, path in junk:
                    conn.request(method, path)
                    conn.getresponse().read()
            finally:
                conn.close()
            with ServiceClient(running.host, running.port) as client:
                keys = set(client.stats()["requests"])
        (series,) = [
            entry["samples"]
            for name, entry in state.metrics.snapshot().items()
            if name == "repro_http_requests_total"
        ]
        labels = {sample["labels"]["endpoint"] for sample in series}
        allowed = {f"{m} {p.split()[1]}" for m in ("GET", "POST", "other")
                   for p in routes} | {f"{m} other" for m in ("GET", "POST", "other")}
        for seen in (keys, labels):
            assert seen <= allowed, sorted(seen - allowed)[:5]
            assert len(seen) <= len(routes) + 1, sorted(seen)
        assert {"GET other", "other other"} <= keys

    def test_identical_concurrent_requests_coalesce(self, service):
        before = None
        with ServiceClient(service.host, service.port) as probe:
            before = probe.stats()["computations"]
        barrier = threading.Barrier(4)
        flags, selections, errors = [], [], []

        def worker():
            try:
                with ServiceClient(service.host, service.port) as c:
                    barrier.wait()
                    # A fresh radius so nothing is pre-cached.
                    response = c.select("clustered", 0.0625, engine=ENGINE)
                    flags.append(response["coalesced"])
                    selections.append(tuple(response["result"]["selected"]))
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(set(selections)) == 1
        with ServiceClient(service.host, service.port) as probe:
            after = probe.stats()
        # 4 requests, strictly fewer computations (the leader's 1, plus
        # at most a straggler that arrived after the leader finished).
        computed = after["computations"] - before
        assert computed < 4
        assert flags.count(True) == 4 - computed
        assert after["coalesced_requests"] >= flags.count(True)

    def test_repeated_radii_hit_shared_cache(self, service, client):
        hits_before = client.stats()["cache"]["hits"]
        for _ in range(3):
            client.select("uniform", 0.11, engine=ENGINE)
        hits_after = client.stats()["cache"]["hits"]
        assert hits_after > hits_before


class TestZoomInclude:
    """``/zoom`` leaves the n-float ``closest_black`` arrays out unless
    the body asks for them with ``include``."""

    INCLUDE = ["closest_black"]

    def test_default_answer_has_no_closest_black(self, client):
        for to in (RADIUS / 2, RADIUS * 2):
            zoomed = client.zoom("uniform", RADIUS, to, engine=ENGINE)
            assert "closest_black" not in zoomed["from_result"]
            assert "closest_black" not in zoomed["result"]

    def test_include_returns_exact_distances(self, client):
        index = build_index(
            uniform_dataset(n=N, seed=SEED), engine="grid", cell_size=RADIUS
        )
        for to in (RADIUS / 2, RADIUS * 2):
            zoomed = client.zoom(
                "uniform", RADIUS, to, engine=ENGINE, include=self.INCLUDE
            )
            for key in ("from_result", "result"):
                got = zoomed[key]["closest_black"]
                assert len(got) == N
                expected = closest_black_distances(index, zoomed[key]["selected"])
                np.testing.assert_array_equal(np.asarray(got), expected)

    def test_replaying_distances_matches_replaying_selection(self, client):
        for to in (RADIUS / 2, RADIUS * 2):
            base = client.zoom(
                "uniform", RADIUS, to, engine=ENGINE, include=self.INCLUDE
            )["from_result"]
            held = {"selected": base["selected"], "radius": RADIUS}
            with_distances = client.zoom(
                "uniform", RADIUS, to, engine=ENGINE,
                previous=dict(
                    held,
                    closest_black=base["closest_black"],
                    closest_black_exact=True,
                ),
            )
            without = client.zoom(
                "uniform", RADIUS, to, engine=ENGINE, previous=held
            )
            assert (
                with_distances["result"]["selected"]
                == without["result"]["selected"]
            )

    @pytest.mark.parametrize(
        "include", [["closest_black", "bogus"], "closest_black", {"a": 1}, [1]]
    )
    def test_bad_include_is_400(self, client, include):
        status, payload = client.request(
            "POST",
            "/zoom",
            {"dataset": "uniform", "radius": RADIUS, "to": RADIUS / 2,
             "engine": ENGINE, "include": include},
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "include" in payload["error"]["message"]

    def test_include_is_part_of_the_coalescing_key(self, service, monkeypatch):
        """Two concurrent zooms differing only in ``include`` both
        compute: a shared body would hand one of them the wrong shape."""
        state = service.state
        original = state.run_zoom
        both_running = threading.Barrier(2, timeout=10)
        calls = []

        def gated_run_zoom(*args, **kwargs):
            calls.append(1)
            try:
                both_running.wait()
            except threading.BrokenBarrierError:
                pass  # coalesced: the second call never arrives
            return original(*args, **kwargs)

        monkeypatch.setattr(state, "run_zoom", gated_run_zoom)
        answers, errors = {}, []

        def zoom(include):
            try:
                with ServiceClient(service.host, service.port) as c:
                    answers[bool(include)] = c.zoom(
                        "clustered", 0.0875, 0.04375, engine=ENGINE,
                        include=include,
                    )
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)

        threads = [
            threading.Thread(target=zoom, args=(include,))
            for include in (None, self.INCLUDE)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(calls) == 2
        assert not answers[False]["coalesced"]
        assert not answers[True]["coalesced"]
        assert "closest_black" not in answers[False]["result"]
        assert len(answers[True]["result"]["closest_black"]) == N
        assert (
            answers[False]["result"]["selected"]
            == answers[True]["result"]["selected"]
        )


# ----------------------------------------------------------------------
# `repro serve` subprocess: the CI smoke lane
# ----------------------------------------------------------------------
def test_serve_subprocess_smoke(tmp_path):
    """Start the real CLI server, replay a short multi-client zoom
    trace, assert 200s + cache hits + coalescing + clean shutdown."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--datasets",
            "uniform",
            "--n",
            "800",
            "--threads",
            "2",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listening line in: {line!r}"
        host, port = match.group(1), int(match.group(2))
        wait_until_healthy(host, port, timeout=30)

        radii = [0.1, 0.05, 0.1, 0.05]  # repeated-radius zoom trace
        barrier = threading.Barrier(2)
        statuses, errors = [], []

        def worker():
            try:
                with ServiceClient(host, port) as c:
                    for radius in radii:
                        barrier.wait()
                        status, payload = c.request(
                            "POST",
                            "/select",
                            {"dataset": "uniform", "radius": radius,
                             "engine": ENGINE},
                        )
                        statuses.append(status)
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert statuses == [200] * (2 * len(radii))

        with ServiceClient(host, port) as c:
            stats = c.stats()
        assert stats["cache"]["hits"] > 0
        assert stats["computations"] <= 2 * len(radii)

        process.send_signal(signal.SIGTERM)
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, out
        assert "shutting down" in out
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.communicate()


def test_serve_sigterm_drains_inflight_requests():
    """SIGTERM with a request in flight: the request still completes
    (200, not a reset), the process exits 0 within the drain deadline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    # Every computation stalls ~0.8s, giving SIGTERM a deterministic
    # in-flight window to land in.
    faults = json.dumps({"seed": 1, "worker_stall_rate": 1.0, "worker_stall_s": 0.8})
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--datasets", "uniform",
            "--n", "400",
            "--threads", "2",
            "--drain-timeout", "10",
            "--faults", faults,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    try:
        line = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no listening line in: {line!r}"
        host, port = match.group(1), int(match.group(2))
        wait_until_healthy(host, port, timeout=30)

        outcomes, errors = [], []

        def worker():
            try:
                with ServiceClient(host, port) as c:
                    status, payload = c.request(
                        "POST",
                        "/select",
                        {"dataset": "uniform", "radius": 0.1, "engine": ENGINE},
                    )
                    outcomes.append((status, payload))
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.25)  # request is inside the injected stall now
        process.send_signal(signal.SIGTERM)
        thread.join(timeout=30)
        assert not thread.is_alive()
        out, _ = process.communicate(timeout=30)
        assert process.returncode == 0, out
        assert "shutting down" in out
        assert not errors, errors
        status, payload = outcomes[0]
        assert status == 200
        assert payload["result"]["selected"]
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup on failure
            process.kill()
            process.communicate()
