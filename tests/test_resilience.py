"""Fault-tolerance suite: deadlines, breakers, retries, degraded modes.

Covers the resilience stack end to end at small n so the CI resilience
lane stays fast:

* :mod:`repro.cancellation` — token budgets, ambient scoping, and the
  cooperative checkpoints inside ``disc_select``'s hot loops;
* :mod:`repro.service.resilience` — deadline resolution and request
  metadata, the circuit breaker state machine, jittered retry policies;
* :class:`SharedCacheManager` failure containment — prompt single-flight
  error propagation, breaker trips + half-open recovery, the stale tier
  served degraded, corrupt-entry detection, counter consistency under
  threads;
* HTTP semantics — 408 vs 504 deadline mapping, structured error
  bodies, idempotent replay, injected faults surfacing as 503s the
  retrying client rides out;
* the chaos suite — :func:`repro.service.load.run_chaos_trace` replays
  the 4-client zoom trace under fault mixes and must come back with
  zero hung requests, byte-identical successes, and a drained
  in-flight gauge.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import disc_select
from repro.cancellation import (
    CHECKPOINT_EVERY,
    CancellationToken,
    OperationCancelled,
    cancellation_scope,
    current_token,
)
from repro.datasets import uniform_dataset
from repro.service import (
    DatasetRegistry,
    ServiceClient,
    ServiceError,
    ServiceState,
    SharedCacheManager,
    start_in_thread,
)
from repro.service.faults import (
    CorruptedEntry,
    FaultConfig,
    FaultInjector,
    InjectedFault,
)
from repro.service.load import DEADLINE_SLACK_MS, run_chaos_trace
from repro.service.resilience import (
    BuildFailed,
    CircuitBreaker,
    CircuitOpen,
    RetryPolicy,
    error_body,
    extract_request_meta,
    resolve_deadline,
)

KEY = ("ds", "euclidean", 0.5)


class _Sized:
    """Stand-in adjacency with a declared byte size."""

    def __init__(self, nbytes: int = 8) -> None:
        self.nbytes = nbytes


# ----------------------------------------------------------------------
# Cancellation tokens
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_unbounded_token_never_expires(self):
        token = CancellationToken.with_timeout(None)
        assert token.remaining() is None
        assert not token.expired()
        token.checkpoint()  # no raise

    def test_deadline_expiry_raises_with_source(self):
        token = CancellationToken.with_timeout(0.005, source="client")
        assert token.remaining() <= 0.005
        time.sleep(0.01)
        assert token.expired()
        with pytest.raises(OperationCancelled) as excinfo:
            token.checkpoint()
        assert excinfo.value.source == "client"

    def test_explicit_cancel(self):
        token = CancellationToken.with_timeout(None, source="server")
        token.checkpoint()
        token.cancel()
        assert token.cancelled
        with pytest.raises(OperationCancelled) as excinfo:
            token.checkpoint()
        assert excinfo.value.source == "server"

    def test_mark_degraded_keeps_first_reason(self):
        token = CancellationToken.with_timeout(None)
        assert token.degraded is None
        token.mark_degraded("stale-adjacency:circuit-open")
        token.mark_degraded("something-else")
        assert token.degraded == "stale-adjacency:circuit-open"

    def test_ambient_scope_installs_and_restores(self):
        assert current_token() is None
        outer = CancellationToken.with_timeout(None)
        inner = CancellationToken.with_timeout(None)
        with cancellation_scope(outer):
            assert current_token() is outer
            with cancellation_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_expired_token_cancels_disc_select(self):
        """The cooperative checkpoints inside the greedy loops fire."""
        data = uniform_dataset(n=1500, seed=3)
        token = CancellationToken.with_timeout(1e-6, source="client")
        time.sleep(0.002)
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled) as excinfo:
                disc_select(data, 0.05)
        assert excinfo.value.source == "client"
        # And outside the scope the same call is unaffected.
        assert disc_select(data, 0.05).selected

    def test_checkpoint_interval_is_bounded(self):
        assert 1 <= CHECKPOINT_EVERY <= 4096


# ----------------------------------------------------------------------
# Deadline resolution + request metadata
# ----------------------------------------------------------------------
class TestResolveDeadline:
    def test_no_budget_at_all(self):
        assert resolve_deadline(None) == (None, "server")

    def test_client_budget_binds(self):
        seconds, source = resolve_deadline(500.0)
        assert seconds == pytest.approx(0.5)
        assert source == "client"

    def test_server_default_applies_without_client(self):
        seconds, source = resolve_deadline(None, default_timeout_ms=200.0)
        assert seconds == pytest.approx(0.2)
        assert source == "server"

    def test_server_cap_undercuts_client(self):
        seconds, source = resolve_deadline(
            5000.0, default_timeout_ms=100.0, max_timeout_ms=200.0
        )
        assert seconds == pytest.approx(0.2)
        assert source == "server"

    def test_client_under_cap_stays_client(self):
        seconds, source = resolve_deadline(100.0, max_timeout_ms=200.0)
        assert seconds == pytest.approx(0.1)
        assert source == "client"


class TestExtractRequestMeta:
    def test_passthrough_without_metadata(self):
        payload = {"dataset": "uniform", "radius": 0.1}
        clean, timeout_ms, idem = extract_request_meta(payload)
        assert clean is payload  # identity: nothing copied
        assert timeout_ms is None and idem is None

    def test_strips_metadata_keys(self):
        payload = {
            "dataset": "uniform",
            "radius": 0.1,
            "timeout_ms": 250,
            "idempotency_key": "abc",
        }
        clean, timeout_ms, idem = extract_request_meta(payload)
        assert clean == {"dataset": "uniform", "radius": 0.1}
        assert timeout_ms == 250.0 and idem == "abc"
        assert "timeout_ms" in payload  # original untouched

    @pytest.mark.parametrize(
        "bad", [0, -5, "fast", True, float("nan"), float("inf") * 0]
    )
    def test_rejects_bad_timeout(self, bad):
        with pytest.raises(ValueError, match="timeout_ms"):
            extract_request_meta({"timeout_ms": bad})

    @pytest.mark.parametrize("bad", ["", 123, "x" * 257])
    def test_rejects_bad_idempotency_key(self, bad):
        with pytest.raises(ValueError, match="idempotency_key"):
            extract_request_meta({"idempotency_key": bad})

    def test_error_body_shape(self):
        body = error_body("deadline_exceeded", "too slow")
        assert body == {
            "error": {"code": "deadline_exceeded", "message": "too slow"}
        }


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=60.0)
        for _ in range(2):
            breaker.record_failure()
            assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after_s() > 0

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.allow()  # the probe slot
        assert breaker.state == "half_open"
        assert not breaker.allow()  # concurrent callers stay out

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=0.02)
        breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_immediately(self):
        breaker = CircuitBreaker(failure_threshold=5, reset_after_s=0.02)
        for _ in range(5):
            breaker.record_failure()
        time.sleep(0.03)
        assert breaker.allow()
        breaker.record_failure()  # one failed probe, not five
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0)
        assert json.dumps(CircuitBreaker().describe())


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_is_jittered_exponential(self):
        policy = RetryPolicy(retries=6, base_s=0.1, cap_s=1.0, seed=1)
        for attempt in range(6):
            expected = min(1.0, 0.1 * 2**attempt)
            delay = policy.delay(attempt)
            assert 0.5 * expected <= delay <= expected

    def test_delays_truncated_by_budget(self):
        policy = RetryPolicy(
            retries=10, base_s=1.0, cap_s=1.0, budget_s=1.5, seed=2
        )
        delays = list(policy.delays())
        assert sum(delays) <= 1.5 + 1e-9
        assert len(delays) < 10

    def test_delays_count_without_budget_pressure(self):
        policy = RetryPolicy(retries=4, base_s=0.001, budget_s=60.0, seed=3)
        assert len(list(policy.delays())) == 4

    def test_retryable_statuses(self):
        policy = RetryPolicy(statuses=(503, 429))
        assert policy.retryable_status(503)
        assert policy.retryable_status(429)
        assert not policy.retryable_status(408)
        assert not policy.retryable_status(200)

    def test_seeded_determinism(self):
        a = RetryPolicy(retries=5, seed=7)
        b = RetryPolicy(retries=5, seed=7)
        assert [a.delay(i) for i in range(5)] == [b.delay(i) for i in range(5)]
        assert a.new_idempotency_key() == b.new_idempotency_key()
        assert a.new_idempotency_key() != a.new_idempotency_key()


# ----------------------------------------------------------------------
# SharedCacheManager failure containment
# ----------------------------------------------------------------------
class TestSingleFlightFailure:
    def test_failing_build_releases_waiter_promptly(self):
        """Two threads race one failing build: the waiter gets the error
        as soon as the builder fails, never after ``build_wait_s``."""
        manager = SharedCacheManager(build_wait_s=30.0)
        assert manager.get(KEY) is None  # this thread owns the build
        outcome = {}

        def waiter():
            t0 = time.perf_counter()
            try:
                manager.get(KEY)
                outcome["kind"] = "value"
            except BuildFailed as exc:
                outcome["kind"] = "failed"
                outcome["cause"] = exc.cause
            outcome["waited"] = time.perf_counter() - t0

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        boom = RuntimeError("exploded at /secret/path")
        manager.fail(KEY, boom)
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome["kind"] == "failed"
        assert outcome["cause"] is boom
        assert outcome["waited"] < 5.0  # prompt, not build_wait_s
        assert manager.build_failures == 1

    def test_build_failed_message_does_not_leak_cause_str(self):
        exc = BuildFailed(KEY, RuntimeError("exploded at /secret/path"))
        assert "secret" not in str(exc)
        assert "RuntimeError" in str(exc)

    def test_cancelled_build_hands_slot_to_waiter(self):
        """A cooperative cancellation is an abandon, not a failure: no
        breaker hit, and the waiter takes over the build."""
        manager = SharedCacheManager(build_wait_s=30.0)
        assert manager.get(KEY) is None
        got = []

        def waiter():
            got.append(manager.get(KEY))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        manager.fail(KEY, OperationCancelled("deadline", source="client"))
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert got == [None]  # the waiter now owns the build slot
        assert manager.build_failures == 0
        assert manager.breaker_state(KEY) == "closed"
        manager.abandon(KEY)


class TestBreakerAndStaleTier:
    def test_repeated_failures_trip_breaker_then_recover(self):
        manager = SharedCacheManager(failure_threshold=2, breaker_reset_s=0.05)
        for _ in range(2):
            assert manager.get(KEY) is None
            manager.fail(KEY, RuntimeError("boom"))
        assert manager.breaker_state(KEY) == "open"
        with pytest.raises(CircuitOpen):
            manager.get(KEY)
        time.sleep(0.06)
        assert manager.get(KEY) is None  # half-open probe admitted
        value = _Sized()
        manager.put(KEY, value)
        assert manager.breaker_state(KEY) == "closed"
        assert manager.get(KEY) is value

    def test_stale_served_degraded_while_breaker_open(self):
        manager = SharedCacheManager(
            ttl_s=0.03, failure_threshold=1, breaker_reset_s=60.0
        )
        value = _Sized()
        assert manager.get(KEY) is None
        manager.put(KEY, value)
        time.sleep(0.05)  # age the entry into the stale tier
        assert manager.get(KEY) is None  # expired -> miss, slot claimed
        manager.fail(KEY, RuntimeError("boom"))  # opens (threshold 1)
        token = CancellationToken.with_timeout(10.0, source="client")
        with cancellation_scope(token):
            served = manager.get(KEY)
        assert served is value  # datasets are immutable: same bytes
        assert token.degraded == "stale-adjacency:circuit-open"
        assert manager.stale_served == 1
        info = manager.cache_info()
        assert info["stale_entries"] == 1 and info["stale_served"] == 1

    def test_stale_served_when_deadline_cannot_fit_rebuild(self):
        manager = SharedCacheManager(ttl_s=0.03)
        value = _Sized()
        assert manager.get(KEY) is None
        time.sleep(0.06)  # recorded build time ~60ms
        manager.put(KEY, value)
        time.sleep(0.05)  # expire into the stale tier
        token = CancellationToken.with_timeout(0.02, source="client")
        with cancellation_scope(token):
            served = manager.get(KEY)  # 20ms left < 60ms * safety
        assert served is value
        assert token.degraded == "stale-adjacency:deadline"

    def test_rebuild_proceeds_when_deadline_is_roomy(self):
        manager = SharedCacheManager(ttl_s=0.03)
        assert manager.get(KEY) is None
        manager.put(KEY, _Sized())
        time.sleep(0.05)
        token = CancellationToken.with_timeout(30.0, source="client")
        with cancellation_scope(token):
            assert manager.get(KEY) is None  # plenty of budget: rebuild
        assert token.degraded is None
        manager.abandon(KEY)

    def test_corrupt_entry_detected_and_dropped(self):
        faults = FaultInjector(FaultConfig(seed=0, corrupt_cache_rate=1.0))
        manager = SharedCacheManager(faults=faults)
        value = _Sized()
        assert manager.get(KEY) is None
        manager.put(KEY, value)  # stored copy is poisoned on the way in
        assert manager.get(KEY) is None  # integrity check drops it
        assert manager.corrupt_entries == 1
        assert faults.fired["corrupt_cache"] == 1
        manager.abandon(KEY)

    def test_corrupted_wrapper_never_matches_stamp(self):
        wrapped = CorruptedEntry(_Sized())
        assert type(wrapped).__name__ != type(_Sized()).__name__
        assert wrapped.nbytes == 0


class TestCounterConsistency:
    def test_cache_counters_under_concurrent_mutation(self):
        """Hammer one manager from many threads; client-side tallies
        must equal the manager's counters afterwards and every
        ``cache_info`` snapshot must be internally consistent."""
        manager = SharedCacheManager(
            max_entries=4, ttl_s=0.005, failure_threshold=10_000
        )
        n_threads, n_ops = 6, 120
        tallies = [dict(puts=0, fails=0) for _ in range(n_threads)]
        snapshots_bad = []
        errors = []

        def mutator(tid):
            try:
                for i in range(n_ops):
                    key = ("ds", "euclidean", 0.1 + (i % 6) / 10)
                    try:
                        value = manager.get(key)
                    except BuildFailed:
                        continue
                    if value is not None:
                        continue
                    if i % 7 == 0:
                        manager.fail(key, RuntimeError("x"))
                        tallies[tid]["fails"] += 1
                    elif i % 5 == 0:
                        manager.abandon(key)
                    else:
                        manager.put(key, _Sized(16))
                        tallies[tid]["puts"] += 1
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)

        def reader():
            try:
                for _ in range(200):
                    info = manager.cache_info()
                    if info["entries"] != len(info["keys"]):
                        snapshots_bad.append(info)
                    if info["bytes"] != sum(k["bytes"] for k in info["keys"]):
                        snapshots_bad.append(info)
                    json.dumps(info)
            except BaseException as exc:  # pragma: no cover - surfacing
                errors.append(exc)

        threads = [
            threading.Thread(target=mutator, args=(tid,))
            for tid in range(n_threads)
        ] + [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert not snapshots_bad
        assert manager.builds == sum(t["puts"] for t in tallies)
        assert manager.build_failures == sum(t["fails"] for t in tallies)
        for counter in (
            manager.hits,
            manager.misses,
            manager.evictions,
            manager.expirations,
            manager.coalesced_builds,
            manager.stale_served,
            manager.corrupt_entries,
        ):
            assert counter >= 0

    def test_inflight_gauge_balanced_under_threads(self):
        registry = DatasetRegistry()
        registry.register_builtin("uniform", n=30, seed=1)
        state = ServiceState(registry, workers=2)
        try:
            def worker():
                for _ in range(500):
                    state.adjust_inflight(1)
                    state.adjust_inflight(-1)

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert state.current_inflight() == 0
            assert state.stats()["inflight"] == 0
        finally:
            state.close()


# ----------------------------------------------------------------------
# Fault injection determinism
# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_streams_are_seeded_and_independent(self):
        a = FaultInjector(FaultConfig(seed=5, connection_reset_rate=0.5))
        b = FaultInjector(FaultConfig(seed=5, connection_reset_rate=0.5))
        seq_a = [a.should_reset_connection() for _ in range(30)]
        seq_b = [b.should_reset_connection() for _ in range(30)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_build_failure_limit_caps_injections(self):
        injector = FaultInjector(
            FaultConfig(seed=1, build_failure_rate=1.0, build_failure_limit=2)
        )
        fired = 0
        for _ in range(5):
            try:
                injector.on_build()
            except InjectedFault as exc:
                assert exc.point == "build_failure"
                fired += 1
        assert fired == 2
        assert injector.fired["build_failure"] == 2

    def test_config_validation(self):
        with pytest.raises(ValueError, match="must be in"):
            FaultConfig(build_failure_rate=1.5)
        with pytest.raises(ValueError, match="must be >="):
            FaultConfig(slow_build_s=-1)
        with pytest.raises(ValueError, match="unknown fault config"):
            FaultConfig.from_dict({"bogus": 1})
        round_tripped = FaultConfig.from_dict(FaultConfig(seed=9).to_dict())
        assert round_tripped.seed == 9

    def test_cooperative_sleep_honours_deadline(self):
        injector = FaultInjector(
            FaultConfig(seed=0, worker_stall_rate=1.0, worker_stall_s=5.0)
        )
        token = CancellationToken.with_timeout(0.05, source="client")
        t0 = time.perf_counter()
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled):
                injector.on_compute()
        assert time.perf_counter() - t0 < 1.0  # cancelled, not slept out


# ----------------------------------------------------------------------
# HTTP semantics
# ----------------------------------------------------------------------
N = 900
SEED = 7
RADIUS = 0.1
ENGINE = {"name": "grid", "options": {"cell_size": RADIUS}}


def _registry() -> DatasetRegistry:
    registry = DatasetRegistry()
    registry.register_builtin("uniform", n=N, seed=SEED)
    return registry


@pytest.fixture(scope="module")
def service():
    state = ServiceState(
        _registry(), cache=SharedCacheManager(max_entries=16), workers=2
    )
    with start_in_thread(state) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


class TestHTTPDeadlines:
    def test_tiny_timeout_is_408_and_releases_slot(self, service, client):
        with pytest.raises(ServiceError) as excinfo:
            client.select("uniform", 0.07, engine=ENGINE, timeout_ms=0.01)
        assert excinfo.value.status == 408
        assert excinfo.value.code == "deadline_exceeded"
        deadline = time.monotonic() + 5.0
        stats = client.stats()
        while stats["inflight"] > 0 and time.monotonic() < deadline:
            time.sleep(0.02)
            stats = client.stats()
        assert stats["inflight"] == 0  # the slot came back
        assert stats["timeouts"] >= 1
        assert stats["responses"].get("408", 0) >= 1

    def test_server_cap_is_504(self):
        state = ServiceState(_registry(), workers=1, max_timeout_ms=0.01)
        with start_in_thread(state) as running:
            with ServiceClient(running.host, running.port) as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.select("uniform", RADIUS, engine=ENGINE, timeout_ms=60_000)
        assert excinfo.value.status == 504
        assert excinfo.value.code == "server_deadline_exceeded"

    def test_server_default_timeout_applies_without_client_budget(self):
        state = ServiceState(_registry(), workers=1, default_timeout_ms=0.01)
        with start_in_thread(state) as running:
            with ServiceClient(running.host, running.port) as c:
                status, payload = c.request(
                    "POST",
                    "/select",
                    {"dataset": "uniform", "radius": RADIUS, "engine": ENGINE},
                )
        assert status == 504
        assert payload["error"]["code"] == "server_deadline_exceeded"

    def test_bad_timeout_ms_is_400(self, client):
        status, payload = client.request(
            "POST",
            "/select",
            {"dataset": "uniform", "radius": RADIUS, "timeout_ms": -5},
        )
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "timeout_ms" in payload["error"]["message"]


class TestHTTPErrorsAndIdempotency:
    def test_structured_error_bodies(self, client):
        for path, payload, expected_code in (
            ("/select", {"dataset": "missing", "radius": 0.1}, "not_found"),
            ("/select", {"dataset": "uniform"}, "bad_request"),
        ):
            status, body = client.request("POST", path, payload)
            assert set(body) == {"error"}
            assert set(body["error"]) == {"code", "message"}
            assert body["error"]["code"] == expected_code

    def test_idempotent_replay_skips_recompute(self, service, client):
        payload = {
            "dataset": "uniform",
            "radius": 0.09,
            "engine": ENGINE,
            "idempotency_key": "replay-me",
        }
        before = client.stats()["computations"]
        status1, first = client.request("POST", "/select", payload)
        status2, second = client.request("POST", "/select", payload)
        assert status1 == status2 == 200
        assert first["result"]["selected"] == second["result"]["selected"]
        assert second["coalesced"] is True
        after = client.stats()["computations"]
        assert after - before == 1  # the replay computed nothing

    def test_injected_build_failure_is_503_and_retry_recovers(self):
        faults = FaultInjector(
            FaultConfig(seed=2, build_failure_rate=1.0, build_failure_limit=1)
        )
        state = ServiceState(
            _registry(),
            cache=SharedCacheManager(max_entries=16, faults=faults),
            workers=2,
            faults=faults,
        )
        with start_in_thread(state) as running:
            with ServiceClient(running.host, running.port) as bare:
                with pytest.raises(ServiceError) as excinfo:
                    bare.select("uniform", RADIUS, engine=ENGINE)
            assert excinfo.value.status == 503
            assert excinfo.value.code in ("injected_fault", "build_failed")
            retrying = ServiceClient(
                running.host,
                running.port,
                retry=RetryPolicy(retries=3, base_s=0.01, seed=0),
            )
            with retrying:
                response = retrying.select("uniform", RADIUS, engine=ENGINE)
            assert response["result"]["selected"]
            assert response["degraded"] is False


# ----------------------------------------------------------------------
# Chaos suite: the 4-client zoom trace under fault mixes
# ----------------------------------------------------------------------
def _assert_chaos_invariants(outcome: dict) -> None:
    # Zero hung requests: every request resolved to some status.
    assert outcome["requests"] == outcome["expected_requests"]
    # Every success (degraded or not) byte-identical to the clean run.
    assert outcome["byte_identical"], outcome["mismatched_radii"]
    # Cancelled/failed work released its executor slot.
    assert outcome["inflight_final"] == 0


class TestChaosSuite:
    def test_no_fault_control_run(self):
        outcome = run_chaos_trace(None, n=800)
        _assert_chaos_invariants(outcome)
        assert outcome["successes"] == outcome["requests"]
        assert outcome["failures"] == 0
        # Single-flight: identical concurrent requests computed once.
        assert outcome["computations"] < outcome["requests"]
        # One build per unique radius, and the repeats hit the cache.
        cache = outcome["cache"]
        assert cache["builds"] == 3
        assert cache["hits"] / (cache["hits"] + cache["misses"]) >= 0.5

    def test_build_failures_and_slow_builds(self):
        outcome = run_chaos_trace(
            {
                "seed": 3,
                "build_failure_rate": 0.5,
                "build_failure_limit": 3,
                "slow_build_rate": 0.5,
                "slow_build_s": 0.03,
            },
            n=800,
        )
        _assert_chaos_invariants(outcome)
        fired = outcome["faults_fired"]
        assert fired["build_failure"] >= 1
        # Retry-enabled clients rode the failures out.
        assert outcome["successes"] == outcome["requests"]

    def test_connection_resets(self):
        outcome = run_chaos_trace(
            {"seed": 11, "connection_reset_rate": 0.2}, n=800
        )
        _assert_chaos_invariants(outcome)
        assert outcome["faults_fired"]["connection_reset"] >= 1
        assert outcome["successes"] == outcome["requests"]

    def test_corruption_and_worker_stalls(self):
        outcome = run_chaos_trace(
            {
                "seed": 5,
                "corrupt_cache_rate": 0.4,
                "worker_stall_rate": 0.3,
                "worker_stall_s": 0.02,
            },
            n=800,
        )
        _assert_chaos_invariants(outcome)
        fired = outcome["faults_fired"]
        assert fired["corrupt_cache"] + fired["worker_stall"] >= 1
        assert outcome["successes"] == outcome["requests"]

    def test_deadlines_under_slow_builds(self):
        """Tight budgets + injected slow builds: timed-out requests are
        counted, nothing hangs, and whatever succeeded is still exact."""
        outcome = run_chaos_trace(
            {"seed": 13, "slow_build_rate": 1.0, "slow_build_s": 0.25},
            n=800,
            timeout_ms=150.0,
            retry=RetryPolicy(retries=0),
        )
        _assert_chaos_invariants(outcome)
        # /stats counts this replay's server only, not every server the
        # process has run.
        counts = outcome["status_counts"]
        assert outcome["timeouts"] == counts.get("408", 0) + counts.get("504", 0)
        assert counts.get("408", 0) >= 1
        # Cooperative cancellation bounds the wait: every 408/504 arrived
        # within the budget plus one checkpoint interval.
        assert outcome["max_error_latency_ms"] <= 150.0 + DEADLINE_SLACK_MS
