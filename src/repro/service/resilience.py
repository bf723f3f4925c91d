"""Resilience primitives for the serving layer.

Everything the fault-tolerant server needs that is not the cancellation
machinery itself (which lives in the dependency-free
:mod:`repro.cancellation` so the graph engines can import it):

* deadline resolution — client ``timeout_ms`` capped by the server's
  ``max_timeout_ms``, defaulting to ``default_timeout_ms`` (the capped
  source decides whether expiry answers 408 or 504),
* :class:`CircuitBreaker` — the classic closed → open → half-open
  machine guarding one ``(dataset, metric, radius_bucket)`` adjacency
  build,
* :class:`RetryPolicy` — jittered exponential backoff with a total
  retry budget, shared by :class:`~repro.service.client.ServiceClient`
  and ``wait_until_healthy``,
* structured error bodies — every non-200 response is
  ``{"error": {"code": ..., "message": ...}}``; raw ``str(exc)`` of
  unexpected exceptions never reaches the wire.

This module only imports the stdlib and :mod:`repro.cancellation`;
:mod:`repro.service.cache` imports it during package init, so it must
not import back into the package.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Iterator, Optional, Tuple

from repro.cancellation import (  # noqa: F401  (re-exported surface)
    CHECKPOINT_EVERY,
    CancellationToken,
    OperationCancelled,
    cancellation_scope,
    current_token,
)
from repro.obs import metrics as obs_metrics

__all__ = [
    "BuildFailed",
    "CircuitBreaker",
    "CircuitOpen",
    "RetryPolicy",
    "error_body",
    "extract_request_meta",
    "resolve_deadline",
    # re-exports
    "CHECKPOINT_EVERY",
    "CancellationToken",
    "OperationCancelled",
    "cancellation_scope",
    "current_token",
]


# ----------------------------------------------------------------------
# Structured errors
# ----------------------------------------------------------------------
def error_body(code: str, message: str) -> dict:
    """The wire shape of every non-200 response."""
    return {"error": {"code": str(code), "message": str(message)}}


class BuildFailed(RuntimeError):
    """An adjacency build raised; propagated to every coalesced waiter.

    Carries the *type name* of the original failure, not its ``str``
    (which may embed paths or array reprs) — the structured 503 body
    must not leak internals.
    """

    def __init__(self, key, cause: BaseException) -> None:
        super().__init__(
            f"adjacency build failed for {key!r} ({type(cause).__name__})"
        )
        self.key = key
        self.cause = cause


class CircuitOpen(RuntimeError):
    """The breaker for this key is open and no stale fallback exists."""

    def __init__(self, key, retry_after_s: float) -> None:
        super().__init__(
            f"adjacency builds for {key!r} are circuit-broken; "
            f"retry in {retry_after_s:.1f}s"
        )
        self.key = key
        self.retry_after_s = retry_after_s


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def resolve_deadline(
    timeout_ms: Optional[float],
    *,
    default_timeout_ms: Optional[float] = None,
    max_timeout_ms: Optional[float] = None,
) -> Tuple[Optional[float], str]:
    """Effective budget in **seconds** plus who imposed it.

    ``(None, "server")`` means no deadline at all.  The source is
    ``"client"`` only when the client's own ``timeout_ms`` is the
    binding constraint (→ 408 on expiry); a server default or a
    server cap that undercuts the client maps to ``"server"`` (→ 504).
    """
    if timeout_ms is None:
        timeout_ms = default_timeout_ms
        source = "server"
    else:
        source = "client"
        if max_timeout_ms is not None and timeout_ms > max_timeout_ms:
            timeout_ms = max_timeout_ms
            source = "server"
    if timeout_ms is None:
        return None, "server"
    return float(timeout_ms) / 1000.0, source


def extract_request_meta(payload: dict) -> Tuple[dict, Optional[float], Optional[str]]:
    """Split transport metadata out of a compute request body.

    Returns ``(clean_payload, timeout_ms, idempotency_key)`` with the
    metadata keys removed so request validation — and the canonical
    single-flight key — see only the semantic payload (two retries of
    one logical request must coalesce regardless of their deadlines).
    Raises ``ValueError`` (→ 400) on malformed metadata.
    """
    if not isinstance(payload, dict):
        return payload, None, None
    timeout_ms = payload.get("timeout_ms")
    if timeout_ms is not None:
        if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
            raise ValueError(
                f"timeout_ms must be a positive number, got {timeout_ms!r}"
            )
        timeout_ms = float(timeout_ms)
        if not timeout_ms > 0 or timeout_ms != timeout_ms:  # NaN check
            raise ValueError(
                f"timeout_ms must be a positive number, got {timeout_ms!r}"
            )
    idempotency_key = payload.get("idempotency_key")
    if idempotency_key is not None:
        if not isinstance(idempotency_key, str) or not idempotency_key:
            raise ValueError("idempotency_key must be a non-empty string")
        if len(idempotency_key) > 256:
            raise ValueError("idempotency_key must be <= 256 characters")
    if timeout_ms is None and idempotency_key is None:
        return payload, None, None
    clean = {
        key: value
        for key, value in payload.items()
        if key not in ("timeout_ms", "idempotency_key")
    }
    return clean, timeout_ms, idempotency_key


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed → open → half-open failure gate for one cache key.

    ``failure_threshold`` consecutive failures open the circuit; after
    ``reset_after_s`` one *probe* build is allowed through (half-open).
    A successful probe closes the circuit, a failed one re-opens it
    immediately.  :meth:`allow` is the admission question; it returns
    True exactly once per half-open window so concurrent threads cannot
    stampede the recovering dependency.  Transitions count into
    ``metrics``, the registry of the cache that owns the breaker.
    """

    def __init__(
        self,
        metrics: obs_metrics.MetricsRegistry,
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_s <= 0:
            raise ValueError(f"reset_after_s must be > 0, got {reset_after_s}")
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._m_transitions = metrics.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions, by destination state.",
            ("to",),
        )

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a build be attempted right now?

        Transitions open → half-open when the cooldown has elapsed and
        hands that single probe slot to the caller.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if time.monotonic() - self._opened_at >= self.reset_after_s:
                    self._state = "half_open"
                    self._m_transitions.inc(to="half_open")
                    return True
                return False
            return False  # half_open: a probe is already in flight

    def retry_after_s(self) -> float:
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(
                0.0, self.reset_after_s - (time.monotonic() - self._opened_at)
            )

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self.failure_threshold:
                if self._state != "open":
                    self._m_transitions.inc(to="open")
                self._state = "open"
                self._opened_at = time.monotonic()

    def record_success(self) -> None:
        with self._lock:
            if self._state != "closed":
                self._m_transitions.inc(to="closed")
            self._state = "closed"
            self._failures = 0

    def describe(self) -> dict:
        with self._lock:
            return {"state": self._state, "failures": self._failures}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CircuitBreaker(state={self.state!r})"


# ----------------------------------------------------------------------
# Client retry/backoff
# ----------------------------------------------------------------------
class RetryPolicy:
    """Jittered exponential backoff with a total retry budget.

    ``delay(attempt) = min(cap_s, base_s * 2**attempt) * uniform(0.5, 1)``
    — full-jitter-ish so a fleet of synchronized clients (exactly what
    the barrier-synced load harness creates) decorrelates instead of
    retrying in lockstep.  ``budget_s`` bounds the *sum* of sleeps, so
    a retry storm cannot stretch one logical request forever.
    """

    def __init__(
        self,
        retries: int = 3,
        *,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        budget_s: float = 10.0,
        statuses: Tuple[int, ...] = (503,),
        seed: Optional[int] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.budget_s = float(budget_s)
        self.statuses = tuple(int(s) for s in statuses)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def retryable_status(self, status: int) -> bool:
        return status in self.statuses

    def delay(self, attempt: int) -> float:
        base = min(self.cap_s, self.base_s * (2.0 ** attempt))
        with self._lock:
            return base * (0.5 + 0.5 * self._rng.random())

    def delays(self) -> Iterator[float]:
        """Up to ``retries`` sleeps, truncated by the total budget."""
        spent = 0.0
        for attempt in range(self.retries):
            delay = self.delay(attempt)
            if spent + delay > self.budget_s:
                delay = max(0.0, self.budget_s - spent)
                if delay <= 0:
                    return
            spent += delay
            yield delay

    def new_idempotency_key(self) -> str:
        with self._lock:
            return f"retry-{self._rng.getrandbits(64):016x}"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RetryPolicy(retries={self.retries}, base_s={self.base_s}, "
            f"cap_s={self.cap_s}, budget_s={self.budget_s}, "
            f"statuses={self.statuses})"
        )
