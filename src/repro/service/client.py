"""Minimal stdlib client for the DisC serving layer.

``http.client`` on a persistent keep-alive connection — used by the
load harness, the CI smoke lane and the test suite, and small enough
to lift into any consumer that doesn't want a dependency.  One
:class:`ServiceClient` is one connection and is **not** thread-safe;
multi-client load generation creates one per worker thread (which is
also what a real fleet of users looks like to the server).

Resilience: construct with a
:class:`~repro.service.resilience.RetryPolicy` and compute requests
retry on connection failures and retryable statuses (503 by default)
with jittered exponential backoff under a total sleep budget.  Every
retried compute request carries an ``idempotency_key``, so a retry
whose original is still running server-side joins that computation via
the request-level single-flight instead of doubling the work — and a
retry whose original *completed* (the response was lost on the wire)
replays the stored response.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Optional, Sequence

from repro.service.resilience import RetryPolicy

__all__ = [
    "ServiceClient",
    "ServiceError",
    "RetryPolicy",
    "parse_server_timing",
    "wait_until_healthy",
]


def parse_server_timing(value: Optional[str]) -> Optional[dict]:
    """Parse a ``Server-Timing`` header into ``{metric: milliseconds}``.

    The server emits ``total;dur=41.7, build;dur=30.4, select;dur=7.9``;
    entries without a parseable ``dur`` are skipped.  Returns ``None``
    for an absent/empty header so callers can tell "no header" from
    "zero durations".
    """
    if not value:
        return None
    out: dict = {}
    for part in value.split(","):
        name, _, params = part.strip().partition(";")
        name = name.strip()
        if not name:
            continue
        for param in params.split(";"):
            key, _, raw = param.strip().partition("=")
            if key.strip() == "dur":
                try:
                    out[name] = float(raw)
                except ValueError:
                    pass
    return out or None

#: Connection-level failures worth retrying (the server may have closed
#: a keep-alive socket, reset mid-response, or not be up yet).
_RETRYABLE_CONNECTION_ERRORS = (
    http.client.NotConnected,
    http.client.CannotSendRequest,
    http.client.BadStatusLine,
    http.client.RemoteDisconnected,
    BrokenPipeError,
    ConnectionResetError,
    ConnectionRefusedError,
    socket.timeout,
)


def _error_message(payload: dict) -> str:
    error = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(error, dict):
        code = error.get("code", "error")
        return f"{code}: {error.get('message', '')}"
    if error is not None:
        return str(error)
    return str(payload)


class ServiceError(RuntimeError):
    """A non-2xx response; carries the HTTP status and server payload."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {_error_message(payload)}")
        self.status = status
        self.payload = payload

    @property
    def code(self) -> Optional[str]:
        """The structured error code, when the server sent one."""
        error = self.payload.get("error") if isinstance(self.payload, dict) else None
        if isinstance(error, dict):
            return error.get("code")
        return None


class ServiceClient:
    """One keep-alive connection to a running DisC server.

    Parameters
    ----------
    timeout:
        Socket timeout per round-trip.
    retry:
        Optional :class:`RetryPolicy`.  Without one, behavior is the
        bare wire: one transparent reconnect on a stale keep-alive
        socket, no status-based retries, no idempotency keys.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 120.0,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retry = retry
        self._conn: Optional[http.client.HTTPConnection] = None
        #: TCP connections this client has opened over its lifetime —
        #: 1 for an all-keep-alive session; +1 per reset-and-reopen.
        self.opened_connections = 0
        #: Parsed ``Server-Timing`` of the most recent response
        #: (``{"total": ms, "build": ms, "select": ms}``) or None.
        self.last_server_timing: Optional[dict] = None
        #: ``X-Repro-Trace`` value of the most recent response
        #: (``trace_id:span_id``) or None — join key into the trace log.
        self.last_trace: Optional[str] = None

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.opened_connections += 1
        return self._conn

    def _round_trip(
        self, method: str, path: str, body: Optional[bytes], headers: dict
    ) -> tuple:
        """One wire exchange, reconnecting once on a stale keep-alive."""
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except _RETRYABLE_CONNECTION_ERRORS:
                self.close()
                if attempt:
                    raise
        self.last_server_timing = parse_server_timing(
            response.getheader("Server-Timing")
        )
        self.last_trace = response.getheader("X-Repro-Trace")
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        return response.status, decoded

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> tuple:
        """One logical request; returns ``(status, decoded_json)``.

        With a :class:`RetryPolicy`, connection failures and retryable
        statuses back off and retry under the policy's budget; compute
        retries reuse one idempotency key so the server coalesces them
        with the original attempt.  The final status is returned even
        when retries are exhausted; connection errors out of retries
        propagate.
        """
        request_payload = payload
        retry = self.retry
        if (
            retry is not None
            and method == "POST"
            and isinstance(payload, dict)
            and "idempotency_key" not in payload
        ):
            request_payload = dict(payload)
            request_payload["idempotency_key"] = retry.new_idempotency_key()
        body = (
            None
            if request_payload is None
            else json.dumps(request_payload).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"} if body else {}
        if retry is None:
            return self._round_trip(method, path, body, headers)
        delays = retry.delays()
        while True:
            try:
                status, decoded = self._round_trip(method, path, body, headers)
            except _RETRYABLE_CONNECTION_ERRORS:
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)
                continue
            if retry.retryable_status(status):
                delay = next(delays, None)
                if delay is not None:
                    time.sleep(delay)
                    continue
            return status, decoded

    def _checked(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        status, decoded = self.request(method, path, payload)
        if status != 200:
            raise ServiceError(status, decoded)
        return decoded

    # ------------------------------------------------------------------
    # Endpoint wrappers
    # ------------------------------------------------------------------
    def select(
        self,
        dataset: str,
        radius: float,
        *,
        method: str = "greedy",
        method_options: Optional[dict] = None,
        engine=None,
        timeout_ms: Optional[float] = None,
    ) -> dict:
        payload = {
            "dataset": dataset,
            "radius": radius,
            "method": method,
            "method_options": dict(method_options or {}),
        }
        if engine is not None:
            payload["engine"] = engine
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._checked("POST", "/select", payload)

    def zoom(
        self,
        dataset: str,
        radius: float,
        to: float,
        *,
        method: str = "greedy",
        engine=None,
        timeout_ms: Optional[float] = None,
        previous: Optional[dict] = None,
        include: Optional[Sequence[str]] = None,
        **zoom_options,
    ) -> dict:
        """Zoom ``dataset`` from ``radius`` to ``to``.

        ``previous`` (``{"selected": [...], "closest_black": [...]?,
        "closest_black_exact": bool?, "version": int?}``) replays a
        held solution so the server adapts it instead of recomputing
        the base selection.  The answer's ``from_result`` and
        ``result`` carry no ``closest_black`` unless ``include``
        names it (``include=["closest_black"]``: n floats each).
        """
        payload = {
            "dataset": dataset,
            "radius": radius,
            "to": to,
            "method": method,
            **zoom_options,
        }
        if previous is not None:
            payload["previous"] = previous
        if include is not None:
            payload["include"] = list(include)
        if engine is not None:
            payload["engine"] = engine
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._checked("POST", "/zoom", payload)

    def mutate(
        self,
        dataset: str,
        *,
        inserts=None,
        deletes=None,
        repair: Optional[dict] = None,
        timeout_ms: Optional[float] = None,
    ) -> dict:
        """Apply one insert/delete batch to a *live* dataset.

        ``repair={"radius": r, "previous": [global ids], "verify":
        bool?}`` additionally repairs a held selection against the
        post-mutation version.
        """
        payload: dict = {"dataset": dataset}
        if inserts is not None:
            payload["inserts"] = inserts
        if deletes is not None:
            payload["deletes"] = [int(i) for i in deletes]
        if repair is not None:
            payload["repair"] = repair
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._checked("POST", "/mutate", payload)

    def datasets(self) -> dict:
        return self._checked("GET", "/datasets")

    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def stats(self) -> dict:
        return self._checked("GET", "/stats")

    def wait_until_healthy(self, timeout: float = 30.0) -> dict:
        """Poll ``/healthz`` on this client's address (see module fn)."""
        return wait_until_healthy(self.host, self.port, timeout=timeout)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def wait_until_healthy(
    host: str,
    port: int,
    *,
    timeout: float = 30.0,
    interval: float = 0.05,
    max_interval: float = 2.0,
) -> dict:
    """Poll ``/healthz`` until it answers 200 (or raise ``TimeoutError``).

    ``interval`` seeds a capped exponential backoff (×2 per miss up to
    ``max_interval``) under the ``timeout`` total budget — a server
    that is up answers on the first cheap probe, one that is still
    importing NumPy is not hammered 20 times a second.  On exhaustion
    the raised ``TimeoutError`` carries the last underlying error.

    All probes share one :class:`ServiceClient` (and so one keep-alive
    socket once the server is up); a probe that fails closes the
    connection, and the next attempt transparently reopens it.

    The subprocess smoke lane uses this to bound server start-up.
    """
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    delay = interval
    with ServiceClient(host, port, timeout=max(2.0, interval * 40)) as client:
        while time.monotonic() < deadline:
            try:
                return client.healthz()
            except (OSError, ServiceError, socket.timeout) as exc:
                last_error = exc
                client.close()  # reopen fresh on the next probe
                time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
                delay = min(max_interval, delay * 2)
    raise TimeoutError(
        f"service at {host}:{port} not healthy after {timeout}s "
        f"(last error: {last_error})"
    )
