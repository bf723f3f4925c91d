"""The HTTP core of the serving layer, and the single-process server.

Stdlib-only (``asyncio`` streams + a minimal HTTP/1.1 reader): the
protocol surface is a handful of JSON endpoints, so a web framework
would be the heavier dependency, not the simpler code.

:class:`HTTPCore` is what :class:`DiscServer` (one process over one
:class:`~repro.service.state.ServiceState`) and the supervised front
(:class:`~repro.service.supervisor.Supervisor`) share: the keep-alive
connection loop with its request span, response write, trace record
and drain-on-stop, the one error map (:func:`error_response`), and the
request accounting — ``repro_http_*`` in the metrics registry, which
``/stats`` reads back.  Each server supplies its route table and its
``Server-Timing`` value.  The benchmark's trace hook wraps
:func:`write_http_response` by this path.

Endpoints
---------
``POST /select``
    ``{"dataset": name, "radius": r, "method": ..., "method_options":
    {...}, "engine": ...}`` (or the same fields nested under
    ``"request"``) → ``{"dataset", "request", "result", "elapsed_s",
    "degraded", "coalesced"}`` with ``result`` a serialised
    :class:`~repro.core.result.DiscResult`.
``POST /zoom``
    ``{"dataset": name, "radius": r, "to": r2, ...}`` → selects at
    ``r`` (with closest-black tracking) and adapts to ``r2`` via
    zoom-in/zoom-out; returns both results.  With ``"previous":
    {"selected": [...], ...}`` the client's held solution is adapted
    directly — no base recompute.  The results leave out the n-float
    ``closest_black`` arrays unless the body asks for them with
    ``"include": ["closest_black"]``.
``POST /mutate``
    ``{"dataset": name, "inserts": [[...]...], "deletes": [ids...],
    "repair": {"radius": r, "previous": [ids...]}?}`` against a *live*
    dataset → applies the batch, migrates warm cache entries to the new
    version, optionally repairs the client's selection.  Mutations
    never coalesce by content (each batch is a distinct state
    transition); retries deduplicate via ``idempotency_key``.
``GET /datasets``
    The registry catalogue.
``GET /healthz``
    Liveness: ``{"status": "ok", ...}``.
``GET /stats``
    Counters, shared-cache info, single-flight accounting, breaker and
    fault-injection state.
``GET /metrics``
    The metrics registry as Prometheus text.

Compute bodies additionally accept two transport-level fields stripped
before validation: ``timeout_ms`` (per-request deadline budget, capped
by the server's ``max_timeout_ms``) and ``idempotency_key`` (retries
carrying the same key join the original in-flight computation or
replay its completed response instead of re-running).

Concurrency model
-----------------
The event loop only parses/validates/serialises; every selection runs
in the state's bounded thread pool (``run_in_executor``), so slow
computations never block health checks.  Admission control: when
``max_inflight`` computations are queued or running, new compute
requests get ``503`` instead of joining an unbounded queue.

**Single-flight**: concurrent requests with the same canonical key
(endpoint + dataset + validated request) share one computation — the
first becomes the leader, the rest await the leader's future and are
counted in ``coalesced_requests``.  Combined with the shared adjacency
cache this gives the multi-user zoom workload its throughput: N users
asking for the same view cost one selection, and different radii on
the same dataset still share the materialised adjacency.

Error contract
--------------
Every non-200 body is ``{"error": {"code": ..., "message": ...}}``, on
both servers.  A body that is not a JSON object or a malformed
``Content-Length`` → 400; a body over :data:`MAX_BODY_BYTES` → 413;
unknown path → 404; wrong method → 405; unknown dataset → 404;
validation errors → 400; client deadline (``timeout_ms``) expired →
408; server-imposed deadline expired → 504; overload / failed or
circuit-broken builds / injected faults → 503; anything unexpected →
500 carrying only the exception *type* name — raw ``str(exc)`` of
arbitrary exceptions never reaches the wire.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from collections import OrderedDict
from http import HTTPStatus
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro import __version__
from repro.obs import trace as obs_trace
from repro.obs.sink import TraceSink, build_record
from repro.service.faults import InjectedFault
from repro.service.resilience import (
    BuildFailed,
    CircuitOpen,
    OperationCancelled,
    error_body,
    extract_request_meta,
)
from repro.service.state import ServiceState, canonical_key

__all__ = [
    "DiscServer",
    "Forwarded",
    "HTTPCore",
    "HTTPError",
    "LoopThread",
    "RunningService",
    "ServiceUnavailable",
    "error_response",
    "read_http_headers",
    "read_http_request",
    "start_in_thread",
    "write_http_response",
]

_log = logging.getLogger(__name__)

#: Hard cap on request body size (JSON) — 16 MiB is far beyond any
#: legitimate request and keeps a misbehaving client from ballooning
#: the process.
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

#: Completed responses replayable by idempotency key (LRU-bounded).
IDEMPOTENCY_CACHE_SIZE = 128

#: The metric families the HTTP core keeps per server.  The supervised
#: front leaves its workers' copies out of the cluster exposition: every
#: client request passes the front, so only its own count is the
#: client's.
HTTP_FAMILIES = frozenset((
    "repro_http_requests_total",
    "repro_http_responses_total",
    "repro_request_duration_seconds",
))


class ServiceUnavailable(RuntimeError):
    """Raised internally when admission control rejects a request."""


class HTTPError(Exception):
    """A request answered with ``status`` and a structured error body.

    Routing raises it (404/405), and :func:`read_http_request` does for
    a body it cannot hand on, attaching the parsed head as ``request``
    (keep-alive False when the body framing is lost) so the connection
    loop can still label, trace and answer it.
    """

    def __init__(self, status: int, code: str, message: str, request=None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.request = request


#: Failure classes → (status, code), first match wins.  A ``KeyError``
#: names the missing dataset; its message is the key itself.
_ERROR_MAP = (
    (KeyError, 404, "not_found"),
    ((ValueError, TypeError), 400, "bad_request"),
    (BuildFailed, 503, "build_failed"),
    (CircuitOpen, 503, "circuit_open"),
    (InjectedFault, 503, "injected_fault"),
    (ServiceUnavailable, 503, "overloaded"),
)


def error_response(exc: Exception) -> Tuple[int, dict]:
    """The one failure → ``(status, error body)`` map of both servers."""
    if isinstance(exc, HTTPError):
        return exc.status, error_body(exc.code, str(exc))
    if isinstance(exc, OperationCancelled):
        if exc.source == "client":
            return 408, error_body("deadline_exceeded", str(exc))
        return 504, error_body("server_deadline_exceeded", str(exc))
    for kinds, status, code in _ERROR_MAP:
        if isinstance(exc, kinds):
            text = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            return status, error_body(code, str(text))
    # Deliberately NOT str(exc): arbitrary exception text can embed
    # paths, array reprs, anything — leak nothing.
    return 500, error_body("internal", f"unexpected {type(exc).__name__}")


#: Paths a metric label carries verbatim; any other path reads ``other``.
_METRIC_PATHS = frozenset(
    ("/select", "/zoom", "/mutate", "/stats", "/healthz", "/datasets", "/metrics")
)


def metric_path(path: str) -> str:
    """Bound a path label's cardinality: a known route or ``other``."""
    return path if path in _METRIC_PATHS else "other"


def metric_endpoint(method: str, path: str) -> str:
    """The ``"<method> <path>"`` request-counter key, both halves bounded
    so no client input can grow ``/stats`` or ``/metrics``."""
    if method not in ("GET", "POST"):
        method = "other"
    return f"{method} {metric_path(path)}"


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


_REASONS = {status.value: status.phrase for status in HTTPStatus}


async def read_http_headers(reader, size: int = 0) -> Dict[str, str]:
    """Header lines up to the blank line, names lowercased.  ``size``
    bytes already read count toward :data:`MAX_HEADER_BYTES`."""
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        size += len(line)
        if size > MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("headers too large", size)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise asyncio.IncompleteReadError(b"", None)
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def read_http_request(
    reader,
) -> Optional[Tuple[str, str, bool, dict, Dict[str, str]]]:
    """Parse one HTTP/1.1 request from a stream; None on clean EOF.

    Returns ``(method, path, keep_alive, body, headers)`` — ``body`` a
    JSON object (``{}`` when there is none), header names lowercased,
    so the trace header is ``headers.get("x-repro-trace")``.  A request
    that cannot be handed on raises :class:`HTTPError` carrying its
    parsed head; a connection that broke mid-head raises
    ``IncompleteReadError``/``LimitOverrunError`` and gets no answer.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise asyncio.IncompleteReadError(request_line, None)
    headers = await read_http_headers(reader, len(request_line))
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    if not version.endswith("1.1"):
        keep_alive = headers.get("connection", "close").lower() == "keep-alive"
    method = method.upper()
    path = target.split("?", 1)[0]
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0 or length > MAX_BODY_BYTES:
        # The body is left unread, so its framing is lost: answer, then
        # drop the connection.
        head = (method, path, False, {}, headers)
        if length < 0:
            raise HTTPError(400, "bad_request", "invalid Content-Length header", head)
        raise HTTPError(413, "payload_too_large", "request body too large", head)
    body: dict = {}
    if length:
        raw = await reader.readexactly(length)
        head = (method, path, keep_alive, {}, headers)
        try:
            body = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise HTTPError(
                400, "bad_request", "request body is not valid JSON", head
            ) from None
        if not isinstance(body, dict):
            raise HTTPError(
                400, "bad_request", "request body must be a JSON object", head
            )
    return method, path, keep_alive, body, headers


async def write_http_response(
    writer,
    status: int,
    payload: Union[dict, bytes, str],
    keep_alive: bool,
    extra_headers=None,
) -> None:
    """Serialise one response (module-level twin of the reader).

    A ``dict`` goes out as JSON, ``bytes`` as an already-encoded JSON
    body (the supervised front forwarding a worker's answer), a ``str``
    as Prometheus-style ``text/plain`` (``/metrics``).
    ``extra_headers`` is an iterable of ``(name, value)`` pairs —
    ``X-Repro-Trace`` and ``Server-Timing`` ride here.
    """
    content_type = "application/json"
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = _json_bytes(payload)
    extra = ""
    for name, value in extra_headers or ():
        extra += f"{name}: {value}\r\n"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"Server: repro-disc/{__version__}\r\n"
        f"{extra}"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    await writer.drain()


class Forwarded(NamedTuple):
    """An upstream answer, sent as written; its Server-Timing leads ours."""

    body: bytes
    server_timing: Optional[str]


class HTTPCore:
    """One listening socket: the connection loop both servers share.

    Subclasses set ``self._routes`` (path → ``(method, handler)``, each
    handler an ``async (body) -> (status, payload)``) and implement
    :meth:`_server_timing`.  ``port=0`` binds an ephemeral port; the
    bound port is ``self.port`` after :meth:`start`.
    """

    #: Lock discipline (convention in :mod:`repro.engines.cache`): the
    #: connection bookkeeping is owned by the asyncio event loop.
    _GUARDED_BY = {
        "_conn_tasks": "event-loop",
        "_active_requests": "event-loop",
    }

    def __init__(
        self, host: str, port: int, *, drain_s: float, metrics,
        trace_sink: Optional[TraceSink], trace_worker: Optional[dict],
    ) -> None:
        self.host = host
        self.port = port
        self.drain_s = float(drain_s)
        self.trace_sink = trace_sink
        self._trace_worker = trace_worker
        self._m_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests seen, by endpoint",
            labelnames=("endpoint",),
        )
        self._m_responses = metrics.counter(
            "repro_http_responses_total",
            "HTTP responses written, by status",
            labelnames=("status",),
        )
        self._m_duration = metrics.histogram(
            "repro_request_duration_seconds",
            "Wall-clock request latency, by path",
            labelnames=("path",),
        )
        self._m_traces = metrics.counter(
            "repro_traces_written_total", "Trace records written to the sink"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()
        self._active_requests = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain_s: Optional[float] = None) -> None:
        """Stop accepting, drain in-flight requests, drop connections.

        Requests already dispatched (including their executor work)
        get up to ``drain_s`` (default: the constructor's) seconds to
        write their responses; idle keep-alive connections are then
        cancelled.
        """
        if drain_s is None:
            drain_s = self.drain_s
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + drain_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        if self.trace_sink is not None:
            self.trace_sink.close()

    # ------------------------------------------------------------------
    # The connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                error = None
                try:
                    request = await read_http_request(reader)
                except HTTPError as exc:
                    request, error = exc.request, exc
                if request is None:
                    break
                method, path, keep_alive, body, headers = request
                self._active_requests += 1
                try:
                    self._m_requests.inc(endpoint=metric_endpoint(method, path))
                    with obs_trace.request_scope(
                        "request", header=headers.get("x-repro-trace")
                    ) as root:
                        status, payload = await self._answer(
                            method, path, body, error
                        )
                    if self._drop_answer():
                        writer.transport.abort()
                        return
                    timing = self._server_timing(root)
                    if isinstance(payload, Forwarded):
                        if payload.server_timing:
                            timing = f"{payload.server_timing}, {timing}"
                        payload = payload.body
                    self._m_responses.inc(status=status)
                    self._m_duration.observe(
                        root.elapsed_ms() / 1000.0, path=metric_path(path)
                    )
                    await write_http_response(
                        writer, status, payload, keep_alive,
                        extra_headers=[
                            (obs_trace.TRACE_HEADER,
                             obs_trace.format_trace_header(root)),
                            ("Server-Timing", timing),
                        ],
                    )
                    self._emit_trace(root, status, method, path)
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            pass  # shutdown cancelled an idle keep-alive connection
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _answer(self, method: str, path: str, body: dict, error):
        """Route one request; every failure goes through :func:`error_response`."""
        try:
            if error is not None:
                raise error
            if method not in ("GET", "POST"):
                raise HTTPError(
                    405, "method_not_allowed", f"unsupported method {method}"
                )
            route = self._routes.get(path)
            if route is None:
                raise HTTPError(404, "not_found", f"unknown path {path!r}")
            if route[0] != method:
                raise HTTPError(
                    405, "method_not_allowed", f"{path} requires {route[0]}"
                )
            return await route[1](body)
        except Exception as exc:
            status, payload = error_response(exc)
            if status == 500:
                _log.exception("unexpected failure answering %s %s", method, path)
            return status, payload

    def _drop_answer(self) -> bool:
        """Whether to reset the connection instead of answering."""
        return False

    def _emit_trace(self, root: obs_trace.Span, status: int, method: str,
                    path: str) -> None:
        if self.trace_sink is None:
            return
        self.trace_sink.emit(
            build_record(
                root, status=status, method=method, path=path,
                worker=self._trace_worker,
            )
        )
        self._m_traces.inc()

    def http_counters(self) -> dict:
        """``/stats``'s request accounting, read from the metrics registry."""
        responses = {k: int(v) for k, v in self._m_responses.by_label().items()}
        return {
            "requests": {k: int(v) for k, v in self._m_requests.by_label().items()},
            "responses": responses,
            "timeouts": responses.get("408", 0) + responses.get("504", 0),
        }


class DiscServer(HTTPCore):
    """The single-process server (also each supervised worker): the
    endpoints above over one :class:`ServiceState`."""

    #: Lock discipline (convention in :mod:`repro.engines.cache`): all
    #: of the server's mutable state is owned by the asyncio event loop
    #: — never touched from executor threads — so the guard is the
    #: ``event-loop`` sentinel, not a lock expression.
    _GUARDED_BY = {
        "_inflight": "event-loop",
        "_idem_inflight": "event-loop",
        "_completed": "event-loop",
        "_mutation_seq": "event-loop",
    }

    def __init__(
        self,
        state: ServiceState,
        host: str = "127.0.0.1",
        port: int = 8722,
        *,
        drain_s: float = 5.0,
        trace_log: Optional[str] = None,
        trace_sink: Optional[TraceSink] = None,
    ) -> None:
        if trace_sink is None and trace_log:
            trace_sink = TraceSink(trace_log)
        super().__init__(
            host, port, drain_s=drain_s, metrics=state.metrics,
            trace_sink=trace_sink, trace_worker=state.identity,
        )
        self.state = state
        self._inflight: Dict[str, asyncio.Future] = {}
        self._idem_inflight: Dict[str, asyncio.Future] = {}
        self._completed: "OrderedDict[str, dict]" = OrderedDict()
        self._mutation_seq = 0
        self._routes = {
            "/healthz": ("GET", self._healthz),
            "/stats": ("GET", self._stats),
            "/metrics": ("GET", self._metrics),
            "/datasets": ("GET", self._datasets),
            "/select": ("POST", self._select),
            "/zoom": ("POST", self._zoom),
            "/mutate": ("POST", self._mutate),
        }

    def _server_timing(self, root: obs_trace.Span) -> str:
        """``total``, ``build`` and ``select`` for one finished root.

        ``build`` totals the adjacency-build and shm-attach phases
        wherever they nested; ``select`` is the selection phase net of
        builds that ran inside it — so the client's load harness reads
        measured phase costs instead of inferring them.
        """
        totals = obs_trace.phase_totals(root)
        build_ms = totals.get("adjacency-build", 0.0) + totals.get("shm-attach", 0.0)
        select_ms = max(totals.get("selection", 0.0) - build_ms, 0.0)
        return (
            f"total;dur={root.elapsed_ms():.3f}, "
            f"build;dur={build_ms:.3f}, "
            f"select;dur={select_ms:.3f}"
        )

    def _drop_answer(self) -> bool:
        # Injected connection reset: the work happened, the answer never
        # leaves the socket (so it is not counted as a response either).
        faults = self.state.faults
        return faults is not None and faults.should_reset_connection()

    # ------------------------------------------------------------------
    # Read endpoints
    # ------------------------------------------------------------------
    async def _healthz(self, body: dict) -> Tuple[int, dict]:
        return 200, {
            "status": "ok",
            "version": __version__,
            "datasets": self.state.registry.names(),
            "inflight": self.state.current_inflight(),
            "uptime_s": round(time.time() - self.state.started_at, 3),
        }

    async def _stats(self, body: dict) -> Tuple[int, dict]:
        return 200, {**self.state.stats(), **self.http_counters()}

    async def _metrics(self, body: dict) -> Tuple[int, str]:
        return 200, self.state.metrics.render()

    async def _datasets(self, body: dict) -> Tuple[int, dict]:
        return 200, {"datasets": self.state.registry.describe()}

    def _begin(self, payload: dict):
        """Strip the transport fields of a compute body (runs on the
        event loop, first thing in every compute handler)."""
        faults = self.state.faults
        if faults is not None:
            # Process-level chaos (worker_crash / worker_stall_hard)
            # fires at dispatch so the request is provably in flight
            # when the worker dies — the supervisor must replay it.  GET
            # probes never draw from the stream, so health checks stay
            # deterministic.
            faults.on_dispatch()
        return extract_request_meta(payload)

    # ------------------------------------------------------------------
    # Compute endpoints (single-flighted)
    # ------------------------------------------------------------------
    async def _select(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = self._begin(payload)
        with obs_trace.phase("validate"):
            handle, request = self.state.validate_select(payload)
        token = self.state.deadline_token(timeout_ms)
        key = canonical_key("select", handle.dataset_id, request.to_dict())
        return await self._single_flight(
            key, idem, token,
            lambda: self.state.run_select(handle, request, token),
        )

    async def _zoom(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = self._begin(payload)
        with obs_trace.phase("validate"):
            handle, request, to_radius, zoom_options, previous = (
                self.state.validate_zoom(payload)
            )
        token = self.state.deadline_token(timeout_ms)
        # ``zoom_options`` carries ``include``: answers with and without
        # the closest-black arrays never share one body.
        key_payload = {
            "request": request.to_dict(), "to": to_radius, **zoom_options,
        }
        if previous is not None:
            # The client's held solution is part of the request identity
            # — two zooms from different selections must not coalesce.
            key_payload["previous"] = previous["selected"]
        key = canonical_key("zoom", handle.dataset_id, key_payload)
        return await self._single_flight(
            key, idem, token,
            lambda: self.state.run_zoom(
                handle, request, to_radius, zoom_options, token,
                previous=previous,
            ),
        )

    async def _mutate(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = self._begin(payload)
        with obs_trace.phase("validate"):
            live, inserts, deletes, repair = self.state.validate_mutate(payload)
        token = self.state.deadline_token(timeout_ms)
        # A mutation is a state transition, never a cacheable read: two
        # identical-looking batches are two distinct mutations, so the
        # single-flight key carries a per-server nonce and only the
        # idempotency path (client retries of ONE logical batch) ever
        # joins or replays.
        self._mutation_seq += 1
        key = canonical_key(
            "mutate", live.name, {"seq": self._mutation_seq}
        )
        return await self._single_flight(
            key, idem, token,
            lambda: self.state.run_mutate(
                live, inserts, deletes, repair, token
            ),
        )

    async def _await_follower(self, future: asyncio.Future, token):
        """Wait on another request's computation within our own budget.

        A follower's deadline is its own: expiring here answers 408/504
        without cancelling the leader (hence the shield).
        """
        remaining = token.remaining()
        if remaining is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout=remaining)
        except asyncio.TimeoutError:
            raise OperationCancelled(
                "deadline exceeded awaiting shared computation",
                source=token.source,
            ) from None

    def _remember(self, idem: str, result: dict) -> None:
        """Store a completed response for idempotent replay (runs on
        the event loop, from ``_share``)."""
        self._completed[idem] = result
        self._completed.move_to_end(idem)
        while len(self._completed) > IDEMPOTENCY_CACHE_SIZE:
            self._completed.popitem(last=False)

    async def _single_flight(
        self, key: str, idem: Optional[str], token, thunk
    ) -> Tuple[int, dict]:
        """The 200 answer of :meth:`_share`, marked ``coalesced``."""
        shared, coalesced = await self._share(key, idem, token, thunk)
        if coalesced:
            obs_trace.annotate_root(coalesced=True)
        return 200, {**shared, "coalesced": coalesced}

    async def _share(
        self, key: str, idem: Optional[str], token, thunk
    ) -> Tuple[dict, bool]:
        """Run ``thunk`` in the executor, sharing identical in-flight work.

        Returns ``(result, coalesced)``.  The leader owns the executor
        job; followers await the leader's future.  Retries carrying an
        ``idempotency_key`` land here twice: a key whose computation is
        still in flight joins it, and a key that already completed
        replays the stored response without touching the executor.
        """
        state = self.state
        if idem is not None:
            done = self._completed.get(idem)
            if done is not None:
                self._completed.move_to_end(idem)
                state.count_coalesced()
                return done, True
            existing = self._idem_inflight.get(idem)
            if existing is not None:
                state.count_coalesced()
                return await self._await_follower(existing, token), True
        existing = self._inflight.get(key)
        if existing is not None:
            state.count_coalesced()
            return await self._await_follower(existing, token), True
        if (
            state.max_inflight is not None
            and state.current_inflight() >= state.max_inflight
        ):
            raise ServiceUnavailable(
                f"server is at capacity ({state.max_inflight} computations "
                "queued or running); retry shortly"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        if idem is not None:
            self._idem_inflight[idem] = future
        state.adjust_inflight(1)
        # run_in_executor does not copy contextvars: capture the
        # request's span here and re-enter it inside the worker thread
        # so compute phases nest under the request's trace.
        parent_span = obs_trace.current_span()

        def traced_thunk():
            with obs_trace.attach(parent_span):
                return thunk()

        try:
            result = await loop.run_in_executor(state.executor, traced_thunk)
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                # A follower may or may not exist; if none ever awaits,
                # silence the "exception never retrieved" warning.
                future.exception()
            raise
        else:
            if not future.done():
                future.set_result(result)
            if idem is not None:
                self._remember(idem, result)
            return result, False
        finally:
            state.adjust_inflight(-1)
            if self._inflight.get(key) is future:
                del self._inflight[key]
            if idem is not None and self._idem_inflight.get(idem) is future:
                del self._idem_inflight[idem]


# ----------------------------------------------------------------------
# In-process hosting (tests, load harness, notebooks)
# ----------------------------------------------------------------------
class LoopThread:
    """A server on its own event-loop thread, stoppable from the caller
    (base of :class:`RunningService` and
    :class:`~repro.service.supervisor.SupervisorCluster`); a failed
    ``server.start()`` is re-raised from the constructor."""

    def __init__(self, server: HTTPCore, name: str, timeout_s: float) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failed: List[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(server.start())
            except BaseException as exc:  # startup failed; surface it
                failed.append(exc)
                return
            finally:
                started.set()
            self._loop.run_forever()

        self._thread: Optional[threading.Thread] = threading.Thread(
            target=_run, name=name, daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=timeout_s):  # pragma: no cover - defensive
            raise RuntimeError(f"{name} event loop failed to start")
        if failed:
            self._loop.close()
            raise failed[0]

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _stop_loop(self, drain_s: Optional[float], timeout_s: float) -> bool:
        """Stop the server, end the loop, join its thread; False if that
        already happened."""
        if self._thread is None:
            return False
        asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_s), self._loop
        ).result(timeout=timeout_s)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        self._thread = None
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class RunningService(LoopThread):
    """A :class:`DiscServer` on a daemon thread (:func:`start_in_thread`)."""

    def __init__(self, state: ServiceState, server: DiscServer) -> None:
        super().__init__(server, "disc-service-loop", timeout_s=30)
        self.state = state

    def stop(self, drain_s: Optional[float] = None) -> None:
        """Stop accepting, drain the loop, join the thread, close state."""
        if self._stop_loop(drain_s, timeout_s=60):
            self.state.close()


def start_in_thread(
    state: ServiceState,
    host: str = "127.0.0.1",
    port: int = 0,
    trace_log: Optional[str] = None,
) -> RunningService:
    """Start a :class:`DiscServer` on a background event-loop thread.

    Used by the load harness and the test suite; ``repro serve`` runs
    the loop in the foreground instead (see :mod:`repro.cli`).
    """
    server = DiscServer(state, host=host, port=port, trace_log=trace_log)
    return RunningService(state, server)
