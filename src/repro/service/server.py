"""Asyncio JSON-over-HTTP front end for the DisC serving layer.

Stdlib-only (``asyncio`` streams + a minimal HTTP/1.1 reader): the
container this runs in has NumPy/SciPy but no web framework, and the
protocol surface is five endpoints of JSON — a framework would be the
heavier dependency, not the simpler code.

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
Every non-200 body is ``{"error": {"code": ..., "message": ...}}``.
Unknown dataset → 404; validation errors → 400; client deadline
(``timeout_ms``) expired → 408; server-imposed deadline expired → 504;
overload / failed or circuit-broken builds / injected faults → 503;
anything unexpected → 500 carrying only the exception *type* name —
raw ``str(exc)`` of arbitrary exceptions never reaches the wire.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

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
    "RunningService",
    "ServiceUnavailable",
    "read_http_request",
    "start_in_thread",
    "write_http_response",
]

#: Hard cap on request body size (JSON) — 16 MiB is far beyond any
#: legitimate request and keeps a misbehaving client from ballooning
#: the process.
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

#: Completed responses replayable by idempotency key (LRU-bounded).
IDEMPOTENCY_CACHE_SIZE = 128


class ServiceUnavailable(RuntimeError):
    """Raised internally when admission control rejects a request."""


#: Paths a metric label carries verbatim; any other path reads ``other``.
_METRIC_PATHS = frozenset(
    ("/select", "/zoom", "/mutate", "/stats", "/healthz", "/datasets", "/metrics")
)


def metric_path(path: str) -> str:
    """Bound a path label's cardinality: a known route or ``other``."""
    return path if path in _METRIC_PATHS else "other"


def metric_endpoint(method: str, path: str) -> str:
    """The ``"<method> <path>"`` key of the per-endpoint request counters.

    Both halves are bounded (method ``GET``/``POST``/``other``, path
    through :func:`metric_path`), so no client input can grow
    ``/stats`` or ``/metrics``.
    """
    if method not in ("GET", "POST"):
        method = "other"
    return f"{method} {metric_path(path)}"


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


async def read_http_request(
    reader,
) -> Optional[Tuple[str, str, bool, Optional[dict], Dict[str, str]]]:
    """Parse one HTTP/1.1 request from a stream; None on clean EOF.

    Returns ``(method, path, keep_alive, body, headers)`` — header
    names lowercased, so the trace header is ``headers.get
    ("x-repro-trace")``.  Shared by :class:`DiscServer` and the
    supervisor front (both speak the same minimal dialect).  Framing
    errors that make the connection unusable surface as sentinel paths
    (``\\x00too-large`` etc.) so the caller can still answer before
    dropping the connection.
    """
    request_line = await reader.readline()
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("latin-1").split()
    except ValueError:
        raise asyncio.IncompleteReadError(request_line, None)
    headers: Dict[str, str] = {}
    total = len(request_line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise asyncio.LimitOverrunError("headers too large", total)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    if not version.endswith("1.1"):
        keep_alive = headers.get("connection", "close").lower() == "keep-alive"
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        length = -1
    if length < 0:
        # Unparsable/negative Content-Length: answer 400 and drop
        # the connection (the body framing is unknowable).
        return method.upper(), "\x00bad-length", False, None, headers
    if length > MAX_BODY_BYTES:
        # Drain enough to answer, then force-close the connection.
        return method.upper(), "\x00too-large", False, None, headers
    body: Optional[dict] = None
    if length:
        raw = await reader.readexactly(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            body = {"\x00invalid-json": True}
    path = target.split("?", 1)[0]
    return method.upper(), path, keep_alive, body, headers


async def write_http_response(
    writer,
    status: int,
    payload: Union[dict, bytes],
    keep_alive: bool,
    extra_headers=None,
) -> None:
    """Serialise one response (module-level twin of the reader).

    ``payload`` is JSON unless it carries the ``\\x00text`` sentinel
    key, in which case that value goes out verbatim as Prometheus-style
    ``text/plain`` (the ``/metrics`` endpoint).  ``bytes`` are an
    already-encoded JSON body and go out verbatim (the supervised front
    forwarding a worker's answer).  ``extra_headers`` is an iterable of
    ``(name, value)`` pairs — ``X-Repro-Trace`` and ``Server-Timing``
    ride here.
    """
    text = payload.get("\x00text") if isinstance(payload, dict) else None
    if isinstance(payload, bytes):
        body = payload
        content_type = "application/json"
    elif text is not None:
        body = text.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = _json_bytes(payload)
        content_type = "application/json"
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


class DiscServer:
    """One listening socket over one :class:`ServiceState`.

    ``port=0`` binds an ephemeral port; the bound port is available as
    ``self.port`` after :meth:`start` (and printed by ``repro serve``),
    which is how tests and the load harness avoid port races.

    ``drain_s`` is the graceful-shutdown budget: :meth:`stop` first
    closes the listener, then waits up to this long for in-flight
    requests to answer before cancelling the remaining (idle
    keep-alive) connections.
    """

    #: Lock discipline (convention in :mod:`repro.engines.cache`): all
    #: of the server's mutable state is owned by the asyncio event loop
    #: — never touched from executor threads — so the guard is the
    #: ``event-loop`` sentinel, not a lock expression.
    _GUARDED_BY = {
        "_inflight": "event-loop",
        "_idem_inflight": "event-loop",
        "_completed": "event-loop",
        "_conn_tasks": "event-loop",
        "_active_requests": "event-loop",
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
        self.state = state
        self.host = host
        self.port = port
        self.drain_s = float(drain_s)
        if trace_sink is None and trace_log:
            trace_sink = TraceSink(trace_log)
        self.trace_sink = trace_sink
        metrics = state.metrics
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
        self._inflight: Dict[str, asyncio.Future] = {}
        self._idem_inflight: Dict[str, asyncio.Future] = {}
        self._completed: "OrderedDict[str, dict]" = OrderedDict()
        self._conn_tasks: set = set()
        self._active_requests = 0
        self._mutation_seq = 0

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

        The drain loop watches the event-loop-owned active-request
        gauge: requests already dispatched (including their executor
        work) get up to ``drain_s`` seconds to write their responses;
        idle keep-alive connections are then cancelled.
        """
        if drain_s is None:
            drain_s = self.drain_s
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain_s > 0 and self._active_requests > 0:
            deadline = time.monotonic() + drain_s
            while self._active_requests > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, keep_alive, body, headers = parsed
                self._active_requests += 1
                try:
                    self._m_requests.inc(endpoint=metric_endpoint(method, path))
                    with obs_trace.request_scope(
                        "request",
                        header=headers.get("x-repro-trace"),
                    ) as root:
                        status, payload = await self._dispatch(method, path, body)
                    faults = self.state.faults
                    if faults is not None and faults.should_reset_connection():
                        # Injected connection reset: the work happened,
                        # the answer never leaves the socket (so it is
                        # not counted as a response either).
                        writer.transport.abort()
                        return
                    self.state.count_response(status)
                    self._m_responses.inc(status=status)
                    self._m_duration.observe(
                        root.elapsed_ms() / 1000.0, path=metric_path(path)
                    )
                    await self._write_response(
                        writer, status, payload, keep_alive,
                        extra_headers=self._trace_headers(root),
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
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, bool, Optional[dict], Dict[str, str]]]:
        return await read_http_request(reader)

    async def _write_response(
        self, writer, status: int, payload: dict, keep_alive: bool,
        extra_headers=None,
    ) -> None:
        await write_http_response(
            writer, status, payload, keep_alive, extra_headers=extra_headers
        )

    def _trace_headers(self, root: obs_trace.Span):
        """``X-Repro-Trace`` + ``Server-Timing`` for one finished root.

        ``build`` totals the adjacency-build and shm-attach phases
        wherever they nested; ``select`` is the selection phase net of
        builds that ran inside it — so the client's load harness reads
        measured phase costs instead of inferring them.
        """
        totals = obs_trace.phase_totals(root)
        build_ms = totals.get("adjacency-build", 0.0) + totals.get("shm-attach", 0.0)
        select_ms = max(totals.get("selection", 0.0) - build_ms, 0.0)
        timing = (
            f"total;dur={root.elapsed_ms():.3f}, "
            f"build;dur={build_ms:.3f}, "
            f"select;dur={select_ms:.3f}"
        )
        return [
            (obs_trace.TRACE_HEADER, obs_trace.format_trace_header(root)),
            ("Server-Timing", timing),
        ]

    def _emit_trace(self, root: obs_trace.Span, status: int, method: str,
                    path: str) -> None:
        if self.trace_sink is None:
            return
        self.trace_sink.emit(
            build_record(
                root, status=status, method=method, path=path,
                worker=self.state.identity,
            )
        )
        self._m_traces.inc()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: Optional[dict]
    ) -> Tuple[int, dict]:
        if path == "\x00too-large":
            return 413, error_body("payload_too_large", "request body too large")
        if path == "\x00bad-length":
            return 400, error_body("bad_request", "invalid Content-Length header")
        if isinstance(body, dict) and body.get("\x00invalid-json"):
            return 400, error_body("bad_request", "request body is not valid JSON")
        self.state.count_request(metric_endpoint(method, path))
        try:
            if method == "GET":
                if path == "/healthz":
                    return 200, self._healthz()
                if path == "/stats":
                    return 200, self.state.stats()
                if path == "/metrics":
                    return 200, {"\x00text": self.state.metrics.render()}
                if path == "/datasets":
                    return 200, {"datasets": self.state.registry.describe()}
                if path in ("/select", "/zoom", "/mutate"):
                    return 405, error_body(
                        "method_not_allowed", f"{path} requires POST"
                    )
                return 404, error_body("not_found", f"unknown path {path!r}")
            if method == "POST":
                if path in ("/select", "/zoom", "/mutate"):
                    faults = self.state.faults
                    if faults is not None:
                        # Process-level chaos (worker_crash /
                        # worker_stall_hard) fires at dispatch so the
                        # request is provably in flight when the worker
                        # dies — the supervisor must replay it.  GET
                        # probes never draw from the stream, so health
                        # checks stay deterministic.
                        faults.on_dispatch()
                if path == "/select":
                    return await self._select(body or {})
                if path == "/zoom":
                    return await self._zoom(body or {})
                if path == "/mutate":
                    return await self._mutate(body or {})
                if path in ("/healthz", "/stats", "/datasets", "/metrics"):
                    return 405, error_body(
                        "method_not_allowed", f"{path} requires GET"
                    )
                return 404, error_body("not_found", f"unknown path {path!r}")
            return 405, error_body(
                "method_not_allowed", f"unsupported method {method}"
            )
        except KeyError as exc:
            return 404, error_body(
                "not_found", str(exc.args[0]) if exc.args else str(exc)
            )
        except (ValueError, TypeError) as exc:
            return 400, error_body("bad_request", str(exc))
        except OperationCancelled as exc:
            if exc.source == "client":
                return 408, error_body("deadline_exceeded", str(exc))
            return 504, error_body("server_deadline_exceeded", str(exc))
        except BuildFailed as exc:
            return 503, error_body("build_failed", str(exc))
        except CircuitOpen as exc:
            return 503, error_body("circuit_open", str(exc))
        except InjectedFault as exc:
            return 503, error_body("injected_fault", str(exc))
        except ServiceUnavailable as exc:
            return 503, error_body("overloaded", str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            # Deliberately NOT str(exc): arbitrary exception text can
            # embed paths, array reprs, anything — leak nothing.
            return 500, error_body(
                "internal", f"unexpected {type(exc).__name__}"
            )

    def _healthz(self) -> dict:
        return {
            "status": "ok",
            "version": __version__,
            "datasets": self.state.registry.names(),
            "inflight": self.state.current_inflight(),
            "uptime_s": round(time.time() - self.state.started_at, 3),
        }

    # ------------------------------------------------------------------
    # Compute endpoints (single-flighted)
    # ------------------------------------------------------------------
    async def _select(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = extract_request_meta(payload)
        with obs_trace.phase("validate"):
            handle, request = self.state.validate_select(payload)
        token = self.state.deadline_token(timeout_ms)
        key = canonical_key("select", handle.dataset_id, request.to_dict())
        shared, coalesced = await self._single_flight(
            key, idem, token,
            lambda: self.state.run_select(handle, request, token),
        )
        response = dict(shared)
        response["coalesced"] = coalesced
        if coalesced:
            obs_trace.annotate_root(coalesced=True)
        return 200, response

    async def _zoom(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = extract_request_meta(payload)
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
        shared, coalesced = await self._single_flight(
            key, idem, token,
            lambda: self.state.run_zoom(
                handle, request, to_radius, zoom_options, token,
                previous=previous,
            ),
        )
        response = dict(shared)
        response["coalesced"] = coalesced
        if coalesced:
            obs_trace.annotate_root(coalesced=True)
        return 200, response

    async def _mutate(self, payload: dict) -> Tuple[int, dict]:
        payload, timeout_ms, idem = extract_request_meta(payload)
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
        shared, coalesced = await self._single_flight(
            key, idem, token,
            lambda: self.state.run_mutate(
                live, inserts, deletes, repair, token
            ),
        )
        response = dict(shared)
        response["coalesced"] = coalesced
        return 200, response

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
        the event loop, from ``_single_flight``)."""
        self._completed[idem] = result
        self._completed.move_to_end(idem)
        while len(self._completed) > IDEMPOTENCY_CACHE_SIZE:
            self._completed.popitem(last=False)

    async def _single_flight(
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
class RunningService:
    """A server running on a daemon thread, stoppable from the caller."""

    def __init__(self, state: ServiceState, server: DiscServer, loop, thread) -> None:
        self.state = state
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, drain_s: Optional[float] = None) -> None:
        """Stop accepting, drain the loop, join the thread, close state."""
        if self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_s), self._loop
        ).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        if self.server.trace_sink is not None:
            self.server.trace_sink.close()
        self.state.close()
        self._thread = None

    def __enter__(self) -> "RunningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


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
    loop = asyncio.new_event_loop()
    server = DiscServer(state, host=host, port=port, trace_log=trace_log)
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="disc-service-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=30):  # pragma: no cover - defensive
        raise RuntimeError("service event loop failed to start")
    return RunningService(state, server, loop, thread)
