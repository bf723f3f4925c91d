"""Supervised multi-process serving: worker pool + failover front.

A front process owns the public socket and routes ``/select``/``/zoom``
to N worker processes (each a full
:class:`~repro.service.server.DiscServer` over its own
:class:`~repro.service.state.ServiceState`), supervises them, and
recovers from their failures.  The front is the other
:class:`~repro.service.server.HTTPCore`: it supplies a route table and
its ``front;dur=`` timing.  Worker answers reach the client byte for
byte; ``/stats`` and ``/metrics`` add up the workers' own, except their
HTTP counts — each client request counts once, at the front.

Routing and failover
    Datasets are assigned to workers (by default every worker serves
    every dataset — replicate-all; ``replication=k`` shards each
    dataset onto ``k`` of the N workers).  A request is routed to the
    least-loaded healthy replica.  If the worker dies mid-request —
    including ``kill -9``, where the connection simply vanishes — the
    front *replays* the request on another healthy worker.  Replays are
    safe because the front stamps every compute request with an
    idempotency key before forwarding: a worker that already answered
    the key replays its stored response, one that never saw it computes
    fresh, and either way the client sees one slow response instead of
    an error.

Supervision
    A heartbeat task detects death two ways: the child's exit status
    (crash, OOM-kill) and a ``/healthz`` probe with a timeout (a worker
    whose event loop is wedged — e.g. the ``worker_stall_hard`` fault —
    answers nothing, and after ``stall_probes`` consecutive dark probes
    the supervisor SIGKILLs it).  Dead workers restart with exponential
    backoff; a worker that dies ``quarantine_after`` times within
    ``crash_window_s`` is quarantined (no more restarts) and its
    datasets fail over to the surviving replicas.

Shared memory
    Workers share one adjacency build per radius through the
    :mod:`repro.service.shm` segment registry: the supervisor holds the
    run's lease, sweeps orphans from previous unclean shutdowns at
    startup, and unlinks everything at :meth:`SupervisorCluster.stop`.
    Dataset coordinate arrays travel the same way, so N workers hold
    one copy of the points.

The sync facade (:func:`start_supervised` / :class:`SupervisorCluster`)
is what the CLI (``repro serve --workers N``), the load harness, and
the chaos tests drive.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
import uuid
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.sink import TraceSink
from repro.service.resilience import error_body
from repro.service.server import (
    HTTP_FAMILIES,
    Forwarded,
    HTTPCore,
    LoopThread,
    _json_bytes,
    read_http_headers,
)
from repro.service import shm as shm_mod

__all__ = [
    "Supervisor",
    "SupervisorCluster",
    "WorkerProcess",
    "WorkerStartupError",
    "shared_dataset_loader",
    "start_supervised",
]

DEFAULT_HEARTBEAT_S = 0.25
DEFAULT_PROBE_TIMEOUT_S = 1.0
#: Consecutive dark ``/healthz`` probes before the worker is declared
#: wedged and SIGKILLed.
DEFAULT_STALL_PROBES = 3
#: Crashes within the window before a worker is quarantined.
DEFAULT_QUARANTINE_AFTER = 5
DEFAULT_CRASH_WINDOW_S = 30.0
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: Transport-level failovers one request may ride before giving up —
#: bounds a request's worst case when workers crash back-to-back.
DEFAULT_MAX_REPLAYS = 8
#: How long a request waits for a restarting worker when no replica is
#: currently healthy, before answering 503.
NO_WORKER_WAIT_S = 30.0
WORKER_START_TIMEOUT_S = 120.0

_TRANSPORT_ERRORS = (
    OSError,  # covers ConnectionResetError/RefusedError/BrokenPipe
    EOFError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)


class WorkerStartupError(RuntimeError):
    """A worker process failed to reach its ready handshake."""


# ----------------------------------------------------------------------
# Shared dataset points (one copy of the coordinates per machine)
# ----------------------------------------------------------------------
def shared_dataset_loader(store, name: str, n: Optional[int], seed: int):
    """A registry loader that attaches the dataset's points from shared
    memory, falling back to (and publishing from) the builtin generator.

    Only plain point-matrix datasets are shared; one with attributes or
    categories is served from a local load (the guard keeps the segment
    protocol honest rather than silently dropping columns).
    """
    from repro.datasets import Dataset
    from repro.distance import get_metric
    from repro.service.registry import BUILTIN_DATASETS

    loader, default_n = BUILTIN_DATASETS[name]
    size = default_n if n is None else int(n)

    def load() -> "Dataset":
        import numpy as np

        key = f"points:{name}:n{size}:s{seed}"
        status, got = store.acquire(key)
        if status == "value":
            return Dataset(
                name=name,
                points=got["arrays"]["points"],
                metric=get_metric(got["meta"]["metric"]),
            )
        dataset = loader(size, seed)
        if status == "claim":
            if dataset.attributes is None and dataset.categories is None:
                store.publish(
                    got,
                    "points",
                    {"points": np.ascontiguousarray(dataset.points)},
                    {"metric": dataset.metric.name},
                )
            else:
                got.abandon()
        return dataset

    return load


# ----------------------------------------------------------------------
# Worker child process
# ----------------------------------------------------------------------
class WorkerProcess:
    """One ``repro worker`` child: spawn, handshake, lifecycle.

    The child binds an ephemeral port and prints a single JSON ready
    line (``{"worker_ready": true, "port": ..., "pid": ...}``) on
    stdout; :meth:`start` blocks until that line (or a ``worker_error``
    line / child exit) arrives.  A daemon thread keeps draining stdout
    afterwards so the child can never block on a full pipe.
    """

    def __init__(self, worker_id: int, config: dict) -> None:
        self.worker_id = worker_id
        self.config = dict(config)
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self._lines: "queue.Queue[str]" = queue.Queue()
        #: Set once :meth:`start` has returned or raised; a reaper waits
        #: on it so a spawn still in flight cannot outlive teardown.
        self.settled = threading.Event()

    def start(
        self,
        timeout_s: float = WORKER_START_TIMEOUT_S,
        abort: Optional[threading.Event] = None,
    ) -> "WorkerProcess":
        """Spawn the child and block until its ready line.

        ``abort`` (set by a stopping supervisor) cancels the handshake:
        the child is killed and reaped before :class:`WorkerStartupError`
        is raised.
        """
        try:
            return self._start(timeout_s, abort)
        finally:
            self.settled.set()

    def _start(self, timeout_s: float, abort: Optional[threading.Event]) -> "WorkerProcess":
        import repro

        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--config",
                json.dumps(self.config),
            ],
            stdout=subprocess.PIPE,
            # stderr inherits: worker tracebacks surface in the
            # supervisor's own stderr instead of vanishing.
            text=True,
            env=env,
        )
        threading.Thread(
            target=self._drain_stdout,
            name=f"disc-worker-{self.worker_id}-stdout",
            daemon=True,
        ).start()
        deadline = time.monotonic() + timeout_s
        while True:
            if abort is not None and abort.is_set():
                self.kill()
                self.wait(timeout=5.0)
                raise WorkerStartupError(f"worker {self.worker_id}: supervisor stopping")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise WorkerStartupError(
                    f"worker {self.worker_id} did not become ready "
                    f"within {timeout_s:.0f}s"
                )
            try:
                line = self._lines.get(timeout=min(0.5, remaining))
            except queue.Empty:
                if self.proc.poll() is not None:
                    raise WorkerStartupError(
                        f"worker {self.worker_id} exited with "
                        f"{self.proc.returncode} before becoming ready"
                    )
                continue
            try:
                message = json.loads(line)
            except ValueError:
                continue  # stray output before the handshake line
            if not isinstance(message, dict):
                continue
            if message.get("worker_ready"):
                self.port = int(message["port"])
                self.pid = int(message.get("pid", self.proc.pid))
                return self
            if "worker_error" in message:
                self.proc.wait(timeout=10)
                raise WorkerStartupError(
                    f"worker {self.worker_id}: {message['worker_error']}"
                )

    def _drain_stdout(self) -> None:
        proc = self.proc
        if proc is None or proc.stdout is None:  # pragma: no cover
            return
        try:
            for line in proc.stdout:
                self._lines.put(line)
        except ValueError:  # pragma: no cover - stdout closed under us
            pass

    # ------------------------------------------------------------------
    def poll(self) -> Optional[int]:
        return None if self.proc is None else self.proc.poll()

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def terminate(self) -> None:
        if self.alive():
            self.proc.terminate()

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        if self.proc is None:
            return None
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None


# ----------------------------------------------------------------------
# Front
# ----------------------------------------------------------------------
async def _read_http_response(reader) -> Tuple[int, Dict[str, str], bytes, bool]:
    """Read one HTTP/1.1 response from a worker connection.

    Returns ``(status, headers, body, keep_alive)`` with lowercased
    header names and ``body`` the bytes the worker wrote: the front
    forwards compute answers without decoding them.
    """
    status_line = await reader.readline()
    if not status_line:
        raise asyncio.IncompleteReadError(b"", None)
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2:
        raise asyncio.IncompleteReadError(status_line, None)
    status = int(parts[1])
    headers = await read_http_headers(reader)
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "keep-alive").lower() != "close"
    return status, headers, body, keep_alive


def _decode(body: bytes):
    """A worker body as JSON, for the callers that read its fields."""
    return json.loads(body) if body else {}


#: The worker ``/stats`` counters the rollup sums into ``totals``: top
#: level (key None) and under ``cache``.
_TOTALS = {
    None: ("computations", "coalesced_requests", "degraded_responses",
           "inflight", "queue_depth"),
    "cache": ("builds", "shm_hits", "shm_stores", "migrations",
              "stale_served", "corrupt_entries"),
}


class _WorkerSlot:
    """The supervisor's bookkeeping for one worker position."""

    __slots__ = (
        "id",
        "config",
        "datasets",
        "process",
        "state",  # starting | healthy | restarting | quarantined | stopped
        "generation",
        "inflight",
        "consecutive_probe_failures",
        "crash_times",
        "restarts",
        "crashes",
        "pool",
    )

    def __init__(self, slot_id: int, config: dict) -> None:
        self.id = slot_id
        self.config = config
        self.datasets = list(config.get("datasets") or [])
        self.process: Optional[WorkerProcess] = None
        self.state = "starting"
        self.generation = 0
        self.inflight = 0
        self.consecutive_probe_failures = 0
        self.crash_times: deque = deque()
        self.restarts = 0
        self.crashes = 0
        #: Idle keep-alive connections: list of (reader, writer).
        self.pool: List[tuple] = []

    def describe(self) -> dict:
        return {
            "id": self.id,
            "state": self.state,
            "pid": None if self.process is None else self.process.pid,
            "port": None if self.process is None else self.process.port,
            "generation": self.generation,
            "restarts": self.restarts,
            "crashes": self.crashes,
            "inflight_front": self.inflight,
            "datasets": list(self.datasets),
        }


class Supervisor(HTTPCore):
    """The asyncio front: routing, failover, heartbeat, rollup.

    Single-threaded on its event loop (slot state needs no locks);
    worker spawns — the only blocking work — run in the default
    executor.  Construct with one config dict per worker slot, then
    ``await start()``.
    """

    #: Lock discipline (convention in :mod:`repro.engines.cache`): the
    #: supervisor is single-threaded on its event loop, so every
    #: counter and routing gauge is guarded by the ``event-loop``
    #: sentinel rather than a lock.  Sync helpers that mutate these run
    #: only as event-loop callees and say so in their docstrings.
    _GUARDED_BY = {
        "replays": "event-loop",
        "restarts": "event-loop",
        "crashes": "event-loop",
        "stall_kills": "event-loop",
        "quarantined": "event-loop",
        "mutations_routed": "event-loop",
        "mutations_replayed": "event-loop",
        "_rr": "event-loop",
        "_restart_tasks": "event-loop",
        "_mutation_logs": "event-loop",
        "_mutation_locks": "event-loop",
        "_spawned": "self._spawn_lock",
    }

    def __init__(
        self,
        worker_configs: Sequence[dict],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        run_id: Optional[str] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
        stall_probes: int = DEFAULT_STALL_PROBES,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
        crash_window_s: float = DEFAULT_CRASH_WINDOW_S,
        backoff_base_s: float = BACKOFF_BASE_S,
        backoff_cap_s: float = BACKOFF_CAP_S,
        max_replays: int = DEFAULT_MAX_REPLAYS,
        worker_start_timeout_s: float = WORKER_START_TIMEOUT_S,
        trace_log: Optional[str] = None,
    ) -> None:
        if not worker_configs:
            raise ValueError("at least one worker config is required")
        # The front's own registry: its request counts are the cluster's.
        metrics = obs_metrics.MetricsRegistry()
        super().__init__(
            host, port, drain_s=5.0, metrics=metrics,
            trace_sink=None if trace_log is None else TraceSink(trace_log),
            trace_worker={"role": "front"},
        )
        self.metrics = metrics
        self.run_id = run_id
        self.heartbeat_s = heartbeat_s
        self.probe_timeout_s = probe_timeout_s
        self.stall_probes = stall_probes
        self.quarantine_after = quarantine_after
        self.crash_window_s = crash_window_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.max_replays = max_replays
        self.worker_start_timeout_s = worker_start_timeout_s
        self.slots = [
            _WorkerSlot(i, dict(config)) for i, config in enumerate(worker_configs)
        ]
        self._dataset_names = sorted(
            {name for slot in self.slots for name in slot.datasets}
        )
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._restart_tasks: set = set()
        #: Every worker process ever started, replacements included:
        #: teardown reaps all of them, not just the slots' current ones
        #: (a restart cancelled mid-spawn leaves its child unreferenced).
        self._spawned: List[WorkerProcess] = []
        self._spawn_lock = threading.Lock()
        self._stopping = threading.Event()
        self._rr = 0
        self.started_at = time.time()
        # Counters (event-loop-owned).
        self.replays = 0
        self.restarts = 0
        self.crashes = 0
        self.stall_kills = 0
        self.quarantined = 0
        self.mutations_routed = 0
        self.mutations_replayed = 0
        #: The authoritative ordered mutation history per live dataset.
        #: Workers are replicas of this log: a fresh worker (restarted
        #: after a crash — version 0 again) replays it in order before
        #: taking traffic, so every healthy replica converges on the
        #: same version.
        self._mutation_logs: Dict[str, List[dict]] = {}
        #: Per-dataset ordering: one mutation fan-out at a time.
        self._mutation_locks: Dict[str, asyncio.Lock] = {}
        self._m_replays = metrics.counter(
            "repro_request_replays_total",
            "Requests replayed onto another worker after a transport failure.",
        )
        self._routes = {
            "/healthz": ("GET", self._healthz),
            "/stats": ("GET", self._rollup),
            "/metrics": ("GET", self._metrics_text),
            "/datasets": ("GET", lambda body: self._forward_get("/datasets")),
            "/select": ("POST", lambda body: self._compute("/select", body)),
            "/zoom": ("POST", lambda body: self._compute("/zoom", body)),
            "/mutate": ("POST", self._mutate_fanout),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn every worker (concurrently), then open the front socket."""
        loop = asyncio.get_running_loop()
        spawns = [
            loop.run_in_executor(None, self._spawn_worker, slot) for slot in self.slots
        ]
        results = await asyncio.gather(*spawns, return_exceptions=True)
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            for result in results:
                if isinstance(result, WorkerProcess):
                    result.kill()
            raise failures[0]
        for slot, process in zip(self.slots, results):
            slot.process = process
            slot.state = "healthy"
        await super().start()
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    def _spawn_worker(self, slot: _WorkerSlot) -> WorkerProcess:
        """Start a worker for ``slot`` (blocking: runs on an executor).

        The process is recorded before it is spawned, so :meth:`stop`
        reaps it even when the restart that asked for it was cancelled
        mid-handshake.
        """
        # Children that exited (reaped by poll) need no teardown.
        finished = [
            p for p in self.spawned_processes()
            if p.settled.is_set() and p.poll() is not None
        ]
        process = WorkerProcess(slot.id, slot.config)
        with self._spawn_lock:
            self._spawned = [p for p in self._spawned if p not in finished]
            self._spawned.append(process)
        return process.start(
            timeout_s=self.worker_start_timeout_s, abort=self._stopping
        )

    def spawned_processes(self) -> List[WorkerProcess]:
        """Every worker process started so far, replacements included."""
        with self._spawn_lock:
            return list(self._spawned)

    async def stop(self, drain_s: Optional[float] = None) -> None:
        """Close the front, drain in-flight requests, stop every worker."""
        # Spawns still in flight abort their handshake and kill their
        # child; the reap below waits for them to settle.
        self._stopping.set()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            await asyncio.gather(self._heartbeat_task, return_exceptions=True)
            self._heartbeat_task = None
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*list(self._restart_tasks), return_exceptions=True)
        await super().stop(drain_s)
        for slot in self.slots:
            self._close_pool(slot)
            slot.state = "stopped"
            if slot.process is not None:
                slot.process.terminate()
        loop = asyncio.get_running_loop()

        def _reap() -> None:
            deadline = time.monotonic() + 10.0
            for process in self.spawned_processes():
                left = max(0.1, deadline - time.monotonic())
                process.settled.wait(timeout=left)
                process.terminate()
                left = max(0.1, deadline - time.monotonic())
                if process.wait(timeout=left) is None:
                    process.kill()
                    process.wait(timeout=5.0)

        await loop.run_in_executor(None, _reap)

    # ------------------------------------------------------------------
    # Front endpoints
    # ------------------------------------------------------------------
    def _server_timing(self, root: obs_trace.Span) -> str:
        return f"front;dur={root.elapsed_ms():.3f}"

    async def _healthz(self, body: dict) -> Tuple[int, dict]:
        states: Dict[str, int] = {}
        for slot in self.slots:
            states[slot.state] = states.get(slot.state, 0) + 1
        healthy = states.get("healthy", 0)
        return 200, {
            "status": "ok" if healthy else "starting",
            "role": "supervisor",
            "workers": states,
            "datasets": self._dataset_names,
            "inflight": sum(slot.inflight for slot in self.slots),
            "uptime_s": round(time.time() - self.started_at, 3),
        }

    async def _metrics_text(self, body: dict) -> Tuple[int, str]:
        """The front's registry merged with every healthy worker's, less
        the workers' HTTP families: the front counted each client request
        already, and the workers' copies hold its heartbeats too."""
        snaps = [self.metrics.snapshot()]
        for _slot, stats in await self._worker_stats():
            snap = None if stats is None else stats.get("metrics")
            if isinstance(snap, dict):
                snaps.append(
                    {k: v for k, v in snap.items() if k not in HTTP_FAMILIES}
                )
        return 200, obs_metrics.render_snapshot(obs_metrics.merge_snapshots(snaps))

    # ------------------------------------------------------------------
    # Routing + failover
    # ------------------------------------------------------------------
    def _candidates(self, dataset: Optional[str]) -> List[_WorkerSlot]:
        healthy = [slot for slot in self.slots if slot.state == "healthy"]
        if dataset is None or dataset not in self._dataset_names:
            # Unknown dataset: any worker can answer (with a 404).
            return healthy
        return [slot for slot in healthy if dataset in slot.datasets]

    def _pick(self, dataset: Optional[str]) -> Optional[_WorkerSlot]:
        """Least-loaded healthy replica, round-robin tie-break (runs on
        the event loop, from ``_compute``)."""
        candidates = self._candidates(dataset)
        if not candidates:
            return None
        self._rr += 1
        offset = self._rr % len(candidates)
        return min(
            candidates,
            key=lambda slot: (
                slot.inflight,
                (candidates.index(slot) - offset) % len(candidates),
            ),
        )

    def _replica_pending(self, dataset: Optional[str]) -> bool:
        for slot in self.slots:
            if slot.state not in ("starting", "restarting"):
                continue
            if (
                dataset is None
                or dataset not in self._dataset_names
                or dataset in slot.datasets
            ):
                return True
        return False

    async def _await_replica(self, dataset: Optional[str], deadline: float) -> bool:
        """True once ``dataset`` has a healthy replica; waits for one
        that is (re)starting until ``deadline``, False without one."""
        while not self._candidates(dataset):
            if not self._replica_pending(dataset) or time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.05)
        return True

    async def _check_corpse(self, slot: _WorkerSlot) -> None:
        """A worker socket died mid-request: if the process is a corpse,
        restart it now, not a heartbeat later (concurrent requests would
        keep re-picking the dead slot).  The socket can drop a few ms
        before the child is reapable, hence the short grace window."""
        generation = slot.generation
        for _ in range(5):
            if slot.state != "healthy" or slot.generation != generation:
                return  # the heartbeat already handled the death
            process = slot.process
            if process is not None and process.poll() is not None:
                self._on_crash(slot, "exit")
                return
            await asyncio.sleep(0.02)

    async def _compute(
        self, path: str, body: dict
    ) -> Tuple[int, Union[dict, Forwarded]]:
        dataset = body.get("dataset")
        if dataset is None and isinstance(body.get("request"), dict):
            dataset = body["request"].get("dataset")
        if not isinstance(dataset, str):
            dataset = None
        # The front owns the idempotency key: a replayed request carries
        # the same key to whichever worker it lands on, so a worker that
        # partially-or-fully answered it once can never double-compute.
        if not body.get("idempotency_key"):
            body["idempotency_key"] = uuid.uuid4().hex
        raw = _json_bytes(body)
        replays = 0
        deadline = time.monotonic() + NO_WORKER_WAIT_S
        while True:
            slot = self._pick(dataset)
            if slot is None:
                if await self._await_replica(dataset, deadline):
                    continue
                return 503, error_body(
                    "no_workers",
                    f"no healthy worker for dataset {dataset!r}; retry shortly",
                )
            slot.inflight += 1
            try:
                with obs_trace.phase(
                    "proxy", worker=slot.id, attempt=replays + 1
                ):
                    status, headers, answer = await self._proxy(
                        slot, "POST", path, raw
                    )
            except _TRANSPORT_ERRORS:
                await self._check_corpse(slot)
                self.replays += 1
                self._m_replays.inc()
                replays += 1
                obs_trace.annotate_root(replayed=True, replays=replays)
                if replays > self.max_replays:
                    return 503, error_body(
                        "replay_exhausted",
                        f"request failed over {replays} times; giving up",
                    )
                continue
            finally:
                slot.inflight -= 1
            return status, Forwarded(answer, headers.get("server-timing"))

    async def _mutate_fanout(self, body: dict) -> Tuple[int, dict]:
        """Apply one mutation batch to *every* healthy replica.

        Reads route to any one replica, so a write must reach them all
        — under a per-dataset lock so concurrent batches apply in one
        order everywhere.  A replica that dies mid-batch is not retried
        here: its restart replays the front's authoritative mutation
        log from scratch (a fresh worker is back at version 0 anyway),
        which is what makes ``kill -9`` mid-stream lose nothing.  The
        batch is durable once >= 1 replica applied it; zero successes
        → 503 and the batch is *not* logged (the client retries).
        """
        dataset = body.get("dataset")
        if not isinstance(dataset, str):
            return 400, error_body(
                "bad_request", "mutate body needs a 'dataset' name"
            )
        if not body.get("idempotency_key"):
            body["idempotency_key"] = uuid.uuid4().hex
        # Wait for a replica BEFORE taking the dataset lock: a
        # restarting replica's log replay needs that lock, so waiting
        # while holding it would deadlock the very recovery we wait on.
        if not await self._await_replica(
            dataset, time.monotonic() + NO_WORKER_WAIT_S
        ):
            return 503, error_body(
                "no_workers",
                f"no healthy worker for dataset {dataset!r}; retry shortly",
            )
        lock = self._mutation_locks.setdefault(dataset, asyncio.Lock())
        async with lock:
            raw = _json_bytes(body)
            successes: List[dict] = []
            first_error: Optional[Tuple[int, dict]] = None
            for slot in self._candidates(dataset):
                if slot.state != "healthy":
                    continue
                slot.inflight += 1
                try:
                    status, _headers, answer = await self._proxy(
                        slot, "POST", "/mutate", raw
                    )
                except _TRANSPORT_ERRORS:
                    # No failover replay: the restart's log replay is
                    # the delivery path for this replica.
                    await self._check_corpse(slot)
                    continue
                finally:
                    slot.inflight -= 1
                if status == 200:
                    successes.append(_decode(answer))
                elif first_error is None:
                    first_error = (status, _decode(answer))
            if not successes:
                if first_error is not None:
                    return first_error
                return 503, error_body(
                    "no_workers",
                    f"no replica applied the mutation for {dataset!r}; retry",
                )
            log_entry = {
                key: value
                for key, value in body.items()
                # Replays need the state transition, not the read-side
                # extras (repair re-runs would be wasted work) or a
                # stale deadline.
                if key not in ("repair", "timeout_ms")
            }
            self._mutation_logs.setdefault(dataset, []).append(log_entry)
            self.mutations_routed += 1
            response = dict(successes[0])
            response["replicas_applied"] = len(successes)
            return 200, response

    async def _forward_get(
        self, path: str
    ) -> Tuple[int, Union[dict, Forwarded]]:
        slot = self._pick(None)
        if slot is None:
            return 503, error_body("no_workers", "no healthy worker")
        try:
            status, headers, answer = await self._proxy(slot, "GET", path, b"")
        except _TRANSPORT_ERRORS:
            return 503, error_body("no_workers", "worker connection lost")
        return status, Forwarded(answer, headers.get("server-timing"))

    # ------------------------------------------------------------------
    # Worker connections
    # ------------------------------------------------------------------
    async def _checkout(self, slot: _WorkerSlot):
        while slot.pool:
            reader, writer = slot.pool.pop()
            if writer.is_closing():
                continue
            return reader, writer
        if slot.process is None or slot.process.port is None:
            raise ConnectionResetError("worker has no bound port")
        return await asyncio.open_connection(self.host, slot.process.port)

    async def _proxy(
        self, slot: _WorkerSlot, method: str, path: str, raw: bytes
    ) -> Tuple[int, Dict[str, str], bytes]:
        generation = slot.generation
        reader, writer = await self._checkout(slot)
        try:
            # Propagate the ambient trace to the worker: rebuilt on
            # every attempt, so a replayed request carries the same
            # trace id to whichever replica answers it.  Heartbeat
            # probes and rollups run outside any request scope and add
            # no header.
            span = obs_trace.current_span()
            trace_line = (
                ""
                if span is None
                else f"{obs_trace.TRACE_HEADER}: "
                f"{obs_trace.format_trace_header(span)}\r\n"
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(raw)}\r\n"
                f"{trace_line}"
                "Connection: keep-alive\r\n"
                "\r\n"
            ).encode("latin-1")
            writer.write(head + raw)
            await writer.drain()
            status, headers, body, keep_alive = await _read_http_response(reader)
        except BaseException:
            writer.close()
            raise
        if (
            keep_alive
            and slot.generation == generation
            and slot.state == "healthy"
        ):
            slot.pool.append((reader, writer))
        else:
            writer.close()
        return status, headers, body

    def _close_pool(self, slot: _WorkerSlot) -> None:
        while slot.pool:
            _reader, writer = slot.pool.pop()
            writer.close()

    # ------------------------------------------------------------------
    # Heartbeat + restarts
    # ------------------------------------------------------------------
    async def _probe(self, slot: _WorkerSlot) -> bool:
        port = None if slot.process is None else slot.process.port
        if port is None:
            return False
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, port), self.probe_timeout_s
        )
        try:
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: hb\r\nConnection: close\r\n\r\n"
            )
            await writer.drain()
            status, _headers, _body, _keep = await asyncio.wait_for(
                _read_http_response(reader), self.probe_timeout_s
            )
            return status == 200
        finally:
            writer.close()

    async def _heartbeat_loop(self) -> None:
        try:
            # The stop flag, not only cancellation, ends the loop: on
            # Python < 3.12 ``asyncio.wait_for`` swallows a cancel that
            # lands as the probe completes, and ``stop()`` would then
            # wait on this task forever.
            while not self._stopping.is_set():
                await asyncio.sleep(self.heartbeat_s)
                for slot in self.slots:
                    if slot.state != "healthy":
                        continue
                    process = slot.process
                    if process is None or process.poll() is not None:
                        self._on_crash(slot, "exit")
                        continue
                    try:
                        ok = await self._probe(slot)
                    except (asyncio.TimeoutError, *_TRANSPORT_ERRORS):
                        ok = False
                    if ok:
                        slot.consecutive_probe_failures = 0
                    else:
                        slot.consecutive_probe_failures += 1
                        if slot.consecutive_probe_failures >= self.stall_probes:
                            # Wedged event loop (hard stall): the only
                            # way out is SIGKILL + restart; the corpse's
                            # sockets die, freeing any in-flight request
                            # to fail over.
                            self.stall_kills += 1
                            process.kill()
                            self._on_crash(slot, "stall")
        except asyncio.CancelledError:
            pass

    def _on_crash(self, slot: _WorkerSlot, reason: str) -> None:
        """Mark a dead worker and schedule its restart (runs on the
        event loop: heartbeat, request failover, or restart callback)."""
        slot.state = "restarting"
        slot.generation += 1
        slot.consecutive_probe_failures = 0
        slot.crashes += 1
        self.crashes += 1
        self._close_pool(slot)
        now = time.monotonic()
        slot.crash_times.append(now)
        while slot.crash_times and slot.crash_times[0] < now - self.crash_window_s:
            slot.crash_times.popleft()
        if len(slot.crash_times) >= self.quarantine_after:
            # Crash loop: stop burning restarts; the datasets this slot
            # served fail over to the surviving replicas.
            slot.state = "quarantined"
            self.quarantined += 1
            return
        if self._stopping.is_set():
            return  # no replacement during teardown; the reap takes the corpse
        backoff = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** (len(slot.crash_times) - 1)),
        )
        task = asyncio.ensure_future(self._restart(slot, backoff))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, slot: _WorkerSlot, backoff_s: float) -> None:
        await asyncio.sleep(backoff_s)
        if slot.state != "restarting":
            return
        loop = asyncio.get_running_loop()
        try:
            process = await loop.run_in_executor(None, self._spawn_worker, slot)
        except asyncio.CancelledError:
            raise
        except Exception:
            # Startup itself failed — counts as another crash, so the
            # backoff keeps growing and the loop breaker still trips.
            if slot.state == "restarting":
                self._on_crash(slot, "restart-failed")
            return
        if slot.state != "restarting":
            process.kill()
            return
        slot.process = process
        try:
            await self._replay_mutations(slot)
        except asyncio.CancelledError:
            raise
        except Exception:
            # The fresh worker could not absorb the mutation history —
            # treat it like any other startup failure.
            process.kill()
            if slot.state == "restarting":
                self._on_crash(slot, "replay-failed")
            return
        slot.restarts += 1
        self.restarts += 1

    async def _replay_mutations(self, slot: _WorkerSlot) -> None:
        """Bring a fresh worker up to date, then mark it healthy.

        A restarted worker is back at version 0 of every live dataset
        it serves; the front's per-dataset logs are replayed in order
        over its private connection.  The dataset locks are held across
        the replay *and* the healthy flip, so no fan-out can slip a new
        batch in between (which this replica would miss) — new
        mutations queue behind the replay and then see the slot
        healthy.  Locks are acquired in sorted dataset order; the
        fan-out path holds at most one at a time, so the ordering
        cannot deadlock.
        """
        datasets = sorted(slot.datasets)
        acquired: List[asyncio.Lock] = []
        try:
            for name in datasets:
                lock = self._mutation_locks.setdefault(name, asyncio.Lock())
                await lock.acquire()
                acquired.append(lock)
            for name in datasets:
                for entry in self._mutation_logs.get(name, []):
                    status, _headers, answer = await self._proxy(
                        slot, "POST", "/mutate", _json_bytes(entry)
                    )
                    if status != 200:
                        raise RuntimeError(
                            f"mutation replay for {name!r} answered {status}: "
                            f"{_decode(answer)}"
                        )
                    self.mutations_replayed += 1
            slot.state = "healthy"
        finally:
            for lock in acquired:
                lock.release()

    # ------------------------------------------------------------------
    # Stats rollup
    # ------------------------------------------------------------------
    async def _worker_stats(self) -> List[Tuple[_WorkerSlot, Optional[dict]]]:
        """Every slot with its worker's ``/stats`` payload (None when the
        worker is not healthy or did not answer)."""
        out = []
        for slot in self.slots:
            payload = None
            if slot.state == "healthy":
                try:
                    status, _headers, body = await self._proxy(
                        slot, "GET", "/stats", b""
                    )
                except _TRANSPORT_ERRORS:
                    status = None
                if status == 200:
                    payload = _decode(body)
            out.append((slot, payload if isinstance(payload, dict) else None))
        return out

    async def _rollup(self, body: dict) -> Tuple[int, dict]:
        workers = []
        totals = dict.fromkeys(_TOTALS[None] + _TOTALS["cache"], 0)
        for slot, stats in await self._worker_stats():
            entry = slot.describe()
            entry["stats"] = stats
            workers.append(entry)
            if stats is None:
                continue
            for section, keys in _TOTALS.items():
                source = (stats if section is None else stats.get(section)) or {}
                for key in keys:
                    totals[key] += source.get(key, 0) or 0
        totals["inflight_front"] = sum(slot.inflight for slot in self.slots)
        return 200, {
            "role": "supervisor",
            "uptime_s": round(time.time() - self.started_at, 3),
            "run_id": self.run_id,
            **self.http_counters(),
            "supervisor": {
                "replays": self.replays,
                "restarts": self.restarts,
                "crashes": self.crashes,
                "stall_kills": self.stall_kills,
                "quarantined": self.quarantined,
                "mutations_routed": self.mutations_routed,
                "mutations_replayed": self.mutations_replayed,
                "mutation_log": {
                    name: len(entries)
                    for name, entries in self._mutation_logs.items()
                },
                "heartbeat_s": self.heartbeat_s,
                "workers": len(self.slots),
            },
            "totals": totals,
            "workers": workers,
        }


# ----------------------------------------------------------------------
# Sync facade
# ----------------------------------------------------------------------
class SupervisorCluster(LoopThread):
    """A supervised cluster running on a background event-loop thread.

    The synchronous handle the CLI, tests, and the load harness drive:
    ``host``/``port`` for clients, :meth:`kill_worker` /
    :meth:`worker_pids` for chaos, :meth:`stop` for teardown (returns
    the segment names its shutdown sweep had to remove — ``[]`` on a
    clean run *and* after worker ``kill -9``, because segments belong
    to the run, not to any worker).
    """

    def __init__(self, supervisor: Supervisor, store) -> None:
        self.supervisor = supervisor
        self.store = store
        try:
            super().__init__(
                supervisor, "disc-supervisor-loop",
                timeout_s=supervisor.worker_start_timeout_s + 30,
            )
        except BaseException:
            if store is not None:
                store.close(sweep=True)
            raise

    @property
    def run_id(self) -> Optional[str]:
        return self.supervisor.run_id

    def worker_pids(self) -> List[Optional[int]]:
        return [
            None if slot.process is None else slot.process.pid
            for slot in self.supervisor.slots
        ]

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int:
        """Deliver ``sig`` to worker ``index`` (chaos hook); returns pid."""
        slot = self.supervisor.slots[index]
        if slot.process is None or slot.process.pid is None:
            raise RuntimeError(f"worker {index} has no live process")
        pid = slot.process.pid
        os.kill(pid, sig)
        return pid

    def stop(self, drain_s: float = 5.0) -> List[str]:
        """Stop front + workers, sweep the run's segments.

        Returns segment names that were still linked when the store
        closed — after the run's own lease-held segments are accounted
        for, a non-empty tail in ``/dev/shm`` would be a leak; the
        chaos tests assert :func:`repro.service.shm.sweep_orphans`
        (and a direct listing) find nothing afterwards.
        """
        if not self._stop_loop(drain_s, timeout_s=120):
            return []
        removed: List[str] = []
        if self.store is not None:
            removed = self.store.close(sweep=True)
            self.store = None
        return removed


def build_worker_configs(
    datasets: Sequence[str],
    workers: int,
    *,
    n: Optional[int] = None,
    seed: int = 42,
    engine: str = "auto",
    engine_options: Optional[dict] = None,
    threads: int = 4,
    max_inflight: Optional[int] = 64,
    cache_entries: int = 64,
    cache_mb: Optional[float] = None,
    ttl_s: Optional[float] = None,
    default_timeout_ms: Optional[float] = None,
    max_timeout_ms: Optional[float] = None,
    faults=None,
    run_id: Optional[str] = None,
    replication: Optional[int] = None,
    host: str = "127.0.0.1",
    live: bool = False,
    drain_s: float = 5.0,
    trace_log: Optional[str] = None,
) -> List[dict]:
    """One config dict per worker slot, with the dataset assignment.

    ``replication=None`` replicates every dataset onto every worker
    (the hot-dataset default — any worker can serve any request, so
    failover never strands a dataset).  ``replication=k`` shards:
    dataset ``i`` lands on workers ``(i+j) % workers`` for ``j < k``.

    ``faults`` is either one fault-config dict applied to every worker
    or a list of ``workers`` per-worker dicts (``None`` entries allowed)
    — chaos tests arm a single worker and watch its requests fail over
    to the clean replicas.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    names = list(datasets)
    if not names:
        raise ValueError("at least one dataset is required")
    if replication is not None and not 1 <= replication <= workers:
        raise ValueError(
            f"replication must be in [1, {workers}], got {replication}"
        )
    if isinstance(faults, (list, tuple)):
        if len(faults) != workers:
            raise ValueError(
                f"per-worker faults list must have {workers} entries, "
                f"got {len(faults)}"
            )
        per_worker_faults = list(faults)
    else:
        per_worker_faults = [faults] * workers
    assigned: List[List[str]] = [[] for _ in range(workers)]
    if replication is None:
        for worker_datasets in assigned:
            worker_datasets.extend(names)
    else:
        for i, name in enumerate(names):
            for j in range(replication):
                assigned[(i + j) % workers].append(name)
    configs = []
    for worker_id in range(workers):
        configs.append(
            {
                "worker_id": worker_id,
                "host": host,
                "datasets": assigned[worker_id],
                "n": n,
                "seed": seed,
                "engine": engine,
                "engine_options": dict(engine_options or {}),
                "threads": threads,
                "max_inflight": max_inflight,
                "cache_entries": cache_entries,
                "cache_mb": cache_mb,
                "ttl_s": ttl_s,
                "default_timeout_ms": default_timeout_ms,
                "max_timeout_ms": max_timeout_ms,
                "faults": (
                    dict(per_worker_faults[worker_id])
                    if per_worker_faults[worker_id]
                    else None
                ),
                "run_id": run_id,
                "live": live,
                "drain_s": drain_s,
                # Workers write sibling logs next to the front's (one
                # writer per file; no cross-process interleaving).
                "trace_log": (
                    None if trace_log is None else f"{trace_log}.w{worker_id}"
                ),
            }
        )
    return configs


def start_supervised(
    datasets: Sequence[str] = ("uniform",),
    workers: int = 2,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    use_shm: bool = True,
    replication: Optional[int] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    probe_timeout_s: float = DEFAULT_PROBE_TIMEOUT_S,
    stall_probes: int = DEFAULT_STALL_PROBES,
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    crash_window_s: float = DEFAULT_CRASH_WINDOW_S,
    max_replays: int = DEFAULT_MAX_REPLAYS,
    worker_start_timeout_s: float = WORKER_START_TIMEOUT_S,
    trace_log: Optional[str] = None,
    **worker_options,
) -> SupervisorCluster:
    """Start a supervised cluster on a background thread (sync entry).

    ``worker_options`` are forwarded to :func:`build_worker_configs`
    (``n``, ``seed``, ``engine``, ``threads``, ``cache_entries``,
    ``ttl_s``, ``faults`` = a fault-config dict applied to every
    worker, ...).  Startup sweeps shm orphans from previous unclean
    shutdowns; teardown (:meth:`SupervisorCluster.stop`) sweeps this
    run's segments.
    """
    store = None
    run_id = None
    if use_shm and shm_mod.shm_available():
        shm_mod.sweep_orphans()
        run_id = shm_mod.new_run_id()
        store = shm_mod.SharedSegmentStore(run_id, hold_lease=True)
    configs = build_worker_configs(
        datasets, workers, run_id=run_id, host=host, trace_log=trace_log,
        **worker_options
    )
    supervisor = Supervisor(
        configs,
        host=host,
        port=port,
        run_id=run_id,
        trace_log=trace_log,
        heartbeat_s=heartbeat_s,
        probe_timeout_s=probe_timeout_s,
        stall_probes=stall_probes,
        quarantine_after=quarantine_after,
        crash_window_s=crash_window_s,
        max_replays=max_replays,
        worker_start_timeout_s=worker_start_timeout_s,
    )
    return SupervisorCluster(supervisor, store)
