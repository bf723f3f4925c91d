"""Zoom-trace drivers for the chaos and kill -9 suites.

Each driver replays the paper's interactive pattern — :data:`CLIENTS`
threads stepping through :data:`SESSION_ZOOM_PATTERN` multiples of the
clustered workload's benchmark radius over real HTTP,
barrier-synchronised so identical requests land concurrently — and
checks every 200 byte for byte against a direct
:func:`repro.api.disc_select` call.
:func:`run_chaos_trace` serves one process with a seeded fault
injector; :func:`run_kill9_trace` SIGKILLs a supervised worker
mid-trace.  Latency is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.experiments.perf import _WORKLOADS, bench_radius
from repro.obs.sink import iter_trace_records
from repro.service.cache import SharedCacheManager
from repro.service.client import RetryPolicy, ServiceClient, ServiceError
from repro.service.faults import FaultConfig, FaultInjector
from repro.service.registry import DatasetRegistry
from repro.service.server import start_in_thread
from repro.service.state import ServiceState

__all__ = [
    "CLIENTS",
    "DEADLINE_SLACK_MS",
    "SESSION_ZOOM_PATTERN",
    "ZoomTrace",
    "replay_single",
    "run_chaos_trace",
    "run_kill9_trace",
    "zoom_trace",
]

#: The interactive zoom pattern: coarse view, zoom in, back out, in
#: again, wider, back to the start — radii repeat, which is what the
#: shared adjacency cache and single-flight exist for.  Multipliers of
#: the workload's benchmark radius.
SESSION_ZOOM_PATTERN = (1.0, 0.5, 1.0, 0.5, 1.5, 1.0, 0.5, 1.5)

#: Allowance on top of ``timeout_ms`` for the observed latency of a
#: deadline-bounded request: one cooperative-cancellation checkpoint
#: interval (the worst case between two ``token.checkpoint()`` calls in
#: the greedy loops / CSR builders) plus response serialisation.
DEADLINE_SLACK_MS = 250.0

WORKLOAD = "clustered"
#: Concurrent users; each also gets a server thread.
CLIENTS = 4
#: Supervised workers in the kill -9 trace.
WORKERS = 2

#: The stats probe retries through injected connection resets, so a
#: chaos run can still read its own evidence.
_PROBE_RETRY = RetryPolicy(
    retries=8, base_s=0.01, cap_s=0.1, budget_s=2.0, statuses=(), seed=97
)


class ZoomTrace(NamedTuple):
    """One trace: the radii in request order, the engine payload every
    client sends, and the fault-free reference selection per radius."""

    n: int
    radii: List[float]
    engine: dict
    reference: Dict[float, List[int]]


def zoom_trace(n: int) -> ZoomTrace:
    """The zoom pattern over the clustered workload at cardinality ``n``."""
    from repro.api import disc_select

    base = bench_radius(WORKLOAD, n)
    radii = [base * m for m in SESSION_ZOOM_PATTERN]
    # The grid engine with radius-sized cells is the serving workhorse.
    options = {"cell_size": base}
    data = _WORKLOADS[WORKLOAD](n)
    reference = {
        radius: [
            int(i)
            for i in disc_select(
                data, radius, engine="grid", engine_options=options
            ).selected
        ]
        for radius in sorted(set(radii))
    }
    return ZoomTrace(n, radii, {"name": "grid", "options": options}, reference)


def _client_worker(
    host: str,
    port: int,
    trace: ZoomTrace,
    barrier: threading.Barrier,
    records: List[dict],
    errors: List[BaseException],
    timeout_ms: Optional[float],
    retry: Optional[RetryPolicy],
) -> None:
    """One simulated user: replay the zoom trace, record every outcome.

    Non-200 responses (deadline 408/504, breaker/injected 503) are
    recorded with their status; only transport errors that survive the
    client's retry budget escape to ``errors``.
    """
    try:
        with ServiceClient(host, port, retry=retry) as client:
            for radius in trace.radii:
                barrier.wait()
                t0 = time.perf_counter()
                try:
                    response = client.select(
                        WORKLOAD, radius, engine=trace.engine,
                        timeout_ms=timeout_ms,
                    )
                    status, selected = 200, response["result"]["selected"]
                except ServiceError as exc:
                    status, selected = exc.status, None
                records.append(
                    {
                        "radius": radius,
                        "latency_s": time.perf_counter() - t0,
                        "status": status,
                        "selected": selected,
                        "server_timing": client.last_server_timing,
                        "trace": client.last_trace,
                    }
                )
    except BaseException as exc:  # surface in the main thread
        errors.append(exc)
        barrier.abort()


def _replay(host: str, port: int, trace: ZoomTrace,
            timeout_ms: Optional[float] = None,
            retry: Optional[RetryPolicy] = None) -> List[dict]:
    """Run :data:`CLIENTS` step-synchronised users to completion."""
    barrier = threading.Barrier(CLIENTS)
    records: List[dict] = []
    errors: List[BaseException] = []
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(host, port, trace, barrier, records, errors, timeout_ms, retry),
            name=f"disc-load-{i}",
        )
        for i in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


def _poll_stats(host: str, port: int, settled, wait_s: float) -> dict:
    """``/stats`` once ``settled(stats)`` holds, or after ``wait_s``."""
    with ServiceClient(host, port, retry=_PROBE_RETRY) as probe:
        stats = probe.stats()
        deadline = time.monotonic() + wait_s
        while not settled(stats) and time.monotonic() < deadline:
            time.sleep(0.05)
            stats = probe.stats()
    return stats


def _outcome(records: List[dict], trace: ZoomTrace) -> dict:
    """Request accounting and byte parity shared by both drivers."""
    status_counts: Dict[str, int] = {}
    for record in records:
        key = str(record["status"])
        status_counts[key] = status_counts.get(key, 0) + 1
    successes = [r for r in records if r["status"] == 200]
    mismatched = sorted(
        {r["radius"] for r in successes if r["selected"] != trace.reference[r["radius"]]}
    )
    return {
        "requests": len(records),
        "expected_requests": CLIENTS * len(trace.radii),
        "successes": len(successes),
        "failures": len(records) - len(successes),
        "status_counts": status_counts,
        "byte_identical": not mismatched,
        "mismatched_radii": mismatched,
    }


def replay_single(
    trace: ZoomTrace,
    *,
    timeout_ms: Optional[float] = None,
    fault_config: Optional[FaultConfig] = None,
    retry: Optional[RetryPolicy] = None,
    trace_log: Optional[str] = None,
) -> Tuple[List[dict], dict]:
    """One trace replay against a freshly started single-process server.

    Returns the per-request records (radius, latency, status, selection,
    response headers) and ``/stats`` read once the in-flight gauge has
    drained — a timed-out request must release its executor slot within
    one checkpoint interval, so a gauge stuck above zero means a leaked
    computation.  The circuit breaker resets after 0.25 s, so a tripped
    circuit half-opens within the trace instead of failing everything.
    """
    registry = DatasetRegistry()
    registry.register_spec(
        WORKLOAD,
        lambda: _WORKLOADS[WORKLOAD](trace.n),
        family=WORKLOAD,
        n=trace.n,
        seed=42,
    )
    faults = FaultInjector(fault_config) if fault_config is not None else None
    cache = SharedCacheManager(breaker_reset_s=0.25, faults=faults)
    state = ServiceState(registry, cache=cache, workers=CLIENTS, faults=faults)
    with start_in_thread(state, trace_log=trace_log) as running:
        # Load the dataset outside the replay (a warm server).
        registry.get(WORKLOAD)
        records = _replay(running.host, running.port, trace, timeout_ms, retry)
        stats = _poll_stats(running.host, running.port,
                            lambda s: s["inflight"] == 0, 10.0)
    return records, stats


def _correlate_kill9_traces(trace_log: str, workers: int) -> dict:
    """Join front and worker trace logs on trace id after a kill -9 run.

    The front writes ``trace_log``; worker ``k`` writes
    ``trace_log.w<k>``.  A replayed request is identified on the front
    side by >= 2 ``proxy`` spans (one per routing attempt) under its
    root; correlation means the worker that finally answered emitted a
    record for the *same* trace id — the join the trace ids exist for.
    """
    worker_traces: Dict[str, set] = {}
    for k in range(workers):
        path = f"{trace_log}.w{k}"
        if not os.path.exists(path):
            continue
        for record in iter_trace_records(path):
            worker_traces.setdefault(record.get("trace_id"), set()).add(k)
    front_records = 0
    replayed = None
    if os.path.exists(trace_log):
        for record in iter_trace_records(trace_log):
            front_records += 1
            proxies = [
                span
                for span in record.get("spans") or []
                if span.get("name") == "proxy"
            ]
            if replayed is not None or len(proxies) < 2:
                continue
            served_by = worker_traces.get(record.get("trace_id"))
            if not served_by:
                continue
            replayed = {
                "trace_id": record.get("trace_id"),
                "proxy_attempts": len(proxies),
                "served_by_workers": sorted(served_by),
            }
    return {
        "front_records": front_records,
        "correlated": replayed is not None,
        "replayed_request": replayed,
    }


def run_chaos_trace(
    fault_config: Optional[Union[FaultConfig, dict]] = None,
    *,
    n: int = 2_000,
    timeout_ms: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
) -> dict:
    """The 4-client zoom trace under injected faults, vs the clean run.

    Starts a server with a seeded
    :class:`~repro.service.faults.FaultInjector` wired into both the
    shared cache (build failures, slow builds, corruption) and the
    compute path (worker stalls, connection resets), replays the zoom
    trace with retry-enabled clients, and reports the :func:`_outcome`
    accounting plus the ``/stats`` computation count, cache info,
    timeout count, in-flight gauge and fired faults, and
    ``max_error_latency_ms`` — the slowest non-200 answer (a 408/504
    must arrive within ``timeout_ms`` + :data:`DEADLINE_SLACK_MS`).
    """
    if isinstance(fault_config, dict):
        fault_config = FaultConfig.from_dict(fault_config)
    if fault_config is None:
        fault_config = FaultConfig()
    if retry is None:
        retry = RetryPolicy(
            retries=4,
            base_s=0.02,
            cap_s=0.25,
            budget_s=5.0,
            statuses=(503,),
            seed=fault_config.seed,
        )
    trace = zoom_trace(n)
    records, stats = replay_single(
        trace, timeout_ms=timeout_ms, fault_config=fault_config, retry=retry
    )
    errors_ms = [r["latency_s"] * 1e3 for r in records if r["status"] != 200]
    return {
        **_outcome(records, trace),
        "computations": stats["computations"],
        "cache": stats["cache"],
        "timeouts": stats["timeouts"],
        "inflight_final": stats["inflight"],
        "faults_fired": (stats.get("faults") or {}).get("fired"),
        "max_error_latency_ms": max(errors_ms, default=None),
    }


def run_kill9_trace(n: int = 2_000) -> dict:
    """SIGKILL a worker mid-trace; the clients must never notice.

    Worker 0 of :data:`WORKERS` kills itself on the first request it is
    sent (the ``worker_crash`` fault at dispatch), so the kill always
    lands on an in-flight request.  The front replays it on a surviving
    worker, the supervisor restarts the corpse (unarmed), and shutdown
    sweeps every shared-memory segment.  Besides the :func:`_outcome`
    accounting the payload reports the killed pid, the supervisor's
    ``restarts``/``crashes``, the drained in-flight gauge, the run's
    ``leaked_segments`` after the sweep, and ``trace_correlation``: the
    front's record of a replayed request (>= 2 ``proxy`` spans) joined
    to the worker record of the same trace id.
    """
    from repro.service import shm as shm_mod
    from repro.service.supervisor import start_supervised

    trace = zoom_trace(n)
    trace_dir = tempfile.mkdtemp(prefix="repro-kill9-trace-")
    trace_log = os.path.join(trace_dir, "trace.jsonl")
    crash = {"seed": 0, "worker_crash_rate": 1.0, "worker_crash_limit": 1}
    try:
        cluster = start_supervised(
            [WORKLOAD],
            WORKERS,
            n=n,
            seed=42,
            threads=CLIENTS,
            faults=[crash] + [None] * (WORKERS - 1),
            heartbeat_s=0.1,
            trace_log=trace_log,
        )
        try:
            slot = cluster.supervisor.slots[0]
            killed = {"worker": 0, "pid": slot.process.pid}
            # Restarts spawn from the slot's config: arm only this one.
            slot.config = {**slot.config, "faults": None}
            records = _replay(cluster.host, cluster.port, trace)
            # Wait for the gauge to drain and for the restart the
            # supervisor owes, so the payload carries the full story.
            stats = _poll_stats(
                cluster.host,
                cluster.port,
                lambda s: (
                    s["totals"]["inflight"] + s["totals"]["inflight_front"] == 0
                    and s["supervisor"]["restarts"] >= 1
                ),
                30.0,
            )
        finally:
            cluster.stop()
        correlation = _correlate_kill9_traces(trace_log, WORKERS)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    totals = stats["totals"]
    return {
        **_outcome(records, trace),
        "killed": killed,
        "restarts": stats["supervisor"]["restarts"],
        "crashes": stats["supervisor"]["crashes"],
        "inflight_final": totals["inflight"] + totals["inflight_front"],
        "leaked_segments": shm_mod.list_run_segments(cluster.run_id),
        "trace_correlation": correlation,
    }
