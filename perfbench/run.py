"""The repository benchmark: DisC serving over HTTP, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload zoom-warm --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick        # small-n smoke pass, all workloads

One run starts real ``python -m repro serve`` subprocesses from the
checkout's ``src/``, sets up :data:`SETUPS` times (spawn, dataset load,
index, warm-up; the median is ``setup_s``), drives the last server with
the workload's two closed-loop clients for ``--seconds``, stops it, and
checks every answer against the library (:mod:`check`).  A wrong
answer fails the run before any number is printed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
same seeded streams against a server (one set-up) that loads
``perfbench/hook/sitecustomize.py``, which times calls into each
layer's public entry points, and prints the per-layer metrics plus a
layer table with an ``unattributed`` row; when the checkout holds an
untraced record of the same code and seed, the difference in read
median is reported as the tracing overhead.  The last line of standard
output is one JSON object; a human-readable report goes to standard
error and the full record (metadata, phases, layer table) to
``.bench_out/results/<commit>-<code digest>/``.

Every metric the last line carries is measured on every workload.  The
end-to-end ones are never 0.  Read latency is gated by its mean and
p90: the read sample mixes radii and operations of different cost (on
``churn``, about nine reads per run at two radii whose costs differ
twofold), so its median jumps between cost modes from one run to the
next; the median is printed and recorded.  Write latency and repair
Jaccard (``churn`` only) and the failed ratio (0 when all is well) are
printed and recorded only.  A per-layer count may read 0 (no eviction
on ``zoom-warm`` is a measured outcome), but a per-layer time must
come from calls made on every workload, so the zoom and live layer
timings stay in the printed layer table and the record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

from check import digest, gate
from harness import (
    TRANSPORT_ERRORS,
    BenchError,
    Server,
    become_subreaper,
    percentile,
    state_stats,
    stop_resource_tracker,
    tail_percentile,
    vm_hwm_mb,
)
from workloads import QUICK_N, WORKLOADS, canonical_result

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3
QUICK_SECONDS = 2

END_TO_END = {
    "setup_s": "s",
    "read_mean_ms": "ms",
    "read_p90_ms": "ms",
    "throughput_rps": "req/s",
    "rss_peak_mb": "MiB",
    "result_size_mean": "ids",
}
PER_LAYER = {
    "core.select_ms.p50": "ms",
    "core.select_ms.p90": "ms",
    "graph.build_ms.p50": "ms",
    "graph.build_ms.p90": "ms",
    "graph.logical_edges": "count",
    "graph.stored_edges": "count",
    "graph.blocked_builds": "count",
    "cache.lookup_ms.p50": "ms",
    "cache.hit_ratio": "ratio",
    "cache.builds_per_req": "1/req",
    "cache.evictions_per_req": "1/req",
    "cache.migrations_per_req": "1/req",
    "cache.bytes_final": "bytes",
    "service.validate_ms.p50": "ms",
    "service.overhead_ms.p50": "ms",
    "service.computations_per_req": "1/req",
    "service.coalesced_per_req": "1/req",
    "supervisor.replays": "count",
    "shm.attaches": "count",
    "shm.stores": "count",
    "engines.index_ms": "ms",
    "result.encode_ms.p50": "ms",
    "live.n_total": "count",
    "unattributed_ms.p50": "ms",
}
#: Layers of the traced table, in print order.
LAYERS = [
    "service.validate", "engines.index", "cache.lookup", "graph.build",
    "core.select", "core.zoom_in", "core.zoom_out", "result.encode",
    "live.apply", "live.migrate", "live.snapshot", "live.repair",
]
#: Layers whose calls are counted over the server's whole life: on the
#: warm workloads they only run during set-up.
LIFETIME_LAYERS = ("graph.build", "engines.index")
#: ``live.n_total`` on ``churn``: ids (alive and tombstoned) after this
#: many ``/mutate`` batches, which every run applies.
N_TOTAL_VERSION = 4


def log(message: str = "") -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# One pass: set up, drive the clients, collect
# ----------------------------------------------------------------------
def _extract(request, body: dict) -> dict:
    if request.op == "mutate":
        return {
            "served_version": body["version"],
            "inserted": body["inserted"],
            "deleted": body["deleted"],
            "selected": body["repair"]["selected"],
            "jaccard": body["repair"]["jaccard_previous"],
            "n_total": body["n_total"],
            "elapsed_s": body["elapsed_s"],
        }
    result = body["result"]
    out = {
        "size": len(result["selected"]),
        "elapsed_s": body["elapsed_s"],
        "version": body.get("version"),
    }
    if request.op == "select":
        out["digest"] = digest(canonical_result(result))
    else:
        out["selected"] = result["selected"]
    return out


def _client_loop(server, session, deadline, cid, records, errors) -> None:
    client = server.client()
    seq = 0
    try:
        while time.perf_counter() < deadline:
            request = session.next()
            trace = f"{cid + 1:02x}{seq:014x}"
            seq += 1
            record = {"client": cid, "op": request.op, "kind": request.kind,
                      "radius": request.radius, "trace": trace, **request.meta}
            records.append(record)
            try:
                status, raw, latency, t_send = client.call(
                    "POST", request.path, request.payload, trace)
            except TRANSPORT_ERRORS as exc:
                record.update(status=None, latency=None, error=type(exc).__name__)
                continue
            record.update(status=status, latency=latency, t_send=t_send)
            if status == 200:
                body = json.loads(raw)
                session.update(request, body)
                record.update(_extract(request, body))
            else:
                record["error"] = raw[:200].decode("utf-8", "replace")
    except Exception as exc:  # surfaced by the main thread
        errors.append(f"client {cid}: {type(exc).__name__}: {exc}")
    finally:
        client.close()


def _counters(stats: dict) -> Dict[str, float]:
    out: Dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + (value or 0)

    for state in state_stats(stats):
        add("computations", state.get("computations"))
        add("coalesced", state.get("coalesced_requests"))
        cache = state.get("cache") or {}
        for key in ("hits", "misses", "builds", "evictions", "migrations",
                    "shm_stores", "bytes"):
            add(key, cache.get(key))
        add("shm_attaches", (cache.get("backing") or {}).get("attaches"))
        for dataset in state.get("datasets") or []:
            add("n_total", dataset.get("n_total", dataset.get("n")))
    out["replays"] = (stats.get("supervisor") or {}).get("replays", 0)
    out["workers"] = len(state_stats(stats))
    return out


def run_pass(root: str, workload, seed: int, seconds: float, n: int,
             setups: int, out_dir: str, traced: bool = False) -> dict:
    """Set up ``setups`` times, drive the last server, stop it."""
    spans_dir = tempfile.mkdtemp(prefix="spans-", dir=out_dir) if traced else None
    hook = os.path.join(HERE, "hook") if traced else None
    args = workload.server_args(n)
    setup_s: List[float] = []
    warmup_requests = 0
    server = None
    try:
        for attempt in range(setups):
            if server is not None:
                control.close()
                server.stop()
            server = Server(root, args, os.path.join(out_dir, "server.log"),
                            hook, spans_dir)
            t0 = time.perf_counter()
            server.start()
            control = server.client()
            warm_state = workload.warmup(control, n, seed)
            setup_s.append(time.perf_counter() - t0)
            warmup_requests += control.requests
        before = control.json("GET", "/stats")
        sessions = workload.make_sessions(seed, n, warm_state)
        records: List[dict] = []
        errors: List[str] = []
        start = time.perf_counter()
        threads = [
            threading.Thread(target=_client_loop, daemon=True,
                             args=(server, s, start + seconds, c, records, errors))
            for c, s in enumerate(sessions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if errors:
            raise BenchError("; ".join(errors))
        after = control.json("GET", "/stats")
        rss = sum(vm_hwm_mb(pid) for pid in server.pids(after))
        control.close()
    finally:
        if server is not None:
            server.stop()
    spans = None
    if traced:
        spans = _load_spans(spans_dir)
        shutil.rmtree(spans_dir)
    return {
        "setup_s": setup_s,
        "warmup_requests": warmup_requests,
        "records": records,
        "window": (start, end),
        "before": _counters(before),
        "after": _counters(after),
        "rss_mb": rss,
        "server_args": args,
        "sessions": sessions,
        "spans": spans,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _latency_summary(records: List[dict], window_s: float) -> dict:
    """Mean, median and p90 in ms; a failed request counts as missing
    every bound: it takes the whole window's length as its latency."""
    missed = window_s * 1e3
    latencies = [r["latency"] * 1e3 if r["status"] == 200 else missed
                 for r in records]
    if not latencies:
        return {"n": 0}
    tail, p90_ok = tail_percentile(len(latencies))
    return {
        "n": len(latencies),
        "mean": statistics.fmean(latencies),
        "p50": percentile(latencies, 50),
        "p90": percentile(latencies, 90),
        "tail_pct": round(tail, 1),
        "p90_has_10_beyond": p90_ok,
    }


def _throughput(records: List[dict], start: float) -> float:
    """Answered requests per second, summed over clients, each over its
    own busy period: a closed-loop client is busy from the window start
    to its last answer, so this carries no idle tail after the deadline
    (which is up to one request long, a sizeable share of a window that
    holds twenty cold requests)."""
    rate = 0.0
    for client in {r["client"] for r in records}:
        done = [r for r in records if r["client"] == client and r["status"] == 200]
        if done:
            last = max(r["t_send"] + r["latency"] for r in done)
            rate += len(done) / (last - start)
    return rate


def end_to_end(result: dict, size_steps: int) -> dict:
    records = result["records"]
    start, end = result["window"]
    window_s = end - start
    reads = [r for r in records if r["kind"] == "read"]
    writes = [r for r in records if r["kind"] == "write"]
    ok = [r for r in records if r["status"] == 200]
    read_sizes = [r["size"] for r in reads
                  if r["status"] == 200 and r["step"] < size_steps]
    read = _latency_summary(reads, window_s)
    metrics = {
        "setup_s": statistics.median(result["setup_s"]),
        "read_mean_ms": read["mean"],
        "read_p90_ms": read["p90"],
        "throughput_rps": _throughput(records, start),
        "rss_peak_mb": result["rss_mb"],
        "result_size_mean": statistics.fmean(read_sizes) if read_sizes else 0.0,
    }
    extra = {
        "window_s": window_s,
        "read": read,
        "read_p50_ms": read["p50"],
        "failed_ratio": (len(records) - len(ok)) / max(1, len(records)),
        "size_samples": len(read_sizes),
    }
    if writes:
        write = _latency_summary(writes, window_s)
        jaccards = [r["jaccard"] for r in writes if r["status"] == 200]
        extra.update(
            write=write,
            write_p50_ms=write["p50"],
            write_p90_ms=write["p90"],
            repair_jaccard_mean=statistics.fmean(jaccards) if jaccards else None,
        )
    return {"metrics": metrics, "extra": extra}


def _load_spans(spans_dir: str) -> List[dict]:
    spans: List[dict] = []
    missing: List[str] = []
    for name in sorted(os.listdir(spans_dir)):
        with open(os.path.join(spans_dir, name)) as handle:
            for line in handle:
                span = json.loads(line)
                if "missing" in span:
                    missing += span["missing"]
                else:
                    spans.append(span)
    if missing:
        raise BenchError(f"trace hook could not wrap {sorted(set(missing))}")
    if not spans:
        raise BenchError("the traced servers recorded no spans")
    return spans


def per_layer(traced: dict, size_steps: int) -> dict:
    """Per-layer metrics and the layer table from one traced pass.

    A layer's time is the self time of its spans (nested spans of other
    layers subtracted); a request's ``unattributed`` time is its client
    wall-clock minus the self time of every span it caused, in any
    server process: HTTP, queueing, the supervisor's proxy hop and
    whatever no wrapped entry point covers.

    No metric grows with the number of requests a window happens to
    hold: counts from ``/stats`` are per timed request, edge counts
    cover the set-up builds and those of the seeded request prefix
    (``step < size_steps``, which every run completes), the index time
    is each process's first, building, ``ensure_index`` call and the
    live dataset's size is read at version :data:`N_TOTAL_VERSION`."""
    spans = traced["spans"]
    records = traced["records"]
    timed = {r["trace"]: r for r in records if r["status"] == 200}
    sent = {r["trace"] for r in records}
    by_layer: Dict[str, List[dict]] = {layer: [] for layer in LAYERS}
    per_request: Dict[str, Dict[str, float]] = {t: {} for t in timed}
    joined: Dict[str, int] = {}
    for span in spans:
        if span["trace"] in timed:
            bucket = per_request[span["trace"]]
            bucket[span["layer"]] = bucket.get(span["layer"], 0.0) + span["self_ms"]
            by_layer[span["layer"]].append(span)
            joined[span["name"]] = joined.get(span["name"], 0) + 1
        elif span["layer"] in LIFETIME_LAYERS:
            by_layer[span["layer"]].append(span)

    def calls(layer):
        return [s["self_ms"] for s in by_layer[layer]]

    def pct(values, q):
        return percentile(values, q) if values else 0.0

    total_ms = {t: r["latency"] * 1e3 for t, r in timed.items()}
    unattributed = [total_ms[t] - sum(per_request[t].values()) for t in timed]
    encode = [per_request[t].get("result.encode", 0.0) for t in timed]
    wall = sum(total_ms.values())
    table = []
    for layer in LAYERS:
        values = calls(layer)
        window_ms = sum(s["self_ms"] for s in by_layer[layer] if s["trace"] in timed)
        table.append({
            "layer": layer, "calls": len(values),
            "p50_ms": pct(values, 50), "p90_ms": pct(values, 90),
            "self_ms_total": sum(values),
            "share_of_wall": window_ms / wall if wall else 0.0,
        })
    table.append({
        "layer": "unattributed", "calls": len(unattributed),
        "p50_ms": pct(unattributed, 50), "p90_ms": pct(unattributed, 90),
        "self_ms_total": sum(unattributed),
        "share_of_wall": sum(unattributed) / wall if wall else 0.0,
    })

    builds = [
        s for s in by_layer["graph.build"]
        if s.get("extra") and (s["trace"] not in sent or (
            s["trace"] in timed and timed[s["trace"]].get("step", size_steps) < size_steps))
    ]
    first_index: Dict[int, dict] = {}
    for span in by_layer["engines.index"]:
        if span["pid"] not in first_index or span["t0"] < first_index[span["pid"]]["t0"]:
            first_index[span["pid"]] = span
    before, after = traced["before"], traced["after"]
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    per_req = 1.0 / max(1, len(records))
    lookups = delta["hits"] + delta["misses"]
    overhead = [
        r["latency"] * 1e3 - r["elapsed_s"] * 1e3
        for r in records if r["status"] == 200 and r["kind"] == "read"
    ]
    n_total = [r["n_total"] for r in records
               if r["status"] == 200 and r.get("version") == N_TOTAL_VERSION
               and r["op"] == "mutate"]
    metrics = {
        "core.select_ms.p50": pct(calls("core.select"), 50),
        "core.select_ms.p90": pct(calls("core.select"), 90),
        "graph.build_ms.p50": pct(calls("graph.build"), 50),
        "graph.build_ms.p90": pct(calls("graph.build"), 90),
        "graph.logical_edges": sum(s["extra"]["logical"] for s in builds),
        "graph.stored_edges": sum(s["extra"]["stored"] for s in builds),
        "graph.blocked_builds": sum(1 for s in builds if s["extra"]["blocked"]),
        "cache.lookup_ms.p50": pct(calls("cache.lookup"), 50),
        "cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "cache.builds_per_req": delta["builds"] * per_req,
        "cache.evictions_per_req": delta["evictions"] * per_req,
        "cache.migrations_per_req": delta["migrations"] * per_req,
        "cache.bytes_final": after["bytes"],
        "service.validate_ms.p50": pct(calls("service.validate"), 50),
        "service.overhead_ms.p50": pct(overhead, 50),
        "service.computations_per_req": delta["computations"] * per_req,
        "service.coalesced_per_req": delta["coalesced"] * per_req,
        # Set-up-phase counters, like graph.build: since server start.
        "supervisor.replays": after["replays"],
        "shm.attaches": after["shm_attaches"],
        "shm.stores": after["shm_stores"],
        "engines.index_ms": statistics.fmean(
            s["self_ms"] for s in first_index.values()) if first_index else 0.0,
        "result.encode_ms.p50": pct(encode, 50),
        "live.n_total": n_total[0] if n_total
        else after["n_total"] / max(1, after["workers"]),
        "unattributed_ms.p50": pct(unattributed, 50),
    }
    return {"metrics": metrics, "table": table, "joined": joined}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _code_digest(root: str) -> str:
    """Content hash of ``src/`` and the benchmark: tells runs of
    different code apart, also in a checkout that is not a git
    repository or has uncommitted changes."""
    sha = hashlib.sha256()
    for top in (os.path.join(root, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    sha.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as handle:
                        sha.update(handle.read())
    return sha.hexdigest()[:16]


def metadata(root: str, args, server_args: List[str]) -> dict:
    import numpy

    return {
        "commit": _git_commit(root),
        "code_digest": _code_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "server_args": server_args,
        "unix_time": time.time(),
    }


def phase_counts(result: dict) -> dict:
    """Requests per phase.  A failed warm-up request aborts the run, so
    every warm-up request that was counted succeeded."""
    records = result["records"]
    ok = sum(1 for r in records if r["status"] == 200)
    warm = result["warmup_requests"]
    return {
        "warmup": {"attempted": warm, "succeeded": warm, "failed": 0},
        "timed": {"attempted": len(records), "succeeded": ok,
                  "failed": len(records) - ok},
    }


def render(name: str, e2e: dict, layers: Optional[dict]) -> str:
    lines = [f"== {name}"]
    for key, value in e2e["metrics"].items():
        lines.append(f"  {key:<22} {value:>12.4f} {END_TO_END[key]}")
    extra = e2e["extra"]
    read = extra["read"]
    lines.append(f"  {'read_p50_ms':<22} {read['p50']:>12.4f} ms")
    lines.append(f"  read samples {read['n']} (p90 has >=10 beyond: "
                 f"{read['p90_has_10_beyond']}; tail p{read['tail_pct']})")
    if "write" in extra:
        write = extra["write"]
        lines.append(f"  {'write_p50_ms':<22} {write['p50']:>12.4f} ms")
        lines.append(f"  {'write_p90_ms':<22} {write['p90']:>12.4f} ms")
        lines.append(f"  {'repair_jaccard_mean':<22} "
                     f"{extra['repair_jaccard_mean'] or 0:>12.4f} ratio")
        lines.append(f"  write samples {write['n']}")
    lines.append(f"  {'failed_ratio':<22} {extra['failed_ratio']:>12.4f} ratio")
    if layers is not None:
        lines.append(f"  {'layer':<18}{'calls':>7}{'p50 ms':>10}{'p90 ms':>10}"
                     f"{'self ms':>11}{'share':>8}")
        for row in layers["table"]:
            lines.append(
                f"  {row['layer']:<18}{row['calls']:>7}{row['p50_ms']:>10.3f}"
                f"{row['p90_ms']:>10.3f}{row['self_ms_total']:>11.1f}"
                f"{row['share_of_wall']:>8.1%}")
        for key, value in layers["metrics"].items():
            lines.append(f"  {key:<26} {value:>14.4f} {PER_LAYER[key]}")
        if "tracing_overhead_ms.mean" in layers:
            overhead = layers["tracing_overhead_ms.mean"]
            lines.append("  tracing overhead (traced - untraced read mean): " + (
                "no untraced run of this seed to compare" if overhead is None
                else f"{overhead:.3f} ms"))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_workload(root: str, args, setups: int, out_dir: str,
                 quick: bool = False) -> dict:
    """One pass (``--trace 1``: one traced pass with a single set-up),
    the correctness gate, the metrics and the run's metadata."""
    workload = WORKLOADS[args.workload]
    n = QUICK_N if quick else workload.n
    result = run_pass(root, workload, args.seed, args.seconds, n,
                      1 if args.trace else setups, out_dir, traced=bool(args.trace))
    plan = getattr(result["sessions"][0], "plan", None)
    records = result["records"]
    return {
        "meta": metadata(root, args, result["server_args"]),
        "problems": gate(records, n, plan),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["status"] != 200),
        "phases": phase_counts(result),
        "end_to_end": end_to_end(result, workload.size_steps),
        "per_layer": per_layer(result, workload.size_steps) if args.trace else None,
    }


def _tracing_overhead(out_dir: str, record: dict) -> Optional[float]:
    """Traced minus untraced ``read_mean_ms`` when this checkout holds an
    untraced record of the same code, workload, seed and length."""
    meta = record["meta"]
    path = os.path.join(
        out_dir, "results", _record_key(meta),
        f"{meta['workload']}-seed{meta['seed']}-trace0.json")
    try:
        with open(path) as handle:
            untraced = json.load(handle)
    except (OSError, ValueError):
        return None
    if untraced["meta"]["seconds"] != meta["seconds"]:
        return None
    return (record["end_to_end"]["metrics"]["read_mean_ms"]
            - untraced["end_to_end"]["metrics"]["read_mean_ms"])


def _record_key(meta: dict) -> str:
    """Results are filed by commit, then by the exact code measured."""
    return f"{meta['commit'] or 'no-git'}-{meta['code_digest']}"


def _write_record(out_dir: str, record: dict) -> str:
    meta = record["meta"]
    folder = os.path.join(out_dir, "results", _record_key(meta))
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(
        folder, f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def _emit(record: dict, trace: int) -> None:
    if trace:
        values, units = record["per_layer"]["metrics"], PER_LAYER
    else:
        values, units = record["end_to_end"]["metrics"], END_TO_END
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }), flush=True)


def quick(root: str, out_dir: str) -> int:
    """Small-n pass over every workload, untraced and traced: every
    metric BENCHMARK.json names is emitted with the unit it declares,
    the correctness gate runs, the layer table has an unattributed row."""
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []
    for section, units in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m for m in spec[section]}
        for name in set(declared) | set(units):
            if name not in units:
                failures.append(f"{name}: declared in BENCHMARK.json, never emitted")
            elif name not in declared:
                failures.append(f"{name}: emitted but not declared in BENCHMARK.json")
            elif declared[name]["unit"] != units[name] or declared[name].get(
                    "better") not in ("lower", "higher"):
                failures.append(f"{name}: unit or direction disagrees")
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=QUICK_SECONDS,
                                      trace=trace)
            record = run_workload(root, args, 1, out_dir, quick=True)
            log(render(name, record["end_to_end"], record["per_layer"]))
            failures += [f"{name}: {p}" for p in record["problems"]]
            section = record["per_layer"] if trace else record["end_to_end"]
            units = PER_LAYER if trace else END_TO_END
            missing = [m for m in units
                       if not isinstance(section["metrics"].get(m), (int, float))]
            if missing:
                failures.append(f"{name} trace {trace}: {missing} not emitted")
            if not trace:
                zero = [m for m in units if not section["metrics"][m]]
                if zero:
                    failures.append(f"{name}: end-to-end {zero} read 0")
            else:
                if "unattributed" not in [row["layer"] for row in section["table"]]:
                    failures.append(f"{name}: layer table lacks the unattributed row")
                answered = record["attempted"] - record["failed"]
                writes = section["joined"].get("write_http_response", 0)
                if writes < answered:
                    failures.append(f"{name}: {writes} response writes joined to "
                                    f"{answered} answered requests")
    for failure in failures:
        log(f"QUICK FAIL {failure}")
    log("quick check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small-n smoke pass over all workloads")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        log(f"no src/repro under {root}: run from the root of a checkout")
        return 2
    if not args.quick and args.workload is None:
        parser.error("--workload is required (or pass --quick)")
    # A terminated run still stops its servers (the finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    become_subreaper()
    sys.path.insert(0, os.path.join(root, "src"))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.quick:
            return quick(root, out_dir)
        record = run_workload(root, args, SETUPS, out_dir)
    finally:
        stop_resource_tracker()
    if args.trace:
        record["per_layer"]["tracing_overhead_ms.mean"] = _tracing_overhead(out_dir, record)
    log(render(args.workload, record["end_to_end"], record["per_layer"]))
    log(f"[record] {_write_record(out_dir, record)}")
    if record["problems"]:
        for problem in record["problems"]:
            log(f"WRONG ANSWER: {problem}")
        return 1
    _emit(record, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
