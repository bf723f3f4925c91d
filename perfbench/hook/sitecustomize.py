"""Span recorder the benchmark's traced run loads into every server process.

``perfbench/run.py --trace 1`` starts ``repro serve`` with this
directory first on ``PYTHONPATH`` and ``PERFBENCH_SPANS`` naming an
output directory; Python imports ``sitecustomize`` at start-up, in the
supervisor front and in each worker it spawns (they inherit the
environment).  Without ``PERFBENCH_SPANS`` the module does nothing.

Each public entry point in :data:`TARGETS` is wrapped with a timer.
A span records its layer, start, duration and *self* time (duration
minus the spans that ran inside it, tracked per thread or asyncio task
with a context variable), the process id and the request's trace id,
read from the server's own ambient span (or, for the response write
that follows it, from the response's ``X-Repro-Trace`` header), so
spans join the benchmark's client-side record of the same request.
Spans stay in memory and are written as
JSON lines to ``<PERFBENCH_SPANS>/spans-<pid>.jsonl`` at exit.
"""

import atexit
import contextvars
import functools
import inspect
import json
import os
import sys
import time

_OUT = os.environ.get("PERFBENCH_SPANS")

#: (layer, module, attribute path) of every wrapped entry point.
TARGETS = [
    ("service.validate", "repro.service.state", "ServiceState.validate_select"),
    ("service.validate", "repro.service.state", "ServiceState.validate_zoom"),
    ("service.validate", "repro.service.state", "ServiceState.validate_mutate"),
    ("engines.index", "repro.service.state", "ServiceState.ensure_index"),
    ("cache.lookup", "repro.index.base", "NeighborIndex.csr_neighborhood"),
    ("graph.build", "repro.index.grid", "GridIndex._build_csr"),
    ("graph.build", "repro.index.kdtree", "KDTreeIndex._build_csr"),
    ("graph.build", "repro.index.bruteforce", "BruteForceIndex._build_csr"),
    ("graph.build", "repro.graph.incremental", "IncrementalNeighborhood.__init__"),
    ("core.select", "repro.core.greedy", "greedy_disc"),
    ("core.zoom_in", "repro.core.zoom", "zoom_in"),
    ("core.zoom_out", "repro.core.zoom", "zoom_out"),
    ("result.encode", "repro.core.result", "DiscResult.to_dict"),
    ("result.encode", "repro.service.server", "write_http_response"),
    ("live.apply", "repro.live.dataset", "MutableDataset.apply"),
    ("live.migrate", "repro.service.cache", "SharedCacheManager.migrate_dataset"),
    ("live.snapshot", "repro.live.dataset", "MutableDataset.adjacency_snapshot"),
    ("live.snapshot", "repro.live.dataset", "MutableDataset.adjacency_snapshot_for_mask"),
    ("live.repair", "repro.live.repair", "repair_selection_delta"),
]

_SPANS = []
_CHILD_TIME = contextvars.ContextVar("perfbench_child_time", default=None)
_current_span = None   # repro.obs.trace.current_span, bound by _install


def _trace_id(kwargs):
    """The ambient request span's trace id; outside any span (the
    servers write a response after its request scope has closed) the
    id of the ``X-Repro-Trace`` header the response carries."""
    span = _current_span()
    if span is not None:
        return span.trace_id
    for name, value in kwargs.get("extra_headers") or ():
        if name.lower() == "x-repro-trace":
            return value.split(":", 1)[0]
    return None


def _graph_extra(layer, args, result):
    """Edge counts of a finished adjacency build."""
    if layer != "graph.build":
        return None
    graph = args[0] if result is None else result
    logical = getattr(graph, "nnz", None)
    if logical is None:
        return None
    stored = getattr(graph, "stored_nnz", logical)
    return {
        "logical": int(logical),
        "stored": int(stored),
        "blocked": type(graph).__name__ == "BlockedNeighborhood",
    }


def _record(layer, name, t0, duration, child, extra, kwargs):
    _SPANS.append({
        "trace": _trace_id(kwargs),
        "pid": os.getpid(),
        "layer": layer,
        "name": name,
        "t0": t0,
        "ms": duration * 1e3,
        "self_ms": (duration - child) * 1e3,
        "extra": extra,
    })


def _wrap(layer, name, fn):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            parent = _CHILD_TIME.get()
            mine = [0.0]
            token = _CHILD_TIME.set(mine)
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                _CHILD_TIME.reset(token)
                if parent is not None:
                    parent[0] += duration
                _record(layer, name, t0, duration, mine[0], None, kwargs)
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CHILD_TIME.get()
        mine = [0.0]
        token = _CHILD_TIME.set(mine)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - t0
            _CHILD_TIME.reset(token)
            if parent is not None:
                parent[0] += duration
            _record(layer, name, t0, duration, mine[0],
                    _graph_extra(layer, args, result), kwargs)
    return wrapper


def _install():
    global _current_span
    import importlib

    from repro.obs import trace

    _current_span = trace.current_span
    missing = []
    for layer, module_name, path in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}:{path}")
            continue
        wrapped = _wrap(layer, path, original)
        setattr(owner, attr, wrapped)
        if parents:
            continue
        # Module-level functions are also bound by name in the modules
        # that imported them (and in the method table): rebind those.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapped
    if missing:
        _SPANS.append({"missing": missing})


def _flush():
    path = os.path.join(_OUT, f"spans-{os.getpid()}.jsonl")
    with open(path, "w") as handle:
        for span in _SPANS:
            handle.write(json.dumps(span) + "\n")


if _OUT:
    _install()
    atexit.register(_flush)
