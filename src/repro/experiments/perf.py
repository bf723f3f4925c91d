"""Wall-clock benchmark harness for the CSR neighborhood engine.

The paper's figures measure *node accesses*; this module seeds the
complementary trajectory the ROADMAP asks for — raw wall-clock of index
build + greedy selection at growing cardinalities, so every future
engine or heuristic change can be judged against a recorded baseline.

Workloads are the three numeric dataset families (uniform / clustered /
cities) at n ∈ {2000, 10000, 50000, 100000, 200000}, plus a 500k
clustered tier (:data:`EXTRA_SIZES`) that only the blocked adjacency
makes feasible.  Engines:

``brute-legacy``
    :class:`BruteForceIndex` with ``accelerate=False`` — the seed
    implementation (Python neighbor lists, per-neighbor loops).  The
    reference the speedup column is computed against.
``brute-csr`` / ``grid-csr`` / ``kdtree-csr``
    the same heuristics driven by the CSR engine.  The grid-backed
    builds auto-upgrade to the blocked adjacency on dense-pair-heavy
    workloads (``adjacency_blocked`` in the record, with
    ``adjacency_blocked_s`` = the blocked build's wall-clock,
    ``peak_nnz`` = logical edges a flat CSR would store and
    ``stored_nnz`` = what is actually materialised).

The legacy engine is only timed up to ``LEGACY_MAX_N`` (it is the thing
being replaced); the CSR engines run at every cardinality.  At the
scale tiers (n > 50000) the per-workload radius shrinks as
``sqrt(50000 / n)`` so neighborhood density — and with it nnz per
object — stays at the 50k reference level instead of growing linearly
with n.  Each run records per-phase wall-clock: ``index_s`` (index
constructor), ``adjacency_s`` (CSR materialisation / legacy
precompute), ``select_s`` (one full Greedy-DisC), plus ``build_s`` =
index + adjacency.

Results are emitted as ``results/BENCH_perf.json`` with one record per
(workload, n, engine) and a ``speedups`` section keyed
``<workload>-<n>``.  Run via ``python -m repro bench [--quick]`` or
the ``slow``-marked ``benchmarks/test_perf_wallclock.py``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import __version__
from repro.core import greedy_disc
from repro.datasets import cities_dataset, clustered_dataset, uniform_dataset
from repro.experiments.tables import format_table, results_dir
from repro.graph.blocked import BlockedNeighborhood
from repro.index import BruteForceIndex, GridIndex, KDTreeIndex

__all__ = [
    "BENCH_SIZES",
    "QUICK_SIZES",
    "EXTRA_SIZES",
    "GRID_ONLY_MIN_N",
    "LEGACY_MAX_N",
    "DENSITY_REFERENCE_N",
    "bench_radius",
    "run_wallclock_bench",
    "render_bench_table",
    "write_bench_json",
    "SESSION_ZOOM_PATTERN",
    "run_session_bench",
    "render_session_table",
    "write_session_json",
]

BENCH_SIZES = [2000, 10000, 50000, 100000, 200000]
QUICK_SIZES = [2000]

#: Extra per-workload scale tiers beyond :data:`BENCH_SIZES`.  The 500k
#: clustered tier exists because the blocked adjacency makes it
#: feasible at all: flat CSR would materialise ~800M explicit edges
#: (3+ GB of int32 indices plus assembly time) where the blocked
#: engine stores the dense fraction as id arrays.
EXTRA_SIZES = {"clustered": [500000]}

#: Largest n the seed (legacy brute-force) engine is timed at; beyond
#: this it is impractically slow, which is the point of the CSR engine.
LEGACY_MAX_N = 10000

#: Above this n only the grid engine runs: the KD-tree build
#: (``query_pairs`` + edge sort) has no blocked upgrade and its flat
#: edge list stops fitting comfortably in memory at paper densities.
GRID_ONLY_MIN_N = 300000

#: Radii giving paper-like neighborhood densities per workload family.
BENCH_RADII = {"uniform": 0.05, "clustered": 0.05, "cities": 0.01}

#: Above this n the radius is scaled to keep density at the 50k level.
DENSITY_REFERENCE_N = 50000

_WORKLOADS: Dict[str, Callable] = {
    "uniform": lambda n: uniform_dataset(n=n, dim=2, seed=42),
    "clustered": lambda n: clustered_dataset(n=n, dim=2, seed=42),
    "cities": lambda n: cities_dataset(n=n, seed=42),
}


def bench_radius(workload: str, n: int, base: Optional[float] = None) -> float:
    """The benchmark radius for one (workload, n) cell.

    Up to :data:`DENSITY_REFERENCE_N` the paper-like base radius is
    used unchanged (keeping the 2k/10k/50k tiers comparable with the
    PR 1 trajectory); beyond it the 2-d density-preserving scaling
    ``base * sqrt(reference / n)`` pins the average degree at its 50k
    value, so the scale tiers measure engine throughput rather than a
    quadratically growing edge count.
    """
    base = BENCH_RADII[workload] if base is None else base
    if n <= DENSITY_REFERENCE_N:
        return base
    return base * math.sqrt(DENSITY_REFERENCE_N / n)


def _engines(n: int) -> Dict[str, Callable]:
    engines: Dict[str, Callable] = {}
    if n <= LEGACY_MAX_N:
        engines["brute-legacy"] = lambda pts, metric: BruteForceIndex(
            pts, metric, accelerate=False
        )
        engines["brute-csr"] = lambda pts, metric: BruteForceIndex(pts, metric)
    engines["grid-csr"] = lambda pts, metric: GridIndex(pts, metric, cell_size=0.05)
    if n <= GRID_ONLY_MIN_N:
        engines["kdtree-csr"] = lambda pts, metric: KDTreeIndex(pts, metric)
    return engines


def run_wallclock_bench(
    sizes: Optional[List[int]] = None,
    workloads: Optional[List[str]] = None,
    *,
    quick: bool = False,
    radius_overrides: Optional[Dict[str, float]] = None,
) -> dict:
    """Time index build + Greedy-DisC selection across the grid.

    Build time covers index construction plus neighborhood
    materialisation (CSR build / legacy precompute) — the work a server
    amortises across queries; select time is one full Greedy-DisC run.
    Selections of every engine at the same (workload, n) are checked
    for equality, so each benchmark run doubles as a parity test.
    """
    base_sizes = list(
        sizes if sizes is not None else (QUICK_SIZES if quick else BENCH_SIZES)
    )
    explicit_sizes = sizes is not None
    workloads = list(workloads or _WORKLOADS)
    radii = dict(BENCH_RADII)
    radii.update(radius_overrides or {})

    runs: List[dict] = []
    speedups: Dict[str, float] = {}
    for workload in workloads:
        workload_sizes = list(base_sizes)
        if not explicit_sizes and not quick:
            workload_sizes += EXTRA_SIZES.get(workload, [])
        for n in workload_sizes:
            data = _WORKLOADS[workload](n)
            radius = bench_radius(workload, n, radii[workload])
            selections: Dict[str, list] = {}
            timings: Dict[str, float] = {}
            for engine_name, factory in _engines(n).items():
                t0 = time.perf_counter()
                index = factory(data.points, data.metric)
                t1 = time.perf_counter()
                index.neighborhood_sizes(radius)  # materialise adjacency
                t2 = time.perf_counter()
                result = greedy_disc(index, radius)
                t3 = time.perf_counter()
                selections[engine_name] = result.selected
                timings[engine_name] = t3 - t0
                record = {
                    "workload": workload,
                    "n": n,
                    "engine": engine_name,
                    "radius": radius,
                    "index_s": round(t1 - t0, 6),
                    "adjacency_s": round(t2 - t1, 6),
                    "build_s": round(t2 - t0, 6),
                    "select_s": round(t3 - t2, 6),
                    "total_s": round(t3 - t0, 6),
                    "solution_size": result.size,
                }
                adjacency = index.csr_neighborhood(radius, build=False)
                if adjacency is not None:
                    # peak_nnz = logical edges (what a flat CSR stores);
                    # stored_nnz = what this engine actually keeps.
                    blocked = isinstance(adjacency, BlockedNeighborhood)
                    record["peak_nnz"] = int(adjacency.nnz)
                    record["stored_nnz"] = int(
                        getattr(adjacency, "stored_nnz", adjacency.nnz)
                    )
                    record["adjacency_blocked"] = blocked
                    if blocked:
                        record["adjacency_blocked_s"] = record["adjacency_s"]
                        record["dense_edge_fraction"] = round(
                            adjacency.dense_fraction, 6
                        )
                runs.append(record)
            reference_name = (
                "brute-legacy" if "brute-legacy" in selections
                else next(iter(selections))
            )
            reference = selections[reference_name]
            mismatched = [
                name for name, sel in selections.items() if sel != reference
            ]
            if mismatched:
                raise AssertionError(
                    f"engine selections diverged on {workload} n={n}: "
                    f"{mismatched} vs {reference_name}"
                )
            if "brute-legacy" in selections:
                speedups[f"{workload}-{n}"] = round(
                    timings["brute-legacy"] / timings["brute-csr"], 2
                )
    return {
        "meta": {
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "sizes": base_sizes,
            "extra_sizes": {} if explicit_sizes or quick else dict(EXTRA_SIZES),
            "radii": {w: radii[w] for w in workloads},
            "density_reference_n": DENSITY_REFERENCE_N,
            "legacy_max_n": LEGACY_MAX_N,
        },
        "runs": runs,
        "speedups": speedups,
    }


def render_bench_table(payload: dict) -> str:
    """Human-readable view of a :func:`run_wallclock_bench` payload."""
    rows = [
        [
            run["workload"],
            run["n"],
            run["engine"] + ("+blk" if run.get("adjacency_blocked") else ""),
            f"{run.get('index_s', 0.0):.3f}",
            f"{run.get('adjacency_s', 0.0):.3f}",
            f"{run['build_s']:.3f}",
            f"{run['select_s']:.3f}",
            f"{run['total_s']:.3f}",
            run["solution_size"],
        ]
        for run in payload["runs"]
    ]
    table = format_table(
        "Wall-clock: index build + Greedy-DisC selection "
        "(+blk = blocked adjacency)",
        ["workload", "n", "engine", "index s", "adj s", "build s",
         "select s", "total s", "|S|"],
        rows,
    )
    blocked_rows = [
        f"  {run['workload']}-{run['n']} ({run['engine']}): "
        f"stored nnz {run['stored_nnz']:,} of {run['peak_nnz']:,} logical "
        f"({run['dense_edge_fraction']:.1%} implicit)"
        for run in payload["runs"]
        if run.get("adjacency_blocked")
    ]
    if blocked_rows:
        table += "\nblocked adjacencies:\n" + "\n".join(blocked_rows)
    if payload["speedups"]:
        lines = [
            f"  {key}: {value:.1f}x (brute-legacy / brute-csr)"
            for key, value in sorted(payload["speedups"].items())
        ]
        table += "\nspeedups:\n" + "\n".join(lines)
    return table


def write_bench_json(payload: dict, path: Optional[str] = None) -> str:
    """Persist the payload as ``results/BENCH_perf.json`` (or ``path``)."""
    if path is None:
        path = os.path.join(results_dir(), "BENCH_perf.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Session adjacency-cache benchmark (the DiscSession reuse story)
# ----------------------------------------------------------------------

#: The interactive zoom pattern: coarse view, zoom in, back out, in
#: again, wider, back to the start — radii repeat, which is exactly what
#: the session's LRU adjacency cache exists for.  Multipliers of the
#: workload's benchmark radius.
SESSION_ZOOM_PATTERN = (1.0, 0.5, 1.0, 0.5, 1.5, 1.0, 0.5, 1.5)


def run_session_bench(
    n: int = 20_000,
    workload: str = "clustered",
    *,
    quick: bool = False,
    pattern: Optional[List[float]] = None,
) -> dict:
    """Time a repeated-radius zoom sequence: session vs one-shot requests.

    The one-shot baseline is the stateless service pattern — a fresh
    :func:`repro.api.disc_select` per request, which rebuilds index and
    adjacency every time.  The session path builds one
    :class:`~repro.api.DiscSession` and replays the same radii through
    :meth:`~repro.api.DiscSession.select_many`, so repeated radii hit
    the LRU adjacency cache.  Both sides run the same grid engine with
    the same cell size, and the selections are asserted identical, so
    the delta is purely build/cache work.
    """
    from repro.api import DiscSession, disc_select

    if quick:
        n = min(n, 5000)
    data = _WORKLOADS[workload](n)
    base = bench_radius(workload, n)
    multipliers = list(pattern or SESSION_ZOOM_PATTERN)
    radii = [base * m for m in multipliers]
    engine_options = {"cell_size": base}

    t0 = time.perf_counter()
    one_shot = [
        disc_select(data, r, engine="grid", engine_options=dict(engine_options))
        for r in radii
    ]
    one_shot_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    session = DiscSession(data, engine="grid", **engine_options)
    results = session.select_many(radii)
    session_s = time.perf_counter() - t0

    for a, b in zip(one_shot, results):
        assert a.selected == b.selected, "session parity violated"

    return {
        "schema": "bench-session-v1",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": __version__,
        "workload": workload,
        "n": n,
        "radii": [round(r, 6) for r in radii],
        "unique_radii": len(set(radii)),
        "selects": len(radii),
        "sizes": [r.size for r in results],
        "one_shot_s": round(one_shot_s, 6),
        "session_s": round(session_s, 6),
        "speedup": round(one_shot_s / session_s, 3) if session_s else None,
        "cache": session.cache_info(),
    }


def render_session_table(payload: dict) -> str:
    """Human-readable summary of one :func:`run_session_bench` payload."""
    cache = payload["cache"]
    return format_table(
        f"Session adjacency cache — {payload['workload']} "
        f"(n={payload['n']}, {payload['selects']} selects over "
        f"{payload['unique_radii']} radii)",
        ["path", "seconds", "builds", "cache hits"],
        [
            ["one-shot disc_select", payload["one_shot_s"], payload["selects"], 0],
            ["DiscSession.select_many", payload["session_s"],
             cache["misses"], cache["hits"]],
            [f"speedup {payload['speedup']}x", "", "", ""],
        ],
        float_fmt="{:.3f}",
    )


def write_session_json(payload: dict, path: Optional[str] = None) -> str:
    """Persist the payload as ``results/BENCH_session.json`` (or ``path``)."""
    if path is None:
        path = os.path.join(results_dir(), "BENCH_session.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
