"""Golden selection hashes: the accelerated paths against a recorded run.

The cross-path suites compare the CSR fast path with the legacy heap
path, so a change that moves *both* paths the same way slips through
them.  This module pins the fast path to recorded output instead: for
every case it hashes the selection order, the ``closest_black`` bytes
and the ``range_queries`` / ``distance_computations`` counters, and
compares against ``tests/data/selection_golden.json``.

Matrix: Greedy-DisC, Greedy-C, Greedy-Zoom-In, Zoom-In and Zoom-Out
(plain and variants a/b/c), on clustered n=3000 and uniform n=2500, at
r = 0.025 / 0.05 / 0.075, each over a flat CSR and a forced-blocked
adjacency.  Zoom-in goes to ``r/2`` and zoom-out to ``2r``.  Every
adjacency is built before the first hashed call, so the counters cover
selection only, not the build.

Regenerate (only when an output change is intended)::

    PYTHONPATH=src python tests/test_selection_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import repro.graph.blocked as blocked_module
from repro.core import greedy_c, greedy_disc, zoom_in, zoom_out
from repro.datasets import clustered_dataset, uniform_dataset
from repro.graph.blocked import BlockedNeighborhood
from repro.index import GridIndex

GOLDEN_PATH = Path(__file__).parent / "data" / "selection_golden.json"

DATASETS = {
    "clustered-3000": lambda: clustered_dataset(n=3000, seed=0),
    "uniform-2500": lambda: uniform_dataset(n=2500, seed=0),
}
RADII = (0.025, 0.05, 0.075)
LAYOUTS = ("flat", "blocked")


def _layout(name: str):
    """Make every grid build inside the block flat or fully blocked."""
    if name == "flat":
        return mock.patch.object(blocked_module, "MIN_DENSE_EDGES", 1 << 62)
    return mock.patch.multiple(
        blocked_module, MIN_DENSE_EDGES=0, MIN_DENSE_FRACTION=0.0, MIN_BLOCK_PAIRS=1
    )


def _digest(result) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(result.selected, dtype=np.int64).tobytes())
    if result.closest_black is not None:
        h.update(np.asarray(result.closest_black, dtype=np.float64).tobytes())
    h.update(
        f"{result.stats.range_queries}:{result.stats.distance_computations}".encode()
    )
    return h.hexdigest()


def _cases(points: np.ndarray, metric, radius: float, layout: str) -> dict:
    with _layout(layout):
        index = GridIndex(points, metric)
        finer, coarser = radius / 2, radius * 2
        for r in (radius, finer, coarser):
            adjacency = index.csr_neighborhood(r)
            assert isinstance(adjacency, BlockedNeighborhood) == (
                layout == "blocked"
            ), (layout, r)
        base = greedy_disc(index, radius, track_closest_black=True)
        out = {
            "greedy_disc": _digest(base),
            "greedy_c": _digest(greedy_c(index, radius, track_closest_black=True)),
        }
        for greedy in (True, False):
            name = "zoom_in_greedy" if greedy else "zoom_in_plain"
            out[name] = _digest(zoom_in(index, base, finer, greedy=greedy))
        for variant in (None, "a", "b", "c"):
            out[f"zoom_out_{variant}"] = _digest(
                zoom_out(index, base, coarser, greedy_variant=variant)
            )
    return out


def compute_golden() -> dict:
    golden = {}
    for name, make in DATASETS.items():
        data = make()
        for radius in RADII:
            for layout in LAYOUTS:
                for algo, digest in _cases(
                    data.points, data.metric, radius, layout
                ).items():
                    golden[f"{name}/r={radius}/{layout}/{algo}"] = digest
    return golden


def test_selection_matches_golden_hashes():
    expected = json.loads(GOLDEN_PATH.read_text())["cases"]
    actual = compute_golden()
    assert sorted(actual) == sorted(expected)
    mismatched = [key for key in expected if actual[key] != expected[key]]
    assert not mismatched, f"{len(mismatched)} cases changed: {mismatched[:8]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_selection_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {
        "about": "sha256 of (selected int64, closest_black float64, "
        "range_queries:distance_computations); see test_selection_golden.py",
        "cases": compute_golden(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
