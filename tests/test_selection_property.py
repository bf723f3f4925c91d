"""Property tests: the compiled selection kernel replays the heap paths.

Over a CSR or blocked adjacency every greedy pass runs in the compiled
kernel (:mod:`repro.core._kernel`): one dense score array, an argmax
(argmin) per pick, in-place decrements.  The legacy paths
(``accelerate=False``) drive lazy max-heaps over per-query range
results.  Hypothesis holds the two to the same selection order,
``closest_black`` bytes and ``range_queries`` count for Greedy-DisC,
Greedy-C, Basic-DisC, both zoom-ins and the three greedy zoom-outs on
random clustered and uniform points and radii, over a flat CSR and over
a forced-blocked adjacency (every provably-dense cell pair becomes a
block).  The live repair is held to a from-scratch heap Greedy-DisC
over the objects the surviving selection leaves uncovered.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.blocked as blocked_module
from repro.core import basic_disc, greedy_c, greedy_disc, zoom_in, zoom_out
from repro.core._common import LazyMaxHeap
from repro.datasets import clustered_dataset, uniform_dataset
from repro.distance import EUCLIDEAN
from repro.graph import IncrementalNeighborhood, build_csr_pairwise
from repro.graph.blocked import BlockedNeighborhood, build_blocked_grid
from repro.graph.csr import CSRNeighborhood
from repro.index import BruteForceIndex, GridIndex
from repro.live.repair import repair_selection, repair_selection_delta


def _layout(name: str):
    if name == "flat":
        return mock.patch.object(blocked_module, "MIN_DENSE_EDGES", 1 << 62)
    return mock.patch.multiple(
        blocked_module, MIN_DENSE_EDGES=0, MIN_DENSE_FRACTION=0.0, MIN_BLOCK_PAIRS=1
    )


def _assert_same(got, want, name: str) -> None:
    assert got.selected == want.selected, name
    np.testing.assert_array_equal(got.closest_black, want.closest_black, name)
    assert got.stats.range_queries == want.stats.range_queries, name


def _assert_paths_agree(points: np.ndarray, radius: float, layout: str) -> None:
    for algo in (greedy_disc, greedy_c, basic_disc):
        legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
        with _layout(layout):
            fast = GridIndex(points, EUCLIDEAN)
            expected = BlockedNeighborhood if layout == "blocked" else CSRNeighborhood
            assert isinstance(fast.csr_neighborhood(radius), expected)
            got = algo(fast, radius, track_closest_black=True)
        want = algo(legacy, radius, track_closest_black=True)
        _assert_same(got, want, algo.__name__)


ZOOMS = {
    "greedy-zoom-in": lambda index, prev, r: zoom_in(index, prev, r, greedy=True),
    "zoom-in": lambda index, prev, r: zoom_in(index, prev, r, greedy=False),
    "zoom-out-a": lambda index, prev, r: zoom_out(index, prev, r, greedy_variant="a"),
    "zoom-out-b": lambda index, prev, r: zoom_out(index, prev, r, greedy_variant="b"),
    "zoom-out-c": lambda index, prev, r: zoom_out(index, prev, r, greedy_variant="c"),
}


def _assert_zooms_agree(
    points: np.ndarray, radius: float, factor: float, layout: str
) -> None:
    """Every zoom from the same previous result, kernel vs heap.  The
    zoom passes consume a cached adjacency at the new radius (they never
    build one), so the fast index gets both radii up front."""
    legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
    previous = greedy_disc(legacy, radius, track_closest_black=True)
    for name, zoom in ZOOMS.items():
        new_radius = radius * factor if name.endswith("in") else radius / factor
        with _layout(layout):
            fast = GridIndex(points, EUCLIDEAN)
            assert fast.csr_neighborhood(new_radius) is not None
            got = zoom(fast, previous, new_radius)
        want = zoom(BruteForceIndex(points, EUCLIDEAN, accelerate=False),
                    previous, new_radius)
        _assert_same(got, want, name)


@st.composite
def selection_cases(draw):
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        clusters = draw(st.integers(1, 6))
        points = clustered_dataset(n=n, n_clusters=clusters, seed=seed).points
    else:
        points = uniform_dataset(n=n, seed=seed).points
    radius = draw(st.floats(0.005, 0.3, allow_nan=False))
    layout = draw(st.sampled_from(["flat", "blocked"]))
    return points, radius, layout


@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(selection_cases())
def test_fast_path_matches_heap_path(case):
    points, radius, layout = case
    _assert_paths_agree(points, radius, layout)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(selection_cases(), st.floats(0.3, 0.9))
def test_zooms_match_heap_path(case, factor):
    points, radius, layout = case
    _assert_zooms_agree(points, radius, factor, layout)


def _heap_greedy(full: CSRNeighborhood, uncovered: np.ndarray) -> list:
    """From-scratch lazy-heap Greedy-DisC over the ``uncovered`` objects:
    the most uncovered neighbors first, lowest id on ties."""
    uncovered = uncovered.copy()
    counts = {
        int(u): int(np.count_nonzero(uncovered[full.neighbors(u)]))
        for u in np.flatnonzero(uncovered)
    }
    heap = LazyMaxHeap()
    for u, count in counts.items():
        heap.push(u, count)
    picks = []
    while uncovered.any():
        pick = heap.pop_valid(counts.__getitem__, uncovered.__getitem__)
        picks.append(pick)
        covered = [pick] + [int(v) for v in full.neighbors(pick) if uncovered[v]]
        uncovered[covered] = False
        for source in covered:
            for other in full.neighbors(source).tolist():
                if uncovered[other]:
                    counts[other] -= 1
                    heap.push(other, counts[other])
    return picks


@st.composite
def repair_cases(draw):
    points, radius, layout = draw(selection_cases())
    n = points.shape[0]
    seed = draw(st.integers(0, 2**16))
    inserts = draw(st.integers(0, 60))
    return points, radius, layout, seed, n, inserts


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(repair_cases())
def test_repairs_match_heap_greedy(case):
    """One mutation batch (random deletes, some of them blacks, plus
    inserts) after a valid selection: both repairs keep the surviving
    blacks and add exactly the heap Greedy-DisC picks over what they
    leave uncovered."""
    points, radius, layout, seed, n, inserts = case
    rng = np.random.default_rng(seed)
    previous = greedy_disc(GridIndex(points, EUCLIDEAN), radius).selected
    incremental = IncrementalNeighborhood(points, EUCLIDEAN, radius)
    new_points = np.concatenate([points, rng.random((inserts, 2))])
    alive = np.ones(new_points.shape[0], dtype=bool)
    if inserts:
        incremental.append(new_points, inserts, alive)
    deleted = np.flatnonzero(rng.random(n) < 0.2)
    alive[deleted] = False

    full = build_csr_pairwise(new_points, EUCLIDEAN, radius)
    survivors = [p for p in previous if alive[p]]
    uncovered = alive & ~full.cover_mask(np.asarray(survivors, dtype=np.int64))
    want = sorted(_heap_greedy(full, uncovered))

    delta = repair_selection_delta(
        incremental, alive, previous,
        deleted=deleted, inserted=np.arange(n, new_points.shape[0]),
    )
    assert delta["added"] == want
    alive_ids = np.flatnonzero(alive)
    if alive_ids.size == 0:
        return
    if layout == "blocked":
        compacted = build_blocked_grid(
            new_points[alive_ids], EUCLIDEAN, radius, min_block_pairs=1
        )
    else:
        compacted = build_csr_pairwise(new_points[alive_ids], EUCLIDEAN, radius)
    assert repair_selection(compacted, alive_ids, previous) == delta


@pytest.mark.parametrize("layout", ["flat", "blocked"])
def test_greedy_c_skips_grey_with_zero_gain(layout):
    """r-C corner: after the first pick, grey 1 has no white neighbor
    left and the lowest id among the maxima (all 0).  It is not
    eligible, so the next pick is the lowest-id white, 2."""
    points = np.array([[0.0, 0.0], [0.1, 0.0], [0.5, 0.5], [0.9, 0.9]])
    radius = 0.15
    with _layout(layout):
        result = greedy_c(GridIndex(points, EUCLIDEAN), radius)
    assert result.selected == [0, 2, 3]
    legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
    assert greedy_c(legacy, radius).selected == [0, 2, 3]
    _assert_paths_agree(points, radius, layout)
    _assert_zooms_agree(points, radius, 0.5, layout)
