"""Property tests: the dense-argmax selection loop replays the heap path.

The CSR fast path of :func:`~repro.core.greedy.greedy_cover` keeps one
dense score array and picks with ``np.argmax``; the legacy path
(``accelerate=False``) drives a lazy max-heap over per-query range
results.  Hypothesis holds the two to the same selection order for
Greedy-DisC and Greedy-C on random clustered and uniform points and
radii, over a flat CSR and over a forced-blocked adjacency (every
provably-dense cell pair becomes a block).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.blocked as blocked_module
from repro.core import greedy_c, greedy_disc
from repro.datasets import clustered_dataset, uniform_dataset
from repro.distance import EUCLIDEAN
from repro.graph.blocked import BlockedNeighborhood
from repro.graph.csr import CSRNeighborhood
from repro.index import BruteForceIndex, GridIndex


def _layout(name: str):
    if name == "flat":
        return mock.patch.object(blocked_module, "MIN_DENSE_EDGES", 1 << 62)
    return mock.patch.multiple(
        blocked_module, MIN_DENSE_EDGES=0, MIN_DENSE_FRACTION=0.0, MIN_BLOCK_PAIRS=1
    )


def _assert_paths_agree(points: np.ndarray, radius: float, layout: str) -> None:
    for algo in (greedy_disc, greedy_c):
        legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
        with _layout(layout):
            fast = GridIndex(points, EUCLIDEAN)
            expected = BlockedNeighborhood if layout == "blocked" else CSRNeighborhood
            assert isinstance(fast.csr_neighborhood(radius), expected)
            got = algo(fast, radius, track_closest_black=True)
        want = algo(legacy, radius, track_closest_black=True)
        assert got.selected == want.selected, algo.__name__
        assert np.allclose(got.closest_black, want.closest_black), algo.__name__


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
