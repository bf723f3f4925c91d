"""Property tests: ``neighbor_counts`` equals the per-row count.

``neighbor_counts(mask)`` gathers whichever side of the mask has the
smaller degree sum — the masked rows, or the unmasked rows subtracted
from the degrees — so both branches and the switch between them must
give ``counts[i] == mask[neighbors(i)].sum()`` exactly.  Hypothesis
drives it over a flat grid CSR, a blocked build with every eligible
cell pair turned into a block (``min_block_pairs=1``) and a live
:class:`~repro.graph.incremental.IncrementalNeighborhood` snapshot,
with empty, full and random masks, masks of size n/2 and its
neighbours, and degree-skewed masks around the point where the masked
degree sum crosses half the edges.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distance import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.graph.blocked import build_blocked_grid
from repro.graph.csr import build_csr_grid
from repro.graph.incremental import IncrementalNeighborhood

COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def point_sets(draw):
    """(points, metric, radius): a tight blob plus a sparse background,
    so degrees are skewed and blocked builds find dense cell pairs."""
    # The blob dominates so the grid keeps its fine resolution: sparse
    # occupancy falls back to radius-sized cells, which never block.
    n_blob = draw(st.integers(0, 50))
    n_rest = draw(st.integers(1, 12))
    coords = st.floats(0.0, 1.0, allow_nan=False, width=32)
    blob = 0.5 + 0.01 * draw(arrays(np.float64, (n_blob, 2), elements=coords))
    rest = draw(arrays(np.float64, (n_rest, 2), elements=coords))
    points = np.concatenate([blob, rest])
    order = draw(st.permutations(range(points.shape[0])))
    points = points[np.asarray(order, dtype=np.int64)]
    metric = draw(st.sampled_from([EUCLIDEAN, MANHATTAN, CHEBYSHEV]))
    radius = draw(st.floats(0.02, 0.4, allow_nan=False))
    return points, metric, float(radius)


def masks(draw, adjacency):
    """Masks that hit both branches of the side choice and its edge."""
    n = adjacency.n
    degrees = adjacency.degrees
    out = [np.zeros(n, dtype=bool), np.ones(n, dtype=bool)]
    out.append(draw(arrays(np.bool_, (n,))))
    ids = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    for k in {max(0, n // 2 - 1), n // 2, min(n, n // 2 + 1)}:
        mask = np.zeros(n, dtype=bool)
        mask[ids[:k]] = True
        out.append(mask)
    # Prefixes by degree (highest or lowest first) just before, at and
    # just after the masked degree sum crosses half the edges.
    by_degree = np.argsort(degrees, kind="stable")
    if draw(st.booleans()):
        by_degree = by_degree[::-1]
    cumulative = np.cumsum(degrees[by_degree])
    crossing = int(np.searchsorted(cumulative, adjacency.nnz / 2))
    for k in {max(0, crossing - 1), crossing, min(n, crossing + 1)}:
        mask = np.zeros(n, dtype=bool)
        mask[by_degree[:k]] = True
        out.append(mask)
    return out


def assert_counts_match_rows(adjacency, mask_list):
    for mask in mask_list:
        got = adjacency.neighbor_counts(mask)
        want = np.array(
            [int(mask[adjacency.neighbors(i)].sum()) for i in range(adjacency.n)],
            dtype=np.int64,
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, want), mask.nonzero()[0].tolist()
    assert np.array_equal(
        adjacency.neighbor_counts(np.ones(adjacency.n, dtype=bool)),
        adjacency.degrees,
    )


class TestNeighborCountsMatchRows:
    @given(case=point_sets(), data=st.data())
    @settings(**COMMON)
    def test_flat_csr(self, case, data):
        points, metric, radius = case
        flat = build_csr_grid(points, metric, radius)
        assert_counts_match_rows(flat, masks(data.draw, flat))

    @given(case=point_sets(), data=st.data())
    @settings(**COMMON)
    def test_blocked(self, case, data):
        points, metric, radius = case
        resolution = data.draw(st.sampled_from([None, 2, 4]))
        blocked = build_blocked_grid(
            points, metric, radius, resolution=resolution, min_block_pairs=1
        )
        flat = build_csr_grid(points, metric, radius)
        assert blocked.degrees.dtype == np.int64
        assert np.array_equal(blocked.degrees, flat.degrees)
        assert_counts_match_rows(blocked, masks(data.draw, blocked))

    @given(case=point_sets(), data=st.data())
    @settings(**COMMON)
    def test_incremental_snapshot(self, case, data):
        points, metric, radius = case
        n = points.shape[0]
        start = data.draw(st.integers(0, n))
        live = IncrementalNeighborhood(points[:start], metric, radius)
        live.append(points, n - start)
        alive = data.draw(arrays(np.bool_, (n,)))
        snapshot = live.snapshot_csr(alive)
        assert_counts_match_rows(snapshot, masks(data.draw, snapshot))
