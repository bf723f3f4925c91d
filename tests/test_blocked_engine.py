"""The blocked neighborhood engine: structure, builders, and parity.

The engine's contract mirrors the CSR one, one level up: a
:class:`~repro.graph.blocked.BlockedNeighborhood` must describe exactly
the same graph as the flat builders (row for row), its primitives must
maintain exactly the same counts, and every heuristic driven by it must
replay the legacy selection order byte for byte.
"""

import numpy as np
import pytest

import repro.graph.blocked as blocked_module
from repro.core import basic_disc, fast_c, greedy_c, greedy_disc, zoom_in, zoom_out
from repro.core.extensions import weighted_disc
from repro.datasets import clustered_dataset
from repro.distance import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.graph.blocked import (
    BlockedNeighborhood,
    build_blocked_grid,
    build_grid_auto,
)
from repro.graph.csr import CSRNeighborhood, build_csr_grid, build_csr_pairwise
from repro.index import BruteForceIndex, GridIndex


def dense_blobs(n_per_blob=700, extra_uniform=400, seed=3):
    """Blobs tight enough that resolution-4 cells go near-clique, plus
    a uniform background so the sparse remainder is non-trivial."""
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            rng.normal(loc=c, scale=0.006, size=(n_per_blob, 2))
            for c in ([0.25, 0.25], [0.75, 0.75], [0.3, 0.8])
        ]
        + [rng.random((extra_uniform, 2))]
    )


RADIUS = 0.05


@pytest.fixture(scope="module")
def blobs():
    return dense_blobs()


@pytest.fixture(scope="module")
def flat(blobs):
    return build_csr_grid(blobs, EUCLIDEAN, RADIUS)


@pytest.fixture(scope="module")
def blocked(blobs):
    blk = build_blocked_grid(blobs, EUCLIDEAN, RADIUS, min_block_pairs=64)
    assert blk.num_blocks > 0, "fixture must actually exercise blocks"
    return blk


# ----------------------------------------------------------------------
# Structure: the blocked adjacency is the same graph
# ----------------------------------------------------------------------
class TestBlockedStructure:
    def test_same_graph_row_for_row(self, blobs, flat, blocked):
        assert blocked.nnz == flat.nnz
        assert blocked.stored_nnz < flat.nnz  # something is implicit
        assert np.array_equal(blocked.degrees, flat.degrees)
        for i in range(0, len(blobs), 11):
            assert np.array_equal(blocked.neighbors(i), flat.neighbors(i)), i

    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV],
                             ids=lambda m: m.name)
    def test_metric_family_parity(self, blobs, metric):
        reference = build_csr_pairwise(blobs, metric, RADIUS)
        blk = build_blocked_grid(blobs, metric, RADIUS, min_block_pairs=64)
        assert blk.nnz == reference.nnz
        for i in range(0, len(blobs), 37):
            assert np.array_equal(blk.neighbors(i), reference.neighbors(i))

    def test_dense_fraction_accounts_memory(self, blocked):
        assert blocked.dense_nnz + blocked.stored_nnz == blocked.nnz
        assert 0.0 < blocked.dense_fraction < 1.0
        # Implicit storage: ids per side, not edges.
        assert blocked.side_members.size < blocked.dense_nnz

    def test_no_blocks_degenerates_to_wrapper(self, rng):
        points = rng.random((300, 2))  # sparse: nothing dense to block
        blk = build_blocked_grid(points, EUCLIDEAN, 0.1)
        flat = build_csr_grid(points, EUCLIDEAN, 0.1)
        assert blk.num_blocks == 0
        assert blk.nnz == flat.nnz == blk.stored_nnz
        assert blk.dense_fraction == 0.0

    def test_empty_points(self):
        blk = build_blocked_grid(np.empty((0, 2)), EUCLIDEAN, 0.1)
        assert blk.n == 0 and blk.nnz == 0 and blk.num_blocks == 0
        auto = build_grid_auto(np.empty((0, 2)), EUCLIDEAN, 0.1)
        assert isinstance(auto, CSRNeighborhood) and auto.n == 0

    def test_rejects_nan_radius(self, blobs):
        with pytest.raises(ValueError, match="NaN"):
            build_blocked_grid(blobs, EUCLIDEAN, float("nan"))
        with pytest.raises(ValueError, match="finite"):
            build_grid_auto(blobs, EUCLIDEAN, float("inf"))


# ----------------------------------------------------------------------
# Primitives: counts maintained identically to the flat CSR
# ----------------------------------------------------------------------
class TestBlockedPrimitives:
    def test_neighbor_counts_random_masks(self, blobs, flat, blocked, rng):
        n = len(blobs)
        for _ in range(8):
            mask = rng.random(n) < rng.random()
            assert np.array_equal(
                blocked.neighbor_counts(mask), flat.neighbor_counts(mask)
            )

    def test_decrement_random_batches(self, blobs, flat, blocked, rng):
        n = len(blobs)
        for _ in range(8):
            counts_flat = flat.degrees.astype(np.int64)
            counts_blocked = counts_flat.copy()
            sources = rng.choice(n, size=int(rng.integers(1, 400)), replace=False)
            flat.decrement(counts_flat, sources)
            blocked.decrement(counts_blocked, sources)
            assert np.array_equal(counts_flat, counts_blocked)

    def test_cover_mask_matches(self, blobs, flat, blocked, rng):
        n = len(blobs)
        for _ in range(6):
            ids = rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
            for include in (True, False):
                assert np.array_equal(
                    flat.cover_mask(ids, include_sources=include),
                    blocked.cover_mask(ids, include_sources=include),
                ), include

    def test_cover_mask_lone_clique_member(self, blobs, flat, blocked):
        """A single id inside a clique block is not its own neighbor —
        including when the caller passes it twice (duplicates must not
        read as two distinct clique members)."""
        clique_sides = np.flatnonzero(blocked.side_is_clique)
        assert clique_sides.size > 0
        member = int(blocked._side(int(clique_sides[0]))[0])
        for ids in (np.array([member]), np.array([member, member])):
            assert np.array_equal(
                flat.cover_mask(ids, include_sources=False),
                blocked.cover_mask(ids, include_sources=False),
            ), ids

    def test_gather_matches_rows(self, flat, blocked):
        ids = np.array([0, 5, 700, 1500])
        assert np.array_equal(blocked.gather(ids), flat.gather(ids))
        assert blocked.gather(np.empty(0, dtype=np.int64)).size == 0


# ----------------------------------------------------------------------
# Auto pick: flat vs blocked by dense-edge fraction
# ----------------------------------------------------------------------
class TestAutoPick:
    def test_dense_data_upgrades(self, blobs):
        adj = build_grid_auto(
            blobs, EUCLIDEAN, RADIUS, min_block_pairs=64, min_dense_edges=10_000
        )
        assert isinstance(adj, BlockedNeighborhood)

    def test_sparse_data_stays_flat(self, rng):
        adj = build_grid_auto(rng.random((500, 2)), EUCLIDEAN, 0.1)
        assert isinstance(adj, CSRNeighborhood)

    def test_index_transparent_upgrade(self, blobs, monkeypatch):
        monkeypatch.setattr(blocked_module, "MIN_DENSE_EDGES", 10_000)
        monkeypatch.setattr(blocked_module, "MIN_BLOCK_PAIRS", 64)
        index = GridIndex(blobs, EUCLIDEAN, cell_size=0.05)
        adj = index.csr_neighborhood(RADIUS)
        assert isinstance(adj, BlockedNeighborhood)
        brute = BruteForceIndex(blobs, EUCLIDEAN)
        assert isinstance(brute.csr_neighborhood(RADIUS), BlockedNeighborhood)

    def test_range_queries_on_blocked_index(self, blobs, monkeypatch):
        monkeypatch.setattr(blocked_module, "MIN_DENSE_EDGES", 10_000)
        index = GridIndex(blobs, EUCLIDEAN, cell_size=0.05)
        index.csr_neighborhood(RADIUS)
        oracle = BruteForceIndex(blobs, EUCLIDEAN, accelerate=False)
        for i in (0, 3, 900, 2400):
            assert sorted(index.range_query(i, RADIUS)) == sorted(
                oracle.range_query(i, RADIUS)
            )
        batch = index.range_query_batch([0, 900], RADIUS)
        assert sorted(batch[0].tolist()) == sorted(oracle.range_query(0, RADIUS))


# ----------------------------------------------------------------------
# Selection parity: byte-identical orders on the blocked engine
# ----------------------------------------------------------------------
@pytest.fixture()
def forced_blocked(monkeypatch):
    """Force every grid-auto build in the test to choose blocked."""
    monkeypatch.setattr(blocked_module, "MIN_DENSE_EDGES", 1_000)
    monkeypatch.setattr(blocked_module, "MIN_BLOCK_PAIRS", 64)


class TestBlockedSelectionParity:
    def engines(self, points):
        legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
        fast = GridIndex(points, EUCLIDEAN, cell_size=0.05)
        return legacy, fast

    def assert_blocked(self, index, radius=RADIUS):
        assert isinstance(
            index.csr_neighborhood(radius), BlockedNeighborhood
        ), "parity run must actually use the blocked engine"

    def test_greedy_heuristics_identical(self, blobs, forced_blocked):
        for algo in (greedy_disc, greedy_c, fast_c, basic_disc):
            legacy, fast = self.engines(blobs)
            self.assert_blocked(fast)
            assert (
                algo(legacy, RADIUS).selected == algo(fast, RADIUS).selected
            ), algo.__name__

    def test_zoom_identical(self, blobs, forced_blocked):
        legacy, fast = self.engines(blobs)
        coarse_l = greedy_disc(legacy, RADIUS, track_closest_black=True)
        coarse_f = greedy_disc(fast, RADIUS, track_closest_black=True)
        assert np.allclose(coarse_l.closest_black, coarse_f.closest_black)
        finer, coarser = RADIUS / 2, RADIUS * 2
        # Zoom passes only consume cached adjacencies; warm them so the
        # blocked path is what's tested.
        fast.csr_neighborhood(finer)
        fast.csr_neighborhood(coarser)
        self.assert_blocked(fast, coarser)
        for greedy in (True, False):
            assert (
                zoom_in(legacy, coarse_l, finer, greedy=greedy).selected
                == zoom_in(fast, coarse_f, finer, greedy=greedy).selected
            ), greedy
        for variant in (None, "a", "b", "c"):
            assert (
                zoom_out(legacy, coarse_l, coarser, greedy_variant=variant).selected
                == zoom_out(fast, coarse_f, coarser, greedy_variant=variant).selected
            ), variant

    def test_weighted_identical(self, blobs, forced_blocked, rng):
        weights = rng.random(len(blobs))
        legacy, fast = self.engines(blobs)
        self.assert_blocked(fast)
        for alpha in (0.0, 0.5, 1.0):
            assert (
                weighted_disc(legacy, RADIUS, weights=weights, alpha=alpha).selected
                == weighted_disc(fast, RADIUS, weights=weights, alpha=alpha).selected
            ), alpha

    def test_clustered_dataset_family(self, forced_blocked):
        """The bench workload family, small scale, full pipeline."""
        data = clustered_dataset(n=2500, dim=2, seed=7)
        legacy = BruteForceIndex(data.points, data.metric, accelerate=False)
        fast = GridIndex(data.points, data.metric, cell_size=0.05)
        assert (
            greedy_disc(legacy, 0.03).selected == greedy_disc(fast, 0.03).selected
        )
