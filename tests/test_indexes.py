"""Unit tests for the brute-force and grid neighbor indexes."""

import time

import numpy as np
import pytest

from repro.core.greedy import greedy_disc
from repro.datasets import uniform_dataset
from repro.distance import EUCLIDEAN, HAMMING, MANHATTAN
from repro.index import BruteForceIndex, GridIndex
from repro.index.base import IndexStats


def oracle_neighbors(points, metric, center_id, radius):
    d = metric.to_point(points, points[center_id])
    return sorted(i for i in np.nonzero(d <= radius)[0] if i != center_id)


class TestIndexStats:
    def test_reset_keeps_build_counters(self):
        stats = IndexStats(range_queries=3, node_accesses=9, build_node_accesses=4)
        stats.reset()
        assert stats.range_queries == 0
        assert stats.node_accesses == 0
        assert stats.build_node_accesses == 4

    def test_subtraction(self):
        a = IndexStats(range_queries=5, node_accesses=10)
        b = IndexStats(range_queries=2, node_accesses=4)
        delta = a - b
        assert delta.range_queries == 3
        assert delta.node_accesses == 6

    def test_snapshot_is_independent(self):
        stats = IndexStats(range_queries=1)
        snap = stats.snapshot()
        stats.range_queries = 99
        assert snap.range_queries == 1


class TestBruteForceIndex:
    def test_range_query_matches_oracle(self, medium_uniform):
        index = BruteForceIndex(medium_uniform, EUCLIDEAN)
        for center in (0, 17, 123):
            got = sorted(index.range_query(center, 0.1))
            assert got == oracle_neighbors(medium_uniform, EUCLIDEAN, center, 0.1)

    def test_include_self(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        with_self = index.range_query(5, 0.1, include_self=True)
        without = index.range_query(5, 0.1)
        assert 5 in with_self and 5 not in without
        assert set(with_self) - set(without) == {5}

    def test_cached_queries_match_uncached(self, small_uniform):
        plain = BruteForceIndex(small_uniform, EUCLIDEAN)
        cached = BruteForceIndex(small_uniform, EUCLIDEAN, cache_radius=0.15)
        for center in range(0, 60, 7):
            assert sorted(cached.range_query(center, 0.15)) == sorted(
                plain.range_query(center, 0.15)
            )

    def test_neighborhood_sizes(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        sizes = index.neighborhood_sizes(0.2)
        for i in range(len(small_uniform)):
            assert sizes[i] == len(oracle_neighbors(small_uniform, EUCLIDEAN, i, 0.2))

    def test_hamming_support(self, categorical_points):
        index = BruteForceIndex(categorical_points, HAMMING)
        got = sorted(index.range_query(0, 2))
        assert got == oracle_neighbors(categorical_points, HAMMING, 0, 2)

    def test_range_query_point_free_point(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        hits = index.range_query_point(np.array([0.5, 0.5]), 0.2)
        d = EUCLIDEAN.to_point(small_uniform, np.array([0.5, 0.5]))
        assert sorted(hits) == sorted(np.nonzero(d <= 0.2)[0])

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError, match="empty"):
            BruteForceIndex(np.empty((0, 2)), EUCLIDEAN)

    def test_stats_counted(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        index.range_query(0, 0.1)
        assert index.stats.range_queries == 1
        assert index.stats.distance_computations >= len(small_uniform)

    def test_validate_ids(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        index.validate_ids([0, 59])
        with pytest.raises(IndexError):
            index.validate_ids([60])


class TestGridIndex:
    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN], ids=lambda m: m.name)
    @pytest.mark.parametrize("cell_size", [0.03, 0.08, 0.25])
    def test_matches_brute_force(self, medium_uniform, metric, cell_size):
        grid = GridIndex(medium_uniform, metric, cell_size=cell_size)
        brute = BruteForceIndex(medium_uniform, metric)
        for center in (0, 50, 299):
            for radius in (0.02, 0.1, 0.3):
                assert sorted(grid.range_query(center, radius)) == sorted(
                    brute.range_query(center, radius)
                )

    def test_rejects_hamming(self, categorical_points):
        with pytest.raises(TypeError, match="Hamming"):
            GridIndex(categorical_points, HAMMING)

    def test_rejects_bad_cell_size(self, small_uniform):
        for cell_size in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="cell_size"):
                GridIndex(small_uniform, EUCLIDEAN, cell_size=cell_size)

    def test_fine_cells_cost_only_the_occupied_ones(self):
        """A query box spanning ~4e8 empty cells at cell_size=1e-5
        answers from the 2,000 occupied ones, well within a second."""
        points = uniform_dataset(n=2000, seed=0).points
        grid = GridIndex(points, EUCLIDEAN, cell_size=1e-5)
        grid.accelerate = False
        start = time.perf_counter()
        got = grid.range_query(0, 0.1)
        elapsed = time.perf_counter() - start
        assert sorted(got) == BruteForceIndex(points, EUCLIDEAN).range_query(0, 0.1)
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "cell_size, greedy_counts, batch_counts",
        [(0.03, (1000, 8652), (500, 16256)), (0.25, (1000, 53096), (500, 100328))],
    )
    def test_legacy_counters_are_pinned(self, cell_size, greedy_counts, batch_counts):
        """``range_queries`` / ``distance_computations`` of the per-query
        paths (recorded before the cell directory replaced the per-cell
        dict): every occupied cell in the query box is charged, no
        more."""
        points = uniform_dataset(n=500, seed=3).points
        grid = GridIndex(points, EUCLIDEAN, cell_size=cell_size)
        grid.accelerate = False
        result = greedy_disc(grid, 0.05)
        assert len(result.selected) == 144
        stats = result.stats
        assert (stats.range_queries, stats.distance_computations) == greedy_counts
        grid.stats.reset()
        grid.range_query_batch(np.arange(500), 0.1)
        stats = grid.stats
        assert (stats.range_queries, stats.distance_computations) == batch_counts

    def test_query_outside_data_bbox(self, small_uniform):
        grid = GridIndex(small_uniform, EUCLIDEAN, cell_size=0.1)
        assert grid.range_query_point(np.array([5.0, 5.0]), 0.1) == []
        # A negative radius inverts the query box: nothing, like brute force.
        assert grid.range_query_point(small_uniform[0], -0.1) == []

    def test_ids_iteration_order(self, small_uniform):
        grid = GridIndex(small_uniform, EUCLIDEAN)
        assert list(grid.ids()) == list(range(len(small_uniform)))
