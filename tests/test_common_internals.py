"""Unit tests for the shared heuristic machinery (repro.core._common)."""

import numpy as np
import pytest

from repro.core._common import ClosestBlackTracker, LazyMaxHeap, query_neighbors
from repro.distance import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.index import BruteForceIndex
from repro.mtree import MTreeIndex


class TestLazyMaxHeap:
    def test_pops_highest_priority(self):
        heap = LazyMaxHeap()
        heap.push_many([(0, 5), (1, 9), (2, 7)])
        priorities = {0: 5, 1: 9, 2: 7}
        pick = heap.pop_valid(lambda i: priorities[i], lambda i: True)
        assert pick == 1

    def test_tie_breaks_on_lower_id(self):
        heap = LazyMaxHeap()
        heap.push_many([(7, 4), (3, 4), (5, 4)])
        priorities = {3: 4, 5: 4, 7: 4}
        assert heap.pop_valid(lambda i: priorities[i], lambda i: True) == 3

    def test_stale_entries_skipped(self):
        heap = LazyMaxHeap()
        heap.push(0, 10)
        heap.push(1, 5)
        heap.push(0, 3)  # 0 decayed; the 10-entry is now stale
        priorities = {0: 3, 1: 5}
        assert heap.pop_valid(lambda i: priorities[i], lambda i: True) == 1
        assert heap.pop_valid(lambda i: priorities[i], lambda i: True) == 0

    def test_ineligible_skipped(self):
        heap = LazyMaxHeap()
        heap.push_many([(0, 9), (1, 5)])
        priorities = {0: 9, 1: 5}
        pick = heap.pop_valid(lambda i: priorities[i], lambda i: i != 0)
        assert pick == 1

    def test_empty_returns_none(self):
        heap = LazyMaxHeap()
        assert heap.pop_valid(lambda i: 0, lambda i: True) is None
        assert not heap
        heap.push(0, 1)
        assert heap and len(heap) == 1


class TestClosestBlackTracker:
    def test_records_minimum_distance(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        tracker = ClosestBlackTracker(index)
        tracker.record_black(0, list(range(1, 10)))
        d = EUCLIDEAN.to_point(small_uniform[1:10], small_uniform[0])
        assert np.allclose(tracker.distances[1:10], d)
        assert tracker.distances[0] == 0.0
        assert np.isinf(tracker.distances[20])

    def test_minimum_over_multiple_blacks(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        tracker = ClosestBlackTracker(index)
        tracker.record_black(0, [5])
        first = tracker.distances[5]
        tracker.record_black(1, [5])
        assert tracker.distances[5] <= first

    def test_covered_at(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        tracker = ClosestBlackTracker(index)
        tracker.record_black(0, [])
        assert tracker.covered_at(0, 0.0)
        assert not tracker.covered_at(1, 0.5)

    def test_empty_neighbor_list(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        tracker = ClosestBlackTracker(index)
        tracker.record_black(3, [])
        assert tracker.distances[3] == 0.0

    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV])
    def test_batch_equals_per_black_replay(self, metric):
        """``record_blacks`` (one batch, overlapping rows, a black that
        is another's neighbor, an empty row) leaves the same distance
        bytes and counter as one ``record_black`` per black."""
        rng = np.random.default_rng(4)
        points = rng.random((60, 9))
        blacks = [3, 17, 40, 8]
        rows = [[1, 2, 17, 30], [2, 5, 30, 59], [], [3, 1, 44]]
        one = BruteForceIndex(points, metric)
        per_black = ClosestBlackTracker(one)
        for black, row in zip(blacks, rows):
            per_black.record_black(black, row)
        batch = BruteForceIndex(points, metric)
        batched = ClosestBlackTracker(batch)
        row_ptr = np.cumsum([0] + [len(r) for r in rows])
        batched.record_blacks(
            np.asarray(blacks), row_ptr, np.asarray(sum(rows, []), dtype=np.int64)
        )
        np.testing.assert_array_equal(batched.distances, per_black.distances)
        assert (
            batch.stats.distance_computations == one.stats.distance_computations
        )


class TestQueryNeighbors:
    def test_simple_index_ignores_tree_options(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        plain = query_neighbors(index, 0, 0.2)
        fancy = query_neighbors(index, 0, 0.2, prune=True, bottom_up=True)
        assert sorted(plain) == sorted(fancy)

    def test_mtree_receives_options(self, small_uniform):
        index = MTreeIndex(small_uniform, EUCLIDEAN, capacity=5)
        top = query_neighbors(index, 0, 0.2)
        bottom = query_neighbors(index, 0, 0.2, bottom_up=True)
        assert sorted(top) == sorted(bottom)
