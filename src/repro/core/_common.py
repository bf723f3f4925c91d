"""Internal helpers shared by the DisC heuristics.

Centralises the little rituals every algorithm repeats: snapshotting the
index cost counters, attaching/detaching colorings, issuing range queries
with index-capability-aware keyword arguments, and maintaining the
closest-black distance array of Section 5.2.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.cancellation import CHECKPOINT_EVERY, current_token
from repro.core.coloring import Color, Coloring
from repro.index.base import IndexStats, NeighborIndex

__all__ = [
    "attach_fresh_coloring",
    "query_neighbors",
    "csr_fast_path",
    "scan_cover",
    "LazyMaxHeap",
    "ClosestBlackTracker",
    "consume_stats",
    "NEG_INF",
]

#: Score of an object that is not a selection candidate in the dense
#: greedy loops.  Far below any real count, and far enough above the
#: int64 minimum that the decrements applied to it never wrap.
NEG_INF = np.int64(-(2**62))


def attach_fresh_coloring(index: NeighborIndex) -> Coloring:
    """Create an all-white coloring and subscribe the index to it."""
    coloring = Coloring(index.n)
    index.attach_coloring(coloring)
    return coloring


def query_neighbors(
    index: NeighborIndex,
    object_id: int,
    radius: float,
    *,
    prune: bool = False,
    bottom_up: bool = False,
    stop_at_grey: bool = False,
) -> List[int]:
    """``N_r(object_id)`` honouring whatever acceleration the index has.

    Simple indexes ignore the M-tree-specific options; this keeps the
    heuristics generic across substrates.
    """
    if index.supports_pruning:
        return index.range_query(
            object_id,
            radius,
            prune=prune,
            bottom_up=bottom_up,
            stop_at_grey=stop_at_grey,
        )
    return index.range_query(object_id, radius)


def csr_fast_path(
    index: NeighborIndex,
    radius: float,
    coloring: Coloring,
    *,
    prune: bool = False,
    build: bool = True,
):
    """The CSR adjacency when the vectorised fast path is applicable.

    Tree-specific query options (pruning) and coloring listeners (the
    M-tree's per-leaf white counters) both require the per-query
    protocol, so either disables the fast path; indexes without a CSR
    engine return None anyway.  Selection semantics are identical on
    both paths — this is purely an execution-strategy switch.
    """
    if prune or coloring.has_listeners():
        return None
    return index.csr_neighborhood(radius, build=build)


def scan_cover(
    index: NeighborIndex,
    radius: float,
    coloring: Coloring,
    *,
    prune: bool = False,
    tracker: Optional["ClosestBlackTracker"] = None,
    selected: Optional[List[int]] = None,
    csr=None,
) -> List[int]:
    """Index-order white scan: blacken every still-white object and grey
    its neighborhood.

    This is the shared engine of Basic-DisC and the arbitrary zoom-in
    pass.  With a CSR adjacency the neighbor greying is one masked
    assignment per selection; otherwise one range query per pick, as
    the paper describes.  Picks and final colors are identical on both
    paths (the scan order is the index's, never the adjacency's).
    """
    if selected is None:
        selected = []
    token = current_token()
    picks = 0
    if csr is not None:
        codes = coloring.codes_view()
        white_code = int(Color.WHITE)
        for object_id in index.ids():
            if codes[object_id] != white_code:
                continue
            if token is not None:
                if picks % CHECKPOINT_EVERY == 0:
                    token.checkpoint()
                picks += 1
            coloring.set_black(object_id)
            selected.append(object_id)
            neighbors = csr.neighbors(object_id)
            coloring.set_grey_many(neighbors[codes[neighbors] == white_code])
            index.stats.range_queries += 1
            if tracker is not None:
                tracker.record_black(object_id, neighbors)
    else:
        for object_id in index.ids():
            if not coloring.is_white(object_id):
                continue
            if token is not None:
                if picks % CHECKPOINT_EVERY == 0:
                    token.checkpoint()
                picks += 1
            coloring.set_black(object_id)
            selected.append(object_id)
            neighbors = query_neighbors(index, object_id, radius, prune=prune)
            for neighbor in neighbors:
                if coloring.is_white(neighbor):
                    coloring.set_grey(neighbor)
            if tracker is not None:
                tracker.record_black(object_id, neighbors)
    return selected


def consume_stats(index: NeighborIndex, before: IndexStats) -> IndexStats:
    """Counters consumed since ``before`` was snapshotted."""
    return index.stats - before


class LazyMaxHeap:
    """The sorted structure ``L'`` of Section 5.1.

    A max-heap over (priority, object id) with lazy invalidation: pushes
    are cheap, and :meth:`pop_valid` discards entries whose priority or
    eligibility has changed since they were pushed.  Ties break on the
    smaller object id, making every heuristic deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int]] = []

    def push(self, object_id: int, priority: int) -> None:
        heapq.heappush(self._heap, (-priority, object_id))

    def push_many(self, items: Iterable[Tuple[int, int]]) -> None:
        for object_id, priority in items:
            self.push(object_id, priority)

    def pop_valid(self, current_priority, is_eligible) -> Optional[int]:
        """Pop the best object whose stored priority is still current.

        ``current_priority(id)`` returns the live priority;
        ``is_eligible(id)`` filters by color.  Returns None when empty.
        """
        while self._heap:
            neg_priority, object_id = heapq.heappop(self._heap)
            if not is_eligible(object_id):
                continue
            if current_priority(object_id) != -neg_priority:
                continue  # stale entry; a fresher one is in the heap
            return object_id
        return None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class ClosestBlackTracker:
    """Maintains each object's distance to its closest black neighbor.

    This is the leaf-entry extension of Section 5.2: zooming-in compares
    these distances against the new radius to decide which grey objects
    stay covered.  When the producing run used pruned range queries the
    distances are upper bounds rather than exact minima (pruning hides
    some blacks); the ``exact`` flag records that, and zoom algorithms
    re-run the paper's post-processing step when it is False.
    """

    def __init__(self, index: NeighborIndex, exact: bool = True):
        self._index = index
        self.distances = np.full(index.n, np.inf)
        self.exact = exact

    def record_black(self, black_id: int, neighbor_ids) -> None:
        """Object ``black_id`` just turned black; its neighbors may now
        have a closer black.  ``neighbor_ids`` may be a list or array."""
        self.distances[black_id] = 0.0
        if len(neighbor_ids) == 0:
            return
        points = self._index.points
        metric = self._index.metric
        neighbor_ids = np.asarray(neighbor_ids, dtype=int)
        d = metric.to_point(points[neighbor_ids], points[black_id])
        self._index.stats.distance_computations += len(neighbor_ids)
        np.minimum.at(self.distances, neighbor_ids, d)

    def covered_at(self, object_id: int, radius: float) -> bool:
        return self.distances[object_id] <= radius
