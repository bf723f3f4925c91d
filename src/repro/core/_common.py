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
from repro.core import _kernel
from repro.core.coloring import Color, Coloring
from repro.index.base import IndexStats, NeighborIndex

__all__ = [
    "attach_fresh_coloring",
    "query_neighbors",
    "csr_fast_path",
    "kernel_select",
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
    """The CSR adjacency when the compiled-kernel fast path is applicable.

    Tree-specific query options (pruning) and coloring listeners (the
    M-tree's per-leaf white counters) both require the per-query
    protocol, so either disables the fast path; indexes without a CSR
    engine return None anyway, and so does a process where the kernel
    could not be built.  Selection semantics are identical on both
    paths — this is purely an execution-strategy switch.
    """
    if prune or coloring.has_listeners() or _kernel.load() is None:
        return None
    return index.csr_neighborhood(radius, build=build)


def kernel_select(
    index: NeighborIndex,
    csr,
    coloring: Coloring,
    scores: Optional[np.ndarray],
    mode: int,
    *,
    batch: int,
    tracker: Optional["ClosestBlackTracker"],
    selected: List[int],
    sentinel: int = NEG_INF,
) -> Tuple[int, int]:
    """Run one selection pass of the compiled kernel over ``csr``.

    ``scores`` seeds the pass (non-candidates at ``sentinel``); None
    lets the kernel count them from the colors (see
    :meth:`~repro.core._kernel.Kernel.run`), except in the scan mode,
    which has none.  ``coloring`` is recolored in place and re-counted
    once the pass ends (or aborts); the picks are appended to
    ``selected`` and fed to ``tracker`` once per batch of at most
    ``batch`` picks.  Returns the pass's ``(picks, objects greyed)``
    totals for the callers' range query accounting.
    """
    codes = coloring.codes_view()
    pool = coloring.count(
        Color.RED if mode >= _kernel.MODE_RED_A else Color.WHITE
    )
    seed = scores is None and mode != _kernel.MODE_SCAN
    if seed:
        scores = np.empty(csr.n, dtype=np.int64)
    picked = greyed = 0
    try:
        for picks, newly, row_ptr, rows in _kernel.load().run(
            csr, codes, scores, mode,
            pool=pool, batch=batch, sentinel=int(sentinel), seed=seed,
            rows=tracker is not None,
        ):
            selected.extend(picks.tolist())
            picked += picks.size
            greyed += int(newly.sum())
            if tracker is not None:
                tracker.record_blacks(picks, row_ptr, rows)
    finally:
        coloring.recount()
    return picked, greyed


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
    pass.  With a CSR adjacency (from :func:`csr_fast_path`) the scan
    runs in the compiled kernel, which walks ids in ascending order —
    the natural order of every index with a CSR engine (only the M-tree
    orders differently, and it never takes the fast path).  Otherwise
    one range query per pick, as the paper describes.  Picks and final
    colors are identical on both paths.
    """
    if selected is None:
        selected = []
    if csr is not None:
        picked, _ = kernel_select(
            index, csr, coloring, None, _kernel.MODE_SCAN,
            batch=CHECKPOINT_EVERY, tracker=tracker, selected=selected,
        )
        index.stats.range_queries += picked
    else:
        token = current_token()
        picks = 0
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

    def record_blacks(
        self, black_ids: np.ndarray, row_ptr: np.ndarray, rows: np.ndarray
    ) -> None:
        """:meth:`record_black` for a batch of blacks at once: the
        neighbors of ``black_ids[k]`` are ``rows[row_ptr[k]:row_ptr[k+1]]``.
        ``Metric.paired`` is bit-identical to the per-black
        ``to_point``, and the minimum is order-free, so the distances
        equal a per-black replay."""
        self.distances[black_ids] = 0.0
        if rows.size == 0:
            return
        points = self._index.points
        owners = np.repeat(black_ids, np.diff(row_ptr))
        d = self._index.metric.paired(points[rows], points[owners])
        self._index.stats.distance_computations += rows.size
        np.minimum.at(self.distances, rows, d)

    def covered_at(self, object_id: int, radius: float) -> bool:
        return self.distances[object_id] <= radius
