"""Weighted DisC diversity (paper Section 8, future work #1).

The paper sketches the first route for integrating *relevance* with DisC
diversity: "a 'weighted' variation of the DisC set, where each object
has an associated weight based on its relevance.  Now the goal is to
select a DisC subset having the maximum sum of weights."

Finding a maximum-weight independent dominating set is NP-hard (it
subsumes the unweighted problem), so we provide the natural greedy
heuristic in the spirit of Greedy-DisC: repeatedly select the white
object with the best score, where the score blends the object's own
weight with the white coverage it buys.  With ``alpha = 0`` this
degenerates to Greedy-DisC (pure coverage); with ``alpha = 1`` it is a
pure weight-greedy maximal independent set.

Because the output is still a maximal independent set of ``G_{P,r}``,
every result remains a valid r-DisC diverse subset (Lemma 1) — relevance
only steers *which* of the many valid subsets is returned.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cancellation import CHECKPOINT_EVERY, current_token
from repro.core._common import (
    NEG_INF,
    LazyMaxHeap,
    attach_fresh_coloring,
    consume_stats,
    csr_fast_path,
    query_neighbors,
)
from repro.core.coloring import Color
from repro.core.result import DiscResult
from repro.index.base import NeighborIndex
from repro.validation import validate_radius

__all__ = ["weighted_disc", "total_weight"]


def weighted_disc(
    index: NeighborIndex,
    radius: float,
    weights: np.ndarray,
    *,
    alpha: float = 0.5,
    prune: bool = False,
) -> DiscResult:
    """Greedy maximum-weight r-DisC diverse subset.

    Parameters
    ----------
    weights:
        Non-negative relevance per object; higher is more relevant.
    alpha:
        Blend between relevance and coverage gain in the greedy score
        ``alpha * weight_rank + (1 - alpha) * coverage_rank`` — both
        normalised to [0, 1].  0 = pure coverage (Greedy-DisC-like),
        1 = pure relevance.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (index.n,):
        raise ValueError(
            f"weights must have shape ({index.n},), got {weights.shape}"
        )
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    radius = validate_radius(radius)

    before = index.stats.snapshot()
    counts = index.neighborhood_sizes(radius).astype(float)
    coloring = attach_fresh_coloring(index)

    weight_scale = float(weights.max()) or 1.0
    count_scale = float(counts.max()) or 1.0

    def score(object_id: int) -> float:
        return alpha * (weights[object_id] / weight_scale) + (1 - alpha) * (
            counts[object_id] / count_scale
        )

    # Both paths rank by the same quantised scores so lazy invalidation
    # (heap) and the dense argmax compare exactly; counts only
    # decrease, so stale entries are always >= live.
    def quantised(object_id: int) -> int:
        return int(round(score(object_id) * 10**9))

    selected: List[int] = []
    csr = csr_fast_path(index, radius, coloring, prune=prune)
    try:
        if csr is not None:
            _weighted_csr(
                index, csr, coloring, counts, weights, alpha,
                weight_scale, count_scale, selected,
            )
        else:
            heap = LazyMaxHeap()
            token = current_token()
            for object_id in range(index.n):
                if token is not None and object_id % CHECKPOINT_EVERY == 0:
                    token.checkpoint()
                heap.push(object_id, quantised(object_id))
            pops = 0
            while coloring.any_white():
                if token is not None:
                    if pops % CHECKPOINT_EVERY == 0:
                        token.checkpoint()
                    pops += 1
                pick = heap.pop_valid(quantised, coloring.is_white)
                if pick is None:
                    raise RuntimeError(
                        "weighted greedy lost track of white objects"
                    )
                coloring.set_black(pick)
                selected.append(pick)
                neighbors = query_neighbors(index, pick, radius, prune=prune)
                newly_grey = [n for n in neighbors if coloring.is_white(n)]
                for grey_id in newly_grey:
                    coloring.set_grey(grey_id)
                for grey_id in newly_grey:
                    for other in query_neighbors(index, grey_id, radius, prune=prune):
                        if coloring.is_white(other):
                            counts[other] -= 1
                            heap.push(other, quantised(other))
    finally:
        index.detach_coloring()

    return DiscResult(
        selected=selected,
        radius=radius,
        algorithm=f"Weighted-DisC (alpha={alpha:g})",
        stats=consume_stats(index, before),
        coloring=coloring,
        meta={
            "alpha": alpha,
            "total_weight": float(weights[selected].sum()),
            "engine": "legacy" if csr is None else "csr",
        },
    )


def _weighted_csr(
    index: NeighborIndex,
    csr,
    coloring,
    counts: np.ndarray,
    weights: np.ndarray,
    alpha: float,
    weight_scale: float,
    count_scale: float,
    selected: List[int],
) -> None:
    """Vectorised weighted greedy over a CSR adjacency.

    Selection order is identical to the heap path: scores are the same
    quantised blend (NumPy's and Python's ``round`` both round half to
    even over the same float64 arithmetic), ``np.argmax`` breaks ties on
    the lowest id exactly like the ``(-score, id)`` heap, and count
    maintenance follows the same grey update rule.  The blend is not
    linear in the count, so the scores are recomputed for the whites
    whose count changed, found by comparing against the previous counts.
    """
    white_code = int(Color.WHITE)
    codes = coloring.codes_view()

    def quantise(ids: np.ndarray) -> np.ndarray:
        blended = alpha * (weights[ids] / weight_scale) + (1 - alpha) * (
            counts[ids] / count_scale
        )
        return np.round(blended * 10**9).astype(np.int64)

    scores = quantise(np.arange(csr.n))
    scores[codes != white_code] = NEG_INF
    previous = np.empty_like(counts)

    token = current_token()
    pops = 0
    while coloring.any_white():
        if token is not None:
            if pops % CHECKPOINT_EVERY == 0:
                token.checkpoint()
            pops += 1
        pick = int(scores.argmax())
        if scores[pick] < 0:
            raise RuntimeError("weighted greedy lost track of white objects")
        coloring.set_black(pick)
        selected.append(pick)
        neighbors = csr.neighbors(pick)
        newly_grey = neighbors[codes[neighbors] == white_code].astype(np.int64)
        coloring.set_grey_many(newly_grey)
        # Legacy accounting: one query for the pick plus one grey-update
        # query per newly-grey object.
        index.stats.range_queries += 1 + newly_grey.size
        scores[pick] = NEG_INF
        scores[newly_grey] = NEG_INF
        np.copyto(previous, counts)
        csr.decrement(counts, newly_grey)
        changed = np.flatnonzero(counts != previous)
        changed = changed[codes[changed] == white_code]
        scores[changed] = quantise(changed)


def total_weight(weights: np.ndarray, selected: List[int]) -> float:
    """Sum of weights over a selection (the Section 8 objective)."""
    return float(np.asarray(weights, dtype=float)[list(selected)].sum())
