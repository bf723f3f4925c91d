"""The greedy DisC heuristics (Sections 2.3 and 5.1).

``Greedy-DisC`` selects, at every step, the white object covering the
most uncovered (white) objects.  Its M-tree realisations differ in how
they keep the white-neighborhood sizes current after each selection:

* **Grey-Greedy-DisC** — one range query around every newly-grey object,
  decrementing the counts of its white neighbors;
* **White-Greedy-DisC** — one range query ``Q(p_i, 2r)`` to find the
  remaining white objects whose counts may have changed, then an exact
  recount for each;
* **Lazy-Grey / Lazy-White** — the same with shrunken update radii
  (``r/2`` and ``3r/2``), trading slightly larger solutions for fewer
  node accesses (Figure 8 / Table 3).

``Greedy-C`` relaxes the dissimilarity condition: both white *and* grey
objects are candidates, so the selected set is covering but not
necessarily independent (an r-C diverse subset).  ``Fast-C`` accelerates
it with bottom-up range queries that stop climbing at the first grey
internal node, accepting that distant neighbors may be missed.

All variants share the :func:`greedy_cover` engine, which the zooming
algorithms of Section 3 reuse for their greedy passes.

When the index holds a CSR or blocked adjacency for the radius, the
default grey update runs in the compiled selection kernel
(:func:`_greedy_cover_csr`, :mod:`repro.core._kernel`): one dense score
array, an argmax scan per pick and in-place count decrements, all in
one C loop that returns to Python once per :data:`CHECKPOINT_EVERY`
picks.  The cost is O(n) per pick plus the edges of the objects leaving
the candidate pool, and the selection order is the heap path's, byte
for byte.  The heap path is the parity reference and the fallback when
no C compiler is available.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.cancellation import CHECKPOINT_EVERY, current_token
from repro.core._common import (
    NEG_INF,
    ClosestBlackTracker,
    LazyMaxHeap,
    attach_fresh_coloring,
    consume_stats,
    csr_fast_path,
    kernel_select,
    query_neighbors,
)
from repro.core._kernel import MODE_COVER, MODE_COVER_C
from repro.core.coloring import Color, Coloring
from repro.core.result import DiscResult
from repro.index.base import NeighborIndex
from repro.validation import validate_radius

__all__ = [
    "greedy_disc",
    "greedy_c",
    "fast_c",
    "greedy_cover",
]

def greedy_cover(
    index: NeighborIndex,
    radius: float,
    coloring: Coloring,
    *,
    include_grey_candidates: bool = False,
    update_variant: str = "grey",
    lazy: bool = False,
    prune: bool = False,
    bottom_up: bool = False,
    stop_at_grey: bool = False,
    initial_counts: Optional[np.ndarray] = None,
    tracker: Optional[ClosestBlackTracker] = None,
    selected: Optional[List[int]] = None,
) -> List[int]:
    """Greedy covering engine: select candidates until no white remains.

    Parameters
    ----------
    coloring:
        Pre-seeded coloring (all-white for the full heuristics; partially
        grey/black for zooming passes).  Mutated in place.
    include_grey_candidates:
        False → r-DisC mode (white candidates only, output independent);
        True → r-C mode (Greedy-C / Fast-C / zoom-out pass 2 fallback).
    update_variant:
        "grey" or "white" — the count-maintenance strategy above.
    lazy:
        Shrink the update radii to ``r/2`` / ``3r/2``.
    prune, bottom_up, stop_at_grey:
        Range-query options forwarded to the index (M-tree only).
    initial_counts:
        Per-object white-neighborhood sizes to seed the priority
        structure ``L'``; computed on demand for current candidates when
        omitted.
    tracker:
        Optional closest-black distance maintenance for later zooming.
    selected:
        List receiving the selections in order (created if omitted).

    Returns the selection list.
    """
    if update_variant not in ("grey", "white"):
        raise ValueError(f"unknown update_variant {update_variant!r}")
    radius = validate_radius(radius)

    # Vectorised execution over the CSR engine when the index provides
    # one and the configuration keeps per-query semantics unnecessary
    # (the default grey update at the full radius, no tree options).
    # Full runs (seeded counts) amortise an adjacency build; zoom
    # passes without seeds usually touch few objects, so they only
    # consume a CSR that already exists.
    if update_variant == "grey" and not lazy and not bottom_up and not stop_at_grey:
        csr = csr_fast_path(
            index, radius, coloring, prune=prune,
            build=initial_counts is not None,
        )
        if csr is not None:
            return _greedy_cover_csr(
                index,
                csr,
                coloring,
                include_grey_candidates=include_grey_candidates,
                initial_counts=initial_counts,
                tracker=tracker,
                selected=selected,
            )

    def is_candidate(object_id: int) -> bool:
        if coloring.is_white(object_id):
            return True
        return include_grey_candidates and coloring.is_grey(object_id)

    counts = _seed_counts(
        index, radius, coloring, is_candidate, initial_counts, prune=prune
    )
    heap = LazyMaxHeap()
    seed_token = current_token()
    for object_id in range(index.n):
        if seed_token is not None and object_id % CHECKPOINT_EVERY == 0:
            seed_token.checkpoint()
        if is_candidate(object_id):
            heap.push(object_id, int(counts[object_id]))

    if selected is None:
        selected = []

    def eligible(object_id: int) -> bool:
        if coloring.is_white(object_id):
            return True
        if include_grey_candidates and coloring.is_grey(object_id):
            # A grey candidate that covers nothing white is useless and
            # would stall progress; require a positive gain.
            return counts[object_id] > 0
        return False

    token = current_token()
    pops = 0
    while coloring.any_white():
        if token is not None:
            if pops % CHECKPOINT_EVERY == 0:
                token.checkpoint()
            pops += 1
        pick = heap.pop_valid(lambda i: int(counts[i]), eligible)
        if pick is None:
            raise RuntimeError(
                "greedy cover ran out of candidates with white objects left; "
                "the priority structure is inconsistent"
            )
        was_white = coloring.is_white(pick)
        coloring.set_black(pick)
        selected.append(pick)
        neighbors = query_neighbors(
            index, pick, radius, prune=prune, bottom_up=bottom_up,
            stop_at_grey=stop_at_grey,
        )
        newly_grey = [n for n in neighbors if coloring.is_white(n)]
        for neighbor in newly_grey:
            coloring.set_grey(neighbor)
        if tracker is not None:
            tracker.record_black(pick, neighbors)

        if update_variant == "grey":
            _update_counts_grey(
                index, radius, coloring, counts, heap, is_candidate,
                pick, was_white, neighbors, newly_grey,
                lazy=lazy, prune=prune, bottom_up=bottom_up,
                stop_at_grey=stop_at_grey,
            )
        else:
            _update_counts_white(
                index, radius, coloring, counts, heap, is_candidate,
                pick, lazy=lazy, prune=prune,
            )
    return selected


def _greedy_cover_csr(
    index: NeighborIndex,
    csr,
    coloring: Coloring,
    *,
    include_grey_candidates: bool,
    initial_counts: Optional[np.ndarray],
    tracker: Optional[ClosestBlackTracker],
    selected: Optional[List[int]],
) -> List[int]:
    """:func:`greedy_cover` over a CSR or blocked adjacency, in the
    compiled kernel.

    One dense ``int64`` score array drives the pass: a candidate holds
    its white-neighbor count, every other object holds :data:`NEG_INF`.
    Each pick is the argmax (lowest id on ties, exactly the heap's
    ``(-count, id)`` order).  The grey update rule is applied to the
    scores in place: the objects leaving the pool get the sentinel,
    then every object that stopped being white decrements each of its
    neighbors once.  Decrements that land on non-candidates leave them
    far below any real count, so nothing filters them out.

    r-C mode keeps greys as candidates, but a grey with no white
    neighbor left is not eligible (the heap path demands a positive
    gain).  Counts never go negative, so that only matters when the
    maximum is 0; then every white is isolated and the pick is the
    lowest-id white.
    """
    scores = None
    if initial_counts is not None:
        scores = np.array(initial_counts, dtype=np.int64)
        if scores.shape != (csr.n,):
            raise ValueError(
                f"initial_counts must have shape ({csr.n},), got {scores.shape}"
            )
        codes = coloring.codes_view()
        candidate = codes == int(Color.WHITE)
        if include_grey_candidates:
            candidate |= codes == int(Color.GREY)
        scores[~candidate] = NEG_INF
    else:
        # The kernel counts the white neighbors itself; the legacy path
        # issues one seeding range query per candidate.
        n_candidates = coloring.count(Color.WHITE)
        if include_grey_candidates:
            n_candidates += coloring.count(Color.GREY)
        index.stats.range_queries += n_candidates

    if selected is None:
        selected = []
    # Legacy accounting: one query for each pick plus one grey-update
    # query per newly-grey object.
    index.stats.range_queries += sum(
        kernel_select(
            index, csr, coloring, scores,
            MODE_COVER_C if include_grey_candidates else MODE_COVER,
            batch=CHECKPOINT_EVERY, tracker=tracker, selected=selected,
        )
    )
    return selected


def _seed_counts(
    index: NeighborIndex,
    radius: float,
    coloring: Coloring,
    is_candidate: Callable[[int], bool],
    initial_counts: Optional[np.ndarray],
    *,
    prune: bool,
) -> np.ndarray:
    if initial_counts is not None:
        counts = np.asarray(initial_counts, dtype=np.int64).copy()
        if counts.shape != (index.n,):
            raise ValueError(
                f"initial_counts must have shape ({index.n},), got {counts.shape}"
            )
        return counts
    counts = np.zeros(index.n, dtype=np.int64)
    token = current_token()
    for object_id in range(index.n):
        if token is not None and object_id % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        if not is_candidate(object_id):
            continue
        neighbors = query_neighbors(index, object_id, radius, prune=prune)
        counts[object_id] = sum(1 for n in neighbors if coloring.is_white(n))
    return counts


def _update_counts_grey(
    index, radius, coloring, counts, heap, is_candidate,
    pick, was_white, pick_neighbors, newly_grey,
    *, lazy, prune, bottom_up, stop_at_grey,
) -> None:
    """Decrement candidate counts around every object that stopped being
    white this step (the newly greys, plus the pick itself if it was
    white)."""
    update_radius = radius / 2 if lazy else radius
    changed: List[tuple] = []
    if was_white:
        # The pick's adjacency is already in hand; no extra query needed.
        changed.append((pick, pick_neighbors))
    for grey_id in newly_grey:
        adjacency = query_neighbors(
            index, grey_id, update_radius, prune=prune, bottom_up=bottom_up,
            stop_at_grey=stop_at_grey,
        )
        changed.append((grey_id, adjacency))
    for _, adjacency in changed:
        for other in adjacency:
            if is_candidate(other):
                counts[other] -= 1
                heap.push(other, int(counts[other]))


def _update_counts_white(
    index, radius, coloring, counts, heap, is_candidate, pick,
    *, lazy, prune,
) -> None:
    """Recount the white neighborhoods of candidates near the pick.

    Only objects within ``2r`` of the pick can have lost white neighbors
    (a lost neighbor is within ``r`` of the pick and within ``r`` of the
    candidate); the lazy variant probes only ``3r/2``.
    """
    probe_radius = 1.5 * radius if lazy else 2.0 * radius
    nearby = query_neighbors(index, pick, probe_radius, prune=prune)
    for candidate in nearby:
        if not is_candidate(candidate):
            continue
        neighbors = query_neighbors(index, candidate, radius, prune=prune)
        counts[candidate] = sum(1 for n in neighbors if coloring.is_white(n))
        heap.push(candidate, int(counts[candidate]))


def _variant_name(update_variant: str, lazy: bool, prune: bool) -> str:
    base = {
        ("grey", False): "Grey-Greedy-DisC",
        ("grey", True): "Lazy-Grey-Greedy-DisC",
        ("white", False): "White-Greedy-DisC",
        ("white", True): "Lazy-White-Greedy-DisC",
    }[(update_variant, lazy)]
    return f"{base} (Pruned)" if prune else base


def greedy_disc(
    index: NeighborIndex,
    radius: float,
    *,
    update_variant: str = "grey",
    lazy: bool = False,
    prune: bool = False,
    track_closest_black: bool = False,
) -> DiscResult:
    """Greedy-DisC (Algorithm 1) with the Section 5.1 M-tree variants.

    The default configuration is the paper's reference heuristic
    ``(Grey-)Greedy-DisC``; combine ``update_variant``/``lazy``/``prune``
    for the others.  Output always satisfies both DisC conditions.
    """
    radius = validate_radius(radius)
    before = index.stats.snapshot()
    initial_counts = index.neighborhood_sizes(radius)
    coloring = attach_fresh_coloring(index)
    tracker = (
        ClosestBlackTracker(index, exact=not prune) if track_closest_black else None
    )
    selected: List[int] = []
    try:
        greedy_cover(
            index,
            radius,
            coloring,
            include_grey_candidates=False,
            update_variant=update_variant,
            lazy=lazy,
            prune=prune,
            initial_counts=initial_counts,
            tracker=tracker,
            selected=selected,
        )
    finally:
        index.detach_coloring()
    return DiscResult(
        selected=selected,
        radius=radius,
        algorithm=_variant_name(update_variant, lazy, prune),
        stats=consume_stats(index, before),
        coloring=coloring,
        closest_black=tracker.distances if tracker is not None else None,
        meta={
            "update_variant": update_variant,
            "lazy": lazy,
            "prune": prune,
            "closest_black_exact": tracker.exact if tracker else None,
        },
    )


def greedy_c(
    index: NeighborIndex,
    radius: float,
    *,
    track_closest_black: bool = False,
) -> DiscResult:
    """Greedy-C: covering-only greedy (grey objects stay candidates).

    The paper notes the pruning rule cannot be used here — grey objects
    and nodes must remain reachable so their white-neighborhood counts
    stay current — so all queries run unpruned.
    """
    radius = validate_radius(radius)
    before = index.stats.snapshot()
    initial_counts = index.neighborhood_sizes(radius)
    coloring = attach_fresh_coloring(index)
    tracker = ClosestBlackTracker(index) if track_closest_black else None
    selected: List[int] = []
    try:
        greedy_cover(
            index,
            radius,
            coloring,
            include_grey_candidates=True,
            update_variant="grey",
            prune=False,
            initial_counts=initial_counts,
            tracker=tracker,
            selected=selected,
        )
    finally:
        index.detach_coloring()
    return DiscResult(
        selected=selected,
        radius=radius,
        algorithm="Greedy-C",
        stats=consume_stats(index, before),
        coloring=coloring,
        closest_black=tracker.distances if tracker is not None else None,
        meta={"covering_only": True},
    )


def fast_c(
    index: NeighborIndex,
    radius: float,
    *,
    track_closest_black: bool = False,
) -> DiscResult:
    """Fast-C: Greedy-C accelerated via the pruning rule's grey flags.

    Greedy-C itself cannot skip grey subtrees (grey candidates' counts
    must stay current), so Fast-C exploits the grey bookkeeping
    differently: range queries traverse the tree *bottom-up* and stop
    climbing at the first grey internal node.  Neighbors in distant leaf
    subtrees may be missed, producing slightly larger but still covering
    solutions with fewer node accesses; the effect scales with tree
    depth (the paper reports up to ~30% on its 10000-object trees).

    Requires an index supporting the M-tree query options; on simple
    indexes it degrades to plain Greedy-C (no grey flags to exploit).
    """
    radius = validate_radius(radius)
    before = index.stats.snapshot()
    initial_counts = index.neighborhood_sizes(radius)
    coloring = attach_fresh_coloring(index)
    tracker = ClosestBlackTracker(index) if track_closest_black else None
    selected: List[int] = []
    use_tree_shortcuts = index.supports_pruning
    try:
        greedy_cover(
            index,
            radius,
            coloring,
            include_grey_candidates=True,
            update_variant="grey",
            prune=False,
            bottom_up=use_tree_shortcuts,
            stop_at_grey=use_tree_shortcuts,
            initial_counts=initial_counts,
            tracker=tracker,
            selected=selected,
        )
    finally:
        index.detach_coloring()
    return DiscResult(
        selected=selected,
        radius=radius,
        algorithm="Fast-C",
        stats=consume_stats(index, before),
        coloring=coloring,
        closest_black=tracker.distances if tracker is not None else None,
        meta={"covering_only": True, "bottom_up": use_tree_shortcuts},
    )
