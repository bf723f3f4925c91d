"""Adaptive diversification: zooming-in and zooming-out (Sections 3, 5.2).

Given an r-DisC diverse subset ``S_r``, the user may request a different
radius r′.  Rather than recompute from scratch, the zooming algorithms
adapt the existing solution so the new result stays intuitively close to
what the user has already seen (small Jaccard distance — Figures 13/16):

* **zooming-in** (r′ < r): all of ``S_r`` is kept (Lemma 5(i):
  ``S_r ⊆ S_{r'}``); objects that fall out of coverage under the smaller
  radius are re-covered by new selections, chosen arbitrarily
  (``Zoom-In``) or greedily (``Greedy-Zoom-In``, Algorithm 2).
* **zooming-out** (r′ > r): no subset of ``S_r`` need be r′-DisC
  (Observation 4), so Algorithm 3 runs two passes: first re-select from
  the old blacks (colored *red*), then cover any uncovered areas.  The
  greedy first pass orders reds by (a) most red neighbors, (b) fewest
  red neighbors, or (c) most white neighbors.

Local zooming restricts either operation to the neighborhood of one
object of interest (Figure 1(d) / Figure 2).

The M-tree supports zooming-in through per-object *closest-black
distances* (the Section 5.2 leaf extension): a grey object stays covered
at r′ iff its closest black lies within r′.  When the producing run used
pruned queries those distances are inexact, and the paper's
post-processing pass (re-running the blacks' range queries) restores
them — implemented in :func:`recompute_closest_black`.

Over a cached CSR or blocked adjacency at the new radius, every greedy
pass — Greedy-Zoom-In, both passes of Greedy-Zoom-Out, and the scan of
the arbitrary Zoom-In — runs in the compiled selection kernel
(:mod:`repro.core._kernel`): the kernel seeds the pass's counts from
the colors, picks by argmax (argmin for variant b) and decrements in
place, returning to Python once per :data:`CHECKPOINT_EVERY` picks.
Without a cached adjacency (or without a C compiler) the heap-driven
passes run instead, with identical picks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cancellation import CHECKPOINT_EVERY, current_token
from repro.core._common import (
    NEG_INF,
    ClosestBlackTracker,
    LazyMaxHeap,
    consume_stats,
    csr_fast_path,
    kernel_select,
    query_neighbors,
    scan_cover,
)
from repro.core._kernel import MODE_RED_A, MODE_RED_B, MODE_RED_C
from repro.core.coloring import Color, Coloring
from repro.core.greedy import greedy_cover
from repro.core.result import DiscResult
from repro.index.base import NeighborIndex
from repro.validation import validate_radius

__all__ = [
    "zoom_in",
    "zoom_out",
    "local_zoom",
    "recompute_closest_black",
]


def recompute_closest_black(
    index: NeighborIndex, selected: List[int], radius: float
) -> ClosestBlackTracker:
    """Exact closest-black distances via one range query per black.

    Coverage at ``radius`` guarantees every object lies within ``radius``
    of some black, so probing each black's neighborhood suffices.  This
    is the post-processing step Section 5.2 requires after pruned
    construction.
    """
    tracker = ClosestBlackTracker(index, exact=True)
    neighborhoods = index.range_query_batch(selected, radius)
    row_ptr = np.zeros(len(selected) + 1, dtype=np.int64)
    np.cumsum([len(neighbors) for neighbors in neighborhoods], out=row_ptr[1:])
    rows = (
        np.concatenate(neighborhoods).astype(np.int64)
        if row_ptr[-1]
        else np.empty(0, dtype=np.int64)
    )
    tracker.record_blacks(np.asarray(selected, dtype=np.int64), row_ptr, rows)
    return tracker


def _tracker_from_previous(
    index: NeighborIndex, previous: DiscResult
) -> ClosestBlackTracker:
    """Reuse the previous run's closest-black distances when they are
    exact; otherwise re-derive them (charging the index counters)."""
    if previous.closest_black is not None and previous.meta.get(
        "closest_black_exact", False
    ):
        tracker = ClosestBlackTracker(index, exact=True)
        tracker.distances = previous.closest_black.copy()
        return tracker
    return recompute_closest_black(index, previous.selected, previous.radius)


def zoom_in(
    index: NeighborIndex,
    previous: DiscResult,
    new_radius: float,
    *,
    greedy: bool = False,
    prune: bool = False,
) -> DiscResult:
    """Adapt ``previous`` to a smaller radius (Zoom-In / Greedy-Zoom-In).

    The previous selections are all retained; the algorithms only add
    objects for the areas the smaller radius uncovers.  The result's
    ``closest_black`` is always exact, ready for further zooming.
    """
    new_radius = validate_radius(new_radius, name="new_radius")
    if new_radius >= previous.radius:
        raise ValueError(
            f"zoom-in needs a smaller radius: {new_radius} >= {previous.radius}"
        )
    before = index.stats.snapshot()
    tracker = _tracker_from_previous(index, previous)

    # Zooming rule (Section 5.2): blacks stay black; greys stay grey only
    # while a black remains within the new radius.
    coloring = Coloring(index.n)
    previous_ids = np.asarray(previous.selected, dtype=np.int64)
    for black in previous.selected:
        coloring.set_black(black)
    still_covered = tracker.distances <= new_radius
    still_covered[previous_ids] = False
    coloring.set_grey_many(np.flatnonzero(still_covered))
    index.attach_coloring(coloring)

    added: List[int] = []
    try:
        if greedy:
            greedy_cover(
                index,
                new_radius,
                coloring,
                include_grey_candidates=False,
                update_variant="grey",
                prune=prune,
                tracker=tracker,
                selected=added,
            )
        else:
            # Zooming typically re-covers a handful of objects, so a
            # full adjacency build at the new radius would dwarf the
            # per-query cost — consume a cached CSR, never build one.
            csr = csr_fast_path(
                index, new_radius, coloring, prune=prune, build=False
            )
            scan_cover(
                index, new_radius, coloring,
                prune=prune, tracker=tracker, selected=added, csr=csr,
            )
    finally:
        index.detach_coloring()

    return DiscResult(
        selected=list(previous.selected) + added,
        radius=new_radius,
        algorithm="Greedy-Zoom-In" if greedy else "Zoom-In",
        stats=consume_stats(index, before),
        coloring=coloring,
        closest_black=tracker.distances,
        meta={
            "previous_radius": previous.radius,
            "added": list(added),
            "closest_black_exact": True,
            "prune": prune,
        },
    )


_ZOOM_OUT_VARIANTS = ("a", "b", "c")


def zoom_out(
    index: NeighborIndex,
    previous: DiscResult,
    new_radius: float,
    *,
    greedy_variant: Optional[str] = None,
    prune: bool = False,
) -> DiscResult:
    """Adapt ``previous`` to a larger radius (Zoom-Out / Greedy-Zoom-Out).

    ``greedy_variant`` selects the first-pass ordering of Algorithm 3:
    ``None`` processes reds in index order (plain ``Zoom-Out``);
    ``"a"``/``"b"``/``"c"`` use most-red-neighbors, fewest-red-neighbors,
    most-white-neighbors respectively.  Greedy variants also run the
    second (coverage) pass greedily; the arbitrary variant scans.
    """
    new_radius = validate_radius(new_radius, name="new_radius")
    if new_radius <= previous.radius:
        raise ValueError(
            f"zoom-out needs a larger radius: {new_radius} <= {previous.radius}"
        )
    if greedy_variant is not None and greedy_variant not in _ZOOM_OUT_VARIANTS:
        raise ValueError(
            f"greedy_variant must be one of {_ZOOM_OUT_VARIANTS} or None, "
            f"got {greedy_variant!r}"
        )
    before = index.stats.snapshot()

    # Pass 0: previous blacks become red, everything else white.
    coloring = Coloring(index.n)
    for black in previous.selected:
        coloring.set_red(black)
    index.attach_coloring(coloring)
    tracker = ClosestBlackTracker(index, exact=True)

    selected: List[int] = []
    try:
        if greedy_variant is None:
            self_order = [i for i in index.ids() if coloring.is_red(i)]
            for red in self_order:
                if not coloring.is_red(red):
                    continue
                _select_zoom_out(index, coloring, tracker, red, new_radius, selected, prune)
        else:
            # The red pass touches every red's full neighborhood; with a
            # cached CSR at the new radius it runs as array primitives
            # (building one here would dwarf the pass, so consume only).
            csr = csr_fast_path(index, new_radius, coloring, prune=prune, build=False)
            if csr is not None:
                _greedy_red_pass_csr(
                    index, csr, coloring, tracker, selected, greedy_variant
                )
            else:
                _greedy_red_pass(
                    index, coloring, tracker, new_radius, selected,
                    greedy_variant, prune,
                )

        # Pass 2: cover areas the removed reds left uncovered.
        if greedy_variant is None:
            for object_id in index.ids():
                if not coloring.is_white(object_id):
                    continue
                _select_zoom_out(
                    index, coloring, tracker, object_id, new_radius, selected, prune
                )
        else:
            greedy_cover(
                index,
                new_radius,
                coloring,
                include_grey_candidates=False,
                update_variant="grey",
                prune=prune,
                tracker=tracker,
                selected=selected,
            )
    finally:
        index.detach_coloring()

    name = (
        "Zoom-Out"
        if greedy_variant is None
        else f"Greedy-Zoom-Out ({greedy_variant})"
    )
    return DiscResult(
        selected=selected,
        radius=new_radius,
        algorithm=name,
        stats=consume_stats(index, before),
        coloring=coloring,
        closest_black=tracker.distances,
        meta={
            "previous_radius": previous.radius,
            "kept": sorted(set(selected) & previous.selected_set()),
            "closest_black_exact": True,
            "greedy_variant": greedy_variant,
            "prune": prune,
        },
    )


def _select_zoom_out(
    index: NeighborIndex,
    coloring: Coloring,
    tracker: ClosestBlackTracker,
    object_id: int,
    radius: float,
    selected: List[int],
    prune: bool,
) -> None:
    """Select ``object_id`` in a zoom-out pass: black it and grey its
    neighborhood (reds inside become covered and leave the solution)."""
    coloring.set_black(object_id)
    selected.append(object_id)
    neighbors = query_neighbors(index, object_id, radius, prune=prune)
    for neighbor in neighbors:
        if coloring.is_white(neighbor) or coloring.is_red(neighbor):
            coloring.set_grey(neighbor)
    tracker.record_black(object_id, neighbors)


def _greedy_red_pass(
    index: NeighborIndex,
    coloring: Coloring,
    tracker: ClosestBlackTracker,
    radius: float,
    selected: List[int],
    variant: str,
    prune: bool,
) -> None:
    """First pass of Greedy-Zoom-Out: process reds in variant order.

    Each red's neighborhood is probed once up front; counts are then
    maintained in memory through a reverse-adjacency map, so the pass
    costs one range query per red plus the selection queries.
    """
    reds = [i for i in range(index.n) if coloring.is_red(i)]
    adjacency: Dict[int, List[int]] = {}
    red_counts = np.zeros(index.n, dtype=np.int64)
    white_counts = np.zeros(index.n, dtype=np.int64)
    touching: Dict[int, List[int]] = {}
    if prune:
        neighborhoods = [
            query_neighbors(index, red, radius, prune=True) for red in reds
        ]
    else:
        # One batched probe for the whole red set (vectorised on the
        # simple indexes, per-query fidelity on the M-tree).
        neighborhoods = index.range_query_batch(reds, radius)
    codes = coloring.codes_view()
    red_code, white_code = int(Color.RED), int(Color.WHITE)
    for red, neighbors in zip(reds, neighborhoods):
        neighbor_arr = np.asarray(neighbors, dtype=np.int64)
        adjacency[red] = neighbor_arr
        local = codes[neighbor_arr]
        red_counts[red] = int(np.count_nonzero(local == red_code))
        white_counts[red] = int(np.count_nonzero(local == white_code))
        for neighbor in neighbor_arr.tolist():
            touching.setdefault(neighbor, []).append(red)

    if variant == "a":
        priority = lambda i: int(red_counts[i])
    elif variant == "b":
        priority = lambda i: -int(red_counts[i])
    else:  # "c"
        priority = lambda i: int(white_counts[i])

    heap = LazyMaxHeap()
    for red in reds:
        heap.push(red, priority(red))

    def on_recolor(changed_id: int, was_red: bool) -> None:
        """A neighbor stopped being red/white: refresh affected reds."""
        for red in touching.get(changed_id, ()):
            if not coloring.is_red(red):
                continue
            if was_red:
                red_counts[red] -= 1
            else:
                white_counts[red] -= 1
            heap.push(red, priority(red))

    token = current_token()
    iterations = 0
    while coloring.any_red():
        iterations += 1
        if token is not None and iterations % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        pick = heap.pop_valid(priority, coloring.is_red)
        if pick is None:
            raise RuntimeError("red pass lost track of remaining red objects")
        coloring.set_black(pick)
        selected.append(pick)
        neighbors = adjacency[pick]
        for neighbor in neighbors:
            if coloring.is_red(neighbor):
                coloring.set_grey(neighbor)
                on_recolor(neighbor, was_red=True)
            elif coloring.is_white(neighbor):
                coloring.set_grey(neighbor)
                on_recolor(neighbor, was_red=False)
        tracker.record_black(pick, neighbors)
        # The pick itself stopped being red.
        on_recolor(pick, was_red=True)


_RED_MODES = {"a": MODE_RED_A, "b": MODE_RED_B, "c": MODE_RED_C}


def _greedy_red_pass_csr(
    index: NeighborIndex,
    csr,
    coloring: Coloring,
    tracker: ClosestBlackTracker,
    selected: List[int],
    variant: str,
) -> None:
    """:func:`_greedy_red_pass` over a cached CSR or blocked adjacency,
    in the compiled kernel.

    Selection order is identical to the heap-driven pass: the next pick
    is the red object with the best variant priority, ties broken by
    the smaller id.  One dense score array holds the counter the
    variant reads — red counts for "a" (argmax) and "b" (argmin), white
    counts for "c" (argmax) — with a sentinel on every non-red that can
    never win.  Count maintenance follows the same rule as the heap
    pass: every object that stops being red (resp. white) decrements
    the counter of each of its neighbors, in place.  Counters of
    non-reds are never read again, so the decrements that land on the
    sentinels are harmless.

    The kernel seeds the counters from the reds' own rows (a few
    hundred objects, not the adjacency).
    """
    # Legacy accounting: one up-front probe per red object.
    index.stats.range_queries += coloring.count(Color.RED)
    # Variant "b" wants the fewest red neighbors: argmin, so its
    # sentinel sits at the top instead.
    kernel_select(
        index, csr, coloring, None, _RED_MODES[variant],
        batch=CHECKPOINT_EVERY, tracker=tracker, selected=selected,
        sentinel=-NEG_INF if variant == "b" else NEG_INF,
    )


def local_zoom(
    index: NeighborIndex,
    previous: DiscResult,
    center_id: int,
    new_radius: float,
    *,
    greedy: bool = True,
) -> DiscResult:
    """Zoom in or out *locally* around one object of interest.

    Per Section 5.2, the zooming algorithm receives only the objects in
    ``N_r(center)``: the area around ``center`` is re-diversified at
    ``new_radius`` while the rest of the previous solution is kept
    verbatim.  The direction (in/out) follows from comparing
    ``new_radius`` with the previous radius.
    """
    from repro.index.bruteforce import BruteForceIndex

    if center_id not in previous.selected_set():
        raise ValueError(
            f"local zoom centers on a selected object; {center_id} is not in "
            "the previous solution"
        )
    before = index.stats.snapshot()
    area = query_neighbors(index, center_id, previous.radius)
    area_ids = sorted(set(area) | {center_id})
    position = {global_id: local_id for local_id, global_id in enumerate(area_ids)}

    sub_index = BruteForceIndex(index.points[area_ids], index.metric)
    local_blacks = [position[b] for b in previous.selected if b in position]
    local_tracker = recompute_closest_black(sub_index, local_blacks, previous.radius)
    local_previous = DiscResult(
        selected=local_blacks,
        radius=previous.radius,
        algorithm=previous.algorithm,
        closest_black=local_tracker.distances,
        meta={"closest_black_exact": True},
    )
    if new_radius < previous.radius:
        local_result = zoom_in(sub_index, local_previous, new_radius, greedy=greedy)
    else:
        local_result = zoom_out(
            sub_index,
            local_previous,
            new_radius,
            greedy_variant="a" if greedy else None,
        )

    outside = [b for b in previous.selected if b not in position]
    inside = [area_ids[local_id] for local_id in local_result.selected]
    stats = consume_stats(index, before)
    stats.range_queries += local_result.stats.range_queries
    stats.distance_computations += local_result.stats.distance_computations

    return DiscResult(
        selected=outside + inside,
        radius=previous.radius,
        algorithm=f"Local-{local_result.algorithm}",
        stats=stats,
        meta={
            "center": center_id,
            "local_radius": new_radius,
            "area_size": len(area_ids),
            "inside": inside,
            "outside": outside,
        },
    )
