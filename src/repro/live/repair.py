"""Greedy selection repair after a mutation batch (the online analogue
of the paper's zooming: adapt, don't recompute).

Given the previous r-DisC diverse selection (global ids) and the
current version's adjacency, :func:`repair_selection` produces a valid
selection for the new version while keeping as much of the previous one
as possible:

1. **Survivors** — previous blacks still alive are kept verbatim.
   Deleting points never adds edges between the remaining ones, so the
   survivors stay pairwise dissimilar (Definition 1, condition 2).
2. **Uncovered frontier** — everything not within ``r`` of a survivor:
   the neighborhoods orphaned by deleted blacks plus any inserted
   points landing outside existing coverage.  By construction this
   frontier is local to the mutation delta.
3. **Greedy re-cover** — Greedy-DisC restricted to the frontier: pick
   the uncovered object covering the most uncovered objects, repeat.
   A pick is uncovered, hence not within ``r`` of any black — so
   independence is preserved as coverage is restored.

The result therefore satisfies *both* Definition 1 conditions exactly
(the test suite re-verifies with :func:`repro.core.verify.verify_disc`)
— the trade-off against a full recompute is not validity but which
valid maximal independent set you get: repair maximises overlap with
what the user is already looking at (the Jaccard-stability metric the
service bench reports), full recompute maximises nothing of the sort.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cancellation import CHECKPOINT_EVERY, current_token
from repro.core import _kernel
from repro.core._common import NEG_INF, LazyMaxHeap
from repro.core.coloring import Color
from repro.graph.csr import CSRNeighborhood

__all__ = ["jaccard", "repair_selection", "repair_selection_delta"]


def jaccard(a: Sequence[int], b: Sequence[int]) -> float:
    """Jaccard similarity of two id sets (1.0 when both are empty —
    nothing to disagree about)."""
    sa, sb = set(int(x) for x in a), set(int(x) for x in b)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def repair_selection(
    csr,
    alive_ids: np.ndarray,
    previous: Sequence[int],
) -> dict:
    """Repair ``previous`` (global ids) against the compacted adjacency.

    ``csr`` is the current version's alive-only adjacency in local id
    space; ``alive_ids`` maps local → global (ascending).  Returns a
    dict with the repaired selection in both id spaces plus the repair
    accounting; ``selected`` (global) is the wire payload, ``local``
    feeds verification and zooming.
    """
    alive_ids = np.asarray(alive_ids, dtype=np.int64)
    n = csr.n
    if alive_ids.shape[0] != n:
        raise ValueError(
            f"alive_ids has {alive_ids.shape[0]} entries for n={n}"
        )
    previous_arr = np.asarray(sorted(set(int(p) for p in previous)), dtype=np.int64)

    # Global -> local for the previous blacks that are still alive.
    pos = np.searchsorted(alive_ids, previous_arr)
    pos_clipped = np.minimum(pos, max(0, n - 1))
    if n and previous_arr.size:
        hit = (pos < n) & (alive_ids[pos_clipped] == previous_arr)
    else:
        hit = np.zeros(previous_arr.shape[0], dtype=bool)
    survivors_local = pos_clipped[hit].astype(np.int64)
    removed_global = previous_arr[~hit]

    uncovered = ~csr.cover_mask(survivors_local)
    added_local = _recover(csr, uncovered)

    added_arr = np.asarray(sorted(added_local), dtype=np.int64)
    selected_local = np.concatenate([survivors_local, added_arr]).astype(np.int64)
    selected_local.sort()
    selected_global = alive_ids[selected_local]
    return {
        "selected": [int(g) for g in selected_global],
        "local": [int(l) for l in selected_local],
        "kept": [int(g) for g in alive_ids[survivors_local]],
        "added": [int(g) for g in alive_ids[added_arr]],
        "removed": [int(g) for g in removed_global],
        "jaccard_previous": jaccard(selected_global, previous),
    }


def _recover(csr, uncovered: np.ndarray) -> list:
    """Greedy-DisC over the ``uncovered`` objects of ``csr`` (consumed):
    the picks in order, ties to the lowest id.

    Runs as the compiled kernel's Greedy-DisC pass, with uncovered as
    white and everything else as grey (neither a candidate nor a
    source); without the kernel, as the legacy lazy-heap greedy."""
    picks: list = []
    if not np.any(uncovered):
        return picks
    kernel = _kernel.load()
    if kernel is None:
        return _recover_heap(csr, uncovered)
    codes = np.where(uncovered, np.int8(Color.WHITE), np.int8(Color.GREY))
    for batch, _, _, _ in kernel.run(
        csr, codes, np.empty(csr.n, dtype=np.int64), _kernel.MODE_COVER,
        pool=int(np.count_nonzero(uncovered)), batch=CHECKPOINT_EVERY,
        sentinel=int(NEG_INF), seed=True,
    ):
        picks.extend(batch.tolist())
    return picks


def _recover_heap(csr, uncovered: np.ndarray) -> list:
    """The heap reference for :func:`_recover`: pop the uncovered object
    with the most uncovered neighbors (lowest id on ties), cover its
    neighborhood, and decrement around every newly covered object."""
    counts = csr.neighbor_counts(uncovered).astype(np.int64)
    heap = LazyMaxHeap()
    for object_id in np.flatnonzero(uncovered).tolist():
        heap.push(object_id, int(counts[object_id]))
    picks: list = []
    token = current_token()
    while heap:
        if token is not None and len(picks) % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        pick = heap.pop_valid(lambda i: int(counts[i]), lambda i: uncovered[i])
        if pick is None:
            break
        picks.append(pick)
        uncovered[pick] = False
        newly = [int(v) for v in csr.neighbors(pick) if uncovered[v]]
        uncovered[newly] = False
        for source in [pick] + newly:
            for other in csr.neighbors(source).tolist():
                if uncovered[other]:
                    counts[other] -= 1
                    heap.push(other, int(counts[other]))
    return picks


def repair_selection_delta(
    adjacency,
    alive: np.ndarray,
    previous: Sequence[int],
    *,
    deleted: Sequence[int] = (),
    inserted: Sequence[int] = (),
) -> dict:
    """O(delta) repair against the *incremental* adjacency (global ids).

    The :func:`repair_selection` greedy only ever reads two things: the
    uncovered set, and each uncovered object's count of uncovered
    neighbors.  When ``previous`` was the valid selection for the
    version immediately before this batch, the uncovered set is exactly
    (a) the alive neighborhoods orphaned by deleted blacks plus (b) the
    batch's inserts that landed outside surviving coverage — both local
    to the delta.  This function reads only that frontier, with one
    :meth:`~repro.graph.incremental.IncrementalNeighborhood.rows` call
    for the deleted blacks and one for the candidates, and produces the
    *same selection, pick for pick*, as :func:`repair_selection` over
    the compacted snapshot — without ever compacting, which is what
    keeps ``/mutate`` latency proportional to the batch instead of the
    dataset.

    Precondition: ``previous`` is the selection served for the
    pre-batch version and ``(inserted, deleted)`` is exactly that
    batch.  A ``previous`` that skipped versions may leave earlier
    orphans uncovered — clients that cannot guarantee freshness should
    pass ``verify`` to ``/mutate`` or recompute via ``/select``.
    """
    alive = np.asarray(alive, dtype=bool)
    n_total = int(alive.shape[0])
    previous_arr = np.asarray(
        sorted(set(int(p) for p in previous)), dtype=np.int64
    )
    in_range = (previous_arr >= 0) & (previous_arr < n_total)
    survives = np.zeros(previous_arr.shape[0], dtype=bool)
    survives[in_range] = alive[previous_arr[in_range]]
    survivors = previous_arr[survives]
    removed_global = previous_arr[~survives]

    black = np.zeros(n_total, dtype=bool)
    black[survivors] = True

    # Candidate frontier: every alive point that *might* have lost its
    # coverage — the neighborhoods of deleted blacks — plus the batch's
    # alive inserts (brand new, coverage unknown).
    deleted_arr = np.asarray(deleted, dtype=np.int64).reshape(-1)
    dead_blacks = deleted_arr[np.isin(deleted_arr, previous_arr)]
    _, orphans = adjacency.rows(dead_blacks, alive)
    inserted_arr = np.asarray(inserted, dtype=np.int64).reshape(-1)
    inserted_arr = inserted_arr[(inserted_arr >= 0) & (inserted_arr < n_total)]
    candidates = np.union1d(orphans, inserted_arr[alive[inserted_arr]])
    candidates = candidates[~black[candidates]]

    # Coverage check: a black neighbour means the survivors still cover
    # the candidate.  Black entries per row from one prefix sum.
    indptr, cols = adjacency.rows(candidates, alive)
    blacks = np.concatenate(([0], np.cumsum(black[cols])))
    covered = blacks[indptr[1:]] > blacks[indptr[:-1]]
    u_arr = candidates[~covered]

    # Greedy-DisC on the frontier subgraph, in positions of u_arr.  Its
    # ascending global ids match repair_selection's frontier order (local
    # ids, a monotone remap): same argmax tie-breaks, same picks.
    in_frontier = np.zeros(n_total, dtype=bool)
    in_frontier[u_arr] = True
    keep = in_frontier[cols] & np.repeat(~covered, np.diff(indptr))
    kept = np.concatenate(([0], np.cumsum(keep)))
    frontier = CSRNeighborhood(
        np.concatenate(([0], kept[indptr[1:]][~covered])),
        np.searchsorted(u_arr, np.compress(keep, cols)),
    )
    picks = _recover(frontier, np.ones(u_arr.size, dtype=bool))
    added_arr = np.sort(u_arr[np.asarray(picks, dtype=np.int64)])
    selected_global = np.concatenate([survivors, added_arr])
    selected_global.sort()
    alive_ids = np.flatnonzero(alive)
    selected_local = np.searchsorted(alive_ids, selected_global)
    return {
        "selected": [int(g) for g in selected_global],
        "local": [int(l) for l in selected_local],
        "kept": [int(g) for g in survivors],
        "added": [int(g) for g in added_arr],
        "removed": [int(g) for g in removed_global],
        "jaccard_previous": jaccard(selected_global, previous),
    }
