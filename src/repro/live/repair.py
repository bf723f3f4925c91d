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

    covered = csr.cover_mask(survivors_local)
    uncovered = ~covered
    added_local: list = []
    token = current_token()
    if np.any(uncovered):
        counts = csr.neighbor_counts(uncovered).astype(np.int64)
        iterations = 0
        while True:
            iterations += 1
            if token is not None and iterations % CHECKPOINT_EVERY == 0:
                token.checkpoint()
            frontier = np.flatnonzero(uncovered)
            if frontier.size == 0:
                break
            pick = int(frontier[np.argmax(counts[frontier])])
            added_local.append(pick)
            neighbors = csr.neighbors(pick).astype(np.int64)
            newly = neighbors[uncovered[neighbors]]
            uncovered[newly] = False
            uncovered[pick] = False
            sources = np.append(newly, np.int64(pick))
            csr.decrement(counts, sources)

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
    to the delta.  This function walks only that frontier against
    :meth:`~repro.graph.incremental.IncrementalNeighborhood.row` and
    produces the *same selection, pick for pick*, as
    :func:`repair_selection` over the compacted snapshot — without ever
    compacting, which is what keeps ``/mutate`` latency proportional to
    the batch instead of the dataset.

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
    previous_set = set(int(p) for p in previous_arr.tolist())

    # Candidate frontier: every alive point that *might* have lost its
    # coverage — the neighborhoods of deleted blacks — plus the batch's
    # alive inserts (brand new, coverage unknown).
    token = current_token()
    candidates: set = set()
    for i, dead in enumerate(deleted):
        if token is not None and i % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        dead = int(dead)
        if dead not in previous_set:
            continue  # a deleted white/grey never carried coverage
        row = adjacency.row(dead)
        if row.size:
            candidates.update(int(c) for c in row[alive[row]].tolist())
    for new_id in inserted:
        new_id = int(new_id)
        if 0 <= new_id < n_total and alive[new_id]:
            candidates.add(new_id)

    # Coverage check per candidate: a black neighbor (or being black)
    # means the survivor set still covers it.
    uncovered_ids: list = []
    rows_of: dict = {}
    for i, cand in enumerate(sorted(candidates)):
        if token is not None and i % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        if black[cand]:
            continue
        row = adjacency.row(cand)
        alive_row = row[alive[row]] if row.size else row
        if alive_row.size and bool(np.any(black[alive_row])):
            continue
        uncovered_ids.append(cand)
        rows_of[cand] = alive_row

    # Greedy-DisC restricted to the frontier subgraph.  Ordering u_arr
    # ascending (global ids) matches repair_selection's frontier order
    # (local ids, a monotone remap), so argmax tie-breaks identically
    # and the two paths emit the same picks.
    u_arr = np.asarray(uncovered_ids, dtype=np.int64)
    in_frontier = np.zeros(n_total, dtype=bool)
    if u_arr.size:
        in_frontier[u_arr] = True
    subs: list = []
    for i, gid in enumerate(u_arr.tolist()):
        if token is not None and i % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        row = rows_of[gid]
        subs.append(row[in_frontier[row]])
    counts = np.fromiter(
        (sub.size for sub in subs), dtype=np.int64, count=len(subs)
    )
    # Frontier ids -> positions in u_arr (ascending), in one pass.
    flat = np.concatenate(subs) if subs else np.empty(0, dtype=np.int64)
    sub_rows = np.split(np.searchsorted(u_arr, flat), np.cumsum(counts)[:-1])

    uncovered = np.ones(u_arr.shape[0], dtype=bool)
    added_global: list = []
    iterations = 0
    while True:
        iterations += 1
        if token is not None and iterations % CHECKPOINT_EVERY == 0:
            token.checkpoint()
        frontier = np.flatnonzero(uncovered)
        if frontier.size == 0:
            break
        pick = int(frontier[np.argmax(counts[frontier])])
        added_global.append(int(u_arr[pick]))
        neighbors = sub_rows[pick]
        newly = neighbors[uncovered[neighbors]]
        uncovered[newly] = False
        uncovered[pick] = False
        for source in np.append(newly, np.int64(pick)):
            counts[sub_rows[int(source)]] -= 1

    added_arr = np.asarray(sorted(added_global), dtype=np.int64)
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
