"""Incrementally maintained fixed-radius adjacency (live datasets).

:func:`repro.graph.csr.build_csr_grid` answers the static question —
materialise ``G_{P,r}`` once for an immutable point set.  A *live*
dataset (``repro.live``) appends and deletes points while the serving
layer keeps selling selections against the current version, and a full
rebuild per mutation batch would charge every request O(build) for a
delta that touched a handful of grid cells.

:class:`IncrementalNeighborhood` retains the grid plan of the initial
build — origin, cell edge, offset classification — and keeps the
adjacency as two flat CSR levels over global ids:

* **base** — the initial build, rows ``0..n0-1``, never modified;
* **overlay** — every edge an append added since, one ``indptr`` over
  all ``n`` ids plus ``int32`` ``indices``.

A row is (base slice) + (overlay slice), already ascending: a base row
holds only ids below ``n0`` and the overlay only ids that arrived
later, and within the overlay every batch's ids exceed every earlier
batch's, so each merge appends a row's new entries after its old ones.

* **append**: new points are binned with the *original* origin/cell
  (keys may go negative; the cell directory is keyed by tuple, so the
  lattice extends for free).  Each batch emits edges only against the
  occupied cells within reach of the touched cells, reusing the
  :func:`~repro.graph.csr._classify_offsets` bound classes — provably
  in-radius cell pairs contribute edges *without computing a distance*,
  boundary pairs fall back to one vectorised ``metric.pairwise`` block.
  The batch's forward and reverse edges are sorted once by (row, col)
  and inserted at their rows' ends in one pass.  Cost is the touched
  cells' neighborhoods plus one linear copy of the overlay.
* **delete**: a deletion is an alive-mask concern, not a structural
  one — edges are geometric facts about points, so nothing is unlinked
  and :meth:`row` still lists dead neighbors.  Compaction drops them.

Compaction (:meth:`snapshot_csr`) advances from an *origin*: the last
snapshot produced, kept as ``(alive mask, compacted CSR, per-row
overlay length)`` — at first the base with every id alive.  Dead ids
never revive, so each newer mask is a forward step: remap the origin's
local ids through the new lookup (one gather), drop the newly dead rows
and columns (one compress), and append to each row its overlay *tail*,
the entries past the recorded length — the edges added since, already
at the row's end.  Ids inserted since have only a tail.  The cost is
the origin's edges plus the delta, not every edge ever built, and rows
go in batches of about a million entries into one preallocated output.
An older mask (a reader pinned to an earlier version) advances from the
base instead and leaves the origin alone.

The edge set is *identical* to a fresh
:func:`~repro.graph.csr.build_csr_grid` /
:func:`~repro.graph.csr.build_csr_pairwise` over the same alive points
(both are exact ``<= radius`` tests under the same metric), which is
what lets the serving layer migrate cached adjacencies across dataset
versions while keeping selections byte-identical to a recompute.  Like
the grid builder, the cell-pair bounds assume a Minkowski-family
metric (per-coordinate distance never exceeds the total) — callers
gate on the metric family.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cancellation import current_token
from repro.graph.csr import (
    CSRNeighborhood,
    _assemble_grid_csr,
    _classify_offsets,
    _PAIR_AUTO,
    _plan_grid,
    group_points_by_cell,
    pairwise_row_chunk,
)
from repro.validation import validate_radius

__all__ = ["IncrementalNeighborhood"]


#: Entries per advance batch: each batch's index arrays stay a few MB
#: whatever the snapshot's size.
_ADVANCE_BATCH = 1 << 20


def _kept_per_row(keep: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Kept entries per row of a flat stream cut into ``lengths`` rows
    (non-empty rows only: reduceat gives an empty one a stray element)."""
    counts = np.zeros(lengths.size, dtype=np.int64)
    rows = np.flatnonzero(lengths)
    if rows.size:
        starts = (np.cumsum(lengths) - lengths)[rows]
        counts[rows] = np.add.reduceat(keep.view(np.uint8), starts, dtype=np.int32)
    return counts


class IncrementalNeighborhood:
    """Fixed-radius adjacency over a growing point set with tombstones.

    ``points`` is the full (alive + dead) coordinate array at
    construction; ids are arrival positions and never change.  The
    structure keeps a *reference* to the caller's current full array
    via :meth:`append` (the live dataset owns the coordinates; this
    class owns the adjacency and the cell directory).
    """

    def __init__(self, points: np.ndarray, metric, radius: float) -> None:
        radius = validate_radius(radius)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        self.metric = metric
        self.radius = float(radius)
        self.n = int(points.shape[0])
        self.dim = int(points.shape[1])
        self._points = points
        #: Appends since construction as a CSR over all ``n`` global
        #: ids; every row ascending, every id later than the row's base
        #: neighbors.
        self._overlay_indptr = np.zeros(self.n + 1, dtype=np.int64)
        self._overlay_indices = np.empty(0, dtype=np.int32)

        if self.n:
            plan = _plan_grid(points, metric, radius, None)
            self.cell = plan.cell
            self.resolution = plan.resolution
        else:
            self.resolution = 1
            self.cell = float(radius) if radius > 0 else 1.0
        # The origin is pinned forever: later points may bin to negative
        # keys, which the tuple-keyed directory handles transparently.
        self._origin = (
            points.min(axis=0) if self.n else np.zeros(self.dim, dtype=float)
        )
        self._offsets, self._classes = _classify_offsets(
            metric, radius, self.cell, self.dim, self.resolution
        )
        #: Occupied cell -> member ids (ascending).
        self._cells: Dict[Tuple[int, ...], np.ndarray] = {}
        if self.n:
            members = plan.members.astype(np.int32)
            token = current_token()
            for i, key in enumerate(plan.ukeys.tolist()):
                if token is not None and i % 64 == 0:
                    token.checkpoint()
                self._cells[tuple(key)] = members[
                    plan.member_ptr[i] : plan.member_ptr[i + 1]
                ]
            self._base = _assemble_grid_csr(points, metric, radius, plan)
        else:
            self._base = CSRNeighborhood.empty()
        #: The snapshot origin ``(alive mask, compacted CSR, per-row
        #: overlay length)``: the last forward snapshot, at first the base.
        n0 = self._base.n
        self._first = (np.ones(n0, bool), self._base, np.zeros(n0, np.int64))
        self._last = self._first

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Directed adjacency entries, base plus overlay."""
        return self._base.nnz + int(self._overlay_indptr[-1])

    @property
    def nbytes(self) -> int:
        """Resident footprint of the four CSR arrays (O(1))."""
        return int(
            self._base.nbytes
            + self._overlay_indptr.nbytes
            + self._overlay_indices.nbytes
        )

    def row(self, object_id: int) -> np.ndarray:
        """All neighbor ids of ``object_id`` (ascending, alive or not)."""
        object_id = int(object_id)
        ptr = self._overlay_indptr
        overlay = self._overlay_indices[ptr[object_id] : ptr[object_id + 1]]
        if object_id >= self._base.n:
            return overlay
        base = self._base.neighbors(object_id)
        if overlay.size == 0:
            return base
        return np.concatenate([base, overlay])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, points: np.ndarray, count: int) -> np.ndarray:
        """Admit the ``count`` newest rows of ``points`` into the graph.

        ``points`` is the live dataset's *full* coordinate array after
        the mutation (the new rows are its tail); the reference replaces
        the one held so far.  Returns the new ids.  Cost: candidate
        gathering over the cells within reach of the touched cells, plus
        one linear merge of the batch's edges into the overlay.
        """
        points = np.asarray(points, dtype=float)
        if points.shape[0] != self.n + count or points.shape[1] != self.dim:
            raise ValueError(
                f"expected {self.n + count} x {self.dim} points, "
                f"got {points.shape}"
            )
        start = self.n
        self._points = points
        self.n += int(count)
        new_ids = np.arange(start, start + count, dtype=np.int32)
        if count == 0:
            return new_ids
        new_points = points[start:]
        keys = np.floor((new_points - self._origin) / self.cell).astype(np.int64)
        groups = group_points_by_cell(keys)
        # Register the batch in the cell directory first, so batch-mates
        # in reach of each other are candidates like anyone else.  Batch
        # ids exceed every registered id, so cells stay ascending.
        token = current_token()
        for i, group in enumerate(groups):
            if token is not None and i % 64 == 0:
                token.checkpoint()
            key = tuple(keys[group[0]].tolist())
            ids = (group + start).astype(np.int32)
            known = self._cells.get(key)
            self._cells[key] = ids if known is None else np.concatenate([known, ids])

        auto = (self._classes == _PAIR_AUTO).tolist()
        sources: List[np.ndarray] = []
        targets: List[np.ndarray] = []
        for i, group in enumerate(groups):
            if token is not None and i % 16 == 0:
                token.checkpoint()
            reach = (keys[group[0]] + self._offsets).tolist()
            cells: List[np.ndarray] = []
            auto_flags: List[bool] = []
            for key, is_auto in zip(reach, auto):
                cell = self._cells.get(tuple(key))
                if cell is not None:
                    cells.append(cell)
                    auto_flags.append(is_auto)
            candidates = np.concatenate(cells).astype(np.int64)
            auto_mask = np.repeat(auto_flags, [cell.size for cell in cells])
            order = np.argsort(candidates)
            src, dst = self._group_edges(
                group + start, candidates[order], auto_mask[order]
            )
            sources.append(src)
            targets.append(dst)
        self._merge_overlay(sources, targets, start)
        return new_ids

    def _group_edges(
        self,
        members: np.ndarray,
        candidates: np.ndarray,
        auto_mask: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Forward edges ``(member, neighbor)`` of one touched cell.

        ``candidates`` is ascending with ``auto_mask`` flagging the
        columns whose cell pair is provably within the radius.
        """
        compute_idx = np.flatnonzero(~auto_mask)
        compute_points = self._points[candidates[compute_idx]]
        chunk = pairwise_row_chunk(max(1, candidates.size), self.dim)
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for s in range(0, members.size, chunk):  # repro-lint: disable=checkpoint-in-hot-loop -- one block per iteration is bounded work; the caller's group loop checkpoints
            sub = members[s : s + chunk]
            hits = np.empty((sub.size, candidates.size), dtype=bool)
            hits[:] = auto_mask
            if compute_idx.size:
                block = self.metric.pairwise(
                    self._points[sub], compute_points
                )
                hits[:, compute_idx] = block <= self.radius
            # Mask each member's own entry (distance zero, or an auto
            # column when the self cell-pair is provably dense).
            self_pos = np.searchsorted(candidates, sub)
            in_range = self_pos < candidates.size
            rows_ok = np.flatnonzero(in_range)
            rows_ok = rows_ok[candidates[self_pos[rows_ok]] == sub[rows_ok]]
            hits[rows_ok, self_pos[rows_ok]] = False

            local_rows, local_cols = np.nonzero(hits)
            src_parts.append(sub[local_rows])
            dst_parts.append(candidates[local_cols])
        return np.concatenate(src_parts), np.concatenate(dst_parts)

    def _merge_overlay(
        self, sources: List[np.ndarray], targets: List[np.ndarray], batch_start: int
    ) -> None:
        """Fold one batch's forward edges into the overlay CSR.

        Each forward edge into a pre-batch point also needs its reverse
        entry; batch-mates already see each other through their own
        forward rows, so reverse-linking them too would double the edge.
        The batch is sorted once by (row, col) and laid out behind each
        row's existing entries — every batch id exceeds every id the
        overlay already holds, so rows stay ascending.
        """
        fwd_src = np.concatenate(sources)
        fwd_dst = np.concatenate(targets)
        old = fwd_dst < batch_start
        src = np.concatenate([fwd_src, fwd_dst[old]])
        dst = np.concatenate([fwd_dst, fwd_src[old]])
        order = np.argsort(src * np.int64(self.n) + dst)
        src, dst = src[order], dst[order]

        # Old rows keep their entries and gain the batch's at their end;
        # rows the batch created start empty at the overlay's end.
        ptr = self._overlay_indptr
        indptr = np.concatenate(
            [ptr, np.full(self.n + 1 - ptr.size, ptr[-1], dtype=np.int64)]
        )
        row_ends = indptr[src + 1]
        indptr[1:] += np.cumsum(np.bincount(src, minlength=self.n))
        self._overlay_indices = np.insert(self._overlay_indices, row_ends, dst)
        self._overlay_indptr = indptr

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def snapshot_csr(self, alive: np.ndarray) -> CSRNeighborhood:
        """The alive-only adjacency in *local* (compacted) id space.

        ``alive`` is a boolean mask over the first ``len(alive)`` ids
        (ids past its end arrived later and count as dead); local id
        ``i`` is the i-th alive global id (``np.flatnonzero(alive)``).
        The result equals a fresh grid/pairwise build over the alive
        points — same edges, same ascending rows, same dtypes — so
        cached snapshots can be migrated across dataset versions
        without breaking byte parity.

        A forward mask (none of its alive ids dead in the origin)
        advances from the origin and, if full-length, replaces it; an
        older version's mask advances from the base.  The same mask
        twice returns the same object.
        """
        alive = np.asarray(alive, dtype=bool)
        if alive.shape[0] > self.n:
            raise ValueError(
                f"alive mask has {alive.shape[0]} entries for {self.n} ids"
            )
        mask = self._last[0]
        # ``alive > mask``: alive now, dead in the origin.
        if alive.size < mask.size or np.any(alive[: mask.size] > mask):
            return self._advance(self._first, alive)
        csr = self._advance(self._last, alive)
        if csr is not self._last[1] and alive.size == self.n:
            self._last = (alive.copy(), csr, np.diff(self._overlay_indptr))
        return csr

    def _advance(self, origin: tuple, alive: np.ndarray) -> CSRNeighborhood:
        """Advance ``origin`` to the forward mask ``alive``: each kept
        origin row, then its kept overlay tail (see the module doc)."""
        mask, csr, overlay_len = origin
        if alive.size < mask.size:  # older than the base: the rest is dead
            alive = np.concatenate((alive, np.zeros(mask.size - alive.size, bool)))
        n = alive.size
        if n == mask.size and np.array_equal(alive, mask):
            return csr
        alive_ids = np.flatnonzero(alive)
        lookup = np.full(self.n, -1, dtype=np.int32)
        lookup[alive_ids] = np.arange(alive_ids.size, dtype=np.int32)
        origin_ids = np.flatnonzero(mask)
        # Origin local id -> new local id, -1 once dead.
        remap = np.take(lookup, origin_ids)
        ptr = self._overlay_indptr
        tail_start = ptr[:n].copy()
        tail_start[: mask.size] += overlay_len
        tail_len = ptr[1 : n + 1] - tail_start
        # Prefix sums of each row's output bound (origin row + tail).
        bound = np.zeros(n + 1, dtype=np.int64)
        bound[1:] = tail_len
        bound[origin_ids + 1] += np.diff(csr.indptr)
        np.cumsum(bound, out=bound)
        total = int(bound[-1])
        marks = np.arange(_ADVANCE_BATCH, total, _ADVANCE_BATCH)
        cuts = np.unique(np.concatenate(([0], np.searchsorted(bound, marks), [n])))
        origin_cuts = np.searchsorted(origin_ids, cuts)
        alive_cuts = np.searchsorted(alive_ids, cuts)
        indices = np.empty(total, dtype=np.int32)
        indptr = np.zeros(alive_ids.size + 1, dtype=np.int64)
        filled = 0
        token = current_token()
        for k in range(cuts.size - 1):
            if token is not None:
                token.checkpoint()
            g0, g1 = int(cuts[k]), int(cuts[k + 1])
            o0, o1 = int(origin_cuts[k]), int(origin_cuts[k + 1])
            # Origin rows: one gather remaps, one compress drops the dead.
            row_len = np.diff(csr.indptr[o0 : o1 + 1])
            cols = remap[csr.indices[csr.indptr[o0] : csr.indptr[o1]]]
            keep = cols >= 0
            keep &= np.repeat(remap[o0:o1] >= 0, row_len)
            kept = np.zeros(g1 - g0, dtype=np.int64)
            kept[origin_ids[o0:o1] - g0] = _kept_per_row(keep, row_len)
            cols = cols[keep]
            # Overlay tails of the batch's rows.
            lengths = tail_len[g0:g1]
            offsets = tail_start[g0:g1] - (np.cumsum(lengths) - lengths)
            positions = np.arange(int(lengths.sum()), dtype=np.int64)
            positions += np.repeat(offsets, lengths)
            tail = lookup[self._overlay_indices[positions]]
            keep = tail >= 0
            keep &= np.repeat(alive[g0:g1], lengths)
            tail_kept = _kept_per_row(keep, lengths)
            tail = tail[keep]
            # Each row's tail goes right after its origin survivors.
            out = indices[filled : filled + cols.size + tail.size]
            at = np.repeat(np.cumsum(kept), tail_kept) + np.arange(tail.size)
            slots = np.ones(out.size, dtype=bool)
            slots[at] = False
            out[at] = tail
            out[slots] = cols
            filled += out.size
            kept += tail_kept
            indptr[1 + alive_cuts[k] : 1 + alive_cuts[k + 1]] = kept[alive[g0:g1]]
        indices.resize(filled, refcheck=False)
        np.cumsum(indptr, out=indptr)
        return CSRNeighborhood(indptr, indices)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"IncrementalNeighborhood(n={self.n}, radius={self.radius}, "
            f"nnz={self.nnz}, cells={len(self._cells)})"
        )
