"""Incrementally maintained fixed-radius adjacency (live datasets).

:func:`repro.graph.csr.build_csr_grid` answers the static question —
materialise ``G_{P,r}`` once for an immutable point set.  A *live*
dataset (``repro.live``) appends and deletes points while the serving
layer keeps selling selections against the current version, and a full
rebuild per mutation batch would charge every request O(build) for a
delta that touched a handful of grid cells.

:class:`IncrementalNeighborhood` fixes a grid plan at construction —
origin, cell edge, offset classification — and keeps three things:

* **the directory** — the integer cell key of every global id, extended
  by each append; the whole index a radius query needs;
* **the origin** — the last full-length snapshot ``(alive mask,
  compacted CSR)``, at first a grid build over the alive points;
* **the overlay** — only the edges added since the origin, one CSR over
  all ``n`` global ids; a new origin empties it.

**Query** (:meth:`_query`): the edges from some ids to the ids an alive
mask marks.  The marked ids inside the query's key box (widened by the
offsets' reach) are grouped by cell, and every query key plus kept
offset is joined against those cells with one ``searchsorted``
(:func:`~repro.graph.csr._cell_finder`, shared with the grid build).
The hit cells expand with :func:`~repro.graph.csr._flat_row_positions`;
auto-class pairs are edges outright, compute-class pairs pass one
``metric.paired`` test per batch of candidate pairs.

* **append**: the new ids join the directory and one query links them
  to the ids the caller's mask marks (batch-mates included).  Forward
  and reverse entries are sorted once by (row, col) and inserted at
  their rows' ends: every batch id exceeds every id the overlay holds,
  so rows stay ascending.  Edges to dead ids are never stored — no mask
  covering the new ids marks them alive.  Once the overlay plus twice
  the origin's dead entries outgrow the origin (a bucket nobody reads),
  append advances the origin: the state stays within twice its live part.
* **delete**: an alive-mask concern; compaction and :meth:`rows` filter.

Compaction (:meth:`snapshot_csr`) advances from the origin.  Dead ids
never revive, so a newer mask is a forward step: remap the origin's
local ids through the new lookup, drop the newly dead rows and columns,
and append each row's overlay entries (all later ids).  The cost is the
origin's edges plus the delta, in row batches of about a million
entries.  A mask marking alive an id the origin marks dead belongs to a
reader pinned before the origin, which cannot answer it: it gets a
fresh grid build over its alive points, counted in
``stale_mask_rebuilds``.

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

from typing import Optional, Tuple

import numpy as np

from repro.cancellation import current_token
from repro.graph.csr import (
    CSRNeighborhood,
    CellDirectory,
    _assemble_grid_csr,
    _classify_offsets,
    _flat_row_positions,
    _PAIR_AUTO,
    _plan_grid,
    _row_batches,
    build_csr_grid,
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
    construction and ``alive`` its alive mask (default: every id); ids
    are arrival positions and never change.  The structure keeps a
    *reference* to the caller's current full array via :meth:`append`
    (the live dataset owns the coordinates; this class owns the
    adjacency and the cell directory).
    """

    def __init__(
        self, points, metric, radius: float, alive: Optional[np.ndarray] = None
    ) -> None:
        radius = validate_radius(radius)
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        self.metric = metric
        self.radius = float(radius)
        self.n = int(points.shape[0])
        self.dim = int(points.shape[1])
        self._points = points
        #: Non-forward masks answered by a fresh build (see module doc).
        self.stale_mask_rebuilds = 0
        alive = np.ones(self.n, bool) if alive is None else np.asarray(alive, bool)
        kept = points[alive]
        if kept.shape[0]:
            plan = _plan_grid(kept, metric, radius, None)
            self.cell = plan.cell
            self.resolution = plan.resolution
            origin = _assemble_grid_csr(kept, metric, radius, plan)
        else:
            self.resolution = 1
            self.cell = float(radius) if radius > 0 else 1.0
            origin = CSRNeighborhood.empty()
        # The grid origin is pinned forever: later points may bin to
        # negative keys, which the directory handles transparently.
        self._origin = points.min(axis=0) if self.n else np.zeros(self.dim)
        self._offsets, self._classes = _classify_offsets(
            metric, radius, self.cell, self.dim, self.resolution
        )
        self._reach = int(np.abs(self._offsets).max())
        #: Cell key of every global id (the directory).
        self._keys = self._cell_keys(points)
        self._install(alive.copy(), origin)

    def _cell_keys(self, points: np.ndarray) -> np.ndarray:
        return np.floor((points - self._origin) / self.cell).astype(np.int64)

    def _install(self, mask: np.ndarray, csr: CSRNeighborhood) -> None:
        """Make ``(mask, csr)`` the origin; the overlay starts empty."""
        self._last = (mask, csr)
        #: Ids linked by every append since the origin (see rows()).
        self._linked = mask
        #: Origin entries incident to ids dead since (an upper bound).
        self._dead = 0
        self._overlay_indptr = np.zeros(self.n + 1, dtype=np.int64)
        self._overlay_indices = np.empty(0, dtype=np.int32)

    def _forward(self, alive: np.ndarray) -> bool:
        """No id alive in ``alive`` is dead in the origin."""
        size = min(alive.size, self._last[0].size)
        return not np.any(alive[:size] > self._last[0][:size])

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident footprint of the origin and overlay CSR arrays (O(1))."""
        overlay = self._overlay_indptr.nbytes + self._overlay_indices.nbytes
        return int(self._last[1].nbytes + overlay)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _query(self, ids, alive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbours of ``ids`` among the ids ``alive`` marks, self
        excluded: ``(indptr, indices)`` with one ascending ``int32`` row
        per id (see the module doc)."""
        ids = np.asarray(ids, dtype=np.int64)
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        if ids.size == 0:
            return indptr, np.empty(0, dtype=np.int32)
        query = self._keys[ids]
        lo = query.min(axis=0) - self._reach
        hi = query.max(axis=0) + self._reach
        inside = alive.copy()
        for j in range(self.dim):  # repro-lint: disable=checkpoint-in-hot-loop -- loops over key dimensionality, not data
            column = self._keys[: alive.size, j]
            inside &= (column >= lo[j]) & (column <= hi[j])
        candidates = np.flatnonzero(inside)
        if candidates.size == 0:
            return indptr, np.empty(0, dtype=np.int32)
        keys = np.take(self._keys, candidates, axis=0)
        directory = CellDirectory(keys)
        members = candidates[directory.members]
        member_ptr = directory.ptr
        cells = directory.find(query[:, None, :] + self._offsets)
        hit_rows, hit_offsets = np.nonzero(cells >= 0)
        cells = cells[hit_rows, hit_offsets]
        auto = self._classes[hit_offsets] == _PAIR_AUTO
        row_len = np.bincount(hit_rows, np.diff(member_ptr)[cells], ids.size)
        cuts = _row_batches(row_len.astype(np.int64), self.dim)
        hit_cuts = np.searchsorted(hit_rows, cuts)
        parts = []
        token = current_token()
        for h0, h1 in zip(hit_cuts[:-1].tolist(), hit_cuts[1:].tolist()):
            if token is not None:
                token.checkpoint()
            positions, lengths = _flat_row_positions(member_ptr, cells[h0:h1])
            cols = np.take(members, positions)
            at = np.repeat(hit_rows[h0:h1], lengths)
            src = np.take(ids, at)
            keep = np.repeat(auto[h0:h1], lengths)
            compute = np.flatnonzero(~keep)
            if compute.size:
                keep[compute] = self.metric.paired(
                    np.take(self._points, np.take(src, compute), axis=0),
                    np.take(self._points, np.take(cols, compute), axis=0),
                ) <= self.radius
            keep &= cols != src
            # One sort per batch on the fused (row, col) key: batches
            # cover consecutive rows, so the parts concatenate sorted.
            fused = np.compress(keep, at) * np.int64(self.n)
            fused += np.compress(keep, cols)
            fused.sort()
            parts.append(fused)
        at, cols = np.divmod(np.concatenate(parts), self.n)
        np.cumsum(np.bincount(at, minlength=ids.size), out=indptr[1:])
        return indptr, cols.astype(np.int32)

    def rows(self, ids, alive: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The ``alive`` neighbours (a mask over every id) of each of
        ``ids``, dead or not: ``(indptr, indices)``, ascending int32 rows.

        Ids linked by every append since the origin read the origin row,
        then the overlay row, in one gather.  Others — a batch's deleted
        blacks after a snapshot at its version, ids deleted before the
        last append — go through :meth:`_query`."""
        ids = np.asarray(ids, dtype=np.int64)
        alive = np.asarray(alive, dtype=bool)
        mask, csr = self._last
        at = np.arange(ids.size, dtype=np.int64)
        stored = self._linked[ids]
        if not self._forward(alive):
            stored[:] = False  # the origin misses edges to ids it marks dead
        origin_ids = np.flatnonzero(mask)
        held = stored & (ids < mask.size)
        local = np.searchsorted(origin_ids, ids[held])
        positions, origin_len = _flat_row_positions(csr.indptr, local)
        origin_cols = np.take(origin_ids, np.take(csr.indices, positions))
        positions, overlay_len = _flat_row_positions(
            self._overlay_indptr, ids[stored]
        )
        overlay_cols = np.take(self._overlay_indices, positions)
        query_ptr, query_cols = self._query(ids[~stored], alive)
        # Each part is grouped by request row; a stable sort on the row
        # merges the three runs, keeping origin before overlay.
        row_of = np.concatenate((
            np.repeat(at[held], origin_len),
            np.repeat(at[stored], overlay_len),
            np.repeat(at[~stored], np.diff(query_ptr)),
        ))
        cols = np.concatenate((origin_cols, overlay_cols, query_cols))
        keep = np.take(alive, cols)
        row_of = np.compress(keep, row_of)
        order = np.argsort(row_of, kind="stable")
        indptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of, minlength=ids.size), out=indptr[1:])
        return indptr, np.compress(keep, cols)[order].astype(np.int32)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self, points: np.ndarray, count: int, alive: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Admit the ``count`` newest rows of ``points`` into the graph.

        ``points`` is the live dataset's *full* coordinate array after
        the mutation (the new rows are its tail); the reference replaces
        the one held so far.  The new ids are linked only to the ids
        ``alive`` marks (``None``: every id) — the dataset passes its
        mask after the inserts and before the batch's deletes.  Returns
        the new ids.  Cost: one :meth:`_query` for the batch plus one
        linear merge into the overlay, which holds only the edges since
        the origin.
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
        self._keys = np.concatenate((self._keys, self._cell_keys(points[start:])))
        alive = np.ones(self.n, bool) if alive is None else np.asarray(alive, bool)
        indptr, cols = self._query(new_ids, alive)
        mask, csr = self._last
        died = self._linked[: mask.size] & ~alive[: mask.size]
        self._dead += 2 * int(np.diff(csr.indptr)[died[mask]].sum())
        self._linked = np.concatenate((self._linked, np.ones(count, bool))) & alive
        self._merge_overlay(np.repeat(new_ids, np.diff(indptr)), cols, start)
        # Origin + overlay stay within twice the origin's live entries.
        if self._overlay_indptr[-1] + 2 * self._dead > csr.nnz and self._forward(alive):
            self.snapshot_csr(alive)
        return new_ids

    def _merge_overlay(
        self, fwd_src: np.ndarray, fwd_dst: np.ndarray, batch_start: int
    ) -> None:
        """Fold one batch's forward edges into the overlay CSR.

        Each forward edge into a pre-batch point also needs its reverse
        entry; batch-mates already see each other through their own
        forward rows, so reverse-linking them too would double the edge.
        The batch is sorted once by (row, col) and laid out behind each
        row's existing entries — every batch id exceeds every id the
        overlay already holds, so rows stay ascending.
        """
        old = fwd_dst < batch_start
        src = np.concatenate([fwd_src, fwd_dst[old]]).astype(np.int64)
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
        advances from the origin and, if full-length, becomes the new
        origin; any other mask gets a fresh grid build over its alive
        points.  The origin's own mask returns the origin itself.
        """
        alive = np.asarray(alive, dtype=bool)
        if alive.shape[0] > self.n:
            raise ValueError(
                f"alive mask has {alive.shape[0]} entries for {self.n} ids"
            )
        if not self._forward(alive):
            self.stale_mask_rebuilds += 1
            return build_csr_grid(
                self._points[: alive.size][alive], self.metric, self.radius
            )
        mask, csr = self._last
        if alive.size == mask.size and np.array_equal(alive, mask):
            return csr
        csr = self._advance(alive)
        if alive.size == self.n:
            self._install(alive.copy(), csr)
        return csr

    def _advance(self, alive: np.ndarray) -> CSRNeighborhood:
        """Advance the origin to the forward mask ``alive``: each kept
        origin row, then its kept overlay entries (see the module doc)."""
        mask, csr = self._last
        if alive.size < mask.size:  # older than the origin: the rest is dead
            alive = np.concatenate((alive, np.zeros(mask.size - alive.size, bool)))
        n = alive.size
        alive_ids = np.flatnonzero(alive)
        lookup = np.full(self.n, -1, dtype=np.int32)
        lookup[alive_ids] = np.arange(alive_ids.size, dtype=np.int32)
        origin_ids = np.flatnonzero(mask)
        # Origin local id -> new local id, -1 once dead.
        remap = np.take(lookup, origin_ids)
        tail_start = self._overlay_indptr[:n]
        tail_len = np.diff(self._overlay_indptr[: n + 1])
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
            f"nbytes={self.nbytes})"
        )
