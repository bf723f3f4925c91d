"""CSR neighborhood engine — the shared fast substrate for DisC.

Every DisC heuristic reduces to repeated fixed-radius neighborhood
operations over ``G_{P,r}``: "how many white neighbors does p have?",
"which neighbors of p are still white?", "decrement the counts of
everything adjacent to these objects".  Done one Python ``list`` at a
time those operations cap the reproduction at paper scale (~10k
objects); done as array primitives over a compressed-sparse-row
adjacency they run at production scale.

:class:`CSRNeighborhood` stores the fixed-radius adjacency (self
excluded, rows ascending by neighbor id) as ``int64 indptr`` /
``int32 indices`` arrays and implements the three primitives the
heuristics need — per-object neighbor counts, batched count decrements
and cover masks — as single NumPy expressions (``np.bincount``,
boolean masks, fancy slicing) instead of per-neighbor Python loops.

Builders
--------
:func:`build_csr_pairwise`
    chunked vectorised ``metric.pairwise`` over row blocks; exact for
    every metric and the default for :class:`BruteForceIndex`.
:func:`build_csr_grid`
    grid binning with analytic cell-pair bounds (skip / auto / compute)
    for the Minkowski family.  Points are binned through
    :class:`CellDirectory`, the one cell index of the grid code (the
    live adjacency's queries and ``GridIndex`` use it too).  One plan
    (:func:`_plan_grid`) feeds this
    flat build, the blocked build (:mod:`repro.graph.blocked`) and the
    live adjacency's base (:mod:`repro.graph.incremental`), all
    assembled by :func:`_assemble_grid_csr`: a sorted candidate table
    per source cell, then rows expanded in ascending id order in
    bounded batches.  For the L2, L1 and L-infinity metrics each batch
    is one call into the compiled kernel (:mod:`repro.core._kernel`),
    which filters the candidates with the metric's ``paired``
    arithmetic inline and writes the kept ids in place; other metrics,
    or a process without a C compiler, run the same filter as large
    array passes (``np.take``, one row-aligned ``metric.paired`` per
    batch, ``np.compress``).  No Python runs per cell or per row, and
    both the kernel call and those passes drop the GIL, so concurrent
    cold builds use every core.
:meth:`CSRNeighborhood.from_edges` / :meth:`from_rows`
    assemble a CSR from edge arrays or per-row neighbor lists; used by
    the KD-tree (``query_pairs``) index.

The adjacency is immutable once built; algorithms carry their mutable
state (colors, counts) in separate dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.cancellation import current_token
from repro.validation import validate_radius

__all__ = [
    "CSRNeighborhood",
    "CellDirectory",
    "build_csr_pairwise",
    "build_csr_grid",
    "pairwise_row_chunk",
]

#: Soft memory budget (bytes) for one pairwise distance block.  The
#: chunk height is derived from this, the candidate count *and* the
#: dimensionality, so high-d workloads do not blow up on the ``(chunk,
#: n, d)`` broadcast intermediates of the Lp metrics.
DEFAULT_BLOCK_BYTES = 32_000_000


def pairwise_row_chunk(
    n_cols: int, dim: int, itemsize: int = 8, budget: int = DEFAULT_BLOCK_BYTES
) -> int:
    """Rows per pairwise block so ``chunk * n_cols * dim * itemsize``
    stays within ``budget`` (always at least 1)."""
    per_row = max(1, n_cols) * max(1, dim) * itemsize
    return max(1, int(budget // per_row))


def _flat_row_positions(indptr: np.ndarray, ids: np.ndarray, dtype=np.int64):
    """Flat positions of every entry of the requested CSR rows.

    The fused start/offset arithmetic shared by the gather paths (one
    ``np.repeat`` pass over the full length, no per-id Python loop):
    returns ``(positions, lengths)`` where ``positions`` indexes the
    layout's value array and ``lengths`` is each requested row's size.
    ``dtype`` narrows the position array when the caller knows the
    total entry count fits (int32 halves the traffic at large nnz).
    """
    starts = indptr[ids]
    lengths = indptr[ids + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=dtype), lengths
    offsets = np.zeros(ids.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    positions = np.arange(total, dtype=dtype)
    positions += np.repeat((starts - offsets).astype(dtype), lengths)
    return positions, lengths


class CSRNeighborhood:
    """Fixed-radius adjacency in compressed-sparse-row form.

    ``indptr`` has length ``n + 1``; the neighbors of object ``i`` are
    ``indices[indptr[i]:indptr[i+1]]``, ascending, never containing
    ``i`` itself.  All query primitives are pure NumPy.
    """

    __slots__ = ("n", "indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        # A single-entry indptr is the valid empty adjacency (n = 0):
        # builders return it for empty point sets so service callers
        # need no special-casing.
        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise ValueError("indptr must be 1-d with at least one entry")
        if indptr[0] != 0 or int(indptr[-1]) != len(indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        self.n = indptr.shape[0] - 1
        self.indptr = indptr
        self.indices = np.asarray(indices, dtype=np.int32)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        n: int,
        *,
        cols_sorted_within_rows: bool = False,
    ) -> "CSRNeighborhood":
        """Assemble from parallel edge arrays (directed, self-free).

        The edges may arrive in any order; they are sorted by (row,
        col) so every row comes out ascending.  Builders that already
        emit each row's columns in ascending order (and each row
        contiguously or not at all interleaved per row) can pass
        ``cols_sorted_within_rows`` to replace the composite-key sort
        with a single stable radix pass over the rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows and cols must have the same shape")
        if cols_sorted_within_rows:
            order = np.argsort(rows, kind="stable")
        else:
            # One radix sort on a fused (row, col) key beats np.lexsort
            # by ~2x at typical nnz.
            order = np.argsort(rows * np.int64(n) + cols, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols[order].astype(np.int32))

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "CSRNeighborhood":
        """Assemble from per-object neighbor iterables (index = object id)."""
        arrays = [np.asarray(row, dtype=np.int64) for row in rows]
        lengths = np.fromiter(
            (a.shape[0] for a in arrays), dtype=np.int64, count=len(arrays)
        )
        indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if arrays:
            indices = np.concatenate(arrays).astype(np.int32)
        else:
            indices = np.empty(0, dtype=np.int32)
        return cls(indptr, indices)

    @classmethod
    def empty(cls) -> "CSRNeighborhood":
        """The n = 0 adjacency (what every builder returns for no points)."""
        return cls(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------
    def to_shared_arrays(self) -> dict:
        """Flat ndarray views for zero-copy transport (shm segments).

        The counterpart of :meth:`from_shared_arrays`; both ends agree
        on the key names, dtypes are preserved by the segment layout.
        """
        return {"indptr": self.indptr, "indices": self.indices}

    @classmethod
    def from_shared_arrays(cls, arrays: dict) -> "CSRNeighborhood":
        """Rebuild from :meth:`to_shared_arrays` output.

        The arrays may be read-only views over a shared-memory segment;
        the constructor never copies matching-dtype inputs, so workers
        attach zero-copy.
        """
        return cls(arrays["indptr"], arrays["indices"])

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (directed) adjacency entries."""
        return int(self.indptr[-1])

    @property
    def nbytes(self) -> int:
        """Resident footprint of the adjacency arrays.

        The cache hook read by :class:`~repro.engines.cache.
        AdjacencyCache` when a byte budget bounds how many radii a
        session keeps materialised.
        """
        return int(self.indptr.nbytes + self.indices.nbytes)

    @property
    def degrees(self) -> np.ndarray:
        """``|N_r(p_i)|`` for every object (self excluded)."""
        return np.diff(self.indptr)

    def neighbors(self, object_id: int) -> np.ndarray:
        """The neighbor ids of one object (ascending, int32 view)."""
        return self.indices[self.indptr[object_id] : self.indptr[object_id + 1]]

    # ------------------------------------------------------------------
    # Bulk primitives
    # ------------------------------------------------------------------
    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of ``ids`` (duplicates preserved).

        Equivalent to ``np.concatenate([self.neighbors(i) for i in
        ids])`` without the per-id Python loop: the flat positions of
        every requested row are generated arithmetically.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int32)
        dtype = np.int32 if self.nnz <= np.iinfo(np.int32).max else np.int64
        positions, _ = _flat_row_positions(self.indptr, ids, dtype=dtype)
        if positions.size == 0:
            return np.empty(0, dtype=np.int32)
        return self.indices[positions]

    def neighbor_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-object count of neighbors selected by the boolean ``mask``.

        ``counts[i] = |{ q in N_r(p_i) : mask[q] }|`` — with an all-True
        mask this is :attr:`degrees`.  Greedy-DisC seeds its priority
        structure with ``neighbor_counts(white_mask)``.

        The adjacency is symmetric, so ``q`` in the mask adds one to the
        count of each of its own neighbors: the counts are a bincount
        over the masked rows.  Whichever side of the mask has the
        smaller degree sum is gathered — the masked rows directly, or
        the unmasked ones subtracted from :attr:`degrees` — so the cost
        is proportional to the smaller side's edges plus O(n), never to
        the whole adjacency.  Zoom-out seeds from a few hundred reds;
        zoom-in and a fresh selection seed from the complement.
        """
        mask = np.asarray(mask, dtype=bool)
        degrees = self.degrees
        inside = np.flatnonzero(mask)
        if 2 * int(degrees[inside].sum()) <= self.nnz:
            return np.bincount(self.gather(inside), minlength=self.n)
        outside = np.flatnonzero(~mask)
        return degrees - np.bincount(self.gather(outside), minlength=self.n)

    def decrement(self, counts: np.ndarray, sources: np.ndarray) -> None:
        """Grey update rule, in place: every object in ``sources`` (objects
        that just stopped being white) decrements ``counts`` of each of
        its neighbors once, so an object adjacent to several sources
        loses several counts.

        Only the weighted extension (:mod:`repro.core.extensions.
        weighted`) calls this: its blended score is not linear in the
        count, so it cannot run in the compiled selection kernel
        (:mod:`repro.core._kernel`), which applies the same rule in C
        for every other greedy pass.

        Every neighbor is decremented, candidate or not: callers never
        read the count of an object that left the candidate pool (the
        selection loops park it at a sentinel no decrement brings back
        into range), so no filter pass is needed.  One gather, then
        ``np.subtract.at`` (O(k)) up to ``2n`` entries and one
        ``bincount`` (O(n + k)) beyond, where it is the faster of the
        two.
        """
        touched = self.gather(sources)
        if touched.size < 2 * self.n:
            np.subtract.at(counts, touched, 1)
        else:
            counts -= np.bincount(touched, minlength=self.n)

    def cover_mask(
        self, ids: np.ndarray, *, include_sources: bool = True
    ) -> np.ndarray:
        """Boolean mask of everything within one hop of ``ids``.

        With ``include_sources`` the selected objects themselves are in
        the mask — i.e. the mask of objects covered when ``ids`` are
        selected at this radius (``N+_r`` union).
        """
        ids = np.asarray(ids, dtype=np.int64)
        mask = np.zeros(self.n, dtype=bool)
        mask[self.gather(ids)] = True
        if include_sources and ids.size:
            mask[ids] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CSRNeighborhood(n={self.n}, nnz={self.nnz})"


def build_csr_pairwise(
    points: np.ndarray,
    metric,
    radius: float,
    *,
    stats=None,
    block_bytes: int = DEFAULT_BLOCK_BYTES,
) -> CSRNeighborhood:
    """Exact CSR adjacency via chunked vectorised ``metric.pairwise``.

    Row blocks are sized from the cardinality *and* dimensionality so
    peak memory stays near ``block_bytes`` regardless of the metric's
    broadcast intermediates.  When ``stats`` (an
    :class:`~repro.index.base.IndexStats`) is given, the evaluated
    distances are charged to ``distance_computations``.
    """
    radius = validate_radius(radius)
    points = np.asarray(points)
    n = points.shape[0]
    if n == 0:
        return CSRNeighborhood.empty()
    dim = points.shape[1] if points.ndim == 2 else 1
    chunk = pairwise_row_chunk(n, dim)
    rows_acc: List[np.ndarray] = []
    cols_acc: List[np.ndarray] = []
    token = current_token()
    for start in range(0, n, chunk):
        # Adjacency builds dominate cold-cache request latency, so the
        # chunk loop is a cancellation checkpoint: a deadline expiring
        # mid-build frees the worker instead of finishing a matrix
        # nobody will read.
        if token is not None:
            token.checkpoint()
        block = metric.pairwise(points[start : start + chunk], points)
        if stats is not None:
            stats.distance_computations += block.size
        local_rows, cols = np.nonzero(block <= radius)
        rows = local_rows.astype(np.int64) + start
        keep = rows != cols
        rows_acc.append(rows[keep])
        cols_acc.append(cols[keep])
    rows = np.concatenate(rows_acc) if rows_acc else np.empty(0, dtype=np.int64)
    cols = np.concatenate(cols_acc) if cols_acc else np.empty(0, dtype=np.int64)
    # Blocks are generated in ascending row order with ascending cols,
    # so only the cheap stable row pass is needed.
    return CSRNeighborhood.from_edges(rows, cols, n, cols_sorted_within_rows=True)


class CellDirectory:
    """Row indices grouped by integer cell key: the grid code's one cell
    index, shared by the grid builds, the live adjacency's queries and
    :class:`~repro.index.grid.GridIndex`.

    Built from the ``(n, d)`` integer cell keys of ``n >= 1`` rows:
    occupied cell ``c`` — cells in lexicographic key order — has key
    ``keys[c]`` and holds the rows ``members[ptr[c]:ptr[c+1]]``,
    ascending.  Each key fuses into one int64 (its offset in the keys'
    bounding box, axis by axis, so fused order is lex order) and one
    stable argsort groups them; :meth:`find` joins query keys with one
    ``searchsorted`` and :meth:`rows_in_box` collects a query box's rows
    without visiting its empty cells.  A box too wide to fuse ranks
    whole key rows with ``np.unique`` instead.
    """

    __slots__ = ("members", "ptr", "keys", "_lo", "_spans", "_codes")

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        self._lo = keys.min(axis=0)
        spans = keys.max(axis=0) - self._lo + 1
        # Codes use one spare digit per axis (see _fuse).
        if np.log2(spans + 1.0).sum() > 62:
            self._spans = None
            codes = np.unique(keys, axis=0, return_inverse=True)[1].reshape(-1)
        else:
            self._spans = spans.tolist()
            codes = self._fuse(keys)
        self.members = np.argsort(codes, kind="stable")
        codes = codes[self.members]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1))
        self.ptr = np.append(starts, codes.size)
        self._codes = codes[starts]
        self.keys = keys[self.members[starts]]

    def _fuse(self, keys: np.ndarray) -> np.ndarray:
        """Mixed-radix codes, one digit per axis: a key's offset in the
        bounding box, so code order is lex order.  Each axis has a spare
        top digit ``span`` that every out-of-box offset clamps to (the
        unsigned view wraps negative ones high); no occupied cell has
        it, so a key outside the box never aliases one."""
        out = np.zeros(keys.shape[:-1], dtype=np.int64)
        for j, span in enumerate(self._spans):  # repro-lint: disable=checkpoint-in-hot-loop -- loops over key dimensionality, not data
            digit = keys[..., j] - self._lo[j]
            unsigned = digit.view(np.uint64)
            np.minimum(unsigned, span, out=unsigned)
            out *= span + 1
            out += digit
        return out

    def find(self, queries: np.ndarray) -> np.ndarray:
        """The cell of each query key (shape ``queries.shape[:-1]``),
        -1 where no occupied cell has it, keys outside the bounding box
        included."""
        queries = np.asarray(queries, dtype=np.int64)
        if self._spans is None:
            flat = queries.reshape(-1, queries.shape[-1])
            ranks = np.unique(
                np.concatenate((self.keys, flat)), axis=0, return_inverse=True
            )[1].reshape(-1)
            codes, target = ranks[: self.keys.shape[0]], ranks[self.keys.shape[0] :]
            target = target.reshape(queries.shape[:-1])
        else:
            codes, target = self._codes, self._fuse(queries)
        pos = np.minimum(np.searchsorted(codes, target), codes.size - 1)
        return np.where(codes[pos] == target, pos, -1)

    def rows_in_box(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """The rows of the occupied cells whose keys lie in ``[low,
        high]``: cells in key order, rows ascending within each.  Lex
        order keeps each first-axis slab of cells contiguous, so the
        cost is that slab's occupied cells, however many empty cells
        the box spans."""
        start, stop = self.keys[:, 0].searchsorted((low[0], high[0] + 1))
        ptr = self.ptr[start : max(start, stop) + 1]  # an inverted box is empty
        rows = self.members[ptr[0] : ptr[-1]]
        if self.keys.shape[1] == 1:
            return rows
        slab = self.keys[start:stop]
        inside = (slab[:, 1] >= low[1]) & (slab[:, 1] <= high[1])
        for j in range(2, self.keys.shape[1]):  # repro-lint: disable=checkpoint-in-hot-loop -- loops over key dimensionality, not data
            inside &= (slab[:, j] >= low[j]) & (slab[:, j] <= high[j])
        return rows[np.repeat(inside, np.diff(ptr))]


#: Relative safety margin applied to the analytic cell-pair distance
#: bounds, covering the FP noise in key assignment and norm evaluation.
#: Pairs near the margin fall back to explicit distance computation,
#: never the other way around, so the margin only costs work.
_BOUND_EPS = 1e-9

#: Offset classifications for :func:`_classify_offsets`.
_PAIR_AUTO, _PAIR_COMPUTE = 0, 1


def _grid_resolution(dim: int) -> int:
    """Cells per radius for the pruned grid build.

    Sub-radius cells are what give the min/max cell-pair bounds their
    discriminating power (at ``cell == radius`` no pair is ever fully
    inside the radius under L2); the offset count grows as
    ``(2k+1)^d``, so the resolution backs off with dimensionality.
    """
    if dim <= 2:
        return 4
    if dim == 3:
        return 2
    return 1


def _classify_offsets(metric, radius: float, cell: float, dim: int, resolution: int):
    """Enumerate candidate cell offsets with their distance-bound class.

    For a pair of cells whose integer keys differ by ``delta`` the
    per-coordinate separation of any two points lies in
    ``[max(0, |delta| - 1), |delta| + 1] * cell`` (strictly, but the
    closed interval is the safe direction), so the metric applied to
    those corner vectors brackets every point-pair distance:

    * lower bound > radius — the pair holds no edges: **skipped**;
    * upper bound <= radius — every pair is an edge: **auto** (edges
      emitted without computing a single distance);
    * otherwise — **compute** (vectorised pairwise, as before).

    Offsets are bounded per-dimension by ``resolution`` cells: an Lp
    neighbor within ``radius`` moves at most ``radius`` along any
    coordinate, i.e. at most ``resolution`` key steps (the same
    soundness argument as the classic 3^d enumeration at
    ``cell == radius``).
    """
    span = np.arange(-resolution, resolution + 1)
    offsets = np.stack(
        np.meshgrid(*([span] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)
    zeros = np.zeros(dim)
    kept: List[np.ndarray] = []
    classes: List[int] = []
    for off in offsets:
        magnitude = np.abs(off)
        lower = metric.distance(np.maximum(0, magnitude - 1) * cell, zeros)
        if lower * (1.0 - _BOUND_EPS) > radius:
            continue
        upper = metric.distance((magnitude + 1) * cell, zeros)
        kept.append(off)
        classes.append(
            _PAIR_AUTO if upper * (1.0 + _BOUND_EPS) <= radius else _PAIR_COMPUTE
        )
    return np.asarray(kept, dtype=np.int64), np.asarray(classes, dtype=np.int64)


def _cell_pair_table(cells: CellDirectory, offsets: np.ndarray, classes: np.ndarray):
    """All occupied (source cell, neighbor cell) pairs per kept offset.

    Returns ``(src, dst, cls)`` parallel arrays of cell indices sorted
    by source cell; each offset resolves through one
    :meth:`CellDirectory.find` over every cell (keys pushed out of the
    box find nothing).
    """
    src_acc: List[np.ndarray] = []
    dst_acc: List[np.ndarray] = []
    cls_acc: List[np.ndarray] = []
    for off, cls in zip(offsets, classes):
        dst = cells.find(cells.keys + off)
        src = np.flatnonzero(dst >= 0)
        src_acc.append(src)
        dst_acc.append(dst[src])
        cls_acc.append(np.full(src.size, cls, dtype=np.int64))
    src = np.concatenate(src_acc)
    dst = np.concatenate(dst_acc)
    cls = np.concatenate(cls_acc)
    order = np.argsort(src, kind="stable")
    return src[order], dst[order], cls[order]


@dataclass
class _GridPlan:
    """Everything the grid builders share before edge emission.

    The plan is the product of binning, the sparse-occupancy fallback
    and the cell-pair classification; both the flat CSR builder and the
    blocked builder (:mod:`repro.graph.blocked`) consume one plan, so
    their notion of "provably dense cell pair" is identical by
    construction.  ``cells`` is the binning: cell ``c`` holds the ids
    ``cells.members[cells.ptr[c]:cells.ptr[c+1]]`` (ascending).
    """

    n: int
    dim: int
    cell: float
    resolution: int
    cells: CellDirectory
    pair_src: np.ndarray
    pair_dst: np.ndarray
    pair_cls: np.ndarray

    @property
    def m(self) -> int:
        """Occupied cell count."""
        return self.cells.ptr.shape[0] - 1

    @property
    def sizes(self) -> np.ndarray:
        """Member count of every occupied cell."""
        return np.diff(self.cells.ptr)

    def pair_products(self) -> np.ndarray:
        """Candidate-pair count of every directed cell pair (self pairs
        counted as ``s * (s - 1)``: no self loops)."""
        sizes = self.sizes
        products = sizes[self.pair_src] * sizes[self.pair_dst]
        self_pairs = self.pair_src == self.pair_dst
        products[self_pairs] -= sizes[self.pair_src[self_pairs]]
        return products


def _plan_grid(
    points: np.ndarray, metric, radius: float, resolution: Optional[int]
) -> _GridPlan:
    """Bin points, pick the effective resolution and classify cell pairs."""
    n, dim = points.shape
    if resolution is None:
        resolution = _grid_resolution(dim) if radius > 0 else 1
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    cell = float(radius) / resolution if radius > 0 else 1.0
    origin = points.min(axis=0)
    cells = CellDirectory(np.floor((points - origin) / cell).astype(np.int64))
    if resolution > 1 and cells.ptr.size - 1 > n // 4:
        # Sparse occupancy: mostly-singleton cells mean the auto class
        # almost never fires while the finer grid multiplies the cell
        # pairs; fall back to radius-sized cells.
        resolution = 1
        cell = float(radius) if radius > 0 else 1.0
        cells = CellDirectory(np.floor((points - origin) / cell).astype(np.int64))

    offsets, classes = _classify_offsets(metric, radius, cell, dim, resolution)
    pair_src, pair_dst, pair_cls = _cell_pair_table(cells, offsets, classes)
    return _GridPlan(
        n=n, dim=dim, cell=cell, resolution=resolution, cells=cells,
        pair_src=pair_src, pair_dst=pair_dst, pair_cls=pair_cls,
    )


def _batch_pair_bytes(dim: int) -> int:
    """Budgeted bytes per candidate pair in one assembly batch.

    Eight-byte words for the position, column, flag, distance scratch
    and both gathered points, with headroom for the metric's
    temporaries.  At d = 2 the default budget gives ~125k pairs per
    batch, the measured sweet spot: larger batches spill the cache and
    run slower, smaller ones pay more per-batch Python.
    """
    return 64 * (dim + 2)


def _row_batches(row_len: np.ndarray, dim: int) -> np.ndarray:
    """Cut points grouping whole rows of ``row_len`` candidate pairs into
    batches of about ``DEFAULT_BLOCK_BYTES // _batch_pair_bytes(dim)``."""
    batch_pairs = max(1, DEFAULT_BLOCK_BYTES // _batch_pair_bytes(dim))
    batch_of = (np.cumsum(row_len) - row_len) // batch_pairs
    return np.concatenate(([0], np.flatnonzero(np.diff(batch_of)) + 1, [row_len.size]))


def _candidate_table(plan: _GridPlan, cell_of: np.ndarray, pair_keep):
    """Every source cell's candidates as one flat id-ascending table.

    The destination members of every kept directed cell pair are
    gathered in one pass (:func:`_flat_row_positions` over the
    cell-ordered ids), tagged with the pair's source cell and class,
    and ordered by a single sort on the fused ``(source cell, id,
    compute bit)`` key — unique per entry, so each source cell's
    segment comes out ascending by id with its class riding along.

    Returns ``(cand, auto, seg_ptr, comp_len, self_off)``: cell ``c``'s
    candidates are ``cand[seg_ptr[c]:seg_ptr[c+1]]`` (int32), ``auto``
    flags the provably in-radius ones, ``comp_len[c]`` counts the
    segment's compute entries and ``self_off[p]`` is the offset of
    ``p`` in its own cell's segment (-1 when that self pair is not
    kept).
    """
    n, m = plan.n, plan.m
    src, dst, cls = plan.pair_src, plan.pair_dst, plan.pair_cls
    if pair_keep is not None:
        src, dst, cls = src[pair_keep], dst[pair_keep], cls[pair_keep]
    is_compute = cls != _PAIR_AUTO
    positions, lengths = _flat_row_positions(plan.cells.ptr, dst)
    key = np.repeat(src * (2 * n) + is_compute, lengths)
    key += 2 * plan.cells.members[positions]
    del positions
    key.sort()
    auto = (key & 1) == 0
    key >>= 1
    owner, cand = np.divmod(key, n)
    seg_len = np.bincount(src, weights=lengths, minlength=m).astype(np.int64)
    seg_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(seg_len, out=seg_ptr[1:])
    comp_len = np.bincount(
        src, weights=lengths * is_compute, minlength=m
    ).astype(np.int64)
    own = np.flatnonzero(owner == cell_of[cand])
    self_off = np.full(n, -1, dtype=np.int64)
    self_off[cand[own]] = own - seg_ptr[owner[own]]
    return cand.astype(np.int32), auto, seg_ptr, comp_len, self_off


def _assemble_grid_csr(
    points: np.ndarray,
    metric,
    radius: float,
    plan: _GridPlan,
    *,
    stats=None,
    pair_keep: Optional[np.ndarray] = None,
) -> CSRNeighborhood:
    """Emit the (kept) cell-pair edges of a plan as a CSR adjacency.

    ``pair_keep`` (boolean over the directed pair table) lets the
    blocked builder route provably-dense pairs around the edge list;
    ``None`` keeps everything (the flat build).

    Object ``p``'s row is its cell's segment of the candidate table
    (:func:`_candidate_table`) filtered to the edges: auto entries are
    kept outright, compute entries by a ``<= radius`` distance test,
    and the self entry is dropped.  Rows are expanded in ascending id
    order, in batches of candidate pairs sized from
    :data:`DEFAULT_BLOCK_BYTES` with a cancellation checkpoint between
    batches, so each batch's kept columns are the next slice of
    ``indices`` and its per-row counts are the degrees.

    For the L2, L1 and L-infinity metrics each batch is one call into
    the compiled kernel (:meth:`repro.core._kernel.Kernel.grid_rows`),
    which tests the compute entries with the metric's ``paired``
    arithmetic inline and writes kept ids straight into ``indices``,
    without the GIL and without per-batch temporaries.  Other metrics,
    and every metric when no compiler is available, run the same
    filter as a handful of large NumPy passes per batch (``np.take``,
    one row-aligned ``metric.paired``, ``np.compress``); both give
    byte-identical arrays.
    """
    # Imported here: repro.core imports this module.
    from repro.core import _kernel

    n = plan.n
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[plan.cells.members] = np.repeat(np.arange(plan.m, dtype=np.int64), plan.sizes)
    cand, auto, seg_ptr, comp_len, self_off = _candidate_table(
        plan, cell_of, pair_keep
    )
    row_len = np.diff(seg_ptr)[cell_of]
    cuts = _row_batches(row_len, plan.dim)
    # An upper bound on nnz (every candidate an edge) plus the slot the
    # kernel's branch-free write needs past the last edge; the untouched
    # tail is never paged in and is released by the final shrink.
    self_count = int(np.count_nonzero(self_off >= 0))
    indices = np.empty(int(row_len.sum()) - self_count + 1, dtype=np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    degrees = indptr[1:]
    kernel = _kernel.load()
    emit = None if kernel is None else kernel.grid_rows(
        points, metric, radius, cell_of, seg_ptr, cand, auto, indices, degrees
    )
    filled = 0
    token = current_token()
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        if token is not None:
            token.checkpoint()
        cells = cell_of[lo:hi]
        if stats is not None:
            stats.distance_computations += int(comp_len[cells].sum())
        if emit is not None:
            filled = emit(lo, hi, filled)
            continue
        # np.take / np.compress rather than fancy and boolean indexing:
        # several times faster on these flat gathers and compactions.
        positions, lengths = _flat_row_positions(seg_ptr, cells)
        cols = np.take(cand, positions)
        keep = np.take(auto, positions)
        del positions
        compute = np.flatnonzero(~keep)
        if compute.size:
            keep[compute] = metric.paired(
                np.repeat(points[lo:hi], comp_len[cells], axis=0),
                np.take(points, np.take(cols, compute), axis=0),
            ) <= radius
        own = self_off[lo:hi]
        starts = np.cumsum(lengths) - lengths
        keep[(starts + own)[own >= 0]] = False
        rows = np.flatnonzero(lengths)
        if rows.size:
            # Non-empty rows only: reduceat gives empty segments a
            # stray element instead of zero.
            degrees[lo + rows] = np.add.reduceat(keep, starts[rows], dtype=np.int64)
        count = int(np.count_nonzero(keep))
        np.compress(keep, cols, out=indices[filled : filled + count])
        filled += count
    indices.resize(filled, refcheck=False)
    np.cumsum(degrees, out=degrees)
    return CSRNeighborhood(indptr, indices)


def build_csr_grid(
    points: np.ndarray,
    metric,
    radius: float,
    *,
    stats=None,
    resolution: Optional[int] = None,
) -> CSRNeighborhood:
    """Exact CSR adjacency via grid binning with cell-pair pruning.

    Points are bucketed into cells of edge ``radius / resolution``; for
    every occupied cell pair within reach the analytic min/max distance
    bounds of :func:`_classify_offsets` decide whether the pair is
    skipped outright, emits all its member pairs as edges *without
    computing any distance* (the pair is provably inside the radius),
    or falls back to one vectorised ``metric.pairwise`` block.  On
    clustered data the dense cells sit deep inside each other's radius,
    so the quadratic pairwise blocks that previously dominated the
    build collapse into plain index arithmetic; distance computations
    are reserved for the geometric boundary shell.

    The adjacency is identical to :func:`build_csr_pairwise` for every
    Minkowski-family metric (per-coordinate distance never exceeds the
    total — callers gate on the metric family).  ``resolution`` (cells
    per radius) defaults per dimensionality, backing off to the classic
    3^d enumeration when sub-radius cells would not pay: past 3-d, or
    when occupancy is too sparse for auto pairs to matter.

    An empty point set returns the empty adjacency; see
    :func:`repro.graph.blocked.build_blocked_grid` for the variant that
    keeps the provably dense cell pairs *implicit* instead of expanding
    them into edges.
    """
    radius = validate_radius(radius)
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return CSRNeighborhood.empty()
    plan = _plan_grid(points, metric, radius, resolution)
    return _assemble_grid_csr(points, metric, radius, plan, stats=stats)
