"""Two-level blocked neighborhood engine: CSR remainder + implicit
dense blocks.

On clustered data at scale the fixed-radius graph is dominated by
near-cliques: :func:`~repro.graph.csr.build_csr_grid` already *proves*
— from the min/max cell-pair distance bounds — that entire cell pairs
lie mutually within the radius, then spends almost all of its time and
memory expanding those proofs into hundreds of millions of explicit CSR
edges (ROADMAP: 200k clustered is adjacency-bound at nnz 317M).  This
module keeps the proof implicit instead:

* the *sparse remainder* — every edge whose cell pair needed a distance
  computation, plus dense pairs too small to be worth a block — stays a
  plain :class:`~repro.graph.csr.CSRNeighborhood`;
* every provably-dense cell pair becomes a **dense block**: a biclique
  ``(members_a, members_b)`` (or a within-cell clique ``(members,)``)
  recorded as id arrays only — ``O(|A| + |B|)`` memory for
  ``|A| * |B|`` edges, no edge materialisation at all.

:class:`BlockedNeighborhood` implements the same query primitives as
the flat CSR (``neighbors`` / ``neighbor_counts`` / ``decrement`` /
``cover_mask`` / ``degrees``), and the compiled selection kernel
(:mod:`repro.core._kernel`) reads its arrays directly, so every CSR
fast path — Greedy-DisC, Greedy-C, Basic-DisC, the zoom passes, the
repair, the weighted extension — runs on it **byte-identical in
selection order**: the counts maintained are exactly the ones the flat
adjacency would give, so the same argmax over them makes the same
picks.  The count algebra
is the aggregate-over-groups identity

``white_neighbors(i) = csr_count(i) + Σ_blocks |white ∩ other_side(i)|``

so a batch of objects leaving the white pool costs one per-block
counter delta applied to each affected side *once per step*, instead of
once per source object — the same collapse that turns the build from
O(nnz) into O(cells²) for the dense fraction.

Internally the blocks are stored as a structure of arrays over *sides*
(a biclique contributes two sides, a clique one): ``side_ptr`` /
``side_members`` concatenate the member ids, ``side_partner[s]`` names
the side whose white count feeds the counts of side ``s``'s members
(bicliques point at each other, cliques at themselves with a
subtract-self correction), and a node→sides membership CSR drives the
per-step delta lookups.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.cancellation import current_token
from repro.graph.csr import (
    CSRNeighborhood,
    _PAIR_AUTO,
    _assemble_grid_csr,
    _flat_row_positions,
    _GridPlan,
    _plan_grid,
)
from repro.validation import validate_radius

__all__ = [
    "BlockedNeighborhood",
    "build_blocked_grid",
    "build_grid_auto",
    "MIN_BLOCK_PAIRS",
    "MIN_DENSE_EDGES",
    "MIN_DENSE_FRACTION",
]

#: A provably-dense cell pair only becomes a block when it stands for at
#: least this many edges; smaller auto pairs stay in the sparse
#: remainder (they are still emitted without distance computations —
#: the block bookkeeping just would not pay below this).
MIN_BLOCK_PAIRS = 256

#: :func:`build_grid_auto` thresholds: the blocked engine is picked when
#: the provably-dense pairs stand for at least this many edges *and* at
#: least this fraction of the candidate edges.  Below either, the flat
#: CSR's single-array layout wins (its primitives have no per-block
#: Python constant).
MIN_DENSE_EDGES = 1_000_000
MIN_DENSE_FRACTION = 0.2


class BlockedNeighborhood:
    """Fixed-radius adjacency as CSR remainder + implicit dense blocks.

    Drop-in for :class:`~repro.graph.csr.CSRNeighborhood` in every
    selection fast path: same primitive semantics, same ascending
    neighbor order, identical maintained counts.  ``nnz`` reports the
    *logical* edge count (what the flat CSR would store); the actual
    footprint is ``stored_nnz`` plus one id per block-side member.
    """

    __slots__ = (
        "n",
        "sparse",
        "side_ptr",
        "side_members",
        "side_partner",
        "side_is_clique",
        "_mem_indptr",
        "_mem_side",
        "_clique_members",
        "_degrees",
        "_dense_nnz",
    )

    def __init__(
        self,
        sparse: CSRNeighborhood,
        side_ptr: np.ndarray,
        side_members: np.ndarray,
        side_partner: np.ndarray,
        side_is_clique: np.ndarray,
    ):
        self.n = sparse.n
        self.sparse = sparse
        self.side_ptr = np.asarray(side_ptr, dtype=np.int64)
        self.side_members = np.asarray(side_members, dtype=np.int32)
        self.side_partner = np.asarray(side_partner, dtype=np.int64)
        self.side_is_clique = np.asarray(side_is_clique, dtype=bool)
        if self.side_ptr.shape[0] != self.side_partner.shape[0] + 1:
            raise ValueError("side_ptr must have one more entry than sides")

        # Node -> containing sides, as a CSR over (node, side id); this
        # is what turns a batch of recolored objects into per-side
        # deltas in one gather.
        lengths = np.diff(self.side_ptr)
        owner = np.repeat(
            np.arange(self.num_sides, dtype=np.int64), lengths
        )
        order = np.argsort(self.side_members, kind="stable")
        self._mem_side = owner[order].astype(np.int32)
        self._mem_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.side_members, minlength=self.n),
            out=self._mem_indptr[1:],
        )
        clique_sides = np.flatnonzero(self.side_is_clique)
        self._clique_members = (
            np.concatenate([self._side(s) for s in clique_sides]).astype(np.int64)
            if clique_sides.size
            else np.empty(0, dtype=np.int64)
        )
        self._degrees: Optional[np.ndarray] = None
        partner_len = lengths[self.side_partner] if self.num_sides else lengths
        self._dense_nnz = int(
            (lengths * partner_len).sum() - lengths[self.side_is_clique].sum()
        )

    # ------------------------------------------------------------------
    # Shared-memory transport
    # ------------------------------------------------------------------
    def to_shared_arrays(self) -> dict:
        """Flat ndarray views for zero-copy transport (shm segments).

        Only the five defining arrays travel (plus the sparse CSR pair);
        the derived membership/degree companions are rebuilt on attach —
        they are small relative to the adjacency and keeping them local
        avoids shipping redundant state.  ``side_is_clique`` travels as
        ``uint8`` because shared segments are raw bytes.
        """
        return {
            "sparse_indptr": self.sparse.indptr,
            "sparse_indices": self.sparse.indices,
            "side_ptr": self.side_ptr,
            "side_members": self.side_members,
            "side_partner": self.side_partner,
            "side_is_clique": self.side_is_clique.astype(np.uint8),
        }

    @classmethod
    def from_shared_arrays(cls, arrays: dict) -> "BlockedNeighborhood":
        """Rebuild from :meth:`to_shared_arrays` output (possibly read-only)."""
        sparse = CSRNeighborhood(
            arrays["sparse_indptr"], arrays["sparse_indices"]
        )
        return cls(
            sparse,
            arrays["side_ptr"],
            arrays["side_members"],
            arrays["side_partner"],
            arrays["side_is_clique"].astype(bool),
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_sides(self) -> int:
        return self.side_partner.shape[0]

    @property
    def num_blocks(self) -> int:
        """Dense blocks (a biclique counts once despite its two sides)."""
        bicliques = int(np.count_nonzero(~self.side_is_clique)) // 2
        return bicliques + int(np.count_nonzero(self.side_is_clique))

    def membership(self) -> Tuple[np.ndarray, np.ndarray]:
        """The node -> containing sides CSR: ``(indptr, side ids)``."""
        return self._mem_indptr, self._mem_side

    def _side(self, s: int) -> np.ndarray:
        return self.side_members[self.side_ptr[s] : self.side_ptr[s + 1]]

    @property
    def nnz(self) -> int:
        """Logical (directed) edge count — what the flat CSR would store."""
        return self.sparse.nnz + self._dense_nnz

    @property
    def stored_nnz(self) -> int:
        """Explicitly materialised adjacency entries (sparse remainder)."""
        return self.sparse.nnz

    @property
    def dense_nnz(self) -> int:
        """Edges represented implicitly by the dense blocks."""
        return self._dense_nnz

    @property
    def dense_fraction(self) -> float:
        """Share of the logical edges kept implicit."""
        total = self.nnz
        return self._dense_nnz / total if total else 0.0

    @property
    def nbytes(self) -> int:
        """Resident footprint: sparse remainder + block/side id arrays.

        The cache hook read by :class:`~repro.engines.cache.
        AdjacencyCache` — this is the *stored* size (the whole point of
        the blocked form is that it is far below the logical ``nnz``).
        """
        total = self.sparse.nbytes + (
            self.side_ptr.nbytes
            + self.side_members.nbytes
            + self.side_partner.nbytes
            + self.side_is_clique.nbytes
            + self._mem_indptr.nbytes
            + self._mem_side.nbytes
            + self._clique_members.nbytes
        )
        if self._degrees is not None:
            total += self._degrees.nbytes
        return int(total)

    @property
    def degrees(self) -> np.ndarray:
        """``|N_r(p_i)|`` for every object (self excluded; cached).

        :meth:`neighbor_counts` of the all-True mask: the sparse degrees
        plus one weighted bincount over the block sides, with the clique
        self-correction — no per-side Python loop.
        """
        if self._degrees is None:
            self._degrees = self.neighbor_counts(np.ones(self.n, dtype=bool))
        return self._degrees

    # ------------------------------------------------------------------
    # Row materialisation
    # ------------------------------------------------------------------
    def neighbors(self, object_id: int) -> np.ndarray:
        """The neighbor ids of one object (ascending, int32).

        Materialised on demand: the sparse row merged with the other
        side of every block the object belongs to.  An edge lives in
        exactly one of the two levels, so the merge is a plain sort
        with no dedup.
        """
        lo, hi = self._mem_indptr[object_id], self._mem_indptr[object_id + 1]
        row = self.sparse.neighbors(object_id)
        if lo == hi:
            return row
        parts = [row]
        for s in self._mem_side[lo:hi]:
            other = self._side(self.side_partner[s])
            if self.side_is_clique[s]:
                pos = int(np.searchsorted(other, object_id))
                parts.append(other[:pos])
                parts.append(other[pos + 1 :])
            else:
                parts.append(other)
        out = np.concatenate(parts)
        out.sort()
        return out

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of ``ids`` (duplicates preserved).

        Materialises every requested row — fine for the occasional bulk
        probe, but the hot paths (:meth:`decrement`,
        :meth:`cover_mask`) work block-wise instead of expanding.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int32)
        return np.concatenate([self.neighbors(int(i)) for i in ids])

    # ------------------------------------------------------------------
    # Bulk primitives (same contracts as CSRNeighborhood)
    # ------------------------------------------------------------------
    def _member_sides(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(node, side id) pairs for every block membership of ``ids``."""
        ids = np.asarray(ids, dtype=np.int64)
        positions, lengths = _flat_row_positions(self._mem_indptr, ids)
        if positions.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return np.repeat(ids, lengths), self._mem_side[positions].astype(np.int64)

    def neighbor_counts(self, mask: np.ndarray) -> np.ndarray:
        """Per-object count of neighbors selected by the boolean ``mask``.

        The sparse remainder goes through the CSR count, which gathers
        only the cheaper side of the mask; each block side then adds its
        partner's masked population to its members in one weighted
        bincount — the ``csr_count + Σ |mask ∩ other_side|`` identity,
        evaluated without touching an edge.  The cost is the smaller
        side's sparse edges plus O(n + block members).
        """
        mask = np.asarray(mask, dtype=bool)
        counts = self.sparse.neighbor_counts(mask).astype(np.int64)
        if self.num_sides == 0:
            return counts
        hits = mask[self.side_members].astype(np.int64)
        side_white = np.add.reduceat(hits, self.side_ptr[:-1])
        received = side_white[self.side_partner]
        lengths = np.diff(self.side_ptr)
        counts += np.bincount(
            self.side_members,
            weights=np.repeat(received, lengths).astype(np.float64),
            minlength=self.n,
        ).astype(np.int64)
        if self._clique_members.size:
            # A clique member is not its own neighbor.
            counts[self._clique_members] -= mask[self._clique_members]
        return counts

    def decrement(self, counts: np.ndarray, sources: np.ndarray) -> None:
        """Grey update rule, in place (same contract as the CSR version;
        like it, used only by the weighted extension — the compiled
        selection kernel applies the same per-side deltas in C).

        The sparse remainder goes through the CSR decrement.  The dense
        level is applied as per-side deltas: ``d`` sources in a side
        subtract ``d`` from every member of its partner side, so a side
        is touched once per call, not once per source.  One position
        gather covers every affected partner side, one
        ``np.subtract.at`` applies the repeated deltas (a node may sit
        in several sides), and clique sources add the subtract-self
        correction back (a source is not its own neighbor).
        """
        sources = np.asarray(sources, dtype=np.int64)
        self.sparse.decrement(counts, sources)
        if self.num_sides == 0 or sources.size == 0:
            return
        nodes, side_ids = self._member_sides(sources)
        if side_ids.size == 0:
            return
        delta = np.bincount(side_ids, minlength=self.num_sides)
        hit = np.flatnonzero(delta)
        positions, lengths = _flat_row_positions(
            self.side_ptr, self.side_partner[hit]
        )
        np.subtract.at(
            counts, self.side_members[positions], np.repeat(delta[hit], lengths)
        )
        clique_hits = self.side_is_clique[side_ids]
        if clique_hits.any():
            np.add.at(counts, nodes[clique_hits], 1)

    def cover_mask(
        self, ids: np.ndarray, *, include_sources: bool = True
    ) -> np.ndarray:
        """Boolean mask of everything within one hop of ``ids``."""
        # Dedupe up front: the mask is duplicate-insensitive by nature,
        # but the lone-clique-member test below counts ids per side and
        # must not mistake a repeated id for two distinct members.
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        mask = self.sparse.cover_mask(ids, include_sources=False)
        if ids.size and self.num_sides:
            nodes, side_ids = self._member_sides(ids)
            hit = np.bincount(side_ids, minlength=self.num_sides)
            for s in np.flatnonzero(hit):
                members = self._side(self.side_partner[s])
                if self.side_is_clique[s] and hit[s] == 1:
                    # The lone id in this clique is not its own neighbor.
                    lone = int(nodes[side_ids == s][0])
                    pos = int(np.searchsorted(members, lone))
                    mask[members[:pos]] = True
                    mask[members[pos + 1 :]] = True
                else:
                    mask[members] = True
        if include_sources and ids.size:
            mask[ids] = True
        return mask

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"BlockedNeighborhood(n={self.n}, nnz={self.nnz}, "
            f"stored_nnz={self.stored_nnz}, blocks={self.num_blocks})"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def _blocked_pair_mask(
    plan: _GridPlan, min_block_pairs: int, products: Optional[np.ndarray] = None
) -> np.ndarray:
    """Directed cell pairs worth storing implicitly: provably inside the
    radius and standing for at least ``min_block_pairs`` edges.  The
    predicate is symmetric (classification and products both are), so a
    pair and its mirror always land on the same side of the cut.
    ``products`` lets callers that already hold ``plan.pair_products()``
    avoid recomputing it."""
    if products is None:
        products = plan.pair_products()
    return (plan.pair_cls == _PAIR_AUTO) & (products >= min_block_pairs)


def _finish_blocked(
    points: np.ndarray,
    metric,
    radius: float,
    plan: _GridPlan,
    pair_blocked: np.ndarray,
    stats,
) -> BlockedNeighborhood:
    """Assemble the sparse remainder and the block side arrays."""
    csr = _assemble_grid_csr(
        points, metric, radius, plan, stats=stats, pair_keep=~pair_blocked
    )
    token = current_token()
    if token is not None:
        token.checkpoint()
    # One clique side per blocked self pair, two biclique sides (source
    # then destination, partnering each other) per blocked cross pair,
    # in pair-table order.
    undirected = np.flatnonzero(pair_blocked & (plan.pair_src <= plan.pair_dst))
    src = plan.pair_src[undirected]
    dst = plan.pair_dst[undirected]
    clique = src == dst
    cross = ~clique
    side_count = 2 - clique.astype(np.int64)
    first = np.cumsum(side_count) - side_count
    second = first[cross] + 1
    side_cell = np.empty(int(side_count.sum()), dtype=np.int64)
    side_cell[first] = src
    side_cell[second] = dst[cross]
    side_partner = np.empty(side_cell.size, dtype=np.int64)
    side_partner[first] = first + cross
    side_partner[second] = second - 1
    positions, lengths = _flat_row_positions(plan.cells.ptr, side_cell)
    side_ptr = np.zeros(side_cell.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=side_ptr[1:])
    return BlockedNeighborhood(
        csr,
        side_ptr,
        plan.cells.members[positions].astype(np.int32),
        side_partner,
        np.repeat(clique, side_count),
    )


def build_blocked_grid(
    points: np.ndarray,
    metric,
    radius: float,
    *,
    stats=None,
    resolution: Optional[int] = None,
    min_block_pairs: Optional[int] = None,
) -> BlockedNeighborhood:
    """Blocked adjacency via the shared grid plan.

    Identical graph to :func:`~repro.graph.csr.build_csr_grid` — the
    cell-pair classification is literally the same plan — but every
    provably-dense pair of at least ``min_block_pairs`` edges is
    recorded as an implicit block instead of being expanded.  Distance
    computations are identical to the flat build (auto pairs never
    computed distances anyway); what the blocks save is the edge
    expansion itself: memory and assembly time drop by the dense
    fraction.
    """
    radius = validate_radius(radius)
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return BlockedNeighborhood(
            CSRNeighborhood.empty(),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=bool),
        )
    if min_block_pairs is None:
        min_block_pairs = MIN_BLOCK_PAIRS
    plan = _plan_grid(points, metric, radius, resolution)
    pair_blocked = _blocked_pair_mask(plan, min_block_pairs)
    return _finish_blocked(points, metric, radius, plan, pair_blocked, stats)


def build_grid_auto(
    points: np.ndarray,
    metric,
    radius: float,
    *,
    stats=None,
    resolution: Optional[int] = None,
    min_block_pairs: Optional[int] = None,
    min_dense_edges: Optional[int] = None,
    min_dense_fraction: Optional[float] = None,
) -> Union[CSRNeighborhood, BlockedNeighborhood]:
    """Plan once, then pick flat CSR or blocked by the dense-edge share.

    The decision costs nothing extra: the plan already knows every
    provably-dense pair and every cell population, so the dense edge
    count is a couple of array reductions.  Blocked wins when the dense
    pairs stand for at least ``min_dense_edges`` edges *and*
    ``min_dense_fraction`` of all candidate edges; otherwise the flat
    layout's loop-free primitives win and the same plan is expanded as
    before.
    """
    radius = validate_radius(radius)
    points = np.asarray(points, dtype=float)
    if points.shape[0] == 0:
        return CSRNeighborhood.empty()
    # None defaults resolve against the module constants at call time
    # so deployments (and tests) can retune the cut globally.
    if min_block_pairs is None:
        min_block_pairs = MIN_BLOCK_PAIRS
    if min_dense_edges is None:
        min_dense_edges = MIN_DENSE_EDGES
    if min_dense_fraction is None:
        min_dense_fraction = MIN_DENSE_FRACTION
    plan = _plan_grid(points, metric, radius, resolution)
    products = plan.pair_products()
    pair_blocked = _blocked_pair_mask(plan, min_block_pairs, products)
    dense_edges = int(products[pair_blocked].sum())
    candidate_edges = int(products.sum())
    if dense_edges >= min_dense_edges and dense_edges >= min_dense_fraction * max(
        candidate_edges, 1
    ):
        return _finish_blocked(points, metric, radius, plan, pair_blocked, stats)
    return _assemble_grid_csr(points, metric, radius, plan, stats=stats)
