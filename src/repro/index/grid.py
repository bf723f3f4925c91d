"""Uniform-grid neighbor index for Minkowski-type metrics.

A middle ground between the brute-force oracle and the M-tree: points
are binned into a uniform grid of cells held in one sorted
:class:`~repro.graph.csr.CellDirectory` (the same cell index the grid
adjacency builds use), and a range query scans only the occupied cells
whose keys fall in the query ball's bounding box — never the empty ones,
however fine the cells.  For the low-dimensional numeric datasets of the
paper this is very fast, which makes it the default engine for
*solution-size* experiments (Table 3) where node accesses are not being
measured.

Not applicable to the Hamming metric (category codes are not coordinates
in a box); constructing a :class:`GridIndex` with it raises.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.distance import HammingMetric
from repro.engines.registry import EngineCapabilities, register_engine
from repro.graph.blocked import build_grid_auto
from repro.graph.csr import CellDirectory, build_csr_pairwise
from repro.index.base import NeighborIndex

__all__ = ["GridIndex"]


@register_engine(EngineCapabilities(
    name="grid",
    description="uniform grid with cell-pair-pruned CSR/blocked builds "
    "(the wall-clock champion when cell_size ~ radius)",
    metrics="minkowski",
    supports_csr=True,
    supports_blocked=True,
    cost_fidelity="counters",
    radius_option="cell_size",
    auto_priority=2,
))
class GridIndex(NeighborIndex):
    """Uniform grid over the bounding box of the data.

    Parameters
    ----------
    cell_size:
        Edge length of each grid cell (positive and finite).  Pick
        roughly the query radius: smaller cells mean more occupied cells
        per query box, larger cells mean more candidates per cell.
    """

    def __init__(self, points: np.ndarray, metric, cell_size: float = 0.05):
        super().__init__(points, metric)
        if isinstance(self.metric, HammingMetric):
            raise TypeError("GridIndex requires coordinate geometry; Hamming is not supported")
        if not (np.isfinite(cell_size) and cell_size > 0):
            raise ValueError(f"cell_size must be positive and finite, got {cell_size}")
        self.cell_size = float(cell_size)
        self._origin = self.points.min(axis=0)
        self._cells = CellDirectory(self._key(self.points))

    def _key(self, coords: np.ndarray) -> np.ndarray:
        return np.floor((coords - self._origin) / self.cell_size).astype(np.int64)

    def _members_in(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Ids in the occupied cells between the cells of the corners
        ``low`` and ``high``: cells in key order, ids ascending in each."""
        low_key, high_key = self._key(np.stack((low, high)))
        return self._cells.rows_in_box(low_key, high_key)

    def range_query_point(self, point: np.ndarray, radius: float) -> List[int]:
        self.stats.range_queries += 1
        point = np.asarray(point, dtype=float)
        candidates = self._members_in(point - radius, point + radius)
        if not candidates.size:
            return []
        distances = self.metric.to_point(self.points[candidates], point)
        self.stats.distance_computations += candidates.size
        return candidates[distances <= radius].tolist()

    def range_query_batch(
        self, ids: Sequence[int], radius: float, *, include_self: bool = False
    ) -> List[np.ndarray]:
        """Vectorised multi-center queries, one pairwise block per cell:
        every center in a cell sees the same candidate cells."""
        ids = np.asarray(ids, dtype=np.int64)
        radius = float(radius)
        self.stats.range_queries += ids.size
        csr = self.csr_neighborhood(radius, build=False)
        results: Dict[int, np.ndarray] = {}
        if csr is not None:
            for i in ids:
                results[int(i)] = csr.neighbors(i).astype(np.int64)
        elif ids.size:
            groups = CellDirectory(self._key(self.points[ids]))
            for c, key in enumerate(groups.keys):
                group = ids[groups.members[groups.ptr[c] : groups.ptr[c + 1]]]
                low = self._origin + key * self.cell_size
                candidates = np.sort(
                    self._members_in(low - radius, low + self.cell_size + radius)
                )
                block = self.metric.pairwise(self.points[group], self.points[candidates])
                self.stats.distance_computations += block.size
                for local, center in enumerate(group):
                    hits = candidates[block[local] <= radius]
                    results[int(center)] = hits[hits != center]
        out = []
        for i in ids:
            neighbors = results[int(i)]
            if include_self:
                neighbors = np.append(neighbors, np.int64(i))
            out.append(neighbors)
        return out

    def _build_csr(self, radius: float):
        """Delegate to the shared grid-binned builder (cells sized by
        the radius, not this index's ``cell_size`` — the adjacency is
        identical and radius-sized cells bound candidate fan-out).

        :func:`~repro.graph.blocked.build_grid_auto` upgrades the
        result to a :class:`~repro.graph.blocked.BlockedNeighborhood`
        when the provably-dense cell pairs carry enough of the edge
        mass (clustered data at scale); selections are byte-identical
        either way.  Sound for the same metrics this index accepts:
        Minkowski-type coordinate geometry (Hamming is rejected at
        construction).
        """
        if radius <= 0:
            return build_csr_pairwise(self.points, self.metric, radius, stats=self.stats)
        return build_grid_auto(self.points, self.metric, radius, stats=self.stats)
