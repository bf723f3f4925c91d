"""Result objects returned by every DisC heuristic.

A :class:`DiscResult` records the selected subset in selection order, the
radius, the cost counters consumed, and — when the caller asks for it —
the per-object distance to the closest selected (black) object.  That
last array is exactly the leaf-node extension of Section 5.2: zooming-in
needs it to decide which grey objects stay covered under the smaller
radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.coloring import Coloring
from repro.index.base import IndexStats

__all__ = ["DiscResult", "closest_black_distances"]


def _plain(value):
    """Recursively strip NumPy types so the payload is JSON-safe.

    Results accumulate NumPy scalars and arrays in ``selected`` /
    ``meta`` / ``stats.extra``; the wire format wants plain Python.
    Unknown object types pass through untouched (the caller owns their
    serialisability, exactly like request options).
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class DiscResult:
    """Output of a DisC heuristic (or zooming operation).

    Attributes
    ----------
    selected:
        Object ids in the order the algorithm selected them (black
        objects).
    radius:
        The radius the subset is diverse for.
    algorithm:
        Human-readable heuristic name ("Basic-DisC", "Greedy-DisC", ...).
    stats:
        Index cost counters consumed by this run (difference snapshot).
    coloring:
        Final coloring; useful for zooming and debugging.  May be None
        when the caller requested a detached result.
    closest_black:
        ``closest_black[i]`` = distance from object i to its closest
        black object (0 for blacks themselves).  Section 5.2's leaf-node
        extension; filled when ``track_closest_black`` was requested or
        by :func:`closest_black_distances`.
    """

    selected: List[int]
    radius: float
    algorithm: str
    stats: IndexStats = field(default_factory=IndexStats)
    coloring: Optional[Coloring] = None
    closest_black: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        """|S| — the paper's Table 3 metric."""
        return len(self.selected)

    @property
    def node_accesses(self) -> int:
        """M-tree node accesses — the paper's Figures 7-12/15 metric."""
        return self.stats.node_accesses

    def selected_set(self) -> set:
        return set(self.selected)

    # ------------------------------------------------------------------
    # Wire format (the response side of repro.requests)
    # ------------------------------------------------------------------
    def to_dict(self, *, closest_black: bool = True) -> dict:
        """Plain-dict form: JSON-serialisable for JSON-safe ``meta``.

        ``closest_black=False`` leaves the ``closest_black`` key out and
        never builds its n-float list (the ``/zoom`` answer without
        ``include``).

        ``coloring`` is deliberately not serialised — it is a live
        index-subscribed object meaningful only in the producing
        process; a result rebuilt via :meth:`from_dict` carries
        ``coloring=None`` (zooming recomputes what it needs from
        ``selected`` + ``closest_black``).

        The payload is *canonical*: selection ids are Python ints no
        matter which dtype the producing engine used (the CSR paths
        select int32 ids, the per-query paths int64 — and the platform
        default integer differs across OSes), and ``stats.extra`` /
        ``meta`` are stripped of NumPy scalars.  Serialising the same
        logical result therefore yields the same bytes everywhere, and
        ``from_dict(r.to_dict()).to_dict() == r.to_dict()`` exactly —
        the service layer relies on this to coalesce and cache
        responses.
        """
        payload = {
            "selected": [int(i) for i in self.selected],
            "radius": float(self.radius),
            "algorithm": self.algorithm,
            "stats": _plain(self.stats.to_dict()),
        }
        if closest_black:
            payload["closest_black"] = (
                None
                if self.closest_black is None
                else [float(d) for d in self.closest_black]
            )
        payload["meta"] = _plain(self.meta)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "DiscResult":
        """Rebuild a result from :meth:`to_dict` output."""
        closest = payload.get("closest_black")
        return cls(
            selected=[int(i) for i in payload["selected"]],
            radius=float(payload["radius"]),
            algorithm=payload["algorithm"],
            stats=IndexStats.from_dict(payload.get("stats", {})),
            coloring=None,
            closest_black=(
                None if closest is None else np.asarray(closest, dtype=float)
            ),
            meta=dict(payload.get("meta", {})),
        )

    def __repr__(self) -> str:
        return (
            f"DiscResult(algorithm={self.algorithm!r}, r={self.radius}, "
            f"size={self.size}, node_accesses={self.node_accesses})"
        )


def closest_black_distances(index, selected: List[int]) -> np.ndarray:
    """Distance from every object to its closest object in ``selected``.

    Implemented with one range-query-free vectorised pass (metric
    ``to_point`` per selected object); used as the post-processing step
    the paper requires after a pruned construction, where grey objects
    may have missed closest-black updates.
    """
    distances = np.full(index.n, np.inf)
    for black in selected:
        d = index.metric.to_point(index.points, index.points[black])
        np.minimum(distances, d, out=distances)
    return distances
