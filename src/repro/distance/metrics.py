"""Distance metrics used throughout the DisC reproduction.

The paper (Section 2.1) models similarity through an arbitrary distance
metric ``dist``: two objects are *similar* when ``dist(p, q) <= r`` and
*dissimilar* otherwise.  The evaluation (Section 6) uses the Euclidean
distance for the numeric datasets ("Uniform", "Clustered", "Cities") and
the Hamming distance for the categorical "Cameras" dataset.  The
theoretical bounds of Lemmas 2-4 additionally cover the Manhattan
distance, so all three are first-class citizens here; Chebyshev and
generic Minkowski round out the family for experimentation.

Every metric exposes three operations, all NumPy-vectorised:

``distance(a, b)``
    scalar distance between two points,
``to_point(X, p)``
    distances from every row of ``X`` to the single point ``p``,
``pairwise(X, Y=None)``
    the full distance matrix (used by baselines and the test oracle),
``paired(X, Y)``
    row-aligned distances ``dist(X[i], Y[i])`` (the grid builders'
    candidate-pair test), bit-identical to the matching entries of
    ``pairwise``.

Metrics are stateless and hashable, so a single module-level instance per
metric is shared freely (``EUCLIDEAN``, ``MANHATTAN``, ...).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

__all__ = [
    "Metric",
    "EuclideanMetric",
    "ManhattanMetric",
    "ChebyshevMetric",
    "MinkowskiMetric",
    "HammingMetric",
    "EUCLIDEAN",
    "MANHATTAN",
    "CHEBYSHEV",
    "HAMMING",
    "get_metric",
    "available_metrics",
]


def _abs_diff(a, b, out=None):
    """|a - b| broadcast, reusing ``out`` as scratch when provided.

    The closed-form L1/Linf pairwise implementations fold one
    ``(len(X), len(Y))`` plane per *coordinate* into the result, so
    memory stays at two 2-d matrices regardless of dimensionality —
    unlike a full ``(n, m, d)`` broadcast, which is memory-bound, or
    the generic per-row loop, which pays a Python call per row.
    """
    diff = np.subtract(a, b, out=out)
    return np.abs(diff, out=diff)


class Metric(abc.ABC):
    """A distance metric over fixed-dimension points.

    Subclasses must satisfy the metric axioms (non-negativity, identity,
    symmetry, triangle inequality); the DisC machinery and in particular
    the M-tree's pruning rules rely on the triangle inequality being
    valid.
    """

    #: short lowercase identifier used by :func:`get_metric` and reprs.
    name: str = "abstract"

    @abc.abstractmethod
    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        """Return the distance between points ``a`` and ``b``."""

    @abc.abstractmethod
    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Return distances from every row of ``X`` to point ``p``.

        ``X`` has shape ``(n, d)`` and ``p`` shape ``(d,)``; the result
        has shape ``(n,)``.
        """

    def pairwise(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        """Return the ``(len(X), len(Y))`` distance matrix.

        The generic implementation loops over the rows of the smaller
        operand and vectorises along the other; subclasses may override
        with closed forms.
        """
        X = np.asarray(X)
        Y = X if Y is None else np.asarray(Y)
        out = np.empty((X.shape[0], Y.shape[0]), dtype=float)
        for i in range(X.shape[0]):
            out[i] = self.to_point(Y, X[i])
        return out

    def paired(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Return ``dist(X[i], Y[i])`` for every row pair, shape ``(n,)``.

        Bit-identical to ``pairwise(X, Y)[i, i]``.  The generic
        implementation calls :meth:`to_point` once per pair, like the
        generic :meth:`pairwise`; subclasses override it with the same
        accumulation order as their closed-form ``pairwise``.
        """
        X = np.asarray(X)
        Y = np.asarray(Y)
        out = np.empty(X.shape[0], dtype=float)
        for i in range(X.shape[0]):
            out[i] = self.to_point(Y[i : i + 1], X[i])[0]
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self).__name__)


class EuclideanMetric(Metric):
    """The L2 metric. ``G_{P,r}`` under this metric is a unit-disk graph."""

    name = "euclidean"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.sqrt(np.dot(diff, diff)))

    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        p = np.asarray(p, dtype=float)
        if X.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=float)
        # Same coordinate-at-a-time accumulation as :meth:`pairwise`
        # (see there) so single queries and matrix blocks agree
        # bit-for-bit at any dimensionality.
        diff = np.subtract(X[:, 0], p[0])
        out = np.multiply(diff, diff)
        for k in range(1, X.shape[1]):
            np.subtract(X[:, k], p[k], out=diff)
            out += np.multiply(diff, diff, out=diff)
        return np.sqrt(out, out=out)

    def pairwise(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = X if Y is None else np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros((X.shape[0], Y.shape[0]), dtype=float)
        # Direct squared-difference accumulation, one coordinate plane
        # at a time.  Unlike the ||x||^2+||y||^2-2xy closed form this
        # is bit-identical to :meth:`to_point` (same subtract/square/
        # accumulate order), so cached adjacency, CSR builds and
        # per-query scans agree even on exact radius ties — the
        # determinism contract the cross-engine tests pin.
        diff = np.subtract(X[:, 0, None], Y[None, :, 0])
        out = np.multiply(diff, diff)
        for k in range(1, X.shape[1]):
            np.subtract(X[:, k, None], Y[None, :, k], out=diff)
            out += np.multiply(diff, diff, out=diff)
        return np.sqrt(out, out=out)

    def paired(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=float)
        diff = np.subtract(X[:, 0], Y[:, 0])
        out = np.multiply(diff, diff)
        for k in range(1, X.shape[1]):
            np.subtract(X[:, k], Y[:, k], out=diff)
            out += np.multiply(diff, diff, out=diff)
        return np.sqrt(out, out=out)


class ManhattanMetric(Metric):
    """The L1 metric, covered by the paper's Lemma 3 / Lemma 4(ii)."""

    name = "manhattan"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(
            np.sum(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
        )

    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        p = np.asarray(p, dtype=float)
        if X.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=float)
        # Coordinate-at-a-time like :meth:`pairwise` and :meth:`paired`;
        # ``np.sum`` sums 8 or more terms pairwise, off in the last bits.
        out = _abs_diff(X[:, 0], p[0])
        scratch = np.empty_like(out)
        for k in range(1, X.shape[1]):
            out += _abs_diff(X[:, k], p[k], out=scratch)
        return out

    def pairwise(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = X if Y is None else np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros((X.shape[0], Y.shape[0]), dtype=float)
        out = _abs_diff(X[:, 0, None], Y[None, :, 0])
        scratch = np.empty_like(out)
        for k in range(1, X.shape[1]):
            out += _abs_diff(X[:, k, None], Y[None, :, k], out=scratch)
        return out

    def paired(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=float)
        out = _abs_diff(X[:, 0], Y[:, 0])
        scratch = np.empty_like(out)
        for k in range(1, X.shape[1]):
            out += _abs_diff(X[:, k], Y[:, k], out=scratch)
        return out


class ChebyshevMetric(Metric):
    """The L-infinity metric (max per-coordinate difference)."""

    name = "chebyshev"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(
            np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))
        )

    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.max(
            np.abs(np.asarray(X, dtype=float) - np.asarray(p, dtype=float)), axis=1
        )

    def pairwise(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = X if Y is None else np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros((X.shape[0], Y.shape[0]), dtype=float)
        out = _abs_diff(X[:, 0, None], Y[None, :, 0])
        scratch = np.empty_like(out)
        for k in range(1, X.shape[1]):
            np.maximum(out, _abs_diff(X[:, k, None], Y[None, :, k], out=scratch), out=out)
        return out

    def paired(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if X.shape[1] == 0:
            return np.zeros(X.shape[0], dtype=float)
        out = _abs_diff(X[:, 0], Y[:, 0])
        scratch = np.empty_like(out)
        for k in range(1, X.shape[1]):
            np.maximum(out, _abs_diff(X[:, k], Y[:, k], out=scratch), out=out)
        return out


class MinkowskiMetric(Metric):
    """The general Lp metric for ``p >= 1`` (p < 1 violates the triangle
    inequality and is rejected)."""

    name = "minkowski"

    def __init__(self, p: float):
        if p < 1:
            raise ValueError(f"Minkowski order must be >= 1 to be a metric, got {p}")
        self.p = float(p)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return float(np.sum(diff**self.p) ** (1.0 / self.p))

    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        diff = np.abs(np.asarray(X, dtype=float) - np.asarray(p, dtype=float))
        return np.sum(diff**self.p, axis=1) ** (1.0 / self.p)

    def paired(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        # The generic pairwise evaluates ``to_point(Y, X[i])`` row by
        # row: the same elementwise power and per-row sum as here.
        diff = np.abs(np.asarray(Y, dtype=float) - np.asarray(X, dtype=float))
        return np.sum(diff**self.p, axis=1) ** (1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MinkowskiMetric(p={self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MinkowskiMetric) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("minkowski", self.p))


class HammingMetric(Metric):
    """Count of differing coordinates.

    This is the metric the paper uses for the categorical "Cameras"
    dataset: ``dist(p_i, p_j) = sum_i delta_i(p_i, p_j)`` where
    ``delta_i`` is 1 when the objects differ in the i-th attribute.
    Points are integer category codes; the distance is an integer in
    ``[0, d]``, which is why the Cameras radii in the paper are the
    integers 1..6.
    """

    name = "hamming"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.sum(np.asarray(a) != np.asarray(b)))

    def to_point(self, X: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.sum(np.asarray(X) != np.asarray(p), axis=1).astype(float)

    def pairwise(self, X: np.ndarray, Y: Optional[np.ndarray] = None) -> np.ndarray:
        X = np.asarray(X)
        Y = X if Y is None else np.asarray(Y)
        out = np.zeros((X.shape[0], Y.shape[0]), dtype=float)
        for k in range(X.shape[1]):
            out += X[:, k, None] != Y[None, :, k]
        return out


#: Shared stateless instances.
EUCLIDEAN = EuclideanMetric()
MANHATTAN = ManhattanMetric()
CHEBYSHEV = ChebyshevMetric()
HAMMING = HammingMetric()

_REGISTRY = {
    "euclidean": EUCLIDEAN,
    "l2": EUCLIDEAN,
    "manhattan": MANHATTAN,
    "l1": MANHATTAN,
    "chebyshev": CHEBYSHEV,
    "linf": CHEBYSHEV,
    "hamming": HAMMING,
}


def get_metric(name) -> Metric:
    """Resolve ``name`` to a shared :class:`Metric` instance.

    ``name`` may already be a :class:`Metric`, in which case it is
    returned unchanged — this lets API functions accept either form.
    """
    if isinstance(name, Metric):
        return name
    try:
        return _REGISTRY[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown metric {name!r}; available: {sorted(set(_REGISTRY))}"
        ) from None


def available_metrics() -> list:
    """Names accepted by :func:`get_metric`."""
    return sorted(set(_REGISTRY))
