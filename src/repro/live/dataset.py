"""Versioned mutable overlay on served datasets.

A :class:`MutableDataset` wraps one immutable
:class:`~repro.datasets.Dataset` and accepts insert/delete batches
while the serving layer keeps handing out *immutable per-version
snapshots*:

* **ids are arrival positions, forever** — the base points own ids
  ``0..n0-1``, every inserted point appends the next id, and deletion
  flips an alive bit (a tombstone) without renumbering anything.
  Stable global ids are what let a client hold a selection across
  mutations and ask for it to be *repaired* rather than recomputed.
* **versions** — every applied batch bumps ``version``; the handle the
  registry serves is stamped ``name@v<version>``, so every downstream
  identity (adjacency cache keys, shm segment names, single-flight
  keys) is version-scoped and stale state is unreachable by
  construction.
* **append buffers + compaction** — inserts accumulate in pending
  buffers; once enough batches pile up they are compacted into the
  base coordinate array (one concatenate), bounding how fragmented the
  coordinate storage gets.  Tombstoned rows are *not* physically
  removed (that would renumber ids); they are filtered out of
  snapshots by the alive mask.
* **incremental adjacency** — one
  :class:`~repro.graph.incremental.IncrementalNeighborhood` per radius
  bucket that serving has materialised, fed every insert batch (one
  grid query each).  It keeps the last snapshot it produced and only
  the edges added since, so a post-mutation adjacency is a forward step
  from the previous version (its alive edges plus the delta).

Thread safety: all mutation and snapshot entry points serialise on one
re-entrant lock; served snapshots are frozen arrays, safe to read
concurrently with later mutations.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import Dataset
from repro.graph.incremental import IncrementalNeighborhood

__all__ = ["MutableDataset", "MutationError"]

#: Pending insert batches tolerated before they are folded into the
#: base array.  Compaction is one concatenate, so the threshold only
#: bounds how fragmented the coordinate storage may get.
COMPACT_EVERY = 8


class MutationError(ValueError):
    """A mutation batch referenced ids that cannot be mutated."""


class MutableDataset:
    """One live dataset: base points + append buffers + tombstones.

    ``dataset`` provides the initial points and the metric; its array
    is copied (the registry freezes originals).
    """

    #: Lock discipline (see :mod:`repro.engines.cache`): every mutable
    #: attribute moves under the dataset lock; snapshots hand out
    #: frozen arrays only.
    _GUARDED_BY = {
        "version": "self._lock",
        "mutations": "self._lock",
        "compactions": "self._lock",
        "_base": "self._lock",
        "_pending": "self._lock",
        "_alive": "self._lock",
        "_points_cache": "self._lock",
        "_adjacency": "self._lock",
        "_handle": "self._lock",
        "_log": "self._lock",
    }

    def __init__(
        self, name: str, dataset: Dataset, *, compact_every: int = COMPACT_EVERY
    ) -> None:
        if compact_every < 1:
            raise ValueError(f"compact_every must be >= 1, got {compact_every}")
        self.name = str(name)
        self.metric = dataset.metric
        self.compact_every = int(compact_every)
        self._lock = threading.RLock()
        self._base = np.array(dataset.points, dtype=float)
        self._pending: List[np.ndarray] = []
        self._alive = np.ones(self._base.shape[0], dtype=bool)
        self._points_cache: Optional[np.ndarray] = None
        #: Per radius bucket; each keeps its last snapshot, which serves
        #: both cache migration and selection repair.
        self._adjacency: Dict[float, IncrementalNeighborhood] = {}
        self._handle = None
        self._log: List[dict] = []
        self.version = 0
        self.mutations = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Identity / geometry
    # ------------------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        """The dataset's re-entrant lock, for callers that need several
        operations (mutation + cache migration + repair) to observe one
        consistent version.  All public methods re-acquire it safely."""
        return self._lock

    @property
    def dataset_id(self) -> str:
        """The version-stamped identity everything downstream keys on."""
        with self._lock:
            return f"{self.name}@v{self.version}"

    @property
    def dim(self) -> int:
        return int(self._base.shape[1])

    @property
    def n_total(self) -> int:
        """All ids ever assigned (alive + tombstoned)."""
        with self._lock:
            return int(self._alive.shape[0])

    @property
    def n_alive(self) -> int:
        with self._lock:
            return int(np.count_nonzero(self._alive))

    def points_all(self) -> np.ndarray:
        """The full coordinate array (every id, dead rows included)."""
        with self._lock:
            if self._points_cache is None:
                if self._pending:
                    self._points_cache = np.concatenate(
                        [self._base] + self._pending
                    )
                else:
                    self._points_cache = self._base
            return self._points_cache

    def alive_mask(self) -> np.ndarray:
        with self._lock:
            return self._alive.copy()

    def alive_ids(self) -> np.ndarray:
        """Global ids of the alive points, ascending — the local→global
        map of the current version's compacted snapshot."""
        with self._lock:
            return np.flatnonzero(self._alive)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, inserts=None, deletes=None) -> dict:
        """One insert/delete batch; bumps the version, returns the delta.

        ``inserts`` is an array-like of new points (``(b, dim)`` or a
        single ``dim``-vector); ``deletes`` is an iterable of global
        ids.  Deleting an unknown or already-deleted id raises
        :class:`MutationError` (→ 400 at the service boundary) before
        anything is applied; an empty batch is also rejected so version
        bumps always mean a real change.
        """
        with self._lock:
            new_points = self._coerce_inserts(inserts)
            delete_ids = self._coerce_deletes(deletes)
            if new_points.shape[0] == 0 and delete_ids.size == 0:
                raise MutationError(
                    "mutation batch is empty: provide 'inserts' and/or 'deletes'"
                )
            start = self._alive.shape[0]
            inserted = np.arange(
                start, start + new_points.shape[0], dtype=np.int64
            )
            if new_points.shape[0]:
                self._pending.append(new_points)
                self._alive = np.concatenate(
                    [self._alive, np.ones(new_points.shape[0], dtype=bool)]
                )
                self._points_cache = None
                points = self.points_all()
                # The mask before the deletes: repair reads their rows.
                for adjacency in self._adjacency.values():
                    adjacency.append(points, int(new_points.shape[0]), self._alive)
                if len(self._pending) >= self.compact_every:
                    self._base = self.points_all()
                    self._pending = []
                    self.compactions += 1
            if delete_ids.size:
                self._alive[delete_ids] = False
            self.version += 1
            self.mutations += 1
            self._handle = None
            delta = {
                "version": self.version,
                "inserted": [int(i) for i in inserted],
                "deleted": [int(i) for i in delete_ids],
                "n_alive": self.n_alive,
                "n_total": int(self._alive.shape[0]),
            }
            self._log.append(delta)
            return delta

    def _coerce_inserts(self, inserts) -> np.ndarray:
        if inserts is None:
            return np.empty((0, self.dim), dtype=float)
        points = np.asarray(inserts, dtype=float)
        if points.ndim == 1 and points.size == self.dim:
            points = points.reshape(1, self.dim)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise MutationError(
                f"inserts must be (b, {self.dim}) points, got shape "
                f"{points.shape}"
            )
        if not np.all(np.isfinite(points)):
            raise MutationError("inserts contain non-finite coordinates")
        return points

    def _coerce_deletes(self, deletes) -> np.ndarray:
        if deletes is None:
            return np.empty(0, dtype=np.int64)
        try:
            ids = np.asarray(list(deletes), dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise MutationError(f"deletes must be integer ids: {exc}") from None
        if ids.size == 0:
            return ids
        if np.unique(ids).size != ids.size:
            raise MutationError("deletes contain duplicate ids")
        oob = ids[(ids < 0) | (ids >= self._alive.shape[0])]
        if oob.size:
            raise MutationError(
                f"deletes reference unknown ids {sorted(int(i) for i in oob)}"
            )
        dead = ids[~self._alive[ids]]
        if dead.size:
            raise MutationError(
                "deletes reference already-deleted ids "
                f"{sorted(int(i) for i in dead)}"
            )
        return ids

    def mutation_log(self) -> List[dict]:
        """Applied deltas in order (what a replay must reproduce)."""
        with self._lock:
            return [dict(d) for d in self._log]

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot_handle(self):
        """The registry handle of the current version: compacted alive
        points, frozen, identity-stable until the next mutation."""
        from repro.service.registry import DatasetHandle

        with self._lock:
            if self._handle is not None:
                return self._handle
            points = self.points_all()[self._alive].copy()
            points.setflags(write=False)
            dataset = Dataset(
                name=self.dataset_id, points=points, metric=self.metric
            )
            alive_ids = np.flatnonzero(self._alive)
            alive_ids.setflags(write=False)
            self._handle = DatasetHandle(
                dataset_id=self.dataset_id,
                dataset=dataset,
                spec={
                    "live": True,
                    "name": self.name,
                    "version": self.version,
                    "n_total": int(self._alive.shape[0]),
                    # Local -> global id map of this snapshot; responses
                    # computed against the handle stay version-consistent
                    # even if the dataset mutates mid-request.
                    "alive_ids": alive_ids,
                },
            )
            return self._handle

    def ensure_adjacency(self, radius: float) -> IncrementalNeighborhood:
        """The tracked incremental adjacency for ``radius``'s bucket.

        Built at the *request's* radius on first use (the bucket only
        keys the slot), mirroring SharedCacheManager: radii within one
        bucket share whichever build came first.  Once tracked, every
        later insert batch is fed into it by :meth:`apply`.
        """
        from repro.service.cache import radius_bucket

        bucket = radius_bucket(radius)
        with self._lock:
            adjacency = self._adjacency.get(bucket)
            if adjacency is None:
                adjacency = IncrementalNeighborhood(
                    self.points_all(), self.metric, float(radius), self._alive
                )
                self._adjacency[bucket] = adjacency
            return adjacency

    def adjacency_nbytes(self, radius: float) -> int:
        """Footprint estimate of the tracked adjacency for ``radius``
        (0 when the bucket is untracked) — what a lazily migrated cache
        entry reports until its compacted CSR materialises."""
        from repro.service.cache import radius_bucket

        with self._lock:
            adjacency = self._adjacency.get(radius_bucket(radius))
            return 0 if adjacency is None else int(adjacency.nbytes)

    def adjacency_snapshot(self, radius: float) -> Tuple[object, np.ndarray]:
        """``(csr, alive_ids)`` for the current version at ``radius``.

        The CSR is in local (compacted) id space and byte-identical to
        a fresh build over the alive points; ``alive_ids`` maps local →
        global.  The per-bucket incremental structure is created on
        first use and fed every later insert batch; it advances each
        version's snapshot from the previous one, and repeated calls at
        one version return the same object.
        """
        with self._lock:
            csr = self.ensure_adjacency(radius).snapshot_csr(self._alive)
            return csr, np.flatnonzero(self._alive)

    def adjacency_snapshot_for_mask(self, radius: float, mask: np.ndarray):
        """The compacted CSR for an *explicit* alive mask at ``radius``.

        The deferred half of lazy cache migration: a migrated bucket
        captures the post-batch alive mask at mutation time and resolves
        here on first read.  If the dataset has mutated again since, the
        pinned mask (shorter than the current one when inserts followed)
        still reproduces that version's adjacency exactly — it advances
        from the bucket's last snapshot if no id it marks alive died
        since, else gets a fresh grid build (``stale_mask_rebuilds``) —
        so a reader holding an older version-stamped handle never
        observes a newer version's graph.
        """
        with self._lock:
            return self.ensure_adjacency(radius).snapshot_csr(mask)

    def tracked_buckets(self) -> List[float]:
        """Radius buckets with a live incremental adjacency."""
        with self._lock:
            return sorted(self._adjacency)

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        with self._lock:
            return {
                "id": self.name,
                "loaded": True,
                "live": True,
                "version": self.version,
                "n": self.n_alive,
                "n_total": int(self._alive.shape[0]),
                "dim": self.dim,
                "metric": self.metric.name,
                "mutations": self.mutations,
                "compactions": self.compactions,
                "tracked_radii": self.tracked_buckets(),
                "stale_mask_rebuilds": sum(
                    a.stale_mask_rebuilds for a in self._adjacency.values()
                ),
                "spec": {"family": "live"},
            }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableDataset({self.name!r}, version={self.version}, "
            f"alive={self.n_alive}/{self.n_total})"
        )
