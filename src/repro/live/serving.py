"""Serving-side glue for live datasets.

:class:`LiveCacheView` is the one seam between the live subsystem and
the shared adjacency cache: it *is* a
:class:`~repro.service.cache.SharedCacheView` (same keying, same
single-flight and shm semantics — the dataset_id it scopes is already
version-stamped), but a miss is answered from the live dataset's
incremental adjacency instead of letting the engine run a full grid
build.  The first request at a radius pays the incremental structure's
initial build once; every post-mutation request pays only the
alive-mask compaction of the maintained structure.

A view is bound to one version-stamped handle, and its misses resolve
against that handle's alive mask, not the dataset's current one: a
``/select`` that overlaps a ``/mutate`` must not cache the next
version's graph under its own version's key.
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace as obs_trace
from repro.service.cache import SharedCacheManager, SharedCacheView

__all__ = ["LiveCacheView"]


class LiveCacheView(SharedCacheView):
    """A :class:`SharedCacheView` whose misses build incrementally.

    Attached by :meth:`repro.service.state.ServiceState.ensure_index`
    to indexes over live-dataset snapshots.  ``get`` keeps the
    manager's full miss protocol (single-flight claim, breaker, shm
    attach) and, when this thread ends up owning the build slot,
    resolves it with
    :meth:`~repro.live.dataset.MutableDataset.adjacency_snapshot_for_mask`
    at the alive mask of ``handle``'s version instead of returning None
    — so the engine's own builder never runs for a live dataset, and
    waiters/other workers receive the published snapshot exactly as
    they would a built one.
    """

    def __init__(self, manager: SharedCacheManager, handle, live) -> None:
        super().__init__(manager, handle.dataset_id, handle.dataset.metric)
        self.live = live
        self.alive = np.zeros(handle.spec["n_total"], dtype=bool)
        self.alive[handle.spec["alive_ids"]] = True

    def get(self, key: float):
        value = super().get(key)
        if value is not None:
            return value
        # This thread owns the build slot for the composite key.
        composite = self._key(key)
        try:
            csr = self.live.adjacency_snapshot_for_mask(key, self.alive)
        except BaseException as exc:
            self.manager.fail(composite, exc)
            raise
        # put() records the adjacency-build span from the claim
        # timestamp; this annotation marks it as the incremental path
        # (alive-mask compaction, not a ground-up engine build).
        obs_trace.annotate(live_incremental=True)
        self.manager.put(composite, csr)
        return csr
