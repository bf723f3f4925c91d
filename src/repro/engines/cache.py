"""Radius-keyed LRU cache for materialised adjacencies.

Every :class:`~repro.index.base.NeighborIndex` keeps its built
CSR/blocked adjacencies in an :class:`AdjacencyCache`.  The default is
unbounded (one-shot requests build at most one radius, so there is
nothing to evict); a :class:`~repro.api.DiscSession` installs a bounded
instance so interactive zoom/select sequences reuse the adjacency at
repeated radii while the total footprint stays capped.

Reuse is sound because the adjacencies are immutable once built
(:mod:`repro.graph.csr`: algorithms carry their mutable state — colors,
counts — in separate dense arrays), so a cache hit feeds a selection
byte-identical to a fresh build.

Eviction is LRU over both an entry budget and an optional byte budget;
entry sizes come from the ``nbytes`` hook on
:class:`~repro.graph.csr.CSRNeighborhood` and
:class:`~repro.graph.blocked.BlockedNeighborhood`.  The most recently
inserted entry is never evicted, so a single adjacency larger than the
byte budget still serves its own request.

All mutating operations (and the counter reads of :meth:`info`) take an
internal re-entrant lock, so a cache may be shared by concurrent
sessions.  The hit/miss/eviction counters are plain ints: this cache
belongs to a session, and no server renders it.  The serving layer's
shared cache (:mod:`repro.service.cache`) keeps its counters in its
server's metrics registry instead, behind ``/stats`` and ``/metrics``.

Locking convention (enforced by ``repro lint``, rule
``guarded-attribute``): every class sharing mutable state across
threads declares a ``_GUARDED_BY`` class attribute mapping attribute
name to the lock expression that must be held to mutate it (or the
sentinel ``"event-loop"`` for asyncio-owned state).  Helpers that run
with the lock already held say so in their docstring ("Caller holds
``self._lock``."); the linter accepts that contract and flags any new
call site that mutates outside a ``with``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

__all__ = ["AdjacencyCache"]


def _entry_bytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


class AdjacencyCache:
    """LRU mapping ``radius -> adjacency`` with hit/miss accounting.

    Parameters
    ----------
    max_entries:
        Maximum number of cached radii (None = unbounded).
    max_bytes:
        Soft byte budget over all cached adjacencies (None = unbounded);
        sizes come from each entry's ``nbytes``.
    """

    #: Lock discipline, mechanically enforced by `repro lint`.
    _GUARDED_BY = {
        "_entries": "self._lock",
        "hits": "self._lock",
        "misses": "self._lock",
        "evictions": "self._lock",
    }

    def __init__(
        self,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[float, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: float):
        """The cached adjacency for ``key``, or None (counts hit/miss)."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                value = None
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return value

    def peek(self, key: float):
        """Like :meth:`get`, but promises no follow-up :meth:`put`.

        Identical for the private LRU; the shared serving cache
        overrides it to answer without claiming a single-flight build
        slot (``csr_neighborhood(..., build=False)`` goes through
        here).
        """
        return self.get(key)

    def put(self, key: float, value) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past budget."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self._evict()

    def abandon(self, key: float) -> None:
        """A miss that will never be followed by :meth:`put` (no-op here).

        The shared serving cache single-flights builds: a miss claims a
        build slot that concurrent readers wait on, so a build that
        produces nothing (or raises) must release it.  The private LRU
        has no waiters; the hook exists so ``csr_neighborhood`` can
        treat both caches uniformly.
        """

    def fail(self, key: float, exc: BaseException) -> None:
        """A claimed build raised ``exc`` and will never :meth:`put`.

        The private LRU just releases the (no-op) slot; the shared
        serving cache overrides this to propagate the failure to every
        coalesced waiter and to feed its circuit breaker — which is why
        the exception travels with the release instead of callers
        calling plain :meth:`abandon`.
        """
        self.abandon(key)

    def _evict(self) -> None:
        with self._lock:
            while len(self._entries) > 1 and (
                (self.max_entries is not None and len(self._entries) > self.max_entries)
                or (self.max_bytes is not None and self.total_bytes > self.max_bytes)
            ):
                self._entries.popitem(last=False)
                self.evictions += 1

    def adopt(self, other: "AdjacencyCache") -> None:
        """Take over another cache's entries (oldest first), then apply
        this cache's budgets.  Used when a session installs a bounded
        cache on an index that may already hold adjacencies."""
        with self._lock, other._lock:
            for key, value in other._entries.items():
                self._entries[key] = value
                self._entries.move_to_end(key)
            self._evict()

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(_entry_bytes(v) for v in self._entries.values())

    def info(self) -> dict:
        """Counters + footprint snapshot (plain JSON-serialisable dict)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "radii": [float(k) for k in self._entries],
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes": self.total_bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

    def cache_info(self) -> dict:
        """Alias of :meth:`info` matching the session/service vocabulary
        (``DiscSession.cache_info`` and the ``/stats`` endpoint both
        serialise this dict verbatim)."""
        return self.info()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AdjacencyCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
