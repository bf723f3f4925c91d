"""Process-wide shared adjacency cache for the serving layer.

The per-session :class:`~repro.engines.cache.AdjacencyCache` answers
"this user zoomed back to a radius they already looked at".  A server
answers a stronger question: *some other user* already looked at this
radius on this dataset — the adjacency they paid for should serve
everyone.  :class:`SharedCacheManager` is that evolution: one
process-wide, thread-safe store keyed by

    ``(dataset_id, metric_name, radius_bucket)``

deliberately **engine-agnostic**: the fixed-radius neighborhood
``N_r`` is a property of (points, metric, radius), not of the index
that materialised it, and the engine parity suites pin selections to
be byte-identical across the CSR/blocked producers — so a grid-built
adjacency can serve a KD-tree session.  Radii are bucketed to 12
significant digits (:func:`radius_bucket`) so a radius that round-trips
through JSON, or is recomputed as ``base * multiplier`` with different
association, still lands on the same entry.

Sessions and serving indexes attach through :class:`SharedCacheView`,
an :class:`~repro.engines.cache.AdjacencyCache`-compatible adapter that
namespaces one ``(dataset, metric)`` pair — so
:meth:`repro.index.base.NeighborIndex.set_adjacency_cache` and every
``csr_neighborhood`` call path work unchanged.

Build coalescing
----------------
A cache miss makes the caller build the adjacency and ``put`` it back.
With N concurrent sessions that is N identical builds.  The manager
single-flights them: the first missing thread becomes the *builder*;
later threads block (up to ``build_wait_s``) on the builder's event and
receive the finished adjacency as a hit (counted in
``coalesced_builds``).  A builder that **raises** calls :meth:`fail`
(via ``csr_neighborhood``), which hands the exception to every waiter
promptly as a :class:`~repro.service.resilience.BuildFailed` — waiting
out ``build_wait_s`` for a value that will never arrive is reserved for
a builder that silently dies, the liveness fallback.

Failure containment
-------------------
Repeated build failures trip a per-key
:class:`~repro.service.resilience.CircuitBreaker` (closed → open →
half-open): while open, no build is attempted and callers either get a
**stale** value or :class:`~repro.service.resilience.CircuitOpen`.
TTL-expired entries are not dropped but demoted to the stale tier; a
stale value is served — with the ambient
:class:`~repro.cancellation.CancellationToken` marked degraded — when
the breaker is open, or when the request's remaining deadline is
smaller than the key's recorded build time (a rebuild could not finish
anyway).  Entries carry a type stamp checked on every read (a cheap
integrity check standing in for a checksum); a mismatching entry is
dropped and rebuilt, never served.

Budgets and TTL
---------------
Eviction is LRU over an entry budget and a byte budget (entry sizes
from the ``nbytes`` hook, same as the session cache); the most recently
inserted entry is never evicted.  ``ttl_s`` ages entries into the stale
tier; expiry is checked on access (counted in ``expirations``).  The
stale tier is LRU-bounded by the same entry budget.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cancellation import OperationCancelled, current_token
from repro.engines.cache import AdjacencyCache
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.resilience import BuildFailed, CircuitBreaker, CircuitOpen

__all__ = [
    "LazyMigration",
    "SharedCacheManager",
    "SharedCacheView",
    "phase_histogram",
    "radius_bucket",
]

#: Composite cache key: (dataset_id, metric_name, radius_bucket).
CacheKey = Tuple[str, str, float]

#: A rebuild is "too tight" when the remaining deadline is under this
#: multiple of the key's last observed build time.
REBUILD_SAFETY = 1.5


def radius_bucket(radius: float) -> float:
    """Quantise a radius to 12 significant digits.

    Wire round-trips and float re-association (``0.1 * 3`` vs ``0.3``)
    perturb the last couple of ULPs; 12 significant digits absorbs that
    while keeping genuinely different radii — anything a user could
    tell apart — in distinct buckets.
    """
    return float(f"{float(radius):.12g}")


def _entry_bytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


#: The manager's counters by :meth:`SharedCacheManager.cache_info` key,
#: with the registry family that is each one's only store (lookups are
#: the labelled ``repro_cache_lookups_total`` beside these).
_COUNTERS = {
    "builds": ("repro_adjacency_builds_total",
               "Adjacency builds completed by cache-owning threads."),
    "coalesced_builds": ("repro_cache_coalesced_builds_total",
                         "Lookups answered by waiting on a concurrent build."),
    "build_failures": ("repro_adjacency_build_failures_total",
                       "Claimed adjacency builds that raised."),
    "evictions": ("repro_cache_evictions_total",
                  "Entries evicted over budget from the fresh or stale tier."),
    "expirations": ("repro_cache_expirations_total",
                    "Entries demoted to the stale tier by their TTL."),
    "corrupt_entries": ("repro_cache_corrupt_entries_total",
                        "Entries dropped after failing the integrity check."),
    "shm_hits": ("repro_shm_attaches_total",
                 "Adjacencies attached from the cross-process shm tier."),
    "shm_stores": ("repro_shm_stores_total",
                   "Built adjacencies published to the cross-process shm tier."),
    "migrations": ("repro_cache_migrations_total",
                   "Cache buckets carried across live-dataset versions."),
}


def phase_histogram(metrics: obs_metrics.MetricsRegistry) -> obs_metrics.Histogram:
    """The one registration of ``repro_phase_duration_seconds``: the
    cache observes adjacency builds into it, the service state
    selections and repairs."""
    return metrics.histogram(
        "repro_phase_duration_seconds",
        "Measured duration of one request phase, by phase.",
        ("phase",),
    )


class LazyMigration:
    """A migrated live-dataset bucket awaiting its first read.

    :meth:`SharedCacheManager.migrate_dataset` installs the *recipe* —
    a zero-argument resolver pinned to the just-mutated version's alive
    mask — instead of the compacted CSR, so the mutation hot path pays
    nothing for buckets no request reads between batches (compaction is
    O(nnz); a mutation batch is O(delta)).  The first read materialises
    the CSR outside the cache lock and swaps it into the entry: it
    counts as a hit, never as a build or a miss, because the adjacency
    was carried across versions, not rebuilt.  ``nbytes`` is the
    incremental structure's footprint estimate, keeping the byte budget
    honest until the real CSR replaces it.
    """

    __slots__ = ("resolve", "nbytes")

    def __init__(self, resolve, nbytes: int = 0) -> None:
        self.resolve = resolve
        self.nbytes = int(nbytes)


@dataclass
class _Entry:
    value: object
    expires_at: Optional[float]  # time.monotonic() deadline, None = never
    stamp: str = ""  # type name recorded at put; integrity check on read

    def __post_init__(self) -> None:
        if not self.stamp:
            self.stamp = type(self.value).__name__

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def intact(self) -> bool:
        return type(self.value).__name__ == self.stamp


class _PendingBuild:
    """One in-flight adjacency build (the single-flight token)."""

    __slots__ = ("owner", "event", "error", "claimed_at")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.event = threading.Event()
        self.error: Optional[BaseException] = None
        self.claimed_at = time.monotonic()


class SharedCacheManager:
    """Thread-safe, budgeted, TTL'd adjacency store shared by sessions.

    Parameters
    ----------
    max_entries:
        LRU entry budget across all datasets (None = unbounded); also
        bounds the stale tier.
    max_bytes:
        Byte budget across all datasets (None = unbounded); entry sizes
        come from each adjacency's ``nbytes``.
    ttl_s:
        Seconds an entry stays fresh after insertion (None = forever);
        expired entries demote to the stale tier.
    build_wait_s:
        How long a missing thread waits for a concurrent builder of the
        same key before giving up and building itself.
    failure_threshold / breaker_reset_s:
        Per-key circuit breaker: consecutive build failures before the
        circuit opens, and the cooldown before a half-open probe.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; hooks
        fire at the miss-claim (build failures / slow builds) and at
        ``put`` (entry corruption).
    backing:
        Optional cross-process tier (:class:`~repro.service.shm.
        ShmCacheBacking`): a local miss first tries to *attach* the
        value from shared memory (counted as ``shm_hits``, never as a
        build) or claims the cluster-wide build slot; ``put`` then
        publishes the built value for other workers.  This is what
        keeps ``builds == unique radii`` across a supervised cluster.

    ``metrics`` is the :class:`~repro.obs.metrics.MetricsRegistry` of
    the server this cache serves.  Every counter of :meth:`cache_info`
    lives there and only there, so ``/stats`` and ``/metrics`` read the
    same instruments.
    """

    #: Lock discipline, mechanically enforced by `repro lint` (rule
    #: guarded-attribute; convention documented in repro.engines.cache).
    _GUARDED_BY = {
        "_entries": "self._lock",
        "_stale": "self._lock",
        "_pending": "self._lock",
        "_breakers": "self._lock",
        "_build_seconds": "self._lock",
        "_backing_claims": "self._lock",
    }

    def __init__(
        self,
        max_entries: Optional[int] = 64,
        max_bytes: Optional[int] = None,
        ttl_s: Optional[float] = None,
        build_wait_s: float = 60.0,
        *,
        failure_threshold: int = 3,
        breaker_reset_s: float = 30.0,
        faults=None,
        backing=None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be > 0, got {ttl_s}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.build_wait_s = build_wait_s
        self.failure_threshold = failure_threshold
        self.breaker_reset_s = breaker_reset_s
        self.faults = faults
        self.backing = backing
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._stale: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._pending: Dict[CacheKey, _PendingBuild] = {}
        self._breakers: Dict[CacheKey, CircuitBreaker] = {}
        self._build_seconds: Dict[CacheKey, float] = {}
        self._backing_claims: Dict[CacheKey, object] = {}
        # Counters live in the registry only (the metrics lock is a
        # leaf, so bumping them under self._lock cannot form a cycle).
        # A stale serve counts as outcome="stale", and cache_info()'s
        # ``hits`` is hit + stale.
        self.metrics = obs_metrics.MetricsRegistry()
        self._m_lookups = self.metrics.counter(
            "repro_cache_lookups_total",
            "Shared adjacency cache lookups by outcome (hit, miss, stale).",
            ("outcome",),
        )
        self._m = {key: self.metrics.counter(*spec) for key, spec in _COUNTERS.items()}
        self._m_phase = phase_histogram(self.metrics)

    # ------------------------------------------------------------------
    def view(self, dataset_id: str, metric) -> "SharedCacheView":
        """An adapter scoping this manager to one (dataset, metric)."""
        return SharedCacheView(self, dataset_id, metric)

    # ------------------------------------------------------------------
    # Internal helpers (call with self._lock held)
    # ------------------------------------------------------------------
    def _fresh_value(self, key: CacheKey):
        """The fresh, intact value for ``key`` or None.  Caller holds
        ``self._lock``.

        Expired entries demote to the stale tier; corrupt entries are
        dropped (never demoted — a failed integrity check means the
        bytes cannot be trusted at any age).
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        if not entry.intact():
            del self._entries[key]
            self._m["corrupt_entries"].inc()
            return None
        if entry.expired(time.monotonic()):
            del self._entries[key]
            self._m["expirations"].inc()
            self._stale[key] = entry
            self._stale.move_to_end(key)
            self._evict_stale()
            return None
        self._entries.move_to_end(key)
        return entry.value

    def _stale_value(self, key: CacheKey):
        """The intact stale value for ``key`` or None.  Caller holds
        ``self._lock``."""
        entry = self._stale.get(key)
        if entry is None:
            return None
        if not entry.intact():
            del self._stale[key]
            self._m["corrupt_entries"].inc()
            return None
        self._stale.move_to_end(key)
        return entry.value

    def _serve_stale(self, key: CacheKey, value, reason: str):
        """Account a degraded stale hit.  Caller holds ``self._lock``."""
        self._m_lookups.inc(outcome="stale")
        token = current_token()
        if token is not None:
            token.mark_degraded(f"stale-adjacency:{reason}")
        return value

    def _breaker(self, key: CacheKey) -> CircuitBreaker:
        """The (created-on-first-use) breaker for ``key``.  Caller
        holds ``self._lock``."""
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.metrics, self.failure_threshold, self.breaker_reset_s
            )
            self._breakers[key] = breaker
        return breaker

    def _claim(self, key: CacheKey) -> None:
        """Claim the build slot for this thread.  Caller holds
        ``self._lock``."""
        self._pending[key] = _PendingBuild(threading.get_ident())
        self._m_lookups.inc(outcome="miss")

    def _rebuild_too_tight(self, key: CacheKey) -> bool:
        """Would a rebuild overshoot the ambient deadline?"""
        estimate = self._build_seconds.get(key)
        if estimate is None:
            return False
        token = current_token()
        if token is None:
            return False
        remaining = token.remaining()
        return remaining is not None and remaining < estimate * REBUILD_SAFETY

    # ------------------------------------------------------------------
    def _materialise(self, key: CacheKey, value):
        """Swap a :class:`LazyMigration` for its compacted CSR on first
        read.

        Runs *outside* the manager lock: resolving takes the live
        dataset's lock (and a compaction's worth of work), and the
        mutation path nests live-lock → cache-lock, so resolving under
        the cache lock would invert the order.  Concurrent readers
        resolve to the same snapshot object (the live dataset caches
        one per version); an entry migrated away mid-resolve simply
        isn't re-installed.
        """
        if not isinstance(value, LazyMigration):
            return value
        csr = value.resolve()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._stale.get(key)
            if entry is not None and entry.value is value:
                entry.value = csr
                entry.stamp = type(csr).__name__
        return csr

    def get(self, key: CacheKey):
        """The cached adjacency, or None — in which case the caller owns
        the build and must :meth:`put` (or :meth:`fail`/:meth:`abandon`)
        the key.

        If another thread is already building this key, blocks up to
        ``build_wait_s`` for its result instead of duplicating the
        build; a builder that raised hands its exception over promptly
        as :class:`BuildFailed`.  While the key's circuit breaker is
        open — or the ambient deadline cannot fit a rebuild — a stale
        value is served degraded instead of building.
        """
        value = self._get(key)
        if value is None:
            return None
        return self._materialise(key, value)

    def _get(self, key: CacheKey):
        deadline = time.monotonic() + self.build_wait_s
        while True:
            with self._lock:
                value = self._fresh_value(key)
                if value is not None:
                    self._m_lookups.inc(outcome="hit")
                    return value
                pending = self._pending.get(key)
                if pending is not None and pending.owner == threading.get_ident():
                    # Re-entrant miss (builder probing again): keep
                    # ownership, let it proceed with its build.
                    self._m_lookups.inc(outcome="miss")
                    return None
                if pending is None:
                    # No build in flight: we would become the builder —
                    # unless the breaker or the deadline says otherwise.
                    breaker = self._breakers.get(key)
                    if breaker is not None and not breaker.allow():
                        stale = self._stale_value(key)
                        if stale is not None:
                            return self._serve_stale(key, stale, "circuit-open")
                        raise CircuitOpen(key, breaker.retry_after_s())
                    if self._rebuild_too_tight(key):
                        stale = self._stale_value(key)
                        if stale is not None:
                            return self._serve_stale(key, stale, "deadline")
                    self._claim(key)
                else:
                    event = pending.event
            if pending is None:
                # Claimed the build slot; injected faults fire here so a
                # "build raises"/"slow build" exercises the exact path a
                # real engine failure takes (fail() + propagation).
                if self.faults is not None:
                    try:
                        self.faults.on_build()
                    except BaseException as exc:
                        self.fail(key, exc)
                        raise
                if self.backing is not None:
                    value = self._backing_fetch(key)
                    if value is not None:
                        # The shm attach resolves this thread's local
                        # claim too: wake any local waiters.
                        return value
                return None
            # Someone else is building: wait outside the lock.
            if not event.wait(timeout=max(0.0, deadline - time.monotonic())):
                # Builder stalled or abandoned without notice — take
                # over ownership rather than deadlocking.
                with self._lock:
                    if self._pending.get(key) is pending:
                        self._claim(key)
                        return None
                continue  # ownership changed hands; re-evaluate
            if pending.error is not None:
                # The builder raised: propagate promptly.  With the
                # breaker open and a stale value on hand, degrade
                # instead of failing the request.
                with self._lock:
                    breaker = self._breakers.get(key)
                    if breaker is not None and not breaker.allow():
                        stale = self._stale_value(key)
                        if stale is not None:
                            return self._serve_stale(key, stale, "circuit-open")
                raise BuildFailed(key, pending.error)
            with self._lock:
                value = self._fresh_value(key)
                if value is not None:
                    self._m_lookups.inc(outcome="hit")
                    self._m["coalesced_builds"].inc()
                    return value
                if key not in self._pending:
                    self._claim(key)
                    return None
            # Another thread re-registered first; wait for it in turn.

    def peek(self, key: CacheKey):
        """The cached adjacency or None — no build slot is claimed and
        no waiting happens, so callers must not follow with ``put``."""
        with self._lock:
            value = self._fresh_value(key)
        self._m_lookups.inc(outcome="miss" if value is None else "hit")
        if value is None:
            return None
        return self._materialise(key, value)

    def _backing_fetch(self, key: CacheKey):
        """Try the cross-process tier after a local miss-claim.

        Returns the attached value (installed locally, counted as an
        ``shm_hit`` — NOT a build) or None, in which case this thread
        still owns the local build slot; if the backing granted the
        cluster-wide build claim it is stashed for :meth:`put` to
        publish.  Any backing failure degrades to a local build.
        """
        try:
            with obs_trace.phase("shm-attach"):
                status, got = self.backing.load_or_claim(key)
        except BaseException:  # repro-lint: disable=swallowed-cancellation -- deliberate: fall through to the local build, whose own checkpoints abort promptly under the same token
            # Includes OperationCancelled from the wait loop's
            # checkpoints: any backing failure degrades to a local
            # build rather than failing the request.
            return None
        if status == "value":
            self._install(key, got, count_build=False)
            self._m["shm_hits"].inc()
            return got
        if status == "claim":
            with self._lock:
                self._backing_claims[key] = got
        return None

    def _install(self, key: CacheKey, value, *, count_build: bool) -> None:
        """Insert a value and wake coalesced waiters (shared by local
        builds and shm attaches; only the former counts as a build)."""
        now = time.monotonic()
        expires = None if self.ttl_s is None else now + self.ttl_s
        stored = value
        if self.faults is not None and count_build:
            stored = self.faults.maybe_corrupt(value)
        with self._lock:
            # Stamp with the *real* value's type: an injected corrupt
            # wrapper therefore fails the integrity check on first read.
            self._entries[key] = _Entry(stored, expires, type(value).__name__)
            self._entries.move_to_end(key)
            self._stale.pop(key, None)  # fresh build supersedes stale
            if count_build:
                self._m["builds"].inc()
            pending = self._pending.pop(key, None)
            if pending is not None:
                self._build_seconds[key] = max(
                    1e-6, now - pending.claimed_at
                )
            breaker = self._breakers.get(key)
            if breaker is not None:
                breaker.record_success()
            self._evict()
        if pending is not None:
            pending.event.set()
            if count_build:
                # The build ran inside the engine, below any span seam;
                # reconstruct it retroactively from the claim timestamp
                # so traces still show where a slow request's time went.
                build_s = max(0.0, now - pending.claimed_at)
                obs_trace.record_phase("adjacency-build", build_s * 1000.0)
                self._m_phase.observe(build_s, phase="adjacency-build")

    def put(self, key: CacheKey, value) -> None:
        """Insert a built adjacency; wakes any coalesced waiters and
        publishes to the cross-process backing when this process holds
        the cluster-wide build claim."""
        self._install(key, value, count_build=True)
        with self._lock:
            claim = self._backing_claims.pop(key, None)
        if claim is not None and self.backing is not None:
            try:
                if self.backing.publish(claim, value):
                    self._m["shm_stores"].inc()
            except OperationCancelled:
                # The deadline expired mid-publish: release the
                # cluster-wide claim so a healthy worker takes over the
                # publish, and propagate so this request answers
                # 408/504 instead of silently losing its cancellation.
                try:
                    claim.abandon()
                except Exception:  # pragma: no cover - defensive
                    pass
                raise
            except Exception:
                try:
                    claim.abandon()
                except Exception:  # pragma: no cover - defensive
                    pass

    def _release_backing(self, key: CacheKey) -> None:
        with self._lock:
            claim = self._backing_claims.pop(key, None)
        if claim is not None and self.backing is not None:
            try:
                self.backing.abandon(claim)
            except Exception:  # pragma: no cover - defensive
                pass

    def abandon(self, key: CacheKey) -> None:
        """Give up a build slot claimed by a miss (nothing to cache).

        Engines that cannot materialise an adjacency (``_build_csr``
        returning None) never call :meth:`put`; releasing the pending
        token here lets waiters proceed immediately instead of riding
        out ``build_wait_s``.
        """
        self._release_backing(key)
        with self._lock:
            pending = self._pending.pop(key, None)
        if pending is not None:
            pending.event.set()

    def fail(self, key: CacheKey, exc: BaseException) -> None:
        """A claimed build raised: propagate to waiters, feed the breaker.

        Cooperative cancellations are *not* failures — the dependency
        is healthy, the requester just ran out of budget — so they
        release the slot like :meth:`abandon` and let a waiter take
        over the build under its own deadline.
        """
        if isinstance(exc, OperationCancelled):
            self.abandon(key)
            return
        self._release_backing(key)
        with self._lock:
            pending = self._pending.pop(key, None)
            self._m["build_failures"].inc()
            self._breaker(key).record_failure()
        if pending is not None:
            pending.error = exc  # must precede the wake-up
            pending.event.set()

    # ------------------------------------------------------------------
    # Live-dataset migration
    # ------------------------------------------------------------------
    def migrate_dataset(self, old_dataset_id, new_dataset_id, patcher) -> int:
        """Re-key ``old_dataset_id``'s entries to ``new_dataset_id``,
        patching each value through ``patcher(metric_name, bucket)``.

        The live-dataset mutation path: instead of dropping every cached
        adjacency of a mutated dataset (whole-entry invalidation), each
        *fresh* entry's radius bucket is patched incrementally — the
        patcher returns the value for the new version, typically a
        :class:`LazyMigration` whose compacted CSR materialises on first
        read — and installed under the new version-stamped dataset id.
        Patched keys count as ``migrations``, never as builds.  Every
        key of the old version (fresh tier, stale tier, breakers,
        build-time estimates, shm segments) is then dropped: the old
        version is unreachable, scoped precisely to the dataset that
        mutated.

        A patcher returning None (or raising) drops that bucket instead
        of migrating it — the next request rebuilds it under the new
        key.  Returns the number of migrated buckets.
        """
        with self._lock:
            old_keys = [
                key
                for key in set(self._entries) | set(self._stale)
                if key[0] == old_dataset_id
            ]
            fresh_keys = [key for key in old_keys if key in self._entries]
        migrated = 0
        for key in fresh_keys:
            _, metric_name, bucket = key
            try:
                value = patcher(metric_name, bucket)
            except OperationCancelled:
                raise
            except Exception:
                value = None
            if value is None:
                continue
            new_key = (new_dataset_id, metric_name, bucket)
            now = time.monotonic()
            expires = None if self.ttl_s is None else now + self.ttl_s
            with self._lock:
                self._entries[new_key] = _Entry(value, expires)
                self._entries.move_to_end(new_key)
                self._stale.pop(new_key, None)
                self._m["migrations"].inc()
                self._evict()
            migrated += 1
        with self._lock:
            for key in old_keys:
                self._entries.pop(key, None)
                self._stale.pop(key, None)
                self._breakers.pop(key, None)
                self._build_seconds.pop(key, None)
        if self.backing is not None:
            for key in old_keys:
                try:
                    self.backing.drop(key)
                except OperationCancelled:
                    raise
                except Exception:  # pragma: no cover - defensive
                    pass
        return migrated

    def _evict(self) -> None:
        with self._lock:
            while len(self._entries) > 1 and (
                (
                    self.max_entries is not None
                    and len(self._entries) > self.max_entries
                )
                or (self.max_bytes is not None and self.total_bytes > self.max_bytes)
            ):
                self._entries.popitem(last=False)
                self._m["evictions"].inc()

    def _evict_stale(self) -> None:
        """Trim the stale tier to budget.  Caller holds ``self._lock``."""
        if self.max_entries is None:
            return
        while len(self._stale) > self.max_entries:
            self._stale.popitem(last=False)
            self._m["evictions"].inc()

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(_entry_bytes(e.value) for e in self._entries.values())

    def breaker_state(self, key: CacheKey) -> str:
        """The breaker state for ``key`` (``"closed"`` if none exists)."""
        with self._lock:
            breaker = self._breakers.get(key)
        return "closed" if breaker is None else breaker.state

    def cache_info(self) -> dict:
        """Counters + per-key footprint (plain JSON-serialisable dict).

        The counters are read back from the registry instruments, as
        ints; ``hits`` includes the stale serves."""
        with self._lock:
            now = time.monotonic()
            lookups = self._m_lookups.by_label()
            stale = int(lookups.get("stale", 0))
            return {
                "entries": len(self._entries),
                "keys": [
                    {
                        "dataset": dataset,
                        "metric": metric,
                        "radius": bucket,
                        "bytes": _entry_bytes(entry.value),
                        "ttl_remaining_s": (
                            None
                            if entry.expires_at is None
                            else round(max(0.0, entry.expires_at - now), 3)
                        ),
                    }
                    for (dataset, metric, bucket), entry in self._entries.items()
                ],
                "hits": int(lookups.get("hit", 0)) + stale,
                "misses": int(lookups.get("miss", 0)),
                "stale_entries": len(self._stale),
                "stale_served": stale,
                **{key: int(counter.value()) for key, counter in self._m.items()},
                "backing": (
                    None if self.backing is None else self.backing.info()
                ),
                "breakers": {
                    f"{dataset}/{metric}@{bucket}": breaker.describe()
                    for (dataset, metric, bucket), breaker in self._breakers.items()
                },
                "bytes": self.total_bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "ttl_s": self.ttl_s,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._stale.clear()
            self._breakers.clear()
            self._build_seconds.clear()
            pending = list(self._pending.values())
            self._pending.clear()
            claims = list(self._backing_claims.values())
            self._backing_claims.clear()
        for build in pending:
            build.event.set()
        for claim in claims:
            try:
                self.backing.abandon(claim)
            except Exception:  # pragma: no cover - defensive
                pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SharedCacheManager(entries={len(self)}, bytes={self.total_bytes})"


class SharedCacheView(AdjacencyCache):
    """A per-(dataset, metric) window onto a :class:`SharedCacheManager`.

    Implements the :class:`~repro.engines.cache.AdjacencyCache` protocol
    (``get``/``put``/``fail``/``adopt``/``info``/``clear`` keyed by
    radius), so a :class:`~repro.index.base.NeighborIndex` — and
    therefore a :class:`~repro.api.DiscSession` — attaches to the shared
    store with ``set_adjacency_cache(manager.view(dataset_id, metric))``
    and no other change.  The view keeps its own hit/miss counters (what
    *this* session saw) next to the manager-wide ones.
    """

    #: Lock discipline (see :mod:`repro.engines.cache`): the manager
    #: guards the shared tiers; the view only owns its two counters.
    _GUARDED_BY = {
        "hits": "self._lock",
        "misses": "self._lock",
    }

    def __init__(self, manager: SharedCacheManager, dataset_id: str, metric) -> None:
        super().__init__()
        self.manager = manager
        self.dataset_id = str(dataset_id)
        self.metric_name = getattr(metric, "name", str(metric))

    def _key(self, radius: float) -> CacheKey:
        return (self.dataset_id, self.metric_name, radius_bucket(radius))

    # ------------------------------------------------------------------
    def get(self, key: float):
        with obs_trace.phase("cache-lookup", radius=float(key)):
            value = self.manager.get(self._key(key))
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def peek(self, key: float):
        value = self.manager.peek(self._key(key))
        with self._lock:
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
        return value

    def put(self, key: float, value) -> None:
        self.manager.put(self._key(key), value)

    def abandon(self, key: float) -> None:
        self.manager.abandon(self._key(key))

    def fail(self, key: float, exc: BaseException) -> None:
        self.manager.fail(self._key(key), exc)

    def adopt(self, other: AdjacencyCache) -> None:
        """Carry a session-private cache's entries into the shared store
        (called by ``set_adjacency_cache`` when a view replaces an
        index's default cache)."""
        if isinstance(other, SharedCacheView):
            return  # already shared; nothing private to carry over
        with other._lock:
            items = list(other._entries.items())
        for radius, value in items:
            self.manager.put(self._key(radius), value)

    # ------------------------------------------------------------------
    def info(self) -> dict:
        """This view's counters plus the shared keys it can see."""
        shared = self.manager.cache_info()
        mine = [
            k
            for k in shared["keys"]
            if k["dataset"] == self.dataset_id and k["metric"] == self.metric_name
        ]
        with self._lock:
            return {
                "dataset": self.dataset_id,
                "metric": self.metric_name,
                "entries": len(mine),
                "radii": [k["radius"] for k in mine],
                "hits": self.hits,
                "misses": self.misses,
                "evictions": shared["evictions"],
                "bytes": sum(k["bytes"] for k in mine),
                "max_entries": self.manager.max_entries,
                "max_bytes": self.manager.max_bytes,
                "shared": {
                    key: value for key, value in shared.items()
                    if key not in ("keys", "breakers", "backing")
                },
            }

    cache_info = info

    def clear(self) -> None:
        """Drop this view's keys from the shared store (others stay)."""
        with self.manager._lock:
            for tier in (self.manager._entries, self.manager._stale):
                doomed = [
                    key
                    for key in tier
                    if key[0] == self.dataset_id and key[1] == self.metric_name
                ]
                for key in doomed:
                    del tier[key]

    def __contains__(self, key) -> bool:
        with self.manager._lock:
            entry = self.manager._entries.get(self._key(key))
            return (
                entry is not None
                and not entry.expired(time.monotonic())
                and entry.intact()
            )

    def __len__(self) -> int:
        return len(self.info()["radii"])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SharedCacheView(dataset={self.dataset_id!r}, "
            f"metric={self.metric_name!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
