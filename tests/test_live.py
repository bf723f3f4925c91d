"""Unit tests for the ``repro.live`` subsystem (PR 9).

Covers the three layers beneath the ``/mutate`` endpoint:

* :class:`MutableDataset` — versioning, stable arrival ids, batch
  validation, compaction, snapshot handles;
* :class:`IncrementalNeighborhood` — byte-parity of incremental
  snapshots with fresh CSR builds across insert/delete churn;
* :func:`repair_selection` — Definition 1 validity of repaired
  selections plus the kept/added/removed accounting.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import verify_disc
from repro.datasets import Dataset
from repro.distance import EUCLIDEAN
from repro.graph import IncrementalNeighborhood, build_csr_pairwise
from repro.live import LiveCacheView, MutableDataset, MutationError
from repro.live.repair import jaccard, repair_selection, repair_selection_delta

RADIUS = 0.15


def _dataset(points, name="live-test"):
    return Dataset(name=name, points=np.asarray(points, dtype=float), metric=EUCLIDEAN)


def _live(rng, n=40, **kwargs):
    return MutableDataset("live-test", _dataset(rng.random((n, 2))), **kwargs)


class TestMutableDataset:
    def test_versioned_identity(self, rng):
        live = _live(rng)
        assert live.dataset_id == "live-test@v0"
        delta = live.apply(inserts=rng.random((3, 2)))
        assert delta["version"] == 1
        assert live.dataset_id == "live-test@v1"
        assert delta["inserted"] == [40, 41, 42]

    def test_ids_are_arrival_positions_forever(self, rng):
        live = _live(rng, n=10)
        live.apply(deletes=[3, 7])
        delta = live.apply(inserts=rng.random((2, 2)))
        # Tombstones never renumber: inserts continue after every id
        # ever assigned, and alive_ids skips the dead ones.
        assert delta["inserted"] == [10, 11]
        assert live.n_total == 12
        assert live.n_alive == 10
        alive = live.alive_ids()
        assert 3 not in alive and 7 not in alive
        assert {10, 11} <= set(int(i) for i in alive)

    def test_empty_batch_rejected(self, rng):
        live = _live(rng)
        with pytest.raises(MutationError, match="empty"):
            live.apply()
        assert live.version == 0

    def test_bad_deletes_rejected_before_applying(self, rng):
        live = _live(rng, n=10)
        with pytest.raises(MutationError, match="unknown ids"):
            live.apply(deletes=[99])
        with pytest.raises(MutationError, match="duplicate"):
            live.apply(deletes=[1, 1])
        live.apply(deletes=[4])
        with pytest.raises(MutationError, match="already-deleted"):
            live.apply(deletes=[4])
        # Validation happens before anything mutates: a batch mixing a
        # valid insert with a bad delete must not leak the insert.
        with pytest.raises(MutationError):
            live.apply(inserts=[[0.5, 0.5]], deletes=[4])
        assert live.n_total == 10
        assert live.version == 1

    def test_bad_inserts_rejected(self, rng):
        live = _live(rng)
        with pytest.raises(MutationError, match="points"):
            live.apply(inserts=[[1.0, 2.0, 3.0]])
        with pytest.raises(MutationError, match="non-finite"):
            live.apply(inserts=[[np.nan, 0.0]])

    def test_compaction_preserves_points(self, rng):
        live = _live(rng, n=8, compact_every=2)
        rows = [rng.random((1, 2)) for _ in range(5)]
        expected = np.concatenate([live.points_all()] + rows)
        for row in rows:
            live.apply(inserts=row)
        assert live.compactions >= 2
        np.testing.assert_array_equal(live.points_all(), expected)

    def test_snapshot_handle_frozen_and_cached(self, rng):
        live = _live(rng, n=12)
        live.apply(deletes=[0, 5])
        handle = live.snapshot_handle()
        assert handle.dataset_id == "live-test@v1"
        assert handle.spec["live"] is True
        assert handle.spec["version"] == 1
        assert handle.dataset.points.shape[0] == 10
        with pytest.raises(ValueError):
            handle.dataset.points[0, 0] = 99.0
        assert live.snapshot_handle() is handle  # cached per version
        live.apply(inserts=[[0.5, 0.5]])
        assert live.snapshot_handle() is not handle

    def test_mutation_log_records_deltas(self, rng):
        live = _live(rng, n=6)
        live.apply(inserts=[[0.1, 0.2]])
        live.apply(deletes=[2])
        log = live.mutation_log()
        assert [d["version"] for d in log] == [1, 2]
        assert log[0]["inserted"] == [6]
        assert log[1]["deleted"] == [2]


class TestIncrementalAdjacency:
    def _fresh(self, points):
        return build_csr_pairwise(np.asarray(points), EUCLIDEAN, RADIUS)

    def _assert_parity(self, incremental, points, alive):
        snap = incremental.snapshot_csr(alive)
        fresh = self._fresh(np.asarray(points)[alive])
        np.testing.assert_array_equal(snap.indptr, fresh.indptr)
        np.testing.assert_array_equal(snap.indices, fresh.indices)

    def test_append_matches_fresh_build(self, rng):
        points = rng.random((60, 2))
        incremental = IncrementalNeighborhood(points[:40], EUCLIDEAN, RADIUS)
        points_so_far = points[:40]
        for batch_end in (50, 60):
            count = batch_end - points_so_far.shape[0]
            points_so_far = points[:batch_end]
            incremental.append(points_so_far, count)
            alive = np.ones(batch_end, dtype=bool)
            self._assert_parity(incremental, points_so_far, alive)

    def test_alive_mask_filtering_matches_fresh_build(self, rng):
        points = rng.random((80, 2))
        incremental = IncrementalNeighborhood(points, EUCLIDEAN, RADIUS)
        alive = np.ones(80, dtype=bool)
        alive[rng.choice(80, size=25, replace=False)] = False
        self._assert_parity(incremental, points, alive)

    def test_interleaved_churn_parity(self, rng):
        """Inserts and deletes interleaved across many versions."""
        points = rng.random((50, 2))
        incremental = IncrementalNeighborhood(points, EUCLIDEAN, RADIUS)
        alive = np.ones(50, dtype=bool)
        for _ in range(6):
            batch = rng.random((7, 2))
            points = np.concatenate([points, batch])
            incremental.append(points, 7)
            alive = np.concatenate([alive, np.ones(7, dtype=bool)])
            victims = rng.choice(np.flatnonzero(alive), size=4, replace=False)
            alive[victims] = False
            self._assert_parity(incremental, points, alive)

    def test_dataset_adjacency_snapshot_parity(self, rng):
        live = _live(rng, n=50)
        live.apply(inserts=rng.random((10, 2)), deletes=[1, 2, 3])
        live.apply(inserts=rng.random((5, 2)), deletes=[50, 51])
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        fresh = self._fresh(live.points_all()[live.alive_mask()])
        np.testing.assert_array_equal(csr.indptr, fresh.indptr)
        np.testing.assert_array_equal(csr.indices, fresh.indices)
        np.testing.assert_array_equal(alive_ids, live.alive_ids())
        # Same version, same bucket: one snapshot object is reused.
        assert live.adjacency_snapshot(RADIUS)[0] is csr


class TestRepairSelection:
    def _select(self, live):
        """A valid selection over the current version, in global ids."""
        from repro.api import disc_select

        handle = live.snapshot_handle()
        result = disc_select(handle.dataset, RADIUS, engine="grid")
        alive_ids = live.alive_ids()
        return [int(alive_ids[i]) for i in result.selected]

    def _assert_valid(self, live, repaired):
        handle = live.snapshot_handle()
        report = verify_disc(
            handle.dataset.points, EUCLIDEAN, repaired["local"], RADIUS
        )
        assert report.is_disc_diverse, str(report)

    def test_repair_after_churn_is_disc_diverse(self, rng):
        live = _live(rng, n=200)
        previous = self._select(live)
        alive = live.alive_ids()
        victims = [int(i) for i in rng.choice(alive, size=20, replace=False)]
        live.apply(inserts=rng.random((20, 2)), deletes=victims)
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        repaired = repair_selection(csr, alive_ids, previous)
        self._assert_valid(live, repaired)
        # Accounting: kept ∪ added == selected, removed == previous we lost.
        assert sorted(repaired["kept"] + repaired["added"]) == repaired["selected"]
        assert set(repaired["removed"]) == set(previous) - set(repaired["kept"])
        assert repaired["jaccard_previous"] == jaccard(
            repaired["selected"], previous
        )

    def test_survivors_kept_verbatim(self, rng):
        live = _live(rng, n=150)
        previous = self._select(live)
        # Delete only non-selected points: every previous black survives
        # and deletes never add edges, so the selection needs no repair
        # beyond covering freshly-uncovered points (there are none).
        spare = sorted(set(int(i) for i in live.alive_ids()) - set(previous))
        live.apply(deletes=spare[:10])
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        repaired = repair_selection(csr, alive_ids, previous)
        assert repaired["kept"] == sorted(previous)
        assert repaired["removed"] == []
        assert repaired["jaccard_previous"] == 1.0
        self._assert_valid(live, repaired)

    def test_repair_covers_inserts_outside_coverage(self, rng):
        live = _live(rng, n=30)
        previous = self._select(live)
        # An insert far outside the unit square cannot be covered by
        # any existing black: repair must add it (or a neighbor).
        live.apply(inserts=[[5.0, 5.0]])
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        repaired = repair_selection(csr, alive_ids, previous)
        assert 30 in repaired["added"]
        self._assert_valid(live, repaired)

    def test_empty_previous_degenerates_to_greedy_cover(self, rng):
        live = _live(rng, n=60)
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        repaired = repair_selection(csr, alive_ids, [])
        assert repaired["kept"] == []
        self._assert_valid(live, repaired)

    def test_delta_path_matches_full_repair(self, rng):
        """The O(delta) frontier repair (what ``/mutate`` runs) must be
        pick-for-pick identical to the full compacted-snapshot repair
        whenever ``previous`` is fresh — same greedy, same tie-breaks,
        no compaction."""
        live = _live(rng, n=300)
        previous = self._select(live)
        for _ in range(4):
            alive = live.alive_ids()
            victims = [int(i) for i in rng.choice(alive, size=12, replace=False)]
            delta = live.apply(inserts=rng.random((10, 2)), deletes=victims)
            csr, alive_ids = live.adjacency_snapshot(RADIUS)
            full = repair_selection(csr, alive_ids, previous)
            fast = repair_selection_delta(
                live.ensure_adjacency(RADIUS),
                live.alive_mask(),
                previous,
                deleted=delta["deleted"],
                inserted=delta["inserted"],
            )
            assert fast == full
            self._assert_valid(live, fast)
            previous = fast["selected"]

    def test_repair_is_valid_and_at_least_as_stable_as_recompute(self):
        """10 batches of 10% churn (n=2k clustered): every repaired
        selection is r-DisC diverse, and consecutive repaired selections
        overlap at least as much as from-scratch recomputes do."""
        from repro.api import disc_select
        from repro.datasets import clustered_dataset

        n, radius, batches = 2000, 0.05, 10
        data = clustered_dataset(n=n, dim=2, seed=42)
        live = MutableDataset("churn", data)
        rng = np.random.default_rng(1729)
        per_batch = n // 10 // batches
        lo, hi = data.points.min(axis=0), data.points.max(axis=0)
        initial = [int(i) for i in disc_select(data, radius, engine="grid").selected]
        repaired, recomputed = initial, initial
        repair_jaccards, recompute_jaccards = [], []
        for _ in range(batches):
            inserts = lo + rng.random((per_batch, 2)) * (hi - lo)
            deletes = rng.choice(live.alive_ids(), size=per_batch, replace=False)
            delta = live.apply(inserts=inserts, deletes=np.sort(deletes))
            fast = repair_selection_delta(
                live.ensure_adjacency(radius),
                live.alive_mask(),
                repaired,
                deleted=delta["deleted"],
                inserted=delta["inserted"],
            )
            handle = live.snapshot_handle()
            report = verify_disc(
                handle.dataset.points, EUCLIDEAN, fast["local"], radius
            )
            assert report.is_disc_diverse, str(report)
            repair_jaccards.append(fast["jaccard_previous"])
            repaired = fast["selected"]
            fresh = disc_select(handle.dataset, radius, engine="grid")
            alive_ids = live.alive_ids()
            selected = [int(alive_ids[i]) for i in fresh.selected]
            recompute_jaccards.append(jaccard(selected, recomputed))
            recomputed = selected
        assert live.version == batches
        assert np.mean(repair_jaccards) >= np.mean(recompute_jaccards)

    def test_jaccard_basics(self):
        assert jaccard([], []) == 1.0
        assert jaccard([1, 2], [1, 2]) == 1.0
        assert jaccard([1, 2], [3, 4]) == 0.0
        assert jaccard([1, 2, 3], [2, 3, 4]) == 0.5


class TestLiveCacheView:
    def test_miss_resolves_from_incremental_adjacency(self, rng):
        from repro.service.cache import SharedCacheManager

        live = _live(rng, n=40)
        manager = SharedCacheManager(max_entries=8)
        view = LiveCacheView(manager, live.snapshot_handle(), live)
        first = view.get(RADIUS)
        assert first is live.adjacency_snapshot(RADIUS)[0]
        assert view.get(RADIUS) is first  # now a plain cache hit
        assert manager.hits >= 1
        # The build slot was resolved (counted) by the live path itself.
        assert manager.builds == 1

    @pytest.mark.parametrize("tracked", [False, True])
    def test_miss_resolves_at_the_views_version(self, rng, tracked):
        """A ``/select`` that overlaps a ``/mutate`` must cache its own
        version's graph under its own version's key, not the next one's."""
        from repro.service.cache import SharedCacheManager

        live = _live(rng, n=60)
        if tracked:
            live.adjacency_snapshot(RADIUS)
        handle = live.snapshot_handle()
        view = LiveCacheView(SharedCacheManager(max_entries=8), handle, live)
        live.apply(inserts=rng.random((10, 2)), deletes=[0, 5, 9])
        csr = view.get(RADIUS)
        fresh = build_csr_pairwise(handle.dataset.points, EUCLIDEAN, RADIUS)
        np.testing.assert_array_equal(csr.indptr, fresh.indptr)
        np.testing.assert_array_equal(csr.indices, fresh.indices)
        # Untracked, the bucket's first origin is the mutated version, so
        # the view's older mask (ids 0, 5, 9 alive) is rebuilt; tracked,
        # the origin is still the view's version and advances forward.
        assert live.describe()["stale_mask_rebuilds"] == (0 if tracked else 1)

    def test_churn_sequence_needs_no_rebuild(self, rng):
        """Apply, repair, then a snapshot every third batch at alternating
        radii (the served ``churn`` mix): every mask is forward."""
        live = _live(rng, n=400)
        for radius in (RADIUS, RADIUS / 2):
            live.adjacency_snapshot(radius)
        csr, alive_ids = live.adjacency_snapshot(RADIUS)
        previous = repair_selection(csr, alive_ids, [])["selected"]
        for version in range(1, 13):
            victims = rng.choice(live.alive_ids(), size=4, replace=False)
            delta = live.apply(inserts=rng.random((4, 2)), deletes=victims)
            previous = repair_selection_delta(
                live.ensure_adjacency(RADIUS),
                live.alive_mask(),
                previous,
                deleted=delta["deleted"],
                inserted=delta["inserted"],
            )["selected"]
            if version % 3 == 0:
                live.adjacency_snapshot((RADIUS, RADIUS / 2)[version % 2])
        assert live.describe()["stale_mask_rebuilds"] == 0


#: Dense enough that ``_plan_grid`` keeps sub-radius cells (resolution
#: 4), so appends exercise the auto (distance-free) cell pairs.
CHURN_RADIUS = 0.1
_batches = st.lists(
    st.tuples(
        st.integers(0, 12),  # inserts
        st.sampled_from(["none", "some", "all"]),  # deletes
    ),
    min_size=1,
    max_size=6,
)


def _clustered(rng, centers, count, outlier_rate=0.0):
    """Tight clusters around ``centers``, optionally with uniform outliers."""
    points = centers[rng.integers(0, len(centers), count)]
    points = points + rng.normal(0.0, 0.01, (count, 2))
    outliers = rng.random(count) < outlier_rate
    points[outliers] = rng.random((int(outliers.sum()), 2))
    return points


class TestIncrementalChurnProperty:
    @given(seed=st.integers(0, 2**32 - 1), batches=_batches)
    @example(seed=0, batches=[(8, "none"), (0, "some"), (5, "some")])
    @example(seed=1, batches=[(0, "all"), (6, "none"), (0, "all"), (4, "none")])
    @settings(
        deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_snapshots_and_rows_match_fresh_builds(self, seed, batches):
        """Snapshots taken after a random subset of batches (so the
        origin they advance from is 0..k batches old) and older
        versions' masks resolved after newer snapshots all equal a
        fresh build; an older mask never moves the origin back.  Rows
        and the delta repair are checked against fresh builds too, the
        repair sometimes after a snapshot at its own version."""
        rng = np.random.default_rng(seed)
        centers = rng.random((3, 2))
        points = _clustered(rng, centers, 200)
        incremental = IncrementalNeighborhood(points, EUCLIDEAN, CHURN_RADIUS)
        assert incremental.resolution == 4
        alive = np.ones(points.shape[0], dtype=bool)
        history = [alive.copy()]  # every version's mask, at its length
        previous = repair_selection(
            incremental.snapshot_csr(alive), np.flatnonzero(alive), []
        )["selected"]
        for step, (inserts, deletes) in enumerate(batches):
            start = points.shape[0]
            if inserts:
                batch = _clustered(rng, centers, inserts, outlier_rate=0.1)
                points = np.concatenate([points, batch])
                alive = np.concatenate([alive, np.ones(inserts, dtype=bool)])
                # As MutableDataset.apply: the mask before the deletes.
                incremental.append(points, inserts, alive)
            live_ids = np.flatnonzero(alive)
            if deletes == "all":
                alive[:] = False
            elif deletes == "some" and live_ids.size:
                size = int(rng.integers(1, live_ids.size // 4 + 2))
                alive[rng.choice(live_ids, size=size, replace=False)] = False
            deleted = np.setdiff1d(live_ids, np.flatnonzero(alive))
            history.append(alive.copy())
            # rows(): every id, alive, deleted in this batch or long
            # dead, lists exactly its alive neighbours.
            full = build_csr_pairwise(points, EUCLIDEAN, CHURN_RADIUS)
            for i in range(points.shape[0]):
                want = full.neighbors(i)
                indptr, row = incremental.rows([i], alive)
                assert row.dtype == np.int32
                np.testing.assert_array_equal(indptr, [0, row.size])
                np.testing.assert_array_equal(row, want[alive[want]])

            snap_first = rng.random() < 0.5
            if snap_first:  # the batch's deleted blacks are dead at the origin
                snap = incremental.snapshot_csr(alive)
            fast = repair_selection_delta(
                incremental,
                alive,
                previous,
                deleted=deleted,
                inserted=np.arange(start, points.shape[0]),
            )
            if snap_first:
                assert fast == repair_selection(snap, np.flatnonzero(alive), previous)
            previous = fast["selected"]
            if step < len(batches) - 1 and rng.random() < 0.5:
                continue  # no read at this version: the origin ages

            snap = incremental.snapshot_csr(alive)
            self._assert_fresh(snap, points, alive)
            assert incremental.snapshot_csr(alive) is snap
            older = history[int(rng.integers(0, len(history)))]
            self._assert_fresh(
                incremental.snapshot_csr(older), points[: older.size], older
            )
            # The older mask left the origin at this version.
            assert incremental.snapshot_csr(alive) is snap
            # All rows at once, under the older mask too.
            padded = np.zeros(points.shape[0], dtype=bool)
            padded[: older.size] = older
            indptr, rows = incremental.rows(np.arange(points.shape[0]), padded)
            for i in range(points.shape[0]):
                want = full.neighbors(i)
                got = rows[indptr[i] : indptr[i + 1]]
                np.testing.assert_array_equal(got, want[padded[want]])

    @staticmethod
    def _assert_fresh(snap, points, alive):
        fresh = build_csr_pairwise(points[alive], EUCLIDEAN, CHURN_RADIUS)
        assert snap.indptr.dtype == fresh.indptr.dtype
        assert snap.indices.dtype == fresh.indices.dtype
        np.testing.assert_array_equal(snap.indptr, fresh.indptr)
        np.testing.assert_array_equal(snap.indices, fresh.indices)

    def test_unread_bucket_stays_bounded(self):
        """n=5k clustered, one tracked bucket that is never read, 60
        batches of 1% inserts (uniform over the bounding box, as the
        served ``churn`` workload sends) and 1% deletes: the footprint
        stays below twice a fresh build over the alive points, and one
        full-length snapshot empties the overlay."""
        from repro.datasets import clustered_dataset
        from repro.graph import build_csr_grid

        rng = np.random.default_rng(3)
        dataset = clustered_dataset(n=5_000, seed=42)
        lo, hi = dataset.points.min(axis=0), dataset.points.max(axis=0)
        live = MutableDataset("bounded", dataset)
        adjacency = live.ensure_adjacency(0.05)
        for _ in range(60):
            victims = rng.choice(live.alive_ids(), size=50, replace=False)
            live.apply(inserts=lo + rng.random((50, 2)) * (hi - lo), deletes=victims)
            alive_points = live.points_all()[live.alive_mask()]
            fresh = build_csr_grid(alive_points, EUCLIDEAN, 0.05)
            assert adjacency.nbytes < 2 * fresh.nbytes
        csr, _ = live.adjacency_snapshot(0.05)
        assert adjacency._overlay_indices.size == 0
        assert adjacency.nbytes == csr.nbytes + adjacency._overlay_indptr.nbytes

    def test_snapshot_transient_memory_stays_below_twice_the_result(self):
        """One snapshot's peak allocation stays under 2x its output.

        n=20k clustered at r=0.05, three 1% insert+delete batches after
        the last snapshot: advancing in row batches keeps the transient
        arrays small next to the result (about 1.4x measured), where
        whole-array filter passes peaked at 2.4x and more.
        """
        import tracemalloc

        from repro.datasets import clustered_dataset

        rng = np.random.default_rng(7)
        points = clustered_dataset(n=20_000, seed=42).points
        incremental = IncrementalNeighborhood(points, EUCLIDEAN, 0.05)
        alive = np.ones(points.shape[0], dtype=bool)
        incremental.snapshot_csr(alive)
        for _ in range(3):
            batch = points[rng.integers(0, 20_000, 200)]
            batch = batch + rng.normal(0.0, 0.002, batch.shape)
            points = np.concatenate([points, batch])
            incremental.append(points, 200)
            alive = np.concatenate([alive, np.ones(200, dtype=bool)])
            victims = rng.choice(np.flatnonzero(alive), size=200, replace=False)
            alive[victims] = False
        tracemalloc.start()
        try:
            snap = incremental.snapshot_csr(alive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert snap.n == int(alive.sum())
        assert peak < 2 * (snap.indptr.nbytes + snap.indices.nbytes)
