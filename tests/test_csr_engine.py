"""The CSR neighborhood engine: structure, builders, and cross-path
parity.

The engine's contract is strict: CSR-accelerated execution must return
*identical* ``selected`` lists to the legacy per-query path — same
objects, same order — on every dataset family, every registered metric
and every heuristic.  These tests pin that contract, plus the array
primitives the fast paths are built from.
"""

import numpy as np
import pytest

import repro.graph.blocked as blocked_module
from repro.api import build_index, disc_select
from repro.core import (
    Color,
    Coloring,
    basic_disc,
    fast_c,
    greedy_c,
    greedy_disc,
    verify_disc,
    zoom_in,
    zoom_out,
)
from repro.core.result import DiscResult
from repro.datasets import (
    cameras_dataset,
    cities_dataset,
    clustered_dataset,
    uniform_dataset,
)
from repro.distance import CHEBYSHEV, EUCLIDEAN, HAMMING, MANHATTAN, get_metric
from repro.graph.blocked import BlockedNeighborhood
from repro.graph.csr import CSRNeighborhood, build_csr_grid, build_csr_pairwise
from repro.index import BruteForceIndex, GridIndex, KDTreeIndex


# ----------------------------------------------------------------------
# CSR structure primitives
# ----------------------------------------------------------------------
class TestCSRStructure:
    def simple(self):
        # 0-1, 0-2, 1-2, 3 isolated
        return CSRNeighborhood.from_rows([[1, 2], [0, 2], [0, 1], []])

    def test_from_rows_roundtrip(self):
        csr = self.simple()
        assert csr.n == 4
        assert csr.nnz == 6
        assert csr.degrees.tolist() == [2, 2, 2, 0]
        assert csr.neighbors(0).tolist() == [1, 2]
        assert csr.neighbors(3).tolist() == []

    def test_from_edges_sorts_rows(self):
        rows = np.array([2, 0, 1, 0, 2, 1])
        cols = np.array([1, 2, 2, 1, 0, 0])
        csr = CSRNeighborhood.from_edges(rows, cols, 4)
        expected = self.simple()
        assert np.array_equal(csr.indptr, expected.indptr)
        assert np.array_equal(csr.indices, expected.indices)

    def test_gather_preserves_duplicates(self):
        csr = self.simple()
        got = csr.gather(np.array([0, 2, 3]))
        assert got.tolist() == [1, 2, 0, 1]
        assert csr.gather(np.array([], dtype=int)).size == 0

    def test_neighbor_counts(self):
        csr = self.simple()
        mask = np.array([True, False, True, True])
        assert csr.neighbor_counts(mask).tolist() == [1, 2, 1, 0]
        assert csr.neighbor_counts(np.ones(4, bool)).tolist() == [2, 2, 2, 0]

    def test_cover_mask(self):
        csr = self.simple()
        assert csr.cover_mask(np.array([3])).tolist() == [False, False, False, True]
        assert csr.cover_mask(np.array([0])).tolist() == [True, True, True, False]
        assert csr.cover_mask(
            np.array([0]), include_sources=False
        ).tolist() == [False, True, True, False]

    def test_decrement_counts_once_per_adjacency(self):
        csr = self.simple()
        counts = csr.degrees.astype(np.int64)
        assert csr.decrement(counts, np.array([0, 1])) is None
        # 0 and 1 are mutually adjacent and both adjacent to 2.
        assert counts.tolist() == [1, 1, 0, 0]

    def test_rejects_inconsistent_indptr(self):
        with pytest.raises(ValueError):
            CSRNeighborhood(np.array([0, 1]), np.array([], dtype=np.int32))
        with pytest.raises(ValueError):
            CSRNeighborhood(np.array([1, 2]), np.array([0], dtype=np.int32))


# ----------------------------------------------------------------------
# Builders agree with the oracle and each other
# ----------------------------------------------------------------------
class TestBuilders:
    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV],
                             ids=lambda m: m.name)
    def test_grid_build_matches_pairwise_build(self, medium_uniform, metric):
        a = build_csr_pairwise(medium_uniform, metric, 0.11)
        b = build_csr_grid(medium_uniform, metric, 0.11)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_all_index_builders_identical(self, medium_uniform):
        reference = build_csr_pairwise(medium_uniform, EUCLIDEAN, 0.15)
        engines = [
            BruteForceIndex(medium_uniform, EUCLIDEAN),
            GridIndex(medium_uniform, EUCLIDEAN, cell_size=0.06),
            KDTreeIndex(medium_uniform, EUCLIDEAN),
        ]
        for index in engines:
            csr = index.csr_neighborhood(0.15)
            assert csr is not None
            assert np.array_equal(csr.indptr, reference.indptr), type(index)
            assert np.array_equal(csr.indices, reference.indices), type(index)

    def test_csr_rows_match_range_query(self, medium_uniform):
        index = BruteForceIndex(medium_uniform, EUCLIDEAN)
        csr = index.csr_neighborhood(0.2)
        legacy = BruteForceIndex(medium_uniform, EUCLIDEAN, accelerate=False)
        for i in range(0, len(medium_uniform), 17):
            assert csr.neighbors(i).tolist() == sorted(legacy.range_query(i, 0.2))

    def test_accelerate_false_disables_engine(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN, accelerate=False)
        assert index.csr_neighborhood(0.1) is None
        index.accelerate = "auto"
        assert index.csr_neighborhood(0.1) is not None

    def test_mtree_never_builds_csr(self, small_uniform):
        from repro.mtree import MTreeIndex

        index = MTreeIndex(small_uniform, EUCLIDEAN, capacity=6)
        assert index.csr_neighborhood(0.1) is None

    def test_accelerate_true_insists(self, small_uniform):
        from repro.mtree import MTreeIndex

        index = MTreeIndex(small_uniform, EUCLIDEAN, capacity=6)
        index.accelerate = True
        with pytest.raises(RuntimeError, match="accelerate=True"):
            index.csr_neighborhood(0.1)
        # Indexes that can build are unaffected by the strict mode.
        strict = BruteForceIndex(small_uniform, EUCLIDEAN, accelerate=True)
        assert strict.csr_neighborhood(0.1) is not None

    def test_boundary_ties_identical_across_paths(self):
        """Exact distance==radius ties (a lattice) must not split the
        legacy and accelerated paths: pairwise and to_point share the
        same accumulation order."""
        grid_1d = np.linspace(0.0, 1.0, 12)
        points = np.stack(np.meshgrid(grid_1d, grid_1d), -1).reshape(-1, 2)
        radius = float(grid_1d[1] - grid_1d[0])
        legacy = BruteForceIndex(points, EUCLIDEAN, accelerate=False)
        fast = BruteForceIndex(points, EUCLIDEAN)
        assert basic_disc(legacy, radius).selected == basic_disc(fast, radius).selected
        assert (
            greedy_disc(legacy, radius).selected
            == greedy_disc(fast, radius).selected
        )

    def test_csr_cached_per_radius(self, small_uniform):
        index = KDTreeIndex(small_uniform, EUCLIDEAN)
        first = index.csr_neighborhood(0.1)
        assert index.csr_neighborhood(0.1) is first
        assert index.csr_neighborhood(0.2) is not first


# ----------------------------------------------------------------------
# Batched range queries
# ----------------------------------------------------------------------
class TestRangeQueryBatch:
    def engines(self, points):
        from repro.mtree import MTreeIndex

        return {
            "brute": BruteForceIndex(points, EUCLIDEAN),
            "brute-legacy": BruteForceIndex(points, EUCLIDEAN, accelerate=False),
            "grid": GridIndex(points, EUCLIDEAN, cell_size=0.07),
            "kdtree": KDTreeIndex(points, EUCLIDEAN),
            "mtree": MTreeIndex(points, EUCLIDEAN, capacity=8),
        }

    def test_batch_matches_single_queries(self, medium_uniform):
        ids = [0, 3, 299, 150, 3]
        for name, index in self.engines(medium_uniform).items():
            batch = index.range_query_batch(ids, 0.12)
            for i, row in zip(ids, batch):
                assert sorted(row.tolist()) == sorted(
                    index.range_query(i, 0.12)
                ), name

    def test_batch_include_self(self, small_uniform):
        for name, index in self.engines(small_uniform).items():
            batch = index.range_query_batch([5, 9], 0.15, include_self=True)
            for i, row in zip([5, 9], batch):
                assert i in row.tolist(), name

    def test_batch_counts_range_queries(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        index.range_query_batch([1, 2, 3], 0.1)
        assert index.stats.range_queries == 3


# ----------------------------------------------------------------------
# Cross-path parity: accelerated selections == legacy selections
# ----------------------------------------------------------------------
DATASET_FAMILIES = {
    "uniform": lambda: uniform_dataset(n=350, dim=2, seed=5),
    "clustered": lambda: clustered_dataset(n=350, dim=2, seed=5),
    "cities": lambda: cities_dataset(n=350, seed=5),
    "cameras": lambda: cameras_dataset(n=250, seed=5),
}

_FAMILY_RADII = {"uniform": 0.09, "clustered": 0.09, "cities": 0.05, "cameras": 2}


def _engine_pairs(dataset):
    """(legacy, accelerated) index pairs valid for the dataset's metric."""
    pts, metric = dataset.points, dataset.metric
    pairs = [
        (
            BruteForceIndex(pts, metric, accelerate=False),
            BruteForceIndex(pts, metric),
        )
    ]
    if not isinstance(metric, type(HAMMING)):
        grid_legacy = GridIndex(pts, metric, cell_size=0.06)
        grid_legacy.accelerate = False
        pairs.append((grid_legacy, GridIndex(pts, metric, cell_size=0.06)))
        kd_legacy = KDTreeIndex(pts, metric)
        kd_legacy.accelerate = False
        pairs.append((kd_legacy, KDTreeIndex(pts, metric)))
    return pairs


@pytest.mark.parametrize("family", sorted(DATASET_FAMILIES))
class TestCrossPathParity:
    def test_greedy_disc_identical(self, family):
        data = DATASET_FAMILIES[family]()
        radius = _FAMILY_RADII[family]
        for legacy, fast in _engine_pairs(data):
            assert (
                greedy_disc(legacy, radius).selected
                == greedy_disc(fast, radius).selected
            ), type(fast).__name__

    def test_greedy_c_and_fast_c_identical(self, family):
        data = DATASET_FAMILIES[family]()
        radius = _FAMILY_RADII[family]
        for legacy, fast in _engine_pairs(data):
            assert (
                greedy_c(legacy, radius).selected
                == greedy_c(fast, radius).selected
            ), type(fast).__name__
            assert (
                fast_c(legacy, radius).selected == fast_c(fast, radius).selected
            ), type(fast).__name__

    def test_basic_disc_identical(self, family):
        data = DATASET_FAMILIES[family]()
        radius = _FAMILY_RADII[family]
        for legacy, fast in _engine_pairs(data):
            assert (
                basic_disc(legacy, radius).selected
                == basic_disc(fast, radius).selected
            ), type(fast).__name__

    def test_zoom_identical(self, family, monkeypatch):
        data = DATASET_FAMILIES[family]()
        radius = _FAMILY_RADII[family]
        finer = radius / 2 if family != "cameras" else 1
        coarser = radius * 2 if family != "cameras" else 4
        for legacy, fast in _engine_pairs(data):
            coarse_l = greedy_disc(legacy, radius, track_closest_black=True)
            coarse_f = greedy_disc(fast, radius, track_closest_black=True)
            assert np.allclose(coarse_l.closest_black, coarse_f.closest_black)
            # Zoom passes only consume cached adjacencies (they never
            # force a build); warm them so the CSR path is what's tested.
            fast.csr_neighborhood(finer)
            fast.csr_neighborhood(coarser)
            for prev_l, prev_f in (
                (coarse_l, coarse_f),
                (_client_previous(coarse_l), _client_previous(coarse_f)),
            ):
                # The legacy path charges the distances its per-query
                # scans evaluate, so distance counts are compared only
                # between accelerated runs (below).
                _assert_zooms_identical(
                    _zooms(legacy, prev_l, finer, coarser),
                    _zooms(fast, prev_f, finer, coarser),
                    type(fast).__name__,
                    distances=False,
                )
        if family == "cameras":
            return  # Hamming: no grid adjacency, so no blocked form.

        # A blocked adjacency must replay the flat one exactly, distance
        # evaluations included.  A tight blob makes dense cell pairs.
        blob = 0.5 + 0.01 * np.random.default_rng(5).random((1200, 2))
        points = np.concatenate([data.points, blob])
        flat = GridIndex(points, data.metric, cell_size=0.06)
        blocked = GridIndex(points, data.metric, cell_size=0.06)
        with monkeypatch.context() as patch:
            patch.setattr(blocked_module, "MIN_DENSE_EDGES", np.inf)
            for r in (finer, radius, coarser):
                assert isinstance(flat.csr_neighborhood(r), CSRNeighborhood)
            patch.setattr(blocked_module, "MIN_DENSE_EDGES", 0)
            patch.setattr(blocked_module, "MIN_DENSE_FRACTION", 0.0)
            patch.setattr(blocked_module, "MIN_BLOCK_PAIRS", 1)
            for r in (finer, radius, coarser):
                adjacency = blocked.csr_neighborhood(r)
                assert isinstance(adjacency, BlockedNeighborhood)
                assert adjacency.num_blocks > 0, r
        coarse_flat = greedy_disc(flat, radius, track_closest_black=True)
        coarse_blocked = greedy_disc(blocked, radius, track_closest_black=True)
        assert coarse_flat.selected == coarse_blocked.selected
        for prev_flat, prev_blocked in (
            (coarse_flat, coarse_blocked),
            (_client_previous(coarse_flat), _client_previous(coarse_blocked)),
        ):
            _assert_zooms_identical(
                _zooms(flat, prev_flat, finer, coarser),
                _zooms(blocked, prev_blocked, finer, coarser),
                "blocked",
                distances=True,
            )


def _client_previous(result):
    """A previous solution as ``/zoom`` rebuilds it from a client: the
    selection alone, no closest-black distances."""
    return DiscResult(
        selected=list(result.selected),
        radius=result.radius,
        algorithm="client-previous",
    )


def _zooms(index, previous, finer, coarser):
    """Every zoom-in and zoom-out variant from ``previous``."""
    results = {}
    for greedy in (True, False):
        results["in", greedy] = zoom_in(index, previous, finer, greedy=greedy)
    for variant in (None, "a", "b", "c"):
        results["out", variant] = zoom_out(
            index, previous, coarser, greedy_variant=variant
        )
    return results


def _assert_zooms_identical(want, got, label, *, distances):
    """Same picks, final colors, closest-black distances and query
    accounting."""
    for case, ref in want.items():
        res = got[case]
        tag = (label, case)
        assert res.selected == ref.selected, tag
        assert (
            res.coloring.codes_view().tobytes()
            == ref.coloring.codes_view().tobytes()
        ), tag
        assert res.closest_black.tobytes() == ref.closest_black.tobytes(), tag
        assert res.stats.range_queries == ref.stats.range_queries, tag
        if distances:
            assert (
                res.stats.distance_computations
                == ref.stats.distance_computations
            ), tag


@pytest.mark.parametrize("metric_name", ["euclidean", "manhattan", "chebyshev", "hamming"])
def test_parity_across_registered_metrics(metric_name, rng):
    """Greedy-DisC and Greedy-C agree across paths for every metric."""
    metric = get_metric(metric_name)
    if metric_name == "hamming":
        points = rng.integers(0, 4, size=(250, 5))
        radius = 2
    else:
        points = rng.random((250, 3))
        radius = 0.25
    legacy = BruteForceIndex(points, metric, accelerate=False)
    fast = BruteForceIndex(points, metric)
    assert greedy_disc(legacy, radius).selected == greedy_disc(fast, radius).selected
    assert greedy_c(legacy, radius).selected == greedy_c(fast, radius).selected


def test_api_engine_options_accelerate(small_uniform):
    """`engine_options={"accelerate": ...}` reaches the index and keeps
    selections identical."""
    fast = disc_select(small_uniform, 0.15, metric=EUCLIDEAN, engine="brute")
    slow = disc_select(
        small_uniform,
        0.15,
        metric=EUCLIDEAN,
        engine="brute",
        engine_options={"accelerate": False},
    )
    assert fast.selected == slow.selected
    index = build_index(small_uniform, EUCLIDEAN, engine="kdtree", accelerate=False)
    assert index.accelerate is False
    assert index.csr_neighborhood(0.1) is None


# ----------------------------------------------------------------------
# Properties at scale: the accelerated output is still DisC diverse
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1000, 5000])
def test_verify_disc_holds_at_scale(n):
    data = uniform_dataset(n=n, dim=2, seed=9)
    index = KDTreeIndex(data.points, data.metric)
    result = greedy_disc(index, 0.05)
    report = verify_disc(data.points, data.metric, result.selected, 0.05)
    assert report.is_disc_diverse, str(report)


def test_verify_disc_holds_at_scale_clustered():
    data = clustered_dataset(n=5000, dim=2, seed=9)
    index = GridIndex(data.points, data.metric, cell_size=0.04)
    result = greedy_c(index, 0.04)
    report = verify_disc(data.points, data.metric, result.selected, 0.04)
    # Greedy-C output is covering but not necessarily independent.
    assert report.is_covering, str(report)


# ----------------------------------------------------------------------
# Coloring batch transitions
# ----------------------------------------------------------------------
class TestColoringBatch:
    def test_set_many_updates_counts(self):
        coloring = Coloring(10)
        coloring.set_many(np.array([1, 3, 5]), Color.GREY)
        assert coloring.white_count == 7
        assert coloring.count(Color.GREY) == 3
        # Re-greying a grey object must not corrupt counts.
        coloring.set_many(np.array([5, 6]), Color.GREY)
        assert coloring.count(Color.GREY) == 4
        assert coloring.white_count == 6

    def test_set_many_empty_is_noop(self):
        coloring = Coloring(4)
        coloring.set_many(np.array([], dtype=int), Color.BLACK)
        assert coloring.white_count == 4

    def test_set_many_with_listeners_notifies(self):
        coloring = Coloring(6)
        events = []
        coloring.add_listener(lambda i, old, new: events.append((i, old, new)))
        coloring.set_grey_many(np.array([2, 4]))
        assert events == [
            (2, Color.WHITE, Color.GREY),
            (4, Color.WHITE, Color.GREY),
        ]

    def test_views_track_batch_updates(self):
        coloring = Coloring(5)
        codes = coloring.codes_view()
        coloring.set_grey_many(np.array([0, 4]))
        assert codes[0] == int(Color.GREY) and codes[4] == int(Color.GREY)
        assert coloring.white_mask().tolist() == [False, True, True, True, False]


# ----------------------------------------------------------------------
# Vectorised validate_ids
# ----------------------------------------------------------------------
class TestValidateIds:
    def test_accepts_arrays_lists_and_empty(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        index.validate_ids([])
        index.validate_ids([0, 59])
        index.validate_ids(np.array([0, 30, 59]))

    def test_rejects_out_of_range(self, small_uniform):
        index = BruteForceIndex(small_uniform, EUCLIDEAN)
        with pytest.raises(IndexError, match="60"):
            index.validate_ids(np.array([0, 60]))
        with pytest.raises(IndexError, match="-1"):
            index.validate_ids([-1])


# ----------------------------------------------------------------------
# PR 2: the pruned grid builder
# ----------------------------------------------------------------------
class TestPrunedGridBuilder:
    @pytest.mark.parametrize("resolution", [1, 2, 3, 4, 6])
    def test_forced_resolutions_match_pairwise(self, resolution):
        data = clustered_dataset(n=900, dim=2, seed=0)
        reference = build_csr_pairwise(data.points, EUCLIDEAN, 0.05)
        pruned = build_csr_grid(
            data.points, EUCLIDEAN, 0.05, resolution=resolution
        )
        assert np.array_equal(reference.indptr, pruned.indptr)
        assert np.array_equal(reference.indices, pruned.indices)

    @pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV],
                             ids=lambda m: m.name)
    def test_lattice_boundary_ties(self, metric):
        """Exact distance==radius ties must survive the bound
        classification (the margins only demote pairs to compute)."""
        grid_1d = np.linspace(0.0, 1.0, 12)
        points = np.stack(np.meshgrid(grid_1d, grid_1d), -1).reshape(-1, 2)
        radius = float(grid_1d[1] - grid_1d[0])
        reference = build_csr_pairwise(points, metric, radius)
        pruned = build_csr_grid(points, metric, radius)
        assert np.array_equal(reference.indptr, pruned.indptr)
        assert np.array_equal(reference.indices, pruned.indices)

    def test_dense_cells_emit_without_distances(self):
        """On tightly clustered data the auto class must fire: far
        fewer distance computations than candidate pairs."""
        from repro.index.base import IndexStats

        rng = np.random.default_rng(3)
        points = np.concatenate([
            rng.normal(loc=c, scale=0.004, size=(600, 2))
            for c in ([0.25, 0.25], [0.75, 0.75])
        ])
        stats = IndexStats()
        csr = build_csr_grid(points, EUCLIDEAN, 0.05, stats=stats)
        reference = build_csr_pairwise(points, EUCLIDEAN, 0.05)
        assert np.array_equal(csr.indices, reference.indices)
        # Each 600-point blob is fully mutually adjacent; without the
        # auto class the builder would evaluate >= nnz distances.
        assert stats.distance_computations < csr.nnz / 10

    def test_offset_classification_is_sound(self):
        from repro.graph.csr import _classify_offsets, _PAIR_AUTO

        offsets, classes = _classify_offsets(EUCLIDEAN, 1.0, 0.25, 2, 4)
        for off, cls in zip(offsets, classes):
            magnitude = np.abs(off)
            hi = float(np.linalg.norm((magnitude + 1) * 0.25))
            lo = float(np.linalg.norm(np.maximum(0, magnitude - 1) * 0.25))
            assert lo <= 1.0 + 1e-9  # kept pairs can hold edges
            if cls == _PAIR_AUTO:
                assert hi <= 1.0 + 1e-9  # auto pairs lie fully inside

    def test_resolution_validation(self, small_uniform):
        with pytest.raises(ValueError, match="resolution"):
            build_csr_grid(small_uniform, EUCLIDEAN, 0.1, resolution=0)


# ----------------------------------------------------------------------
# PR 2: batched M-tree descent
# ----------------------------------------------------------------------
class TestMTreeBatchedDescent:
    def test_batch_matches_loop_and_accounting(self, medium_uniform):
        from repro.mtree import MTreeIndex

        ids = list(range(0, len(medium_uniform), 5))
        batched = MTreeIndex(medium_uniform, EUCLIDEAN, capacity=8)
        looped = MTreeIndex(medium_uniform, EUCLIDEAN, capacity=8)
        batch = batched.range_query_batch(ids, 0.12)
        loop = looped.range_query_batch(ids, 0.12, per_query_stats=True)
        for left, right in zip(batch, loop):
            # The shared descent preserves per-query traversal order.
            assert left.tolist() == right.tolist()
        assert batched.stats.node_accesses == looped.stats.node_accesses
        assert (
            batched.stats.distance_computations
            == looped.stats.distance_computations
        )
        assert batched.stats.range_queries == looped.stats.range_queries

    def test_batch_include_self_matches(self, small_uniform):
        from repro.mtree import MTreeIndex

        index = MTreeIndex(small_uniform, EUCLIDEAN, capacity=8)
        batch = index.range_query_batch([2, 7], 0.2, include_self=True)
        for center, row in zip([2, 7], batch):
            assert center in row.tolist()

    def test_thin_strip_key_spans(self):
        """Regression: when one dimension's cell-key span is smaller
        than the offset reach, the fused-key lookup must not alias
        neighboring cells (it used to emit self-loops and duplicate
        edges on strip-shaped data)."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            points = np.column_stack([
                rng.uniform(0, 10, 400), rng.uniform(0, 0.5, 400)
            ])
            reference = build_csr_pairwise(points, EUCLIDEAN, 1.0)
            pruned = build_csr_grid(points, EUCLIDEAN, 1.0)
            assert np.array_equal(reference.indptr, pruned.indptr)
            assert np.array_equal(reference.indices, pruned.indices)
