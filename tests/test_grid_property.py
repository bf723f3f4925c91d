"""Property tests: every grid builder equals the pairwise oracle.

The grid builders (flat :func:`~repro.graph.csr.build_csr_grid`, the
blocked :func:`~repro.graph.blocked.build_blocked_grid` and the base of
:class:`~repro.graph.incremental.IncrementalNeighborhood`) share one
batched assembly that expands the cell-pair candidate table in
ascending id order, filtering each batch in the compiled kernel or, for
other metrics and without a compiler, in NumPy passes.  Hypothesis drives
them over every Minkowski-family metric, dims 1-4, explicit resolutions,
duplicate points, lattice points at exact-radius ties and assembly
batches down to a single candidate pair, once with the kernel and once
without, and holds both byte-for-byte (dtypes included) to
:func:`~repro.graph.csr.build_csr_pairwise`.

The cell directory under all of them
(:class:`~repro.graph.csr.CellDirectory`) is held to a lexsort grouping
and a dict lookup, in fused and too-wide-to-fuse boxes, and the per-query
paths of :class:`~repro.index.grid.GridIndex` that read it directly
(``range_query_point``, ``range_query`` and the no-CSR
``range_query_batch``) to :class:`~repro.index.bruteforce.BruteForceIndex`.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cancellation import CancellationToken, cancellation_scope
from repro.core import _kernel
from repro.datasets import clustered_dataset
from repro.distance import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.distance.metrics import Metric, MinkowskiMetric
from repro.graph import csr as csr_mod
from repro.graph.blocked import build_blocked_grid
from repro.graph.csr import CellDirectory, build_csr_grid, build_csr_pairwise
from repro.graph.incremental import IncrementalNeighborhood
from repro.index import BruteForceIndex, GridIndex
from repro.index.base import IndexStats

COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

METRICS = [EUCLIDEAN, MANHATTAN, CHEBYSHEV, MinkowskiMetric(3)]


class _HalfL1(Metric):
    """A custom metric with no closed forms: exercises the base-class
    ``pairwise`` / ``paired`` defaults."""

    name = "half-l1"

    def distance(self, a, b):
        return float(np.sum(np.abs(np.asarray(a) - np.asarray(b))) / 2)

    def to_point(self, X, p):
        return np.sum(np.abs(np.asarray(X) - np.asarray(p)), axis=1) / 2


@st.composite
def grid_cases(draw):
    """(points, metric, radius, resolution, block_bytes)."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # Lattice points with a power-of-two step: many pairs sit at
        # *exactly* the radius, where the <= test must agree.
        step = draw(st.sampled_from([0.125, 0.25]))
        ints = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 6)))
        points = ints * step
        radius = step * draw(st.sampled_from([1, 2, 3]))
    else:
        points = draw(
            arrays(
                np.float64,
                (n, dim),
                elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
            )
        )
        radius = draw(st.floats(0.01, 0.8, allow_nan=False))
    duplicates = draw(st.integers(0, n))
    points = np.concatenate([points, points[:duplicates]])
    order = draw(st.permutations(range(points.shape[0])))
    points = points[np.asarray(order, dtype=np.int64)]
    metric = draw(st.sampled_from(METRICS))
    resolution = draw(st.sampled_from([None, 1, 2, 4]))
    # 1 byte -> one candidate pair per batch; the default -> one batch.
    block_bytes = draw(st.sampled_from([1, 4096, csr_mod.DEFAULT_BLOCK_BYTES]))
    return points, metric, float(radius), resolution, block_bytes


def assert_same_csr(got, want):
    assert got.indptr.dtype == np.int64
    assert got.indices.dtype == np.int32
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)


def assert_same_rows(blocked, want):
    """A blocked adjacency materialises exactly the oracle's rows."""
    assert blocked.sparse.indptr.dtype == np.int64
    assert blocked.sparse.indices.dtype == np.int32
    assert blocked.side_ptr.dtype == np.int64
    assert blocked.side_members.dtype == np.int32
    assert blocked.side_partner.dtype == np.int64
    assert blocked.side_is_clique.dtype == bool
    assert blocked.nnz == want.nnz
    assert np.array_equal(blocked.degrees, want.degrees)
    for i in range(want.n):
        row = blocked.neighbors(i)
        assert row.dtype == np.int32
        assert np.array_equal(row, want.neighbors(i)), i


class _CountingToken(CancellationToken):
    """A token that never cancels and counts its checkpoints."""

    __slots__ = ("checks",)

    def __init__(self):
        super().__init__()
        self.checks = 0

    def checkpoint(self):
        self.checks += 1


def _grid_builds(points, metric, radius, resolution, block_bytes):
    """Every grid builder on one case, with its distance computations
    and cancellation checkpoints."""
    flat_stats, blocked_stats = IndexStats(), IndexStats()
    tokens = [_CountingToken() for _ in range(4)]
    with mock.patch.object(csr_mod, "DEFAULT_BLOCK_BYTES", block_bytes):
        with cancellation_scope(tokens[0]):
            flat = build_csr_grid(
                points, metric, radius, stats=flat_stats, resolution=resolution
            )
        with cancellation_scope(tokens[1]):
            blocked = build_blocked_grid(
                points,
                metric,
                radius,
                stats=blocked_stats,
                resolution=resolution,
                min_block_pairs=1,
            )
        with cancellation_scope(tokens[2]):
            live = IncrementalNeighborhood(points, metric, radius)
        # The same points, the second half appended: one grid query in
        # pair batches of the patched size.
        half = points.shape[0] // 2
        with cancellation_scope(tokens[3]):
            grown = IncrementalNeighborhood(points[:half], metric, radius)
            grown.append(points, points.shape[0] - half)
    counts = (
        flat_stats.distance_computations,
        blocked_stats.distance_computations,
        [token.checks for token in tokens],
    )
    return flat, blocked, live, grown, counts


class TestGridBuildersMatchPairwise:
    @given(case=grid_cases())
    @settings(**COMMON)
    def test_flat_blocked_and_incremental_base(self, case):
        points, metric, radius, resolution, block_bytes = case
        want = build_csr_pairwise(points, metric, radius)
        assert _kernel.load() is not None
        compiled = _grid_builds(points, metric, radius, resolution, block_bytes)
        with mock.patch.multiple(_kernel, _kernel=None, _loaded=True):
            assert _kernel.load() is None
            fallback = _grid_builds(points, metric, radius, resolution, block_bytes)
        for flat, blocked, live, grown, counts in (compiled, fallback):
            assert_same_csr(flat, want)
            assert_same_rows(blocked, want)
            # Dense blocks only ever replace auto pairs, which compute
            # nothing: both builds charge the same distance evaluations.
            flat_computed, blocked_computed, _ = counts
            assert blocked_computed == flat_computed
            assert_same_csr(live.snapshot_csr(np.ones(live.n, dtype=bool)), want)
            assert_same_csr(grown.snapshot_csr(np.ones(grown.n, dtype=bool)), want)
        # Same charged distances and same batch cuts on both paths.
        assert compiled[4] == fallback[4]


class TestCellDirectory:
    @given(
        keys=arrays(
            np.int64,
            st.tuples(st.integers(1, 40), st.integers(1, 3)),
            elements=st.integers(-3, 3),
        ),
        wide=st.booleans(),
    )
    @settings(**COMMON)
    def test_groups_like_lexsort_and_finds_like_a_dict(self, keys, wide):
        if wide:
            # A key 3 * 2**61 cells out widens the box past one int64.
            keys = np.concatenate([keys, np.full((1, keys.shape[1]), 3 * 2**61)])
        cells = CellDirectory(keys)
        order = np.lexsort(keys.T[::-1])
        assert np.array_equal(cells.members, order)
        ukeys, sizes = np.unique(keys, axis=0, return_counts=True)
        assert np.array_equal(cells.keys, ukeys)
        assert np.array_equal(np.diff(cells.ptr), sizes)
        lookup = {tuple(key): c for c, key in enumerate(ukeys.tolist())}
        # Queries reach two keys past the small keys' box on every side:
        # those must find nothing rather than alias an occupied cell.
        span = np.arange(-5, 6)
        queries = np.stack(
            np.meshgrid(*([span] * keys.shape[1]), indexing="ij"), axis=-1
        )
        want = [lookup.get(tuple(q), -1) for q in queries.reshape(-1, keys.shape[1])]
        assert cells.find(queries).reshape(-1).tolist() == want


@st.composite
def grid_index_cases(draw):
    """(points, metric, radius, cell_size, free query points)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        # Lattice points: many pairs sit at exactly the radius.
        step = draw(st.sampled_from([0.125, 0.25]))
        ints = draw(arrays(np.int64, (n, dim), elements=st.integers(0, 6)))
        points = ints * step
        radius = step * draw(st.sampled_from([0, 1, 2, 3]))
    else:
        points = draw(
            arrays(
                np.float64,
                (n, dim),
                elements=st.floats(0.0, 1.0, allow_nan=False, width=32),
            )
        )
        radius = draw(st.sampled_from([0.0, draw(st.floats(0.01, 0.8))]))
    duplicates = draw(st.integers(0, n))
    points = np.concatenate([points, points[:duplicates]])
    metric = draw(st.sampled_from([EUCLIDEAN, MANHATTAN, CHEBYSHEV]))
    cell_size = (radius or 0.1) * draw(st.floats(1 / 50, 10))
    free = draw(
        arrays(
            np.float64,
            (draw(st.integers(0, 4)), dim),
            elements=st.floats(-1.5, 2.5, allow_nan=False, width=32),
        )
    )
    # Below the data's box on the first axis, above it on the others.
    corner = points.max(axis=0) + 0.3
    corner[0] = points.min(axis=0)[0] - 0.3
    queries = np.concatenate([free, corner[None, :], points[:3]])
    return points, metric, float(radius), float(cell_size), queries


class TestGridIndexMatchesBruteForce:
    @given(case=grid_index_cases())
    @settings(**COMMON)
    def test_per_query_paths(self, case):
        points, metric, radius, cell_size, queries = case
        grid = GridIndex(points, metric, cell_size=cell_size)
        grid.accelerate = False
        brute = BruteForceIndex(points, metric, accelerate=False)
        for query in queries:
            got = grid.range_query_point(query, radius)
            assert sorted(got) == brute.range_query_point(query, radius)
        for i in range(points.shape[0]):
            assert sorted(grid.range_query(i, radius)) == brute.range_query(i, radius)
        ids = np.arange(points.shape[0])[::-1]
        got = grid.range_query_batch(ids, radius)
        want = brute.range_query_batch(ids, radius)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)
        # With the center included its position is unspecified.
        got = grid.range_query_batch(ids, radius, include_self=True)
        want = brute.range_query_batch(ids, radius, include_self=True)
        for g, w in zip(got, want):
            assert np.array_equal(np.sort(g), np.sort(w))


class TestPairedMatchesPairwise:
    @given(
        data=st.data(),
        k=st.integers(0, 30),
        dim=st.integers(1, 4),
    )
    @settings(**COMMON)
    def test_paired_is_the_pairwise_diagonal(self, data, k, dim):
        coords = arrays(
            np.float64,
            (k, dim),
            elements=st.floats(-2.0, 2.0, allow_nan=False, width=32),
        )
        X, Y = data.draw(coords), data.draw(coords)
        for metric in METRICS + [MinkowskiMetric(1.5), _HalfL1()]:
            got = metric.paired(X, Y)
            want = np.diagonal(metric.pairwise(X, Y))
            assert got.shape == (k,)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes(), metric


class TestConcurrentBuilds:
    def test_threads_match_serial_builds(self):
        """Builds release the GIL in their large array passes; several
        at once on different radii must still equal the serial results.
        More threads than cores and a short switch interval maximise
        the interleaving."""
        points = clustered_dataset(n=3000, seed=5).points
        radii = [0.02, 0.035, 0.05, 0.065, 0.08, 0.1, 0.12, 0.15]
        serial = {r: build_csr_grid(points, EUCLIDEAN, r) for r in radii}
        results = {}
        errors = []

        def work(chunk):
            try:
                for r in chunk:
                    results[r] = build_csr_grid(points, EUCLIDEAN, r)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(csr_mod, "DEFAULT_BLOCK_BYTES", 1 << 16):
                threads = [
                    threading.Thread(target=work, args=(radii[i::4],))
                    for i in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        for r in radii:
            assert_same_csr(results[r], serial[r])
