"""The compiled kernel's loader (cache, concurrency, fallback) and its
grid-build entry point (metric coverage, bounds, memory).

The kernel is built on first use into ``$XDG_CACHE_HOME/repro/``; each
test that builds points that variable at its own empty directory, so
the user's cache is never touched.  Fresh interpreters run the loader
where a test needs a cold process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.core import _kernel, greedy_c, greedy_disc, zoom_in, zoom_out
from repro.datasets import clustered_dataset
from repro.distance import CHEBYSHEV, EUCLIDEAN, MANHATTAN
from repro.distance.metrics import EuclideanMetric, MinkowskiMetric
from repro.graph import csr as csr_mod
from repro.index import GridIndex
from repro.live.repair import repair_selection

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Loads the kernel in a fresh interpreter, counting compiler runs, and
#: checks one selection against the heap path.  ``START`` (a wall-clock
#: time) lines up concurrent processes before the load.
_PROBE = textwrap.dedent(
    """
    import sys, time
    import repro.core._kernel as kernel
    builds = []
    compile_ = kernel._compile
    def counting(*args):
        builds.append(args)
        compile_(*args)
    kernel._compile = counting
    start = float(sys.argv[1])
    while time.time() < start:
        time.sleep(0.001)
    assert kernel.load() is not None
    from repro.core import greedy_disc
    from repro.datasets import clustered_dataset
    from repro.distance import EUCLIDEAN
    from repro.index import BruteForceIndex, GridIndex
    points = clustered_dataset(n=600, seed=3).points
    fast = greedy_disc(GridIndex(points, EUCLIDEAN), 0.05).selected
    slow = greedy_disc(
        BruteForceIndex(points, EUCLIDEAN, accelerate=False), 0.05
    ).selected
    assert fast == slow
    print(len(builds))
    """
)


def _probe(cache: Path, start: float = 0.0) -> subprocess.Popen:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE, str(start)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _builds(process: subprocess.Popen) -> int:
    out, err = process.communicate(timeout=120)
    assert process.returncode == 0, err
    return int(out.strip().splitlines()[-1])


def _libraries(cache: Path):
    return sorted(p.name for p in (cache / "repro").iterdir())


def test_second_process_hits_the_cache(tmp_path):
    assert _builds(_probe(tmp_path)) == 1
    first = _libraries(tmp_path)
    mtime = (tmp_path / "repro" / first[0]).stat().st_mtime_ns
    assert _builds(_probe(tmp_path)) == 0
    assert _libraries(tmp_path) == first
    assert (tmp_path / "repro" / first[0]).stat().st_mtime_ns == mtime


def test_concurrent_first_loads_both_get_a_valid_library(tmp_path):
    start = time.time() + 1.5
    first, second = _probe(tmp_path, start), _probe(tmp_path, start)
    builds = _builds(first) + _builds(second)
    assert builds >= 1
    # One library under its final name, no temp file left behind.
    libraries = _libraries(tmp_path)
    assert len(libraries) == 1 and libraries[0].startswith("select-")


@pytest.fixture()
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet in this process, with an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_loaded", False)
    monkeypatch.setattr(_kernel, "_kernel", None)


def _answers():
    points = clustered_dataset(n=800, seed=5).points
    index = GridIndex(points, EUCLIDEAN)
    for radius in (0.03, 0.06, 0.09):
        index.csr_neighborhood(radius)
    first = greedy_disc(index, 0.06, track_closest_black=True)
    results = [
        first,
        greedy_c(index, 0.06),
        zoom_in(index, first, 0.03, greedy=True),
        zoom_out(index, first, 0.09, greedy_variant="c"),
    ]
    answers = [
        (r.selected, r.closest_black.tobytes() if r.closest_black is not None else None)
        for r in results
    ]
    repaired = repair_selection(
        index.csr_neighborhood(0.06), np.arange(points.shape[0]), first.selected[::2]
    )
    return answers + [repaired["selected"]]


@pytest.mark.parametrize(
    "compiler",
    [None, [shutil.which("false")]],
    ids=["missing-compiler", "failing-compiler"],
)
def test_no_compiler_warns_once_and_answers_match(fresh_loader, monkeypatch, compiler):
    assert _kernel.load() is not None
    with_kernel = _answers()

    monkeypatch.setattr(_kernel, "_loaded", False)
    monkeypatch.setattr(_kernel, "_kernel", None)
    monkeypatch.setattr(_kernel, "_compiler", lambda: compiler)
    # A different cache key, so the failing compiler really runs.
    monkeypatch.setattr(_kernel, "FLAGS", _kernel.FLAGS + ("-DREPRO_TEST",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        without = _answers()
        assert _kernel.load() is None
    kernel_warnings = [
        w for w in caught
        if issubclass(w.category, RuntimeWarning) and "selection kernel" in str(w.message)
    ]
    assert len(kernel_warnings) == 1
    assert without == with_kernel


def test_kernel_rejects_mismatched_arrays():
    kernel = _kernel.load()
    points = clustered_dataset(n=200, seed=1).points
    csr = GridIndex(points, EUCLIDEAN).csr_neighborhood(0.05)
    codes = np.zeros(csr.n, dtype=np.int8)
    with pytest.raises(ValueError):
        next(kernel.run(csr, codes, np.zeros(csr.n, dtype=np.int32),
                        _kernel.MODE_COVER, pool=csr.n, batch=8))
    with pytest.raises(ValueError):
        next(kernel.run(csr, codes[:-1], np.zeros(csr.n, dtype=np.int64),
                        _kernel.MODE_COVER, pool=csr.n, batch=8))


def _grid_emitter(points, metric, radius, capacity=None):
    """A kernel row emitter over ``points``' grid plan, and its arrays."""
    plan = csr_mod._plan_grid(points, metric, radius, None)
    cell_of = np.empty(plan.n, dtype=np.int64)
    cell_of[plan.cells.members] = np.repeat(np.arange(plan.m, dtype=np.int64), plan.sizes)
    cand, auto, seg_ptr, _, _ = csr_mod._candidate_table(plan, cell_of, None)
    if capacity is None:
        capacity = int(np.diff(seg_ptr)[cell_of].sum()) + 1
    indices = np.zeros(capacity, dtype=np.int32)
    degrees = np.zeros(plan.n, dtype=np.int64)
    emit = _kernel.load().grid_rows(
        points, metric, radius, cell_of, seg_ptr, cand, auto, indices, degrees
    )
    return emit, indices, degrees


class _SubclassedL2(EuclideanMetric):
    """May override ``paired``: the kernel must not assume it did not."""


def test_grid_rows_inline_metrics_only():
    points = clustered_dataset(n=300, seed=2).points
    for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
        emit, indices, degrees = _grid_emitter(points, metric, 0.05)
        filled = emit(0, points.shape[0], 0)
        want = csr_mod.build_csr_pairwise(points, metric, 0.05)
        assert np.array_equal(degrees, want.degrees)
        assert np.array_equal(indices[:filled], want.indices)
    for metric in (MinkowskiMetric(3), _SubclassedL2()):
        emit, _, _ = _grid_emitter(points, metric, 0.05)
        assert emit is None


def test_grid_rows_refuse_to_overflow():
    points = clustered_dataset(n=300, seed=2).points
    emit, indices, _ = _grid_emitter(points, EUCLIDEAN, 0.05, capacity=4)
    with pytest.raises(ValueError, match="overflow"):
        emit(0, points.shape[0], 0)
    with pytest.raises(ValueError):
        emit(0, points.shape[0] + 1, 0)
    with pytest.raises(ValueError):
        emit(0, 1, -1)


@pytest.mark.parametrize("radius", [0.05, 0.05 * 2 ** 0.5])
def test_kernel_grid_build_peaks_below_the_numpy_path(radius):
    """The kernel writes kept ids straight into the one ``indices``
    buffer; the NumPy passes add per-batch gathers and distances on top
    (clustered n=10k, the cold-zoom radii)."""
    points = clustered_dataset(n=10000).points
    assert _kernel.load() is not None

    def peak():
        tracemalloc.start()
        try:
            csr_mod.build_csr_grid(points, EUCLIDEAN, radius)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    compiled = peak()
    with mock.patch.multiple(_kernel, _kernel=None, _loaded=True):
        fallback = peak()
    assert compiled < fallback
