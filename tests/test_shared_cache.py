"""Concurrent sessions over one SharedCacheManager: parity + single build.

The cross-session cache's contract has two halves:

1. **Correctness** — selections computed through a shared cache are
   byte-identical to serial, private-cache execution (a cache hit feeds
   the same immutable adjacency a fresh build would).
2. **Economy** — concurrent sessions asking for the same radius never
   build the same adjacency twice: the first miss builds, the rest
   coalesce onto it (``builds == unique radii``).

This is the threaded analogue of ``benchmarks/test_session_cache.py``
and the in-process half of what ``tests/test_service.py`` checks over
HTTP.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import DiscSession, disc_select
from repro.datasets import clustered_dataset
from repro.service import SharedCacheManager

N = 3000
SEED = 3
CELL = 0.05
#: A repeated-radius zoom trace (multipliers of CELL).
RADII = [0.05, 0.025, 0.05, 0.075, 0.025, 0.05]
CLIENTS = 4


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(n=N, seed=SEED)


@pytest.fixture(scope="module")
def serial_reference(data):
    """Fresh one-shot selections per radius — the byte-parity oracle."""
    return {
        radius: disc_select(
            data, radius, engine="grid", engine_options={"cell_size": CELL}
        ).selected
        for radius in set(RADII)
    }


def test_concurrent_sessions_share_one_build_per_radius(data, serial_reference):
    manager = SharedCacheManager()
    sessions = [
        DiscSession(
            data,
            engine="grid",
            cell_size=CELL,
            adjacency_cache=manager.view("clustered-parity", data.metric),
        )
        for _ in range(CLIENTS)
    ]
    barrier = threading.Barrier(CLIENTS)
    outputs = [[] for _ in range(CLIENTS)]
    errors = []

    def worker(session, out):
        try:
            for radius in RADII:
                barrier.wait()  # all sessions hit each radius together
                out.append((radius, session.select(radius).selected))
        except BaseException as exc:  # pragma: no cover - surfacing
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(session, out))
        for session, out in zip(sessions, outputs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    # 1. Byte-identical to serial execution, for every session & step.
    for out in outputs:
        assert len(out) == len(RADII)
        for radius, selected in out:
            assert selected == serial_reference[radius], radius

    # 2. Each adjacency was built exactly once across all sessions —
    #    concurrent first-misses coalesced instead of double-building.
    assert manager.cache_info()["builds"] == len(set(RADII))
    # Everyone else was served from the shared store.
    assert manager.cache_info()["hits"] + manager.cache_info()["coalesced_builds"] > 0
    info = manager.cache_info()
    assert info["entries"] == len(set(RADII))


def test_session_attach_reports_shared_cache_info(data):
    manager = SharedCacheManager()
    session = DiscSession(
        data,
        engine="grid",
        cell_size=CELL,
        adjacency_cache=manager.view("clustered-info", data.metric),
    )
    session.select(0.05)
    session.select(0.05)
    info = session.cache_info()
    assert info["dataset"] == "clustered-info"
    assert info["hits"] >= 1
    assert info["shared"]["builds"] == manager.cache_info()["builds"]
    # And the same radii replayed on a *second* session reuse the
    # first session's adjacency outright: no new build.
    builds_before = manager.cache_info()["builds"]
    other = DiscSession(
        data,
        engine="grid",
        cell_size=CELL,
        adjacency_cache=manager.view("clustered-info", data.metric),
    )
    assert other.select(0.05).selected == session.select(0.05).selected
    assert manager.cache_info()["builds"] == builds_before
