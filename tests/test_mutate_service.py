"""HTTP contract of the live-dataset serving stack (PR 9).

One real server over a *live* (mutable) dataset, exercising the wire
protocol end to end:

* version-stamped ``/select`` and ``/zoom`` responses (``version`` +
  ``selected_global``) for live datasets, absent for immutable ones;
* ``POST /mutate`` — insert/delete batches, selection repair with
  out-of-band verification, idempotent replay, error mapping;
* ``/zoom`` adapting a client-held ``previous`` selection instead of
  recomputing, with stale-version rejection on live datasets;
* adjacency-cache migration across versions (``engine="grid"`` — the
  grid engine is the one that consults the shared adjacency cache).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import verify_disc
from repro.datasets import uniform_dataset
from repro.service import (
    DatasetRegistry,
    ServiceClient,
    ServiceState,
    SharedCacheManager,
    start_in_thread,
)

N = 500
SEED = 11
RADIUS = 0.12
ENGINE = {"name": "grid", "options": {"cell_size": RADIUS}}


@pytest.fixture()
def service():
    registry = DatasetRegistry()
    base = uniform_dataset(n=N, seed=SEED)
    registry.register_array("frozen", base.points, base.metric)
    registry.register_array("livearr", base.points, base.metric)
    registry.promote_live("livearr")
    state = ServiceState(
        registry, cache=SharedCacheManager(max_entries=16), workers=2
    )
    with start_in_thread(state) as running:
        yield running


@pytest.fixture()
def client(service):
    with ServiceClient(service.host, service.port) as c:
        yield c


def _verify_against_live(service, selected_global, radius):
    """Definition 1 check, out of band, over the live dataset's current
    alive window (selected ids arrive in global id space)."""
    live = service.state.registry.get_live("livearr")
    handle = live.snapshot_handle()
    alive_ids = handle.spec["alive_ids"]
    local_of = {int(g): i for i, g in enumerate(alive_ids)}
    local = [local_of[int(g)] for g in selected_global]
    report = verify_disc(handle.dataset.points, handle.dataset.metric, local, radius)
    assert report.is_disc_diverse, str(report)


class TestVersionStamping:
    def test_live_select_carries_version_and_global_ids(self, client):
        response = client.select("livearr", RADIUS, engine=ENGINE)
        assert response["version"] == 0
        # At version 0 nothing is deleted: global ids == local ids.
        assert response["selected_global"] == response["result"]["selected"]

    def test_immutable_responses_are_unstamped(self, client):
        response = client.select("frozen", RADIUS, engine=ENGINE)
        assert "version" not in response
        assert "selected_global" not in response
        zoomed = client.zoom("frozen", RADIUS, RADIUS / 2, engine=ENGINE)
        assert "version" not in zoomed

    def test_version_advances_with_mutations(self, client, rng):
        client.mutate("livearr", inserts=rng.random((3, 2)).tolist())
        response = client.select("livearr", RADIUS, engine=ENGINE)
        assert response["version"] == 1


class TestMutateEndpoint:
    def test_insert_delete_batch(self, client, rng):
        response = client.mutate(
            "livearr", inserts=rng.random((5, 2)).tolist(), deletes=[0, 1]
        )
        assert response["dataset"] == "livearr"
        assert response["version"] == 1
        assert response["dataset_id"] == "livearr@v1"
        assert response["inserted"] == [N, N + 1, N + 2, N + 3, N + 4]
        assert response["deleted"] == [0, 1]
        assert response["n_alive"] == N + 3
        assert response["n_total"] == N + 5

    def test_mutate_with_repair_and_verify(self, client, service, rng):
        base = client.select("livearr", RADIUS, engine=ENGINE)
        previous = base["selected_global"]
        victims = [int(i) for i in rng.choice(N, size=40, replace=False)]
        response = client.mutate(
            "livearr",
            inserts=rng.random((40, 2)).tolist(),
            deletes=victims,
            repair={"radius": RADIUS, "previous": previous, "verify": True},
        )
        repair = response["repair"]
        assert repair["verified"] is True
        assert repair["radius"] == RADIUS
        assert sorted(repair["kept"] + repair["added"]) == repair["selected"]
        assert 0.0 <= repair["jaccard_previous"] <= 1.0
        _verify_against_live(service, repair["selected"], RADIUS)

    def test_error_mapping(self, client):
        # Immutable dataset -> 400, unknown -> 404, bad batches -> 400.
        assert client.request("POST", "/mutate", {"dataset": "frozen", "deletes": [0]})[0] == 400
        assert client.request("POST", "/mutate", {"dataset": "nope", "deletes": [0]})[0] == 404
        assert client.request("POST", "/mutate", {"dataset": "livearr"})[0] == 400
        assert client.request("POST", "/mutate", {"dataset": "livearr", "deletes": [0, 0]})[0] == 400
        assert client.request("POST", "/mutate", {"dataset": "livearr", "deletes": [N + 99]})[0] == 400
        assert client.request(
            "POST", "/mutate", {"dataset": "livearr", "deletes": [0], "bogus": 1}
        )[0] == 400
        assert client.request(
            "POST",
            "/mutate",
            {"dataset": "livearr", "deletes": [0], "repair": {"previous": [1]}},
        )[0] == 400  # repair requires a radius
        assert client.request("GET", "/mutate")[0] == 405

    def test_idempotency_key_replays_one_batch(self, client):
        payload = {
            "dataset": "livearr",
            "deletes": [7],
            "idempotency_key": "batch-7",
        }
        status, first = client.request("POST", "/mutate", payload)
        assert status == 200
        status, replay = client.request("POST", "/mutate", payload)
        assert status == 200
        # The retry joined the original flight: same version, applied once.
        assert replay["version"] == first["version"] == 1
        assert replay["coalesced"] is True

    def test_distinct_batches_never_coalesce(self, client, rng):
        a = client.mutate("livearr", inserts=rng.random((1, 2)).tolist())
        b = client.mutate("livearr", inserts=rng.random((1, 2)).tolist())
        assert (a["version"], b["version"]) == (1, 2)

    def test_stats_count_mutations(self, client, rng):
        client.mutate("livearr", inserts=rng.random((1, 2)).tolist())
        stats = client.stats()
        assert stats["mutations_applied"] == 1


class TestZoomPrevious:
    def test_zoom_adapts_client_previous(self, client, service):
        base = client.select("livearr", RADIUS, engine=ENGINE)
        previous = {
            "selected": base["result"]["selected"],
            "radius": RADIUS,
            "version": base["version"],
        }
        zoomed = client.zoom(
            "livearr", RADIUS, RADIUS / 2, engine=ENGINE, previous=previous
        )
        assert zoomed["adapted_previous"] is True
        assert set(base["result"]["selected"]) <= set(zoomed["result"]["selected"])
        _verify_against_live(service, zoomed["selected_global"], RADIUS / 2)

    def test_zoom_previous_on_immutable_dataset(self, client):
        base = client.select("frozen", RADIUS, engine=ENGINE)
        fresh = client.zoom("frozen", RADIUS, RADIUS * 2, engine=ENGINE)
        adapted = client.zoom(
            "frozen",
            RADIUS,
            RADIUS * 2,
            engine=ENGINE,
            previous={"selected": base["result"]["selected"], "radius": RADIUS},
        )
        assert adapted["adapted_previous"] is True
        # Zooming out from the same base selection lands on the same
        # coarser selection as the recompute-from-scratch path.
        assert adapted["result"]["selected"] == fresh["result"]["selected"]

    def test_stale_version_rejected(self, client, rng):
        base = client.select("livearr", RADIUS, engine=ENGINE)
        client.mutate("livearr", inserts=rng.random((1, 2)).tolist())
        status, body = client.request(
            "POST",
            "/zoom",
            {
                "dataset": "livearr",
                "radius": RADIUS,
                "to": RADIUS / 2,
                "engine": ENGINE,
                "previous": {
                    "selected": base["result"]["selected"],
                    "version": base["version"],
                },
            },
        )
        assert status == 400
        assert "stale" in body["error"]["message"]

    def test_malformed_previous_rejected(self, client):
        for previous in (
            {"selected": [0, 0]},  # duplicates
            {"selected": [-1]},  # out of range
            {"selected": [0], "bogus": 1},  # unknown field
            {"selected": [0], "radius": RADIUS * 3},  # radius disagreement
        ):
            status, _ = client.request(
                "POST",
                "/zoom",
                {
                    "dataset": "livearr",
                    "radius": RADIUS,
                    "to": RADIUS / 2,
                    "previous": previous,
                },
            )
            assert status == 400, previous


class TestCacheMigration:
    def test_mutation_migrates_touched_buckets(self, client, service, rng):
        cache = service.state.cache
        client.select("livearr", RADIUS, engine=ENGINE)
        builds_before = cache.cache_info()["builds"]
        response = client.mutate(
            "livearr", inserts=rng.random((4, 2)).tolist(), deletes=[3]
        )
        assert response["migrated_buckets"] == 1
        assert cache.cache_info()["migrations"] == 1
        client.select("livearr", RADIUS, engine=ENGINE)
        # The post-mutation select hits the migrated snapshot: no new
        # build (incremental or otherwise) is recorded.
        assert cache.cache_info()["builds"] == builds_before

    def test_untouched_radii_not_migrated(self, client, rng):
        response = client.mutate(
            "livearr", inserts=rng.random((1, 2)).tolist()
        )
        assert response["migrated_buckets"] == 0
