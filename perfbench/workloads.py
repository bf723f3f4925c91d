"""The three workloads: server flags, warm-up and seeded request streams.

Every workload is a closed loop (one thread and one keep-alive
connection per client): a client sends its next request only after the
previous answer arrived, as an interactive user does.  ``zoom-warm``
and ``zoom-cold`` run two clients; ``churn`` runs one (see below).

* ``zoom-warm`` — ``repro serve --workers 2`` (shared memory on).  Each
  client replays a zoom session over the radii :data:`WARM_RADII` in
  rounds of :data:`WARM_ROUND`: three ``/select`` and six ``/zoom`` in
  and out, each zoom carrying the client-held ``previous`` selection.  Warm-up makes
  every radius resident on both workers, so no timed request builds.
* ``zoom-cold`` — single process on :data:`COLD_N` points, shared cache
  capped at :data:`COLD_CACHE_MB` MiB.  Each request is a ``/select`` at a fresh
  radius in :data:`COLD_RANGE` (stratified, so every run covers the
  range evenly); no radius repeats, so every request builds.
* ``churn`` — single process, ``--live``.  One client sends
  :data:`WRITES_PER_READ` ``/mutate`` batches of 1% inserts and 1%
  deletes, each repairing the previous repaired selection at
  :data:`REPAIR_RADIUS`, then one ``/select`` at :data:`CHURN_RADII` on
  the latest version, and so on.  A writer and a reader running side by
  side would be the natural model, but a ``/select`` that overlaps a
  ``/mutate`` can be answered from the next version's adjacency (a live
  cache miss resolves with the dataset's current version, not the
  request's), which the correctness gate rejects; the one ordered
  stream keeps the mix those two clients produce.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from harness import BenchError

DATASET = "clustered"
#: Dataset cardinality (``--quick`` uses :data:`QUICK_N` everywhere).
N = 20_000
#: ``zoom-cold`` serves half the points over radii scaled by sqrt(2),
#: which keeps each point's expected neighbour count, and so the
#: flat-CSR-to-blocked switch, of n=20k over [0.02, 0.05], while a
#: request costs about half as much: at n=20k two concurrent cold
#: requests take ~2 s each on a 2-core box, too few per run for a
#: median and p90 that repeat.
COLD_N = 10_000
QUICK_N = 3_000
#: The served dataset is the same for every workload seed: the seed
#: drives the request streams and mutation batches.  A per-seed dataset
#: moves latency by more than any bound could absorb (cluster sizes and
#: radii come from a Dirichlet draw).
DATASET_SEED = 42
ENGINE = "grid"

WARM_RADII = (0.025, 0.05, 0.075)
COLD_RANGE = (0.02 * 2 ** 0.5, 0.05 * 2 ** 0.5)
COLD_STRATA = 16
COLD_WARMUP_RADIUS = 0.085
#: Below the working set: a few adjacencies of 4-15 MiB each.
COLD_CACHE_MB = 32
CHURN_RADII = (0.05, 0.025)
#: ``/mutate`` batches per ``/select`` on ``churn``: a writer and a reader
#: looping freely side by side on n=20k completed 68 batches and 22
#: reads in three 20 s runs (0.32 reads per batch), so every read lands
#: on a version no read has seen and pays its snapshot.
WRITES_PER_READ = 3
REPAIR_RADIUS = 0.05
BATCH_FRACTION = 0.01

CLIENTS = 2


@dataclass
class Request:
    op: str            # "select" | "zoom" | "mutate"
    payload: dict
    radius: float      # the radius the answer is at
    meta: dict = field(default_factory=dict)

    @property
    def path(self) -> str:
        return "/" + self.op

    @property
    def kind(self) -> str:
        return "write" if self.op == "mutate" else "read"


def _block_order(rng: np.random.Generator, values) -> List:
    return [values[i] for i in rng.permutation(len(values))]


#: One ``zoom-warm`` round over radius labels 0, 1, 2: a ``/select`` at
#: each radius and a ``/zoom`` along each of the six ordered radius
#: pairs, so every round has the same mix of selects, zoom-ins and
#: zoom-outs whatever the seed.
WARM_ROUND = [("select", 0), ("zoom", 1), ("select", 1), ("zoom", 2),
              ("select", 2), ("zoom", 0), ("zoom", 2), ("zoom", 1), ("zoom", 0)]


class ZoomSession:
    """One ``zoom-warm`` user: :data:`WARM_ROUND` over a seeded
    assignment of :data:`WARM_RADII` to the labels, per round."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self.round: List[tuple] = []
        self.current: Optional[dict] = None   # {"radius", "selected"}
        self.step = 0

    def next(self) -> Request:
        if not self.round:
            radii = _block_order(self.rng, WARM_RADII)
            self.round = [(op, radii[label]) for op, label in WARM_ROUND]
        op, radius = self.round.pop(0)
        meta = {"step": self.step}
        self.step += 1
        if op == "select" or self.current is None:
            return Request("select", {"dataset": DATASET, "radius": radius}, radius, meta)
        return Request(
            "zoom",
            {"dataset": DATASET, "to": radius, "previous": self.current},
            radius,
            meta,
        )

    def update(self, request: Request, body: dict) -> None:
        self.current = {
            "radius": request.radius, "selected": body["result"]["selected"],
        }


class ColdSession:
    """One ``zoom-cold`` user: a ``/select`` at a never-seen radius.

    Both users draw from one shared stratified sequence, so the radii a
    run completes cover :data:`COLD_RANGE` evenly whoever sends them."""

    def __init__(self, radii: deque) -> None:
        self.radii = radii

    def next(self) -> Request:
        step, radius = self.radii.popleft()
        return Request("select", {"dataset": DATASET, "radius": radius}, radius,
                       {"step": step})

    def update(self, request: Request, body: dict) -> None:
        pass


def cold_radii(seed: int, count: int = 4000) -> deque:
    """Stratified radii in :data:`COLD_RANGE`: each block of
    :data:`COLD_STRATA` draws one radius per stratum, in seeded order."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = COLD_RANGE
    width = (hi - lo) / COLD_STRATA
    seen = {COLD_WARMUP_RADIUS}
    out: deque = deque()
    while len(out) < count:
        for stratum in rng.permutation(COLD_STRATA):
            radius = round(lo + (stratum + rng.random()) * width, 7)
            if radius not in seen and lo < radius < hi:
                seen.add(radius)
                out.append((len(out), radius))
    return out


class ChurnPlan:
    """The writer's seeded batches, generated as they are sent, and the
    mirror of the live dataset they produce (the correctness gate
    rebuilds every version's alive points from it)."""

    def __init__(self, seed: int, points: np.ndarray) -> None:
        self.rng = np.random.default_rng([seed, 2])
        self.base = np.asarray(points, dtype=float)
        self.lo = self.base.min(axis=0)
        self.hi = self.base.max(axis=0)
        self.per_batch = max(1, int(round(self.base.shape[0] * BATCH_FRACTION)))
        self.alive = np.ones(self.base.shape[0], dtype=bool)
        self.batches: List[tuple] = []   # (inserts, deletes) per version

    def next_batch(self):
        dim = self.base.shape[1]
        inserts = self.lo + self.rng.random((self.per_batch, dim)) * (self.hi - self.lo)
        deletes = np.sort(self.rng.choice(
            np.flatnonzero(self.alive), size=self.per_batch, replace=False
        ))
        self.alive = np.concatenate([self.alive, np.ones(self.per_batch, dtype=bool)])
        self.alive[deletes] = False
        self.batches.append((inserts, deletes))
        return inserts, deletes

    def versions(self):
        """Yield ``(version, points_all, alive)`` for version 0, 1, ..."""
        points = self.base
        alive = np.ones(points.shape[0], dtype=bool)
        yield 0, points, alive
        for version, (inserts, deletes) in enumerate(self.batches, start=1):
            points = np.concatenate([points, inserts])
            alive = np.concatenate([alive, np.ones(inserts.shape[0], dtype=bool)])
            alive[deletes] = False
            yield version, points, alive


class ChurnSession:
    """The ``churn`` traffic as one ordered stream: :data:`WRITES_PER_READ`
    ``/mutate`` batches, each repairing the previous repaired selection,
    then one ``/select`` on the latest version at the next radius of a
    seeded block order over :data:`CHURN_RADII`."""

    def __init__(self, plan: ChurnPlan, selection: List[int],
                 rng: np.random.Generator) -> None:
        self.plan = plan
        self.selection = list(selection)
        self.rng = rng
        self.block: List[float] = []
        self.sent = 0
        self.reads = 0

    def next(self) -> Request:
        self.sent += 1
        if self.sent % (WRITES_PER_READ + 1):
            inserts, deletes = self.plan.next_batch()
            payload = {
                "dataset": DATASET,
                "inserts": inserts.tolist(),
                "deletes": [int(i) for i in deletes],
                "repair": {"radius": REPAIR_RADIUS, "previous": self.selection},
            }
            return Request("mutate", payload, REPAIR_RADIUS,
                           {"version": len(self.plan.batches)})
        if not self.block:
            self.block = _block_order(self.rng, CHURN_RADII)
        radius = self.block.pop(0)
        self.reads += 1
        return Request("select", {"dataset": DATASET, "radius": radius}, radius,
                       {"step": self.reads - 1})

    def update(self, request: Request, body: dict) -> None:
        if request.op == "mutate":
            self.selection = body["repair"]["selected"]


@dataclass
class Workload:
    name: str
    n: int
    #: ``result_size_mean`` averages the reads whose ``step`` is below
    #: this (a prefix every run completes), and the traced edge counts
    #: cover their builds, so both repeat exactly for one seed whatever
    #: the machine's speed.
    size_steps: int
    server_args: Callable[[int], List[str]]
    #: warm-up(client, n, seed) -> state handed to make_sessions
    warmup: Callable
    #: make_sessions(seed, n, warm_state) -> one session per client
    make_sessions: Callable


def _base_args(n: int) -> List[str]:
    return ["--datasets", DATASET, "--n", str(n), "--seed", str(DATASET_SEED),
            "--engine", ENGINE, "--threads", str(CLIENTS)]


def _warm_warmup(client, n: int, seed: int):
    """Every radius resident on both workers: the front routes
    least-loaded with a round-robin tie-break, so two sequential
    requests per radius reach both; /stats confirms it."""
    for _ in range(3):
        for radius in WARM_RADII:
            for _ in range(CLIENTS):
                client.json("POST", "/select", {"dataset": DATASET, "radius": radius})
        stats = client.json("GET", "/stats")
        resident = [
            {key["radius"] for key in (w["stats"]["cache"] or {}).get("keys", [])}
            for w in stats["workers"] if w.get("stats")
        ]
        if len(resident) == CLIENTS and all(set(WARM_RADII) <= r for r in resident):
            return None
    raise BenchError(f"warm-up left radii cold on some worker: {resident}")


def _cold_warmup(client, n: int, seed: int):
    client.json("POST", "/select", {"dataset": DATASET, "radius": COLD_WARMUP_RADIUS})
    return None


def _churn_warmup(client, n: int, seed: int):
    """Load the live dataset, track both read radii, and take the
    writer's first selection (version 0)."""
    first = None
    for radius in CHURN_RADII:
        body = client.json("POST", "/select", {"dataset": DATASET, "radius": radius})
        if radius == REPAIR_RADIUS:
            first = body["selected_global"]
    return first


def _warm_sessions(seed: int, n: int, state):
    return [ZoomSession(np.random.default_rng([seed, 0, c])) for c in range(CLIENTS)]


def _cold_sessions(seed: int, n: int, state):
    radii = cold_radii(seed)
    return [ColdSession(radii) for _ in range(CLIENTS)]


def _churn_sessions(seed: int, n: int, state):
    from repro.datasets import clustered_dataset

    points = clustered_dataset(n=n, seed=DATASET_SEED).points
    return [ChurnSession(ChurnPlan(seed, points), state,
                         np.random.default_rng([seed, 3]))]


WORKLOADS: Dict[str, Workload] = {
    "zoom-warm": Workload(
        "zoom-warm",
        n=N,
        size_steps=2 * len(WARM_ROUND),
        server_args=lambda n: _base_args(n) + ["--workers", str(CLIENTS)],
        warmup=_warm_warmup,
        make_sessions=_warm_sessions,
    ),
    "zoom-cold": Workload(
        "zoom-cold",
        n=COLD_N,
        size_steps=COLD_STRATA,
        server_args=lambda n: _base_args(n) + ["--cache-mb", str(COLD_CACHE_MB)],
        warmup=_cold_warmup,
        make_sessions=_cold_sessions,
    ),
    "churn": Workload(
        "churn",
        n=N,
        size_steps=4,
        server_args=lambda n: _base_args(n) + ["--live"],
        warmup=_churn_warmup,
        make_sessions=_churn_sessions,
    ),
}


def canonical_result(result: dict) -> str:
    """The served result minus ``stats``: the index cost counters are
    advisory in the service (shared by concurrent requests), everything
    else must match the library byte for byte."""
    return json.dumps(
        {k: v for k, v in result.items() if k != "stats"},
        sort_keys=True, separators=(",", ":"),
    )
