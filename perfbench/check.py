"""Correctness gate: served answers against the library, outside the timed window.

* every ``/select`` answer must equal an in-process
  :func:`repro.api.disc_select` over the same points and radius, byte
  for byte in canonical JSON (``stats`` aside, see
  :func:`workloads.canonical_result`);
* every ``/zoom`` answer and every repaired selection must pass
  :func:`repro.core.verify.verify_disc` (Definition 1: independent and
  dominating) at its radius;
* every ``/mutate`` answer must report the version and ids the seeded
  batch implies, so the gate's mirror of the live dataset is exact.

The reference work runs in a small process pool after the servers are
gone, so it never competes with a timed request.  The pool forks (the
client threads have ended by then): a spawning pool's locks would start
a ``multiprocessing`` resource tracker that outlives the run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Tuple

import numpy as np

from workloads import DATASET_SEED, ENGINE, canonical_result

#: Reference processes: one per core of the two-core machine the
#: benchmark was sized on; the servers are gone by then.
POOL_WORKERS = 2
_POINTS: Dict[int, np.ndarray] = {}


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _points(spec):
    """``spec`` is a cardinality (the fixed clustered dataset) or an
    explicit point array (one live version)."""
    if isinstance(spec, np.ndarray):
        return spec
    if spec not in _POINTS:
        from repro.datasets import clustered_dataset

        _POINTS[spec] = clustered_dataset(n=spec, seed=DATASET_SEED).points
    return _POINTS[spec]


def reference_select(spec, radius: float) -> str:
    from repro.api import disc_select
    from repro.datasets.base import Dataset
    from repro.distance import EUCLIDEAN

    data = Dataset(name="reference", points=_points(spec), metric=EUCLIDEAN)
    result = disc_select(data, radius, engine=ENGINE)
    return digest(canonical_result(result.to_dict()))


def is_disc(spec, selected: List[int], radius: float) -> bool:
    from repro.core.verify import verify_disc
    from repro.distance import EUCLIDEAN

    return bool(verify_disc(_points(spec), EUCLIDEAN, selected, radius).is_disc_diverse)


def gate(records: List[dict], n: int, plan=None) -> List[str]:
    """Check every successful answer; returns the list of violations."""
    problems: List[str] = []
    ok = [r for r in records if r["status"] == 200]
    versions: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if plan is not None:
        problems += _check_mutations(records, plan)
        wanted = {r.get("version") for r in ok}
        for version, points, alive in plan.versions():
            if version in wanted:
                versions[version] = (points, alive)

    def spec_of(record):
        if plan is None:
            return n
        points, alive = versions[record["version"]]
        return np.ascontiguousarray(points[alive])

    selects: Dict[tuple, List[dict]] = {}
    checks: Dict[tuple, tuple] = {}
    for record in ok:
        if record["op"] == "select":
            selects.setdefault((record.get("version"), record["radius"]), []).append(record)
        elif record["op"] == "zoom":
            key = ("zoom", record.get("version"), record["radius"], tuple(record["selected"]))
            checks.setdefault(key, (record, record["selected"]))
        elif record["op"] == "mutate":
            _, alive = versions[record["version"]]
            local = np.searchsorted(np.flatnonzero(alive), record["selected"])
            if not alive[record["selected"]].all():
                problems.append(f"repair at v{record['version']} kept a deleted id")
                continue
            key = ("repair", record["version"])
            checks[key] = (record, [int(i) for i in local])
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=POOL_WORKERS, mp_context=context) as pool:
        select_jobs = {
            key: pool.submit(reference_select, spec_of(group[0]), key[1])
            for key, group in selects.items()
        }
        check_jobs = {
            key: pool.submit(is_disc, spec_of(record), selected, record["radius"])
            for key, (record, selected) in checks.items()
        }
        for key, job in select_jobs.items():
            expected = job.result()
            bad = [r for r in selects[key] if r["digest"] != expected]
            if bad:
                problems.append(
                    f"/select at r={key[1]} (version {key[0]}): {len(bad)} of "
                    f"{len(selects[key])} answers differ from disc_select"
                )
        for key, job in check_jobs.items():
            if not job.result():
                problems.append(f"{key[0]} at r={checks[key][0]['radius']} "
                                f"(version {key[1]}) violates Definition 1")
    return problems


def _check_mutations(records: List[dict], plan) -> List[str]:
    problems = []
    writes = [r for r in records if r["op"] == "mutate"]
    if any(r["status"] != 200 for r in writes):
        return ["a /mutate failed, so the live dataset's state is unknown"]
    n_total = plan.base.shape[0]
    for record in sorted(writes, key=lambda r: r["version"]):
        inserts, deletes = plan.batches[record["version"] - 1]
        expected = list(range(n_total, n_total + inserts.shape[0]))
        n_total += inserts.shape[0]
        if (record["served_version"] != record["version"]
                or record["inserted"] != expected
                or record["deleted"] != [int(i) for i in deletes]):
            problems.append(f"/mutate v{record['version']} applied another batch")
    return problems
