"""Shared serving state: datasets + indexes + cache + execution.

:class:`ServiceState` is the synchronous heart of the service — the
asyncio front end (:mod:`repro.service.server`) validates requests on
the event loop, then runs the heavy work on this object inside a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` so the loop
stays responsive.  It owns:

* a :class:`~repro.service.registry.DatasetRegistry` (datasets load
  once, handles are immutable),
* a :class:`~repro.service.cache.SharedCacheManager` (or None when
  caching is disabled) that every serving index attaches to via a
  :class:`~repro.service.cache.SharedCacheView`,
* one :class:`~repro.index.base.NeighborIndex` per (dataset, engine
  spec), built on first use behind a per-key lock — the serving
  analogue of :class:`~repro.api.DiscSession`'s index-once contract,
* computation counters for ``/stats`` (request and response counts
  live in the metrics registry, where the HTTP core keeps them).

Selections run the same heuristics as :func:`repro.api.disc_select`
over the same validated :class:`~repro.requests.SelectRequest`, so a
served response is byte-identical to a direct library call (pinned by
``tests/test_service.py``).  Index cost counters are shared across
concurrent requests and therefore only advisory here; the serving
response deliberately reports wall-clock, not per-request counter
deltas.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.cancellation import CancellationToken, cancellation_scope
from repro.core import zoom_in, zoom_out
from repro.core.result import DiscResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.requests import METHODS, EngineSpec, SelectRequest
from repro.service.cache import LazyMigration, SharedCacheManager
from repro.service.registry import DatasetHandle, DatasetRegistry
from repro.service.resilience import resolve_deadline
from repro.validation import validate_radius

__all__ = ["ServiceState", "canonical_key"]


def canonical_key(kind: str, dataset_id: str, payload: dict) -> str:
    """The single-flight identity of one request.

    Two requests coalesce iff their canonical keys match: same
    endpoint, same dataset, same *validated* request payload (so
    ``method: "GREEDY"`` and ``method: "greedy"`` coalesce, while any
    semantic difference — radius, method option, engine — keeps them
    apart).
    """
    import json

    return json.dumps(
        {"kind": kind, "dataset": dataset_id, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


class ServiceState:
    """Process-wide serving state shared by every connection.

    Parameters
    ----------
    registry:
        Dataset catalogue (a fresh empty one by default).
    cache:
        A :class:`SharedCacheManager`, or None to serve without the
        shared adjacency cache (every request rebuilds).
    engine:
        Default engine spec for requests that do not name one.
    workers:
        Thread-pool size — the compute admission bound.
    max_inflight:
        Hard cap on queued + running computations; beyond it the server
        answers 503 instead of buffering unboundedly.
    default_timeout_ms:
        Deadline applied to requests that carry no ``timeout_ms`` of
        their own (None = such requests run unbounded).
    max_timeout_ms:
        Server-enforced cap on client deadlines (None = uncapped).  A
        client budget cut by this cap expires as 504, not 408.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` driving
        the worker-stall and connection-reset injection points (the
        cache-level points hang off the :class:`SharedCacheManager`).
    """

    #: Lock discipline (convention in :mod:`repro.engines.cache`,
    #: enforced by ``repro lint``): the ``/stats`` counters move under
    #: the dedicated counter lock so hot-path increments never contend
    #: with index builds, which serialise on ``self._lock``.
    _GUARDED_BY = {
        "computations": "self._counter_lock",
        "coalesced_requests": "self._counter_lock",
        "degraded_responses": "self._counter_lock",
        "inflight": "self._counter_lock",
        "mutations_applied": "self._counter_lock",
        "_indexes": "self._lock",
        "_index_locks": "self._lock",
    }

    def __init__(
        self,
        registry: Optional[DatasetRegistry] = None,
        *,
        cache: Optional[SharedCacheManager] = None,
        engine: str = "auto",
        engine_options: Optional[dict] = None,
        workers: int = 4,
        max_inflight: Optional[int] = 64,
        default_timeout_ms: Optional[float] = None,
        max_timeout_ms: Optional[float] = None,
        faults=None,
        identity: Optional[dict] = None,
        metrics: Optional[obs_metrics.MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        for name, value in (
            ("default_timeout_ms", default_timeout_ms),
            ("max_timeout_ms", max_timeout_ms),
        ):
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        self.registry = registry if registry is not None else DatasetRegistry()
        self.cache = cache
        self.default_engine = EngineSpec(
            name=engine, options=dict(engine_options or {})
        ).validate()
        self.workers = workers
        self.max_inflight = max_inflight
        self.default_timeout_ms = default_timeout_ms
        self.max_timeout_ms = max_timeout_ms
        self.faults = faults
        #: Who this process is in a supervised cluster (worker id/pid);
        #: None for a plain single-process server.  Rendered verbatim
        #: under ``/stats`` -> ``worker`` so the front's rollup can
        #: label each worker's counters.
        self.identity = dict(identity) if identity else None
        #: Metrics registry shared with the server/cache instruments;
        #: defaults to the process-wide one (``GET /metrics``), but
        #: tests can pass an isolated registry.
        self.metrics = metrics if metrics is not None else obs_metrics.registry()
        self._m_phase = self.metrics.histogram(
            "repro_phase_duration_seconds",
            "Measured compute-phase durations, by phase",
            labelnames=("phase",),
        )
        self._m_computations = self.metrics.counter(
            "repro_computations_total", "Selections/zooms/mutations executed"
        )
        self._m_degraded = self.metrics.counter(
            "repro_degraded_responses_total", "Responses served from the stale tier"
        )
        self.executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="disc-service"
        )
        self.started_at = time.time()
        self._indexes: Dict[Tuple[str, str], object] = {}
        self._index_locks: Dict[Tuple[str, str], threading.Lock] = {}
        self._lock = threading.Lock()
        # ``/stats`` counters (the server counts coalesced requests on
        # the event loop; computations increment in worker threads).
        self.computations = 0
        self.coalesced_requests = 0
        self.degraded_responses = 0
        self.inflight = 0
        self.mutations_applied = 0
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count_coalesced(self) -> None:
        with self._counter_lock:
            self.coalesced_requests += 1

    def count_computation(self) -> None:
        with self._counter_lock:
            self.computations += 1
        self._m_computations.inc()

    def count_degraded(self) -> None:
        with self._counter_lock:
            self.degraded_responses += 1
        self._m_degraded.inc()

    def count_mutation(self) -> None:
        with self._counter_lock:
            self.mutations_applied += 1

    def adjust_inflight(self, delta: int) -> int:
        """Move the in-flight gauge under the counter lock.

        The server calls this from the event loop and ``/stats`` reads
        the gauge from whatever thread serves it; unlocked ``+=`` here
        was the torn-read the counter-consistency test pins.
        """
        with self._counter_lock:
            self.inflight += delta
            return self.inflight

    def current_inflight(self) -> int:
        with self._counter_lock:
            return self.inflight

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def deadline_token(self, timeout_ms: Optional[float]) -> CancellationToken:
        """A :class:`CancellationToken` for one request's budget."""
        seconds, source = resolve_deadline(
            timeout_ms,
            default_timeout_ms=self.default_timeout_ms,
            max_timeout_ms=self.max_timeout_ms,
        )
        return CancellationToken.with_timeout(seconds, source=source)

    # ------------------------------------------------------------------
    # Validation (cheap, runs on the event loop)
    # ------------------------------------------------------------------
    def validate_select(self, payload: dict) -> Tuple[DatasetHandle, SelectRequest]:
        """Resolve dataset + request from a ``/select`` body.

        The body is ``{"dataset": name, ...SelectRequest fields...}`` or
        ``{"dataset": name, "request": {...}}``.  Raises ``KeyError``
        for unknown datasets (→ 404) and ``ValueError``/``TypeError``
        for malformed requests (→ 400), before any compute is queued.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "dataset" not in payload:
            raise ValueError("request body is missing the 'dataset' field")
        handle = self.registry.get(str(payload["dataset"]))
        body = payload.get("request")
        if body is None:
            body = {
                key: value
                for key, value in payload.items()
                if key != "dataset"
            }
        request = SelectRequest.coerce(body)
        if "engine" not in (body or {}):
            request = SelectRequest(
                radius=request.radius,
                method=request.method,
                method_options=request.method_options,
                engine=self.default_engine,
            )
        return handle, request.validate()

    def validate_zoom(
        self, payload: dict
    ) -> Tuple[DatasetHandle, SelectRequest, float, dict, Optional[dict]]:
        """Resolve a ``/zoom`` body: select at ``radius``, adapt to ``to``.

        Returns ``(handle, select_request, to_radius, zoom_options,
        previous)``; ``zoom_options`` carries ``greedy`` (zoom-in) /
        ``variant`` (zoom-out) and ``include``, the sorted optional
        response fields (``["closest_black"]`` or ``[]``: the n-float
        arrays go on the wire only when asked for).  ``previous`` is
        the validated client-held base solution when the body carries
        one (see :meth:`_validate_previous`), else None — with it the
        server *adapts* the client's selection instead of recomputing
        the base selection first.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "to" not in payload:
            raise ValueError("zoom body is missing the 'to' field")
        to_radius = validate_radius(payload["to"], name="to")
        raw_previous = payload.get("previous")
        if "request" in payload:
            # Same nested form /select accepts.
            select_payload = {
                "dataset": payload.get("dataset"),
                "request": payload["request"],
            }
            if select_payload["dataset"] is None:
                select_payload.pop("dataset")
        else:
            select_payload = {
                key: value
                for key, value in payload.items()
                if key in ("dataset", "radius", "method", "method_options", "engine")
            }
            if raw_previous is not None and "radius" not in select_payload:
                # A client replaying its held solution need not restate
                # the radius it was computed at.
                if isinstance(raw_previous, dict) and "radius" in raw_previous:
                    select_payload["radius"] = raw_previous["radius"]
        handle, request = self.validate_select(select_payload)
        if to_radius == request.radius:
            raise ValueError(
                f"'to' must differ from 'radius' (both {to_radius})"
            )
        include = payload.get("include", [])
        if not isinstance(include, list) or any(
            field != "closest_black" for field in include
        ):
            raise ValueError(
                "'include' must be a list of optional response fields; "
                "the only one is 'closest_black'"
            )
        zoom_options = {
            "greedy": bool(payload.get("greedy", True)),
            "variant": payload.get("variant", "a"),
            "include": sorted(set(include)),
        }
        previous = self._validate_previous(handle, request, raw_previous)
        # The closest-black distances of Section 5.2 are what makes the
        # base solution zoomable.
        request = request.with_options(track_closest_black=True).validate()
        return handle, request, to_radius, zoom_options, previous

    @staticmethod
    def _validate_previous(
        handle: DatasetHandle, request: SelectRequest, raw
    ) -> Optional[dict]:
        """Validate a client-held ``previous`` solution for ``/zoom``.

        Accepted shape: ``{"selected": [ids...], "radius": r?,
        "closest_black": [...]?, "closest_black_exact": bool?,
        "version": int?}``.  Ids must be valid rows of the handle;
        ``closest_black`` (when provided) must cover every row.  For
        live datasets a stale ``version`` is rejected so a client never
        adapts a selection against points it was not computed on.
        """
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ValueError("'previous' must be an object")
        unknown = set(raw) - {
            "selected", "radius", "closest_black", "closest_black_exact",
            "version",
        }
        if unknown:
            raise ValueError(
                f"'previous' has unknown fields {sorted(unknown)}"
            )
        if "selected" not in raw:
            raise ValueError("'previous' is missing the 'selected' field")
        selected_raw = raw["selected"]
        if not isinstance(selected_raw, (list, tuple)):
            raise ValueError("'previous.selected' must be a list of ids")
        selected = []
        for value in selected_raw:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    "'previous.selected' must contain integer ids"
                )
            if not 0 <= value < handle.n:
                raise ValueError(
                    f"'previous.selected' id {value} is out of range for "
                    f"dataset {handle.dataset_id!r} (n={handle.n})"
                )
            selected.append(int(value))
        if len(set(selected)) != len(selected):
            raise ValueError("'previous.selected' contains duplicate ids")
        if "radius" in raw:
            prev_radius = validate_radius(raw["radius"], name="previous.radius")
            if prev_radius != request.radius:
                raise ValueError(
                    f"'previous.radius' ({prev_radius}) disagrees with the "
                    f"request radius ({request.radius})"
                )
        closest = raw.get("closest_black")
        if closest is not None:
            if not isinstance(closest, (list, tuple)) or len(closest) != handle.n:
                raise ValueError(
                    "'previous.closest_black' must list one distance per "
                    f"point (n={handle.n})"
                )
        if "version" in raw:
            version = raw["version"]
            if isinstance(version, bool) or not isinstance(version, int):
                raise ValueError("'previous.version' must be an integer")
            live_version = handle.spec.get("version")
            if handle.spec.get("live") and version != live_version:
                raise ValueError(
                    f"'previous.version' ({version}) is stale: dataset "
                    f"{handle.spec.get('name')!r} is at version {live_version}; "
                    "re-select or repair via /mutate"
                )
        return {
            "selected": selected,
            "closest_black": None if closest is None else list(closest),
            "closest_black_exact": bool(raw.get("closest_black_exact", False)),
        }

    def validate_mutate(self, payload: dict):
        """Resolve a ``/mutate`` body → ``(live, inserts, deletes, repair)``.

        Body shape: ``{"dataset": name, "inserts": [[...], ...]?,
        "deletes": [ids...]?, "repair": {"radius": r, "previous":
        [ids...], "verify": bool?}?}``.  Unknown datasets raise
        ``KeyError`` (→ 404); immutable datasets and malformed batches
        raise ``ValueError`` (→ 400).  Coordinate/id coercion happens in
        :meth:`MutableDataset.apply` (its :class:`MutationError` is a
        ``ValueError``), so nothing is applied before validation passes.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if "dataset" not in payload:
            raise ValueError("request body is missing the 'dataset' field")
        unknown = set(payload) - {"dataset", "inserts", "deletes", "repair"}
        if unknown:
            raise ValueError(f"mutate body has unknown fields {sorted(unknown)}")
        live = self.registry.get_live(str(payload["dataset"]))
        inserts = payload.get("inserts")
        deletes = payload.get("deletes")
        if inserts is None and deletes is None:
            raise ValueError(
                "mutate body needs 'inserts' and/or 'deletes'"
            )
        repair = payload.get("repair")
        if repair is not None:
            if not isinstance(repair, dict):
                raise ValueError("'repair' must be an object")
            unknown = set(repair) - {"radius", "previous", "verify"}
            if unknown:
                raise ValueError(
                    f"'repair' has unknown fields {sorted(unknown)}"
                )
            if "radius" not in repair or "previous" not in repair:
                raise ValueError(
                    "'repair' needs 'radius' and 'previous' (the selection "
                    "to repair)"
                )
            radius = validate_radius(repair["radius"], name="repair.radius")
            previous = repair["previous"]
            if not isinstance(previous, (list, tuple)) or not all(
                isinstance(i, int) and not isinstance(i, bool) and i >= 0
                for i in previous
            ):
                raise ValueError(
                    "'repair.previous' must be a list of non-negative "
                    "global ids"
                )
            repair = {
                "radius": radius,
                "previous": [int(i) for i in previous],
                "verify": bool(repair.get("verify", False)),
            }
        return live, inserts, deletes, repair

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------
    def _engine_key(self, spec: EngineSpec) -> str:
        import json

        return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))

    def ensure_index(self, handle: DatasetHandle, spec: EngineSpec):
        """The serving index for (dataset, engine spec), built once.

        Resolution happens without a radius hint — one index serves all
        radii of a dataset (exactly like a :class:`~repro.api.
        DiscSession`); the per-radius artefact is the adjacency, which
        lives in the shared cache.
        """
        key = (handle.dataset_id, self._engine_key(spec))
        with self._lock:
            index = self._indexes.get(key)
            if index is not None:
                return index
            build_lock = self._index_locks.setdefault(key, threading.Lock())
        with build_lock:
            with self._lock:
                index = self._indexes.get(key)
                if index is not None:
                    return index
            dataset = handle.dataset
            entry, accelerate, options = spec.resolve(
                n=dataset.n, metric=dataset.metric
            )
            index = entry.create(dataset.points, dataset.metric, accelerate, options)
            if self.cache is not None:
                index.set_adjacency_cache(self._cache_view(handle))
            with self._lock:
                self._indexes[key] = index
            return index

    def _cache_view(self, handle: DatasetHandle):
        """The cache view an index for ``handle`` should attach to.

        Live datasets get a :class:`~repro.live.serving.LiveCacheView`
        so cache misses resolve through the incremental adjacency
        (cheap alive-mask snapshot) instead of the engine's full
        rebuild; immutable datasets keep the plain shared view.
        """
        if handle.spec.get("live"):
            from repro.live.serving import LiveCacheView

            live = self.registry.get_live(handle.spec["name"])
            return LiveCacheView(self.cache, handle, live)
        return self.cache.view(handle.dataset_id, handle.dataset.metric)

    def _drop_stale_live_indexes(self, name: str, keep_dataset_id: str) -> int:
        """Evict serving indexes of superseded versions of live ``name``.

        Old versions' handles are unreachable once the registry serves
        the new snapshot, so their indexes (keyed by the version-stamped
        ``dataset_id``) would only leak memory.
        """
        prefix = f"{name}@v"
        dropped = 0
        with self._lock:
            for key in list(self._indexes):
                dataset_id = key[0]
                if dataset_id.startswith(prefix) and dataset_id != keep_dataset_id:
                    del self._indexes[key]
                    self._index_locks.pop(key, None)
                    dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Execution (runs in worker threads)
    # ------------------------------------------------------------------
    def run_select(
        self,
        handle: DatasetHandle,
        request: SelectRequest,
        token: Optional[CancellationToken] = None,
    ) -> dict:
        """One selection end to end; returns the JSON-ready response.

        Runs inside the worker thread under ``token``'s cancellation
        scope, so the greedy loops and adjacency builders can abort
        cooperatively when the deadline passes.
        """
        self.count_computation()
        if token is None:
            token = CancellationToken()
        t0 = time.perf_counter()
        with cancellation_scope(token):
            token.checkpoint()  # expired while queued: free the slot now
            if self.faults is not None:
                self.faults.on_compute()
            index = self.ensure_index(handle, request.engine)
            self._annotate_features(handle, request)
            algorithm = METHODS[request.method]
            with obs_trace.phase("selection", method=request.method):
                sel0 = time.perf_counter()
                result = algorithm(
                    index, request.radius, **dict(request.method_options)
                )
            self._m_phase.observe(time.perf_counter() - sel0, phase="selection")
        degraded = token.degraded is not None
        if degraded:
            self.count_degraded()
        response = {
            "dataset": handle.dataset_id,
            "request": request.to_dict(),
            "result": result.to_dict(),
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "degraded": degraded,
        }
        self._stamp_live(handle, response, result)
        return response

    def _annotate_features(self, handle: DatasetHandle, request: SelectRequest) -> None:
        """Stamp the request feature vector on the trace root.

        These are the workload features the ROADMAP's adaptive-policy
        item needs next to the measured phase timings: the sink record
        carries them under ``features``.  No-op outside a trace.
        """
        if obs_trace.current_span() is None:
            return
        dataset = handle.dataset
        features = request.trace_features()
        features["dataset"] = handle.dataset_id
        features["n"] = int(dataset.n)
        features["metric"] = str(getattr(dataset.metric, "name", dataset.metric))
        if handle.spec.get("live"):
            features["live_version"] = handle.spec.get("version")
        obs_trace.annotate_root(features=features)

    @staticmethod
    def _stamp_live(handle: DatasetHandle, response: dict, result) -> None:
        """Version-stamp a live dataset's response.

        Adds ``version`` and ``selected_global`` (the selection mapped
        through the snapshot's local→global id map), so the client sees
        stable ids it can later delete or repair — consistent with the
        version the request actually computed on even if the dataset
        mutated mid-flight.  Immutable responses are untouched.
        """
        spec = handle.spec
        if not spec.get("live"):
            return
        response["version"] = spec.get("version")
        alive_ids = spec.get("alive_ids")
        if alive_ids is not None:
            response["selected_global"] = [
                int(alive_ids[i]) for i in result.selected
            ]

    def run_zoom(
        self,
        handle: DatasetHandle,
        request: SelectRequest,
        to_radius: float,
        zoom_options: dict,
        token: Optional[CancellationToken] = None,
        previous: Optional[dict] = None,
    ) -> dict:
        """Select at ``request.radius``, then adapt to ``to_radius``.

        With ``previous`` (a validated client-held solution from
        :meth:`validate_zoom`) the base selection is *not* recomputed:
        the client's selected set becomes the zoom's starting point —
        the session statefulness of the paper's Section 5.2 without the
        server holding per-client state.  Both results carry
        ``closest_black`` only when ``zoom_options["include"]`` names
        it; the zoom tracks the distances internally either way.
        """
        self.count_computation()
        if token is None:
            token = CancellationToken()
        t0 = time.perf_counter()
        with cancellation_scope(token):
            token.checkpoint()
            if self.faults is not None:
                self.faults.on_compute()
            index = self.ensure_index(handle, request.engine)
            self._annotate_features(handle, request)
            obs_trace.annotate_root(to_radius=float(to_radius))
            with obs_trace.phase("selection", method=request.method):
                sel0 = time.perf_counter()
                if previous is not None:
                    first = self._result_from_previous(request, previous)
                else:
                    algorithm = METHODS[request.method]
                    first = algorithm(
                        index, request.radius, **dict(request.method_options)
                    )
                if to_radius < request.radius:
                    direction = "in"
                    adapted = zoom_in(
                        index, first, to_radius,
                        greedy=zoom_options.get("greedy", True),
                    )
                else:
                    direction = "out"
                    adapted = zoom_out(
                        index, first, to_radius,
                        greedy_variant=zoom_options.get("variant", "a"),
                    )
            self._m_phase.observe(time.perf_counter() - sel0, phase="selection")
        degraded = token.degraded is not None
        if degraded:
            self.count_degraded()
        closest_black = "closest_black" in zoom_options.get("include", ())
        response = {
            "dataset": handle.dataset_id,
            "request": request.to_dict(),
            "to": float(to_radius),
            "direction": direction,
            "from_result": first.to_dict(closest_black=closest_black),
            "result": adapted.to_dict(closest_black=closest_black),
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "degraded": degraded,
        }
        if previous is not None:
            response["adapted_previous"] = True
        self._stamp_live(handle, response, adapted)
        return response

    @staticmethod
    def _result_from_previous(request: SelectRequest, previous: dict):
        """Rebuild a :class:`DiscResult` from a client-held solution.

        ``closest_black_exact`` is only honoured when the distances were
        actually supplied; otherwise zoom-in recomputes them from the
        selected set (:func:`~repro.core.zoom.recompute_closest_black`
        path inside ``zoom_in``).
        """
        import numpy as np

        closest = previous.get("closest_black")
        closest_arr = None if closest is None else np.asarray(closest, dtype=float)
        exact = bool(previous.get("closest_black_exact")) and closest_arr is not None
        return DiscResult(
            selected=list(previous["selected"]),
            radius=request.radius,
            algorithm="client-previous",
            closest_black=closest_arr,
            meta={"closest_black_exact": exact},
        )

    def run_mutate(
        self,
        live,
        inserts,
        deletes,
        repair: Optional[dict] = None,
        token: Optional[CancellationToken] = None,
    ) -> dict:
        """One mutation batch end to end: apply, migrate caches, repair.

        Everything runs under the live dataset's lock so concurrent
        mutations serialise and the cache migration + repair observe
        exactly the version this batch produced.  The adjacency work is
        incremental (appends touch only the affected grid cells; deletes
        are an alive-mask filter), and fresh-tier cache entries migrate
        to the new version's keys instead of being dropped — the next
        ``/select`` hits warm.
        """
        self.count_computation()
        if token is None:
            token = CancellationToken()
        t0 = time.perf_counter()
        with cancellation_scope(token):
            token.checkpoint()
            if self.faults is not None:
                self.faults.on_compute()
            with live.lock:
                old_id = live.dataset_id
                delta = live.apply(inserts, deletes)
                new_id = live.dataset_id

                def patcher(metric_name: str, bucket: float):
                    if metric_name != live.metric.name:
                        return None
                    # Lazy: install the recipe, not the compacted CSR.
                    # The mask pins the bucket to *this* version even
                    # if the dataset mutates again before the first
                    # read resolves it.
                    mask = live.alive_mask()

                    def resolve(bucket=bucket, mask=mask):
                        return live.adjacency_snapshot_for_mask(
                            bucket, mask
                        )

                    return LazyMigration(
                        resolve, live.adjacency_nbytes(bucket)
                    )

                migrated = 0
                if self.cache is not None:
                    with obs_trace.phase("cache-migrate"):
                        migrated = self.cache.migrate_dataset(
                            old_id, new_id, patcher
                        )
                self._drop_stale_live_indexes(live.name, new_id)
                repair_out = None
                if repair is not None:
                    with obs_trace.phase("repair"):
                        rep0 = time.perf_counter()
                        repair_out = self._repair_selection(live, repair, delta)
                    self._m_phase.observe(
                        time.perf_counter() - rep0, phase="repair"
                    )
        self.count_mutation()
        degraded = token.degraded is not None
        if degraded:
            self.count_degraded()
        response = {
            "dataset": live.name,
            "dataset_id": new_id,
            "version": delta["version"],
            "inserted": delta["inserted"],
            "deleted": delta["deleted"],
            "n_alive": delta["n_alive"],
            "n_total": delta["n_total"],
            "migrated_buckets": migrated,
            "elapsed_s": round(time.perf_counter() - t0, 6),
            "degraded": degraded,
        }
        if repair_out is not None:
            response["repair"] = repair_out
        return response

    @staticmethod
    def _repair_selection(live, repair: dict, delta: dict) -> dict:
        """Repair a client selection against the just-mutated version.

        Takes the O(delta) path: the batch the caller just applied is
        exactly the delta between the version ``previous`` was computed
        for and the current one, so the frontier walk never compacts
        the adjacency.  Runs inside the caller's cancellation scope, so
        the greedy re-cover loop honours the request deadline.
        """
        from repro.live.repair import repair_selection_delta

        adjacency = live.ensure_adjacency(repair["radius"])
        out = repair_selection_delta(
            adjacency,
            live.alive_mask(),
            repair["previous"],
            deleted=delta["deleted"],
            inserted=delta["inserted"],
        )
        if repair.get("verify"):
            from repro.core.verify import verify_disc

            handle = live.snapshot_handle()
            report = verify_disc(
                handle.dataset.points,
                handle.dataset.metric,
                out["local"],
                repair["radius"],
            )
            out["verified"] = bool(report.is_disc_diverse)
        out.pop("local", None)
        out["radius"] = float(repair["radius"])
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """The ``/stats`` payload (plain JSON-serialisable dict)."""
        with self._counter_lock:
            counters = {
                "computations": self.computations,
                "coalesced_requests": self.coalesced_requests,
                "degraded_responses": self.degraded_responses,
                "inflight": self.inflight,
                "mutations_applied": self.mutations_applied,
            }
        with self._lock:
            indexes = [
                {"dataset": dataset, "engine": engine_key}
                for dataset, engine_key in self._indexes
            ]
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "worker": self.identity,
            "workers": self.workers,
            "max_inflight": self.max_inflight,
            "default_timeout_ms": self.default_timeout_ms,
            "max_timeout_ms": self.max_timeout_ms,
            **counters,
            # Executor backlog: computations admitted but not yet
            # running (inflight counts queued + running; this isolates
            # the queued component the rollup was blind to).
            "queue_depth": self.executor._work_queue.qsize(),
            "indexes": indexes,
            "cache": None if self.cache is None else self.cache.cache_info(),
            "faults": None if self.faults is None else self.faults.counters(),
            "datasets": self.registry.describe(),
            "metrics": self.metrics.snapshot(),
        }

    def close(self) -> None:
        self.executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ServiceState(datasets={len(self.registry)}, "
            f"indexes={len(self._indexes)}, workers={self.workers}, "
            f"cache={'on' if self.cache is not None else 'off'})"
        )
