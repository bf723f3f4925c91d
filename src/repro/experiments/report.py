"""Aggregate the ``results/`` directory into one markdown report.

Every benchmark persists its rendered table/series as
``results/<experiment>.txt``; this module stitches them into a single
document (grouped by experiment family, in paper order) so a full
benchmark run can be archived or diffed as one artifact:

>>> from repro.experiments.report import write_report   # doctest: +SKIP
>>> write_report("results/REPORT.md")                   # doctest: +SKIP
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from repro.experiments.tables import results_dir

__all__ = ["collect_results", "render_report", "write_report"]

#: Display order and headings, matched by filename prefix.
_SECTIONS: List[Tuple[str, str]] = [
    ("table3", "Table 3 — solution sizes"),
    ("fig06", "Figure 6 — model comparison"),
    ("fig07", "Figure 7 — node accesses (± pruning)"),
    ("fig08", "Figure 8 — greedy variant costs"),
    ("fig09", "Figure 9 — cardinality & dimensionality"),
    ("fig10", "Figure 10 — fat-factor"),
    ("fig11", "Figure 11 — zoom-in sizes"),
    ("fig12", "Figure 12 — zoom-in node accesses"),
    ("fig13", "Figure 13 — zoom-in Jaccard"),
    ("fig14", "Figure 14 — zoom-out sizes"),
    ("fig15", "Figure 15 — zoom-out node accesses"),
    ("fig16", "Figure 16 — zoom-out Jaccard"),
    ("lemma7", "Lemma 7 — MaxMin quality bound"),
    ("misc", "Section 6 in-text claims"),
    ("ablation", "Ablations & Section 8 extensions"),
    (
        "BENCH",
        "Wall-clock engine trajectory (engines tagged `+blk` ran on the "
        "blocked implicit-dense adjacency of `repro.graph.blocked`; "
        "`stored nnz` vs logical nnz quantifies the memory cut)",
    ),
]


def collect_results(directory: Optional[str] = None) -> Dict[str, str]:
    """Read every ``*.txt`` under the results directory, keyed by stem."""
    directory = directory or results_dir()
    out: Dict[str, str] = {}
    if not os.path.isdir(directory):
        return out
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(directory, name)) as handle:
            out[name[: -len(".txt")]] = handle.read()
    return out


#: Hand-written architecture sections appended after the generated
#: blocks.  They live *here* (not only in the committed REPORT.md)
#: because ``write_report`` regenerates the whole file at the end of
#: every benchmark run — prose kept only in the output would be lost on
#: the next regeneration.
_EPILOGUE = """\
## Public API — the typed request pipeline (PR 4)

The public surface is a typed, serialisable request pipeline backed by
an engine capability registry:

* **`SelectRequest` / `EngineSpec`** (`repro.requests`) describe a
  diversification request — radius, method + method options, engine
  name + `accelerate` gate + engine options.  `validate()` runs once,
  up front (bad radii/methods/engines/options fail identically on empty
  and non-empty data), and both objects round-trip through JSON
  (`to_dict`/`from_dict`).  `DiscResult` has the matching pair on the
  response side (`coloring` stays process-local by design; selection
  ids are canonicalised to plain ints so the wire bytes are
  platform-independent).
* **`execute_request(data, request)`** is the one-shot service entry
  point; `disc_select` / `build_index` are thin shims over it.
* **Engine registry** (`repro.engines`): engines self-register with an
  `EngineCapabilities` descriptor (metric family, CSR/blocked support,
  cost fidelity).  `engine="auto"` is a policy over capabilities and
  workload shape: the M-tree (paper fidelity) up to n=10k, a
  CSR-capable engine beyond it — the grid seeded with the request
  radius when one is known, the KD-tree otherwise, brute force for
  non-coordinate metrics.  Options constrain the policy
  (`engine="auto", capacity=10` still lands on the M-tree).
* **`DiscSession`** is the interactive-mode façade: index once, then
  `select` / `select_many` / zoom / `compare_methods`.  Sessions
  install a radius-keyed LRU adjacency cache (`cache_radii` budget) so
  repeated radii — the zoom back-and-forth pattern of the paper's
  Section 3 — reuse the materialised CSR/blocked adjacency; pass
  `adjacency_cache=` to attach a shared cross-session cache instead
  (see Serving below).

The session's pre-pipeline alias, deprecated when the pipeline landed,
is removed.  `build_index` / `disc_select` keep their signatures
unchanged.  The API surface is pinned by `tests/test_api_surface.py`;
CI runs it with warnings-as-errors.

## Serving — the async multi-user layer (PR 5)

`repro serve` hosts the pipeline as an asyncio JSON-over-HTTP service
(`repro.service`, stdlib only) for the paper's interactive workload at
multi-user scale: many users zooming over shared datasets, radii
repeating constantly.

* **Endpoints** — `POST /select`, `POST /zoom`, `GET /datasets`,
  `GET /healthz`, `GET /stats`.  A select body is `{"dataset": name,
  "radius": r, "method": "greedy", "method_options": {...}, "engine":
  {"name": "grid", "options": {"cell_size": 0.05}}}` (request fields
  may also nest under `"request"`); the response carries the request
  echo plus a serialised `DiscResult` under `"result"`:
  `{"dataset": ..., "request": {...}, "result": {"selected": [...],
  "radius": ..., "algorithm": ..., "stats": {...}, "closest_black":
  ..., "meta": {...}}, "elapsed_s": ..., "coalesced": false,
  "degraded": false}`.
  A zoom body adds `"to": r2` (and optionally `"greedy"` / `"variant"`)
  and returns both the base and the adapted result, without their
  n-float `closest_black` arrays unless the body asks for them with
  `"include": ["closest_black"]`.  Errors are
  structured `{"error": {"code", "message"}}` bodies — see the
  failure-modes table in the fault-tolerance section below.
* **Shared dataset registry** — datasets load once per process and are
  handed out as immutable handles (`DatasetRegistry`); `/select` on an
  unknown name is a 404, never an implicit load of arbitrary data.
* **Cross-session cache** — `SharedCacheManager` is the process-wide
  evolution of the session LRU, keyed `(dataset_id, metric,
  radius_bucket)` (radii quantised to 12 significant digits; the key is
  deliberately engine-agnostic because `N_r` is a property of the data,
  and engine parity is pinned by tests).  Budgets: entry count + bytes
  (LRU), optional TTL.  Concurrent misses of one key *single-flight*:
  the first thread builds, the rest block briefly and reuse
  (`builds == unique radii` under any concurrency).  Sessions attach
  via `DiscSession(..., adjacency_cache=manager.view(dataset_id,
  metric))`.
* **Request coalescing** — identical concurrent requests (same
  canonical dataset + validated request JSON) share one computation;
  followers are counted in `/stats` `coalesced_requests` and marked
  `"coalesced": true`.  Selections run on a bounded thread pool
  (`--workers`), with admission control returning 503 past
  `--max-inflight`.
* **Parity** — every served selection is byte-identical to a direct
  `disc_select` call (pinned by `tests/test_service.py`, and checked
  for every 200 of the chaos and kill -9 zoom traces).

Load evidence: the `zoom-warm` and `zoom-cold` workloads of
`perfbench/` (the benchmark of record) replay zoom traffic over real
HTTP; their committed records are in `results/perfbench/`.  CI smoke:
`tests/test_service.py` starts `repro serve` as a subprocess, replays
a 2-client trace, and asserts 200s + cache hits + clean SIGTERM
shutdown.

## Fault tolerance — deadlines, degraded modes, chaos (PR 6)

The serving layer degrades predictably instead of hanging or lying.

* **Deadline budgets** — a request may carry `timeout_ms`; the server
  resolves it against `--default-timeout-ms` / `--max-timeout-ms` into
  a `CancellationToken` (`repro.cancellation`) installed ambiently in
  the worker thread.  The greedy pick loops, the
  Basic-DisC scan, and the chunked CSR/blocked adjacency builders
  checkpoint every 256 iterations, so a timed-out request aborts
  within one checkpoint interval and *frees its executor slot*
  (`/stats` `inflight` returns to 0 — asserted by the chaos suite).
  Expiry answers 408 when the client's own budget was the binding
  constraint, 504 when the server default or cap was.
* **Failure modes** — every non-200 body is `{"error": {"code":
  ..., "message": ...}}`; unexpected exceptions answer 500 carrying
  only the exception type name (raw `str(exc)` never reaches the
  wire):

  | status | code | meaning | retryable |
  |--------|------|---------|-----------|
  | 400 | `bad_request` | invalid body, radius, engine, `timeout_ms`... | no |
  | 404 | `not_found` | unknown dataset or path | no |
  | 405 | `method_not_allowed` | wrong HTTP verb | no |
  | 408 | `deadline_exceeded` | the client's `timeout_ms` expired | yes, with a larger budget |
  | 413 | `payload_too_large` | body over the 16 MiB cap | no |
  | 500 | `internal` | unexpected server error | yes |
  | 503 | `build_failed` | the adjacency build raised (propagated to all coalesced waiters) | yes |
  | 503 | `circuit_open` | repeated build failures; no stale fallback on hand | yes, after backoff |
  | 503 | `injected_fault` | a configured chaos fault fired | yes |
  | 503 | `overloaded` | admission control past `--max-inflight` | yes |
  | 503 | `no_workers` | (`--workers N`) every replica of the shard is restarting or quarantined | yes |
  | 503 | `replay_exhausted` | (`--workers N`) replayed across worker deaths past the cap | yes |
  | 504 | `server_deadline_exceeded` | the server default/cap expired | yes |

* **Failure containment** — a failing build propagates to every
  coalesced waiter *promptly* (never by riding out the build-wait
  timeout); repeated failures trip a per-`(dataset, metric,
  radius_bucket)` circuit breaker (closed → open → half-open, with
  exactly one probe per half-open window).  TTL-expired cache entries
  demote to a **stale tier** and are served — response marked
  `"degraded": true`, counted in `/stats` `degraded_responses` — when
  the breaker is open or the remaining deadline cannot fit a rebuild.
  Datasets are immutable, so a stale adjacency still yields
  byte-identical selections; "degraded" is about freshness accounting,
  not accuracy.
* **Client retries** — `ServiceClient(retry=RetryPolicy(...))` retries
  connection failures and 503s with jittered exponential backoff under
  a total sleep budget.  Every retried compute request reuses one
  idempotency key: a retry whose original is still running joins it
  via request-level single-flight; one whose original completed (the
  response was lost on the wire) replays the stored response.
  `wait_until_healthy` uses the same capped backoff and surfaces the
  last underlying error on exhaustion.
* **Graceful drain** — SIGTERM stops accepting new connections,
  in-flight requests complete within `--drain-timeout`, exit 0
  (pinned by a subprocess test with a request mid-flight).
* **Fault injection + chaos** — `repro serve --faults '{"seed": 1,
  "build_failure_rate": 0.2}'` enables deterministic, seeded injection
  points (build raises, slow builds, cache corruption, connection
  resets, worker stalls) baked into the production code paths — no
  monkeypatching, every point draws from its own seeded stream and is
  counted under `/stats` → `faults`.  The chaos suite
  (`tests/test_resilience.py`, CI "Resilience lane") replays the
  4-client zoom trace under fault mixes and asserts zero hung
  requests, the in-flight gauge draining to 0, and byte-parity of
  every success with the fault-free run.

The chaos suite's deadline case replays the trace under a 150 ms
budget with every build slowed past it, and asserts that every 408
arrives within `timeout_ms` + one checkpoint allowance (250 ms).

## Supervised serving — multi-process pool, shared memory (PR 7)

PR 6 made one process fault-tolerant; `repro serve --workers N` makes
the *service* survive the death of its parts (`repro.service.
supervisor`).

* **Failover routing** — a front process owns the public port and
  routes `/select`/`/zoom` to the least-loaded healthy replica of the
  dataset's shard (`--replication k` places each dataset on k
  workers; the default replicates everywhere).  Every forwarded
  compute request is stamped with an idempotency key, so when a
  worker dies mid-request — including `kill -9` — the front replays
  it to a healthy replica and the client sees a slow response, never
  an error (replays are capped; exhaustion answers 503
  `replay_exhausted`, an empty shard 503 `no_workers`).
* **Supervision** — a heartbeat loop (default 250 ms) detects worker
  exits and dark workers (repeated failed `/healthz` probes escalate
  to SIGKILL + restart).  Crashed workers restart with exponential
  backoff; K deaths inside a sliding window quarantine the worker and
  its shard fails over to the survivors.  `GET /stats` at the front
  returns a cluster rollup: per-worker stats plus `restarts`,
  `crashes`, `replays`, `stall_kills`, `quarantined`.
* **Shared-memory adjacency** — CSR/blocked adjacency arrays and
  builtin dataset coordinates live in `multiprocessing.shared_memory`
  segments (`repro.service.shm`), so one build serves every worker
  zero-copy and `builds == unique radii` holds *cluster-wide*: the
  kernel arbitrates claim ownership (`SharedMemory(create=True)` is
  exclusive), workers attach read-only NumPy views, and a builder
  that dies mid-build is detected by a pid liveness probe and taken
  over.  Segments are CRC32-stamped at publish and verified at attach
  — a torn segment is rebuilt, never served.  Segment names carry a
  leased run id; an orphan sweep at startup and shutdown unlinks
  every run whose lease owner is dead, so `kill -9` cannot leak
  `/dev/shm` (asserted after every chaos trace).
* **Chaos evidence** — the `chaos` pytest lane (CI, pushes to main)
  SIGKILLs a worker mid-zoom-trace and asserts the acceptance
  scenario: zero lost or hung requests, responses byte-identical to
  the fault-free run, `inflight` drained to 0, and an empty post-stop
  segment listing.  The PR 6 fault mixes rerun under supervision
  unchanged.

`tests/test_supervisor.py` asserts `builds == unique radii`
cluster-wide over the zoom pattern's three radii, and perfbench's
`zoom-warm` workload times a 2-worker pool (`results/perfbench/`).

## Static analysis — mechanically enforced invariants (PR 8)

PRs 1-7 *documented* the concurrency contracts (counters under their
lock, checkpoints in hot loops, held-handle shm views, int32 ids,
nothing blocking on the event loop, cancellations never swallowed);
`repro lint` (`repro.analysis`, stdlib-only AST rules) now *enforces*
them, so the next regression is a red CI lane instead of a heisenbug.

* **Ground truth in the code** — classes sharing mutable state declare
  a `_GUARDED_BY` map (attribute -> lock expression, or the
  `event-loop` sentinel for asyncio-owned state); the
  `guarded-attribute` rule flags any mutation outside a `with` on that
  lock, outside `async def` for event-loop state, and outside helpers
  whose docstring states the caller-holds-lock contract.
* **Suppression discipline** — deliberate exceptions are inline
  (`# repro-lint: disable=RULE -- why`); the reason is mandatory and a
  reasonless or unknown-rule suppression is itself a finding, so the
  shipped tree lints clean *including* its own escape hatches.
* **Runtime lock-order audit** — `REPRO_LOCK_AUDIT=1` swaps the
  `threading` lock factories for recording proxies before any repro
  module loads; the test run accumulates a site-granularity lock
  acquisition graph and the session fails on an ordering cycle.  Over
  the serving suites the graph is acyclic (34 lock sites, 7 ordered
  edges at last measure) — the ABBA deadlock shape is excluded without
  ever scheduling the deadlock.
* **True positives fixed** — the sweep over `src/` caught two real
  cancellation bugs in the serving layer: the shared cache's publish
  path caught `OperationCancelled` in a broad `except` (a timed-out
  request silently kept going), and a deadline expiring inside shm
  decode destroyed an *intact* cluster-wide segment via the
  corrupt-payload takeover path.  Both are fixed with regression tests
  (`tests/test_analysis.py`).
* **CI `lint` lane** — `repro lint src/` (exit 0 required), a
  seeded-violation self-test proving each rule fires, and the
  lock-order audit over `tests/test_service.py` +
  `tests/test_supervisor.py`; nothing cached.

## Live datasets — mutable serving, O(delta) per batch (PR 9)

The paper's zoom knob assumed a frozen point set; `repro.live` removes
that assumption without touching the immutable fast paths (responses
for non-live datasets stay byte-identical).

* **Versioned overlay** — `MutableDataset`: ids are arrival positions
  forever, deletes are tombstones, every batch bumps the version and
  restamps the identity (`name@v<k>`) that keys caches, shm segments
  and single-flight — stale state is unreachable by construction, and
  `/select`/`/zoom` responses carry `version` + `selected_global`.
* **Incremental adjacency** — `IncrementalNeighborhood` pins the
  initial grid plan and feeds each insert batch through the
  cell-offset classification, so new edges cost the touched cells'
  neighborhoods, not n; compacted snapshots are byte-identical to a
  fresh build (parity-tested under interleaved churn).
* **The hot path never compacts** — cache buckets migrate *lazily*
  (the recipe, pinned to the batch's alive mask, materialises on first
  read; counted as `migrations`, never `builds`), and `/mutate` repair
  takes the O(delta) frontier walk: survivors are kept verbatim,
  greedy re-cover runs only over neighborhoods orphaned by deleted
  blacks plus out-of-coverage inserts — proven pick-for-pick identical
  to the full compacted-snapshot repair.
* **Measured contract** — `tests/test_live.py` runs 10 batches ×
  10% churn (clustered n=2k): repaired selections are independently
  verified r-DisC diverse every batch, and their Jaccard stability
  beats recompute-from-scratch (≈0.95 vs ≈0.75).  perfbench's `churn`
  workload times `/mutate` with delta repair over HTTP.
* **Crash-consistency** — under `--workers N` the front serialises
  mutations per dataset, applies them on every replica, and keeps the
  authoritative log; the chaos lane `kill -9`s a worker mid-stream and
  asserts zero lost mutations, full-log replay before the restarted
  replica takes traffic, and convergence of every replica on the same
  version.

## Observability — tracing, metrics, phase profiling (PR 10)

PRs 5-9 grew a serving stack whose interesting behavior (coalescing,
stale tiers, replays, lazy migration) was visible only as aggregate
counters; `repro.obs` (stdlib-only, imported *by* the service, never
the reverse) makes each request tell its own story.

* **Span-tree tracing** — the handler opens an ambient
  `request_scope` (contextvars, the `repro.cancellation` pattern);
  library code opens `phase(...)` children with zero plumbing —
  `validate`, `selection`, `cache-lookup`, `adjacency-build`,
  `shm-attach`, `repair` — and pays one `ContextVar.get` when tracing
  is off.  The executor hop re-enters the loop's span via
  `attach`.  Every response carries `X-Repro-Trace:
  <trace_id>:<span_id>` plus a `Server-Timing` header
  (total/build/select, parsed by `ServiceClient.last_server_timing`);
  the supervised front forwards the worker's and appends `front`.
* **Cross-process propagation** — the supervisor front mints the
  trace id and stamps the header on the proxied worker request,
  re-stamped identically on every replay attempt, and the worker's
  root span adopts it: one id correlates the front record, the worker
  that died mid-request, and the replica that answered (asserted by
  the chaos lane's `trace_correlation` and by
  `tests/test_obs.py` under deterministic crash faults).
* **Metrics registry** — `repro.obs.metrics`: counters, gauges,
  fixed-bucket histograms behind one lock (snapshots are consistent
  cuts); names enforced to `repro_[a-z0-9_]+` at registration *and*
  by lint.  `GET /metrics` serves the Prometheus text format
  (`text/plain; version=0.0.4`); `/stats` folds in the same snapshot
  plus executor `queue_depth`; the supervised front merges worker
  snapshots (counters/gauges sum, histograms sum bucket-wise) into
  one cluster exposition and a rollup that now carries
  migration/degraded/queue-depth totals.
* **Trace sink** — `--trace-log PATH` appends one JSONL record per
  completed request (`repro-trace-v1`: request feature vector +
  per-phase durations + status), size-capped with `PATH.1` rotation;
  workers write `PATH.w<k>`.  `repro trace summarize` rolls logs up
  into per-phase p50/p90/max and the slowest traces; `repro trace
  validate` is the CI schema gate over the smoke lane's emitted log.
* **span-discipline lint** — the `service`-scoped rule fails CI when
  an HTTP handler reads and answers requests without opening a
  request span, and when any literal metric name (any scope) violates
  the registry regex.
* **Measured overhead** — `benchmarks/test_tracing_overhead.py`
  replays the 4-client zoom trace with tracing+sink off and on,
  mirror-ordered, and gates the minimum-p50 delta at <= 5% (the
  per-request cost is a few span objects and one buffered JSONL
  append, below run-to-run noise).
"""


def render_report(results: Optional[Dict[str, str]] = None) -> str:
    """Render all collected results as one markdown document, ending
    with the hand-maintained architecture epilogue."""
    if results is None:
        results = collect_results()
    lines = [
        "# DisC reproduction — benchmark report",
        "",
        "Generated from `results/*.txt` (one block per benchmark output).",
        "",
    ]
    remaining = dict(results)
    for prefix, heading in _SECTIONS:
        matching = [stem for stem in sorted(remaining) if stem.startswith(prefix)]
        if not matching:
            continue
        lines.append(f"## {heading}")
        lines.append("")
        for stem in matching:
            lines.append("```")
            lines.append(remaining.pop(stem).rstrip("\n"))
            lines.append("```")
            lines.append("")
    if remaining:
        lines.append("## Other outputs")
        lines.append("")
        for stem in sorted(remaining):
            lines.append("```")
            lines.append(remaining[stem].rstrip("\n"))
            lines.append("```")
            lines.append("")
    lines.append(_EPILOGUE)
    return "\n".join(lines)


def write_report(path: Optional[str] = None) -> str:
    """Write the rendered report; returns the path used."""
    if path is None:
        path = os.path.join(results_dir(), "REPORT.md")
    text = render_report()
    with open(path, "w") as handle:
        handle.write(text)
    return path
