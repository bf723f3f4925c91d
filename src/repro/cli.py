"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library, dataset and algorithm inventory.
``select``
    Diversify a built-in dataset at a radius; optionally render an
    ASCII map and dump the selected ids.
``zoom``
    Select at one radius, then zoom in/out to another and report how
    much of the solution survived.
``compare``
    The Figure 6 model comparison table on a dataset/radius.
``table3``
    Regenerate one sub-table of the paper's Table 3.
``bench``
    Wall-clock benchmark of index build + Greedy-DisC selection across
    dataset families, cardinalities and engines; emits
    ``results/BENCH_perf.json``.  ``--quick`` restricts to n=2000 for a
    seconds-scale smoke run.  Serving latency is measured by
    ``perfbench/`` (the benchmark of record), not here.
``serve``
    The asyncio JSON-over-HTTP serving layer (:mod:`repro.service`):
    shared dataset registry, process-wide adjacency cache, request
    coalescing.  ``--port 0`` binds an ephemeral port and prints it;
    SIGINT/SIGTERM shut down cleanly (exit 0).

Performance & engines
---------------------
The simple engines (``brute``, ``grid``, ``kdtree``) auto-enable the
CSR neighborhood engine (see :mod:`repro.graph.csr`): the fixed-radius
adjacency is materialised once as int32 CSR arrays and the heuristics
run as vectorised array ops, ~10-100x faster than the per-query path
at paper scale.  On clustered workloads the grid-backed builds upgrade
further to the blocked adjacency (:mod:`repro.graph.blocked`): provably
dense cell pairs stay implicit, cutting adjacency memory and build time
by the dense fraction with byte-identical selections.  Pass
``accelerate=False`` through ``engine_options`` (API) to force the
legacy per-query path; the M-tree never uses the CSR engine so its
node-access accounting matches the paper.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro import __version__
from repro.api import DiscSession
from repro.baselines import jaccard_distance
from repro.datasets import (
    cameras_dataset,
    cities_dataset,
    clustered_dataset,
    uniform_dataset,
)
from repro.experiments import (
    ALGORITHMS,
    TABLE3_ALGORITHMS,
    ExperimentDataset,
    experiment_suite,
    format_table,
    model_comparison,
    sweep,
)
from repro.experiments.plotting import ascii_scatter

__all__ = ["main", "build_parser"]

_DATASETS = {
    "uniform": lambda n, seed: uniform_dataset(n=n or 2500, seed=seed),
    "clustered": lambda n, seed: clustered_dataset(n=n or 2500, seed=seed),
    "cities": lambda n, seed: cities_dataset(n=n or 2000, seed=seed),
    "cameras": lambda n, seed: cameras_dataset(n=n or 579, seed=seed),
}


def _load_dataset(name: str, n: Optional[int], seed: int):
    try:
        return _DATASETS[name](n, seed)
    except KeyError:
        raise SystemExit(
            f"unknown dataset {name!r}; choose from {sorted(_DATASETS)}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DisC diversity (Drosou & Pitoura, VLDB 2013) reproduction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library inventory")

    def add_common(p):
        p.add_argument("--dataset", default="clustered", choices=sorted(_DATASETS))
        p.add_argument("--n", type=int, default=None, help="dataset cardinality")
        p.add_argument("--seed", type=int, default=42)

    def add_engine(p):
        from repro.engines import registry

        p.add_argument(
            "--engine",
            default="auto",
            choices=["auto"] + registry.names(),
            help="neighbor-index engine (auto = registry capability policy)",
        )

    p_select = sub.add_parser("select", help="compute an r-DisC diverse subset")
    add_common(p_select)
    add_engine(p_select)
    p_select.add_argument("--radius", type=float, required=True)
    p_select.add_argument(
        "--method", default="greedy", choices=["basic", "greedy", "greedy-c", "fast-c"]
    )
    p_select.add_argument("--plot", action="store_true", help="ASCII map (2-d data)")
    p_select.add_argument("--json", action="store_true", help="machine-readable output")

    p_zoom = sub.add_parser("zoom", help="select then zoom to another radius")
    add_common(p_zoom)
    add_engine(p_zoom)
    p_zoom.add_argument("--radius", type=float, required=True, help="initial radius")
    p_zoom.add_argument("--to", type=float, required=True, help="target radius")

    p_compare = sub.add_parser("compare", help="Figure 6 model comparison")
    add_common(p_compare)
    p_compare.add_argument("--radius", type=float, required=True)

    p_table3 = sub.add_parser("table3", help="regenerate a Table 3 sub-table")
    p_table3.add_argument(
        "--dataset",
        default="Uniform",
        choices=["Uniform", "Clustered", "Cities", "Cameras"],
    )
    p_table3.add_argument(
        "--engine",
        default="mtree",
        choices=["mtree", "csr"],
        help="mtree = the paper's instrument; csr = fast solution-size "
        "path (greedy sizes identical, no node accesses)",
    )

    p_bench = sub.add_parser(
        "bench", help="wall-clock engine benchmark (emits BENCH_perf.json)"
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="n=2000 only (seconds instead of minutes)",
    )
    p_bench.add_argument(
        "--workload", action="append", choices=["uniform", "clustered", "cities"],
        help="restrict workload families (repeatable; default all)",
    )
    p_bench.add_argument(
        "--out", default=None, help="JSON output path (default results/BENCH_perf.json)"
    )

    p_serve = sub.add_parser(
        "serve", help="asyncio JSON-over-HTTP serving layer (repro.service)"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8722,
        help="TCP port (0 = ephemeral; the bound port is printed)",
    )
    p_serve.add_argument(
        "--datasets", default="uniform,clustered,cities,cameras",
        help="comma-separated built-in datasets to register (loaded "
        "lazily on first request)",
    )
    p_serve.add_argument(
        "--n", type=int, default=None,
        help="cardinality for the synthetic datasets (default per dataset)",
    )
    p_serve.add_argument("--seed", type=int, default=42)
    add_engine(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = classic single-process server; "
        ">1 starts a supervised crash-resilient pool with failover "
        "routing and shared-memory adjacency)",
    )
    p_serve.add_argument(
        "--threads", type=int, default=4,
        help="selection thread-pool size per worker process (the "
        "compute admission bound)",
    )
    p_serve.add_argument(
        "--replication", type=int, default=None,
        help="with --workers N>1: replicas per dataset (default: every "
        "worker serves every dataset)",
    )
    p_serve.add_argument(
        "--no-shm", action="store_true",
        help="with --workers N>1: disable the shared-memory adjacency "
        "segments (each worker builds and holds its own copies)",
    )
    p_serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="queued+running computation cap before 503 (0 = unbounded)",
    )
    p_serve.add_argument(
        "--cache-entries", type=int, default=64,
        help="shared adjacency cache entry budget",
    )
    p_serve.add_argument(
        "--cache-mb", type=float, default=None,
        help="shared adjacency cache byte budget in MiB (default unbounded)",
    )
    p_serve.add_argument(
        "--ttl", type=float, default=None,
        help="seconds a cached adjacency stays valid (default forever)",
    )
    p_serve.add_argument(
        "--default-timeout-ms", type=float, default=None,
        help="deadline applied to requests without their own timeout_ms "
        "(default: unbounded)",
    )
    p_serve.add_argument(
        "--max-timeout-ms", type=float, default=None,
        help="server cap on client timeout_ms budgets (expiry of a "
        "capped budget answers 504, not 408)",
    )
    p_serve.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds to let in-flight requests finish on SIGTERM/SIGINT "
        "before dropping connections",
    )
    p_serve.add_argument(
        "--live", action="store_true",
        help="serve the datasets as *mutable* live datasets: POST "
        "/mutate accepts insert/delete batches, adjacency is maintained "
        "incrementally, and selections can be repaired instead of "
        "recomputed",
    )
    p_serve.add_argument(
        "--faults", default=None, metavar="JSON",
        help="fault-injection config as JSON (see repro.service.faults."
        "FaultConfig), e.g. '{\"seed\": 7, \"build_failure_rate\": 0.2}'",
    )
    p_serve.add_argument(
        "--trace-log", default=None, metavar="PATH",
        help="write one JSONL trace record per completed request "
        "(size-capped rotation to PATH.1; with --workers N>1 each "
        "worker writes PATH.w<k> and the front writes PATH)",
    )

    p_trace = sub.add_parser(
        "trace",
        help="inspect request-trace JSONL logs written via --trace-log",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize", help="slowest-span rollup across one or more logs"
    )
    p_trace_sum.add_argument("paths", nargs="+", metavar="PATH")
    p_trace_sum.add_argument(
        "--top", type=int, default=10,
        help="how many slowest traces to list (default 10)",
    )
    p_trace_sum.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_trace_val = trace_sub.add_parser(
        "validate",
        help="schema-validate every record; exits nonzero on problems",
    )
    p_trace_val.add_argument("paths", nargs="+", metavar="PATH")

    p_worker = sub.add_parser(
        "worker",
        help="supervised worker process (internal; spawned by "
        "`repro serve --workers N`)",
    )
    p_worker.add_argument(
        "--config", required=True, metavar="JSON",
        help="worker config JSON emitted by the supervisor",
    )

    p_lint = sub.add_parser(
        "lint",
        help="repo-aware static analysis (concurrency, cancellation, "
        "dtype discipline); exits nonzero on findings",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument(
        "--rule", action="append", dest="rules", metavar="NAME",
        help="run only this rule (repeatable; see --list-rules)",
    )
    p_lint.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt",
        help="output format (default: human)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def _cmd_info(_args) -> int:
    from repro.engines import registry

    print(f"repro {__version__} — DisC diversity reproduction (VLDB 2013)")
    print("\ndatasets: " + ", ".join(sorted(_DATASETS)))
    print("heuristics: " + ", ".join(sorted(ALGORITHMS)))
    print("engines (auto = capability policy):")
    for entry in registry.entries():
        print(f"  {entry.name:<8} {entry.capabilities.description}")
    print("         (CSR-capable engines auto-enable the CSR neighborhood engine;")
    print("          `python -m repro bench --quick` times them)")
    print("\nsee DESIGN.md for the experiment index and EXPERIMENTS.md for")
    print("paper-vs-measured results; `pytest benchmarks/ --benchmark-only`")
    print("regenerates every table and figure.")
    return 0


def _cmd_select(args) -> int:
    from repro.requests import SelectRequest

    data = _load_dataset(args.dataset, args.n, args.seed)
    session = DiscSession(data, engine=args.engine)
    request = SelectRequest(radius=args.radius, method=args.method)
    result = session.execute(request)
    report = session.verify()
    if args.json:
        print(json.dumps({
            "dataset": data.name,
            "n": data.n,
            "radius": args.radius,
            "method": args.method,
            "engine": session.engine,
            "request": request.validate().to_dict(),
            "size": result.size,
            "node_accesses": result.node_accesses,
            "selected": result.selected,
            "covering": report.is_covering,
            "independent": report.is_independent,
        }))
        return 0
    print(f"{data.name} (n={data.n}), r={args.radius}: "
          f"{result.size} diverse objects via {result.algorithm}")
    print(f"node accesses: {result.node_accesses}  |  {report}")
    if args.plot:
        if data.dim != 2:
            print("(--plot requires 2-d data)", file=sys.stderr)
        else:
            print(ascii_scatter(data.points, result.selected))
    return 0


def _cmd_zoom(args) -> int:
    data = _load_dataset(args.dataset, args.n, args.seed)
    session = DiscSession(data, engine=args.engine)
    first = session.select(args.radius)
    if args.to < args.radius:
        second = session.zoom_in(args.to)
        direction = "in"
    elif args.to > args.radius:
        second = session.zoom_out(args.to)
        direction = "out"
    else:
        raise SystemExit("--to must differ from --radius")
    shared = len(set(first.selected) & set(second.selected))
    print(f"r={args.radius}: {first.size} objects  ->  zoom-{direction} to "
          f"r={args.to}: {second.size} objects")
    print(f"kept from previous view: {shared}  |  Jaccard distance: "
          f"{jaccard_distance(first.selected, second.selected):.3f}")
    print(f"zoom cost: {second.node_accesses} node accesses "
          f"(initial solution: {first.node_accesses})")
    print(session.verify())
    return 0


def _cmd_compare(args) -> int:
    data = _load_dataset(args.dataset, args.n, args.seed)
    table = model_comparison(data, args.radius)
    rows = [
        [name, row["size"], row["fmin"], row["fsum"], row["coverage"],
         row["representation_error"]]
        for name, row in table.items()
    ]
    print(format_table(
        f"Model comparison — {data.name} (r={args.radius})",
        ["method", "k", "fMin", "fSum", "coverage", "repr.err"],
        rows,
        float_fmt="{:.3f}",
    ))
    return 0


def _cmd_table3(args) -> int:
    exp = experiment_suite()[args.dataset]
    records = sweep(exp, TABLE3_ALGORITHMS, engine=args.engine)
    rows = [
        [name] + [rec.size for rec in records[name]] for name in TABLE3_ALGORITHMS
    ]
    suffix = " [csr engine]" if args.engine == "csr" else ""
    print(format_table(
        f"Table 3: solution size — {exp.name} (n={exp.dataset.n}){suffix}",
        ["algorithm"] + [f"r={r:g}" for r in exp.radii],
        rows,
    ))
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments import (
        render_bench_table,
        run_wallclock_bench,
        write_bench_json,
    )

    payload = run_wallclock_bench(workloads=args.workload, quick=args.quick)
    print(render_bench_table(payload))
    out = args.out
    if out is None and (args.quick or args.workload):
        # Partial runs must not clobber the committed full baseline.
        from repro.experiments import results_dir

        out = os.path.join(results_dir(), "BENCH_perf_quick.json")
    path = write_bench_json(payload, out)
    print(f"[saved to {path}]")
    return 0


def _cmd_serve(args) -> int:
    from repro.service import FaultConfig
    from repro.service.supervisor import start_supervised

    names = [name.strip() for name in args.datasets.split(",") if name.strip()]
    if not names:
        raise SystemExit("--datasets must name at least one dataset")
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    faults = None
    if args.faults:
        try:
            faults = FaultConfig.from_dict(json.loads(args.faults)).to_dict()
        except (ValueError, TypeError) as exc:
            raise SystemExit(f"--faults: {exc}") from None
    # One process or N workers: every server is built from these.
    options = dict(
        host=args.host,
        n=args.n,
        seed=args.seed,
        engine=args.engine,
        threads=args.threads,
        max_inflight=args.max_inflight or None,
        cache_entries=args.cache_entries,
        cache_mb=args.cache_mb,
        ttl_s=args.ttl,
        default_timeout_ms=args.default_timeout_ms,
        max_timeout_ms=args.max_timeout_ms,
        faults=faults,
        live=args.live,
        drain_s=args.drain_timeout,
    )
    store = None
    try:
        if args.workers > 1:
            hosted = start_supervised(
                names,
                args.workers,
                port=args.port,
                use_shm=not args.no_shm,
                replication=args.replication,
                trace_log=args.trace_log,
                **options,
            )
            detail = (
                f"workers={args.workers}x{args.threads} threads; supervised; "
                f"shm={'off' if args.no_shm else 'on'}"
            )
        else:
            config = dict(options, datasets=names, trace_log=args.trace_log)
            hosted, store = _host_service(config, args.port)
            detail = f"threads={args.threads}"
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    ready = (
        f"[serve] listening on http://{args.host}:{hosted.port} "
        f"(datasets: {', '.join(names)}; engine={args.engine}; {detail})"
    )
    return _serve_until_signal(
        hosted, store, args.drain_timeout, ready, "[serve] shutting down"
    )


def _host_service(config: dict, port: int):
    """One :class:`~repro.service.server.DiscServer` on a loop thread,
    from one server config; returns ``(RunningService, shm store or None)``.

    The config is a :func:`~repro.service.supervisor.build_worker_configs`
    dict (``repro worker --config``) or the same keys from single-process
    ``repro serve``.  A config with a ``worker_id`` is a supervised
    worker: it names itself in ``/stats`` and arms process-level faults.
    """
    from repro.service import (
        DatasetRegistry,
        DiscServer,
        FaultConfig,
        FaultInjector,
        RunningService,
        ServiceState,
        SharedCacheManager,
    )
    from repro.service import shm as shm_mod
    from repro.service.registry import BUILTIN_DATASETS
    from repro.service.supervisor import shared_dataset_loader

    names = list(config.get("datasets") or [])
    if not names:
        raise ValueError("config names no datasets")
    worker_id = config.get("worker_id")
    seed = config.get("seed")
    seed = 42 if seed is None else int(seed)
    n = config.get("n")
    store = None
    if config.get("run_id") and shm_mod.shm_available():
        store = shm_mod.SharedSegmentStore(config["run_id"])
    registry = DatasetRegistry()
    for name in names:
        if store is not None and name in BUILTIN_DATASETS:
            registry.register_spec(
                name,
                shared_dataset_loader(store, name, n, seed),
                family=name,
                seed=seed,
                shared_points=True,
            )
        else:
            registry.register_builtin(name, n=n, seed=seed)
        if config.get("live"):
            # Mutable serving, loaded now: version 0 must exist before
            # the supervisor replays any mutation log at this worker.
            registry.promote_live(name)
    faults = None
    if config.get("faults"):
        faults = FaultInjector(
            FaultConfig.from_dict(config["faults"]),
            process_faults=worker_id is not None,
        )
    cache_mb = config.get("cache_mb")
    cache = SharedCacheManager(
        max_entries=int(config.get("cache_entries", 64)),
        max_bytes=None if cache_mb is None else int(cache_mb * 2**20),
        ttl_s=config.get("ttl_s"),
        faults=faults,
        backing=None if store is None else shm_mod.ShmCacheBacking(store),
    )
    state = ServiceState(
        registry,
        cache=cache,
        engine=config.get("engine") or "auto",
        engine_options=config.get("engine_options") or None,
        workers=int(config.get("threads", 4)),
        max_inflight=config.get("max_inflight"),
        default_timeout_ms=config.get("default_timeout_ms"),
        max_timeout_ms=config.get("max_timeout_ms"),
        faults=faults,
        identity=(
            None if worker_id is None
            else {"worker_id": int(worker_id), "pid": os.getpid()}
        ),
    )
    server = DiscServer(
        state,
        host=config.get("host") or "127.0.0.1",
        port=port,
        trace_log=config.get("trace_log"),
    )
    return RunningService(state, server), store


def _serve_until_signal(hosted, store, drain_s, ready: str, stopping=None) -> int:
    """The foreground of every server: print ``ready``, block until
    SIGINT/SIGTERM, then stop ``hosted`` (draining up to ``drain_s``)
    and detach ``store``."""
    import signal
    import threading

    print(ready, flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    if stopping:
        print(stopping, flush=True)
    try:
        hosted.stop(drain_s)
    finally:
        if store is not None:
            # Detach only — the segments belong to the supervisor's
            # run lease and outlive any single worker.
            store.close()
    return 0


def _cmd_worker(args) -> int:
    """Supervised worker entry point (spawned by the supervisor).

    Binds an ephemeral port, prints a one-line JSON ready handshake on
    stdout, and serves until SIGTERM.  Any startup failure is reported
    as a ``worker_error`` JSON line so the supervisor can surface it.
    """

    def _fail(message: str) -> int:
        print(json.dumps({"worker_error": message}), flush=True)
        return 2

    try:
        config = json.loads(args.config)
    except ValueError as exc:
        return _fail(f"bad --config JSON: {exc}")
    if not isinstance(config, dict):
        return _fail("--config must be a JSON object")
    config.setdefault("worker_id", 0)
    try:
        hosted, store = _host_service(config, 0)
    except Exception as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    ready = json.dumps({
        "worker_ready": True,
        "worker_id": config["worker_id"],
        "port": hosted.port,
        "pid": os.getpid(),
        "datasets": config["datasets"],
    })
    return _serve_until_signal(
        hosted, store, float(config.get("drain_s", 5.0)), ready
    )


def _cmd_trace(args) -> int:
    from repro.obs.sink import (
        iter_trace_records,
        render_trace_summary,
        summarize_traces,
        validate_trace_record,
    )

    if args.trace_command == "summarize":
        summary = summarize_traces(args.paths, top=args.top)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_trace_summary(summary))
        return 0
    records = problems = 0
    for path in args.paths:
        for i, record in enumerate(iter_trace_records(path)):
            records += 1
            found = validate_trace_record(record)
            for problem in found:
                print(f"{path}: record {i}: {problem}")
            problems += len(found)
    print(f"[trace validate] {records} record(s) checked, {problems} problem(s)")
    return 0 if problems == 0 else 1


def _cmd_lint(args) -> int:
    from repro.analysis import main as lint_main

    argv = list(args.paths) + ["--format", args.fmt]
    for rule in args.rules or ():
        argv += ["--rule", rule]
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv)


_COMMANDS = {
    "info": _cmd_info,
    "select": _cmd_select,
    "zoom": _cmd_zoom,
    "compare": _cmd_compare,
    "table3": _cmd_table3,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
