"""Command-line interface — the offline counterpart of the HyperBench tool.

Subcommands::

    python -m repro analyze FILE.hg              # Table 2 metrics of one file
    python -m repro width FILE.hg --max-k 6      # exact hw (and optionally ghw)
    python -m repro decompose FILE.hg -k 3       # print / export a decomposition
    python -m repro fractional FILE.hg -k 3      # ImproveHD / FracImproveHD widths
    python -m repro benchmark --scale 0.2 DIR    # build benchmark + CSV + HTML
    python -m repro convert --cq "ans(X):-r(X,Y),s(Y,Z)."   # to .hg format
    python -m repro convert --xcsp FILE.xml
    python -m repro convert --sql FILE.sql --schema SCHEMA.json
    python -m repro cache stats --cache results.db   # inspect the result store
    python -m repro cache bounds --cache results.db  # derived width bounds
    python -m repro cache bounds --cache results.db --kind ghw  # one width kind
    python -m repro cache clear --cache results.db
    python -m repro serve --port 8080 --cache results.db --jobs 4   # HTTP service
    python -m repro serve --port 8080 --trace-journal traces.jsonl --slow-ms 500
    python -m repro serve --queue jobs.db --cache cache.d --shards 4  # distributed
    python -m repro worker --queue jobs.db --cache cache.d           # pull-worker
    python -m repro queue stats --queue jobs.db      # depth / leases / retries
    python -m repro queue requeue --queue jobs.db    # sweep expired leases now
    python -m repro experiment run --dir exp/ --scale 0.1   # start an experiment
    python -m repro experiment resume --dir exp/            # continue after a crash
    python -m repro experiment status --dir exp/            # phases + journal counts
    python -m repro experiment report --dir exp/ --format md  # Tables 1-6/Figs 3-5
    python -m repro trace show --journal traces.jsonl    # span trees, newest first
    python -m repro trace summary --journal traces.jsonl # per-span-name timings
    python -m repro trace show --port 8080               # live /debug/traces
    python -m repro metrics --port 8080                  # live /metrics text

``serve`` runs the long-lived decomposition service (see
:mod:`repro.service`): one shared engine + store behind a JSON-over-HTTP
API (``/check``, ``/width``, ``/decompose``, ``/portfolio``, ``/stats``,
``/healthz``) whose scheduler coalesces concurrent duplicate requests and
batches the rest into ``run_batch`` waves — docs/ARCHITECTURE.md describes
the protocol, ``examples/service_client.py`` walks a client session.

``serve --queue`` plus any number of ``worker`` processes form the
distributed topology (docs/DISTRIBUTED.md): the server enqueues waves into
a persistent SQLite job queue and pull-workers lease, execute, and write
results back through the shared ``--cache`` — pass a directory (or
``--shards N``) to spread that cache over N fingerprint-routed shard
files.  ``queue stats`` shows depth/lease/retry counters; ``queue
requeue`` sweeps expired leases (``--dead`` also resurrects dead jobs).

``cache bounds`` lists two tables: the per-method intervals each method's
own rows prove, and the *cross-method* intervals derived per width kind via
the paper's inequalities (fhw ≤ ghw ≤ hw ≤ 3·ghw + 1) — an hw "yes" caps
the ghw interval, a ghw "no" lifts the hw one.  ``--kind hw|ghw|fhw``
restricts both tables to one width kind.

The ``width``, ``decompose`` and ``fractional`` commands run every check
through a :class:`repro.engine.DecompositionEngine`.  Without flags it runs
each check in-process with no store; ``--jobs N`` runs checks in N killable
worker processes with hard timeouts, and ``--cache PATH`` adds a SQLite
result store (every verdict is cached and replayed from it — including
verdicts merely *implied* by the store's bounds index).  ``benchmark``
builds the corpus and its statistics sequentially; the full study runs as
``experiment``.

All commands read the detkdecomp text format (``name(v1,v2),... .``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.benchmark.build import build_default_benchmark
from repro.benchmark.report import write_html_report
from repro.core.properties import compute_statistics
from repro.engine import CHECK_METHODS, DecompositionEngine, open_result_store
from repro.engine import methods as _methods
from repro.errors import ReproError
from repro.io.hg_format import format_hypergraph, read_hypergraph
from repro.io.json_io import decomposition_to_json

__all__ = ["main", "build_parser"]

#: Algorithm-name → check-function mapping: a live view over the
#: :mod:`repro.engine.methods` registry, so ``--algorithm`` names and engine
#: method names never diverge (virtual keys like ``portfolio`` are excluded).
ALGORITHMS = CHECK_METHODS


def _add_engine_flags(
    parser: argparse.ArgumentParser,
    jobs_help: str = "worker processes with hard timeouts (1 = in-process, default)",
    cache_help: str = "SQLite result store; verdicts are cached and replayed",
) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N", help=jobs_help)
    parser.add_argument(
        "--cache", type=Path, default=None, metavar="PATH", help=cache_help
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="shard --cache over N fingerprint-routed files (a directory;"
        " an existing shard directory's count is authoritative)",
    )


def _make_engine(args) -> DecompositionEngine:
    """The engine ``--jobs``/``--cache``/``--shards`` ask for (by default
    in-process, with no store)."""
    store = (
        open_result_store(args.cache, shards=args.shards)
        if args.cache is not None
        else None
    )
    return DecompositionEngine(store=store, jobs=args.jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HyperBench reproduction: hypergraph decompositions and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="structural properties of a hypergraph")
    analyze.add_argument("file", type=Path)

    width = sub.add_parser("width", help="exact hypertree width by iterating k")
    width.add_argument("file", type=Path)
    width.add_argument("--max-k", type=int, default=6)
    width.add_argument("--timeout", type=float, default=None)
    width.add_argument("--ghw", action="store_true", help="also bound the ghw")
    _add_engine_flags(width)

    decompose = sub.add_parser("decompose", help="compute one decomposition")
    decompose.add_argument("file", type=Path)
    decompose.add_argument("-k", type=int, required=True)
    decompose.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="hd"
    )
    decompose.add_argument("--timeout", type=float, default=None)
    decompose.add_argument("--json", action="store_true", help="emit JSON")
    decompose.add_argument(
        "--improve", action="store_true",
        help="also report the best fractional improvement",
    )
    _add_engine_flags(decompose)

    fractional = sub.add_parser(
        "fractional",
        help="fractional improvement widths of one instance (Tables 5/6 protocol)",
    )
    fractional.add_argument("file", type=Path)
    fractional.add_argument("-k", type=int, required=True, help="starting integral width")
    fractional.add_argument("--timeout", type=float, default=None)
    _add_engine_flags(
        fractional,
        cache_help="SQLite result store; HD and FracImproveHD verdicts are cached and replayed",
    )

    benchmark = sub.add_parser("benchmark", help="build the synthetic benchmark")
    benchmark.add_argument("out_dir", type=Path)
    benchmark.add_argument("--scale", type=float, default=0.2)
    benchmark.add_argument("--seed", type=int, default=42)

    cache = sub.add_parser("cache", help="inspect or clear a result store")
    cache.add_argument("action", choices=("stats", "bounds", "clear"))
    cache.add_argument(
        "--cache", type=Path, required=True, metavar="PATH",
        help="SQLite result-store file",
    )
    cache.add_argument(
        "--kind", choices=_methods.WIDTH_KINDS, default=None,
        help=(
            "restrict 'bounds' to one width kind: per-method rows whose "
            "verdicts decide that kind plus its cross-method interval"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the decomposition service (JSON over HTTP, shared warm cache)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listening port (0 picks a free one and prints it)",
    )
    serve.add_argument(
        "--window", type=float, default=0.02, metavar="SECONDS",
        help="batching window: how long a wave waits for concurrent requests",
    )
    serve.add_argument(
        "--max-wave", type=int, default=32, metavar="N",
        help="maximum jobs per run_batch wave",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=1000.0, metavar="MS",
        help="log requests slower than this many milliseconds (0 disables)",
    )
    serve.add_argument(
        "--trace-journal", type=Path, default=None, metavar="PATH",
        help="append every finished span to this JSONL file (repro trace reads it)",
    )
    serve.add_argument(
        "--queue", type=Path, default=None, metavar="PATH",
        help=(
            "persistent job queue: dispatch waves to external 'repro worker' "
            "processes instead of the in-process pool"
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, default=None, metavar="N",
        help=(
            "admission control: pending-flight budget; requests beyond it "
            "get 429 (default: unbounded)"
        ),
    )
    serve.add_argument(
        "--kind-limit", action="append", default=None, metavar="KIND=N",
        help=(
            "per-kind in-flight cap, e.g. --kind-limit width=2 "
            "(repeatable; uncapped kinds admit freely)"
        ),
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=None, metavar="PER_SECOND",
        help="per-tenant token-bucket admission rate (default: off)",
    )
    serve.add_argument(
        "--tenant-burst", type=float, default=None, metavar="N",
        help="per-tenant burst allowance (default: max(1, --tenant-rate))",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=5, metavar="N",
        help=(
            "consecutive wave failures that open the dispatch circuit "
            "breaker (0 disables breaking; default 5)"
        ),
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="SECONDS",
        help="open-breaker cooldown before the half-open probe wave",
    )
    serve.add_argument(
        "--drain-seconds", type=float, default=5.0, metavar="SECONDS",
        help="graceful-drain budget for in-flight waves on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--max-body-kb", type=int, default=8192, metavar="KB",
        help="request bodies over this many KiB get 413 (default 8192)",
    )
    _add_engine_flags(
        serve,
        jobs_help="worker processes shared by all clients (1 = in-process)",
        cache_help="SQLite result store every client shares (default: in-memory)",
    )

    worker = sub.add_parser(
        "worker",
        help="pull-worker: lease jobs from a queue, execute, write results back",
    )
    worker.add_argument(
        "--queue", type=Path, required=True, metavar="PATH",
        help="the job queue file shared with 'serve --queue' (or a Dispatcher)",
    )
    worker.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="lease-holder identity (default: host-pid-random)",
    )
    worker.add_argument(
        "--lease-n", type=int, default=4, metavar="N",
        help="jobs leased per wave (executed as one run_batch)",
    )
    worker.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="SECONDS",
        help="lease duration; heartbeats extend it while a wave executes",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="longest idle sleep between empty lease attempts (idle sleeps "
        "start at a few ms and double up to this)",
    )
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="exit after this many consecutive idle seconds (default: run forever)",
    )
    worker.add_argument(
        "--max-waves", type=int, default=None, metavar="N",
        help="exit after executing N waves (smoke/test harnesses)",
    )
    _add_engine_flags(
        worker,
        jobs_help="local worker processes per leased wave (1 = in-process)",
        cache_help="result store shared with the dispatcher (file or shard dir)",
    )

    queue = sub.add_parser(
        "queue", help="inspect or sweep a persistent job queue"
    )
    queue.add_argument("action", choices=("stats", "requeue"))
    queue.add_argument(
        "--queue", type=Path, required=True, metavar="PATH",
        help="the job queue file",
    )
    queue.add_argument(
        "--dead", action="store_true",
        help="requeue: also give dead jobs a fresh attempt budget",
    )

    trace = sub.add_parser(
        "trace", help="inspect recorded spans (a JSONL journal or a live service)"
    )
    trace.add_argument("action", choices=("show", "summary"))
    trace.add_argument(
        "--journal", type=Path, default=None, metavar="PATH",
        help="trace journal written by 'serve --trace-journal'",
    )
    trace.add_argument("--host", default="127.0.0.1")
    trace.add_argument(
        "--port", type=int, default=None,
        help="fetch /debug/traces from a running service instead of a journal",
    )
    trace.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="most recent traces to show (show) or spans to read (service)",
    )

    metrics = sub.add_parser(
        "metrics", help="fetch a running service's /metrics (Prometheus text)"
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=8080)

    experiment = sub.add_parser(
        "experiment",
        help="resumable corpus -> runner -> report pipeline (docs/EXPERIMENTS.md)",
    )
    exp_sub = experiment.add_subparsers(dest="exp_action", required=True)
    exp_run = exp_sub.add_parser("run", help="start an experiment directory")
    exp_resume = exp_sub.add_parser(
        "resume", help="continue an interrupted experiment"
    )
    for p in (exp_run, exp_resume):
        p.add_argument(
            "--dir", type=Path, required=True, metavar="DIR",
            help="experiment directory (manifest + journals + store)",
        )
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes with hard timeouts (1 = in-process)",
        )
        p.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="shard the experiment store over N files",
        )
        p.add_argument(
            "--queue", type=Path, default=None, metavar="PATH",
            help="dispatch waves through this job queue (start `repro worker"
            " --queue PATH --cache DIR/store.db` processes separately)",
        )
    exp_run.add_argument(
        "--manifest", type=Path, default=None, metavar="FILE",
        help="corpus manifest JSON (default: the default-benchmark corpus)",
    )
    exp_run.add_argument("--scale", type=float, default=0.25,
                         help="default-corpus scale (default 0.25)")
    exp_run.add_argument("--seed", type=int, default=42)
    exp_run.add_argument("--timeout", type=float, default=1.0,
                         help="per-check timeout in seconds (default 1.0)")
    exp_run.add_argument("--max-k", type=int, default=6, dest="max_k")
    exp_run.add_argument(
        "--timed", action="store_true",
        help="keep wall-clock runtimes in reports (default: zeroed, so"
        " reports are byte-stable)",
    )
    exp_status = exp_sub.add_parser("status", help="phases and journal counts")
    exp_status.add_argument("--dir", type=Path, required=True, metavar="DIR")
    exp_report = exp_sub.add_parser(
        "report", help="render Tables 1-6 / Figures 3-5 from stored results"
    )
    exp_report.add_argument("--dir", type=Path, required=True, metavar="DIR")
    exp_report.add_argument(
        "--format", choices=["md", "html", "csv", "json", "all"], default="md"
    )
    exp_report.add_argument(
        "--dest", type=Path, default=None, metavar="DIR",
        help="write report files here (default: print to stdout)",
    )
    exp_report.add_argument(
        "--partial", action="store_true",
        help="report on an unfinished experiment (missing checks run live)",
    )
    exp_report.add_argument(
        "--timed", action="store_true",
        help="keep wall-clock runtimes (overrides the manifest's"
        " deterministic flag)",
    )

    convert = sub.add_parser("convert", help="convert CQ/XCSP/SQL to hypergraphs")
    source = convert.add_mutually_exclusive_group(required=True)
    source.add_argument("--cq", help="a datalog-style conjunctive query")
    source.add_argument("--xcsp", type=Path, help="an XCSP XML file")
    source.add_argument("--sql", type=Path, help="an SQL file (needs --schema)")
    convert.add_argument(
        "--schema", type=Path,
        help='JSON schema file: {"relations": {"name": ["attr", ...]}}',
    )
    return parser


def _cmd_analyze(args) -> int:
    h = read_hypergraph(args.file)
    stats = compute_statistics(h)
    print(f"instance     {h.name}")
    print(f"vertices     {stats.num_vertices}")
    print(f"edges        {stats.num_edges}")
    print(f"arity        {stats.arity}")
    print(f"degree       {stats.degree}")
    print(f"BIP          {stats.bip}")
    print(f"3-BMIP       {stats.bmip3}")
    print(f"4-BMIP       {stats.bmip4}")
    print(f"VC-dim       {stats.vc_dim}")
    return 0


def _cmd_width(args) -> int:
    h = read_hypergraph(args.file)
    with _make_engine(args) as engine:
        result = engine.exact_width(h, args.max_k, timeout=args.timeout)
        if result.exact:
            print(f"hw({h.name}) = {result.value}")
        elif result.upper is not None:
            print(f"{result.lower} <= hw({h.name}) <= {result.upper}")
        else:
            print(f"hw({h.name}) > {result.lower - 1} (no upper bound within k <= {args.max_k})")
        if args.ghw and result.upper is not None and result.upper >= 2:
            outcome = engine.check(h, result.upper - 1, method="balsep", timeout=args.timeout)
            if outcome.verdict == "yes":
                print(f"ghw({h.name}) <= {result.upper - 1}")
            elif outcome.verdict == "no":
                print(f"ghw({h.name}) = hw({h.name}) = {result.upper}")
            else:
                print(f"ghw({h.name}) <= {result.upper} (Check(GHD,{result.upper - 1}) timed out)")
    return 0


def _cmd_decompose(args) -> int:
    h = read_hypergraph(args.file)
    with _make_engine(args) as engine:
        outcome = engine.check(h, args.k, method=args.algorithm, timeout=args.timeout)
        frac = None
        if args.improve and outcome.decomposition is not None:
            frac = engine.check(h, args.k, method="fracimprove", timeout=args.timeout)
    if outcome.verdict == "timeout":
        print(f"timeout after {outcome.seconds:.1f}s", file=sys.stderr)
        return 2
    if outcome.verdict == "no":
        kind = "HD" if args.algorithm == "hd" else "GHD"
        print(f"no {kind} of width <= {args.k} exists")
        return 1
    decomposition = outcome.decomposition
    if decomposition is None:
        # A cross-method implied "yes" can be witnessless: another method's
        # rows prove the width bound, but no stored tree of the right kind
        # exists to print.  The verdict stands; rerun without --cache (or at
        # the witnessing k) for an explicit decomposition.
        if args.json:
            print(json.dumps(
                {"verdict": "yes", "k": args.k, "implied": True,
                 "decomposition": None},
                sort_keys=True,
            ))
        else:
            print(
                f"width <= {args.k} confirmed from cached bounds; "
                "no stored decomposition of this kind (rerun without --cache "
                "to construct one)"
            )
        return 0
    decomposition.validate()
    if args.json:
        print(decomposition_to_json(decomposition, indent=2))
    else:
        print(f"{decomposition.kind} of width {decomposition.integral_width} "
              f"({len(decomposition)} nodes, {outcome.seconds:.3f}s)")
        _print_tree(decomposition.root)
    if frac is not None:
        if frac.verdict == "timeout":
            print(f"best fractional improvement: timeout after {frac.seconds:.1f}s")
        elif frac.decomposition is not None:
            print(f"best fractional improvement: width {frac.decomposition.width:.3f}")
    return 0


def _print_tree(node, indent: int = 0) -> None:
    bag = ",".join(sorted(node.bag))
    cover = ",".join(sorted(node.lambda_label()))
    print(f"{'  ' * indent}- bag {{{bag}}} λ {{{cover}}}")
    for child in node.children:
        _print_tree(child, indent + 1)


def _cmd_fractional(args) -> int:
    from repro.decomp.fractional import improve_hd

    h = read_hypergraph(args.file)
    with _make_engine(args) as engine:
        hd_outcome = engine.check(h, args.k, method="hd", timeout=args.timeout)
        if hd_outcome.verdict == "timeout":
            print(
                f"Check(HD, {args.k}) timed out after {hd_outcome.seconds:.1f}s",
                file=sys.stderr,
            )
            return 2
        if hd_outcome.verdict == "no":
            print(f"no HD of width <= {args.k} exists")
            return 1
        print(f"hw({h.name}) <= {args.k}")
        if hd_outcome.decomposition is not None:
            fhd = improve_hd(hd_outcome.decomposition)
            print(f"ImproveHD width      {fhd.width:.3f}")
        frac = engine.check(h, args.k, method="fracimprove", timeout=args.timeout)
        if frac.verdict == "timeout":
            print(f"FracImproveHD        timeout after {frac.seconds:.1f}s")
            return 0
        best = frac.decomposition
        if best is not None:
            print(
                f"FracImproveHD width  {best.width:.3f} "
                f"(improvement {args.k - best.width:.3f})"
            )
    return 0


def _cmd_benchmark(args) -> int:
    repo = build_default_benchmark(scale=args.scale, seed=args.seed)
    repo.compute_all_statistics()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "hyperbench.csv").write_text(repo.to_csv(), encoding="utf-8")
    (args.out_dir / "hyperbench.json").write_text(repo.to_json(indent=2), encoding="utf-8")
    write_html_report(repo, args.out_dir / "hyperbench.html")
    hg_dir = args.out_dir / "hypergraphs"
    hg_dir.mkdir(exist_ok=True)
    for entry in repo:
        (hg_dir / f"{entry.name}.hg").write_text(
            format_hypergraph(entry.hypergraph), encoding="utf-8"
        )
    print(f"{len(repo)} instances written to {args.out_dir}")
    return 0


def _cmd_convert(args) -> int:
    if args.cq is not None:
        from repro.cq import cq_to_hypergraph, parse_cq

        h = cq_to_hypergraph(parse_cq(args.cq, name="cq"))
        print(format_hypergraph(h), end="")
        return 0
    if args.xcsp is not None:
        from repro.csp import csp_to_hypergraph, parse_xcsp

        instance = parse_xcsp(args.xcsp.read_text(encoding="utf-8"), name=args.xcsp.stem)
        print(format_hypergraph(csp_to_hypergraph(instance)), end="")
        return 0
    # SQL
    if args.schema is None:
        print("--sql requires --schema", file=sys.stderr)
        return 2
    from repro.sql import Schema, sql_to_hypergraphs

    payload = json.loads(args.schema.read_text(encoding="utf-8"))
    schema = Schema(payload["relations"] if "relations" in payload else payload)
    sql_text = args.sql.read_text(encoding="utf-8")
    produced = 0
    for statement in filter(None, (s.strip() for s in sql_text.split(";"))):
        for h in sql_to_hypergraphs(statement + ";", schema, name=f"q{produced}"):
            print(f"% {h.name}")
            print(format_hypergraph(h), end="")
            produced += 1
    if not produced:
        print("no hypergraphs extracted", file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args) -> int:
    if not args.cache.exists():
        print(f"error: no result store at {args.cache}", file=sys.stderr)
        return 2
    # open_result_store detects shard directories, so `cache stats` works
    # unchanged on a sharded --cache and aggregates across the shard files.
    with open_result_store(args.cache) as store:
        if args.action == "clear":
            cleared = len(store)
            store.clear()
            print(f"cleared {cleared} cached results from {args.cache}")
            return 0
        if args.action == "bounds":
            rows = store.bounds_rows()
            kind_rows = store.kind_bounds_rows()
            if args.kind is not None:
                rows = [
                    r for r in rows
                    if _methods.decision_kind_of(r[1]) == args.kind
                ]
                kind_rows = [r for r in kind_rows if r[1] == args.kind]
            if not rows and not kind_rows:
                print("no width bounds derived yet")
                return 0
            print(f"{'fingerprint':<14} {'method':<12} {'lo':>4} {'hi':>4}")
            for fp, method, lo, hi in rows:
                hi_text = "-" if hi is None else str(hi)
                print(f"{fp[:12] + '..':<14} {method:<12} {lo:>4} {hi_text:>4}")
            if kind_rows:
                # Cross-method intervals: what the paper's inequalities
                # (fhw <= ghw <= hw <= 3*ghw + 1) derive across methods.
                print(f"\n{'fingerprint':<14} {'kind':<12} {'lo':>4} {'hi':>4}")
                for fp, kind, lo, hi in kind_rows:
                    hi_text = "-" if hi is None else str(hi)
                    print(f"{fp[:12] + '..':<14} {kind:<12} {lo:>4} {hi_text:>4}")
            return 0
        stats = store.stats
        print(f"store        {args.cache}")
        print(f"entries      {stats.entries}")
        print(f"hits         {stats.hits}")
        print(f"  implied    {stats.implied}")
        print(f"misses       {stats.misses}")
        print(f"hit rate     {stats.hit_rate:.1%}")
        for method, count in store.methods().items():
            print(f"  {method:<10} {count}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import serve as _serve

    store_path = str(args.cache) if args.cache is not None else None
    slow = args.slow_ms / 1000.0 if args.slow_ms > 0 else None
    journal = str(args.trace_journal) if args.trace_journal is not None else None
    kind_limits = None
    if args.kind_limit:
        kind_limits = {}
        for entry in args.kind_limit:
            kind, sep, cap = entry.partition("=")
            if not sep or not kind or not cap.isdigit():
                print(
                    f"error: --kind-limit wants KIND=N, got {entry!r}",
                    file=sys.stderr,
                )
                return 2
            kind_limits[kind] = int(cap)
    try:
        asyncio.run(
            _serve(
                store_path,
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                window=args.window,
                max_wave=args.max_wave,
                slow_request_seconds=slow,
                trace_journal=journal,
                queue_path=str(args.queue) if args.queue is not None else None,
                shards=args.shards,
                max_pending=args.max_pending,
                kind_limits=kind_limits,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                breaker_failures=args.breaker_failures,
                breaker_reset=args.breaker_reset,
                drain_seconds=args.drain_seconds,
                max_body_bytes=args.max_body_kb * 1024,
            )
        )
    except KeyboardInterrupt:
        print("service stopped", file=sys.stderr)
    return 0


def _cmd_worker(args) -> int:
    from repro.engine.remote import run_worker

    completed = run_worker(
        str(args.queue),
        str(args.cache) if args.cache is not None else None,
        jobs=args.jobs,
        shards=args.shards,
        worker_id=args.worker_id,
        lease_n=args.lease_n,
        lease_seconds=args.lease_seconds,
        poll=args.poll,
        max_idle=args.max_idle,
        max_waves=args.max_waves,
    )
    print(f"worker done: {completed} job(s) completed", file=sys.stderr)
    return 0


def _cmd_queue(args) -> int:
    from repro.engine.queue import JobQueue

    if not args.queue.exists():
        print(f"error: no job queue at {args.queue}", file=sys.stderr)
        return 2
    with JobQueue(args.queue) as queue:
        if args.action == "requeue":
            swept = queue.requeue_expired()
            line = f"requeued {swept} expired lease(s)"
            if args.dead:
                line += f", resurrected {queue.resurrect_dead()} dead job(s)"
            print(line)
            return 0
        snapshot = queue.stats()
        print(f"queue        {args.queue}")
        print(f"total        {snapshot['total']}")
        print(f"depth        {snapshot['depth']}   (leasable now)")
        for state in ("pending", "leased", "failed", "done", "dead"):
            print(f"  {state:<10} {snapshot[state]}")
        print("lifetime counters")
        for key, value in snapshot["counters"].items():
            print(f"  {key:<10} {value}")
    return 0


def _trace_records(args) -> list[dict]:
    """Span records from a journal file or a live service's trace ring."""
    if args.journal is not None:
        from repro.obs.trace import load_journal

        return load_journal(args.journal)
    if args.port is not None:
        from repro.service.client import ServiceClient

        with ServiceClient(args.host, args.port) as client:
            payload = client.traces(limit=args.limit)
        return [span for trace in payload["traces"] for span in trace["spans"]]
    raise ReproError("pass --journal PATH or --port PORT to locate the spans")


def _print_span_tree(records: list[dict]) -> None:
    known = {record["span_id"] for record in records}
    children: dict[str, list[dict]] = {}
    roots = []
    for record in sorted(records, key=lambda r: r.get("start") or 0.0):
        parent = record.get("parent_id")
        if parent and parent in known:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    def walk(record: dict, depth: int) -> None:
        millis = (record.get("duration") or 0.0) * 1000.0
        status = record.get("status") or "ok"
        suffix = "" if status == "ok" else f" [{status}]"
        attrs = record.get("attrs") or {}
        tail = "  ".join(f"{key}={value}" for key, value in attrs.items())
        line = f"{'  ' * depth}- {record['name']:<16} {millis:9.2f} ms{suffix}"
        print(f"{line}  {tail}" if tail else line)
        for child in children.get(record["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)


def _cmd_trace(args) -> int:
    records = _trace_records(args)
    if not records:
        print("no spans recorded")
        return 0

    if args.action == "summary":
        stats: dict[str, list[float]] = {}
        for record in records:
            stats.setdefault(record["name"], []).append(record.get("duration") or 0.0)
        print(f"{'span':<18} {'count':>6} {'total ms':>10} {'mean ms':>9} {'max ms':>9}")
        for name in sorted(stats, key=lambda n: -sum(stats[n])):
            durations = stats[name]
            total = sum(durations) * 1000.0
            print(
                f"{name:<18} {len(durations):>6} {total:>10.2f}"
                f" {total / len(durations):>9.2f} {max(durations) * 1000.0:>9.2f}"
            )
        return 0

    # show: newest traces last so the freshest tree ends up on screen
    by_trace: dict[str, list[dict]] = {}
    for record in records:
        by_trace.setdefault(record["trace_id"], []).append(record)
    ordered = sorted(
        by_trace.values(), key=lambda spans: max(s.get("start") or 0.0 for s in spans)
    )
    for spans in ordered[-args.limit:]:
        print(f"trace {spans[0]['trace_id']}  ({len(spans)} spans)")
        _print_span_tree(spans)
        print()
    return 0


def _cmd_metrics(args) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        sys.stdout.write(client.metrics())
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiment import (
        ExperimentPaths,
        ExperimentResults,
        ExperimentRunner,
        Manifest,
        default_manifest,
        experiment_status,
        render_csv,
        render_html,
        render_json,
        render_markdown,
        write_report,
    )

    paths = ExperimentPaths.at(args.dir)

    if args.exp_action == "status":
        status = experiment_status(paths)
        if not status.exists:
            print(f"no experiment at {paths.root}")
            return 1
        print(f"experiment   {paths.root}")
        print(f"instances    {status.instances}")
        done = " ".join(
            f"{phase}:{'done' if ok else 'pending'}"
            for phase, ok in status.phases.items()
        )
        print(f"phases       {done}")
        for kind, count in sorted(status.jobs.items()):
            print(f"jobs[{kind}]  {count}")
        print(f"complete     {status.complete}")
        return 0

    if args.exp_action == "report":
        results = ExperimentResults(
            paths,
            deterministic=False if args.timed else None,
            partial=args.partial,
        )
        with results:
            if args.dest is not None:
                formats = (
                    ("md", "html", "csv", "json")
                    if args.format == "all"
                    else (args.format,)
                )
                for fmt, path in write_report(results, args.dest, formats).items():
                    print(f"wrote {path}")
            else:
                renderer = {
                    "md": render_markdown,
                    "html": render_html,
                    "csv": render_csv,
                    "json": render_json,
                    "all": render_markdown,
                }[args.format]
                sys.stdout.write(renderer(results))
        return 0

    # run / resume
    if args.exp_action == "run":
        if paths.meta.exists() and _experiment_started(paths):
            print(
                f"error: experiment at {paths.root} already started; "
                "use `repro experiment resume`",
                file=sys.stderr,
            )
            return 2
        if args.manifest is not None:
            manifest = Manifest.from_file(args.manifest)
        else:
            manifest = default_manifest(
                scale=args.scale,
                seed=args.seed,
                timeout=args.timeout,
                max_k=args.max_k,
                deterministic=not args.timed,
            )
    else:  # resume
        if not paths.manifest.exists():
            print(f"error: no experiment at {paths.root}", file=sys.stderr)
            return 2
        manifest = Manifest.from_file(paths.manifest)

    paths.root.mkdir(parents=True, exist_ok=True)
    store = open_result_store(paths.store, shards=args.shards)
    engine = DecompositionEngine(store=store, jobs=args.jobs)
    dispatcher = None
    queue = None
    try:
        if args.queue is not None:
            from repro.engine import Dispatcher, JobQueue

            queue = JobQueue(args.queue)
            dispatcher = Dispatcher(queue, engine=engine)
        runner = ExperimentRunner(
            paths, engine, dispatcher=dispatcher, manifest=manifest
        )
        summary = runner.run()
    finally:
        engine.close()
        if queue is not None:
            queue.close()
    print(f"instances    {summary.instances}")
    print(f"waves        {summary.waves}")
    print(f"jobs         {summary.total_jobs}")
    print(f"resumed      {summary.resumed}")
    print(f"cache hits   {summary.cache_hits}")
    print(f"executed     {summary.executed}")
    return 0


def _experiment_started(paths) -> bool:
    from repro.experiment import MetaJournal

    return bool(MetaJournal(paths.meta).load())


_COMMANDS = {
    "analyze": _cmd_analyze,
    "width": _cmd_width,
    "decompose": _cmd_decompose,
    "fractional": _cmd_fractional,
    "benchmark": _cmd_benchmark,
    "convert": _cmd_convert,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "queue": _cmd_queue,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "experiment": _cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
