"""Cold-check microbench harness: bitset kernel vs frozenset reference.

The workload is a fixed set of repository-style instances (structured CSP
patterns plus seeded random CSP/CQ hypergraphs) checked across the hw / ghw
methods.  Every case runs **cold**: the instance is rebuilt for each timed
repetition, so nothing — not even the cached
:class:`~repro.core.bitset.HypergraphView` — survives between runs, and the
measured time is exactly one ``Check(H, k)`` from scratch.

For ``detkdecomp`` and ``balsep`` the same case also runs on the frozen
reference kernel (:mod:`repro.decomp.reference`) and the report records the
speedup; ``localbip`` / ``globalbip`` / ``hybrid`` are timed on the bitset
kernel only, with their verdicts cross-checked against the reference
``balsep`` answer for the same ``(H, k)``.

Output is ``BENCH_kernel.json``::

    {"meta": {...},
     "cases": [{"case": "K7/detkdecomp/k3", ..., "bitset": {"verdict",
                "seconds", "components_calls", "cover_enumerations",
                "subedge_closures"}, "reference": {...}|null,
                "speedup": 2.9, "verdicts_agree": true}, ...],
     "summary": {"speedup_geomean", "detkdecomp_speedup_geomean", ...}}

``compare_to_baseline`` implements the CI perf gate: a case regresses when
its deterministic kernel call counts grow beyond 2x the baseline, or when
its cold bitset time exceeds ``max(2 × baseline, baseline + 50 ms)`` after
normalising the baseline by the machine-speed ratio estimated from the
frozen reference kernel's timings — so a slow CI runner does not flag
phantom regressions and a fast one does not mask real ones.
"""

from __future__ import annotations

import json
import math
import platform
import random
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.hypergraph import Hypergraph
from repro.decomp.balsep import check_ghd_balsep
from repro.decomp.detkdecomp import check_hd
from repro.decomp.globalbip import check_ghd_global_bip
from repro.decomp.hybrid import check_ghd_hybrid
from repro.decomp.localbip import check_ghd_local_bip
from repro.decomp.reference import check_ghd_balsep_reference, check_hd_reference
from repro.errors import DeadlineExceeded, SubedgeLimitError
from repro.perf import counters
from repro.utils.deadline import Deadline

__all__ = [
    "BenchCase",
    "default_workload",
    "run_workload",
    "run_dispatch_workload",
    "run_obs_workload",
    "compare_to_baseline",
    "main",
]

#: Per-attempt wall-clock cap; workload cases are sized well below this.
CASE_TIMEOUT = 120.0

#: CI regression gate: new > max(factor * old, old + slack) fails.
REGRESSION_FACTOR = 2.0
REGRESSION_SLACK = 0.05

BITSET_METHODS: dict[str, Callable] = {
    "detkdecomp": check_hd,
    "balsep": check_ghd_balsep,
    "localbip": check_ghd_local_bip,
    "globalbip": check_ghd_global_bip,
    "hybrid": check_ghd_hybrid,
}

REFERENCE_METHODS: dict[str, Callable] = {
    "detkdecomp": check_hd_reference,
    "balsep": check_ghd_balsep_reference,
}

#: Reference oracle per method for verdict cross-checks (a GHD method must
#: agree with the reference GHD answer; detkdecomp with the reference HD).
ORACLE_METHOD = {
    "detkdecomp": "detkdecomp",
    "balsep": "balsep",
    "localbip": "balsep",
    "globalbip": "balsep",
    "hybrid": "balsep",
}


# ------------------------------------------------------------- instances


def _clique(n: int) -> Hypergraph:
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            edges[f"e{i}_{j}"] = [f"v{i}", f"v{j}"]
    return Hypergraph(edges, name=f"K{n}")


def _cycle(n: int) -> Hypergraph:
    return Hypergraph(
        {f"c{i}": [f"x{i}", f"x{(i + 1) % n}"] for i in range(n)},
        name=f"cycle{n}",
    )


def _grid(rows: int, cols: int) -> Hypergraph:
    """Binary grid adjacency: hw grows with min(rows, cols)."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges[f"h{r}_{c}"] = [f"m{r}_{c}", f"m{r}_{c + 1}"]
            if r + 1 < rows:
                edges[f"v{r}_{c}"] = [f"m{r}_{c}", f"m{r + 1}_{c}"]
    return Hypergraph(edges, name=f"grid{rows}x{cols}")


def _random_csp(seed: int, variables: int, constraints: int, arity: int) -> Hypergraph:
    rng = random.Random(seed)
    pool = [f"x{i}" for i in range(variables)]
    edges = {}
    for j in range(constraints):
        edges[f"c{j}"] = rng.sample(pool, rng.randint(2, arity))
    return Hypergraph(edges, name=f"csp_s{seed}").dedupe()


@dataclass(frozen=True)
class BenchCase:
    """One (instance, method, k) cold-check case of the fixed workload."""

    instance: str
    method: str
    k: int
    build: Callable[[], Hypergraph]
    quick: bool = True  # quick cases also run in the CI perf-smoke job

    @property
    def case_id(self) -> str:
        return f"{self.instance}/{self.method}/k{self.k}"


def default_workload(quick: bool = False) -> list[BenchCase]:
    """The fixed cold-check workload (a deterministic case list)."""
    cases = [
        # --- hw via DetKDecomp: accept and refute, structured and random.
        BenchCase("K6", "detkdecomp", 2, lambda: _clique(6)),
        BenchCase("K7", "detkdecomp", 3, lambda: _clique(7)),
        BenchCase("grid4x4", "detkdecomp", 2, lambda: _grid(4, 4)),
        BenchCase("grid5x4", "detkdecomp", 3, lambda: _grid(5, 4)),
        BenchCase("cycle24", "detkdecomp", 2, lambda: _cycle(24)),
        BenchCase("csp_s3", "detkdecomp", 2, lambda: _random_csp(3, 14, 22, 3)),
        BenchCase("csp_s5", "detkdecomp", 2, lambda: _random_csp(5, 15, 24, 3)),
        BenchCase("K8", "detkdecomp", 3, lambda: _clique(8), quick=False),
        BenchCase("csp_s9", "detkdecomp", 3, lambda: _random_csp(9, 16, 26, 4), quick=False),
        # --- ghw via BalSep (reference-timed) ...
        BenchCase("K6", "balsep", 2, lambda: _clique(6)),
        BenchCase("cycle16", "balsep", 1, lambda: _cycle(16)),
        BenchCase("csp_s3", "balsep", 2, lambda: _random_csp(3, 14, 22, 3)),
        BenchCase("K7", "balsep", 2, lambda: _clique(7), quick=False),
        BenchCase("csp_s9", "balsep", 2, lambda: _random_csp(9, 16, 26, 4), quick=False),
        # --- ... and the remaining GHD methods (bitset-only timing, verdict
        #     cross-checked against the reference balsep oracle).
        BenchCase("cycle16", "localbip", 1, lambda: _cycle(16)),
        BenchCase("csp_s3", "localbip", 2, lambda: _random_csp(3, 14, 22, 3)),
        BenchCase("cycle16", "globalbip", 1, lambda: _cycle(16)),
        BenchCase("grid4x4", "globalbip", 2, lambda: _grid(4, 4)),
        BenchCase("K6", "hybrid", 2, lambda: _clique(6)),
        BenchCase("csp_s3", "hybrid", 2, lambda: _random_csp(3, 14, 22, 3)),
    ]
    if quick:
        cases = [c for c in cases if c.quick]
    return cases


# ------------------------------------------------------------------ runs


def _timed_run(check: Callable, build: Callable[[], Hypergraph], k: int,
               repeat: int) -> dict:
    """Best-of-``repeat`` cold run; the instance is rebuilt per repetition."""
    best: dict | None = None
    for _ in range(repeat):
        hypergraph = build()  # fresh instance: no cached views, cold caches
        counters.reset()
        start = time.perf_counter()
        try:
            decomposition = check(hypergraph, k, Deadline(CASE_TIMEOUT))
            verdict = "yes" if decomposition is not None else "no"
        except (DeadlineExceeded, SubedgeLimitError):
            verdict = "timeout"
        seconds = time.perf_counter() - start
        result = {"verdict": verdict, "seconds": seconds, **counters.snapshot()}
        if best is None or seconds < best["seconds"]:
            best = result
    assert best is not None
    return best


def run_workload(
    cases: list[BenchCase] | None = None,
    quick: bool = False,
    repeat: int = 1,
) -> dict:
    """Run the workload on both kernels and return the report dict."""
    if cases is None:
        cases = default_workload(quick=quick)
    oracle_cache: dict[tuple[str, str, int], str] = {}
    records = []
    for case in cases:
        hypergraph = case.build()
        bitset = _timed_run(BITSET_METHODS[case.method], case.build, case.k, repeat)

        reference = None
        ref_fn = REFERENCE_METHODS.get(case.method)
        oracle_method = ORACLE_METHOD[case.method]
        oracle_key = (case.instance, oracle_method, case.k)
        if ref_fn is not None:
            reference = _timed_run(ref_fn, case.build, case.k, repeat)
            oracle_cache[oracle_key] = reference["verdict"]
            oracle_verdict = reference["verdict"]
        else:
            oracle_verdict = oracle_cache.get(oracle_key)
            if oracle_verdict is None:
                oracle_run = _timed_run(
                    REFERENCE_METHODS[oracle_method], case.build, case.k, 1
                )
                oracle_verdict = oracle_run["verdict"]
                oracle_cache[oracle_key] = oracle_verdict

        agree = bitset["verdict"] == oracle_verdict
        speedup = None
        if reference is not None and "timeout" not in (
            bitset["verdict"], reference["verdict"]
        ):
            speedup = reference["seconds"] / max(bitset["seconds"], 1e-9)
        records.append(
            {
                "case": case.case_id,
                "instance": case.instance,
                "method": case.method,
                "k": case.k,
                "vertices": hypergraph.num_vertices,
                "edges": hypergraph.num_edges,
                "bitset": bitset,
                "reference": reference,
                "oracle_verdict": oracle_verdict,
                "verdicts_agree": agree,
                "speedup": speedup,
            }
        )

    speedups = [r["speedup"] for r in records if r["speedup"]]
    det_speedups = [
        r["speedup"] for r in records if r["speedup"] and r["method"] == "detkdecomp"
    ]

    def geomean(values: list[float]) -> float | None:
        if not values:
            return None
        return math.exp(sum(math.log(v) for v in values) / len(values))

    report = {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "quick": quick,
            "repeat": repeat,
        },
        "cases": records,
        "summary": {
            "cases": len(records),
            "with_reference": sum(1 for r in records if r["reference"]),
            "verdict_mismatches": sum(1 for r in records if not r["verdicts_agree"]),
            "speedup_geomean": geomean(speedups),
            "detkdecomp_speedup_geomean": geomean(det_speedups),
            "min_speedup": min(speedups) if speedups else None,
            "total_bitset_seconds": sum(r["bitset"]["seconds"] for r in records),
            "total_reference_seconds": sum(
                r["reference"]["seconds"] for r in records if r["reference"]
            ),
        },
    }
    return report


# ------------------------------------------------------------- dispatch


#: Dispatch workload shape: ≥ 50 small instances through ≥ 2 workers.
DISPATCH_INSTANCES = 56
DISPATCH_JOBS = 2
DISPATCH_K = 2
DISPATCH_TIMEOUT = 30.0
DISPATCH_EDGES = 160
DISPATCH_ARITY = 5


def _dispatch_chain(seed: int) -> Hypergraph:
    """A long acyclic chain of arity-5 edges (an SQL-style chain query).

    ``Check(HD, 2)`` decides it almost instantly, so the measured time is
    dominated by exactly what the dispatch bench is about: moving the
    instance to a worker and the ~160-node decomposition back.  Harder
    instances would bury that cost under search time.
    """
    return Hypergraph(
        {
            f"relation{seed}_{j:03d}": [
                f"attribute{seed}_{j + i:04d}" for i in range(DISPATCH_ARITY)
            ]
            for j in range(DISPATCH_EDGES)
        },
        name=f"chain{seed}",
    )


def _dispatch_instances(count: int) -> list[Hypergraph]:
    return [_dispatch_chain(seed) for seed in range(count)]


def run_dispatch_workload(
    count: int = DISPATCH_INSTANCES,
    jobs: int = DISPATCH_JOBS,
    repeat: int = 1,
) -> dict:
    """Engine-dispatch overhead through the packed wire format.

    One ``run_batch`` of ``count`` single ``Check(H, k)`` jobs (no store, so
    every job dispatches to a worker process over the
    :class:`~repro.core.bitset.PackedHypergraph` wire format) is timed,
    best of ``repeat``.  Its verdicts are cross-checked against the frozen
    reference kernel (:mod:`repro.decomp.reference`), in-process — any
    disagreement is a correctness bug, not noise.
    """
    from repro.decomp.reference import check_hd_reference
    from repro.engine import DecompositionEngine, JobSpec

    instances = _dispatch_instances(count)
    oracle = {}
    for h in instances:
        try:
            decomposition = check_hd_reference(h, DISPATCH_K, Deadline(CASE_TIMEOUT))
            oracle[h.name] = "yes" if decomposition is not None else "no"
        except (DeadlineExceeded, SubedgeLimitError):  # pragma: no cover
            oracle[h.name] = "timeout"

    best_seconds = None
    verdicts: dict[str, str] = {}
    for _ in range(repeat):
        # Fresh instances per repetition: nothing (views, fingerprints)
        # survives from the previous run or the oracle pass.
        fresh = _dispatch_instances(count)
        engine = DecompositionEngine(jobs=jobs)
        specs = [
            JobSpec.check(h, DISPATCH_K, method="hd", timeout=DISPATCH_TIMEOUT)
            for h in fresh
        ]
        start = time.perf_counter()
        report = engine.run_batch(specs)
        seconds = time.perf_counter() - start
        if best_seconds is None or seconds < best_seconds:
            best_seconds = seconds
            verdicts = {r.spec.name: r.verdict for r in report.results}
    mismatches = sum(
        1 for name, verdict in oracle.items() if verdicts.get(name) != verdict
    )
    return {
        "instances": count,
        "jobs": jobs,
        "k": DISPATCH_K,
        "method": "hd",
        "repeat": repeat,
        "seconds": best_seconds,
        "verdict_mismatches": mismatches,
    }


# ------------------------------------------------------------------- obs


#: Telemetry overhead gate: enabled/disabled cold-check time ratio cap.
OBS_OVERHEAD_LIMIT = 1.05

#: Harness method names -> engine registry names where they differ.
OBS_ENGINE_METHOD = {"detkdecomp": "hd"}


def _obs_cases() -> list[BenchCase]:
    """Cold checks big enough that per-check span/metric cost is marginal."""
    return [
        BenchCase("K6", "detkdecomp", 2, lambda: _clique(6)),
        BenchCase("K7", "detkdecomp", 3, lambda: _clique(7)),
        BenchCase("grid4x4", "detkdecomp", 2, lambda: _grid(4, 4)),
        BenchCase("csp_s3", "balsep", 2, lambda: _random_csp(3, 14, 22, 3)),
    ]


def run_obs_workload(rounds: int = 3) -> dict:
    """Instrumentation overhead: engine-routed cold checks, telemetry on/off.

    The same fixed case list runs through a fresh in-process
    :class:`~repro.engine.engine.DecompositionEngine` (so every check pays
    the full instrumented path: ``engine.check`` span, ``worker.exec`` span,
    counter delta publication, ``EngineStats`` metric increments) — once
    with the global :data:`~repro.obs.trace.TRACER` and
    :data:`~repro.obs.metrics.REGISTRY` disabled, once enabled, best-of-
    ``rounds`` each.  Instances are rebuilt and the engine recreated per
    round, so both passes are equally cold.  The report's
    ``overhead_ratio`` (enabled / disabled) is gated at
    :data:`OBS_OVERHEAD_LIMIT` by :func:`main`.
    """
    from repro.engine import DecompositionEngine
    from repro.obs.metrics import REGISTRY
    from repro.obs.trace import TRACER

    cases = _obs_cases()

    def timed_pass(warmup: bool = False) -> float:
        best = None
        for _ in range(1 if warmup else rounds):
            engine = DecompositionEngine(jobs=1)
            start = time.perf_counter()
            for case in cases:
                method = OBS_ENGINE_METHOD.get(case.method, case.method)
                engine.check(case.build(), case.k, method=method,
                             timeout=CASE_TIMEOUT)
            seconds = time.perf_counter() - start
            engine.close()
            if best is None or seconds < best:
                best = seconds
        return best

    tracer_was, registry_was = TRACER.enabled, REGISTRY.enabled
    try:
        TRACER.enabled = REGISTRY.enabled = False
        timed_pass(warmup=True)  # warm allocator/bytecode before either pass
        disabled = timed_pass()
        TRACER.enabled = REGISTRY.enabled = True
        enabled = timed_pass()
    finally:
        TRACER.enabled, REGISTRY.enabled = tracer_was, registry_was

    ratio = enabled / max(disabled, 1e-9)
    return {
        "cases": [case.case_id for case in cases],
        "rounds": rounds,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": ratio,
        "limit": OBS_OVERHEAD_LIMIT,
        "within_limit": ratio <= OBS_OVERHEAD_LIMIT,
    }


# ------------------------------------------------------------ regression


def compare_to_baseline(report: dict, baseline: dict) -> list[str]:
    """CI perf gate: cases whose cold bitset cost regressed vs the baseline.

    Two checks per case present in both reports, both designed to hold on a
    runner with a different speed than the machine that recorded the
    baseline:

    * **Kernel call counts** (``components_calls`` / ``cover_enumerations``)
      are deterministic for a fixed workload, so they compare exactly across
      machines; a count above ``REGRESSION_FACTOR`` × baseline (+ a small
      absolute slack for trivial cases) means the search does more work.
    * **Wall time**, after normalising the baseline by the machines' speed
      ratio — estimated from the *reference kernel's* total seconds in the
      two reports.  The reference kernel is frozen code, so its runtime
      measures the machine, not the change under test.  Without reference
      timings on either side the ratio falls back to 1.

    Cases absent from the baseline are ignored (new coverage, not a
    regression).
    """
    old_cases = {r["case"]: r for r in baseline.get("cases", [])}
    new_ref = report.get("summary", {}).get("total_reference_seconds") or 0.0
    old_ref = baseline.get("summary", {}).get("total_reference_seconds") or 0.0
    machine_ratio = new_ref / old_ref if new_ref and old_ref else 1.0
    regressions = []
    for record in report["cases"]:
        old = old_cases.get(record["case"])
        if old is None:
            continue
        for counter in ("components_calls", "cover_enumerations"):
            old_count = old["bitset"].get(counter)
            new_count = record["bitset"].get(counter)
            if (
                old_count is not None
                and new_count is not None
                and new_count > REGRESSION_FACTOR * old_count + 64
            ):
                regressions.append(
                    f"{record['case']}: {counter} {new_count} vs baseline "
                    f"{old_count} (> {REGRESSION_FACTOR:g}x)"
                )
        old_seconds = old["bitset"]["seconds"] * machine_ratio
        new_seconds = record["bitset"]["seconds"]
        if new_seconds > max(
            REGRESSION_FACTOR * old_seconds, old_seconds + REGRESSION_SLACK
        ):
            regressions.append(
                f"{record['case']}: {new_seconds:.3f}s vs baseline "
                f"{old_seconds:.3f}s (machine-normalised, "
                f"> max({REGRESSION_FACTOR:g}x, +{REGRESSION_SLACK:.02}s))"
            )
    return regressions


# ------------------------------------------------------------------- CLI


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Cold Check(H,k) microbench: bitset kernel vs reference"
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI subset of the workload")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per case (best-of)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="report path (default: ./BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline BENCH_kernel.json for the regression gate")
    parser.add_argument("--no-dispatch", action="store_true",
                        help="skip the worker-dispatch benchmark")
    parser.add_argument("--no-obs", action="store_true",
                        help="skip the telemetry-overhead benchmark")
    args = parser.parse_args(argv)

    report = run_workload(quick=args.quick, repeat=args.repeat)
    if not args.no_dispatch:
        report["dispatch"] = run_dispatch_workload(repeat=args.repeat)
    if not args.no_obs:
        report["obs"] = run_obs_workload()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    summary = report["summary"]
    for record in report["cases"]:
        speed = f"{record['speedup']:.1f}x" if record["speedup"] else "  -  "
        flag = "" if record["verdicts_agree"] else "  VERDICT MISMATCH"
        print(
            f"{record['case']:<28} {record['bitset']['verdict']:<7}"
            f" {record['bitset']['seconds']*1000:9.1f} ms  {speed:>7}{flag}"
        )
    print(
        f"\n{summary['cases']} cases, geomean speedup "
        f"{summary['speedup_geomean'] and round(summary['speedup_geomean'], 2)}"
        f" (detkdecomp {summary['detkdecomp_speedup_geomean'] and round(summary['detkdecomp_speedup_geomean'], 2)});"
        f" report -> {args.out}"
    )

    dispatch = report.get("dispatch")
    if dispatch is not None:
        print(
            f"\ndispatch ({dispatch['instances']} instances, "
            f"{dispatch['jobs']} workers): {dispatch['seconds']*1000:.0f} ms"
        )

    obs = report.get("obs")
    if obs is not None:
        print(
            f"\nobs overhead ({len(obs['cases'])} cold checks, best of "
            f"{obs['rounds']}): telemetry on {obs['enabled_seconds']*1000:.1f} ms"
            f" vs off {obs['disabled_seconds']*1000:.1f} ms "
            f"({(obs['overhead_ratio'] - 1) * 100:+.1f}%, limit "
            f"+{(obs['limit'] - 1) * 100:.0f}%)"
        )

    status = 0
    if summary["verdict_mismatches"]:
        print(f"FAIL: {summary['verdict_mismatches']} verdict mismatch(es)")
        status = 1
    if dispatch is not None and dispatch["verdict_mismatches"]:
        print(
            f"FAIL: {dispatch['verdict_mismatches']} dispatch verdict "
            "mismatch(es) vs the reference kernel"
        )
        status = 1
    if obs is not None and not obs["within_limit"]:
        print(
            f"FAIL: telemetry overhead {obs['overhead_ratio']:.3f}x exceeds "
            f"the {obs['limit']:g}x gate"
        )
        status = 1
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
        regressions = compare_to_baseline(report, baseline)
        for line in regressions:
            print(f"REGRESSION {line}")
        if regressions:
            status = 1
        else:
            print("baseline gate: ok")
    return status
