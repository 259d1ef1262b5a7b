"""``study``: the paper's Section 6 evaluation as users run it.

A closed loop with one caller: ``repro experiment run --jobs 2`` on a
manifest generated from the seed, then ``repro experiment report --format
all``, repeated on fresh directories until the time budget is spent (at
least twice, so the reports can be compared byte for byte).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from statistics import median

import layers
import shims
from common import BenchError, Context, Metric, Outcome, Pace, children_peak_rss_mb, run_repro

REPORT_FILES = ("report.md", "report.html", "report.csv", "report.json")


def _setup(ctx: Context, root: Path):
    """Write the seed's manifest and build its corpus for the checks."""
    from repro.engine.fingerprint import fingerprint
    from repro.experiment import Manifest, build_corpus

    from inputs import study_manifest

    start = time.monotonic()
    manifest = study_manifest(ctx.seed)
    root.mkdir(parents=True)
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    corpus = build_corpus(Manifest.from_dict(manifest))
    by_fp = {fingerprint(entry.hypergraph): entry.hypergraph for entry in corpus}
    return time.monotonic() - start, path, by_fp


def _iteration(ctx: Context, name: str, spans: Path | None):
    root = ctx.dir / name
    setup, manifest, by_fp = _setup(ctx, root)
    exp = root / "exp"
    start = time.monotonic()
    run_repro(
        ctx, ["experiment", "run", "--dir", str(exp), "--manifest", str(manifest), "--jobs", "2"],
        f"{name}-run.log", spans,
    )
    run_repro(
        ctx, ["experiment", "report", "--dir", str(exp), "--format", "all",
              "--dest", str(root / "report")],
        f"{name}-report.log", spans,
    )
    window = (start, time.monotonic())
    jobs = [json.loads(line) for line in (exp / "jobs.jsonl").read_text().splitlines()]
    reports = {f: (root / "report" / f).read_bytes() for f in REPORT_FILES}
    return setup, window, jobs, reports, by_fp, exp / "store.db"


def _check(out: Outcome, jobs: list[dict], by_fp: dict, reference: dict) -> None:
    """No timeout/error verdicts; hd verdicts equal the frozen reference kernel."""
    from repro.decomp.reference import check_hd_reference

    for job in jobs:
        kind, fp, method, k = job["key"][:4]
        verdict = job["result"]["verdict"]
        if verdict not in ("yes", "no"):
            out.fail(1, f"{method} k={k} on {job['result']['name']}: {verdict}")
            continue
        if method != "hd":
            continue
        if (fp, k) not in reference:
            reference[(fp, k)] = "yes" if check_hd_reference(by_fp[fp], k) is not None else "no"
        if verdict != reference[(fp, k)]:
            out.fail(1, f"hd k={k} on {job['result']['name']}: {verdict}, reference {reference[(fp, k)]}")


def run(ctx: Context, quick: bool = False) -> tuple[Outcome, float]:
    """Untraced iterations until ``ctx.seconds`` pass (two when ``quick``);
    returns (outcome, wall_s)."""
    out = Outcome()
    setups, walls, windows, groups = [], [], [], []
    first_reports = None
    reference: dict = {}
    pace = Pace(ctx)
    started = time.monotonic()
    while len(walls) < 2 or not quick and time.monotonic() - started < ctx.seconds:
        setup, window, jobs, reports, by_fp, _ = _iteration(ctx, f"it{len(walls)}", None)
        setups.append(setup)
        walls.append(window[1] - window[0])
        windows.append(window)
        groups.append([1000 * job["result"]["seconds"] for job in jobs])
        out.attempted += len(jobs) + 1
        _check(out, jobs, by_fp, reference)
        if first_reports is None:
            first_reports = reports
        elif reports != first_reports:
            changed = [f for f in REPORT_FILES if reports[f] != first_reports[f]]
            out.fail(1, f"report files differ between runs of one seed: {changed}")
    m = out.metrics
    m["setup_s"] = Metric(median(setups), "s", len(setups), "manifest + corpus build")
    m["wall_s"] = Metric(median(walls), "s", len(walls), "experiment run + report")
    seconds = [ms for group in groups for ms in group]
    m["p50_ms"] = Metric(median(seconds), "ms", len(seconds), "per-job runtime the study records")
    m["ref_ms"], m["p50_per_ref"] = pace.per_ref(windows, groups)
    m["peak_rss_mb"] = Metric(children_peak_rss_mb(), "MB", len(walls) * 2, "largest repro process")
    out.notes.append(f"{len(jobs)} jobs per run, {len(walls)} runs")
    return out, m["wall_s"].value


def traced(ctx: Context, untraced_wall: float, out: Outcome) -> dict[str, Metric]:
    """One run with every process under the shims; its checks count into
    ``out``."""
    spans_dir = ctx.dir / "spans"
    _, window, jobs, _, by_fp, store = _iteration(ctx, "traced", spans_dir)
    if not jobs:
        raise BenchError("traced study journalled no jobs")
    out.attempted += len(jobs)
    _check(out, jobs, by_fp, {})
    spans = shims.load(spans_dir)
    metrics = layers.compute(spans, store=store)
    wall = window[1] - window[0]
    unattributed = wall - layers.union_seconds(spans, *window)
    metrics["trace.unattributed_ms"] = Metric(1000 * unattributed, "ms", 1, "start-up, imports, glue")
    metrics["trace.unattributed_share"] = Metric(unattributed / wall, "ratio", 1)
    metrics["trace.overhead_ratio"] = Metric(wall / untraced_wall, "ratio", 1, "traced / untraced wall_s")
    return metrics
