"""``queue_wave``: one ``Dispatcher.run_batch`` drained by two pull-workers.

A closed loop with one caller: this process owns the batch (an in-process
:class:`~repro.engine.remote.Dispatcher`, as ``repro serve --queue`` or a
script embeds it) and two ``repro worker --jobs 1`` processes lease, run
and complete its jobs over a fresh queue and a fresh four-shard store.
Each wave gets new workers, a new queue and a new store; waves repeat
until the time budget is spent.
"""

from __future__ import annotations

import random
import sqlite3
import time
from contextlib import closing
from pathlib import Path
from statistics import median

import layers
import shims
from common import BenchError, Context, Metric, Outcome, Pace, children_peak_rss_mb

JOBS = 1000
SHARDS = 4
MIN_WAVES = 3
#: Warm-up jobs per round, and rounds at most, until both workers leased
#: one.  A round must outlast a worker's idle poll (0.2 s), or the worker
#: that polls first drains every round while the other sleeps in phase.
WARMUP_ROUND = 100
WARMUP_ROUNDS = 4


def _specs(seed: int, wave: int):
    """Distinct small checks: each instance asked at one k with DetKDecomp.

    The first ``WARMUP_ROUND * WARMUP_ROUNDS`` bring both workers up."""
    from repro.engine import JobSpec

    from inputs import small_instances

    rng = random.Random(seed * 1000 + wave)
    warmup = WARMUP_ROUND * WARMUP_ROUNDS
    instances = small_instances(seed * 1000 + wave, JOBS + warmup, f"Q{wave}x")
    specs = [JobSpec.check(h, rng.randint(1, 3), method="hd") for h in instances]
    return specs[:warmup], specs[warmup:]


def _ready_workers(queue_path: Path) -> tuple[int, int]:
    """(distinct lease holders so far, highest job id)."""
    with closing(sqlite3.connect(queue_path)) as conn:
        return conn.execute("SELECT COUNT(DISTINCT worker), MAX(id) FROM jobs").fetchone()


def _wave(ctx: Context, index: int, spans: Path | None):
    """Set up queue, store and workers, then time one batch through them.

    Returns the specs run (warm-up rounds first) with their results, for
    :func:`_check`, and the timings of the timed batch."""
    from repro.engine import DecompositionEngine, Dispatcher, JobQueue
    from repro.engine.shards import open_result_store

    warmup, specs = _specs(ctx.seed, index)
    root = ctx.dir / f"wave{index}"
    root.mkdir()
    queue_path, store_path = root / "jobs.db", root / "store.d"
    start = time.monotonic()
    queue = JobQueue(queue_path)
    engine = DecompositionEngine(store=open_result_store(store_path, shards=SHARDS), jobs=1)
    workers = [
        ctx.repro(
            ["worker", "--queue", str(queue_path), "--cache", str(store_path),
             "--shards", str(SHARDS), "--jobs", "1"],
            f"wave{index}-worker{w}.log", spans,
        )
        for w in range(2)
    ]
    dispatcher = Dispatcher(queue, engine=engine)
    ran, results = [], []
    try:
        # both workers up and past their lazy imports before the timed wave
        for first in range(0, len(warmup), WARMUP_ROUND):
            ran += warmup[first:first + WARMUP_ROUND]
            results += dispatcher.run_batch(warmup[first:first + WARMUP_ROUND]).results
            holders, last_warm = _ready_workers(queue_path)
            if holders == 2:
                break
        else:
            raise BenchError("a worker never leased a warm-up job")
        setup = time.monotonic() - start
        begin = time.monotonic()
        results += dispatcher.run_batch(specs).results
        wall = time.monotonic() - begin
        window = (begin, begin + wall)
        stats = queue.stats()
    finally:
        codes = [w.stop() for w in workers]
        engine.close()
        queue.close()
    if any(codes):
        raise BenchError(f"worker exit codes {codes}")
    with closing(sqlite3.connect(queue_path)) as conn:
        latencies = [
            1000 * (done - created)
            for created, done in conn.execute(
                "SELECT created_at, updated_at FROM jobs WHERE id > ?", (last_warm,)
            )
        ]
    return setup, wall, window, (ran + specs, results), stats, latencies, store_path


def _check(out: Outcome, checked, stats) -> None:
    """Verdicts of every job run, warm-up included, equal an in-process
    run_batch; completions equal distinct jobs; no job died."""
    from repro.engine import DecompositionEngine

    specs, results = checked
    out.attempted += len(specs)
    with DecompositionEngine(jobs=1) as engine:
        expected = engine.run_batch(specs).results
    for spec, got, want in zip(specs, results, expected):
        if got.verdict != want.verdict:
            out.fail(1, f"{spec.name} k={spec.k}: {got.verdict}, in-process {want.verdict}")
    distinct = len({spec.key() for spec in specs})
    if stats["counters"]["completed"] != distinct:
        out.fail(0, f"{stats['counters']['completed']} completions for {distinct} distinct jobs")
    if stats["dead"]:
        out.fail(stats["dead"], f"{stats['dead']} dead jobs")


def run(ctx: Context, quick: bool = False) -> tuple[Outcome, float]:
    """Waves until the time budget is spent (at least three; one when
    ``quick``); returns (outcome, wall_s)."""
    out = Outcome()
    setups, walls, windows, groups = [], [], [], []
    pace = Pace(ctx)
    started = time.monotonic()
    while not walls or not quick and (
        len(walls) < MIN_WAVES or time.monotonic() - started < ctx.seconds
    ):
        setup, wall, window, checked, stats, lat, _ = _wave(ctx, len(walls), None)
        _check(out, checked, stats)
        setups.append(setup)
        walls.append(wall)
        windows.append(window)
        groups.append(lat)
    m = out.metrics
    m["setup_s"] = Metric(median(setups), "s", len(setups), "queue + 4-shard store + 2 workers + warm-up")
    m["wall_s"] = Metric(median(walls), "s", len(walls), f"{JOBS} jobs, first enqueue to last result")
    latencies = [latency for group in groups for latency in group]
    m["p50_ms"] = Metric(median(latencies), "ms", len(latencies), "per job, enqueue to completion")
    m["ref_ms"], m["p50_per_ref"] = pace.per_ref(windows, groups)
    m["peak_rss_mb"] = Metric(children_peak_rss_mb(), "MB", 2 * len(walls), "largest repro worker")
    out.notes.append(f"{len(walls)} waves of {JOBS} jobs")
    return out, m["wall_s"].value


def traced(ctx: Context, untraced_wall: float, out: Outcome) -> dict[str, Metric]:
    """One wave with the shims in the dispatcher (here) and both workers;
    its checks count into ``out``."""
    spans_dir = ctx.dir / "spans"
    before = len(shims.SPANS)
    _, wall, window, checked, stats, _, store = _wave(ctx, 99, spans_dir)
    spans = [s for s in shims.SPANS[before:] + shims.load(spans_dir) if s[1] >= window[0]]
    _check(out, checked, stats)  # after taking the spans: it runs a batch too
    metrics = layers.compute(spans, queue_stats=stats, store=store)
    unattributed = wall - layers.union_seconds(spans, *window)
    metrics["trace.unattributed_ms"] = Metric(1000 * unattributed, "ms", 1, "poll sleeps and glue")
    metrics["trace.unattributed_share"] = Metric(unattributed / wall, "ratio", 1)
    metrics["trace.overhead_ratio"] = Metric(wall / untraced_wall, "ratio", 1, "traced / untraced wall_s")
    return metrics
