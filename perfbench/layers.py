"""Per-layer metrics from the spans of a traced run.

Every workload reports the whole catalogue; a layer the workload never
calls reads 0 with the note "bypassed", which is the truth for counts and
busy times alike.  Self times subtract the child spans that ran inside a
span on the same thread.
"""

from __future__ import annotations

import sqlite3
from collections import defaultdict
from contextlib import closing
from pathlib import Path

from common import Metric

#: name -> (unit, better); the order is the print order.
CATALOGUE: dict[str, tuple[str, str]] = {
    "service.server.self_ms": ("ms", "lower"),
    "service.scheduler.wait_ms": ("ms", "lower"),
    "service.scheduler.replay_ms": ("ms", "lower"),
    "service.scheduler.store_answer_share": ("ratio", "higher"),
    "service.scheduler.jobs_per_wave": ("count", "higher"),
    "service.scheduler.coalesced": ("count", "higher"),
    "engine.engine.wave_self_ms": ("ms", "lower"),
    "engine.engine.executed": ("count", "lower"),
    "engine.engine.cache_hits": ("count", "higher"),
    "engine.engine.pruned": ("count", "higher"),
    "engine.workers.spawn_wire_ms": ("ms", "lower"),
    "engine.workers.processes": ("count", "lower"),
    "engine.workers.race_useful_ratio": ("ratio", "higher"),
    "decomp.hd_s": ("s", "lower"),
    "decomp.portfolio_s": ("s", "lower"),
    "decomp.fracimprove_s": ("s", "lower"),
    "core.components_calls": ("count", "lower"),
    "core.cover_enumerations": ("count", "lower"),
    "core.subedge_closures": ("count", "lower"),
    "core.balance_checks": ("count", "lower"),
    "engine.store.get_us": ("us", "lower"),
    "engine.store.gets": ("count", "lower"),
    "engine.store.hit_rate": ("ratio", "higher"),
    "engine.store.implied_share": ("ratio", "higher"),
    "engine.store.put_ms": ("ms", "lower"),
    "engine.store.puts": ("count", "lower"),
    "engine.store.bytes_per_row": ("B", "lower"),
    "engine.queue.wait_ms": ("ms", "lower"),
    "engine.queue.lease_ms": ("ms", "lower"),
    "engine.queue.complete_ms": ("ms", "lower"),
    "engine.queue.expired": ("count", "lower"),
    "engine.queue.retries": ("count", "lower"),
    "engine.remote.idle_s": ("s", "lower"),
    "experiment.corpus.build_s": ("s", "lower"),
    "experiment.runner.stats_s": ("s", "lower"),
    "experiment.runner.journal_ms": ("ms", "lower"),
    "experiment.report.render_s": ("s", "lower"),
    "trace.unattributed_ms": ("ms", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Children subtracted from a run_batch span to leave the engine's own time;
#: the first three are the worker pool's.
_WAVE_CHILDREN = (
    "workers.run_checked", "workers.map_checks", "workers.race_checks",
    "store.get", "store.put", "runner.journal",
)


def _dur(span) -> float:
    return span[2] - span[1]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def union_seconds(spans, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one span."""
    covered, cursor = 0.0, start
    for _, s, e, *_ in sorted(spans, key=lambda span: span[1]):
        s, e = max(s, cursor), min(e, end)
        if e > s:
            covered += e - s
            cursor = e
    return covered


def store_bytes_per_row(path: Path) -> float:
    """On-disk bytes per result row, after folding the WAL into the file."""
    files = sorted(path.glob("*.db")) if path.is_dir() else [path]
    size = rows = 0
    for db in files:
        with closing(sqlite3.connect(db)) as conn:
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            rows += conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        size += db.stat().st_size
    return size / rows if rows else 0.0


def compute(
    spans: list[list],
    *,
    stats: dict | None = None,
    queue_stats: dict | None = None,
    store: Path | None = None,
) -> dict[str, Metric]:
    """The catalogue from spans plus what the service and queue report.

    ``stats`` is the server's ``/stats`` body, ``queue_stats`` the queue's
    ``stats()`` and ``store`` the store file or shard directory.
    """
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        if not (span[5] or {}).get("error"):  # a call that raised has no result
            by_name[span[0]].append(span)
    out: dict[str, Metric] = {}

    def put(name: str, value: float, samples: int, note: str = "") -> None:
        unit = CATALOGUE[name][0]
        if not samples and not note:
            note = "bypassed"
        out[name] = Metric(float(value), unit, samples, note)

    # service.scheduler: dispatched checks wait until their wave starts
    checks = by_name["scheduler.check"]
    batches = by_name["engine.run_batch"]
    waits = []
    for check in checks:
        if (check[5] or {}).get("source") != "engine":
            continue
        key = check[5]["key"]
        starts = [b[1] for b in batches if b[1] >= check[1] and key in b[5]["keys"]]
        if starts:
            waits.append(min(starts) - check[1])
    put("service.scheduler.wait_ms", 1000 * _mean(waits), len(waits))
    replays = by_name["engine.try_replay"]
    put("service.scheduler.replay_ms", 1000 * _mean(map(_dur, replays)), len(replays))
    service = (stats or {}).get("service")
    if service:
        requests = service["requests"]
        put("service.scheduler.store_answer_share",
            service["store_answers"] / requests if requests else 0.0, requests)
        put("service.scheduler.jobs_per_wave",
            service["wave_jobs"] / service["waves"] if service["waves"] else 0.0,
            service["waves"])
        put("service.scheduler.coalesced", service["coalesced"], requests)
    else:
        for name in ("store_answer_share", "jobs_per_wave", "coalesced"):
            put(f"service.scheduler.{name}", 0.0, 0)

    # engine.engine: wave self time and the batch report counts
    children = defaultdict(list)
    for name in _WAVE_CHILDREN:
        for span in by_name[name]:
            children[(span[3], span[4])].append(span)
    selves = []
    for batch in batches:
        inside = [
            c for c in children[(batch[3], batch[4])] if c[1] >= batch[1] and c[2] <= batch[2]
        ]
        inner = sum(map(_dur, inside))
        if not any(c[0] in _WAVE_CHILDREN[:3] for c in inside):
            # no worker pool (``--jobs 1``): the checks ran inside the wave
            inner += sum(job[1] for job in batch[5]["jobs"])
        selves.append(_dur(batch) - inner)
    put("engine.engine.wave_self_ms", 1000 * _mean(selves), len(batches))
    for field in ("executed", "cache_hits", "pruned"):
        put(f"engine.engine.{field}", sum(b[5][field] for b in batches), len(batches))

    # engine.workers: slot time not covered by kernel seconds, per check
    pool = [s for n in _WAVE_CHILDREN[:3] for s in by_name[n]]
    n_checks = sum(s[5]["checks"] for s in pool)
    overhead = sum(_dur(s) * s[5]["slots"] - s[5]["kernel_s"] for s in pool)
    put("engine.workers.spawn_wire_ms", 1000 * overhead / n_checks if n_checks else 0.0, n_checks)
    put("engine.workers.processes", sum(s[5]["procs"] for s in pool), len(pool))
    races = by_name["workers.race_checks"]
    started = sum(s[5]["procs"] for s in races)
    put("engine.workers.race_useful_ratio",
        sum(s[5]["answered"] for s in races) / started if started else 0.0, len(races))

    # decomp / core: kernel seconds and counters of the executed jobs
    jobs = [job for b in batches for job in b[5]["jobs"]]
    for method in ("hd", "portfolio", "fracimprove"):
        mine = [j for j in jobs if j[0] == method]
        put(f"decomp.{method}_s", sum(j[1] for j in mine), len(mine))
    for counter in ("components_calls", "cover_enumerations", "subedge_closures", "balance_checks"):
        put(f"core.{counter}", sum(j[2].get(counter, 0) for j in jobs), len(jobs))

    # engine.store
    gets, puts = by_name["store.get"], by_name["store.put"]
    hits = [g for g in gets if g[5]["hit"]]
    put("engine.store.get_us", 1e6 * _mean(map(_dur, gets)), len(gets))
    put("engine.store.gets", len(gets), len(gets))
    put("engine.store.hit_rate", len(hits) / len(gets) if gets else 0.0, len(gets))
    put("engine.store.implied_share",
        sum(1 for g in hits if g[5]["implied"]) / len(hits) if hits else 0.0, len(hits))
    put("engine.store.put_ms", 1000 * _mean(map(_dur, puts)), len(puts))
    put("engine.store.puts", len(puts), len(puts))
    if store is not None and store.exists():
        put("engine.store.bytes_per_row", store_bytes_per_row(store), 1)
    else:
        put("engine.store.bytes_per_row", 0.0, 0)

    # engine.queue / engine.remote
    enqueued = {s[5]["job"]: s[2] for s in by_name["queue.enqueue"]}
    leases = [s for s in by_name["queue.lease"] if s[5]["jobs"]]
    waits = [
        lease[2] - enqueued[job]
        for lease in leases for job in lease[5]["jobs"] if job in enqueued
    ]
    put("engine.queue.wait_ms", 1000 * _mean(waits), len(waits))
    put("engine.queue.lease_ms", 1000 * _mean(map(_dur, leases)), len(leases))
    completes = by_name["queue.complete"]
    put("engine.queue.complete_ms", 1000 * _mean(map(_dur, completes)), len(completes))
    counters = (queue_stats or {}).get("counters", {})
    for field in ("expired", "retries"):
        put(f"engine.queue.{field}", counters.get(field, 0), 1 if queue_stats else 0)
    polls = sorted(by_name["queue.poll"], key=lambda s: s[1])
    idle = sum(
        nxt[1] - cur[1] for cur, nxt in zip(polls, polls[1:]) if cur[5]["done"] == 0
    )
    put("engine.remote.idle_s", idle, len(polls))

    # experiment
    for name, span_name, scale in (
        ("experiment.corpus.build_s", "corpus.build", 1.0),
        ("experiment.runner.stats_s", "runner.stats", 1.0),
        ("experiment.runner.journal_ms", "runner.journal", 1000.0),
        ("experiment.report.render_s", "report.render", 1.0),
    ):
        found = by_name[span_name]
        put(name, scale * sum(map(_dur, found)), len(found))
    return out
