"""Tracing shims: time the calls into each layer's public entry points.

:func:`install` wraps the entry points below in place (class attributes
and module globals, so every caller picks the wrapper up); each call
appends one span ``[name, start, end, pid, thread, attrs]`` to an
in-memory list, and :func:`dump` writes the list out when the process
exits.  Nothing under ``src/`` changes.  Times come from
``time.monotonic`` (one system-wide clock on Linux), so spans from the
benchmark, the server and the workers line up on one axis.

Layers and the entry points that stand for them:

=======================  ===================================================
service.scheduler        ``BatchScheduler.check``
engine.engine            ``DecompositionEngine.run_batch`` / ``try_replay``
engine.workers           ``workers.run_checked`` / ``map_checks`` /
                         ``race_checks``
engine.store             ``ResultStore.get`` / ``put``
engine.queue             ``JobQueue.enqueue`` / ``lease`` / ``complete`` /
                         ``poll``
experiment               ``build_corpus``, ``compute_statistics`` (runner),
                         ``Journal`` / ``MetaJournal`` appends,
                         ``write_report``
=======================  ===================================================
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path

SPANS: list[list] = []


def _record(name: str, start: float, attrs) -> None:
    SPANS.append(
        [name, start, time.monotonic(), os.getpid(), threading.get_ident(), attrs]
    )


def _wrap(owner, attr: str, name: str, describe=None) -> None:
    original = getattr(owner, attr)

    def attrs_of(result, args):
        if describe is None:
            return None
        try:
            return describe(result, args)
        except Exception:  # noqa: BLE001 - a shim must never change the program
            return {"error": True}

    if inspect.iscoroutinefunction(original):

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                result = await original(*args, **kwargs)
            except BaseException:
                _record(name, start, {"error": True})
                raise
            _record(name, start, attrs_of(result, args))
            return result

    else:

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                _record(name, start, {"error": True})
                raise
            _record(name, start, attrs_of(result, args))
            return result

    setattr(owner, attr, wrapper)


def _check_attrs(payload, args):
    return {
        "key": [payload.get("fingerprint"), payload.get("method"), payload.get("k")],
        "source": payload.get("source"),
    }


def _batch_attrs(report, args):
    return {
        "keys": [[s.fingerprint, s.method, s.k] for s in args[1]],
        "executed": report.executed,
        "cache_hits": report.cache_hits,
        "pruned": report.pruned,
        "jobs": [
            [r.spec.method, r.seconds, r.counters or {}]
            for r in report.results
            if not r.cached and not r.resumed
        ],
    }


def _run_checked_attrs(outcome, args):
    return {"checks": 1, "slots": 1, "kernel_s": outcome.seconds, "procs": 1}


def _map_checks_attrs(outcomes, args):
    tasks, jobs = args[0], max(1, int(args[1]))
    return {
        "checks": len(tasks),
        "slots": min(jobs, len(tasks)),
        "kernel_s": sum(o.seconds for o in outcomes),
        "procs": len(tasks),
    }


def _race_attrs(result, args):
    winner, per_method = result
    outcomes = list(per_method.values())
    if winner is not None:
        kernel = per_method[winner].seconds
    else:
        kernel = max((o.seconds for o in outcomes), default=0.0)
    return {
        "checks": 1,
        "slots": 1,
        "kernel_s": kernel,
        "procs": len(args[0]),
        "answered": sum(1 for o in outcomes if o.answered),
    }


def _get_attrs(stored, args):
    return {"hit": stored is not None, "implied": bool(stored is not None and stored.implied)}


def install() -> None:
    """Wrap every layer entry point named in the module docstring."""
    import repro.experiment
    import repro.experiment.report
    import repro.experiment.results
    import repro.experiment.runner
    from repro.engine import workers
    from repro.engine.engine import DecompositionEngine
    from repro.engine.jobs import Journal
    from repro.engine.queue import JobQueue
    from repro.engine.store import ResultStore
    from repro.service.scheduler import BatchScheduler

    _wrap(BatchScheduler, "check", "scheduler.check", _check_attrs)
    _wrap(DecompositionEngine, "run_batch", "engine.run_batch", _batch_attrs)
    _wrap(
        DecompositionEngine, "try_replay", "engine.try_replay",
        lambda result, args: {"hit": result is not None},
    )
    _wrap(workers, "run_checked", "workers.run_checked", _run_checked_attrs)
    _wrap(workers, "map_checks", "workers.map_checks", _map_checks_attrs)
    _wrap(workers, "race_checks", "workers.race_checks", _race_attrs)
    _wrap(ResultStore, "get", "store.get", _get_attrs)
    _wrap(ResultStore, "put", "store.put")
    _wrap(
        JobQueue, "enqueue", "queue.enqueue",
        lambda job, args: {"job": job.job_id},
    )
    _wrap(
        JobQueue, "lease", "queue.lease",
        lambda leases, args: {"jobs": [lease.job_id for lease in leases]},
    )
    _wrap(JobQueue, "complete", "queue.complete")
    _wrap(JobQueue, "poll", "queue.poll", lambda done, args: {"done": len(done)})
    for module in (repro.experiment.runner, repro.experiment.results):
        _wrap(module, "build_corpus", "corpus.build")
    _wrap(repro.experiment.runner, "compute_statistics", "runner.stats")
    _wrap(Journal, "append", "runner.journal")
    _wrap(repro.experiment.runner.MetaJournal, "append", "runner.journal")
    for module in (repro.experiment, repro.experiment.report):
        _wrap(module, "write_report", "report.render")


def dump(directory: str | Path) -> None:
    """Write this process's spans to ``<directory>/<pid>.json``."""
    path = Path(directory) / f"{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(SPANS))


def load(directory: Path) -> list[list]:
    """Every span written under ``directory`` (one file per process)."""
    spans: list[list] = []
    if directory.exists():
        for path in sorted(directory.glob("*.json")):
            spans.extend(json.loads(path.read_text()))
    return spans
