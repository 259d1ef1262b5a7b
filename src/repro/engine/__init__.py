"""``repro.engine`` — parallel, cache-backed execution of decomposition work.

The engine turns decomposition requests into deployable units of work: a
:class:`~repro.engine.jobs.JobSpec` names *what* to compute (a ``Check(H, k)``
attempt, an exact-width sweep, or a portfolio race), the
:class:`~repro.engine.engine.DecompositionEngine` decides *how* — consulting a
content-addressed :class:`~repro.engine.store.ResultStore` first and only then
dispatching to worker processes with hard, preemptive timeouts
(:mod:`repro.engine.workers`).  Batch runs journal every finished job so an
interrupted sweep resumes where it stopped.

Layering::

    cli / analysis / benchmark
            |
    DecompositionEngine  ---consults--->  ResultStore (SQLite)
            |                                  ^ keyed by fingerprint()
    workers (process pool, hard timeouts)      |
            |                                  |
    decomp.driver.timed_check  --outcomes------+

Sequential in-process execution (``jobs=1``, no store) remains the default
everywhere, so existing callers and tests keep their deterministic behaviour.
"""

from repro.engine.engine import BatchReport, DecompositionEngine, EngineStats
from repro.engine.fingerprint import canonical_form, fingerprint, structural_fingerprint
from repro.engine.jobs import JobResult, JobSpec, Journal
from repro.engine.methods import (
    CHECK_METHODS,
    MethodSpec,
    register_check as register_method,
    resolve as resolve_method,
)
from repro.engine.queue import JobLease, JobQueue
from repro.engine.remote import Dispatcher, QueueWorker
from repro.engine.shards import ShardedResultStore, open_result_store
from repro.engine.store import (
    MONOTONE_METHODS,
    WIDTH_RELATIONS,
    ResultStore,
    StoredResult,
    WidthRelation,
)
from repro.engine.workers import (
    CallFailure,
    map_callables,
    map_checks,
    race_checks,
    run_checked,
)

__all__ = [
    "DecompositionEngine",
    "EngineStats",
    "BatchReport",
    "ResultStore",
    "ShardedResultStore",
    "open_result_store",
    "StoredResult",
    "JobQueue",
    "JobLease",
    "QueueWorker",
    "Dispatcher",
    "MONOTONE_METHODS",
    "WIDTH_RELATIONS",
    "WidthRelation",
    "MethodSpec",
    "JobSpec",
    "JobResult",
    "Journal",
    "fingerprint",
    "structural_fingerprint",
    "canonical_form",
    "CHECK_METHODS",
    "register_method",
    "resolve_method",
    "run_checked",
    "race_checks",
    "map_checks",
    "map_callables",
    "CallFailure",
]
