"""A SQLite-backed persistent job queue for distributed dispatch.

The queue is the durable hand-off point between a dispatcher (the process
that *owns* a batch — ``repro serve --queue`` or a
:class:`~repro.engine.remote.Dispatcher` embedded in a script) and any
number of pull-workers (``repro worker``) that may live in other processes
or on other hosts sharing the queue file.  A row is one serialised
:class:`~repro.engine.jobs.JobSpec` plus its lifecycle state:

.. code-block:: text

    pending ──lease──▶ leased ──complete──▶ done
       ▲                 │ │
       │        fail ────┘ └──── lease expires (requeue_expired)
       │                 │
       └──backoff── failed                    attempts budget spent
                         └────────────────▶ dead

``pending`` and ``failed`` rows are *leasable* (``failed`` only once its
exponential-backoff ``not_before`` passes); ``done`` and ``dead`` are
terminal.  A lease grants one worker exclusive execution rights until its
deadline; the worker heartbeats :meth:`JobQueue.extend` while executing and
the deadline is **monotone** — an extension never shrinks it.  Workers that
die silently (SIGKILL, OOM, powered-off host) are handled by the
:meth:`JobQueue.requeue_expired` sweeper: once a lease deadline passes, the
job returns to the leasable pool (consuming one attempt) or goes ``dead``
when its per-job attempt budget is spent.

Completion is fenced: :meth:`complete` and :meth:`fail` only apply while the
caller still holds the live lease, so a worker that lost its lease to the
sweeper cannot overwrite the re-execution's result — re-leased jobs finish
exactly once in the queue no matter how many zombies report late.  A worker
completes a whole wave in one transaction, fenced row by row.

Concurrency mirrors :class:`~repro.engine.store.ResultStore`: every public
method serialises on an internal RLock, the file is opened by
:func:`repro.engine.db.connect` (WAL mode; a statement that finds the write
lock taken retries in 0.1-2 ms steps for up to 5 s, where SQLite's own busy
handler would sleep 1, 2, 5, 10 … ms), and every read-modify-write step
(leasing, sweeping) runs inside one :func:`repro.engine.db.transaction`
(``BEGIN IMMEDIATE``) so two worker *processes* can never lease the same
row.  A call holds the write lock only for its SQL: results and payloads
are serialised before ``BEGIN`` and parsed after ``COMMIT``, and a sweep
that finds nothing expired takes no write lock at all.

Time is read through an injectable ``clock`` callable (default
:func:`time.time`) so tests can skew it to expire leases deterministically.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.hypergraph import Hypergraph
from repro.engine.db import connect, transaction
from repro.engine.jobs import JobSpec
from repro.errors import ReproError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TraceContext

__all__ = [
    "JobQueue",
    "JobLease",
    "EnqueuedJob",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "DEAD",
    "payload_from_spec",
    "spec_from_payload",
]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
DEAD = "dead"

#: States a lease can be granted from.
_LEASABLE = (PENDING, FAILED)
#: The same states as a literal condition, for the partial index and the
#: lease query that must repeat it.
_LEASABLE_SQL = "state IN ({})".format(", ".join(f"'{s}'" for s in _LEASABLE))
#: States no transition ever leaves.
TERMINAL = (DONE, DEAD)
#: Job ids :meth:`JobQueue.poll` binds per query.
_POLL_CHUNK = 500

# Process-wide queue metric families, published at the mutation sites (the
# cross-process truth lives in the queue file's own counters — see
# JobQueue.stats(); these families describe *this* process's activity).
_M_ENQUEUED = REGISTRY.counter(
    "repro_queue_enqueued_total", "Jobs enqueued into a persistent job queue."
)
_M_LEASED = REGISTRY.counter(
    "repro_queue_leased_total", "Job leases granted to pull-workers."
)
_M_COMPLETED = REGISTRY.counter(
    "repro_queue_completed_total", "Queue jobs completed by their lease holder."
)
_M_FAILED = REGISTRY.counter(
    "repro_queue_failed_total", "Queue job attempts reported failed."
)
_M_EXPIRED = REGISTRY.counter(
    "repro_queue_expired_total", "Leases revoked by the expiry sweeper."
)
_M_RETRIES = REGISTRY.counter(
    "repro_queue_retries_total",
    "Jobs returned to the leasable pool after a failed or expired attempt.",
)
_M_DEAD = REGISTRY.counter(
    "repro_queue_dead_total", "Jobs declared dead after their attempt budget."
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    key            TEXT NOT NULL UNIQUE,
    payload        TEXT NOT NULL,
    state          TEXT NOT NULL DEFAULT 'pending',
    attempts       INTEGER NOT NULL DEFAULT 0,
    max_attempts   INTEGER NOT NULL DEFAULT 3,
    not_before     REAL NOT NULL DEFAULT 0,
    worker         TEXT,
    lease_deadline REAL,
    result         TEXT,
    error          TEXT,
    created_at     REAL NOT NULL,
    updated_at     REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, not_before, id);
CREATE INDEX IF NOT EXISTS jobs_leasable ON jobs (id) WHERE {leasable};
CREATE TABLE IF NOT EXISTS queue_meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
""".format(leasable=_LEASABLE_SQL)

#: The oldest leasable rows, read from ``jobs_leasable`` in id order so the
#: backlog is never sorted.  The planner uses a partial index only when the
#: query repeats its literal condition, and picks this one only when named.
_LEASE_SQL = (
    "SELECT id, key, payload, attempts, max_attempts FROM jobs"
    f" INDEXED BY jobs_leasable WHERE {_LEASABLE_SQL} AND not_before <= ?"
    " ORDER BY id LIMIT ?"
)


def payload_from_spec(spec: JobSpec) -> dict:
    """Serialise a :class:`JobSpec` into the JSON carried by a queue row.

    Unlike journal lines, queue payloads must carry the hypergraph itself —
    the leasing worker has never seen the instance.  Edges are written as
    sorted vertex lists so payloads are byte-stable for identical specs.

    >>> from repro.core.hypergraph import Hypergraph
    >>> h = Hypergraph({"r": ["x", "y"], "s": ["y", "z"]}, name="path")
    >>> spec = JobSpec.check(h, 2, method="hd")
    >>> spec_from_payload(payload_from_spec(spec)).key() == spec.key()
    True
    """
    payload = {
        "kind": spec.kind,
        "method": spec.method,
        "k": spec.k,
        "max_k": spec.max_k,
        "timeout": spec.timeout,
        "name": spec.hypergraph.name,
        "edges": {
            name: sorted(vertices)
            for name, vertices in spec.hypergraph.edges.items()
        },
    }
    if spec.trace is not None:
        payload["trace"] = [spec.trace[0], spec.trace[1]]
    return payload


def spec_from_payload(payload: dict) -> JobSpec:
    """Rebuild the :class:`JobSpec` a queue row carries (worker side)."""
    hypergraph = Hypergraph(payload["edges"], name=str(payload.get("name", "")))
    trace = payload.get("trace")
    return JobSpec(
        kind=str(payload["kind"]),
        hypergraph=hypergraph,
        method=str(payload.get("method", "hd")),
        k=payload.get("k"),
        max_k=payload.get("max_k"),
        timeout=payload.get("timeout"),
        trace=TraceContext(trace[0], trace[1]) if trace else None,
    )


@dataclass(frozen=True)
class JobLease:
    """One granted lease: the job, its payload, and the deadline to beat."""

    job_id: int
    key: tuple
    payload: dict
    attempts: int
    max_attempts: int
    deadline: float

    def spec(self) -> JobSpec:
        return spec_from_payload(self.payload)


@dataclass(frozen=True)
class EnqueuedJob:
    """The (idempotent) outcome of one enqueue: the row as it now stands."""

    job_id: int
    state: str
    #: The stored result payload when the job already finished (``done``).
    result: dict | None
    #: False when an identical job (same spec key) was already queued.
    created: bool


class JobQueue:
    """Durable lease-based job queue; share one file between processes.

    >>> from repro.core.hypergraph import Hypergraph
    >>> queue = JobQueue()                           # ephemeral, in-memory
    >>> h = Hypergraph({"r": ["x", "y"]}, name="h")
    >>> job = queue.enqueue(JobSpec.check(h, 1))
    >>> lease = queue.lease("w1", 1)[0]
    >>> queue.lease("w2", 1)                         # no double-lease
    []
    >>> queue.complete("w1", {lease.job_id: {"verdict": "yes"}})
    [1]
    >>> queue.stats()["done"]
    1

    Parameters
    ----------
    path:
        SQLite file path, or ``":memory:"`` for an ephemeral queue (single
        process only — cross-process sharing needs a file).
    max_attempts:
        Default per-job lease budget: how many times a job may be leased
        before an expiry or failure sends it to ``dead``.
    backoff / backoff_cap:
        Exponential retry delay: attempt ``n``'s failure parks the job for
        ``min(backoff * 2**(n-1), backoff_cap)`` seconds.
    lease_seconds:
        Default lease duration when :meth:`lease`/:meth:`extend` omit one.
    clock:
        Time source (seconds).  Injectable for deterministic lease-expiry
        tests; every process sharing a queue file must use comparable
        clocks (the default, wall time, is the sane choice).
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        max_attempts: int = 3,
        backoff: float = 0.25,
        backoff_cap: float = 30.0,
        lease_seconds: float = 30.0,
        clock=time.time,
    ):
        self.path = str(path)
        self.max_attempts = max(1, int(max_attempts))
        self.backoff = max(0.0, float(backoff))
        self.backoff_cap = max(0.0, float(backoff_cap))
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        self._lock = threading.RLock()
        self._conn = connect(self.path, _SCHEMA, "job queue")

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0]

    # --------------------------------------------------------------- enqueue

    def enqueue(
        self,
        spec: JobSpec | dict,
        key: tuple | None = None,
        max_attempts: int | None = None,
    ) -> EnqueuedJob:
        """Add one job; idempotent on the spec's content-addressed key.

        Re-enqueueing an identical job (same :meth:`JobSpec.key`) returns
        the existing row — including its stored result when it already
        finished, which is how a restarted dispatcher reconciles completions
        it never saw (see :class:`~repro.engine.remote.Dispatcher`).
        """
        if isinstance(spec, JobSpec):
            payload = payload_from_spec(spec)
            key = spec.key()
        else:
            if key is None:
                raise ReproError("enqueue of a raw payload needs an explicit key")
            payload = dict(spec)
        key_text = json.dumps(list(key))
        payload_text = json.dumps(payload, sort_keys=True)
        budget = self.max_attempts if max_attempts is None else max(1, int(max_attempts))
        with self._lock, transaction(self._conn):
            row = self._conn.execute(
                "SELECT id, state, result FROM jobs WHERE key = ?", (key_text,)
            ).fetchone()
            if row is None:
                now = self.clock()
                cursor = self._conn.execute(
                    "INSERT INTO jobs (key, payload, state, attempts, max_attempts,"
                    " not_before, created_at, updated_at)"
                    " VALUES (?, ?, ?, 0, ?, 0, ?, ?)",
                    (key_text, payload_text, PENDING, budget, now, now),
                )
                self._bump("enqueued")
        if row is not None:
            job_id, state, result = row
            return EnqueuedJob(job_id, state, json.loads(result) if result else None, False)
        _M_ENQUEUED.inc()
        return EnqueuedJob(cursor.lastrowid, PENDING, None, True)

    # ---------------------------------------------------------------- leases

    def lease(
        self,
        worker_id: str,
        n: int = 1,
        lease_seconds: float | None = None,
    ) -> list[JobLease]:
        """Grant up to ``n`` exclusive leases to ``worker_id`` (oldest first).

        Only leasable rows whose backoff has elapsed are considered; granting
        consumes one attempt from each job's budget.  The SELECT and UPDATE
        run in one immediate transaction, so concurrent workers (threads or
        processes) can never lease the same row while its lease is live.
        """
        seconds = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        with self._lock, transaction(self._conn):
            now = self.clock()
            rows = self._conn.execute(_LEASE_SQL, (now, max(0, int(n)))).fetchall()
            deadline = now + seconds
            for job_id, *_ in rows:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, worker = ?, lease_deadline = ?,"
                    " attempts = attempts + 1, updated_at = ? WHERE id = ?",
                    (LEASED, worker_id, deadline, now, job_id),
                )
            if rows:
                self._bump("leased", len(rows))
        _M_LEASED.inc(len(rows))
        return [
            JobLease(
                job_id,
                tuple(json.loads(key_text)),
                json.loads(payload_text),
                attempts + 1,
                budget,
                deadline,
            )
            for job_id, key_text, payload_text, attempts, budget in rows
        ]

    def extend(
        self,
        worker_id: str,
        job_ids: list[int],
        lease_seconds: float | None = None,
    ) -> int:
        """Heartbeat: push the lease deadlines of still-held jobs forward.

        Deadlines are monotone — ``MAX(current, now + lease_seconds)`` — so a
        late heartbeat never shortens a lease.  Returns how many of the jobs
        were actually extended; a job missing from the count lost its lease
        (expired and re-leased elsewhere) and its work should be abandoned.
        """
        if not job_ids:
            return 0
        seconds = self.lease_seconds if lease_seconds is None else float(lease_seconds)
        marks = ",".join("?" for _ in job_ids)
        with self._lock, transaction(self._conn):
            now = self.clock()
            cursor = self._conn.execute(
                f"UPDATE jobs SET lease_deadline = MAX(lease_deadline, ?),"
                f" updated_at = ? WHERE state = ? AND worker = ?"
                f" AND id IN ({marks})",
                (now + seconds, now, LEASED, worker_id, *job_ids),
            )
            return cursor.rowcount

    def complete(self, worker_id: str, results: dict[int, dict]) -> list[int]:
        """Record a wave's finished jobs, ``{job_id: result}``, in one
        transaction; only the live lease holder of each job may.

        Returns the ids that completed.  A job missing from the list had its
        lease revoked (the sweeper expired it, or another worker completed
        the re-lease): its result is discarded, so re-executed jobs finish
        exactly once here.
        """
        texts = {
            job_id: json.dumps(result, sort_keys=True)
            for job_id, result in results.items()
        }
        done: list[int] = []
        with self._lock, transaction(self._conn):
            now = self.clock()
            for job_id, text in texts.items():
                cursor = self._conn.execute(
                    "UPDATE jobs SET state = ?, result = ?, error = NULL,"
                    " updated_at = ? WHERE id = ? AND state = ? AND worker = ?",
                    (DONE, text, now, job_id, LEASED, worker_id),
                )
                if cursor.rowcount == 1:
                    done.append(job_id)
            if done:
                self._bump("completed", len(done))
        _M_COMPLETED.inc(len(done))
        return done

    def fail(self, worker_id: str, job_id: int, error: str) -> bool:
        """Report a failed attempt; backoff-retries or kills the job.

        With budget left the job parks in ``failed`` until its exponential
        backoff elapses; otherwise it goes ``dead`` with the error recorded.
        Same lease fencing as :meth:`complete`.
        """
        with self._lock, transaction(self._conn):
            row = self._conn.execute(
                "SELECT attempts, max_attempts FROM jobs"
                " WHERE id = ? AND state = ? AND worker = ?",
                (job_id, LEASED, worker_id),
            ).fetchone()
            if row is None:
                return False
            attempts, budget = row
            now = self.clock()
            died = attempts >= budget
            if died:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, worker = NULL,"
                    " lease_deadline = NULL, updated_at = ? WHERE id = ?",
                    (DEAD, error, now, job_id),
                )
                self._bump("dead")
            else:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, error = ?, worker = NULL,"
                    " lease_deadline = NULL, not_before = ?, updated_at = ?"
                    " WHERE id = ?",
                    (FAILED, error, now + self._backoff_for(attempts), now, job_id),
                )
                self._bump("retries")
            self._bump("failed")
        _M_FAILED.inc()
        (_M_DEAD if died else _M_RETRIES).inc()
        return True

    def _backoff_for(self, attempts: int) -> float:
        """Exponential backoff after the ``attempts``-th attempt failed."""
        return min(self.backoff * 2 ** max(0, attempts - 1), self.backoff_cap)

    def requeue_expired(self) -> int:
        """Sweep expired leases back to the pool (or to ``dead``).

        The recovery path for silently dead workers: every leased row whose
        deadline passed is either returned to the leasable pool (budget
        permitting, with backoff) or declared ``dead``.  Returns how many
        leases were revoked.  Dispatchers run this periodically; ``repro
        queue requeue`` runs it manually.  A sweep that finds nothing
        expired is one read and takes no write lock.
        """
        with self._lock:
            if not self._conn.execute(
                "SELECT 1 FROM jobs WHERE state = ? AND lease_deadline < ? LIMIT 1",
                (LEASED, self.clock()),
            ).fetchone():
                return 0
        with self._lock, transaction(self._conn):
            now = self.clock()
            rows = self._conn.execute(
                "SELECT id, attempts, max_attempts FROM jobs"
                " WHERE state = ? AND lease_deadline < ?",
                (LEASED, now),
            ).fetchall()
            died = retried = 0
            for job_id, attempts, budget in rows:
                if attempts >= budget:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, error = ?, worker = NULL,"
                        " lease_deadline = NULL, updated_at = ? WHERE id = ?",
                        (DEAD, f"lease expired after {attempts} attempts", now, job_id),
                    )
                    died += 1
                else:
                    self._conn.execute(
                        "UPDATE jobs SET state = ?, worker = NULL,"
                        " lease_deadline = NULL, not_before = ?, updated_at = ?"
                        " WHERE id = ?",
                        (PENDING, now + self._backoff_for(attempts), now, job_id),
                    )
                    retried += 1
            if rows:
                self._bump("expired", len(rows))
                if died:
                    self._bump("dead", died)
                if retried:
                    self._bump("retries", retried)
        _M_EXPIRED.inc(len(rows))
        _M_DEAD.inc(died)
        _M_RETRIES.inc(retried)
        return len(rows)

    def resurrect_dead(self) -> int:
        """Give every ``dead`` job a fresh attempt budget (operator override)."""
        with self._lock, transaction(self._conn):
            cursor = self._conn.execute(
                "UPDATE jobs SET state = ?, attempts = 0, error = NULL,"
                " not_before = 0, updated_at = ? WHERE state = ?",
                (PENDING, self.clock(), DEAD),
            )
            return cursor.rowcount

    # --------------------------------------------------------------- reading

    def poll(self, job_ids: list[int]) -> dict[int, tuple[str, dict | None, str | None]]:
        """Terminal outcomes among ``job_ids``: ``{id: (state, result, error)}``.

        Only ``done``/``dead`` rows are returned; the dispatcher's wait loop
        calls this until every job it enqueued shows up.  The ids are bound
        500 at a time, under every SQLite build's limit on host parameters
        (999 before SQLite 3.32).
        """
        rows = []
        with self._lock:
            for first in range(0, len(job_ids), _POLL_CHUNK):
                chunk = job_ids[first:first + _POLL_CHUNK]
                marks = ",".join("?" for _ in chunk)
                rows += self._conn.execute(
                    f"SELECT id, state, result, error FROM jobs"
                    f" WHERE id IN ({marks}) AND state IN (?, ?)",
                    (*chunk, DONE, DEAD),
                ).fetchall()
        return {
            job_id: (state, json.loads(result) if result else None, error)
            for job_id, state, result, error in rows
        }

    def job(self, job_id: int) -> dict | None:
        """One row as a dict (introspection / tests), or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT id, key, state, attempts, max_attempts, not_before,"
                " worker, lease_deadline, result, error FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        names = (
            "id", "key", "state", "attempts", "max_attempts", "not_before",
            "worker", "lease_deadline", "result", "error",
        )
        record = dict(zip(names, row))
        record["key"] = tuple(json.loads(record["key"]))
        record["result"] = json.loads(record["result"]) if record["result"] else None
        return record

    def stats(self) -> dict:
        """Queue health as one dict: per-state counts, lifetime counters,
        and ``depth`` (rows leasable right now — backoff-parked rows are in
        ``backlog`` but not ``depth``)."""
        with self._lock:
            now = self.clock()
            states = dict.fromkeys((PENDING, LEASED, DONE, FAILED, DEAD), 0)
            for state, count in self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ):
                states[state] = count
            marks = ",".join("?" for _ in _LEASABLE)
            depth = self._conn.execute(
                f"SELECT COUNT(*) FROM jobs WHERE state IN ({marks})"
                f" AND not_before <= ?",
                (*_LEASABLE, now),
            ).fetchone()[0]
            counters = {
                key: self._meta(key)
                for key in (
                    "enqueued", "leased", "completed", "failed",
                    "expired", "retries", "dead",
                )
            }
        return {
            **states,
            "total": sum(states.values()),
            "depth": depth,
            "backlog": states[PENDING] + states[FAILED],
            "counters": counters,
        }

    # ------------------------------------------------------------- accounting

    def _bump(self, key: str, amount: int = 1) -> None:
        self._conn.execute(
            "INSERT INTO queue_meta (key, value) VALUES (?, ?)"
            " ON CONFLICT(key) DO UPDATE SET value = value + ?",
            (key, amount, amount),
        )

    def _meta(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM queue_meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobQueue {self.path!r}: {len(self)} jobs>"
