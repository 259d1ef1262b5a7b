"""Pull-workers and the dispatcher: distributed execution over a job queue.

Two roles share one :class:`~repro.engine.queue.JobQueue` file:

**Workers** (``repro worker --queue Q --cache C``, any number, any host that
can reach the two paths) run :class:`QueueWorker`: lease a wave of jobs,
rebuild their :class:`~repro.engine.jobs.JobSpec`\\ s, execute them through a
local :class:`~repro.engine.engine.DecompositionEngine` — which means the
existing packed wire protocol, kernel counters, ``worker.exec`` spans, and
write-back through the (shared, possibly sharded) result store all apply
unchanged — and report the wave in one
:meth:`~repro.engine.queue.JobQueue.complete` transaction, or
:meth:`~repro.engine.queue.JobQueue.fail` each job when the wave raised.
One daemon heartbeat thread per worker extends the leases of the wave in
flight at a third of the lease interval, so slow jobs are not swept out from
under a *live* worker; a SIGKILLed worker stops heartbeating and its leases
simply expire.  An idle worker sleeps a few milliseconds after its first
empty lease and doubles the sleep with each further one, up to its ``poll``.

The **dispatcher** (:class:`Dispatcher`) is the batch owner's side: the
queue executor behind the engine's one batch path.  The engine's wave
resumes, replays and journals as always; the dispatcher enqueues the cold
jobs and waits for workers to finish them, sweeping expired leases while
it waits.  Enqueueing is idempotent on the spec's content-addressed key,
so a dispatcher that crashed after enqueueing reconciles on restart: jobs
the workers finished in the meantime are adopted as resumed results, jobs
still queued are simply waited for again.

The split keeps every correctness property in one place: the queue proves
exclusive leases and exactly-once completion, the store proves verdicts,
and the dispatcher only *routes* — it never interprets results beyond the
journal payloads workers produce.
"""

from __future__ import annotations

import logging
import os
import socket
import sqlite3
import threading
import time
import uuid
from collections.abc import Iterator

from repro.engine.engine import BatchReport, DecompositionEngine
from repro.engine.jobs import ERROR, JobResult, JobSpec, Journal
from repro.engine.queue import DEAD, DONE, JobLease, JobQueue
from repro.errors import ReproError
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.perf import counters as _kernel_counters, publish_delta

__all__ = ["QueueWorker", "Dispatcher", "run_worker"]

logger = logging.getLogger("repro.remote")

_M_WAVES = REGISTRY.counter(
    "repro_worker_waves_total", "Leased waves executed by queue workers."
)
_M_JOBS = REGISTRY.counter(
    "repro_worker_jobs_total", "Queue jobs executed by queue workers."
)
_M_LOST = REGISTRY.counter(
    "repro_worker_lost_leases_total",
    "Job results discarded because the lease was revoked mid-execution.",
)


def default_worker_id() -> str:
    """A worker identity unique across hosts, processes, and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


#: The first idle sleep after an empty lease.  Each further empty lease
#: doubles it, up to the worker's ``poll``; a granted lease restarts it.
_FIRST_IDLE_SLEEP = 0.005


class QueueWorker:
    """One pull-loop worker: lease, execute, report, heartbeat.

    :meth:`run` starts one daemon heartbeat thread for its whole life.  Every
    third of the lease interval it extends the leases of the wave in flight
    (none between waves), so two beats may be missed (scheduler stalls, GC
    pauses) before a lease can expire.  A SIGKILLed worker takes its
    heartbeat with it, which is exactly what lets the sweeper reclaim the
    leases.  A wave's results are completed in one queue transaction.

    Parameters
    ----------
    queue / engine:
        The shared job queue and the local execution engine.  The engine's
        store should be the cache shared with the dispatcher (same file or
        shard directory), so completed verdicts are visible to everyone.
    worker_id:
        Lease-holder identity; defaults to ``host-pid-random``.
    lease_n:
        Maximum jobs leased per wave (the wave executes as one
        ``run_batch``, so this is also the worker's fan-out unit).
    lease_seconds:
        Lease duration granted and heartbeat-extended while executing.
    poll:
        The longest idle sleep between empty lease attempts.  The first
        sleep is a few milliseconds and doubles with each further empty
        lease, so a worker that just went idle picks up new work within
        milliseconds, and one idle for a while polls once per ``poll``.
    """

    def __init__(
        self,
        queue: JobQueue,
        engine: DecompositionEngine,
        worker_id: str | None = None,
        lease_n: int = 4,
        lease_seconds: float = 30.0,
        poll: float = 0.2,
    ):
        self.queue = queue
        self.engine = engine
        self.worker_id = worker_id or default_worker_id()
        self.lease_n = max(1, int(lease_n))
        self.lease_seconds = float(lease_seconds)
        self.poll = float(poll)
        self.waves = 0
        self.completed = 0
        self.failed = 0
        self.lost = 0
        self._stopping = False
        #: Job ids of the wave in flight, which the heartbeat extends.
        self._held: list[int] = []

    def stop(self) -> None:
        """Ask the pull loop to exit after the current wave.

        Only sets a flag, which the loop reads between waves and idle
        polls, and takes no lock: ``run_worker``'s signal handler calls it
        on the loop's own thread, at any point of the loop, where taking a
        lock the loop holds (an ``Event.wait`` holds one) would deadlock.
        """
        self._stopping = True

    def run(
        self,
        max_idle: float | None = None,
        max_waves: int | None = None,
    ) -> int:
        """Pull and execute waves until stopped; returns jobs completed.

        ``max_idle`` exits after that many consecutive seconds without a
        lease (None = run forever); ``max_waves`` caps executed waves (test
        and smoke harnesses).  Both conditions are checked between waves —
        a wave in flight always finishes.
        """
        finished = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat,
            args=(finished,),
            name=f"heartbeat-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        try:
            self._pull(max_idle, max_waves)
        finally:
            # joined, so no extend reaches the queue after run returns
            finished.set()
            heartbeat.join()
        return self.completed

    def _pull(self, max_idle: float | None, max_waves: int | None) -> None:
        idle_since: float | None = None
        sleep = 0.0
        while not self._stopping:
            if max_waves is not None and self.waves >= max_waves:
                return
            with TRACER.span(
                "worker.lease", worker=self.worker_id, want=self.lease_n
            ) as span:
                leases = self.queue.lease(
                    self.worker_id, self.lease_n, self.lease_seconds
                )
                span.set(granted=len(leases))
            if leases:
                idle_since, sleep = None, 0.0
                self.waves += 1
                _M_WAVES.inc()
                self._execute_wave(leases)
                continue
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif max_idle is not None and now - idle_since >= max_idle:
                return
            sleep = min(self.poll, 2 * sleep or _FIRST_IDLE_SLEEP)
            time.sleep(sleep)

    def _heartbeat(self, finished: threading.Event) -> None:
        interval = max(0.05, self.lease_seconds / 3.0)
        while not finished.wait(interval):
            held = self._held
            if not held:
                continue
            try:
                self.queue.extend(self.worker_id, held, self.lease_seconds)
            except sqlite3.Error as exc:
                # one missed beat is survivable; a dead heartbeat thread
                # would let every later wave's leases expire
                logger.warning("heartbeat of %s failed: %s", self.worker_id, exc)

    def _execute_wave(self, leases: list[JobLease]) -> None:
        specs: list[JobSpec] = []
        parsed: list[JobLease] = []
        for lease in leases:
            try:
                specs.append(lease.spec())
                parsed.append(lease)
            except (KeyError, TypeError, ValueError) as exc:
                # A payload this worker cannot rebuild will fail everywhere;
                # burn its attempts through the normal budget so it lands in
                # `dead` with the parse error recorded, not in a hot loop.
                self.queue.fail(self.worker_id, lease.job_id, f"bad payload: {exc}")
        if not parsed:
            return
        self._held = [lease.job_id for lease in parsed]
        try:
            report = self.engine.run_batch(specs)
        except Exception as exc:  # noqa: BLE001 - a wave must never kill the loop
            for lease in parsed:
                if self.queue.fail(self.worker_id, lease.job_id, repr(exc)):
                    self.failed += 1
            return
        finally:
            self._held = []
        done = self.queue.complete(
            self.worker_id,
            {lease.job_id: result.payload() for lease, result in zip(parsed, report.results)},
        )
        self.completed += len(done)
        _M_JOBS.inc(len(done))
        # A job missing from `done` had its lease revoked by the sweeper
        # mid-execution (e.g. the wave outran even the heartbeats); the
        # re-lease owns the outcome now.  The verdict itself is not lost —
        # run_batch already wrote it to the shared store, so the
        # re-execution replays it from cache.
        lost = len(parsed) - len(done)
        self.lost += lost
        _M_LOST.inc(lost)


def run_worker(
    queue_path: str,
    cache_path: str | None,
    jobs: int = 1,
    shards: int | None = None,
    worker_id: str | None = None,
    lease_n: int = 4,
    lease_seconds: float = 30.0,
    poll: float = 0.2,
    max_idle: float | None = None,
    max_waves: int | None = None,
) -> int:
    """CLI entry: run one pull-worker process until idle/stopped.

    Imported lazily by ``repro worker``; returns the completed-job count
    (the process exit code is 0 regardless — an idle worker is not an
    error).  SIGTERM/SIGINT ask the pull loop to stop *after the current
    wave* — leased jobs finish and report rather than being abandoned to
    the lease sweeper (SIGKILL remains the crash-drill path).
    """
    import signal as _signal

    from repro.engine.shards import open_result_store

    store = open_result_store(cache_path, shards=shards)
    with JobQueue(queue_path) as queue, DecompositionEngine(
        store=store, jobs=jobs
    ) as engine:
        worker = QueueWorker(
            queue,
            engine,
            worker_id=worker_id,
            lease_n=lease_n,
            lease_seconds=lease_seconds,
            poll=poll,
        )
        previous = {}
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                previous[sig] = _signal.signal(
                    sig, lambda _sig, _frame: worker.stop()
                )
            except ValueError:  # pragma: no cover - not the main thread
                pass
        try:
            return worker.run(max_idle=max_idle, max_waves=max_waves)
        finally:
            for sig, handler in previous.items():
                _signal.signal(sig, handler)


class Dispatcher:
    """The queue executor behind the engine's one batch path.

    :meth:`run_batch` is the ``engine``'s batch wave (a store-less engine's
    when none is given) with only its cold jobs handed to the queue.
    Workers execute those; the dispatcher sweeps expired leases while it
    waits, which makes worker crash recovery progress even when every
    worker is dead (the re-queued job is picked up by whichever worker
    returns first).

    ``run_batch`` blocks until every job is terminal, so it can sit behind
    :class:`~repro.service.scheduler.BatchScheduler`'s executor-thread
    dispatch exactly like the engine does.
    """

    def __init__(
        self,
        queue: JobQueue,
        engine: DecompositionEngine | None = None,
        poll: float = 0.05,
        sweep_interval: float = 0.5,
        wait_timeout: float | None = None,
    ):
        self.queue = queue
        self.engine = engine if engine is not None else DecompositionEngine()
        self.poll = float(poll)
        self.sweep_interval = float(sweep_interval)
        #: Overall wait cap per run_batch (None = wait forever).  Mostly a
        #: test/smoke guard: a production dispatcher should wait, because
        #: the sweeper guarantees every job terminates in done|dead.
        self.wait_timeout = wait_timeout
        self.dispatched = 0
        self.reconciled = 0

    def run_batch(
        self,
        specs: list[JobSpec],
        journal: "str | Journal | None" = None,
        deadline: float | None = None,
    ) -> BatchReport:
        """Execute a job list through the queue; same contract as the engine.

        ``resumed`` also counts jobs adopted from queue rows a previous run
        finished, and ``cache_hits`` jobs the leasing worker found stored.

        ``deadline`` bounds *this call's* queue wait, in seconds: once it
        passes, still-pending jobs resolve as ``error`` results ("deadline
        exceeded") and the batch returns — the scheduler's deadline
        propagation, hop four.  The jobs themselves stay in the queue;
        whichever worker leases them still writes their verdicts to the
        shared store, so later askers replay them.  Unlike the
        ``wait_timeout`` guard (which raises), a deadline is an expected,
        per-wave outcome, not a harness failure.
        """
        # not engine.run_batch, which would hold the engine's dispatch lock
        # for as long as the workers take
        return self.engine._wave(
            specs, journal, lambda specs, cold: self._run_cold(specs, cold, deadline)
        )

    def _run_cold(
        self, specs: list[JobSpec], cold: list[int], deadline: float | None
    ) -> Iterator[tuple[int, JobResult]]:
        """Enqueue each cold job, one row per spec in spec order, then yield
        results as workers finish them."""
        # job row id -> spec indices: duplicate specs in one batch collapse
        # onto a single queue row (enqueue is key-idempotent), but every
        # index still owes the caller a result.
        waiting: dict[int, list[int]] = {}
        for index in cold:
            spec = specs[index]
            job = self.queue.enqueue(spec)
            if job.state == DONE and job.result is not None:
                # A previous dispatcher run enqueued this spec and a worker
                # finished it while nobody was watching; adopt the stored
                # outcome (as resumed) instead of re-running.
                self.reconciled += 1
                yield index, JobResult.from_journal(spec, job.result)
            elif job.state == DEAD:
                yield index, self._dead_result(spec, "exhausted before this run")
            else:
                indices = waiting.setdefault(job.job_id, [])
                if not indices:
                    self.dispatched += 1
                indices.append(index)
        yield from self._await(specs, waiting, deadline)

    def _await(
        self,
        specs: list[JobSpec],
        waiting: dict[int, list[int]],
        wave_deadline: float | None,
    ) -> Iterator[tuple[int, JobResult]]:
        last_sweep = time.monotonic()
        deadline = None if self.wait_timeout is None else last_sweep + self.wait_timeout
        cutoff = None if wave_deadline is None else last_sweep + wave_deadline
        while waiting:
            finished = self.queue.poll(list(waiting))
            for job_id, (state, payload, error) in finished.items():
                indices = waiting.pop(job_id)
                if state != DONE or payload is None:
                    for index in indices:
                        yield index, self._dead_result(specs[index], error or "job died")
                    continue
                # The worker's kernel counters travelled in the payload; fold
                # them into this process's totals like the packed wire
                # protocol does for in-process waves (once per job, however
                # many batch indices share it).
                if payload.get("counters"):
                    _kernel_counters.merge(payload["counters"])
                    publish_delta(payload["counters"])
                for index in indices:
                    result = JobResult.from_journal(specs[index], payload)
                    result.resumed = False
                    yield index, result
            if not waiting:
                return
            now = time.monotonic()
            if now - last_sweep >= self.sweep_interval:
                self.queue.requeue_expired()
                last_sweep = now
            if cutoff is not None and now >= cutoff:
                # Every remaining waiter's deadline has passed: stop waiting
                # (the jobs stay queued; workers still land their verdicts
                # in the shared store for the next asker).
                for indices in waiting.values():
                    for index in indices:
                        yield index, self._dead_result(
                            specs[index], "deadline exceeded waiting in queue"
                        )
                return
            if deadline is not None and now >= deadline:
                raise ReproError(
                    f"dispatcher timed out with {len(waiting)} job(s) pending"
                )
            time.sleep(self.poll)

    @staticmethod
    def _dead_result(spec: JobSpec, error: str) -> JobResult:
        """A job without an answer, surfaced as an ``error`` verdict so the
        batch still completes."""
        logger.warning("job %s died in the queue: %s", spec.name, error)
        return JobResult(spec, ERROR, 0.0, counters=None)

    def stats(self) -> dict:
        """Dispatcher- plus queue-level accounting for ``/stats``."""
        return {
            "dispatched": self.dispatched,
            "reconciled": self.reconciled,
            **self.queue.stats(),
        }
