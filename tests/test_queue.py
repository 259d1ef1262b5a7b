"""Distributed dispatch, proven correct under fault injection.

Four layers of evidence, bottom up:

1. **Queue lifecycle** — the `pending → leased → done|failed|dead` state
   machine on one in-memory queue with a controllable clock: exclusive
   leases, monotone deadlines, lease-fenced completion, exponential backoff,
   attempt budgets, expiry sweeping, idempotent enqueue.
2. **Property-based invariants** (hypothesis) — arbitrary interleavings of
   enqueue / lease / complete / fail / clock-skew / sweep never double-lease
   a live job, never exceed an attempt budget, and always drain every job
   to ``done`` or ``dead``.
3. **Crash recovery** — a *real* worker subprocess SIGKILLed mid-lease: its
   leases expire, the sweeper requeues them, a second worker completes
   them, and nothing is lost or duplicated.
4. **End-to-end equivalence** — a two-worker distributed ``run_batch``
   produces verdicts identical to the single-process engine on the same
   specs; a dispatcher that "crashes" resumes from its journal without
   re-dispatching finished work; and the engine's one batch wave reports
   and books alike whether its cold jobs run in-process, in the worker
   pool or through the queue.
"""

from __future__ import annotations

import contextlib
import sqlite3
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    DecompositionEngine,
    Dispatcher,
    JobQueue,
    JobSpec,
    QueueWorker,
    ResultStore,
)
from repro.engine.jobs import CHECK, PORTFOLIO
from repro.engine.queue import (
    DEAD,
    DONE,
    FAILED,
    LEASED,
    PENDING,
    payload_from_spec,
    spec_from_payload,
)
from repro.obs.trace import TraceContext
from tests.conftest import (
    FakeClock,
    clique_hypergraph,
    cycle_hypergraph,
    random_hypergraph,
    spawn_worker,
    wait_for_leased,
)


# ---------------------------------------------------------------- lifecycle


class TestQueueLifecycle:
    def test_enqueue_is_idempotent_on_spec_key(self, triangle):
        queue = JobQueue()
        spec = JobSpec.check(triangle, 2)
        first = queue.enqueue(spec)
        second = queue.enqueue(spec)
        assert first.created and not second.created
        assert first.job_id == second.job_id
        assert len(queue) == 1

    def test_lease_is_exclusive_while_live(self, triangle):
        queue = JobQueue()
        queue.enqueue(JobSpec.check(triangle, 2))
        assert len(queue.lease("w1", 5)) == 1
        assert queue.lease("w2", 5) == []
        assert queue.lease("w1", 5) == []  # not even to the same worker

    def test_lease_takes_the_oldest_without_sorting_the_backlog(
        self, tmp_path, fake_clock
    ):
        path = tmp_path / "queue.db"
        with JobQueue(path, clock=fake_clock, backoff=10.0) as queue:
            for seed in range(8):
                queue.enqueue(JobSpec.check(random_hypergraph(seed), 2))
            first = queue.lease("w", 1)[0]
            assert queue.fail("w", first.job_id, "boom")  # parked for 10 s
        # a queue file from before the index gains it on open
        with contextlib.closing(sqlite3.connect(path)) as conn, conn:
            conn.execute("DROP INDEX jobs_leasable")
        with JobQueue(path, clock=fake_clock) as queue:
            statements: list[str] = []
            queue._conn.set_trace_callback(statements.append)
            leases = queue.lease("w", 3)
            queue._conn.set_trace_callback(None)
            assert [lease.job_id for lease in leases] == [2, 3, 4]
            fake_clock.advance(11)
            assert [lease.job_id for lease in queue.lease("w", 2)] == [1, 5]
            (select,) = [s for s in statements if s.startswith("SELECT")]
            plan = " ".join(
                row[-1]
                for row in queue._conn.execute("EXPLAIN QUERY PLAN " + select)
            )
            assert "jobs_leasable" in plan and "TEMP B-TREE" not in plan, plan

    def test_lease_rebuilds_the_spec(self, triangle):
        queue = JobQueue()
        spec = JobSpec.check(triangle, 2, timeout=5.0)
        queue.enqueue(spec)
        lease = queue.lease("w", 1)[0]
        rebuilt = lease.spec()
        assert rebuilt.key() == spec.key()
        assert rebuilt.hypergraph.edges == spec.hypergraph.edges

    def test_complete_is_lease_fenced(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w1", 1, lease_seconds=5)[0]
        # the sweeper revokes the lease before w1 reports
        fake_clock.advance(6)
        assert queue.requeue_expired() == 1
        assert not queue.complete("w1", {lease.job_id: {"verdict": "yes"}})
        # the re-lease's completion (after backoff) is the one that counts
        fake_clock.advance(1)
        release = queue.lease("w2", 1)[0]
        assert queue.complete("w2", {release.job_id: {"verdict": "yes"}})
        assert queue.job(lease.job_id)["state"] == DONE
        assert queue.stats()["counters"]["completed"] == 1

    def test_extend_deadlines_are_monotone(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w", 1, lease_seconds=100)[0]
        # a shorter heartbeat must never shrink the deadline
        assert queue.extend("w", [lease.job_id], lease_seconds=1) == 1
        assert queue.job(lease.job_id)["lease_deadline"] == lease.deadline
        fake_clock.advance(50)
        assert queue.extend("w", [lease.job_id], lease_seconds=100) == 1
        assert queue.job(lease.job_id)["lease_deadline"] == pytest.approx(
            fake_clock.now + 100
        )

    def test_extend_reports_revoked_leases(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w1", 1, lease_seconds=5)[0]
        fake_clock.advance(10)
        queue.requeue_expired()
        assert queue.extend("w1", [lease.job_id]) == 0

    def test_fail_backs_off_exponentially_then_kills(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock, max_attempts=3, backoff=1.0)
        queue.enqueue(JobSpec.check(triangle, 2))
        delays = []
        for attempt in range(1, 4):
            lease = queue.lease("w", 1, lease_seconds=60)
            assert len(lease) == 1, f"attempt {attempt} not leasable"
            assert lease[0].attempts == attempt
            assert queue.fail("w", lease[0].job_id, f"boom {attempt}")
            job = queue.job(lease[0].job_id)
            if attempt < 3:
                assert job["state"] == FAILED
                delays.append(job["not_before"] - fake_clock.now)
                assert queue.lease("w", 1) == []  # backoff gates the re-lease
                fake_clock.advance(delays[-1])
            else:
                assert job["state"] == DEAD
                assert job["error"] == "boom 3"
        assert delays == [1.0, 2.0]  # backoff * 2**(attempts-1)
        assert queue.lease("w", 1) == []

    def test_expiry_consumes_the_attempt_budget(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock, max_attempts=2, backoff=0.5)
        queue.enqueue(JobSpec.check(triangle, 2))
        for _ in range(2):
            assert len(queue.lease("w", 1, lease_seconds=5)) == 1
            fake_clock.advance(10)
            assert queue.requeue_expired() == 1
            fake_clock.advance(1)  # clear the retry backoff
        stats = queue.stats()
        assert stats["dead"] == 1
        assert stats["counters"]["expired"] == 2
        assert stats["counters"]["retries"] == 1

    def test_failed_attempts_are_leasable_after_backoff(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock, backoff=2.0)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w", 1)[0]
        queue.fail("w", lease.job_id, "transient")
        assert queue.job(lease.job_id)["state"] == FAILED
        assert queue.stats()["depth"] == 0
        fake_clock.advance(2.0)
        assert queue.stats()["depth"] == 1
        again = queue.lease("w", 1)[0]
        assert queue.complete("w", {again.job_id: {"verdict": "yes"}})
        assert queue.job(again.job_id)["error"] is None

    def test_an_idle_sweep_takes_no_write_lock(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w", 1, lease_seconds=5)[0]
        statements: list[str] = []
        queue._conn.set_trace_callback(statements.append)
        assert queue.requeue_expired() == 0
        assert statements and all(s.startswith("SELECT") for s in statements)
        fake_clock.advance(10)
        assert queue.requeue_expired() == 1
        queue._conn.set_trace_callback(None)
        assert "BEGIN IMMEDIATE" in statements
        assert queue.job(lease.job_id)["state"] == PENDING
        assert queue.stats()["counters"]["expired"] == 1

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="Connection.setlimit is new in 3.11"
    )
    def test_poll_stays_under_the_oldest_host_parameter_limit(self):
        queue = JobQueue()
        queue._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
        ids = [queue.enqueue({}, key=("job", i)).job_id for i in range(1000)]
        leases = queue.lease("w", 1000)
        assert len(leases) == 1000
        queue.complete("w", {ids[0]: {"verdict": "yes"}, ids[-1]: {"verdict": "no"}})
        done = queue.poll(ids)
        assert sorted(done) == [ids[0], ids[-1]]
        assert done[ids[-1]] == (DONE, {"verdict": "no"}, None)

    def test_resurrect_dead_restores_the_budget(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock, max_attempts=1)
        queue.enqueue(JobSpec.check(triangle, 2))
        lease = queue.lease("w", 1, lease_seconds=1)[0]
        fake_clock.advance(5)
        queue.requeue_expired()
        assert queue.job(lease.job_id)["state"] == DEAD
        assert queue.resurrect_dead() == 1
        job = queue.job(lease.job_id)
        assert job["state"] == PENDING and job["attempts"] == 0

    def test_queue_survives_reopen(self, triangle, tmp_path):
        path = tmp_path / "queue.db"
        spec = JobSpec.check(triangle, 2)
        with JobQueue(path) as queue:
            queue.enqueue(spec)
            queue.lease("w", 1)
        with JobQueue(path) as queue:
            assert len(queue) == 1
            assert queue.stats()[LEASED] == 1
            existing = queue.enqueue(spec)
            assert not existing.created

    def test_stats_counts_states_and_counters(self, triangle, fake_clock):
        queue = JobQueue(clock=fake_clock)
        specs = [JobSpec.check(random_hypergraph(seed), 2) for seed in range(4)]
        ids = [queue.enqueue(s).job_id for s in specs]
        leases = queue.lease("w", 2)
        queue.complete("w", {leases[0].job_id: {"verdict": "yes"}})
        stats = queue.stats()
        assert stats["total"] == 4
        assert stats[DONE] == 1 and stats[LEASED] == 1 and stats[PENDING] == 2
        assert stats["depth"] == 2
        assert stats["counters"]["enqueued"] == 4
        assert stats["counters"]["leased"] == 2
        assert stats["counters"]["completed"] == 1
        assert set(queue.poll(ids)) == {leases[0].job_id}


class TestPayloadRoundTrip:
    def test_spec_round_trips_with_trace(self, triangle):
        trace = TraceContext("t" * 16, "s" * 8)
        spec = JobSpec.width(triangle, max_k=4, method="balsep", timeout=2.5, trace=trace)
        rebuilt = spec_from_payload(payload_from_spec(spec))
        assert rebuilt.key() == spec.key()
        assert rebuilt.hypergraph.edges == spec.hypergraph.edges
        assert rebuilt.hypergraph.name == triangle.name
        assert tuple(rebuilt.trace) == tuple(trace)

    def test_payload_is_byte_stable_for_equal_specs(self, triangle):
        import json

        from repro.core.hypergraph import Hypergraph

        shuffled = Hypergraph(
            {"t": ["x", "z"], "s": ["z", "y"], "r": ["y", "x"]}, name="triangle"
        )
        a = json.dumps(payload_from_spec(JobSpec.check(triangle, 2)), sort_keys=True)
        b = json.dumps(payload_from_spec(JobSpec.check(shuffled, 2)), sort_keys=True)
        assert a == b


# ----------------------------------------------------- property-based model


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(0, 5)),
        st.tuples(st.just("lease"), st.sampled_from(["w1", "w2", "w3"])),
        st.tuples(st.just("complete"), st.sampled_from(["w1", "w2", "w3"])),
        st.tuples(st.just("fail"), st.sampled_from(["w1", "w2", "w3"])),
        st.tuples(st.just("advance"), st.floats(0.1, 30.0)),
        st.tuples(st.just("sweep"), st.just(None)),
    ),
    max_size=40,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
def test_queue_invariants_hold_under_arbitrary_interleavings(ops):
    """No double-lease, budget respected, and every job drains to done|dead."""
    clock = FakeClock()
    max_attempts = 3
    queue = JobQueue(
        clock=clock, max_attempts=max_attempts, backoff=1.0, lease_seconds=10.0
    )
    # A handle is (job_id, attempts): the attempt counter is the lease token,
    # so a handle revoked by a sweep stops matching the row once the job is
    # re-leased (attempts bumps) — exactly the fencing complete()/fail() use.
    held: dict[str, list[tuple[int, int]]] = {"w1": [], "w2": [], "w3": []}
    enqueued: set[int] = set()

    def check_invariants() -> None:
        seen: set[int] = set()
        for jobs in held.values():
            for job_id, token in jobs:
                row = queue.job(job_id)
                if row["state"] != LEASED or row["attempts"] != token:
                    continue  # lease revoked by a sweep — stale handle
                assert job_id not in seen, "job under two live leases"
                seen.add(job_id)
        for job_id in enqueued:
            assert queue.job(job_id)["attempts"] <= max_attempts

    for op, arg in ops:
        if op == "enqueue":
            job = queue.enqueue({"n": arg}, key=("job", arg))
            enqueued.add(job.job_id)
        elif op == "lease":
            for lease in queue.lease(arg, 2):
                held[arg].append((lease.job_id, lease.attempts))
        elif op == "complete":
            if held[arg]:
                queue.complete(arg, {held[arg].pop(0)[0]: {"verdict": "yes"}})
        elif op == "fail":
            if held[arg]:
                queue.fail(arg, held[arg].pop(0)[0], "injected")
        elif op == "advance":
            clock.advance(arg)
        elif op == "sweep":
            queue.requeue_expired()
        check_invariants()

    # Drain: losing every worker and sweeping forever must terminate every
    # job — the attempt budget bounds the retries.
    for worker in held.values():
        worker.clear()
    for _ in range(4 * max_attempts):
        clock.advance(60.0)
        queue.requeue_expired()
        for lease in queue.lease("drain", 100):
            queue.complete("drain", {lease.job_id: {"verdict": "yes"}})
    for job_id in enqueued:
        row = queue.job(job_id)
        assert row["state"] in (DONE, DEAD), row
        assert row["attempts"] <= max_attempts


# ---------------------------------------------------------- crash recovery


def _enqueue_specs(queue: JobQueue, count: int, k: int = 2) -> list[JobSpec]:
    specs = [JobSpec.check(random_hypergraph(seed), k) for seed in range(count)]
    for spec in specs:
        queue.enqueue(spec)
    return specs


def _slow_specs(count: int) -> list[JobSpec]:
    """Distinct `hw(K8+pendants) <= 3` jobs, each ~0.1 s: long enough that a
    worker wave stays observably ``leased`` while the fault injector aims."""
    from repro.core.hypergraph import Hypergraph
    from tests.conftest import clique_hypergraph

    specs = []
    for tag in range(count):
        edges = {k: list(v) for k, v in clique_hypergraph(8).edges.items()}
        edges[f"p{tag}"] = ["v0", f"w{tag}"]
        for i in range(tag):
            edges[f"q{tag}_{i}"] = [f"w{tag}", f"u{tag}_{i}"]
        specs.append(JobSpec.check(Hypergraph(edges, name=f"K8p{tag}"), 3))
    return specs


def _drain_in_thread(
    queue: JobQueue, store, lease_n: int = 4, timeout: float = 60.0
) -> QueueWorker:
    """Run an in-thread worker until the queue holds no runnable work."""
    import time

    engine = DecompositionEngine(store=store)
    worker = QueueWorker(queue, engine, lease_n=lease_n, poll=0.01)
    thread = threading.Thread(target=worker.run, kwargs={"max_idle": timeout}, daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        queue.requeue_expired()
        stats = queue.stats()
        if stats[DONE] + stats[DEAD] == stats["total"]:
            break
        time.sleep(0.05)
    worker.stop()
    thread.join(timeout=10)
    return worker


class TestCrashRecovery:
    def test_sigkilled_worker_leases_expire_and_complete_elsewhere(
        self, tmp_path, crashing_worker
    ):
        """The acceptance scenario: kill a worker mid-lease, lose nothing.

        A real subprocess worker leases jobs and dies by SIGKILL (as an OOM
        kill would).  Its heartbeat dies with it, the leases expire, the
        sweeper requeues them, and an in-thread worker finishes the queue —
        every job exactly once, verdicts matching a single-process run.
        """
        queue_path = tmp_path / "queue.db"
        cache_path = tmp_path / "cache.db"
        queue = JobQueue(queue_path, lease_seconds=1.0, backoff=0.05)
        specs = _slow_specs(12)
        for spec in specs:
            queue.enqueue(spec)

        killed = crashing_worker(
            queue_path,
            cache_path,
            "--lease-n", "12",
            "--lease-seconds", "1",
            "--poll", "0.05",
            min_leased=1,
        )
        assert killed.returncode == -9  # died by SIGKILL, not cleanly

        # the dead worker still "holds" leases; they must expire, not block
        stats = queue.stats()
        assert stats[DONE] + stats[LEASED] + stats[PENDING] == stats["total"]
        survivor = _drain_in_thread(queue, ResultStore(cache_path))
        assert survivor.completed > 0

        stats = queue.stats()
        assert stats[DONE] == len(specs), stats
        assert stats[DEAD] == 0, stats
        assert stats["counters"]["expired"] > 0, "no lease ever expired"
        # exactly-once: completions equal jobs, despite the re-leases
        assert stats["counters"]["completed"] == len(specs)

        # no lost and no corrupted results: verdicts match a fresh engine
        reference = DecompositionEngine(store=ResultStore()).run_batch(specs)
        for spec, expected in zip(specs, reference.results):
            state, payload, _error = queue.poll(
                [queue.enqueue(spec).job_id]
            ).popitem()[1]
            assert state == DONE
            assert payload["verdict"] == expected.verdict

    def test_clock_skew_shim_expires_leases_without_waiting(
        self, triangle, fake_clock
    ):
        """The same recovery logic, driven purely by the clock shim."""
        queue = JobQueue(clock=fake_clock, backoff=0.0)
        queue.enqueue(JobSpec.check(triangle, 2))
        queue.lease("doomed", 1, lease_seconds=30)
        assert queue.requeue_expired() == 0
        fake_clock.advance(31)
        assert queue.requeue_expired() == 1
        release = queue.lease("survivor", 1)
        assert len(release) == 1 and release[0].attempts == 2


# ------------------------------------------------- dispatcher + end-to-end


class TestDispatcher:
    def test_journal_resume_after_dispatcher_crash(self, tmp_path):
        """A restarted dispatcher re-runs nothing the journal already has."""
        queue = JobQueue(tmp_path / "queue.db", lease_seconds=10)
        store = ResultStore(tmp_path / "cache.db")
        journal = tmp_path / "batch.jsonl"
        first_wave = [JobSpec.check(random_hypergraph(seed), 2) for seed in range(4)]
        full_batch = first_wave + [
            JobSpec.check(random_hypergraph(seed), 2) for seed in range(4, 8)
        ]

        worker_engine = DecompositionEngine(store=store)
        worker = QueueWorker(queue, worker_engine, lease_n=4, poll=0.01)
        thread = threading.Thread(target=worker.run, kwargs={"max_idle": 30}, daemon=True)
        thread.start()
        try:
            # "crashing" dispatcher: finishes the first half, then is gone
            crashed = Dispatcher(queue, DecompositionEngine(store=store), wait_timeout=60)
            report = crashed.run_batch(first_wave, journal=str(journal))
            assert report.total == 4 and len(report.results) == 4

            # restart: a new dispatcher object, same journal, full batch
            restarted = Dispatcher(queue, DecompositionEngine(store=store), wait_timeout=60)
            report = restarted.run_batch(full_batch, journal=str(journal))
        finally:
            worker.stop()
            thread.join(timeout=10)

        assert report.total == 8
        assert report.resumed == 4, "journalled first wave was not resumed"
        assert len(report.results) == 8
        # the resumed half cost no new queue traffic
        assert restarted.dispatched <= 4

    def test_reconciles_completions_it_never_saw(self, tmp_path):
        """Queue `done` rows from a previous run are adopted, not re-run."""
        queue = JobQueue(tmp_path / "queue.db")
        store = ResultStore(tmp_path / "cache.db")
        specs = _enqueue_specs(queue, 3)
        _drain_in_thread(queue, store)  # a worker finished everything...

        dispatcher = Dispatcher(queue, engine=None, wait_timeout=10)
        report = dispatcher.run_batch(specs)  # ...before this dispatcher ran
        assert report.resumed == 3 and dispatcher.reconciled == 3
        assert dispatcher.dispatched == 0
        assert [r.verdict for r in report.results] != []

    def test_dead_jobs_surface_as_error_verdicts(self, tmp_path, fake_clock):
        queue = JobQueue(
            tmp_path / "queue.db", clock=fake_clock, max_attempts=1, backoff=0.0
        )
        spec = JobSpec.check(random_hypergraph(0), 2)
        queue.enqueue(spec)
        lease = queue.lease("crashy", 1, lease_seconds=1)[0]
        queue.fail("crashy", lease.job_id, "simulated crash")
        dispatcher = Dispatcher(queue, engine=None, wait_timeout=5)
        report = dispatcher.run_batch([spec])
        assert report.results[0].verdict == "error"


class TestTwoWorkerEndToEnd:
    def test_two_process_run_matches_single_process_engine(self, tmp_path):
        """≥ 48 jobs across two real worker processes ≡ one in-process run."""
        queue_path = tmp_path / "queue.db"
        cache_dir = tmp_path / "cache.d"
        specs = [JobSpec.check(random_hypergraph(seed), 2) for seed in range(48)]

        workers = [
            spawn_worker(
                queue_path,
                cache_dir,
                "--shards", "4",
                "--lease-n", "6",
                "--poll", "0.05",
                "--max-idle", "20",
            )
            for _ in range(2)
        ]
        try:
            queue = JobQueue(queue_path, lease_seconds=30)
            from repro.engine import open_result_store

            store = open_result_store(cache_dir, shards=4)
            dispatcher = Dispatcher(
                queue, DecompositionEngine(store=store), wait_timeout=120
            )
            report = dispatcher.run_batch(specs)
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.terminate()
                proc.wait(timeout=30)

        assert report.total == 48 and len(report.results) == 48
        reference = DecompositionEngine(store=ResultStore()).run_batch(specs)
        assert [r.verdict for r in report.results] == [
            r.verdict for r in reference.results
        ]
        # exactly-once per distinct job: duplicate specs collapse onto one
        # queue row, and nothing was completed twice
        unique_jobs = len({spec.key() for spec in specs})
        assert queue.stats()["counters"]["completed"] == unique_jobs


class TestWorkerStop:
    def test_stop_takes_no_lock_the_pull_loop_can_hold(self):
        """``repro worker``'s SIGTERM/SIGINT handler calls ``stop()`` on the
        pull loop's own thread, between any two bytecodes of the loop.  An
        ``Event.wait`` in the idle poll holds its condition lock on entry
        and on wake-up, so a ``stop()`` that takes such a lock deadlocks
        there.  Called from a thread holding every such lock the worker
        owns, ``stop()`` returns at once."""
        worker = QueueWorker(JobQueue(), DecompositionEngine())
        locks = [v._cond for v in vars(worker).values() if isinstance(v, threading.Event)]
        returned = threading.Event()

        def signal_inside_the_idle_wait() -> None:
            with contextlib.ExitStack() as held:
                for lock in locks:
                    held.enter_context(lock)
                worker.stop()
                returned.set()

        threading.Thread(target=signal_inside_the_idle_wait, daemon=True).start()
        assert returned.wait(1.0), "stop() blocked on a lock its caller holds"
        assert worker.run() == 0  # a stopped worker leases nothing


def _with_run_batch(engine: DecompositionEngine, before) -> DecompositionEngine:
    """``engine`` whose ``run_batch`` calls ``before()`` first: a hook into
    the middle of a worker's wave, while its leases are held."""
    run_batch = engine.run_batch

    def hooked(specs, *args, **kwargs):
        before()
        return run_batch(specs, *args, **kwargs)

    engine.run_batch = hooked
    return engine


class TestWorkerLoop:
    def test_heartbeat_keeps_a_wave_longer_than_its_lease_leased(self):
        """A live worker's wave outlasts its lease twice over while a thread
        sweeps expired leases: the heartbeat (every third of the lease)
        keeps every job leased, and the worker completes them all."""
        import time

        lease_seconds = 0.9
        queue = JobQueue(lease_seconds=lease_seconds)
        specs = _enqueue_specs(queue, 3)
        engine = _with_run_batch(DecompositionEngine(), lambda: time.sleep(2 * lease_seconds))
        worker = QueueWorker(queue, engine, lease_n=len(specs), lease_seconds=lease_seconds)
        stop = threading.Event()

        def sweep() -> None:
            while not stop.wait(0.01):
                queue.requeue_expired()

        sweeper = threading.Thread(target=sweep, daemon=True)
        sweeper.start()
        try:
            assert worker.run(max_waves=1) == len(specs)
        finally:
            stop.set()
            sweeper.join(timeout=10)
        assert not sweeper.is_alive()
        stats = queue.stats()
        assert stats["counters"]["expired"] == 0
        assert stats[DONE] == len(specs) and worker.lost == 0

    def test_one_complete_fences_a_lease_revoked_mid_wave(self, fake_clock, monkeypatch):
        """Two jobs leased in one wave; mid-wave the sweeper revokes one.  The
        wave's single ``complete`` lands the live job and discards the
        revoked one, which stays leasable for someone else."""
        queue = JobQueue(clock=fake_clock, backoff=0.0)
        specs = [JobSpec.check(random_hypergraph(seed), 2) for seed in range(2)]
        live, revoked = (queue.enqueue(spec).job_id for spec in specs)

        def revoke() -> None:
            assert queue.extend("w", [live], lease_seconds=100) == 1
            fake_clock.advance(31)
            assert queue.requeue_expired() == 1

        calls = []
        complete = queue.complete
        monkeypatch.setattr(queue, "complete", lambda *args: calls.append(args) or complete(*args))
        engine = _with_run_batch(DecompositionEngine(), revoke)
        worker = QueueWorker(queue, engine, worker_id="w", lease_n=2, lease_seconds=30)
        assert worker.run(max_waves=1) == 1
        assert [sorted(results) for _, results in calls] == [[live, revoked]]
        assert worker.completed == 1 and worker.lost == 1
        assert queue.stats()["counters"]["completed"] == 1
        assert queue.job(live)["state"] == DONE
        assert [lease.job_id for lease in queue.lease("other", 2)] == [revoked]

    def test_waves_share_one_heartbeat_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        queue = JobQueue()
        _enqueue_specs(queue, 3)
        worker = QueueWorker(queue, DecompositionEngine(), lease_n=1)
        assert worker.run(max_waves=3) == 3
        assert worker.waves == 3
        assert started == [f"heartbeat-{worker.worker_id}"]

    def test_idle_sleeps_back_off_and_restart_after_a_lease(self, monkeypatch):
        """Idle sleeps start at a few ms, double up to ``poll`` and start
        over after a granted lease; ``max_idle`` still ends the loop."""
        from repro.engine import remote

        queue = JobQueue()
        spec = JobSpec.check(random_hypergraph(0), 2)
        sleeps: list[float] = []

        class FakeTime:
            now = 0.0

            def monotonic(self) -> float:
                return self.now

            def sleep(self, seconds: float) -> None:
                sleeps.append(seconds)
                self.now += seconds
                if len(sleeps) == 8:
                    queue.enqueue(spec)  # work arrives after 8 idle polls

        monkeypatch.setattr(remote, "time", FakeTime())
        worker = QueueWorker(queue, DecompositionEngine(), poll=0.2)
        assert worker.run(max_idle=1.0) == 1
        backoff = [0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.2]
        assert sleeps[:8] == [*backoff, 0.2]
        after = sleeps[8:]
        assert after[:7] == backoff and set(after[7:]) == {0.2}
        # max_idle ends the loop once a second passes without a lease
        assert sum(after[:-1]) < 1.0 <= sum(after)


# ------------------------------------------ one batch path, three executors


def _equivalence_batch(kind: str) -> tuple[list[JobSpec], ...]:
    """``(warm, prefix, answered, cold)``: specs a separate engine runs
    first, the prefix an earlier run journals, jobs the warm rows answer
    exactly or by implication, and cold jobs.  Every cold job has a
    hypergraph of its own: a queue worker would legitimately answer, say,
    ``check(H, 3)`` from the row ``check(H, 2)`` wrote earlier in the wave."""
    c, q = cycle_hypergraph, clique_hypergraph
    if kind == CHECK:
        warm = [JobSpec.check(c(5), 2)]
        prefix = [JobSpec.check(c(6), 2), JobSpec.check(c(7), 1)]
        answered = [JobSpec.check(c(5), 2), JobSpec.check(c(5), 4)]
        cold = [JobSpec.check(c(8), 2), JobSpec.check(c(9), 1), JobSpec.check(q(4), 2)]
        cold.append(cold[0])  # a duplicate spec
    elif kind == PORTFOLIO:
        warm = [JobSpec.portfolio(c(5), 2)]
        prefix = [JobSpec.portfolio(c(6), 2)]
        answered = [JobSpec.portfolio(c(5), 2), JobSpec.portfolio(c(5), 3)]
        cold = [JobSpec.portfolio(c(8), 2), JobSpec.portfolio(c(9), 1), JobSpec.portfolio(q(4), 2)]
    else:
        # hw(K5) = 3: the rows at 2 and 3 answer width(K5) with k = 1 implied
        warm = [JobSpec.check(q(5), 2), JobSpec.check(q(5), 3), JobSpec.width(c(5), 4)]
        prefix = [JobSpec.width(c(6), 4), JobSpec.check(c(7), 1)]
        answered = [JobSpec.width(c(5), 4), JobSpec.width(q(5), 4), JobSpec.check(c(5), 3)]
        cold = [
            JobSpec.check(c(8), 2),
            JobSpec.check(c(8), 2),
            JobSpec.portfolio(c(9), 2),
            JobSpec.width(q(4), 4),
            JobSpec.width(c(10), 3),
        ]
    return warm, prefix, answered, cold


@contextlib.contextmanager
def _executor(name: str, root):
    """``(runner, engine)``: something with ``run_batch`` and the engine
    whose counters book its waves, over a fresh store at ``root``."""
    root.mkdir()
    store_path = root / "store.db"
    engine = DecompositionEngine(store=ResultStore(store_path), jobs=2 if name == "pool" else 1)
    if name != "queue":
        with engine:
            yield engine, engine
        return
    queue = JobQueue(root / "queue.db")
    worker = QueueWorker(
        queue, DecompositionEngine(store=ResultStore(store_path)), lease_n=4, poll=0.01
    )
    thread = threading.Thread(target=worker.run, kwargs={"max_idle": 60}, daemon=True)
    thread.start()
    try:
        yield Dispatcher(queue, engine, wait_timeout=60), engine
    finally:
        worker.stop()
        thread.join(timeout=10)
        worker.engine.close()
        engine.close()
        queue.close()


@pytest.mark.parametrize("kind", [CHECK, PORTFOLIO, "mixed"])
def test_every_executor_runs_the_same_wave(tmp_path, kind):
    """In-process, worker pool and job queue behind one batch wave: the
    same verdicts and report, and (for check and portfolio batches, whose
    jobs are one attempt each) the engine's ``executed`` counter grows by
    exactly the report's ``executed``."""
    seen = {}
    for name in ("inproc", "pool", "queue"):
        warm, prefix, answered, cold = _equivalence_batch(kind)
        batch = prefix + answered + cold
        with _executor(name, tmp_path / name) as (runner, engine):
            with DecompositionEngine(store=ResultStore(engine.store.path)) as warmer:
                warmer.run_batch(warm)
            journal = tmp_path / f"{name}.jsonl"
            runner.run_batch(prefix, journal=journal)
            before = engine.stats.executed
            report = runner.run_batch(batch, journal=journal)
            if kind != "mixed":
                assert engine.stats.executed - before == report.executed, name
        seen[name] = (
            (report.total, report.resumed, report.cache_hits, report.pruned, report.executed),
            [(r.verdict, r.cached, r.implied, r.resumed, r.lower, r.upper) for r in report.results],
        )
    (total, resumed, cache_hits, pruned, executed), results = seen["inproc"]
    assert (total, resumed, cache_hits, executed) == (
        len(batch), len(prefix), len(answered), len(cold)
    )
    assert pruned >= 1
    assert all(verdict in ("yes", "no", "exact") for verdict, *_ in results)
    assert seen["pool"] == seen["inproc"]
    assert seen["queue"] == seen["inproc"]


def test_a_job_without_an_answer_is_not_journalled(tmp_path):
    """A job that dies in the queue surfaces as an ``error`` result but
    leaves no journal line, so a resumed batch asks for it again."""
    import time

    queue = JobQueue(tmp_path / "queue.db", max_attempts=1, backoff=0.0)
    spec = JobSpec.check(random_hypergraph(0), 2)

    def crash_on_first_lease() -> None:
        while not (leases := queue.lease("crashy", 1)):
            time.sleep(0.01)
        queue.fail("crashy", leases[0].job_id, "simulated crash")

    crasher = threading.Thread(target=crash_on_first_lease, daemon=True)
    crasher.start()
    journal = tmp_path / "batch.jsonl"
    report = Dispatcher(queue, wait_timeout=30).run_batch([spec], journal=journal)
    crasher.join(timeout=10)
    assert not crasher.is_alive()
    assert report.results[0].verdict == "error" and report.executed == 1
    assert not journal.exists() or journal.read_text() == ""
    again = Dispatcher(queue, wait_timeout=30).run_batch([spec], journal=journal)
    assert again.resumed == 0 and again.results[0].verdict == "error"
