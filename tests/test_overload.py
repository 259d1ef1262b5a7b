"""Tests for the overload-protection layer (``repro.service.overload``).

Covers the admission controller (pending budget, priority watermarks,
per-kind caps, per-tenant token buckets), the circuit breaker state machine
under a deterministic clock, deadline propagation (clamping, expiry on
arrival, shedding at wave formation), graceful drain (in-process and a real
SIGTERM against a ``repro serve`` subprocess), the HTTP status taxonomy
(429/503 + ``Retry-After``, 413 for oversized bodies, degraded
``/healthz``), and the client's jittered backoff loop.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.hypergraph import Hypergraph
from repro.engine import DecompositionEngine, ResultStore, register_method
from repro.service import (
    AdmissionController,
    BatchScheduler,
    CircuitBreaker,
    Rejected,
    ServiceClient,
    ServiceThread,
    TokenBucket,
)
from repro.service.client import ServiceError
from repro.service.overload import CLOSED, HALF_OPEN, OPEN, PRIORITIES
from repro.service.scheduler import EXPIRED, REJECTED
from tests.conftest import REPO_ROOT, FakeClock, clique_hypergraph, cycle_hypergraph


def _triangle() -> Hypergraph:
    return Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="triangle"
    )


def _ovl_sleepy(hypergraph, k, deadline):
    """A slow registered check so flights stay in flight during the test."""
    time.sleep(0.3)
    return None


register_method("ovl_sleepy", _ovl_sleepy)


# --------------------------------------------------------------- token bucket


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock(0.0)
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.take() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.take()
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.take() == 0.0

    def test_never_exceeds_capacity(self):
        clock = FakeClock(0.0)
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.take() == 0.0
        assert bucket.take() == 0.0
        assert bucket.take() > 0.0  # capped at burst, not 100 tokens

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


# ------------------------------------------------------- admission controller


class TestAdmissionController:
    def test_pending_budget_and_priority_watermarks(self):
        admission = AdmissionController(max_pending=10)
        # high fills the budget, normal cuts at 90 %, low at 50 %.
        assert admission.threshold(PRIORITIES["high"]) == 10
        assert admission.threshold(PRIORITIES["normal"]) == 9
        assert admission.threshold(PRIORITIES["low"]) == 5
        admission.admit("check", None, PRIORITIES["high"], 9, {})
        with pytest.raises(Rejected) as excinfo:
            admission.admit("check", None, PRIORITIES["normal"], 9, {})
        assert excinfo.value.reason == "capacity"
        with pytest.raises(Rejected) as excinfo:
            admission.admit("check", None, PRIORITIES["low"], 5, {})
        assert excinfo.value.reason == "capacity"

    def test_tiny_budget_still_admits_every_class(self):
        admission = AdmissionController(max_pending=1)
        for rank in PRIORITIES.values():
            admission.admit("check", None, rank, 0, {})  # floor is 1, not 0

    def test_kind_cap(self):
        admission = AdmissionController(kind_limits={"width": 1})
        admission.admit("width", None, 0, 5, {"width": 0})
        with pytest.raises(Rejected) as excinfo:
            admission.admit("width", None, 0, 5, {"width": 1})
        assert excinfo.value.reason == "kind"
        # Other kinds are untouched by the cap.
        admission.admit("check", None, 0, 5, {"width": 1})

    def test_tenant_rate_isolates_tenants(self):
        clock = FakeClock(0.0)
        admission = AdmissionController(
            tenant_rate=1.0, tenant_burst=1.0, clock=clock
        )
        admission.admit("check", "alice", 0, 0, {})
        with pytest.raises(Rejected) as excinfo:
            admission.admit("check", "alice", 0, 0, {})
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after == pytest.approx(1.0)
        # Bob has his own bucket: Alice's burst cannot starve him.
        admission.admit("check", "bob", 0, 0, {})

    def test_snapshot_shape(self):
        admission = AdmissionController(max_pending=4, tenant_rate=2.0)
        admission.admit("check", "alice", 0, 0, {})
        snap = admission.snapshot()
        assert snap["max_pending"] == 4
        assert snap["tenants_tracked"] == 1


# ------------------------------------------------------------ circuit breaker


class TestCircuitBreaker:
    def test_full_state_cycle(self):
        clock = FakeClock(0.0)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=5.0, clock=clock
        )
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(5.0)
        clock.advance(5.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # no second probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.opened == 1

    def test_half_open_failure_reopens(self):
        clock = FakeClock(0.0)
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=2.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(2.0)
        assert breaker.allow()       # probe granted
        breaker.record_failure()     # probe failed
        assert breaker.state == OPEN
        assert breaker.opened == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never 3 *consecutive* failures


# --------------------------------------------------- scheduler-level behavior


class TestSchedulerOverload:
    def test_burst_beyond_budget_rejects_excess_without_errors(self):
        """The tentpole property, in process: a 4x burst of distinct jobs
        against a budget of 4 yields admits + typed rejects, zero errors."""

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(
                engine, window=0.1,
                admission=AdmissionController(max_pending=4),
            )

            async def ask(i):
                try:
                    return await scheduler.check(
                        cycle_hypergraph(3 + i), 2, priority="high"
                    )
                except Rejected as exc:
                    return {"verdict": REJECTED, "reason": exc.reason}

            results = await asyncio.gather(*(ask(i) for i in range(16)))
            stats = scheduler.stats
            await scheduler.close(close_engine=True)
            return results, stats

        results, stats = asyncio.run(main())
        verdicts = [r["verdict"] for r in results]
        assert verdicts.count(REJECTED) == 12
        assert all(v in ("yes", "no", REJECTED) for v in verdicts)
        assert stats.rejected == 12
        assert stats.errors == 0
        assert all(
            r["reason"] == "capacity" for r in results if r["verdict"] == REJECTED
        )

    def test_coalesced_and_store_answers_bypass_admission(self):
        """Duplicates and cache hits create no work, so a full budget must
        not reject them."""

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(
                engine, window=0.05,
                admission=AdmissionController(max_pending=1),
            )
            h = _triangle()
            first = await asyncio.gather(*(scheduler.check(h, 2) for _ in range(8)))
            replay = await scheduler.check(h, 2)  # store answer, budget full or not
            stats = scheduler.stats
            await scheduler.close(close_engine=True)
            return first, replay, stats

        first, replay, stats = asyncio.run(main())
        assert {r["verdict"] for r in first} == {"yes"}
        assert replay["source"] == "store"
        assert stats.rejected == 0 and stats.coalesced == 7

    def test_deadline_clamps_job_timeout(self):
        assert BatchScheduler._clamp(60.0, 5.0) == 5.0
        assert BatchScheduler._clamp(2.0, 5.0) == 2.0
        assert BatchScheduler._clamp(None, 5.0) == 5.0
        assert BatchScheduler._clamp(60.0, None) == 60.0
        assert BatchScheduler._clamp(None, None) is None

    def test_expired_on_arrival_never_registers_a_flight(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            payload = await scheduler.check(_triangle(), 2, deadline=0.0)
            stats = scheduler.stats
            engine_stats = engine.stats
            await scheduler.close(close_engine=True)
            return payload, stats, engine_stats

        payload, stats, engine_stats = asyncio.run(main())
        assert payload["verdict"] == EXPIRED
        assert stats.expired == 1 and engine_stats.executed == 0

    def test_dead_deadline_flight_is_shed_not_dispatched(self):
        """Hop three: a flight whose only waiter already expired is dropped
        at wave formation instead of burning engine time."""

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.3)
            payload = await scheduler.check(
                _triangle(), 2, method="ovl_sleepy", deadline=0.05
            )
            # Let the wave form (and shed) after the waiter gave up.
            await asyncio.sleep(0.4)
            stats = scheduler.stats
            engine_stats = engine.stats
            await scheduler.close(close_engine=True)
            return payload, stats, engine_stats

        payload, stats, engine_stats = asyncio.run(main())
        assert payload["verdict"] == EXPIRED
        assert stats.shed == 1
        assert engine_stats.executed == 0

    def test_breaker_opens_on_wave_failures_then_recovers(self):
        """closed → open under a failing engine → half-open probe → closed,
        driven through the scheduler's own dispatch loop."""
        clock = FakeClock(0.0)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=60.0, clock=clock
        )

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0, breaker=breaker)
            # Two waves that raise inside run_batch (unknown method).
            for i in range(2):
                bad = await scheduler.check(
                    cycle_hypergraph(3 + i), 2, method="no-such-method"
                )
                assert bad["verdict"] == "error"
            assert breaker.state == OPEN
            # While open, admission refuses instantly.
            with pytest.raises(Rejected) as excinfo:
                await scheduler.check(_triangle(), 2)
            assert excinfo.value.reason == "breaker"
            assert excinfo.value.retry_after == pytest.approx(60.0)
            # After the cooldown, the probe wave is admitted and heals it.
            clock.advance(60.0)
            assert breaker.state == HALF_OPEN
            good = await scheduler.check(_triangle(), 2)
            assert good["verdict"] == "yes"
            assert breaker.state == CLOSED
            stats = scheduler.stats
            await scheduler.close(close_engine=True)
            return stats

        stats = asyncio.run(main())
        assert stats.rejected == 1 and stats.errors == 2

    def test_open_breaker_sheds_already_queued_wave(self):
        """Flights admitted before the circuit opened are shed with typed
        payloads at dispatch time, not fed to the known-bad backend."""
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0)

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.2, breaker=breaker)
            task = asyncio.ensure_future(scheduler.check(_triangle(), 2))
            await asyncio.sleep(0.05)  # admitted, wave not yet formed
            breaker.record_failure()   # the circuit opens underneath it
            payload = await task
            stats = scheduler.stats
            engine_stats = engine.stats
            await scheduler.close(close_engine=True)
            return payload, stats, engine_stats

        payload, stats, engine_stats = asyncio.run(main())
        assert payload["verdict"] == REJECTED
        assert payload["reason"] == "breaker"
        assert stats.shed == 1 and engine_stats.executed == 0

    def test_drain_refuses_new_work_and_reports_counts(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            task = asyncio.ensure_future(
                scheduler.check(_triangle(), 2, method="ovl_sleepy")
            )
            await asyncio.sleep(0.05)  # in flight
            report = await scheduler.drain(budget=5.0)
            with pytest.raises(Rejected) as excinfo:
                await scheduler.check(cycle_hypergraph(4), 2)
            landed = await task
            await scheduler.close(close_engine=True)
            return report, excinfo.value, landed

        report, rejection, landed = asyncio.run(main())
        assert report == {"in_flight": 1, "drained": 1, "stragglers": 0}
        assert rejection.reason == "draining"
        assert landed["verdict"] == "no"

    def test_drain_budget_reports_stragglers(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            task = asyncio.ensure_future(
                scheduler.check(_triangle(), 2, method="ovl_sleepy")
            )
            await asyncio.sleep(0.05)
            report = await scheduler.drain(budget=0.01)  # far too tight
            await task  # the straggler still lands afterwards
            await scheduler.close(close_engine=True)
            return report

        report = asyncio.run(main())
        assert report["in_flight"] == 1 and report["stragglers"] == 1


# --------------------------------------------------------- HTTP status taxonomy


class TestHttpOverload:
    def test_burst_yields_only_success_and_429_with_retry_after(self):
        """The acceptance criterion over real HTTP: a burst beyond the
        budget sees 2xx and 429 only — never 500 — and rejects carry
        Retry-After."""
        engine = DecompositionEngine(store=ResultStore())
        admission = AdmissionController(max_pending=2, retry_after_hint=1.5)
        with ServiceThread(engine, window=0.1, admission=admission) as service:
            statuses: list[int] = []
            retry_afters: list[float | None] = []

            def ask(i: int) -> None:
                with ServiceClient(port=service.port) as client:
                    try:
                        result = client.check(cycle_hypergraph(3 + i), 2)
                        statuses.append(200)
                        assert result["verdict"] in ("yes", "no")
                    except ServiceError as exc:
                        statuses.append(exc.status)
                        retry_afters.append(exc.retry_after)

            threads = [
                threading.Thread(target=ask, args=(i,)) for i in range(12)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert set(statuses) <= {200, 429}
        assert statuses.count(429) >= 1  # the budget of 2 cannot fit 12
        assert 500 not in statuses
        assert all(ra is not None and ra >= 1.0 for ra in retry_afters)

    def test_tenant_rate_limit_maps_to_429(self):
        engine = DecompositionEngine(store=ResultStore())
        admission = AdmissionController(tenant_rate=0.001, tenant_burst=1.0)
        with ServiceThread(engine, window=0.0, admission=admission) as service:
            with ServiceClient(port=service.port) as client:
                first = client.check(_triangle(), 2, tenant="alice")
                assert first["verdict"] == "yes"
                with pytest.raises(ServiceError) as excinfo:
                    client.check(cycle_hypergraph(4), 2, tenant="alice")
                assert excinfo.value.status == 429
                assert excinfo.value.payload["reason"] == "rate"
                assert excinfo.value.retry_after is not None
                # A different tenant still gets in.
                other = client.check(cycle_hypergraph(5), 2, tenant="bob")
                assert other["verdict"] in ("yes", "no")

    def test_open_breaker_maps_to_503_and_degraded_healthz(self):
        engine = DecompositionEngine(store=ResultStore())
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0)
        with ServiceThread(engine, window=0.0, breaker=breaker) as service:
            with ServiceClient(port=service.port) as client:
                assert client.healthz()["status"] == "ok"
                breaker.record_failure()  # wedge the backend by fiat
                with pytest.raises(ServiceError) as excinfo:
                    client.check(_triangle(), 2)
                assert excinfo.value.status == 503
                assert excinfo.value.payload["reason"] == "breaker"
                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 503
                assert excinfo.value.payload["status"] == "degraded"
                stats = client.stats()
                assert stats["breaker"]["state"] == OPEN

    def test_unknown_method_is_400_and_does_not_trip_breaker(self):
        engine = DecompositionEngine(store=ResultStore())
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0)
        with ServiceThread(engine, window=0.0, breaker=breaker) as service:
            with ServiceClient(port=service.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.check(_triangle(), 2, method="no-such-method")
                assert excinfo.value.status == 400
                assert breaker.state == CLOSED
                assert client.check(_triangle(), 2)["verdict"] == "yes"

    def test_invalid_priority_is_400(self):
        engine = DecompositionEngine(store=ResultStore())
        with ServiceThread(engine) as service:
            with ServiceClient(port=service.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.check(_triangle(), 2, priority="urgent")
                assert excinfo.value.status == 400

    def test_oversized_body_gets_413(self):
        engine = DecompositionEngine(store=ResultStore())
        with ServiceThread(engine, max_body_bytes=1024) as service:
            with socket.create_connection(("127.0.0.1", service.port), 5) as s:
                s.sendall(
                    b"POST /check HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
                )
                s.settimeout(5)
                response = s.recv(4096)
            assert response.startswith(b"HTTP/1.1 413"), response[:80]
            # The server survives the refusal.
            with ServiceClient(port=service.port) as client:
                assert client.healthz()["status"] == "ok"

    def test_service_thread_stop_reports_wedged_thread(self):
        """A join that times out raises instead of silently leaking."""
        engine = DecompositionEngine(store=ResultStore())
        service = ServiceThread(engine, window=0.0)
        started = threading.Event()

        def slow_request():
            with ServiceClient(port=service.port) as client:
                started.set()
                client.check(_triangle(), 2, method="ovl_sleepy")

        t = threading.Thread(target=slow_request)
        t.start()
        started.wait(5)
        time.sleep(0.05)  # the sleepy wave is now mid-flight
        with pytest.raises(RuntimeError, match="did not stop"):
            service.stop(join_timeout=0.01)
        service.stop()  # the real join: drains and exits cleanly
        t.join(10)
        assert service.drain_report is not None

    def test_stop_drains_inflight_waves(self):
        """Requests in flight when stop() begins still get 200s — the
        listener closes but live connections drain."""
        engine = DecompositionEngine(store=ResultStore())
        service = ServiceThread(engine, window=0.0)
        results: list[dict] = []
        started = threading.Event()

        def slow_request():
            with ServiceClient(port=service.port) as client:
                started.set()
                results.append(
                    client.check(_triangle(), 2, method="ovl_sleepy")
                )

        t = threading.Thread(target=slow_request)
        t.start()
        started.wait(5)
        time.sleep(0.1)  # in flight
        service.stop()
        t.join(10)
        assert results and results[0]["verdict"] == "no"
        assert service.drain_report["stragglers"] == 0


# ------------------------------------------------------------- client backoff


class _FlakyTransport:
    """Stand-in for ``_request_once``: refuse N times, then succeed."""

    def __init__(self, failures: int, status: int = 429, retry_after=None):
        self.remaining = failures
        self.status = status
        self.retry_after = retry_after
        self.calls = 0

    def __call__(self, method, path, body=None):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise ServiceError(
                self.status, {"error": "overloaded"}, retry_after=self.retry_after
            )
        return {"verdict": "yes"}


class TestClientBackoff:
    def _client(self, **kwargs) -> tuple[ServiceClient, list[float]]:
        sleeps: list[float] = []
        client = ServiceClient(
            port=1, rng=lambda: 0.5, sleep=sleeps.append, **kwargs
        )
        return client, sleeps

    def test_retries_429_with_exponential_jittered_delays(self):
        client, sleeps = self._client(retries=3, backoff_base=0.1)
        transport = _FlakyTransport(failures=3)
        client._request_once = transport
        assert client._request("POST", "/check")["verdict"] == "yes"
        assert transport.calls == 4
        # base·2^n scaled by the pinned jitter factor 0.75.
        assert sleeps == pytest.approx([0.075, 0.15, 0.3])

    def test_honors_retry_after_over_schedule(self):
        client, sleeps = self._client(retries=1, backoff_base=0.01)
        client._request_once = _FlakyTransport(failures=1, retry_after=2.5)
        client._request("GET", "/stats")
        assert sleeps == [2.5]  # the server's hint overrides 0.0075

    def test_retry_budget_bounds_total_sleep(self):
        client, sleeps = self._client(retries=10, retry_budget=0.2, backoff_base=0.1)
        client._request_once = _FlakyTransport(failures=10)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/check")
        assert excinfo.value.status == 429
        assert sum(sleeps) <= 0.2

    def test_no_retry_by_default_and_never_on_client_errors(self):
        client, sleeps = self._client()
        client._request_once = _FlakyTransport(failures=1)
        with pytest.raises(ServiceError):
            client._request("POST", "/check")
        assert sleeps == []
        client, sleeps = self._client(retries=5)
        client._request_once = _FlakyTransport(failures=1, status=400)
        with pytest.raises(ServiceError):
            client._request("POST", "/check")
        assert sleeps == []  # 400 is not retryable


# ----------------------------------------------------- SIGTERM drain, for real


class TestGracefulDrain:
    def test_sigterm_drains_inflight_waves_into_store(self, tmp_path):
        """A real ``repro serve`` process, SIGTERMed with a wave in flight:
        exits 0, answers the in-flight request, persists its verdict."""
        cache = tmp_path / "drain.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--cache", str(cache),
                "--window", "0.5", "--drain-seconds", "10",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro service on http://" in banner, banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0].rstrip("/"))

            results: list[dict] = []

            def ask():
                with ServiceClient(port=port, timeout=30.0) as client:
                    results.append(client.check(cycle_hypergraph(6), 2))

            t = threading.Thread(target=ask)
            t.start()
            time.sleep(0.2)  # request accepted, wave still in its window
            proc.send_signal(signal.SIGTERM)
            t.join(timeout=30)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        output = proc.stdout.read()
        assert "draining" in output
        # The in-flight client was answered, not dropped.
        assert results and results[0]["verdict"] == "yes"
        # ... and the drained wave's verdict landed in the store.
        store = ResultStore(cache)
        try:
            assert len(store) >= 1
        finally:
            store.close()

    def test_jobs_2_server_survives_worker_dispatched_checks(self, tmp_path):
        """A forked check worker must not inherit the server's SIGTERM
        handling.  Under ``--jobs 2`` every cold check runs in a worker
        process that is terminated once it has answered, and a check that
        ignores its deadline is terminated mid-search at its hard timeout;
        after one race, that check and ten distinct cold checks, every
        verdict is the expected one and the server is still running."""
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        bootstrap = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.engine import register_method\n"
            "def spin(hypergraph, k, deadline):\n"
            "    while True:\n"
            "        pass\n"
            "register_method('spin', spin)\n"
            "sys.exit(main(['serve', *sys.argv[1:]]))\n"
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-c", bootstrap,
                "--port", "0", "--cache", str(tmp_path / "jobs2.db"),
                "--jobs", "2",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro service on http://" in banner, banner
            port = int(banner.split("http://127.0.0.1:")[1].split()[0].rstrip("/"))
            with ServiceClient(port=port, timeout=30.0) as client:
                # GlobalBIP refutes hw(K8) <= 3 in ~0.1 s; BalSep spends
                # its whole budget
                race = client.portfolio(clique_hypergraph(8), 3, timeout=2.0)
                # killed by the parent at timeout + grace
                spun = client.check(_triangle(), 2, method="spin", timeout=0.2)
                verdicts = [
                    client.check(cycle_hypergraph(n), 2)["verdict"]
                    for n in range(3, 13)
                ]
            assert race["verdict"] == "no"
            assert spun["verdict"] == "timeout"
            assert verdicts == ["yes"] * 10
            assert proc.poll() is None, "the server shut itself down"
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
