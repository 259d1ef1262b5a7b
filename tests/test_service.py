"""Tests for the ``repro.service`` layer.

Covers the scheduler's three dedup layers (store fast path, duplicate
coalescing, batch waves), per-request deadline expiry, the HTTP transport
(end-to-end client sessions, error statuses, concurrent clients sharing one
warm engine), warm-cache restarts, and the concurrent-reader and
concurrent-writer hardening of the store itself.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import CheckOutcome
from repro.engine import DecompositionEngine, JobSpec, ResultStore, fingerprint, register_method
from repro.io.json_io import decomposition_from_json
from repro.service import BatchScheduler, ServiceClient, ServiceThread
from repro.service.client import ServiceError
from repro.service.scheduler import EXPIRED
from tests.conftest import cycle_hypergraph, random_hypergraph


def _triangle() -> Hypergraph:
    return Hypergraph(
        {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="triangle"
    )


def _sleepy(hypergraph, k, deadline):
    """A registered check that takes long enough for deadlines to expire."""
    time.sleep(0.4)
    return None


register_method("svc_sleepy", _sleepy)


# ------------------------------------------------------------- the scheduler


class TestScheduler:
    def test_concurrent_identical_checks_cost_one_dispatch(self):
        """The acceptance property: N identical in-flight /check requests
        produce exactly one engine dispatch, counted via EngineStats."""

        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.05)
            results = await asyncio.gather(
                *(scheduler.check(_triangle(), 2) for _ in range(10))
            )
            await scheduler.close(close_engine=True)
            return engine.stats, scheduler.stats, results

        engine_stats, service_stats, results = asyncio.run(main())
        assert engine_stats.executed == 1
        assert {r["verdict"] for r in results} == {"yes"}
        assert service_stats.coalesced == 9
        assert service_stats.dispatched == 1
        assert sum(r["coalesced"] for r in results) == 9

    def test_store_fast_path_answers_implied_without_wave(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.01)
            h = _triangle()
            first = await scheduler.check(h, 2)
            implied = await scheduler.check(h, 5)  # yes at 2 ⇒ yes at 5
            await scheduler.close(close_engine=True)
            return engine.stats, scheduler.stats, first, implied

        engine_stats, service_stats, first, implied = asyncio.run(main())
        assert first["verdict"] == "yes" and not first["cached"]
        assert implied["verdict"] == "yes"
        assert implied["source"] == "store" and implied["implied"]
        assert engine_stats.executed == 1
        assert service_stats.store_answers == 1
        assert service_stats.waves == 1  # the implied answer joined no wave

    def test_mixed_kinds_share_one_wave(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.1)
            h, cycle = _triangle(), cycle_hypergraph(5)
            results = await asyncio.gather(
                scheduler.check(h, 1),
                scheduler.width(cycle, 3),
                scheduler.portfolio(h, 2),
            )
            await scheduler.close(close_engine=True)
            return scheduler.stats, results

        service_stats, (check, width, portfolio) = asyncio.run(main())
        assert service_stats.waves == 1 and service_stats.wave_jobs == 3
        assert check["verdict"] == "no"
        assert width["verdict"] == "exact" and width["width"] == 2
        assert portfolio["verdict"] == "yes"
        assert service_stats.by_kind == {"check": 1, "width": 1, "portfolio": 1}

    def test_deadline_expiry_keeps_flight_alive(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            h = _triangle()
            expired = await scheduler.check(h, 2, method="svc_sleepy", deadline=0.05)
            # The flight survives its impatient waiter: once the wave lands,
            # the verdict is in the store for the next asker.
            patient = await scheduler.check(h, 2, method="svc_sleepy")
            await scheduler.close(close_engine=True)
            return scheduler.stats, expired, patient

        service_stats, expired, patient = asyncio.run(main())
        assert expired["verdict"] == EXPIRED and expired["source"] == "deadline"
        assert service_stats.expired == 1
        assert patient["verdict"] == "no"
        # The patient request coalesced onto (or replayed) the same flight.
        assert patient["coalesced"] or patient["source"] == "store"

    def test_decomposition_rides_along_and_validates(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            payload = await scheduler.check(_triangle(), 2)
            await scheduler.close(close_engine=True)
            return payload

        payload = asyncio.run(main())
        tree = payload["decomposition"]
        assert tree is not None
        rebuilt = decomposition_from_json(json.dumps(tree), _triangle())
        rebuilt.validate()
        assert rebuilt.integral_width <= 2

    def test_wave_failure_reports_error_not_hang(self):
        async def main():
            engine = DecompositionEngine(store=ResultStore())
            scheduler = BatchScheduler(engine, window=0.0)
            payload = await scheduler.check(_triangle(), 2, method="no-such-method")
            await scheduler.close(close_engine=True)
            return payload, scheduler.stats

        payload, service_stats = asyncio.run(main())
        assert payload["verdict"] == "error"
        assert "no-such-method" in payload["error"]
        assert service_stats.errors == 1


# ------------------------------------------------------------ HTTP transport


class TestServer:
    def test_client_session_end_to_end(self, tmp_path):
        engine = DecompositionEngine(store=ResultStore(tmp_path / "svc.db"))
        with ServiceThread(engine) as service:
            with ServiceClient(port=service.port) as client:
                assert client.healthz()["status"] == "ok"

                h = _triangle()
                check = client.check(h, 2)
                assert check["verdict"] == "yes"
                assert "decomposition" not in check  # /check strips the tree

                decomposed = client.decompose(h, 2)
                tree = decomposed["decomposition"]
                rebuilt = decomposition_from_json(json.dumps(tree), h)
                rebuilt.validate()

                width = client.width(h, max_k=5)
                assert width["width"] == 2

                race = client.portfolio(h, 2)
                assert race["verdict"] == "yes"

                stats = client.stats()
                assert stats["service"]["requests"] == 4
                assert stats["engine"]["executed"] >= 1
                assert stats["store"]["entries"] >= 1

    def test_hypergraph_as_edge_dict(self):
        engine = DecompositionEngine(store=ResultStore())
        with ServiceThread(engine) as service:
            with ServiceClient(port=service.port) as client:
                payload = client._request(
                    "POST",
                    "/check",
                    {"hypergraph": {"edges": {"a": ["1", "2"], "b": ["2", "3"]}},
                     "k": 1},
                )
                assert payload["verdict"] == "yes"

    def test_error_statuses(self):
        engine = DecompositionEngine(store=ResultStore())
        with ServiceThread(engine) as service:
            with ServiceClient(port=service.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", "/no-such-path")
                assert excinfo.value.status == 404

                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/check", {"hypergraph": "r(x,y).", "k": 0})
                assert excinfo.value.status == 400

                with pytest.raises(ServiceError) as excinfo:
                    client._request("POST", "/check", {"hypergraph": ")(", "k": 1})
                assert excinfo.value.status == 400

                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", "/check")
                assert excinfo.value.status == 405

                # The connection survives error responses.
                assert client.healthz()["status"] == "ok"

    def test_unframeable_requests_get_400_not_a_dropped_connection(self):
        """Garbage at the HTTP layer answers 400 and closes — it must not
        surface as an unhandled task exception with an empty response."""
        import socket

        engine = DecompositionEngine(store=ResultStore())
        with ServiceThread(engine) as service:
            for raw in (
                b"GARBAGE\r\n\r\n",
                b"POST /check HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                b"POST /check HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            ):
                with socket.create_connection(("127.0.0.1", service.port), 5) as s:
                    s.sendall(raw)
                    response = b""
                    s.settimeout(5)
                    while b"\r\n\r\n" not in response:
                        chunk = s.recv(4096)
                        if not chunk:
                            break
                        response += chunk
                assert response.startswith(b"HTTP/1.1 400"), (raw, response[:80])

            # A non-UTF-8 body is a client error, not a 500.
            with socket.create_connection(("127.0.0.1", service.port), 5) as s:
                body = b"\xff\xfe{"
                s.sendall(
                    b"POST /check HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body
                )
                s.settimeout(5)
                response = s.recv(4096)
            assert response.startswith(b"HTTP/1.1 400"), response[:80]

            # ... and the server is still healthy afterwards.
            with ServiceClient(port=service.port) as client:
                assert client.healthz()["status"] == "ok"

    def test_concurrent_clients_coalesce_on_one_engine(self):
        """Eight clients on eight threads ask the same question inside one
        batching window; the shared engine dispatches exactly once."""
        engine = DecompositionEngine(store=ResultStore())
        h = cycle_hypergraph(6)
        with ServiceThread(engine, window=0.25) as service:

            def ask(_):
                with ServiceClient(port=service.port) as client:
                    return client.check(h, 2)

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(ask, range(8)))

            assert {r["verdict"] for r in results} == {"yes"}
            assert engine.stats.executed == 1
            with ServiceClient(port=service.port) as client:
                stats = client.stats()["service"]
            # Every duplicate was either coalesced onto the in-flight job or
            # (if it arrived after the wave landed) answered from the store.
            assert stats["coalesced"] + stats["store_answers"] == 7

    def test_warm_cache_restart_executes_nothing(self, tmp_path):
        """A second service session on the same cache answers entirely from
        the store: no worker dispatch, cache-hit accounting visible."""
        cache = tmp_path / "warm.db"
        h = cycle_hypergraph(7)

        first_engine = DecompositionEngine(store=ResultStore(cache))
        with ServiceThread(first_engine) as service:
            with ServiceClient(port=service.port) as client:
                cold = client.width(h, max_k=4)
        assert cold["width"] == 2
        assert first_engine.stats.executed > 0

        second_engine = DecompositionEngine(store=ResultStore(cache))
        with ServiceThread(second_engine) as service:
            with ServiceClient(port=service.port) as client:
                warm = client.width(h, max_k=4)
                warm_check = client.check(h, 2)
                stats = client.stats()
        assert warm["width"] == 2 and warm["source"] == "store"
        assert warm_check["verdict"] == "yes" and warm_check["source"] == "store"
        assert second_engine.stats.executed == 0
        assert stats["service"]["store_answers"] == 2
        assert stats["service"]["dispatched"] == 0

    def test_parallel_engine_behind_service(self):
        """A jobs>1 engine fans a wave of distinct requests across workers."""
        engine = DecompositionEngine(store=ResultStore(), jobs=2)
        graphs = [random_hypergraph(seed) for seed in range(4)]
        with ServiceThread(engine, window=0.2) as service:

            def ask(h):
                with ServiceClient(port=service.port) as client:
                    return client.check(h, 2, timeout=30.0)

            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(ask, graphs))
        assert all(r["verdict"] in ("yes", "no") for r in results)
        # One dispatch per distinct fingerprint at most (coalescing and the
        # store may dedupe further if any two random graphs coincide).
        assert 1 <= engine.stats.executed <= len({fingerprint(h) for h in graphs})


# ---------------------------------------------------- store concurrency bits


#: Writer processes in the concurrent-put test: more than the test host's
#: cores, so the writers' transactions interleave.
_WRITERS = 3


def _write_verdicts(path: str, writer: int, start, fps: list[str]) -> None:
    """One writer process: a "no" at ``writer + 1`` and a "yes" at
    ``10 + writer`` for every fingerprint, all writers released at once."""
    with ResultStore(path) as store:
        start.wait(timeout=60)
        for fp in fps:
            store.put(fp, "hd", writer + 1, None, CheckOutcome("no", 0.01))
            store.put(fp, "hd", 10 + writer, None, CheckOutcome("yes", 0.01))


class TestStoreConcurrency:
    def test_two_connections_share_a_file(self, tmp_path):
        """WAL + busy timeout: a second process-style connection reads rows
        the first one wrote, without 'database is locked' failures."""
        path = tmp_path / "shared.db"
        writer = ResultStore(path)
        reader = ResultStore(path)
        try:
            writer.put("fp", "hd", 2, None, CheckOutcome("yes", 0.1))
            stored = reader.get("fp", "hd", 2, None)
            assert stored is not None and stored.verdict == "yes"
            assert reader.bounds("fp", "hd") == (1, 2)
        finally:
            writer.close()
            reader.close()

    def test_cross_thread_store_access(self):
        """check_same_thread=False + internal lock: many threads hammering
        one store neither crash nor corrupt the counters."""
        store = ResultStore()

        def work(i: int) -> None:
            store.put(f"fp{i % 4}", "hd", 2 + (i % 3), None, CheckOutcome("yes", 0.01))
            stored = store.get(f"fp{i % 4}", "hd", 2, None)
            store.record(hits=int(stored is not None), misses=int(stored is None))
            store.bounds(f"fp{i % 4}", "hd")

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(64)))
        stats = store.stats
        assert stats.session_hits + stats.session_misses == 64
        store.close()

    def test_concurrent_writer_processes_keep_the_bounds_exact(self, tmp_path):
        """Each put rewrites its fingerprint's bounds from the rows it can
        see.  Writers racing on one file must neither collide in each
        other's half-done rewrite nor commit an interval that misses another
        writer's row: every put is one transaction."""
        path = str(tmp_path / "shared.db")
        ResultStore(path).close()  # create the schema before the race
        fps = [f"fp{i:02d}" for i in range(40)]
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(_WRITERS + 1)
        writers = [
            ctx.Process(target=_write_verdicts, args=(path, w, start, fps))
            for w in range(_WRITERS)
        ]
        for proc in writers:
            proc.start()
        try:
            start.wait(timeout=60)
        finally:
            for proc in writers:
                proc.join(timeout=60)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
        assert [proc.exitcode for proc in writers] == [0] * _WRITERS
        with ResultStore(path) as store:
            assert len(store) == 2 * _WRITERS * len(fps)
            for fp in fps:
                assert store.bounds(fp, "hd") == (_WRITERS + 1, 10)
                assert store.kind_bounds(fp, "hw") == (_WRITERS + 1, 10)

    def test_engine_reentrant_batch_submission(self):
        """Two threads submitting batches against one engine serialise on
        the dispatch lock; counters stay exact."""
        engine = DecompositionEngine(store=ResultStore())
        graphs = [random_hypergraph(seed) for seed in range(6)]

        def batch(offset: int):
            specs = [JobSpec.check(h, 2) for h in graphs[offset : offset + 3]]
            return engine.run_batch(specs)

        with ThreadPoolExecutor(max_workers=2) as pool:
            reports = list(pool.map(batch, (0, 3)))
        assert all(r.total == 3 for r in reports)
        assert engine.stats.requests == 6
        engine.close()
