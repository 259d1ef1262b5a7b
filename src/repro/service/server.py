"""JSON-over-HTTP transport for the batch scheduler (stdlib only).

One long-lived server process owns one :class:`DecompositionEngine` and one
:class:`ResultStore`, so every client shares the warm cache and the
scheduler's coalescing window — the HyperBench "service over a precomputed
result store" shape, grown onto four PRs of engine work.

Endpoints (all responses are JSON):

``POST /check``
    ``{"hypergraph": "<hg text>" | {"edges": {...}}, "k": 3,
    "method": "hd", "timeout": 60.0, "deadline": 5.0}`` →
    verdict payload (plus the decomposition tree on a "yes").
``POST /width``
    ``{"hypergraph": ..., "max_k": 6, "method": "hd", ...}`` → exact width
    or bounds (the Figure 4 protocol as one batched job).
``POST /decompose``
    Like ``/check`` but fails with 404-style ``"verdict": "no"`` semantics
    left to the client; the decomposition rides along on a yes.
``POST /portfolio``
    ``{"hypergraph": ..., "k": 3, ...}`` → the Table 4 race verdict,
    answered once every racer has answered or spent its budget.
``GET /stats``
    Service, engine and store counters (coalescing, waves, hit rates).
``GET /healthz``
    Liveness: ``{"status": "ok", ...}`` plus uptime, version, pid and the
    cache path.
``GET /metrics``
    The process metrics registry in Prometheus text exposition format.
``GET /debug/traces``
    The tracer's in-memory ring, grouped by trace (``?limit=N`` bounds the
    number of traces, newest first).

The HTTP layer is a deliberately minimal HTTP/1.1 implementation over
``asyncio`` streams — no routing framework, no threads, no dependencies —
because the interesting concurrency lives in the scheduler, not the socket
handling.  Connections are keep-alive by default; malformed requests get
``400``, unknown paths ``404``, oversized bodies ``413``.

**Overload mapping** (see ``docs/ROBUSTNESS.md``): a scheduler
:class:`~repro.service.overload.Rejected` — or a shed flight resolving with
a ``"rejected"`` verdict — becomes ``429`` (budget / per-kind cap / tenant
rate) or ``503`` (open circuit breaker, draining), always with a
``Retry-After`` header when the server can estimate one.  ``/healthz``
reports ``degraded`` (503) while the breaker is open and ``draining`` (503)
during graceful shutdown, so load balancers stop routing here first.
:func:`serve` installs SIGTERM/SIGINT handlers that close the listener,
drain in-flight waves under ``drain_seconds``, and only then tear down the
scheduler, engine and queue — in-flight clients get their 200s, new
arrivals get fast 503s elsewhere.

Each job request runs under an ``http.request`` root span, so a ``/check``
decomposes into scheduler-wait → wave → worker-exec time in
``/debug/traces``; requests slower than ``slow_request_seconds`` are logged
through the ``repro.service`` logger.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import signal
import threading
import time
from urllib.parse import parse_qs

from repro.core.hypergraph import Hypergraph
from repro.engine import CHECK_METHODS
from repro.engine.engine import DecompositionEngine
# Imported for the side effect too: registering the repro_queue_* metric
# families so /metrics always exposes them, queue-backed or not.
from repro.engine.queue import JobQueue
from repro.engine.remote import Dispatcher
from repro.engine.shards import open_result_store
from repro.errors import ReproError
from repro.io.hg_format import parse_hypergraph
from repro.obs.metrics import Gauge, REGISTRY
from repro.obs.trace import TRACER
from repro.service.overload import (
    OPEN,
    PRIORITIES,
    REJECTED,
    AdmissionController,
    CircuitBreaker,
    Rejected,
    retry_after_header,
)
from repro.service.scheduler import BatchScheduler

__all__ = ["DecompositionServer", "ServiceThread", "serve"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Default cap on request bodies (a hypergraph is a few KB of text);
#: per-server via ``DecompositionServer(max_body_bytes=...)``.  Oversized
#: bodies are refused with ``413`` *before* they are buffered.
_MAX_BODY = 8 * 1024 * 1024

#: Endpoints that submit scheduler jobs (traced under ``http.request``).
_JOB_PATHS = ("/check", "/width", "/decompose", "/portfolio")

_LOG = logging.getLogger("repro.service")

_M_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total", "HTTP requests served, by path and status."
)
_M_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds", "End-to-end HTTP request latency in seconds."
)


class _HttpError(Exception):
    """A typed client-facing refusal: ``status`` + the message in the body."""

    status = 500


class _BadRequest(_HttpError):
    """Client error: reported as a 400 with the message in the body."""

    status = 400


class _TooLarge(_HttpError):
    """Request body over the configured cap: reported as a 413."""

    status = 413


def _hypergraph_from(payload: dict) -> Hypergraph:
    """Build the instance from a request body (hg text or an edge dict)."""
    raw = payload.get("hypergraph")
    name = str(payload.get("name", ""))
    if isinstance(raw, str):
        return parse_hypergraph(raw, name=name)
    if isinstance(raw, dict):
        edges = raw.get("edges", raw)
        if not isinstance(edges, dict):
            raise _BadRequest("'hypergraph.edges' must be an object")
        return Hypergraph(edges, name=name)
    raise _BadRequest(
        "request needs 'hypergraph': detkdecomp text or {\"edges\": {...}}"
    )


def _int_field(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise _BadRequest(f"'{key}' must be a positive integer")
    return value


def _float_field(payload: dict, key: str) -> float | None:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise _BadRequest(f"'{key}' must be a positive number")
    return float(value)


class DecompositionServer:
    """The asyncio HTTP server; owns the scheduler's lifetime, not the engine's.

    Use :meth:`start` / :meth:`stop` from a running event loop, or the
    :class:`ServiceThread` wrapper to host a server from synchronous code
    (tests, benchmarks, notebook sessions).
    """

    def __init__(
        self,
        scheduler: BatchScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        slow_request_seconds: float | None = 1.0,
        max_body_bytes: int = _MAX_BODY,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: Requests at or above this many seconds are logged via the
        #: ``repro.service`` logger; ``None`` disables the slow-request log.
        self.slow_request_seconds = slow_request_seconds
        #: Bodies above this many bytes get a ``413`` without being read.
        self.max_body_bytes = max(1, int(max_body_bytes))
        self._server: asyncio.base_events.Server | None = None
        self._started = time.time()

    async def start(self) -> None:
        """Bind and start accepting; ``port`` is re-read from the socket
        (so ``port=0`` picks a free one)."""
        self._server = await asyncio.start_server(self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.time()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close_listener(self) -> None:
        """Stop accepting new connections; existing ones keep being served.

        The first half of graceful drain: after this, in-flight requests
        still resolve (and respond) normally, but nothing new can connect.
        Idempotent; :meth:`stop` calls it too.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def stop(self, close_engine: bool = False) -> None:
        await self.close_listener()
        await self.scheduler.close(close_engine=close_engine)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------- connection

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # The request could not be framed (or its body was never
                    # read), so keep-alive cannot be trusted: answer with the
                    # typed status and hang up.
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                route = path.split("?", 1)[0]
                started = time.monotonic()
                try:
                    status, payload = await self._handle(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                except Rejected as exc:
                    # Overload refusal: 429 for "come back later" (budget,
                    # kind cap, tenant rate), 503 for "this replica cannot
                    # help you" (open breaker, draining).
                    status = 503 if exc.reason in ("breaker", "draining") else 429
                    payload = {
                        "error": str(exc),
                        "verdict": REJECTED,
                        "reason": exc.reason,
                    }
                    if exc.retry_after is not None:
                        payload["retry_after"] = exc.retry_after
                except (ReproError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                    status, payload = 400, {"error": str(exc)}
                except Exception as exc:  # noqa: BLE001 - a 500, not a crash
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                elapsed = time.monotonic() - started
                _M_HTTP_REQUESTS.inc(path=route, status=status)
                _M_HTTP_SECONDS.observe(elapsed)
                if (
                    self.slow_request_seconds is not None
                    and elapsed >= self.slow_request_seconds
                ):
                    _LOG.warning(
                        "slow request: %s %s took %.3fs (status %d)",
                        method, route, elapsed, status,
                    )
                extra_headers = None
                if status in (429, 503) and isinstance(payload, dict):
                    hint = retry_after_header(payload.get("retry_after"))
                    if hint is not None:
                        extra_headers = {"Retry-After": hint}
                await self._respond(
                    writer, status, payload, keep_alive, headers=extra_headers
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass  # client went away mid-request; nothing to answer
        except asyncio.CancelledError:
            # Server teardown cancelled an idle keep-alive connection.  End
            # the task cleanly: propagating the cancellation makes asyncio's
            # streams done-callback log a spurious "Exception in callback"
            # traceback for every connection open at stop().
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, bytes] | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            raise _BadRequest("Content-Length must be an integer") from None
        if length < 0:
            raise _BadRequest("Content-Length must be non-negative")
        if length > self.max_body_bytes:
            raise _TooLarge(
                f"body too large ({length} bytes, cap {self.max_body_bytes})"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method.upper(), path, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict | str,
        keep_alive: bool,
        headers: dict[str, str] | None = None,
    ) -> None:
        # A ``str`` payload is served verbatim as plain text (the Prometheus
        # exposition of ``/metrics``); everything else is JSON.
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        extra = ""
        for name, value in (headers or {}).items():
            extra += f"{name}: {value}\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # --------------------------------------------------------------- routing

    async def _handle(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str]:
        """Route one request, giving job submissions an ``http.request`` span.

        The span is the request's trace root: the scheduler picks it up as
        the ambient context, so scheduler-wait / wave / worker spans all land
        in one trace per HTTP request.
        """
        route = path.split("?", 1)[0]
        if method == "POST" and route in _JOB_PATHS:
            with TRACER.span("http.request", path=route) as span:
                status, payload = await self._dispatch(method, path, body)
                span.set(status=status)
                return status, payload
        return await self._dispatch(method, path, body)

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str]:
        path, _, query = path.partition("?")
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            store = self.scheduler.engine.store
            from repro import __version__

            # Degrade health first: load balancers drain this replica before
            # clients ever see its 429/503s.
            status_code, status_word = 200, "ok"
            breaker = self.scheduler.breaker
            if self.scheduler.draining:
                status_code, status_word = 503, "draining"
            elif breaker is not None and breaker.state == OPEN:
                status_code, status_word = 503, "degraded"
            health = {
                "status": status_word,
                "uptime": round(time.time() - self._started, 3),
                "uptime_seconds": round(self.scheduler.stats.uptime_seconds, 3),
                "started": self._started,
                "version": __version__,
                "pid": os.getpid(),
                "cache": store.path if store is not None else None,
                "queue": (
                    self.scheduler.dispatcher.queue.path
                    if getattr(self.scheduler, "dispatcher", None) is not None
                    else None
                ),
                "in_flight": len(self.scheduler._flights),
            }
            if breaker is not None:
                health["breaker"] = breaker.state
            return status_code, health
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self.scheduler.stats_snapshot()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, REGISTRY.render(extra=self._live_gauges())
        if path == "/debug/traces":
            if method != "GET":
                return 405, {"error": "use GET"}
            params = parse_qs(query)
            try:
                limit = int(params.get("limit", ["20"])[0])
            except ValueError:
                raise _BadRequest("'limit' must be an integer") from None
            return 200, {"traces": TRACER.traces(limit=limit)}
        if path in _JOB_PATHS:
            if method != "POST":
                return 405, {"error": "use POST"}
            payload = json.loads(body.decode("utf-8") or "{}")
            if not isinstance(payload, dict):
                raise _BadRequest("request body must be a JSON object")
            result = await self._run_job(path, payload)
            if result.get("verdict") == REJECTED:
                # A flight shed after admission (breaker opened mid-queue):
                # same taxonomy as an admission-time Rejected.
                reason = result.get("reason")
                return (503 if reason in ("breaker", "draining") else 429), result
            return 200, result
        return 404, {"error": f"unknown path {path!r}"}

    def _live_gauges(self) -> list[Gauge]:
        """Ad-hoc gauges over live objects, rendered per scrape (not stored)."""
        gauges = []
        store = self.scheduler.engine.store
        if store is not None:
            entries = Gauge(
                "repro_store_entries", "Rows currently in the result store."
            )
            entries.set(len(store))
            gauges.append(entries)
        in_flight = Gauge(
            "repro_service_in_flight", "Flights currently queued or mid-wave."
        )
        in_flight.set(len(self.scheduler._flights))
        gauges.append(in_flight)
        uptime = Gauge(
            "repro_service_uptime_seconds", "Seconds since scheduler start."
        )
        uptime.set(self.scheduler.stats.uptime_seconds)
        gauges.append(uptime)
        dispatcher = getattr(self.scheduler, "dispatcher", None)
        if dispatcher is not None:
            snapshot = dispatcher.queue.stats()
            for name, help_text, value in (
                ("repro_queue_depth", "Jobs leasable right now.", snapshot["depth"]),
                ("repro_queue_leased", "Jobs currently under lease.", snapshot["leased"]),
                ("repro_queue_dead_jobs", "Jobs that exhausted their attempt budget.", snapshot["dead"]),
            ):
                gauge = Gauge(name, help_text)
                gauge.set(value)
                gauges.append(gauge)
        return gauges

    async def _run_job(self, path: str, payload: dict) -> dict:
        hypergraph = _hypergraph_from(payload)
        timeout = _float_field(payload, "timeout")
        deadline = _float_field(payload, "deadline")
        tenant = payload.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise _BadRequest("'tenant' must be a string")
        priority = payload.get("priority", "normal")
        if priority not in PRIORITIES:
            raise _BadRequest(
                f"'priority' must be one of {sorted(PRIORITIES)}"
            )
        extras = {"deadline": deadline, "tenant": tenant, "priority": priority}
        if path == "/portfolio":
            return await self.scheduler.portfolio(
                hypergraph, _int_field(payload, "k"), timeout=timeout, **extras
            )
        # Unknown method names are a client mistake, answered 400 here so
        # they never reach (and never trip) the dispatch circuit breaker.
        method = str(payload.get("method", "hd"))
        if method not in CHECK_METHODS:
            raise _BadRequest(
                f"unknown method {method!r}; known: {sorted(CHECK_METHODS)}"
            )
        if path == "/width":
            return await self.scheduler.width(
                hypergraph,
                _int_field(payload, "max_k"),
                method=method,
                timeout=timeout,
                **extras,
            )
        # /check and /decompose share the flight key, so a concurrent check
        # and decompose of the same (H, method, k) coalesce; /check merely
        # strips the tree from its response.
        result = await self.scheduler.check(
            hypergraph,
            _int_field(payload, "k"),
            method=method,
            timeout=timeout,
            **extras,
        )
        if path == "/check":
            result = {k: v for k, v in result.items() if k != "decomposition"}
        return result


# ------------------------------------------------------------ sync embedding


class ServiceThread:
    """A server + scheduler + event loop hosted on a background thread.

    The synchronous embedding used by tests, benchmarks and the examples:

    .. code-block:: python

        engine = DecompositionEngine(store=ResultStore("results.db"))
        with ServiceThread(engine) as service:
            client = ServiceClient(port=service.port)
            client.check(h, k=2)

    ``stop()`` (or leaving the ``with`` block) drains the scheduler and, by
    default, closes the engine and its store.
    """

    def __init__(
        self,
        engine: DecompositionEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        window: float = 0.02,
        max_wave: int = 32,
        close_engine: bool = True,
        slow_request_seconds: float | None = 1.0,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
        max_body_bytes: int = _MAX_BODY,
        drain_seconds: float | None = 5.0,
    ):
        self.engine = engine
        self.scheduler: BatchScheduler | None = None
        self.server: DecompositionServer | None = None
        #: ``{"in_flight", "drained", "stragglers"}`` from the last stop().
        self.drain_report: dict | None = None
        self._close_engine = close_engine
        self._slow = slow_request_seconds
        self._admission = admission
        self._breaker = breaker
        self._max_body = max_body_bytes
        self._drain_seconds = drain_seconds
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, args=(host, port, window, max_wave), daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise self._error

    def _main(self, host: str, port: int, window: float, max_wave: int) -> None:
        async def body() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                self.scheduler = BatchScheduler(
                    self.engine, window=window, max_wave=max_wave,
                    admission=self._admission, breaker=self._breaker,
                )
                self.server = DecompositionServer(
                    self.scheduler, host=host, port=port,
                    slow_request_seconds=self._slow,
                    max_body_bytes=self._max_body,
                )
                await self.server.start()
            except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._stop.wait()
            # Graceful order: listener first, then let in-flight waves land
            # (their connections are still open and still get 200s), then
            # tear the scheduler/engine down.
            await self.server.close_listener()
            self.drain_report = await self.scheduler.drain(self._drain_seconds)
            await self.server.stop(close_engine=self._close_engine)

        asyncio.run(body())

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.port

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    def stop(self, join_timeout: float = 30.0) -> None:
        """Stop accepting, drain in-flight waves, join the thread.

        Raises ``RuntimeError`` if the thread outlives ``join_timeout`` —
        a wedged server is a bug worth surfacing, not a silent leak.
        """
        if self._loop is not None and self._stop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=join_timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"service thread did not stop within {join_timeout:.0f}s "
                "(event loop wedged; server and engine leaked)"
            )

    def __enter__(self) -> "ServiceThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


async def serve(
    store_path: str | None,
    host: str = "127.0.0.1",
    port: int = 8080,
    jobs: int = 1,
    window: float = 0.02,
    max_wave: int = 32,
    slow_request_seconds: float | None = 1.0,
    trace_journal: str | None = None,
    queue_path: str | None = None,
    shards: int | None = None,
    max_pending: int | None = None,
    kind_limits: dict[str, int] | None = None,
    tenant_rate: float | None = None,
    tenant_burst: float | None = None,
    breaker_failures: int = 5,
    breaker_reset: float = 30.0,
    drain_seconds: float = 5.0,
    max_body_bytes: int = _MAX_BODY,
) -> None:
    """Run the service until cancelled or signalled (``repro serve``).

    ``trace_journal`` appends every finished span as JSONL to the given path
    (readable offline with ``repro trace show --journal``);
    ``slow_request_seconds`` tunes the slow-request log threshold.

    ``queue_path`` switches wave execution to distributed dispatch: waves go
    into the persistent job queue at that path, and external ``repro
    worker`` processes (sharing the queue and ``--cache``) execute them.
    The serving process then does no decomposition work itself — with no
    workers attached, requests wait in the queue.  ``shards`` opens the
    cache as a :class:`~repro.engine.shards.ShardedResultStore` (N files,
    routed by fingerprint), the layout that spreads worker write-back.

    Overload protection (``docs/ROBUSTNESS.md``): ``max_pending``,
    ``kind_limits`` and ``tenant_rate``/``tenant_burst`` configure an
    :class:`~repro.service.overload.AdmissionController` (all off by
    default); ``breaker_failures``/``breaker_reset`` configure the wave
    circuit breaker (on by default, ``breaker_failures=0`` disables it).
    SIGTERM/SIGINT trigger graceful drain: the listener closes, in-flight
    waves get up to ``drain_seconds`` to land (their clients still receive
    responses), stragglers are reported, and every exit path closes the
    engine, store and queue.
    """
    if trace_journal is not None:
        TRACER.set_journal(trace_journal)
    store = open_result_store(store_path, shards=shards)
    engine = DecompositionEngine(store=store, jobs=jobs)
    dispatcher = None
    server = None
    scheduler = None
    serving: asyncio.Future | None = None
    signalled: asyncio.Future | None = None
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    installed: list[signal.Signals] = []
    try:
        if queue_path is not None:
            dispatcher = Dispatcher(JobQueue(queue_path), engine)
        admission = None
        if max_pending is not None or kind_limits or tenant_rate is not None:
            admission = AdmissionController(
                max_pending=max_pending,
                kind_limits=kind_limits,
                tenant_rate=tenant_rate,
                tenant_burst=tenant_burst,
            )
        breaker = None
        if breaker_failures > 0:
            breaker = CircuitBreaker(
                failure_threshold=breaker_failures, reset_seconds=breaker_reset
            )
        scheduler = BatchScheduler(
            engine, window=window, max_wave=max_wave, dispatcher=dispatcher,
            admission=admission, breaker=breaker,
        )
        server = DecompositionServer(
            scheduler, host=host, port=port,
            slow_request_seconds=slow_request_seconds,
            max_body_bytes=max_body_bytes,
        )
        await server.start()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        mode = f", queue={queue_path}" if queue_path is not None else ""
        print(f"repro service on {server.url} "
              f"(jobs={jobs}, cache={store_path or ':memory:'}{mode})", flush=True)
        serving = asyncio.ensure_future(server.serve_forever())
        signalled = asyncio.ensure_future(stop.wait())
        await asyncio.wait(
            {serving, signalled}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop.is_set():
            # Graceful drain: stop accepting (cancels serve_forever), let
            # in-flight waves land and answer over their still-open
            # connections, then fall through to the shared teardown.
            print("repro service: draining...", flush=True)
            await server.close_listener()
            report = await scheduler.drain(drain_seconds)
            print(
                "repro service: drained "
                f"{report['drained']}/{report['in_flight']} in-flight waves, "
                f"{report['stragglers']} stragglers",
                flush=True,
            )
    except asyncio.CancelledError:
        pass
    finally:
        for task in (serving, signalled):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
        for sig in installed:
            loop.remove_signal_handler(sig)
        if server is not None:
            await server.stop(close_engine=True)
        elif scheduler is not None:
            await scheduler.close(close_engine=True)
        else:
            engine.close()
        if dispatcher is not None:
            dispatcher.queue.close()
