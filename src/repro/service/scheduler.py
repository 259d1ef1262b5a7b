"""The coalescing batch scheduler — the service's asyncio front-end.

The scheduler is what makes "heavy traffic from many users" cheap: it sits
between concurrent clients and one shared :class:`~repro.engine.engine.\
DecompositionEngine` and spends at most one engine dispatch per *distinct*
piece of work, no matter how many clients ask for it at once.  Three layers
of deduplication apply, in order:

1. **Store fast path.**  Before anything is queued, the request is replayed
   against the result store via :meth:`DecompositionEngine.try_replay` —
   exact rows, verdicts implied by the per-method bounds index, and
   cross-method ``kind_bounds`` knowledge all answer here, synchronously,
   with no wave latency.
2. **Coalescing.**  Requests that miss the store are keyed by their job
   identity (``JobSpec.key()``: kind, fingerprint, method, k/max_k, timeout
   budget).  If an identical job is already *in flight* — queued or mid-wave
   — the new request simply awaits the same future: N concurrent identical
   requests cost exactly one dispatch.
3. **Batch waves.**  Novel jobs queue for a short ``window`` (letting a
   burst accumulate), then up to ``max_wave`` of them run as one
   :meth:`DecompositionEngine.run_batch` on a worker thread — so a parallel
   engine fans the whole wave across its process pool, and the event loop
   stays free to accept (and coalesce) more traffic meanwhile.

Per-request **deadlines** are enforced at the awaiting edge: a request that
cannot wait any longer resolves with an ``"expired"`` verdict while the
underlying flight keeps running — its result still lands in the store, so
the next asker gets it from the fast path.  The deadline also *propagates
down*: it clamps the engine job timeout at admission, expired-on-arrival
requests never register a flight, and flights whose every waiter has given
up are **shed** at wave formation instead of dispatched.

Under overload the scheduler refuses work instead of queueing it (see
:mod:`repro.service.overload`): an :class:`~repro.service.overload.\
AdmissionController` bounds the pending budget / per-kind concurrency /
per-tenant rates, and a :class:`~repro.service.overload.CircuitBreaker`
around wave dispatch converts a wedged backend into fast, typed
``"rejected"`` refusals.  :meth:`BatchScheduler.drain` is the graceful-
shutdown half: stop admitting, let in-flight waves land, report stragglers.

The scheduler is single-loop asyncio; the only blocking work it performs on
the loop thread is SQLite peeks (microseconds — the store locks internally
and is never held across a decomposition search).
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass, field

from repro.core.hypergraph import Hypergraph
from repro.engine.engine import DecompositionEngine
from repro.engine.jobs import CHECK, JobResult, JobSpec
from repro.io.json_io import decomposition_to_json
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.service.overload import (
    OPEN,
    PRIORITIES,
    REJECTED,
    AdmissionController,
    CircuitBreaker,
    Rejected,
    _M_REJECTED,
    _M_SHED,
)

__all__ = ["BatchScheduler", "ServiceStats", "EXPIRED", "ERROR", "REJECTED"]

#: Verdict of a request whose deadline passed while its flight was pending.
EXPIRED = "expired"
#: Verdict of a request whose wave failed with an unexpected exception.
ERROR = "error"

# Process-wide service metric families (see docs/OBSERVABILITY.md).
_M_REQUESTS = REGISTRY.counter(
    "repro_service_requests_total", "Jobs submitted to the batch scheduler."
)
_M_STORE_ANSWERS = REGISTRY.counter(
    "repro_service_store_answers_total",
    "Scheduler requests answered synchronously from the result store.",
)
_M_COALESCED = REGISTRY.counter(
    "repro_service_coalesced_total",
    "Scheduler requests that joined an identical in-flight job.",
)
_M_EXPIRED = REGISTRY.counter(
    "repro_service_expired_total",
    "Scheduler requests whose deadline passed before their flight landed.",
)
_M_ERRORS = REGISTRY.counter(
    "repro_service_errors_total", "Scheduler flights that resolved with an error."
)
_M_WAVES = REGISTRY.counter(
    "repro_service_waves_total", "Batch waves dispatched to the engine."
)
_M_WAVE_JOBS = REGISTRY.counter(
    "repro_service_wave_jobs_total", "Jobs dispatched across all batch waves."
)


@dataclass
class ServiceStats:
    """Request accounting for one scheduler (the ``/stats`` service section).

    ``requests`` counts everything submitted; ``store_answers`` the subset
    answered synchronously from the result store; ``coalesced`` the subset
    that joined an already-in-flight identical job.  The remainder —
    ``requests - store_answers - coalesced`` — is what actually reached the
    engine, grouped into ``waves`` batches of ``wave_jobs`` total jobs.
    """

    requests: int = 0
    store_answers: int = 0
    coalesced: int = 0
    expired: int = 0
    errors: int = 0
    waves: int = 0
    wave_jobs: int = 0
    #: Requests refused at admission (budget/kind/rate/breaker/draining).
    rejected: int = 0
    #: Admitted flights dropped before dispatch (dead deadline, open breaker).
    shed: int = 0
    by_kind: dict = field(default_factory=dict)
    #: Monotonic clock reading at scheduler construction — ``uptime_seconds``
    #: in the snapshot derives from it, immune to wall-clock adjustments.
    started_at: float = field(default_factory=time.monotonic)

    @property
    def dispatched(self) -> int:
        return (
            self.requests - self.store_answers - self.coalesced - self.rejected
        )

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "store_answers": self.store_answers,
            "coalesced": self.coalesced,
            "dispatched": self.dispatched,
            "expired": self.expired,
            "errors": self.errors,
            "waves": self.waves,
            "wave_jobs": self.wave_jobs,
            "rejected": self.rejected,
            "shed": self.shed,
            "by_kind": dict(self.by_kind),
            "started_at": self.started_at,
            "uptime_seconds": self.uptime_seconds,
        }


@dataclass(eq=False)
class _Flight:
    """One in-flight unit of engine work, shared by all coalesced waiters."""

    spec: JobSpec
    future: asyncio.Future
    waiters: int = 1
    #: The ``scheduler.wait`` span measuring queue time until wave dispatch.
    wait_span: object = None
    #: Priority rank (see :data:`~repro.service.overload.PRIORITIES`); waves
    #: are formed high-rank first, arrival order within a rank.
    priority: int = 1
    #: Monotonic instant after which *no* waiter can still use the result —
    #: the flight is shed instead of dispatched.  ``None`` = some waiter has
    #: no deadline, so the flight always dispatches.
    expires_at: float | None = None

    def extend(self, deadline: float | None, now: float) -> None:
        """Fold a joining waiter's deadline into the shed horizon."""
        if deadline is None:
            self.expires_at = None
        elif self.expires_at is not None:
            self.expires_at = max(self.expires_at, now + deadline)


class BatchScheduler:
    """Coalesce, cache-check and batch decomposition requests over one engine.

    Parameters
    ----------
    engine:
        The shared :class:`DecompositionEngine`.  The scheduler owns its
        dispatch cadence but not its lifetime — call :meth:`close` with
        ``close_engine=True`` to tear both down together.
    window:
        Seconds a wave waits after the first novel job arrives, letting a
        burst of concurrent requests accumulate into one ``run_batch``.
        ``0.0`` dispatches immediately (per-request batches).
    max_wave:
        Maximum jobs per ``run_batch`` wave; excess jobs roll into the next
        wave without waiting another window.
    dispatcher:
        A :class:`~repro.engine.remote.Dispatcher` to route waves through a
        persistent job queue instead of the in-process pool (``repro serve
        --queue``).  The store fast path and coalescing still run here; only
        where the cold jobs execute moves — the dispatcher is the queue
        executor behind the engine's one batch path, so everything
        downstream is unchanged.
    admission:
        An :class:`~repro.service.overload.AdmissionController`; requests
        past its budget/caps/rates raise :class:`~repro.service.overload.\
Rejected` instead of queueing.  ``None`` admits everything (the
        pre-overload behaviour).
    breaker:
        A :class:`~repro.service.overload.CircuitBreaker` around wave
        dispatch.  While open, admission refuses new flights and already-
        queued waves are shed with ``"rejected"`` payloads instead of being
        fed to a backend known to be failing.  ``None`` disables breaking.
    """

    def __init__(
        self,
        engine: DecompositionEngine,
        window: float = 0.02,
        max_wave: int = 32,
        dispatcher=None,
        admission: AdmissionController | None = None,
        breaker: CircuitBreaker | None = None,
    ):
        self.engine = engine
        self.window = max(0.0, float(window))
        self.max_wave = max(1, int(max_wave))
        self.dispatcher = dispatcher
        self.admission = admission
        self.breaker = breaker
        self.stats = ServiceStats()
        self._flights: dict[tuple, _Flight] = {}
        self._pending: list[_Flight] = []
        #: Every unresolved flight (queued or mid-wave), coalesced or not —
        #: the admission budget and the drain protocol both count these.
        self._inflight: set[_Flight] = set()
        self._kind_counts: dict[str, int] = {}
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._closed = False
        self._draining = False

    # -------------------------------------------------------------- requests

    @staticmethod
    def _clamp(timeout: float | None, deadline: float | None) -> float | None:
        """Deadline propagation, hop one: the engine job budget can never
        exceed what the requester is willing to wait for."""
        if deadline is None:
            return timeout
        if timeout is None:
            return deadline
        return min(timeout, deadline)

    async def check(
        self,
        hypergraph: Hypergraph,
        k: int,
        method: str = "hd",
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        priority: str = "normal",
    ) -> dict:
        """One ``Check(H, k)``; coalesces with identical in-flight checks."""
        return await self.submit(
            JobSpec.check(
                hypergraph, k, method=method,
                timeout=self._clamp(timeout, deadline),
                trace=TRACER.current_context(),
            ),
            deadline=deadline, tenant=tenant, priority=priority,
        )

    async def width(
        self,
        hypergraph: Hypergraph,
        max_k: int,
        method: str = "hd",
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        priority: str = "normal",
    ) -> dict:
        """An exact-width sweep (Figure 4 protocol) as one batched job."""
        return await self.submit(
            JobSpec.width(
                hypergraph, max_k, method=method,
                timeout=self._clamp(timeout, deadline),
                trace=TRACER.current_context(),
            ),
            deadline=deadline, tenant=tenant, priority=priority,
        )

    async def portfolio(
        self,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        priority: str = "normal",
    ) -> dict:
        """A Table 4 GHD portfolio race at width ``k``."""
        return await self.submit(
            JobSpec.portfolio(
                hypergraph, k, timeout=self._clamp(timeout, deadline),
                trace=TRACER.current_context(),
            ),
            deadline=deadline, tenant=tenant, priority=priority,
        )

    async def submit(
        self,
        spec: JobSpec,
        deadline: float | None = None,
        tenant: str | None = None,
        priority: str = "normal",
    ) -> dict:
        """Schedule one job spec; returns its JSON-able result payload.

        The synchronous prefix (admission, store peek, flight registration)
        runs before the first ``await``, so concurrent identical submissions
        coalesce deterministically — whichever runs first registers the
        flight, every later one joins it.

        Raises :class:`~repro.service.overload.Rejected` when overload
        protection refuses the request (never queued, nothing dispatched).
        Coalesced joins and store answers bypass admission — they create no
        new work.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        rank = PRIORITIES.get(priority)
        if rank is None:
            raise ValueError(
                f"unknown priority {priority!r}; known: {sorted(PRIORITIES)}"
            )
        self.stats.requests += 1
        self.stats.by_kind[spec.kind] = self.stats.by_kind.get(spec.kind, 0) + 1
        _M_REQUESTS.inc(kind=spec.kind)
        key = spec.key()
        flight = self._flights.get(key)
        coalesced = flight is not None
        if flight is None:
            with TRACER.span(
                "scheduler.admit", parent=spec.trace, kind=spec.kind,
                tenant=tenant or "", priority=priority,
            ) as admit_span:
                if self._draining:
                    admit_span.set(decision="rejected:draining")
                    self._count_rejection("draining")
                    raise Rejected(
                        "draining", "service is draining; retry another replica"
                    )
                if deadline is not None and deadline <= 0.0:
                    # Expired on arrival: deadline propagation, hop two —
                    # never create work that cannot finish in time.
                    admit_span.set(decision="expired")
                    self.stats.expired += 1
                    _M_EXPIRED.inc()
                    return self._expired_payload(spec, deadline, coalesced=False)
                replay = self.engine.try_replay(spec)
                if replay is not None:
                    admit_span.set(decision="store")
                    self.stats.store_answers += 1
                    _M_STORE_ANSWERS.inc()
                    return self._payload(
                        spec, replay, coalesced=False, source="store"
                    )
                if self.breaker is not None and self.breaker.state == OPEN:
                    admit_span.set(decision="rejected:breaker")
                    self._count_rejection("breaker")
                    raise Rejected(
                        "breaker",
                        "engine dispatch circuit is open",
                        self.breaker.retry_after(),
                    )
                if self.admission is not None:
                    try:
                        self.admission.admit(
                            spec.kind, tenant, rank,
                            len(self._inflight), self._kind_counts,
                        )
                    except Rejected as exc:
                        admit_span.set(decision=f"rejected:{exc.reason}")
                        self._count_rejection(exc.reason)
                        raise
                admit_span.set(decision="admitted")
            now = time.monotonic()
            flight = _Flight(
                spec,
                asyncio.get_running_loop().create_future(),
                priority=rank,
                expires_at=None if deadline is None else now + deadline,
            )
            # Queue time: from registration until the wave that carries this
            # flight dispatches (ended in _run, or at close for orphans).
            flight.wait_span = TRACER.start_span(
                "scheduler.wait", parent=spec.trace, kind=spec.kind
            )
            self._register(flight)
            self._flights[key] = flight
            self._pending.append(flight)
            self._ensure_running()
            self._wake.set()
        else:
            flight.waiters += 1
            flight.extend(deadline, time.monotonic())
            self.stats.coalesced += 1
            _M_COALESCED.inc()
        try:
            if deadline is not None:
                # shield(): an expiring waiter must not cancel the shared
                # flight — coalesced peers (and the store) still want it.
                shared = await asyncio.wait_for(
                    asyncio.shield(flight.future), deadline
                )
            else:
                shared = await flight.future
        except asyncio.TimeoutError:
            self.stats.expired += 1
            _M_EXPIRED.inc()
            return self._expired_payload(spec, deadline, coalesced)
        if shared.get("verdict") == ERROR:
            self.stats.errors += 1
            _M_ERRORS.inc()
        # The flight's payload (decomposition serialization included) was
        # built exactly once when the wave landed; each waiter only takes a
        # shallow copy to stamp its own coalescing flag.
        payload = dict(shared)
        payload["coalesced"] = coalesced
        return payload

    # ------------------------------------------------------------- lifecycle

    def _ensure_running(self) -> None:
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(self._run())

    def _register(self, flight: _Flight) -> None:
        """Track a new flight for the admission budget and the drain count."""
        self._inflight.add(flight)
        kind = flight.spec.kind
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        flight.future.add_done_callback(
            functools.partial(self._retire, flight)
        )

    def _retire(self, flight: _Flight, _future: asyncio.Future) -> None:
        self._inflight.discard(flight)
        kind = flight.spec.kind
        remaining = self._kind_counts.get(kind, 0) - 1
        if remaining > 0:
            self._kind_counts[kind] = remaining
        else:
            self._kind_counts.pop(kind, None)

    def _count_rejection(self, reason: str) -> None:
        self.stats.rejected += 1
        _M_REJECTED.inc(reason=reason)

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(self, budget: float | None = None) -> dict:
        """Graceful shutdown, phase one: stop admitting, let flights land.

        New flight creation is refused with ``Rejected("draining")`` from
        the moment this is called (coalesced joins of surviving flights and
        store answers still succeed — they cost nothing).  Waits up to
        ``budget`` seconds for every in-flight wave to complete; whatever
        remains is reported as ``stragglers`` and left to :meth:`close` to
        resolve with error payloads.

        Returns ``{"in_flight": n, "drained": d, "stragglers": s}``.
        """
        self._draining = True
        self._wake.set()  # flush pending waves without waiting for a window
        waiting = [f.future for f in list(self._inflight) if not f.future.done()]
        if not waiting:
            return {"in_flight": 0, "drained": 0, "stragglers": 0}
        done, stragglers = await asyncio.wait(waiting, timeout=budget)
        return {
            "in_flight": len(waiting),
            "drained": len(done),
            "stragglers": len(stragglers),
        }

    async def close(self, close_engine: bool = False) -> None:
        """Drain the dispatch loop; optionally close the engine (and store)."""
        self._closed = True
        self._draining = True
        self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None
        for flight in self._pending:
            if flight.wait_span is not None:
                flight.wait_span.end(status="cancelled")
            if not flight.future.done():
                flight.future.set_result(
                    self._error_payload(
                        flight.spec, "scheduler closed before dispatch"
                    )
                )
            self._flights.pop(flight.spec.key(), None)
        self._pending.clear()
        if close_engine:
            self.engine.close()

    # ---------------------------------------------------------- the dispatcher

    def _shed(self, flight: _Flight, reason: str, retry_after: float | None) -> None:
        """Drop an admitted flight without dispatching it (dead deadline or
        open breaker); waiters see a typed payload, not a hang."""
        self.stats.shed += 1
        _M_SHED.inc(reason=reason)
        self._flights.pop(flight.spec.key(), None)
        if flight.wait_span is not None:
            flight.wait_span.end(status=f"shed:{reason}")
            flight.wait_span = None
        if not flight.future.done():
            if reason == "deadline":
                flight.future.set_result(
                    self._expired_payload(flight.spec, None, coalesced=False)
                )
            else:
                flight.future.set_result(
                    self._rejected_payload(flight.spec, reason, retry_after)
                )

    def _form_wave(self) -> list[_Flight]:
        """Up to ``max_wave`` live flights, high priority first; flights whose
        every waiter has already given up are shed here — deadline
        propagation, hop three: no wave carries work nobody can use."""
        # Stable sort: arrival order within a priority class is preserved.
        self._pending.sort(key=lambda flight: flight.priority)
        now = time.monotonic()
        wave: list[_Flight] = []
        taken = 0
        for flight in self._pending:
            taken += 1
            if flight.expires_at is not None and now >= flight.expires_at:
                self._shed(flight, "deadline", None)
                continue
            wave.append(flight)
            if len(wave) >= self.max_wave:
                break
        del self._pending[:taken]
        return wave

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            if not self._pending:
                continue
            if self.window > 0.0 and not self._draining:
                await asyncio.sleep(self.window)  # let the burst accumulate
            wave = self._form_wave()
            if self._pending:
                self._wake.set()  # next wave starts without a fresh trigger
            if not wave:
                continue
            if self.breaker is not None and not self.breaker.allow():
                # The circuit opened after these flights were admitted; a
                # known-failing backend gets no more waves, the waiters get
                # fast typed refusals instead of slow errors.
                retry_after = self.breaker.retry_after()
                for flight in wave:
                    self._shed(flight, "breaker", retry_after)
                continue
            specs = [flight.spec for flight in wave]
            for flight in wave:
                if flight.wait_span is not None:
                    flight.wait_span.end(wave_jobs=len(specs))
                    flight.wait_span = None
            if self.dispatcher is not None:
                # Deadline propagation, hop four: a queue-backed wave stops
                # waiting once no waiter can use the results (workers may
                # still finish the jobs into the shared store).
                run_batch = functools.partial(
                    self.dispatcher.run_batch, specs,
                    deadline=self._wave_budget(wave),
                )
            else:
                run_batch = functools.partial(self.engine.run_batch, specs)
            try:
                report = await loop.run_in_executor(None, run_batch)
            except Exception as exc:  # noqa: BLE001 - resolved, not raised
                if self.breaker is not None:
                    self.breaker.record_failure()
                for flight in wave:
                    self._flights.pop(flight.spec.key(), None)
                    if not flight.future.done():
                        flight.future.set_result(
                            self._error_payload(flight.spec, str(exc))
                        )
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            self.stats.waves += 1
            self.stats.wave_jobs += len(specs)
            _M_WAVES.inc()
            _M_WAVE_JOBS.inc(len(specs))
            # run_batch preserves order and (journal-less) returns one
            # JobResult per spec, so zip() pairs flights with their results.
            # Payloads are built here, once per flight, before any waiter
            # copies them.
            for flight, result in zip(wave, report.results):
                self._flights.pop(flight.spec.key(), None)
                if not flight.future.done():
                    flight.future.set_result(
                        self._payload(
                            flight.spec, result, coalesced=False, source="engine"
                        )
                    )

    @staticmethod
    def _wave_budget(wave: list[_Flight]) -> float | None:
        """Seconds until the *last* waiter's deadline across the wave, or
        ``None`` when any flight has an unbounded waiter."""
        horizon = 0.0
        for flight in wave:
            if flight.expires_at is None:
                return None
            horizon = max(horizon, flight.expires_at)
        return max(0.0, horizon - time.monotonic())

    # --------------------------------------------------------------- payloads

    def _expired_payload(
        self, spec: JobSpec, deadline: float | None, coalesced: bool
    ) -> dict:
        return {
            "kind": spec.kind,
            "method": spec.method,
            "k": spec.k,
            "max_k": spec.max_k,
            "fingerprint": spec.fingerprint,
            "verdict": EXPIRED,
            "deadline": deadline,
            "coalesced": coalesced,
            "source": "deadline",
        }

    def _rejected_payload(
        self, spec: JobSpec, reason: str, retry_after: float | None
    ) -> dict:
        payload = {
            "kind": spec.kind,
            "method": spec.method,
            "k": spec.k,
            "max_k": spec.max_k,
            "fingerprint": spec.fingerprint,
            "verdict": REJECTED,
            "reason": reason,
            "coalesced": False,
            "source": "admission",
        }
        if retry_after is not None:
            payload["retry_after"] = retry_after
        return payload

    def _error_payload(self, spec: JobSpec, message: str) -> dict:
        return {
            "kind": spec.kind,
            "method": spec.method,
            "k": spec.k,
            "max_k": spec.max_k,
            "fingerprint": spec.fingerprint,
            "verdict": ERROR,
            "error": message,
            "source": "engine",
        }

    def _payload(
        self, spec: JobSpec, result: JobResult, coalesced: bool, source: str
    ) -> dict:
        """The JSON-able response shared by every waiter of one flight."""
        payload = {
            "kind": spec.kind,
            "method": spec.method,
            "k": spec.k,
            "max_k": spec.max_k,
            "fingerprint": spec.fingerprint,
            "verdict": result.verdict,
            "seconds": round(result.seconds, 6),
            "cached": result.cached,
            "implied": result.implied,
            "coalesced": coalesced,
            "source": "store" if source == "store" or result.cached else source,
            "lower": result.lower,
            "upper": result.upper,
            "winner": result.winner,
        }
        if result.width_result is not None and result.width_result.exact:
            payload["width"] = result.width_result.value
        outcome = result.outcome
        if (
            spec.kind == CHECK
            and outcome is not None
            and outcome.decomposition is not None
        ):
            payload["decomposition"] = json.loads(
                decomposition_to_json(outcome.decomposition)
            )
        return payload

    def stats_snapshot(self) -> dict:
        """Service + engine + store counters as one dict (``/stats`` body)."""
        payload = {"service": self.stats.snapshot()}
        payload.update(self.engine.stats_snapshot())
        payload["in_flight"] = len(self._flights)
        payload["queued"] = len(self._pending)
        payload["draining"] = self._draining
        if self.admission is not None:
            payload["admission"] = self.admission.snapshot()
        if self.breaker is not None:
            payload["breaker"] = self.breaker.snapshot()
        if self.dispatcher is not None:
            payload["queue"] = self.dispatcher.stats()
        return payload
