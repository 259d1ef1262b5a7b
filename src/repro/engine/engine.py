"""The :class:`DecompositionEngine` facade.

The engine is the single entry point that turns decomposition requests into
work: it consults the :class:`~repro.engine.store.ResultStore` first (by
content fingerprint, so renamed copies of an instance share results), and
only on a miss dispatches the attempt — in-process with cooperative deadlines
when ``jobs == 1`` (the deterministic default; with no store it runs each
check exactly as :func:`~repro.decomp.driver.timed_check` does), or in
killable worker processes with hard timeouts when ``jobs > 1``.

``run_batch`` executes a list of :class:`~repro.engine.jobs.JobSpec` with a
resumable journal.  A cold check job is one task and a cold portfolio job
one task per racer (GlobalBIP / LocalBIP / BalSep); the wave's tasks run as
one list, through at most ``jobs`` worker processes when ``jobs > 1`` and
in turn otherwise.  :func:`~repro.decomp.driver.portfolio_verdict` folds a
portfolio job's racers into the paper's Table 4 answer ("run in parallel,
first answer wins"), and the job's result carries each algorithm's outcome
for Table 3.  Every racer gets the full budget, so the stored row does not
depend on ``jobs``.  That batch wave is the only one: a
:class:`~repro.engine.remote.Dispatcher` runs it with the job queue
executing the cold jobs, and the paper's protocols (:mod:`repro.analysis`)
run as waves of it.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.hypergraph import Hypergraph
from repro.decomp import driver
from repro.decomp.driver import CheckOutcome, WidthResult, timed_check
from repro.engine import methods as _methods
from repro.engine import workers
from repro.engine.fingerprint import fingerprint
from repro.engine.jobs import CHECK, ERROR, PORTFOLIO, WIDTH, JobResult, JobSpec, Journal
from repro.engine.methods import PORTFOLIO_KEY as _PORTFOLIO_KEY
from repro.engine.store import ResultStore
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.perf import counters as _kernel_counters, publish_delta

__all__ = ["DecompositionEngine", "EngineStats", "BatchReport"]

# Process-wide engine metric families (every engine instance publishes into
# the same registry; per-instance numbers stay on EngineStats.snapshot()).
_M_REQUESTS = REGISTRY.counter(
    "repro_engine_requests_total",
    "Decomposition requests routed through an engine (cache hits included).",
)
_M_CACHE_HITS = REGISTRY.counter(
    "repro_engine_cache_hits_total",
    "Engine requests answered by the result store.",
)
_M_IMPLIED = REGISTRY.counter(
    "repro_engine_implied_total",
    "Cache hits answered by the bounds index rather than an exact row.",
)
_M_EXECUTED = REGISTRY.counter(
    "repro_engine_executed_total",
    "Engine requests that dispatched actual check work.",
)


@dataclass
class EngineStats:
    """Per-engine request accounting (the store keeps its own lifetime stats).

    ``implied`` counts the subset of ``cache_hits`` answered by the store's
    bounds index (monotonicity) rather than an exactly matching row.

    Counters are mutated through :meth:`book`, which serialises on an
    internal mutex: the service layer reads and writes these from its event
    loop while batch waves execute on worker threads, and the coalescing
    tests assert *exact* dispatch counts.

    >>> stats = EngineStats()
    >>> stats.book(requests=2, cache_hits=1)
    >>> stats.hit_rate
    0.5
    >>> stats.snapshot()["requests"]
    2
    """

    requests: int = 0
    cache_hits: int = 0
    implied: int = 0
    executed: int = 0
    _mutex: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def book(
        self,
        requests: int = 0,
        cache_hits: int = 0,
        implied: int = 0,
        executed: int = 0,
    ) -> None:
        """Atomically add to the counters (safe across threads)."""
        with self._mutex:
            self.requests += requests
            self.cache_hits += cache_hits
            self.implied += implied
            self.executed += executed
        _M_REQUESTS.inc(requests)
        _M_CACHE_HITS.inc(cache_hits)
        _M_IMPLIED.inc(implied)
        _M_EXECUTED.inc(executed)

    def snapshot(self) -> dict:
        """A JSON-able copy of the counters (the service ``/stats`` payload)."""
        with self._mutex:
            return {
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "implied": self.implied,
                "executed": self.executed,
                "hit_rate": self.hit_rate,
            }

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0


@dataclass
class BatchReport:
    """Job-level accounting for one :meth:`DecompositionEngine.run_batch`."""

    total: int = 0
    #: Jobs skipped because the journal already recorded them.
    resumed: int = 0
    #: Jobs answered entirely from the result store.
    cache_hits: int = 0
    #: The subset of ``cache_hits`` pruned via the store's bounds index
    #: (at least one underlying verdict was implied, not stored verbatim).
    pruned: int = 0
    #: Jobs that actually ran at least one check.
    executed: int = 0
    results: list[JobResult] = field(default_factory=list)

    @property
    def all_cached(self) -> bool:
        """True when every non-resumed job was served from the store."""
        return self.total > 0 and self.cache_hits == self.total - self.resumed


class _CacheMiss(Exception):
    """Internal: a cache-only replay hit a key the store does not have."""


def _executed(
    spec: JobSpec,
    outcome: CheckOutcome,
    winner: str | None = None,
    per_algorithm: dict[str, CheckOutcome] | None = None,
) -> JobResult:
    """The result of a check or portfolio job the engine just executed; a
    portfolio job's telemetry is all its racers' (kernel counters summed)."""
    counters, spans = outcome.counters, outcome.spans
    if per_algorithm is not None:
        racers = per_algorithm.values()
        counters = dict(sum((Counter(o.counters or {}) for o in racers), Counter())) or None
        spans = [s for o in racers for s in o.spans or ()] or None
    return JobResult(
        spec,
        outcome.verdict,
        outcome.seconds,
        outcome=outcome,
        winner=winner,
        per_algorithm=per_algorithm,
        counters=counters,
        spans=spans,
    )


def _locked(fn):
    """Serialise a dispatch entry point on the engine's reentrant lock.

    The service layer submits batches from executor threads while other
    threads call ``check`` directly; the RLock makes those submissions safe
    *and* reentrant (``run_batch`` width jobs re-enter ``exact_width`` and
    ``check`` on the same thread).
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return fn(self, *args, **kwargs)

    return wrapper


class DecompositionEngine:
    """Cache-backed, optionally parallel execution of decomposition work.

    The engine is the single entry point for decomposition work: every
    request consults the store first, and a definite verdict stored at one
    ``k`` answers implied keys at other widths for free:

    >>> from repro.core.hypergraph import Hypergraph
    >>> from repro.engine import DecompositionEngine, ResultStore
    >>> triangle = Hypergraph({"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]})
    >>> with DecompositionEngine(store=ResultStore()) as engine:
    ...     first = engine.check(triangle, 2).verdict
    ...     second = engine.check(triangle, 3).verdict   # implied: yes at 2
    ...     (first, second, engine.stats.executed)
    ('yes', 'yes', 1)

    Parameters
    ----------
    store:
        A :class:`ResultStore`, or ``None`` to run without caching.
    jobs:
        Maximum concurrent worker processes.  ``1`` (default) keeps every
        check in-process with cooperative deadlines — the sequential
        fallback that preserves the library's historical behaviour;
        ``> 1`` runs every cache-missed check (a direct ``check``, a wave's
        check jobs and portfolio racers) in hard-timeout worker processes,
        at most ``jobs`` at once.
    """

    def __init__(self, store: ResultStore | None = None, jobs: int = 1):
        self.store = store
        self.jobs = max(1, int(jobs))
        self.stats = EngineStats()
        # Dispatch entry points serialise here (see _locked); the store has
        # its own lock, so cache peeks never wait behind a running wave.
        self._lock = threading.RLock()

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "DecompositionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- caching

    def _lookup(
        self,
        fp: str,
        hypergraph: Hypergraph,
        method: str,
        k: int,
        timeout: float | None,
    ) -> tuple[CheckOutcome | None, dict | None, bool]:
        """Peek at the store; returns ``(outcome, extra, implied)``.

        ``implied`` is true when the bounds index (not an exact row) answered.
        Books nothing: the caller books the request once it knows what the
        lookup meant (a hit, a miss, or one step of a job that may yet miss).
        """
        if self.store is None:
            return None, None, False
        stored = self.store.get(fp, method, k, timeout)
        if stored is None:
            return None, None, False
        return stored.outcome(hypergraph), stored.extra, stored.implied

    def _remember(
        self,
        fp: str,
        method: str,
        k: int,
        timeout: float | None,
        outcome: CheckOutcome,
        extra: dict | None = None,
    ) -> None:
        if self.store is not None:
            self.store.put(fp, method, k, timeout, outcome, extra)

    # ---------------------------------------------------------------- checks

    @_locked
    def check(
        self,
        hypergraph: Hypergraph,
        k: int,
        method: str = "hd",
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> CheckOutcome:
        """One ``Check(H, k)`` attempt: cache first (exact rows, then verdicts
        implied by stored bounds), dispatch only when neither answers.

        ``trace`` parents the ``engine.check`` span (default: the ambient
        context; the service passes the submitting request's context).
        """
        with TRACER.span("engine.check", parent=trace, method=method, k=k) as span:
            fp = fingerprint(hypergraph)
            outcome, _, implied = self._lookup(fp, hypergraph, method, k, timeout)
            if outcome is not None:
                self._book_replay(1, int(implied))
                span.set(source="cache", verdict=outcome.verdict)
                return outcome
            self.stats.book(requests=1, executed=1)
            if self.store is not None:
                self.store.record(misses=1)
            [outcome] = self._run_checks([(method, hypergraph, k, timeout)], [None])
            self._remember(fp, method, k, timeout, outcome)
            span.set(source="executed", verdict=outcome.verdict)
            return outcome

    def _run_checks(
        self,
        tasks: Sequence[tuple[str, Hypergraph, int, float | None]],
        traces: Sequence[tuple | None],
    ) -> Iterator[CheckOutcome]:
        """Run cache-missed ``(method, hypergraph, k, timeout)`` tasks, yielding
        their outcomes in task order; the caller stores and books them.

        With ``jobs > 1`` the list is one :func:`workers.map_checks` call (at
        most ``jobs`` killable workers) whose outcomes arrive together; else
        each task runs in turn through :meth:`_execute`.  ``traces[i]``
        parents task ``i``'s ``worker.exec`` span (``None``: ambient).
        """
        if self.parallel:
            ambient = TRACER.current_context()
            yield from workers.map_checks(
                tasks, self.jobs, traces=[trace or ambient for trace in traces]
            )
            return
        for (method, hypergraph, k, timeout), trace in zip(tasks, traces):
            yield self._execute(method, hypergraph, k, timeout, trace)

    def _execute(
        self,
        method: str,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None,
        trace: tuple | None = None,
    ) -> CheckOutcome:
        """Run one cache-missed check in this process (``jobs == 1``).

        Like a worker process, it records a ``worker.exec`` span parented on
        ``trace`` (default: the ambient context; ``mode="inproc"``) and puts
        its kernel-counter delta on the outcome.
        """
        before = _kernel_counters.snapshot()
        with TRACER.span(
            "worker.exec", parent=trace, method=method, k=k, mode="inproc"
        ) as span:
            outcome = timed_check(_methods.resolve(method), hypergraph, k, timeout)
            delta = _kernel_counters.delta_since(before)
            publish_delta(delta)
            outcome.counters = delta or None
            span.set(
                verdict=outcome.verdict,
                **{f"kernel_{name}": value for name, value in delta.items()},
            )
        return outcome

    # ----------------------------------------------------------- exact width

    @_locked
    def exact_width(
        self,
        hypergraph: Hypergraph,
        max_k: int,
        method: str = "hd",
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> WidthResult:
        """The Figure 4 protocol, every k-attempt routed through the engine.

        When the store's bounds index already brackets the width inside
        ``[lo, hi]`` with ``hi <= max_k``, the width is located by *binary
        search* inside that interval instead of the linear k-scan — a warm
        sweep touches O(log(hi − lo)) keys, all usually answered from the
        store.  Without a known upper bound the linear protocol runs, but
        every ``k < lo`` is still answered instantly by an implied "no".
        A timeout mid-bisection (or bounds no longer backed by rows, say
        after another process's ``clear``) falls back to the linear
        protocol, whose loose-bounds semantics match the sequential driver
        exactly.
        """
        with TRACER.span("engine.width", parent=trace, method=method, max_k=max_k):
            if self.store is not None:
                fp = fingerprint(hypergraph)
                # Effective bounds fold in the cross-method kind interval: an
                # hw sweep can bisect inside an interval another method
                # established.
                lo, hi = self.store.effective_bounds(fp, method)
                if hi is not None and hi <= max_k:
                    result = self._bisect_width(
                        hypergraph, max(1, lo), hi, method, timeout
                    )
                    if result is not None:
                        return result

            def runner(_check, h, k, t):
                return self.check(h, k, method=method, timeout=t)

            return driver.exact_width(
                _methods.resolve(method), hypergraph, max_k, timeout, runner=runner
            )

    def _bisect_width(
        self,
        hypergraph: Hypergraph,
        low: int,
        high: int,
        method: str,
        timeout: float | None,
    ) -> WidthResult | None:
        """Find the smallest yes-k in ``[low, high]``, or ``None`` to fall back.

        Preconditions from the bounds index: ``high`` is a known yes and
        every ``k < low`` a definite no, so the loop invariant (``low - 1``
        refuted, ``high`` accepted) makes the answer exact.  Any timeout or
        contradiction (bounds no longer backed by rows) aborts the bisection.
        """
        timings: dict[int, CheckOutcome] = {}
        best: CheckOutcome | None = None
        while low < high:
            mid = (low + high) // 2
            outcome = self.check(hypergraph, mid, method=method, timeout=timeout)
            timings[mid] = outcome
            if outcome.verdict == driver.YES:
                high = mid
                best = outcome
            elif outcome.verdict == driver.NO:
                low = mid + 1
            else:
                return None
        if best is None:
            best = self.check(hypergraph, high, method=method, timeout=timeout)
            timings[high] = best
            if best.verdict != driver.YES:
                return None
        return WidthResult(high, high, best.decomposition, timings)

    # ----------------------------------------------------------------- batch

    @_locked
    def run_batch(
        self,
        specs: list[JobSpec],
        journal: str | Path | Journal | None = None,
    ) -> BatchReport:
        """Execute a job list with journal resume and cache consultation.

        Jobs already present in the journal are skipped (``resumed``); the
        rest are answered from the store when possible (``cache_hits``) —
        including jobs *pruned* because a stored bound already implies their
        verdict (``pruned``) — and executed otherwise.  Cache-missed check
        jobs and portfolio racers share at most ``jobs`` worker processes.
        """
        return self._wave(specs, journal, self._run_cold)

    def _wave(
        self,
        specs: list[JobSpec],
        journal: str | Path | Journal | None,
        execute: Callable[[list[JobSpec], list[int]], Iterator[tuple[int, JobResult]]],
    ) -> BatchReport:
        """The batch contract, whichever executor runs the cold jobs.

        ``execute(specs, cold)`` gets the indices neither the journal nor
        the store answered and yields ``(index, result)`` as jobs finish —
        :meth:`_run_cold` in this process, the
        :class:`~repro.engine.remote.Dispatcher` through the job queue.
        Answers are journalled as they arrive (``error`` results are not,
        so a resumed batch asks again); the report counts derive from each
        result's ``resumed`` / ``cached`` / ``implied`` flags.  A cold check
        or portfolio job runs without a second lookup and books one request,
        one store miss (its replay peek) and one execution — or a cache hit
        if a queue worker found it stored after all; a width sweep books
        each check attempt in the engine that runs it.
        """
        if journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal)
        done = journal.load() if journal is not None else {}

        # The wave span parents on the first spec that carries a request
        # trace context — a wave typically executes on an executor thread
        # where the submitting request's ambient context is unavailable.
        wave_parent = next((s.trace for s in specs if s.trace is not None), None)
        with TRACER.span("engine.wave", parent=wave_parent, jobs=len(specs)) as wave:
            results: list[JobResult | None] = [None] * len(specs)
            cold: list[int] = []
            for index, spec in enumerate(specs):
                payload = done.get(spec.key())
                if payload is not None:
                    results[index] = JobResult.from_journal(spec, payload)
                    continue
                # exact rows, or pruned because stored bounds imply the verdict
                result = self._replay_from_cache(spec)
                if result is None:
                    cold.append(index)
                    continue
                results[index] = result
                if journal is not None:
                    journal.append(spec, result)

            for index, result in execute(specs, cold):
                results[index] = result
                if journal is not None and result.verdict != ERROR:
                    journal.append(specs[index], result)
            attempts = [
                results[i] for i in cold if specs[i].kind != WIDTH and not results[i].resumed
            ]
            hits = [r for r in attempts if r.cached]
            self.stats.book(
                requests=len(attempts),
                cache_hits=len(hits),
                implied=sum(1 for r in hits if r.implied),
                executed=len(attempts) - len(hits),
            )
            if self.store is not None:
                self.store.record(misses=len(attempts))

            report = BatchReport(total=len(specs), results=results)
            for result in results:
                if result.resumed:
                    report.resumed += 1
                elif result.cached:
                    report.cache_hits += 1
                    report.pruned += int(result.implied)
                else:
                    report.executed += 1
            wave.set(
                resumed=report.resumed,
                cache_hits=report.cache_hits,
                executed=report.executed,
            )
            return report

    def _run_cold(
        self, specs: list[JobSpec], cold: list[int]
    ) -> Iterator[tuple[int, JobResult]]:
        """The in-process executor for :meth:`_wave`: a cold check job is one
        task, a cold portfolio job one per racer, and the wave's tasks run
        through :meth:`_run_checks` as one list, each job landing with its
        last task (no second lookup: the wave books its replay peek as the
        job's one miss).  The width sweeps then run in turn."""
        racers = _methods.portfolio_methods()
        checked = [i for i in cold if specs[i].kind != WIDTH]
        tasks: list[tuple[str, Hypergraph, int, float | None]] = []
        traces: list[tuple | None] = []
        for i in checked:
            spec = specs[i]
            for method in racers.values() if spec.kind == PORTFOLIO else (spec.method,):
                tasks.append((method, spec.hypergraph, spec.k, spec.timeout))
                traces.append(spec.trace)
        outcomes = self._run_checks(tasks, traces)
        for i in checked:
            spec = specs[i]
            if spec.kind == CHECK:
                yield i, self._checked(spec, next(outcomes))
            else:
                yield i, self._raced(spec, racers, {name: next(outcomes) for name in racers})
        for i in cold:
            spec = specs[i]
            if spec.kind == WIDTH:
                width_result = self.exact_width(
                    spec.hypergraph, spec.max_k, spec.method, spec.timeout, trace=spec.trace
                )
                yield i, self._width_job_result(spec, width_result, cached=False)

    def _raced(
        self, spec: JobSpec, racers: dict[str, str], per_algorithm: dict[str, CheckOutcome]
    ) -> JobResult:
        """Store a portfolio job's race and wrap it as its result.

        The ``portfolio`` row keeps the winner (``None`` when no racer
        answered) and every racer's verdict and seconds; each definite racer
        answer is stored under its own method too, for ``check()`` callers.
        """
        best, winner = driver.portfolio_verdict(per_algorithm)
        fp, k, timeout = spec.fingerprint, spec.k, spec.timeout
        extra = {
            "winner": winner,
            "per": {name: [o.verdict, o.seconds] for name, o in per_algorithm.items()},
        }
        self._remember(fp, _PORTFOLIO_KEY, k, timeout, best, extra)
        for display, registry in racers.items():
            outcome = per_algorithm[display]
            if outcome.answered:
                self._remember(fp, registry, k, timeout, outcome)
        return _executed(spec, best, winner, per_algorithm)

    # ------------------------------------------------------------ batch bits

    def try_replay(self, spec: JobSpec) -> JobResult | None:
        """Answer a whole job from the store without dispatching anything.

        The public peek the service scheduler uses before queueing a job
        into a batch wave: exact rows answer first, then verdicts implied by
        the per-method bounds index, then the cross-method ``kind_bounds``
        knowledge (an hw "yes" answering a ghw check, and vice versa for
        "no"s).  Returns ``None`` on any miss — *without* booking the miss;
        the eventual dispatch books it.  Deliberately **not** behind the
        dispatch lock: the store has its own lock, so a peek never waits
        behind a running batch wave.
        """
        return self._replay_from_cache(spec)

    def stats_snapshot(self) -> dict:
        """Engine + store counters as one JSON-able dict (``/stats`` payload)."""
        payload: dict = {"engine": self.stats.snapshot(), "jobs": self.jobs}
        if self.store is not None:
            stats = self.store.stats
            payload["store"] = {
                "path": self.store.path,
                "entries": stats.entries,
                "hits": stats.hits,
                "misses": stats.misses,
                "implied": stats.implied,
                "hit_rate": stats.hit_rate,
                "session_hits": stats.session_hits,
                "session_misses": stats.session_misses,
                "session_implied": stats.session_implied,
            }
        return payload

    def _replay_from_cache(self, spec: JobSpec) -> JobResult | None:
        """Answer a whole job from the store, or ``None`` on any miss.

        The lookups book nothing; one request and hit per underlying check
        is booked (:meth:`_book_replay`) only when the whole job replays, so
        a partially cached job is not double-counted when it then executes.
        """
        if self.store is None:
            return None
        fp = spec.fingerprint
        if spec.kind == CHECK:
            outcome, _, implied = self._lookup(
                fp, spec.hypergraph, spec.method, spec.k, spec.timeout
            )
            if outcome is None:
                return None
            self._book_replay(1, int(implied))
            return JobResult(
                spec,
                outcome.verdict,
                outcome.seconds,
                cached=True,
                outcome=outcome,
                implied=implied,
            )
        if spec.kind == PORTFOLIO:
            outcome, extra, implied = self._lookup(
                fp, spec.hypergraph, _PORTFOLIO_KEY, spec.k, spec.timeout
            )
            if outcome is None:
                return None
            self._book_replay(1, int(implied))
            # Only an exact row carries the race (winner and per-algorithm
            # outcomes).  A bounds-implied verdict carries no row extras: the
            # witnessing race ran at another k, so its timings must not pass
            # for this k's (Table 3 honesty).
            extra = extra or {}
            winner = extra.get("winner")
            # Rows stored before every racer got its full budget carry a
            # third column, true for a racer killed once another had won;
            # such a timeout says nothing about the algorithm, so Table 3
            # leaves it out, as it did when the row was written.
            per_algorithm = {
                name: CheckOutcome(row[0], row[1])
                for name, row in extra.get("per", {}).items()
                if not any(row[2:])
            }
            if winner in per_algorithm and outcome.decomposition is not None:
                per_algorithm[winner] = outcome
            return JobResult(
                spec,
                outcome.verdict,
                outcome.seconds,
                cached=True,
                outcome=outcome,
                winner=winner,
                per_algorithm=per_algorithm,
                implied=implied,
            )
        # WIDTH: replay the exact_width iteration against the store only.
        lookups = 0
        implied_lookups = 0

        def cache_only_runner(_check, h, k, t):
            nonlocal lookups, implied_lookups
            outcome, _, implied = self._lookup(fp, h, spec.method, k, t)
            if outcome is None:
                raise _CacheMiss
            lookups += 1
            implied_lookups += int(implied)
            return outcome

        try:
            width_result = driver.exact_width(
                _methods.resolve(spec.method),
                spec.hypergraph,
                spec.max_k,
                spec.timeout,
                runner=cache_only_runner,
            )
        except _CacheMiss:
            return None
        self._book_replay(lookups, implied_lookups)
        return self._width_job_result(
            spec, width_result, cached=True, implied=implied_lookups > 0
        )

    def _book_replay(self, lookups: int, implied: int = 0) -> None:
        """Book ``lookups`` store-answered requests, engine and store alike."""
        self.stats.book(requests=lookups, cache_hits=lookups, implied=implied)
        self.store.record(hits=lookups, implied=implied)

    def _width_job_result(
        self, spec: JobSpec, width_result: WidthResult, cached: bool, implied: bool = False
    ) -> JobResult:
        seconds = sum(o.seconds for o in width_result.timings.values())
        verdict = "exact" if width_result.exact else "bounds"
        return JobResult(
            spec,
            verdict,
            seconds,
            cached=cached,
            lower=width_result.lower,
            upper=width_result.upper,
            width_result=width_result,
            implied=implied,
        )

    def _checked(self, spec: JobSpec, outcome: CheckOutcome) -> JobResult:
        """Store an executed check job's outcome and wrap it as its result."""
        self._remember(spec.fingerprint, spec.method, spec.k, spec.timeout, outcome)
        return _executed(spec, outcome)
