"""The :class:`DecompositionEngine` facade.

The engine is the single entry point that turns decomposition requests into
work: it consults the :class:`~repro.engine.store.ResultStore` first (by
content fingerprint, so renamed copies of an instance share results), and
only on a miss dispatches the attempt — in-process with cooperative deadlines
when ``jobs == 1`` (the deterministic default, byte-compatible with the
pre-engine code paths), or in killable worker processes with hard timeouts
when ``jobs > 1``.

``portfolio`` races GlobalBIP / LocalBIP / BalSep in parallel worker
processes (the paper's Table 4 setup: "run in parallel, stop at the first
answer"), cancelling the losers; ``run_batch`` executes a list of
:class:`~repro.engine.jobs.JobSpec` with a resumable journal, fanning
cache-missed check jobs across the worker pool.  That batch wave is the
only one: a :class:`~repro.engine.remote.Dispatcher` runs it with the job
queue executing the cold jobs.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable, Iterator
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


def _executed(spec: JobSpec, outcome: CheckOutcome, winner: str | None = None) -> JobResult:
    """The result of a check or portfolio job the engine just executed."""
    return JobResult(
        spec,
        outcome.verdict,
        outcome.seconds,
        outcome=outcome,
        winner=winner,
        counters=outcome.counters,
        spans=outcome.spans,
    )


def _locked(fn):
    """Serialise a dispatch entry point on the engine's reentrant lock.

    The service layer submits batches from executor threads while other
    threads call ``check``/``portfolio`` directly; the RLock makes those
    submissions safe *and* reentrant (``run_batch`` jobs re-enter
    ``portfolio``/``exact_width``/``check`` on the same thread).
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
        ``> 1`` enables hard-timeout worker processes, the parallel
        portfolio race, and batch fan-out.
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
        record: bool = True,
    ) -> tuple[CheckOutcome | None, dict | None, bool]:
        """Consult the store; returns ``(outcome, extra, implied)``.

        ``implied`` is true when the bounds index (not an exact row) answered.
        ``record=False`` peeks without touching the engine's request/hit
        counters — batch replay uses this and books its lookups only once
        it knows whether the whole job was served from cache.
        """
        if record:
            self.stats.book(requests=1)
        if self.store is None:
            return None, None, False
        stored = self.store.get(fp, method, k, timeout, record=record)
        if stored is None:
            return None, None, False
        if record:
            self.stats.book(cache_hits=1, implied=int(stored.implied))
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
            outcome, _, _ = self._lookup(fp, hypergraph, method, k, timeout)
            if outcome is not None:
                span.set(source="cache", verdict=outcome.verdict)
                return outcome
            self.stats.book(executed=1)
            outcome = self._execute(method, hypergraph, k, timeout)
            self._remember(fp, method, k, timeout, outcome)
            span.set(source="executed", verdict=outcome.verdict)
            return outcome

    def _execute(
        self,
        method: str,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None,
    ) -> CheckOutcome:
        """Dispatch one cache-missed check (worker process or in-process).

        Both shapes produce a ``worker.exec`` span parented on the ambient
        context and a kernel-counter delta on the outcome: the worker path
        ships them back over the pipe, the in-process path measures them
        here (``mode="inproc"``).  The caller books the execution.
        """
        if self.parallel:
            return workers.run_checked(method, hypergraph, k, timeout)
        before = _kernel_counters.snapshot()
        with TRACER.span("worker.exec", method=method, k=k, mode="inproc") as span:
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
        A timeout mid-bisection (or stale bounds after eviction) falls back
        to the linear protocol, whose loose-bounds semantics match the
        sequential driver exactly.
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

    # ------------------------------------------------------------- portfolio

    @_locked
    def portfolio(
        self,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None = None,
        trace: tuple | None = None,
    ) -> tuple[CheckOutcome, dict[str, CheckOutcome]]:
        """The Table 4 race: GlobalBIP ∥ LocalBIP ∥ BalSep, first answer wins.

        With ``jobs > 1`` the three algorithms genuinely run in parallel
        worker processes and the losers are cancelled; otherwise the
        sequential simulation of :func:`repro.decomp.driver.ghd_portfolio`
        runs.  Either way the result is cached under a dedicated
        ``portfolio`` key (per-algorithm verdicts and timings ride along in
        the row's metadata, so Table 3 style accounting survives cache hits).
        """
        with TRACER.span("engine.portfolio", parent=trace, k=k) as span:
            fp = fingerprint(hypergraph)
            best, extra, implied = self._lookup(fp, hypergraph, _PORTFOLIO_KEY, k, timeout)
            if best is None:
                self.stats.book(executed=1)
                best, per_algorithm = self._race(fp, hypergraph, k, timeout)
            elif implied:
                # A bounds-implied verdict has no per-algorithm race behind
                # it; the witnessing race ran at a different k, so its
                # timings must not masquerade as this k's (Table 3 honesty).
                per_algorithm = {}
            else:
                per_algorithm = {
                    name: CheckOutcome(row[0], row[1], cancelled=bool(row[2]) if len(row) > 2 else False)
                    for name, row in (extra or {}).get("per", {}).items()
                }
                winner = (extra or {}).get("winner")
                if winner in per_algorithm and best.decomposition is not None:
                    per_algorithm[winner] = best
            span.set(verdict=best.verdict)
            return best, per_algorithm

    def _race(
        self,
        fp: str,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None,
    ) -> tuple[CheckOutcome, dict[str, CheckOutcome]]:
        """Run the portfolio race (no lookup, no booking) and store it."""
        portfolio_methods = _methods.portfolio_methods()
        if self.parallel:
            winner_method, raced = workers.race_checks(
                list(portfolio_methods.values()), hypergraph, k, timeout
            )
            per_algorithm = {
                display: raced[registry]
                for display, registry in portfolio_methods.items()
            }
            if winner_method is not None:
                winner = next(
                    d for d, r in portfolio_methods.items() if r == winner_method
                )
                best = per_algorithm[winner]
            else:
                winner = None
                best = max(per_algorithm.values(), key=lambda o: o.seconds)
        else:
            best, per_algorithm = driver.ghd_portfolio(hypergraph, k, timeout)
            winner = (
                next((n for n, o in per_algorithm.items() if o is best), None)
                if best.answered
                else None
            )

        extra = {
            "winner": winner,
            "per": {
                name: [o.verdict, o.seconds, o.cancelled]
                for name, o in per_algorithm.items()
            },
        }
        self._remember(fp, _PORTFOLIO_KEY, k, timeout, best, extra)
        # Definite per-algorithm answers are genuine results; share them with
        # plain check() callers.  Cancelled losers (timeout verdicts observed
        # before the full budget) are *not* cached.
        for display, registry in portfolio_methods.items():
            o = per_algorithm[display]
            if o.answered:
                self._remember(fp, registry, k, timeout, o)
        return best, per_algorithm

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
        verdict (``pruned``) — and executed otherwise.  Cache-missed
        single-check jobs fan out across the worker pool when ``jobs > 1``.
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
                self.store.record_misses(len(attempts))

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
        """The in-process executor for :meth:`_wave`: cold single checks fan
        across the worker pool when ``jobs > 1``; width sweeps and portfolio
        races take their own engine paths (a race uses the pool itself)."""
        checks = [i for i in cold if specs[i].kind == CHECK]
        if self.parallel and len(checks) > 1:
            outcomes = workers.map_checks(
                [(specs[i].method, specs[i].hypergraph, specs[i].k, specs[i].timeout) for i in checks],
                self.jobs,
                traces=[specs[i].trace or TRACER.current_context() for i in checks],
            )
            for i, outcome in zip(checks, outcomes):
                yield i, self._checked(specs[i], outcome)
            cold = [i for i in cold if specs[i].kind != CHECK]
        for i in cold:
            yield i, self._run_spec(specs[i])

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

        Lookups peek without recording; the engine books one request + hit
        per underlying check only when the whole job replays, so partially
        cached jobs are not double-counted when they subsequently execute.
        """
        if self.store is None:
            return None
        fp = spec.fingerprint
        if spec.kind == CHECK:
            outcome, _, implied = self._lookup(
                fp, spec.hypergraph, spec.method, spec.k, spec.timeout, record=False
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
                fp, spec.hypergraph, _PORTFOLIO_KEY, spec.k, spec.timeout, record=False
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
                winner=None if implied else (extra or {}).get("winner"),
                implied=implied,
            )
        # WIDTH: replay the exact_width iteration against the store only.
        lookups = 0
        implied_lookups = 0

        def cache_only_runner(_check, h, k, t):
            nonlocal lookups, implied_lookups
            outcome, _, implied = self._lookup(fp, h, spec.method, k, t, record=False)
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
        self.stats.book(requests=lookups, cache_hits=lookups, implied=implied)
        if self.store is not None:
            self.store.record_hits(lookups, implied)

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

    def _run_spec(self, spec: JobSpec) -> JobResult:
        # Only reached after _replay_from_cache missed (a non-recording peek),
        # so check and portfolio jobs execute without a second lookup; the
        # wave books the peek as their one miss.  The spec's trace context
        # (if the submitting request carried one) becomes ambient, so the
        # engine / worker spans below land in that request's trace instead
        # of the wave's.
        with TRACER.attach(spec.trace):
            if spec.kind == CHECK:
                return self._checked(
                    spec, self._execute(spec.method, spec.hypergraph, spec.k, spec.timeout)
                )
            if spec.kind == PORTFOLIO:
                with TRACER.span("engine.portfolio", k=spec.k) as span:
                    outcome, per_algorithm = self._race(
                        spec.fingerprint, spec.hypergraph, spec.k, spec.timeout
                    )
                    span.set(verdict=outcome.verdict)
                winner = next(
                    (name for name, o in per_algorithm.items() if o is outcome), None
                )
                return _executed(spec, outcome, winner)
            width_result = self.exact_width(
                spec.hypergraph, spec.max_k, spec.method, spec.timeout
            )
            return self._width_job_result(spec, width_result, cached=False)
