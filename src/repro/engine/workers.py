"""Worker-process execution of check functions with *hard* timeouts.

The search algorithms poll a cooperative :class:`~repro.utils.deadline.Deadline`
at their backtracking points, but a cooperative budget cannot preempt a tight
inner loop (subedge enumeration, cover search) that goes long between polls.
Running each attempt in its own worker process lets the parent *kill* the
worker when the wall-clock budget is gone — the paper's cluster runs enforce
their 3600 s timeouts the same way.

:func:`map_checks` streams a task list through at most ``jobs``
concurrent workers, each with its own hard budget, killed at
``timeout + grace``.  It is what the engine calls: a direct check is a
one-task list, and a batch wave's cold check jobs and portfolio racers
are one list together.  Two public shapes remain for callers of their
own: :func:`run_checked` (one attempt in one worker) and
:func:`race_checks` (one worker per algorithm at once, judged by
:func:`~repro.decomp.driver.portfolio_verdict`).

All three run through one loop, :func:`_check_pool` — the only code here
that starts workers, waits on their pipes, kills overdue ones and reaps
them.  Per-attempt processes (rather than a long-lived executor pool) are
deliberate: an executor cannot kill a single hung task without tearing
down the whole pool.

Workers resolve check functions from the :mod:`repro.engine.methods`
registry by name, so only a short string crosses the process boundary;
picklable callables are accepted too (tests use this to inject
uncooperative loops).

**Wire format.**  There is one.  Hypergraphs ship as
:class:`~repro.core.bitset.PackedHypergraph` — name tables plus one integer
mask per edge, packed *once per (hypergraph, batch)* — and the worker
rebuilds the named hypergraph and its dense
:class:`~repro.core.bitset.HypergraphView` without re-validating, re-hashing
or re-deriving anything.  Results travel back the same way: a yes-verdict's
decomposition is serialized as nested ``(bag mask, (edge index, weight)…)``
tuples and re-named only at the parent, so the result pipe never carries a
pickled hypergraph.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections.abc import Sequence
from multiprocessing.connection import Connection, wait as _wait_connections

from repro.core.bitset import PackedHypergraph, pack_decomposition, unpack_decomposition
from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import (
    TIMEOUT,
    CheckFunction,
    CheckOutcome,
    portfolio_verdict,
    timed_check,
)
from repro.engine import methods as _methods
from repro.obs.trace import TRACER, make_span
from repro.perf import counters, publish_delta

__all__ = [
    "DEFAULT_GRACE",
    "run_checked",
    "race_checks",
    "map_checks",
]

#: Extra seconds past the cooperative budget before the worker is killed.
DEFAULT_GRACE = 0.5

# ``fork`` keeps worker start-up cheap and passes arguments by inheritance;
# platforms without it (Windows, some macOS configs) fall back to the default
# start method, where arguments must be picklable.
if "fork" in multiprocessing.get_all_start_methods():
    _CTX = multiprocessing.get_context("fork")
else:  # pragma: no cover - non-POSIX fallback
    _CTX = multiprocessing.get_context()


# ---------------------------------------------------------------- primitives


def _method_label(method: str | CheckFunction) -> str:
    return method if isinstance(method, str) else getattr(method, "__name__", "callable")


def _detach_signals() -> None:
    """Drop signal handling a fork inherited (``repro serve``'s asyncio
    wakeup fd and handlers): :func:`_reap`'s SIGTERM to this worker would
    otherwise reach the parent's event loop as the server's own SIGTERM."""
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _child_check(
    conn: Connection,
    method: str | CheckFunction,
    payload: PackedHypergraph,
    k: int,
    timeout: float | None,
    trace: tuple | None,
) -> None:
    """Worker entry point: run one timed check, ship the outcome back.

    The packed payload is unpacked (view and fingerprint land pre-cached)
    and the outcome is serialized back in mask form.  Exceptions are shipped
    back too, so a programming error inside a check function surfaces in the
    parent instead of masquerading as a timeout; only a worker that *dies*
    (OOM kill, crash) reads as a timeout.

    Telemetry: the fork inherits the parent's :data:`~repro.perf.counters`
    values, so the child snapshots them first and ships only the *delta* its
    own work accrued, plus a detached ``worker.exec`` span record parented
    on ``trace`` — the parent merges the delta and grafts the span into its
    tracer on receipt.  (The child deliberately builds no :class:`Tracer` of
    its own: the parent's ring, journal handle and registry are inherited
    fork-state it must not double-write.)
    """
    _detach_signals()
    try:
        try:
            hypergraph = payload.unpack()
            before = counters.snapshot()
            span = make_span(
                "worker.exec",
                parent=trace,
                method=_method_label(method),
                k=k,
                mode="worker",
                pid=os.getpid(),
            )
            outcome = timed_check(_methods.resolve(method), hypergraph, k, timeout)
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send(exc)
        else:
            delta = counters.delta_since(before)
            span.end(
                verdict=outcome.verdict,
                seconds=outcome.seconds,
                **{f"kernel_{name}": value for name, value in delta.items()},
            )
            decomposition = (
                pack_decomposition(outcome.decomposition)
                if outcome.decomposition is not None
                else None
            )
            conn.send(
                (outcome.verdict, outcome.seconds, decomposition, delta, [span.to_dict()])
            )
    finally:
        conn.close()


def _reap(process: multiprocessing.Process) -> None:
    """Terminate (then kill) a worker and wait for it to disappear."""
    if process.is_alive():
        process.terminate()
        process.join(1.0)
        if process.is_alive():  # pragma: no cover - terminate nearly always works
            process.kill()
    process.join()


def _spawn(
    method: str | CheckFunction,
    payload: PackedHypergraph,
    k: int,
    timeout: float | None,
    trace: tuple | None,
) -> tuple[multiprocessing.Process, Connection]:
    """Start one :func:`_child_check` in a fresh worker; returns the process
    and the read end of the pipe it answers on."""
    parent_conn, child_conn = _CTX.Pipe(duplex=False)
    try:
        process = _CTX.Process(
            target=_child_check,
            args=(child_conn, method, payload, k, timeout, trace),
            daemon=True,
        )
        process.start()
    except BaseException:
        parent_conn.close()
        raise
    finally:
        child_conn.close()
    return process, parent_conn


def _adopt_telemetry(outcome: CheckOutcome, delta: dict, spans: list) -> CheckOutcome:
    """Merge a worker's shipped telemetry into the parent process.

    The counter delta folds into the parent's :data:`~repro.perf.counters`
    singleton (so worker-side kernel work is no longer invisible) and is
    published to the metrics registry; the worker's span records graft into
    the parent tracer's ring/journal.  Both also ride on the outcome so the
    engine can attach them to the :class:`~repro.engine.jobs.JobResult`.
    """
    if delta:
        counters.merge(delta)
        publish_delta(delta)
    if spans:
        TRACER.graft(spans)
    outcome.counters = delta or None
    outcome.spans = spans or None
    return outcome


def _receive(conn: Connection, fallback_seconds: float, hypergraph: Hypergraph) -> CheckOutcome:
    """Read a worker's outcome; a dead pipe (crash, OOM-kill) is a timeout.

    The paper treats resource blow-ups the same way (GlobalBIP's subedge
    explosions are recorded as timeouts), so a worker that dies without an
    answer gets the same verdict.  A forwarded exception re-raises here.
    The mask-serialized decomposition is re-named against ``hypergraph`` —
    the parent's original instance, whose cached view does the naming.
    """
    try:
        result = conn.recv()
    except (EOFError, OSError):
        return CheckOutcome(TIMEOUT, fallback_seconds)
    if isinstance(result, Exception):
        raise result
    verdict, seconds, payload, delta, spans = result
    decomposition = None if payload is None else unpack_decomposition(payload, hypergraph)
    return _adopt_telemetry(CheckOutcome(verdict, seconds, decomposition), delta, spans)


# ---------------------------------------------------------------- the loop


def _check_pool(
    tasks: Sequence[tuple[str | CheckFunction, Hypergraph, int, float | None]],
    jobs: int,
    grace: float,
    traces: Sequence[tuple | None],
) -> list[CheckOutcome]:
    """Stream ``(method, hypergraph, k, timeout)`` tasks through ≤ ``jobs`` workers.

    Returns the outcomes in task order.  Every method resolves before the
    first worker starts, so an unknown name raises here with nothing left
    running.  Each distinct hypergraph is packed once and shared by every
    task that checks it; ``traces[i]`` parents task ``i``'s ``worker.exec``
    span.  A worker still running at ``timeout + grace`` is killed and its
    task recorded as a timeout.

    Workers start inside the ``try``, so a spawn that fails or a forwarded
    exception still reaps every worker already running.
    """
    payloads: dict[int, PackedHypergraph] = {}
    for method, hypergraph, _, _ in tasks:
        _methods.resolve(method)
        if id(hypergraph) not in payloads:
            payloads[id(hypergraph)] = PackedHypergraph.pack(hypergraph)
    outcomes: list[CheckOutcome] = [None] * len(tasks)  # type: ignore[list-item]
    active: dict[Connection, tuple[int, multiprocessing.Process, float, float | None]] = {}
    next_task = 0
    try:
        while next_task < len(tasks) or active:
            while next_task < len(tasks) and len(active) < jobs:
                method, hypergraph, k, timeout = tasks[next_task]
                process, conn = _spawn(
                    method, payloads[id(hypergraph)], k, timeout, traces[next_task]
                )
                started = time.perf_counter()
                deadline = None if timeout is None else started + timeout + grace
                active[conn] = (next_task, process, started, deadline)
                next_task += 1
            now = time.perf_counter()
            deadlines = [d for (_, _, _, d) in active.values() if d is not None]
            poll = None if not deadlines else max(0.0, min(deadlines) - now)
            ready = _wait_connections(list(active), poll)
            now = time.perf_counter()
            for conn in ready:
                index, process, started, _ = active[conn]  # type: ignore[index]
                outcome = _receive(conn, now - started, tasks[index][1])  # type: ignore[arg-type]
                outcomes[index] = outcome
                del active[conn]  # type: ignore[arg-type]
                conn.close()  # type: ignore[attr-defined]
                _reap(process)
            for conn, (index, process, started, deadline) in list(active.items()):
                if deadline is not None and now >= deadline:
                    del active[conn]
                    outcomes[index] = CheckOutcome(TIMEOUT, now - started)
                    conn.close()
                    _reap(process)
    finally:
        for conn, (_, process, _, _) in active.items():
            conn.close()
            _reap(process)
    return outcomes


# -------------------------------------------------------------- check shapes


def run_checked(
    method: str | CheckFunction,
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    trace: tuple | None = None,
) -> CheckOutcome:
    """Run one ``Check(H, k)`` in a worker process with a hard timeout.

    The worker still polls the cooperative deadline (so well-behaved searches
    stop themselves near ``timeout``); the parent kills it at
    ``timeout + grace`` regardless.  The hypergraph ships as a
    :class:`PackedHypergraph` and the decomposition returns as masks,
    re-named here against the caller's instance.

    ``trace`` (a :class:`~repro.obs.TraceContext`, defaulting to the ambient
    one) parents the worker's ``worker.exec`` span; the worker's kernel
    counter delta and span records come back with the outcome.
    """
    if trace is None:
        trace = TRACER.current_context()
    return _check_pool([(method, hypergraph, k, timeout)], 1, grace, [trace])[0]


def race_checks(
    methods: Sequence[str],
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    trace: tuple | None = None,
) -> tuple[str | None, dict[str, CheckOutcome]]:
    """Run one worker per method at once, each with the full budget.

    Returns ``(winner, per_method)`` by
    :func:`~repro.decomp.driver.portfolio_verdict`: the method with the
    fastest definite answer, or ``None`` when nobody answered.  Every racer
    runs until it answers or is killed at ``timeout + grace``, exactly as
    in :func:`map_checks`, so each outcome is what the method does with the
    whole budget.  The hypergraph is packed once and shared by every racer;
    every racer's ``worker.exec`` span parents on ``trace`` (default:
    ambient context).
    """
    if trace is None:
        trace = TRACER.current_context()
    tasks = [(method, hypergraph, k, timeout) for method in methods]
    outcomes = _check_pool(tasks, len(tasks), grace, [trace] * len(tasks))
    per_method = dict(zip(methods, outcomes))
    return portfolio_verdict(per_method)[1], per_method


def map_checks(
    tasks: Sequence[tuple[str | CheckFunction, Hypergraph, int, float | None]],
    jobs: int,
    grace: float = DEFAULT_GRACE,
    traces: Sequence[tuple | None] | None = None,
) -> list[CheckOutcome]:
    """Stream ``(method, hypergraph, k, timeout)`` tasks through ≤ jobs workers.

    Results come back in task order.  Each worker has its own hard budget;
    a killed or crashed worker yields a timeout verdict for its task.
    A batch that checks one hypergraph at many ``(method, k)`` keys packs
    it exactly once — the packed view is shared across every dispatch.
    ``traces`` is an optional per-task parallel sequence of
    :class:`~repro.obs.TraceContext` parents (a batch wave carries one per
    spec, so each worker span lands in the trace of the request that
    submitted it).
    """
    if traces is None:
        traces = [None] * len(tasks)
    return _check_pool(tasks, max(1, int(jobs)), grace, traces)
