"""Worker-process execution of check functions with *hard* timeouts.

The search algorithms poll a cooperative :class:`~repro.utils.deadline.Deadline`
at their backtracking points, but a cooperative budget cannot preempt a tight
inner loop (subedge enumeration, cover search) that goes long between polls.
Running each attempt in its own worker process lets the parent *kill* the
worker when the wall-clock budget is gone — the paper's cluster runs enforce
their 3600 s timeouts the same way.

Four execution shapes are provided:

* :func:`run_checked` — one attempt in one worker, killed at
  ``timeout + grace``;
* :func:`race_checks` — the Table 4 portfolio: one worker per algorithm,
  the first definite answer to arrive wins, losers still running are
  cancelled;
* :func:`map_checks` — a task list streamed through at most ``jobs``
  concurrent workers, each with its own hard budget;
* :func:`map_callables` — generic ``fn(*args)`` calls streamed the same
  way; a call that raises, crashes its worker (OOM kill, ``os._exit``) or
  overruns yields a :class:`CallFailure` in its slot instead of poisoning
  the batch (parallel statistics and the parallel benchmark build use it).

All four run through one loop, :func:`_stream_pool` — the only code here
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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as _wait_connections

from repro.core.bitset import PackedHypergraph, pack_decomposition, unpack_decomposition
from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import TIMEOUT, CheckFunction, CheckOutcome, timed_check
from repro.engine import methods as _methods
from repro.obs.trace import TRACER, make_span
from repro.perf import counters, publish_delta

__all__ = [
    "DEFAULT_GRACE",
    "CallFailure",
    "run_checked",
    "race_checks",
    "map_checks",
    "map_callables",
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


def _hard_budget(timeout: float | None, grace: float) -> float | None:
    return None if timeout is None else timeout + grace


def _spawn(target: Callable, *args: object) -> tuple[multiprocessing.Process, Connection]:
    """Start ``target(conn, *args)`` in a fresh worker; returns the process
    and the read end of the pipe it answers on."""
    parent_conn, child_conn = _CTX.Pipe(duplex=False)
    try:
        process = _CTX.Process(target=target, args=(child_conn, *args), daemon=True)
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


def _stream_pool(
    count: int,
    jobs: int,
    start: Callable[[int], tuple[multiprocessing.Process, Connection, float | None]],
    receive: Callable[[Connection, float, int], object],
    expire: Callable[[float], object],
    stop: Callable[[], bool] = lambda: False,
) -> list[object]:
    """Stream ``count`` tasks through ≤ ``jobs`` workers, results in order.

    ``start(index)`` spawns task ``index`` and returns ``(process, conn,
    hard budget in seconds or None)``; ``receive(conn, elapsed, index)``
    reads a finished worker's result; ``expire(elapsed)`` is the result
    recorded for a worker killed at its hard budget.  ``stop()`` is asked
    after each round of arrivals: once it holds, no further task starts
    and every worker still running is killed, its slot getting
    ``expire(elapsed)`` too (tasks never started stay ``None``).

    Workers start inside the ``try``, so a ``start`` or ``receive`` that
    raises still reaps every worker already running.
    """
    results: list[object] = [None] * count
    active: dict[Connection, tuple[int, multiprocessing.Process, float, float | None]] = {}
    next_task = 0
    try:
        while next_task < count or active:
            while next_task < count and len(active) < jobs:
                process, conn, budget = start(next_task)
                started = time.perf_counter()
                active[conn] = (
                    next_task,
                    process,
                    started,
                    None if budget is None else started + budget,
                )
                next_task += 1
            now = time.perf_counter()
            deadlines = [d for (_, _, _, d) in active.values() if d is not None]
            poll = None if not deadlines else max(0.0, min(deadlines) - now)
            ready = _wait_connections(list(active), poll)
            now = time.perf_counter()
            for conn in ready:
                index, process, started, _ = active[conn]  # type: ignore[index]
                results[index] = receive(conn, now - started, index)  # type: ignore[arg-type]
                del active[conn]  # type: ignore[arg-type]
                conn.close()  # type: ignore[attr-defined]
                _reap(process)
            stopping = stop()
            for conn, (index, process, started, deadline) in list(active.items()):
                if stopping or (deadline is not None and now >= deadline):
                    del active[conn]
                    results[index] = expire(now - started)
                    conn.close()
                    _reap(process)
            if stopping:
                break
    finally:
        for conn, (_, process, _, _) in active.items():
            conn.close()
            _reap(process)
    return results


def _check_pool(
    tasks: Sequence[tuple[str | CheckFunction, Hypergraph, int, float | None]],
    jobs: int,
    grace: float,
    traces: Sequence[tuple | None],
    race: bool = False,
) -> tuple[list[CheckOutcome], int | None]:
    """Run ``(method, hypergraph, k, timeout)`` tasks through :func:`_stream_pool`.

    Returns ``(outcomes in task order, winner index or None)``.  Every
    method resolves before the first worker starts, so an unknown name
    raises here with nothing left running.  Each distinct hypergraph is
    packed once and shared by every task that checks it; ``traces[i]``
    parents task ``i``'s ``worker.exec`` span.  With ``race``, the first
    definite answer to arrive wins and stops the pool: workers still
    running are recorded as timeouts, ``cancelled`` at that moment.
    """
    payloads: dict[int, PackedHypergraph] = {}
    for method, hypergraph, _, _ in tasks:
        _methods.resolve(method)
        if id(hypergraph) not in payloads:
            payloads[id(hypergraph)] = PackedHypergraph.pack(hypergraph)
    winner: int | None = None

    def start(index: int):
        method, hypergraph, k, timeout = tasks[index]
        process, conn = _spawn(
            _child_check, method, payloads[id(hypergraph)], k, timeout, traces[index]
        )
        return process, conn, _hard_budget(timeout, grace)

    def receive(conn: Connection, elapsed: float, index: int) -> CheckOutcome:
        nonlocal winner
        outcome = _receive(conn, elapsed, tasks[index][1])
        if race and winner is None and outcome.answered:
            winner = index
        return outcome

    def expire(elapsed: float) -> CheckOutcome:
        # Killed while the race was already won: cancelled, not out of budget.
        return CheckOutcome(TIMEOUT, elapsed, cancelled=winner is not None)

    outcomes = _stream_pool(
        len(tasks), jobs, start, receive, expire, stop=lambda: winner is not None
    )
    return outcomes, winner  # type: ignore[return-value]


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
    outcomes, _ = _check_pool([(method, hypergraph, k, timeout)], 1, grace, [trace])
    return outcomes[0]


def race_checks(
    methods: Sequence[str],
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    trace: tuple | None = None,
) -> tuple[str | None, dict[str, CheckOutcome]]:
    """Race one worker per method; the first definite answer to arrive wins.

    Returns ``(winner, per_method)``.  ``winner`` is ``None`` when nobody
    answered; then every racer ran its full budget and none is marked
    cancelled.  Losers still running when the winner reports are cancelled
    (killed) and recorded as timeouts at their cancellation time; methods
    that finished *before* the winner keep their genuine outcomes.  The
    hypergraph is packed once and shared by every racer; every racer's
    ``worker.exec`` span parents on ``trace`` (default: ambient context).
    """
    if trace is None:
        trace = TRACER.current_context()
    tasks = [(method, hypergraph, k, timeout) for method in methods]
    outcomes, winner = _check_pool(tasks, len(tasks), grace, [trace] * len(tasks), race=True)
    return (None if winner is None else methods[winner]), dict(zip(methods, outcomes))


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
    outcomes, _ = _check_pool(tasks, max(1, int(jobs)), grace, traces)
    return outcomes


# ----------------------------------------------------- generic parallel calls


@dataclass(frozen=True)
class CallFailure:
    """One failed slot in a :func:`map_callables` batch (returned, not raised).

    ``reason`` is ``"timeout"`` (hard budget exhausted), ``"crash"`` (the
    worker died without reporting), or the ``repr`` of the exception the
    call raised.
    """

    reason: str

    @property
    def raised(self) -> bool:
        """The call itself raised (a bug), rather than its worker dying or
        overrunning."""
        return self.reason not in ("timeout", "crash")


def _child_call(conn: Connection, fn: Callable, args: tuple) -> None:
    """Worker entry point for :func:`map_callables`: report value or error."""
    _detach_signals()
    try:
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            conn.send(("error", repr(exc)))
        else:
            conn.send(("ok", result))
    finally:
        conn.close()


def map_callables(
    calls: Sequence[tuple[Callable, tuple]],
    jobs: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
) -> list[object]:
    """Stream ``fn(*args)`` pairs through ≤ jobs workers, isolating failures.

    Every call runs in its own killable worker with an optional per-call
    hard ``timeout``; a call that raises, crashes its worker (OOM kill,
    ``os._exit``), or overruns the budget yields a :class:`CallFailure` in
    its slot instead of poisoning the whole batch — mirroring the engine
    convention that a dead worker reads as a timeout.
    """

    def start(index: int):
        fn, args = calls[index]
        process, conn = _spawn(_child_call, fn, tuple(args))
        return process, conn, _hard_budget(timeout, grace)

    def receive(conn: Connection, elapsed: float, index: int) -> object:
        try:
            kind, payload = conn.recv()
        except (EOFError, OSError):
            return CallFailure("crash")
        return payload if kind == "ok" else CallFailure(payload)

    return _stream_pool(
        len(calls),
        max(1, int(jobs)),
        start,
        receive,
        lambda elapsed: CallFailure("timeout"),
    )
