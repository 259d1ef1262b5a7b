"""Worker-process execution of check functions with *hard* timeouts.

The search algorithms poll a cooperative :class:`~repro.utils.deadline.Deadline`
at their backtracking points, but a cooperative budget cannot preempt a tight
inner loop (subedge enumeration, cover search) that goes long between polls.
Running each attempt in its own worker process lets the parent *kill* the
worker when the wall-clock budget is gone — the paper's cluster runs enforce
their 3600 s timeouts the same way.

Three execution shapes are provided:

* :func:`run_checked` — one attempt in one worker, killed at
  ``timeout + grace``;
* :func:`race_checks` — the Table 4 portfolio: one worker per algorithm,
  first definite answer wins, losers are cancelled;
* :func:`map_checks` — a bounded pool streaming a task list through at most
  ``jobs`` concurrent workers, each with its own hard budget.

Per-attempt processes (rather than a long-lived ``ProcessPoolExecutor``) are
deliberate: an executor cannot kill a single hung task without tearing down
the whole pool.  For side-effect-free bulk work with no timeouts (e.g.
parallel benchmark generation) :func:`run_callables` *does* use
:class:`concurrent.futures.ProcessPoolExecutor`; :func:`map_callables` is its
fault-isolating sibling — generic calls streamed through killable workers,
where a crash or overrun yields a :class:`CallFailure` in that slot instead
of poisoning the batch (the repository's parallel statistics use it).

Workers resolve check functions from the :mod:`repro.engine.methods`
registry by name, so only a short string crosses the process boundary;
picklable callables are accepted too (tests use this to inject
uncooperative loops).

**Wire format.**  Hypergraphs ship as
:class:`~repro.core.bitset.PackedHypergraph` — name tables plus one integer
mask per edge, packed *once per (hypergraph, batch)* — and the worker
rebuilds the named hypergraph and its dense
:class:`~repro.core.bitset.HypergraphView` without re-validating, re-hashing
or re-deriving anything.  Results travel back the same way: a yes-verdict's
decomposition is serialized as nested ``(bag mask, (edge index, weight)…)``
tuples and re-named only at the parent, so the result pipe never carries a
pickled hypergraph (the pre-refactor pickle of a ``Decomposition`` dragged
its whole ``hypergraph`` attribute along with every answer).  Pass
``packed=False`` to get the legacy pickle path — kept for the dispatch
microbenchmark in :mod:`repro.perf.harness`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait as _wait_connections

from repro.core.bitset import PackedHypergraph, pack_decomposition, unpack_decomposition
from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import TIMEOUT, CheckFunction, CheckOutcome, timed_check
from repro.engine import methods as _methods
from repro.engine.methods import CHECK_METHODS
from repro.obs.trace import TRACER, make_span
from repro.perf import counters, publish_delta

__all__ = [
    "CHECK_METHODS",
    "DEFAULT_GRACE",
    "CallFailure",
    "register_method",
    "resolve_method",
    "run_checked",
    "race_checks",
    "map_checks",
    "map_callables",
    "run_callables",
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


def register_method(name: str, check: CheckFunction) -> None:
    """Register a custom check function under ``name`` (e.g. for experiments).

    Thin wrapper over :func:`repro.engine.methods.register_check`: the
    method lands in the shared registry as an ad-hoc, non-monotone spec.
    """
    _methods.register_check(name, check)


def resolve_method(method: str | CheckFunction) -> CheckFunction:
    """Map a registry name (or pass a callable through) to a check function."""
    return _methods.resolve(method)


# ---------------------------------------------------------------- primitives

#: Tag of a mask-serialized outcome on the result pipe.
_WIRE_OUTCOME = "__wire__"

#: Tag of a legacy pickled outcome travelling with its telemetry.
_WIRE_PICKLED = "__pickled__"


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
    payload: "PackedHypergraph | Hypergraph",
    k: int,
    timeout: float | None,
    trace: tuple | None = None,
) -> None:
    """Worker entry point: run one timed check, ship the outcome back.

    A :class:`PackedHypergraph` payload is unpacked (view and fingerprint
    land pre-cached) and the outcome is serialized back in mask form; a
    plain hypergraph round-trips the legacy pickled :class:`CheckOutcome`
    (now tagged, so its telemetry rides along).  Exceptions are shipped back
    too, so a programming error inside a check function surfaces in the
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
            packed = isinstance(payload, PackedHypergraph)
            hypergraph = payload.unpack() if packed else payload
            before = counters.snapshot()
            span = make_span(
                "worker.exec",
                parent=trace,
                method=_method_label(method),
                k=k,
                mode="worker",
                pid=os.getpid(),
            )
            outcome = timed_check(resolve_method(method), hypergraph, k, timeout)
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send(exc)
        else:
            delta = counters.delta_since(before)
            span.end(
                verdict=outcome.verdict,
                seconds=outcome.seconds,
                **{f"kernel_{name}": value for name, value in delta.items()},
            )
            telemetry = {"counters": delta, "spans": [span.to_dict()]}
            if packed:
                decomposition = (
                    pack_decomposition(outcome.decomposition)
                    if outcome.decomposition is not None
                    else None
                )
                conn.send(
                    (
                        _WIRE_OUTCOME,
                        outcome.verdict,
                        outcome.seconds,
                        decomposition,
                        telemetry,
                    )
                )
            else:
                # Legacy path: the decomposition travels back via pickle,
                # dragging its hypergraph along; drop nothing.
                conn.send((_WIRE_PICKLED, outcome, telemetry))
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


def _payload_for(hypergraph: Hypergraph, packed: bool) -> "PackedHypergraph | Hypergraph":
    return PackedHypergraph.pack(hypergraph) if packed else hypergraph


def _spawn(
    method: str | CheckFunction,
    payload: "PackedHypergraph | Hypergraph",
    k: int,
    timeout: float | None,
    trace: tuple | None = None,
) -> tuple[multiprocessing.Process, Connection]:
    resolve_method(method)  # fail in the parent on unknown method names
    parent_conn, child_conn = _CTX.Pipe(duplex=False)
    process = _CTX.Process(
        target=_child_check,
        args=(child_conn, method, payload, k, timeout, trace),
        daemon=True,
    )
    process.start()
    child_conn.close()
    return process, parent_conn


def _adopt_telemetry(outcome: CheckOutcome, telemetry: object) -> CheckOutcome:
    """Merge a worker's shipped telemetry into the parent process.

    The counter delta folds into the parent's :data:`~repro.perf.counters`
    singleton (so worker-side kernel work is no longer invisible) and is
    published to the metrics registry; the worker's span records graft into
    the parent tracer's ring/journal.  Both also ride on the outcome so the
    engine can attach them to the :class:`~repro.engine.jobs.JobResult`.
    """
    if not isinstance(telemetry, dict):
        return outcome
    delta = telemetry.get("counters")
    spans = telemetry.get("spans")
    if delta:
        counters.merge(delta)
        publish_delta(delta)
    if spans:
        TRACER.graft(spans)
    outcome.counters = delta or None
    outcome.spans = spans or None
    return outcome


def _receive(
    conn: Connection,
    fallback_seconds: float,
    hypergraph: Hypergraph | None = None,
) -> CheckOutcome:
    """Read a worker's outcome; a dead pipe (crash, OOM-kill) is a timeout.

    The paper treats resource blow-ups the same way (GlobalBIP's subedge
    explosions are recorded as timeouts), so a worker that dies without an
    answer gets the same verdict.  A forwarded exception re-raises here.
    A mask-serialized outcome is re-named against ``hypergraph`` — the
    parent's original instance, whose cached view does the naming.
    """
    try:
        result = conn.recv()
    except (EOFError, OSError):
        return CheckOutcome(TIMEOUT, fallback_seconds)
    if isinstance(result, Exception):
        raise result
    if isinstance(result, tuple) and result and result[0] == _WIRE_OUTCOME:
        _, verdict, seconds, payload, telemetry = result
        decomposition = (
            unpack_decomposition(payload, hypergraph)
            if payload is not None and hypergraph is not None
            else None
        )
        return _adopt_telemetry(CheckOutcome(verdict, seconds, decomposition), telemetry)
    if isinstance(result, tuple) and result and result[0] == _WIRE_PICKLED:
        _, outcome, telemetry = result
        return _adopt_telemetry(outcome, telemetry)
    return result


# -------------------------------------------------------------- single check


def run_checked(
    method: str | CheckFunction,
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    packed: bool = True,
    trace: tuple | None = None,
) -> CheckOutcome:
    """Run one ``Check(H, k)`` in a worker process with a hard timeout.

    The worker still polls the cooperative deadline (so well-behaved searches
    stop themselves near ``timeout``); the parent kills it at
    ``timeout + grace`` regardless.  With ``packed`` (the default) the
    hypergraph ships as a :class:`PackedHypergraph` and the decomposition
    returns as masks, re-named here against the caller's instance.

    ``trace`` (a :class:`~repro.obs.TraceContext`, defaulting to the ambient
    one) parents the worker's ``worker.exec`` span; the worker's kernel
    counter delta and span records come back with the outcome.
    """
    if trace is None:
        trace = TRACER.current_context()
    process, conn = _spawn(method, _payload_for(hypergraph, packed), k, timeout, trace)
    start = time.perf_counter()
    try:
        if conn.poll(_hard_budget(timeout, grace)):
            return _receive(conn, time.perf_counter() - start, hypergraph)
        return CheckOutcome(TIMEOUT, time.perf_counter() - start)
    finally:
        conn.close()
        _reap(process)


# ---------------------------------------------------------------- portfolio


def race_checks(
    methods: Sequence[str],
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
    grace: float = DEFAULT_GRACE,
    packed: bool = True,
    trace: tuple | None = None,
) -> tuple[str | None, dict[str, CheckOutcome]]:
    """Race one worker per method; the first definite answer wins.

    Returns ``(winner, per_method)``.  ``winner`` is ``None`` when nobody
    answered.  Losers still running when the winner reports are cancelled
    (killed) and recorded as timeouts at their cancellation time; methods
    that finished *before* the winner keep their genuine outcomes.  The
    hypergraph is packed once and shared by every racer; every racer's
    ``worker.exec`` span parents on ``trace`` (default: ambient context).
    """
    if trace is None:
        trace = TRACER.current_context()
    payload = _payload_for(hypergraph, packed)
    processes: dict[str, multiprocessing.Process] = {}
    pending: dict[Connection, str] = {}
    for method in methods:
        process, conn = _spawn(method, payload, k, timeout, trace)
        processes[method] = process
        pending[conn] = method
    start = time.perf_counter()
    deadline = None if timeout is None else start + timeout + grace
    results: dict[str, CheckOutcome] = {}
    winner: str | None = None
    try:
        while pending and winner is None:
            remaining = None if deadline is None else max(0.0, deadline - time.perf_counter())
            ready = _wait_connections(list(pending), remaining)
            if not ready:
                break  # hard budget exhausted for everyone still running
            for conn in ready:
                method = pending.pop(conn)  # type: ignore[arg-type]
                outcome = _receive(conn, time.perf_counter() - start, hypergraph)  # type: ignore[arg-type]
                conn.close()  # type: ignore[attr-defined]
                results[method] = outcome
                if winner is None and outcome.answered:
                    winner = method
        cancelled_at = time.perf_counter() - start
        still_racing = winner is not None
        for method in pending.values():
            results[method] = CheckOutcome(TIMEOUT, cancelled_at, cancelled=still_racing)
    finally:
        for conn in pending:
            conn.close()
        for process in processes.values():
            _reap(process)
    return winner, results


# -------------------------------------------------------------- bounded pool


def _stream_pool(
    count: int,
    jobs: int,
    start: Callable[[int], tuple[multiprocessing.Process, Connection, float | None]],
    receive: Callable[[Connection, float, int], object],
    expire: Callable[[float], object],
) -> list[object]:
    """Stream ``count`` tasks through ≤ ``jobs`` workers, results in order.

    ``start(index)`` spawns task ``index`` and returns ``(process, conn,
    hard budget in seconds or None)``; ``receive(conn, elapsed, index)``
    reads a finished worker's result; ``expire(elapsed)`` is the result
    recorded for a worker killed at its hard budget.
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
                index, process, started, _ = active.pop(conn)  # type: ignore[arg-type]
                results[index] = receive(conn, now - started, index)  # type: ignore[arg-type]
                conn.close()  # type: ignore[attr-defined]
                _reap(process)
            overdue = [
                conn
                for conn, (_, _, _, deadline) in active.items()
                if deadline is not None and now >= deadline
            ]
            for conn in overdue:
                index, process, started, _ = active.pop(conn)
                results[index] = expire(now - started)
                conn.close()
                _reap(process)
    finally:
        for conn, (_, process, _, _) in active.items():
            conn.close()
            _reap(process)
    return results


def map_checks(
    tasks: Sequence[tuple[str | CheckFunction, Hypergraph, int, float | None]],
    jobs: int,
    grace: float = DEFAULT_GRACE,
    packed: bool = True,
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
    payloads: dict[int, PackedHypergraph | Hypergraph] = {}
    if packed:
        for _, hypergraph, _, _ in tasks:
            key = id(hypergraph)
            if key not in payloads:
                payloads[key] = PackedHypergraph.pack(hypergraph)

    def start(index: int):
        method, hypergraph, k, timeout = tasks[index]
        payload = payloads.get(id(hypergraph), hypergraph)
        trace = traces[index] if traces is not None else None
        process, conn = _spawn(method, payload, k, timeout, trace)
        return process, conn, _hard_budget(timeout, grace)

    def receive(conn: Connection, elapsed: float, index: int) -> CheckOutcome:
        return _receive(conn, elapsed, tasks[index][1])

    return _stream_pool(  # type: ignore[return-value]
        len(tasks),
        max(1, int(jobs)),
        start,
        receive,
        lambda elapsed: CheckOutcome(TIMEOUT, elapsed),
    )


# ----------------------------------------------------- generic parallel calls


def run_callables(
    calls: Sequence[tuple[Callable, tuple]],
    jobs: int,
) -> list[object]:
    """Run ``fn(*args)`` pairs in a process pool, results in call order.

    For deterministic, side-effect-free bulk work without timeouts (the
    benchmark generators); uses :class:`concurrent.futures.ProcessPoolExecutor`.
    """
    jobs = max(1, int(jobs))
    if jobs == 1 or len(calls) <= 1:
        return [fn(*args) for fn, args in calls]
    with ProcessPoolExecutor(max_workers=min(jobs, len(calls)), mp_context=_CTX) as pool:
        futures = [pool.submit(fn, *args) for fn, args in calls]
        return [future.result() for future in futures]


@dataclass(frozen=True)
class CallFailure:
    """One failed slot in a :func:`map_callables` batch (returned, not raised).

    ``reason`` is ``"timeout"`` (hard budget exhausted), ``"crash"`` (the
    worker died without reporting), or the ``repr`` of the exception the
    call raised.
    """

    reason: str


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

    Unlike :func:`run_callables`, every call runs in its own killable worker
    with an optional per-call hard ``timeout``; a call that raises, crashes
    its worker (OOM kill, ``os._exit``), or overruns the budget yields a
    :class:`CallFailure` in its slot instead of poisoning the whole batch —
    mirroring the engine convention that a dead worker reads as a timeout.
    """

    def start(index: int):
        fn, args = calls[index]
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        process = _CTX.Process(
            target=_child_call, args=(child_conn, fn, tuple(args)), daemon=True
        )
        process.start()
        child_conn.close()
        return process, parent_conn, _hard_budget(timeout, grace)

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
