"""High-level drivers: exact widths, timed checks, and the algorithm portfolio.

The paper's evaluation protocol (Sections 6.2 and 6.4) runs
``Check(decomposition, k)`` attempts under a wall-clock timeout, records
yes / no / timeout verdicts, determines exact widths by iterating k, and — for
Table 4 — runs all three GHD algorithms "in parallel", taking the first
answer.  This module provides those building blocks in-process, including
the one portfolio rule (:func:`portfolio_verdict`);
:class:`repro.engine.DecompositionEngine` runs them (cached, or in killable
workers) for the analysis layer's protocols.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.decomposition import Decomposition
from repro.core.hypergraph import Hypergraph
from repro.decomp.balsep import check_ghd_balsep
from repro.decomp.detkdecomp import check_hd
from repro.decomp.globalbip import check_ghd_global_bip
from repro.decomp.localbip import check_ghd_local_bip
from repro.errors import DeadlineExceeded, SubedgeLimitError
from repro.utils.deadline import Deadline

__all__ = [
    "CheckOutcome",
    "YES",
    "NO",
    "TIMEOUT",
    "timed_check",
    "exact_width",
    "WidthResult",
    "GHD_ALGORITHMS",
    "portfolio_verdict",
    "ghd_portfolio",
]

#: Verdict labels, matching the paper's figures.
YES = "yes"
NO = "no"
TIMEOUT = "timeout"

CheckFunction = Callable[[Hypergraph, int, Deadline | None], "Decomposition | None"]


@dataclass
class CheckOutcome:
    """Result of one timed ``Check(decomposition, k)`` attempt.

    ``counters`` and ``spans`` carry the telemetry a worker process shipped
    back with this outcome: the :class:`~repro.perf.KernelCounters` delta
    accrued during the attempt and the finished span records of the worker's
    side of the trace.  Both stay ``None`` on paths that do not collect
    telemetry, and neither participates in equality.
    """

    verdict: str  # YES, NO or TIMEOUT
    seconds: float
    decomposition: Decomposition | None = None
    counters: dict | None = field(default=None, compare=False, repr=False)
    spans: list | None = field(default=None, compare=False, repr=False)

    @property
    def answered(self) -> bool:
        return self.verdict in (YES, NO)


def timed_check(
    check: CheckFunction,
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
) -> CheckOutcome:
    """Run one check attempt under a timeout and record the verdict.

    Subedge-budget exhaustion is treated like a timeout, mirroring the
    paper's handling of ``GlobalBIP`` blow-ups.
    """
    deadline = Deadline(timeout)
    start = time.perf_counter()
    try:
        decomposition = check(hypergraph, k, deadline)
    except (DeadlineExceeded, SubedgeLimitError):
        return CheckOutcome(TIMEOUT, time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    if decomposition is None:
        return CheckOutcome(NO, elapsed)
    return CheckOutcome(YES, elapsed, decomposition)


@dataclass
class WidthResult:
    """Outcome of an exact-width computation by iterating k.

    ``value`` is the exact width when ``exact`` is true; otherwise only the
    bounds are known (``lower`` may be 1 when nothing was refuted, ``upper``
    may be ``None`` when not even the largest k yielded a yes).
    """

    lower: int
    upper: int | None
    decomposition: Decomposition | None
    timings: dict[int, CheckOutcome]

    @property
    def exact(self) -> bool:
        return self.upper is not None and self.lower == self.upper

    @property
    def value(self) -> int | None:
        return self.upper if self.exact else None


def exact_width(
    check: CheckFunction,
    hypergraph: Hypergraph,
    max_k: int,
    timeout: float | None = None,
    runner: "Callable[[CheckFunction, Hypergraph, int, float | None], CheckOutcome] | None" = None,
) -> WidthResult:
    """Iterate ``Check(·, k)`` for k = 1..max_k (the Figure 4 protocol).

    Stops at the first yes-answer; the width is exact when every smaller k
    produced a definite no (rather than a timeout).

    ``runner`` replaces :func:`timed_check` as the executor of each attempt;
    :class:`repro.engine.DecompositionEngine` uses this seam to route the
    per-k checks through its result store and worker pool.
    """
    run = runner or timed_check
    timings: dict[int, CheckOutcome] = {}
    refuted_up_to = 0
    all_no_so_far = True
    for k in range(1, max_k + 1):
        outcome = run(check, hypergraph, k, timeout)
        timings[k] = outcome
        if outcome.verdict == YES:
            lower = refuted_up_to + 1 if all_no_so_far else 1
            return WidthResult(lower, k, outcome.decomposition, timings)
        if outcome.verdict == NO:
            if all_no_so_far:
                refuted_up_to = k
        else:
            all_no_so_far = False
    lower = refuted_up_to + 1
    return WidthResult(lower, None, None, timings)


def _portfolio_algorithms() -> dict[str, CheckFunction]:
    """The raced GHD algorithms (Table 3 order), from the method registry.

    Function-level import: the registry lives in :mod:`repro.engine.methods`
    (which imports this module's check functions lazily), so resolving it at
    call time — never at import time — keeps the layering cycle-free.
    """
    from repro.engine import methods

    return {
        spec.display: spec.check
        for spec in methods.specs()
        if spec.portfolio and spec.check is not None
    }


def __getattr__(name: str):
    # ``GHD_ALGORITHMS`` (the three Section 4 GHD algorithms in Table 3
    # order) is derived from the method registry on access, so a method
    # registered as portfolio-eligible appears here without a second table.
    if name == "GHD_ALGORITHMS":
        return _portfolio_algorithms()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def portfolio_verdict(
    per_algorithm: dict[str, CheckOutcome],
) -> tuple[CheckOutcome, str | None]:
    """The portfolio rule (Table 4): returns ``(outcome, winner)``.

    Every racer has run with the full budget (Section 6.4 gives each
    algorithm the whole timeout), so the portfolio answers what "run all
    three in parallel, first answer wins" observes: the definite answer
    with the smallest ``seconds`` of its own, ties going to the earlier
    racer in lineup order.  When no racer answered, the outcome is the
    slowest racer's timeout and the winner ``None``.
    """
    answered = [name for name, o in per_algorithm.items() if o.answered]
    if answered:
        winner = min(answered, key=lambda name: per_algorithm[name].seconds)
        return per_algorithm[winner], winner
    return max(per_algorithm.values(), key=lambda o: o.seconds), None


def ghd_portfolio(
    hypergraph: Hypergraph,
    k: int,
    timeout: float | None = None,
) -> tuple[CheckOutcome, dict[str, CheckOutcome]]:
    """The paper's portfolio (Table 4 protocol), simulated sequentially.

    Every registered portfolio algorithm runs in turn with the full timeout,
    and :func:`portfolio_verdict` picks the verdict.  A
    :class:`repro.engine.DecompositionEngine` runs a portfolio job's racers
    as tasks of its batch wave instead (in turn in-process, or in worker
    processes), each with the same full budget, and folds them by the same
    rule.  Returns ``(portfolio_outcome, per_algorithm)``.
    """
    per_algorithm = {
        name: timed_check(fn, hypergraph, k, timeout)
        for name, fn in _portfolio_algorithms().items()
    }
    return portfolio_verdict(per_algorithm)[0], per_algorithm
