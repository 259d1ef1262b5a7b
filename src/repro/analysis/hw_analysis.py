"""The hypertree-width analysis of Figure 4.

Protocol (Section 6.2): for every hypergraph, try ``Check(HD, k)`` for
k = 1; instances answering "no" or timing out are retried with k = 2, and so
on up to ``max_k``.  For every class and k we record how many instances
answered yes / no / timed out and the average runtime of the yes- and
no-answers — exactly the bars and labels of Figure 4.

Each k runs as one batch wave of ``Check(HD, k)`` jobs over the instances
still pending, through any ``run_batch(specs) -> BatchReport`` executor: a
:class:`~repro.engine.DecompositionEngine`'s or a
:class:`~repro.engine.remote.Dispatcher`'s, the experiment runner's
journalled one, or the results view's store replay.  Which instances each
wave holds follows from the previous waves' verdicts alone, so a journalled
run that resumes re-derives the same waves.

As a side effect the repository's hw bounds are updated: a yes at k gives
``hw <= k`` (exact when all smaller k produced definite no-answers), a no at
k gives ``hw > k``.  The found HDs are stashed in ``entry.extra["hd"]`` for
the fractional-improvement study (Tables 5/6).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.repository import BenchmarkEntry, HyperBenchRepository
from repro.decomp.driver import NO, YES
from repro.engine.engine import BatchReport, DecompositionEngine
from repro.engine.jobs import JobSpec

__all__ = ["HwCell", "HwAnalysis", "run_hw_analysis"]


@dataclass
class HwCell:
    """One (class, k) cell of Figure 4."""

    yes: int = 0
    no: int = 0
    timeout: int = 0
    yes_seconds: float = 0.0
    no_seconds: float = 0.0

    @property
    def yes_avg(self) -> float:
        return self.yes_seconds / self.yes if self.yes else 0.0

    @property
    def no_avg(self) -> float:
        return self.no_seconds / self.no if self.no else 0.0


@dataclass
class HwAnalysis:
    """Full result of the Figure 4 sweep."""

    max_k: int
    timeout: float | None
    cells: dict[tuple[BenchmarkClass, int], HwCell] = field(default_factory=dict)
    #: instances that still had no yes-answer after ``max_k``
    unresolved: list[str] = field(default_factory=list)

    def cell(self, benchmark_class: BenchmarkClass, k: int) -> HwCell:
        key = (benchmark_class, k)
        if key not in self.cells:
            self.cells[key] = HwCell()
        return self.cells[key]

    def ks_for(self, benchmark_class: BenchmarkClass) -> list[int]:
        return sorted(k for cls, k in self.cells if cls == benchmark_class)


def run_hw_analysis(
    repository: HyperBenchRepository,
    max_k: int = 6,
    timeout: float | None = 2.0,
    run_batch: Callable[[list[JobSpec]], BatchReport] | None = None,
) -> HwAnalysis:
    """Run the Figure 4 protocol over a repository (updates its hw bounds).

    ``run_batch`` executes each k's wave; the default is a fresh in-process
    engine with no store.  An engine with a store answers repeated sweeps
    from cache — including answers *implied* by its bounds index (a stored
    yes at k' ≤ k, or no at k' ≥ k, settles k without running anything) —
    and one with ``jobs > 1`` kills uncooperative searches at the hard
    timeout.
    """
    run_batch = run_batch or DecompositionEngine().run_batch
    analysis = HwAnalysis(max_k, timeout)
    pending: list[BenchmarkEntry] = list(repository)
    clean_no: dict[str, bool] = {entry.name: True for entry in pending}

    for k in range(1, max_k + 1):
        if not pending:
            break
        report = run_batch(
            [JobSpec.check(e.hypergraph, k, method="hd", timeout=timeout) for e in pending]
        )
        still_pending: list[BenchmarkEntry] = []
        for entry, result in zip(pending, report.results):
            cell = analysis.cell(entry.benchmark_class, k)
            if result.verdict == YES:
                cell.yes += 1
                cell.yes_seconds += result.seconds
                entry.hw_high = k
                if clean_no[entry.name]:
                    entry.hw_low = k
                elif entry.hw_low is None:
                    entry.hw_low = 1
                entry.ghw_high = k  # ghw <= hw
                if entry.ghw_low is None:
                    entry.ghw_low = 1
                # A journal-resumed result carries no live outcome, and a yes
                # implied by another method's rows (hw <= 3·ghw + 1, say) may
                # carry no HD: neither may erase a stored HD.
                if result.outcome is not None and result.outcome.decomposition is not None:
                    entry.extra["hd"] = result.outcome.decomposition
            elif result.verdict == NO:
                cell.no += 1
                cell.no_seconds += result.seconds
                if clean_no[entry.name]:
                    entry.hw_low = k + 1
                still_pending.append(entry)
            else:
                cell.timeout += 1
                clean_no[entry.name] = False
                still_pending.append(entry)
        pending = still_pending
    analysis.unresolved = [entry.name for entry in pending]
    for entry in pending:
        if entry.hw_low is None:
            entry.hw_low = 1
    return analysis
