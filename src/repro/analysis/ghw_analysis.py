"""The GHD-algorithm comparison of Tables 3 and 4.

Protocol (Section 6.4): for every hypergraph with (upper bound on) hw equal
to k ∈ {3, 4, 5, 6}, try to solve ``Check(GHD, k−1)`` — i.e. improve the
width by one — with each of the three algorithms under a timeout.  Table 3
reports, per algorithm and per k, how many attempts terminated and their
average runtime, split into yes- and no-answers.  Table 4 reports the
portfolio verdict ("run all three in parallel, first answer wins").

Each k runs as one batch wave of portfolio jobs through a ``run_batch(specs)
-> BatchReport`` executor (see :mod:`repro.analysis.hw_analysis`); a job's
result carries the winning verdict (Table 4) and each algorithm's outcome
(Table 3).

Side effects on the repository: a definite "no" for ``Check(GHD, k−1)``
establishes ``ghw = hw = k`` *and* closes hw gaps (``hw ≥ k`` follows since
``hw ≥ ghw``) — the paper's gap-filling observation; a "yes" establishes
``ghw ≤ k − 1 < hw``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.benchmark.repository import BenchmarkEntry, HyperBenchRepository
from repro.decomp.driver import NO, YES, CheckOutcome
from repro.engine.engine import BatchReport, DecompositionEngine
from repro.engine.jobs import JobResult, JobSpec

__all__ = ["AlgorithmCell", "GhwAnalysis", "run_ghw_analysis"]


@dataclass
class AlgorithmCell:
    """Solved counts and times for one (algorithm, k) pair — Table 3 cells."""

    yes: int = 0
    no: int = 0
    timeout: int = 0
    yes_seconds: float = 0.0
    no_seconds: float = 0.0

    def record(self, outcome: CheckOutcome | JobResult) -> None:
        if outcome.verdict == YES:
            self.yes += 1
            self.yes_seconds += outcome.seconds
        elif outcome.verdict == NO:
            self.no += 1
            self.no_seconds += outcome.seconds
        else:
            self.timeout += 1

    @property
    def yes_avg(self) -> float:
        return self.yes_seconds / self.yes if self.yes else 0.0

    @property
    def no_avg(self) -> float:
        return self.no_seconds / self.no if self.no else 0.0


@dataclass
class GhwAnalysis:
    """Results of the Table 3 / Table 4 sweep."""

    ks: list[int]
    timeout: float | None
    totals: dict[int, int] = field(default_factory=dict)
    #: Table 3 cells keyed by (algorithm_name, k)
    algorithm_cells: dict[tuple[str, int], AlgorithmCell] = field(default_factory=dict)
    #: Table 4 cells keyed by k
    portfolio_cells: dict[int, AlgorithmCell] = field(default_factory=dict)

    def algorithm_cell(self, name: str, k: int) -> AlgorithmCell:
        key = (name, k)
        if key not in self.algorithm_cells:
            self.algorithm_cells[key] = AlgorithmCell()
        return self.algorithm_cells[key]

    def portfolio_cell(self, k: int) -> AlgorithmCell:
        if k not in self.portfolio_cells:
            self.portfolio_cells[k] = AlgorithmCell()
        return self.portfolio_cells[k]


def run_ghw_analysis(
    repository: HyperBenchRepository,
    ks: tuple[int, ...] = (3, 4, 5, 6),
    timeout: float | None = 2.0,
    run_batch: Callable[[list[JobSpec]], BatchReport] | None = None,
) -> GhwAnalysis:
    """Run the Table 3 / Table 4 protocol (requires hw bounds from Figure 4).

    ``run_batch`` executes each k's wave of races; the default is a fresh
    in-process engine with no store, which runs every algorithm in turn
    with the full budget.  With ``jobs > 1`` an engine runs the algorithms
    in parallel worker processes, each still with the full budget, so
    Table 3 reads the same at any ``jobs``.  A race whose
    verdict a store's bounds index already implies is skipped entirely;
    such replays contribute to Table 4 but, carrying no per-algorithm
    timings for this k, add nothing to Table 3.
    """
    run_batch = run_batch or DecompositionEngine().run_batch
    analysis = GhwAnalysis(list(ks), timeout)
    for k in ks:
        candidates: list[BenchmarkEntry] = [
            entry for entry in repository if entry.hw_high == k and k >= 2
        ]
        analysis.totals[k] = len(candidates)
        if not candidates:
            continue
        report = run_batch(
            [JobSpec.portfolio(e.hypergraph, k - 1, timeout=timeout) for e in candidates]
        )
        for entry, result in zip(candidates, report.results):
            for name, outcome in (result.per_algorithm or {}).items():
                analysis.algorithm_cell(name, k).record(outcome)
            analysis.portfolio_cell(k).record(result)
            if result.verdict == YES:
                entry.ghw_high = k - 1
            elif result.verdict == NO:
                # ghw > k-1 and ghw <= hw <= k, hence ghw = k; and since
                # hw >= ghw = k, the hw gap closes too (hw = k).
                entry.ghw_low = k
                entry.ghw_high = k
                entry.hw_low = k
    return analysis
