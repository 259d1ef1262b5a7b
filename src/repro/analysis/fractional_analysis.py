"""The fractional-improvement study of Tables 5 and 6.

For every hypergraph with a known HD of width ≤ k (stored by the Figure 4
sweep), two questions are asked:

* ``ImproveHD`` (Table 5): replacing the integral covers of *that* HD by
  fractional ones, by how much does the width drop?
* ``FracImproveHD`` (Table 6): searching over all HDs of width ≤ k, what is
  the best fractional width reachable?

Improvements ``c = k − fractional_width`` are bucketed exactly like the
paper's columns: ``c ≥ 1``, ``c ∈ [0.5, 1)``, ``c ∈ [0.1, 0.5)``, "no"
(c < 0.1) and timeouts.

Table 6 runs as one batch wave of ``fracimprove`` check jobs, one per
instance whose hw is among the studied values, through a ``run_batch(specs)
-> BatchReport`` executor (see :mod:`repro.analysis.hw_analysis`): the
experiment runner's journalled one, or the results view's store replay.
A store implies no "yes" for ``fracimprove``: Table 6 reports the best
width reachable *at this k*, which a smaller k's FHD may understate.
Table 5 is polynomial and deterministic, so it is computed in-process from
the stashed HDs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.benchmark.repository import BenchmarkEntry, HyperBenchRepository
from repro.decomp.driver import NO, TIMEOUT
from repro.decomp.fractional import FRACTIONAL_TOLERANCE, improve_hd
from repro.engine.engine import BatchReport, DecompositionEngine
from repro.engine.jobs import JobResult, JobSpec

__all__ = [
    "ImprovementCell",
    "FractionalAnalysis",
    "run_fractional_analysis",
    "bucket",
]

BUCKETS = (">=1", "[0.5,1)", "[0.1,0.5)", "no", "timeout")

#: Store method key for cached ``FracImproveHD`` verdicts — the name the
#: :mod:`repro.engine.methods` registry declares for the Table 6 method
#: (registered there with ``kind="fhw"`` but ``decision_kind="hw"``: its
#: verdicts are exactly ``Check(HD, k)``'s and propagate as hw evidence).
FRAC_METHOD = "fracimprove"


def bucket(improvement: float) -> str:
    """Map an improvement ``c = k − width`` to the paper's column label.

    Each edge is compared with :data:`FRACTIONAL_TOLERANCE` of slack, the
    slack FracImproveHD's own ``weight <= k' + tol`` test grants, so a width
    an ulp above ``k − edge`` (``2 − 1.5000000000000002``) still lands on
    the edge's side.
    """
    if improvement >= 1.0 - FRACTIONAL_TOLERANCE:
        return ">=1"
    if improvement >= 0.5 - FRACTIONAL_TOLERANCE:
        return "[0.5,1)"
    if improvement >= 0.1 - FRACTIONAL_TOLERANCE:
        return "[0.1,0.5)"
    return "no"


@dataclass
class ImprovementCell:
    """One row of Table 5 / Table 6 (per starting hw)."""

    counts: dict[str, int] = field(default_factory=lambda: {b: 0 for b in BUCKETS})

    def record(self, label: str) -> None:
        self.counts[label] += 1

    def as_row(self) -> list[int]:
        return [self.counts[b] for b in BUCKETS]


@dataclass
class FractionalAnalysis:
    """Results of the Tables 5/6 sweep."""

    improve_hd: dict[int, ImprovementCell] = field(default_factory=dict)
    frac_improve: dict[int, ImprovementCell] = field(default_factory=dict)

    def cell(self, table: str, k: int) -> ImprovementCell:
        target = self.improve_hd if table == "improve" else self.frac_improve
        if k not in target:
            target[k] = ImprovementCell()
        return target[k]


def _record_frac(
    analysis: FractionalAnalysis,
    entry: BenchmarkEntry,
    k: int,
    result: JobResult,
) -> None:
    """Book one Table 6 answer (executed or store-replayed)."""
    if result.verdict == TIMEOUT:
        analysis.cell("frac", k).record("timeout")
        return
    # a journal-resumed or queue-run job carries no live outcome
    fhd = result.outcome.decomposition if result.outcome is not None else None
    if result.verdict == NO or fhd is None:
        analysis.cell("frac", k).record("no")
        return
    analysis.cell("frac", k).record(bucket(k - fhd.width))
    entry.fhw_high = min(entry.fhw_high or float(k), fhd.width)


def run_fractional_analysis(
    repository: HyperBenchRepository,
    hw_values: tuple[int, ...] = (2, 3, 4, 5, 6),
    timeout: float | None = 2.0,
    run_batch: Callable[[list[JobSpec]], BatchReport] | None = None,
) -> FractionalAnalysis:
    """Run both improvement algorithms over the instances with a known HD.

    ``run_batch`` executes the Table 6 wave, one ``fracimprove`` check at
    each instance's hw; the default is a fresh in-process engine with no
    store.  The tables are filled over the instances whose HD the Figure 4
    sweep stashed in ``entry.extra["hd"]``.
    """
    run_batch = run_batch or DecompositionEngine().run_batch
    analysis = FractionalAnalysis()
    entries = [e for e in repository if e.hw_high in hw_values]
    if not entries:
        return analysis
    report = run_batch(
        [
            JobSpec.check(e.hypergraph, e.hw_high, method=FRAC_METHOD, timeout=timeout)
            for e in entries
        ]
    )
    for entry, result in zip(entries, report.results):
        hd = entry.extra.get("hd")
        if hd is None:
            continue
        k = entry.hw_high
        # Table 5: ImproveHD on the stored decomposition (poly-time; the
        # paper reports zero timeouts for it).
        fhd = improve_hd(hd)
        analysis.cell("improve", k).record(bucket(k - fhd.width))
        entry.fhw_high = min(entry.fhw_high or float(k), fhd.width)
        _record_frac(analysis, entry, k, result)
    return analysis
