"""One driver per table/figure of the paper's evaluation section.

Every ``table*``/``figure*`` function returns an :class:`ExperimentResult`
holding structured rows plus a rendered ASCII table in the paper's layout.
:func:`assemble_study` builds all of them from finished analyses; the study
itself runs as a ``repro experiment`` (:mod:`repro.experiment`), whose
:class:`~repro.experiment.results.ExperimentResults` replays the analyses
from the experiment's store and hands them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.correlation import METRICS, correlation_matrix
from repro.analysis.fractional_analysis import BUCKETS, FractionalAnalysis
from repro.analysis.ghw_analysis import GhwAnalysis
from repro.analysis.hw_analysis import HwAnalysis
from repro.benchmark.classes import CLASS_NAMES
from repro.benchmark.repository import HyperBenchRepository
from repro.utils.tables import render_table

__all__ = [
    "CANONICAL_ORDER",
    "ExperimentResult",
    "StudyResult",
    "assemble_study",
    "table1_overview",
    "table2_properties",
    "figure3_sizes",
    "figure4_hw",
    "figure5_correlation",
    "table3_ghw_algorithms",
    "table4_ghw_portfolio",
    "table5_improve_hd",
    "table6_frac_improve",
    "edge_clique_cover_candidates",
]


@dataclass
class ExperimentResult:
    """Structured rows plus the rendered table for one paper artefact."""

    experiment_id: str
    headers: list[str]
    rows: list[list[object]]
    title: str

    @property
    def rendered(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)

    def __str__(self) -> str:
        return self.rendered


# --------------------------------------------------------------------- helpers

_PROPERTY_LEVELS = ["0", "1", "2", "3", "4", "5", ">5"]


def _level(value: int) -> str:
    return str(value) if value <= 5 else ">5"


def _size_bucket(value: int) -> str:
    if value <= 10:
        return "1-10"
    if value <= 20:
        return "11-20"
    if value <= 30:
        return "21-30"
    if value <= 40:
        return "31-40"
    if value <= 50:
        return "41-50"
    return ">50"


def _arity_bucket(value: int) -> str:
    if value <= 5:
        return "1-5"
    if value <= 10:
        return "6-10"
    if value <= 15:
        return "11-15"
    if value <= 20:
        return "16-20"
    return ">20"


_SIZE_BUCKETS = ["1-10", "11-20", "21-30", "31-40", "41-50", ">50"]
_ARITY_BUCKETS = ["1-5", "6-10", "11-15", "16-20", ">20"]


# ------------------------------------------------------------------ Table 1


def table1_overview(repository: HyperBenchRepository) -> ExperimentResult:
    """Table 1: instance counts and number of cyclic (hw ≥ 2) instances."""
    rows: list[list[object]] = []
    total = 0
    total_cyclic = 0
    for benchmark_class in CLASS_NAMES:
        entries = repository.entries(benchmark_class)
        if not entries:
            continue
        cyclic = sum(1 for e in entries if e.is_cyclic)
        rows.append([str(benchmark_class), len(entries), cyclic])
        total += len(entries)
        total_cyclic += cyclic
    rows.append(["Total", total, total_cyclic])
    return ExperimentResult(
        "table1",
        ["Benchmark", "No. instances", "hw >= 2"],
        rows,
        "Table 1: Overview of benchmark instances",
    )


# ------------------------------------------------------------------ Table 2


def table2_properties(repository: HyperBenchRepository) -> ExperimentResult:
    """Table 2: Deg/BIP/3-BMIP/4-BMIP/VC-dim histograms per class."""
    rows: list[list[object]] = []
    for benchmark_class in CLASS_NAMES:
        entries = [
            e for e in repository.entries(benchmark_class) if e.statistics
        ]
        if not entries:
            continue
        histograms: dict[str, dict[str, int]] = {
            metric: {level: 0 for level in _PROPERTY_LEVELS}
            for metric in ("Deg", "BIP", "3-BMIP", "4-BMIP", "VC-dim")
        }
        for entry in entries:
            stats = entry.statistics
            histograms["Deg"][_level(stats.degree)] += 1
            histograms["BIP"][_level(stats.bip)] += 1
            histograms["3-BMIP"][_level(stats.bmip3)] += 1
            histograms["4-BMIP"][_level(stats.bmip4)] += 1
            histograms["VC-dim"][_level(stats.vc_dim)] += 1
        for level in _PROPERTY_LEVELS:
            rows.append(
                [
                    str(benchmark_class),
                    level,
                    histograms["Deg"][level],
                    histograms["BIP"][level],
                    histograms["3-BMIP"][level],
                    histograms["4-BMIP"][level],
                    histograms["VC-dim"][level],
                ]
            )
    return ExperimentResult(
        "table2",
        ["Class", "i", "Deg", "BIP", "3-BMIP", "4-BMIP", "VC-dim"],
        rows,
        "Table 2: Properties of all benchmark instances",
    )


# ----------------------------------------------------------------- Figure 3


def figure3_sizes(repository: HyperBenchRepository) -> ExperimentResult:
    """Figure 3: vertex/edge/arity size distributions per class (percent)."""
    rows: list[list[object]] = []
    for benchmark_class in CLASS_NAMES:
        entries = repository.entries(benchmark_class)
        if not entries:
            continue
        n = len(entries)
        vertex_hist = {b: 0 for b in _SIZE_BUCKETS}
        edge_hist = {b: 0 for b in _SIZE_BUCKETS}
        arity_hist = {b: 0 for b in _ARITY_BUCKETS}
        for entry in entries:
            h = entry.hypergraph
            vertex_hist[_size_bucket(h.num_vertices)] += 1
            edge_hist[_size_bucket(h.num_edges)] += 1
            arity_hist[_arity_bucket(h.arity)] += 1
        for buckets, hist, metric in (
            (_SIZE_BUCKETS, vertex_hist, "vertices"),
            (_SIZE_BUCKETS, edge_hist, "edges"),
            (_ARITY_BUCKETS, arity_hist, "arity"),
        ):
            for bucket_name in buckets:
                if hist[bucket_name]:
                    rows.append(
                        [
                            str(benchmark_class),
                            metric,
                            bucket_name,
                            hist[bucket_name],
                            round(100.0 * hist[bucket_name] / n, 1),
                        ]
                    )
    return ExperimentResult(
        "figure3",
        ["Class", "Metric", "Bucket", "Count", "%"],
        rows,
        "Figure 3: Hypergraph sizes",
    )


# ----------------------------------------------------------------- Figure 4


def figure4_hw(analysis: HwAnalysis) -> ExperimentResult:
    """Figure 4: yes/no/timeout counts with average runtimes per class, k."""
    rows: list[list[object]] = []
    for benchmark_class in CLASS_NAMES:
        for k in analysis.ks_for(benchmark_class):
            cell = analysis.cell(benchmark_class, k)
            if cell.yes == cell.no == cell.timeout == 0:
                continue
            rows.append(
                [
                    str(benchmark_class),
                    k,
                    cell.yes,
                    round(cell.yes_avg, 3),
                    cell.no,
                    round(cell.no_avg, 3),
                    cell.timeout,
                ]
            )
    return ExperimentResult(
        "figure4",
        ["Class", "k", "yes", "yes avg (s)", "no", "no avg (s)", "timeout"],
        rows,
        "Figure 4: HW analysis (avg. runtimes in s)",
    )


# ----------------------------------------------------------------- Figure 5


def figure5_correlation(repository: HyperBenchRepository) -> ExperimentResult:
    """Figure 5: pairwise Pearson correlations of the nine metrics."""
    matrix = correlation_matrix(repository)
    rows: list[list[object]] = []
    for i, metric in enumerate(METRICS):
        rows.append([metric] + [round(float(v), 2) for v in matrix[i]])
    return ExperimentResult(
        "figure5",
        ["", *METRICS],
        rows,
        "Figure 5: Correlation analysis (Pearson)",
    )


# ------------------------------------------------------------------ Table 3


def table3_ghw_algorithms(analysis: GhwAnalysis) -> ExperimentResult:
    """Table 3: per-algorithm solved counts (yes/no) with average runtimes."""
    rows: list[list[object]] = []
    algorithms = sorted({name for name, _k in analysis.algorithm_cells})
    for k in analysis.ks:
        row: list[object] = [f"{k} -> {k - 1}", analysis.totals.get(k, 0)]
        for name in ("GlobalBIP", "LocalBIP", "BalSep"):
            if name not in algorithms:
                continue
            cell = analysis.algorithm_cell(name, k)
            row.append(f"{cell.yes} ({cell.yes_avg:.2f}s)" if cell.yes else "-")
            row.append(f"{cell.no} ({cell.no_avg:.2f}s)" if cell.no else "-")
        rows.append(row)
    headers = ["hw -> ghw", "Total"]
    for name in ("GlobalBIP", "LocalBIP", "BalSep"):
        if name in algorithms:
            headers.extend([f"{name} yes", f"{name} no"])
    return ExperimentResult(
        "table3",
        headers,
        rows,
        "Table 3: GHW algorithms with avg. runtimes in s",
    )


# ------------------------------------------------------------------ Table 4


def table4_ghw_portfolio(analysis: GhwAnalysis) -> ExperimentResult:
    """Table 4: the parallel-portfolio verdicts per k."""
    rows: list[list[object]] = []
    for k in analysis.ks:
        cell = analysis.portfolio_cell(k)
        rows.append(
            [
                f"{k} -> {k - 1}",
                f"{cell.yes} ({cell.yes_avg:.2f}s)" if cell.yes else "0",
                f"{cell.no} ({cell.no_avg:.2f}s)" if cell.no else "0",
                cell.timeout,
            ]
        )
    return ExperimentResult(
        "table4",
        ["hw -> ghw", "yes", "no", "timeout"],
        rows,
        "Table 4: GHW of instances with average runtime in s",
    )


# -------------------------------------------------------------- Tables 5, 6


def _improvement_table(
    cells: dict[int, object], experiment_id: str, title: str
) -> ExperimentResult:
    rows: list[list[object]] = []
    for k in sorted(cells):
        rows.append([k] + list(cells[k].as_row()))
    return ExperimentResult(
        experiment_id,
        ["hw", *BUCKETS],
        rows,
        title,
    )


def table5_improve_hd(analysis: FractionalAnalysis) -> ExperimentResult:
    """Table 5: width improvements achieved by ImproveHD."""
    return _improvement_table(
        analysis.improve_hd, "table5", "Table 5: Instances solved with ImproveHD"
    )


def table6_frac_improve(analysis: FractionalAnalysis) -> ExperimentResult:
    """Table 6: width improvements achieved by FracImproveHD."""
    return _improvement_table(
        analysis.frac_improve, "table6", "Table 6: Instances solved with FracImproveHD"
    )


# --------------------------------------------------- related-work extras


def edge_clique_cover_candidates(repository: HyperBenchRepository) -> ExperimentResult:
    """Instances with more vertices than edges (related work, Section 2).

    Korhonen's FPT algorithms parameterised by edge clique cover size apply
    to CSPs with n > m, since the constraint scopes form an edge clique
    cover of the primal graph; the paper reports HyperBench verified this
    happens "in circa 23% of the instances".  We report the same fraction
    per class on the synthetic benchmark.
    """
    rows: list[list[object]] = []
    total = 0
    total_hits = 0
    for benchmark_class in CLASS_NAMES:
        entries = repository.entries(benchmark_class)
        if not entries:
            continue
        hits = sum(
            1 for e in entries if e.hypergraph.num_vertices > e.hypergraph.num_edges
        )
        rows.append(
            [
                str(benchmark_class),
                len(entries),
                hits,
                round(100.0 * hits / len(entries), 1),
            ]
        )
        total += len(entries)
        total_hits += hits
    rows.append(
        ["Total", total, total_hits, round(100.0 * total_hits / total, 1) if total else 0.0]
    )
    return ExperimentResult(
        "ecc",
        ["Class", "instances", "n > m", "%"],
        rows,
        "Extra: edge-clique-cover candidates (n > m, cf. Korhonen 2019)",
    )


# ------------------------------------------------------------------- studies


#: Canonical rendering order of the paper's artefacts (Sections 6.1–6.5).
CANONICAL_ORDER = (
    "table1",
    "table2",
    "figure3",
    "figure4",
    "figure5",
    "table3",
    "table4",
    "table5",
    "table6",
)


@dataclass
class StudyResult:
    """Everything the full evaluation produces, ready for rendering."""

    repository: HyperBenchRepository
    hw: HwAnalysis
    ghw: GhwAnalysis
    fractional: FractionalAnalysis
    results: dict[str, ExperimentResult] = field(default_factory=dict)

    def render_all(self) -> str:
        """Render the artefacts that exist: canonical order, then extras.

        A study holding only a subset (a partial experiment, or extras like
        ``edge_clique_cover_candidates``) renders what it has instead of
        raising ``KeyError``.
        """
        keys = [key for key in CANONICAL_ORDER if key in self.results]
        keys += [key for key in sorted(self.results) if key not in CANONICAL_ORDER]
        return "\n\n".join(self.results[key].rendered for key in keys)


def assemble_study(
    repository: HyperBenchRepository,
    hw: HwAnalysis,
    ghw: GhwAnalysis,
    fractional: FractionalAnalysis,
) -> StudyResult:
    """Build every paper artefact from finished analyses (the experiment
    pipeline's results view passes its store-replayed ones)."""
    study = StudyResult(repository, hw, ghw, fractional)
    study.results["table1"] = table1_overview(repository)
    study.results["table2"] = table2_properties(repository)
    study.results["figure3"] = figure3_sizes(repository)
    study.results["figure4"] = figure4_hw(hw)
    study.results["figure5"] = figure5_correlation(repository)
    study.results["table3"] = table3_ghw_algorithms(ghw)
    study.results["table4"] = table4_ghw_portfolio(ghw)
    study.results["table5"] = table5_improve_hd(fractional)
    study.results["table6"] = table6_frac_improve(fractional)
    return study
