"""Tests for the per-table experiment drivers over one full study.

The study is a complete ``repro experiment`` run (corpus, statistics,
Figure 4 sweep, Tables 3/4 portfolio waves, Tables 5/6 fractional waves)
read back through :class:`~repro.experiment.ExperimentResults`.  Besides the
tables' structure, ``TestPaperShapes`` checks that each artefact has the
shape the paper reports for it.
"""

import pytest

from repro.analysis.correlation import METRICS, correlation_matrix
from repro.analysis.experiments import (
    figure3_sizes,
    figure4_hw,
    figure5_correlation,
    table1_overview,
    table2_properties,
    table3_ghw_algorithms,
    table4_ghw_portfolio,
    table5_improve_hd,
    table6_frac_improve,
)
from repro.analysis.fractional_analysis import BUCKETS
from repro.decomp.detkdecomp import check_hd
from repro.decomp.fractional import improve_hd
from repro.engine import DecompositionEngine, open_result_store
from repro.experiment import (
    ExperimentPaths,
    ExperimentResults,
    ExperimentRunner,
    default_manifest,
)

ALGORITHMS = ("GlobalBIP", "LocalBIP", "BalSep")


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    # A tiny but complete run of the whole Section 6 pipeline.
    paths = ExperimentPaths.at(tmp_path_factory.mktemp("study") / "exp")
    paths.root.mkdir(parents=True)
    manifest = default_manifest(scale=0.06, seed=7, timeout=1.0)
    with DecompositionEngine(store=open_result_store(paths.store)) as engine:
        ExperimentRunner(paths, engine, manifest=manifest).run()
    with ExperimentResults(paths, deterministic=False) as results:
        yield results.study


class TestStudyPipeline:
    def test_all_artefacts_present(self, study):
        expected = {
            "table1",
            "table2",
            "figure3",
            "figure4",
            "figure5",
            "table3",
            "table4",
            "table5",
            "table6",
        }
        assert set(study.results) == expected

    def test_render_all_contains_titles(self, study):
        text = study.render_all()
        assert "Table 1" in text
        assert "Figure 5" in text

    def test_table1_total_row(self, study):
        result = table1_overview(study.repository)
        assert result.rows[-1][0] == "Total"
        assert result.rows[-1][1] == len(study.repository)

    def test_table1_cyclic_at_most_total(self, study):
        result = table1_overview(study.repository)
        for row in result.rows:
            assert row[2] <= row[1]

    def test_table2_histogram_sums(self, study):
        result = table2_properties(study.repository)
        per_class: dict[str, int] = {}
        for row in result.rows:
            per_class[row[0]] = per_class.get(row[0], 0) + row[2]  # Deg column
        for name, total in per_class.items():
            assert total == study.repository.count(
                next(c for c in study.repository.classes() if str(c) == name)
            )

    def test_figure3_percentages_sum(self, study):
        result = figure3_sizes(study.repository)
        sums: dict[tuple[str, str], float] = {}
        for row in result.rows:
            sums[(row[0], row[1])] = sums.get((row[0], row[1]), 0.0) + row[4]
        for total in sums.values():
            assert total == pytest.approx(100.0, abs=0.5)

    def test_figure4_counts_match_repository(self, study):
        result = figure4_hw(study.hw)
        # Every instance appears exactly once at k=1.
        k1_total = sum(row[2] + row[4] + row[6] for row in result.rows if row[1] == 1)
        assert k1_total == len(study.repository)

    def test_figure5_has_all_metrics(self, study):
        result = figure5_correlation(study.repository)
        assert len(result.rows) == 9
        assert result.rows[0][1] == 1.0  # diagonal

    def test_table3_headers(self, study):
        result = table3_ghw_algorithms(study.ghw)
        assert "GlobalBIP yes" in result.headers
        assert "BalSep no" in result.headers

    def test_table4_consistency(self, study):
        result = table4_ghw_portfolio(study.ghw)
        assert len(result.rows) == len(study.ghw.ks)

    def test_tables_5_6_buckets(self, study):
        for result in (table5_improve_hd(study.fractional), table6_frac_improve(study.fractional)):
            assert result.headers == ["hw", ">=1", "[0.5,1)", "[0.1,0.5)", "no", "timeout"]

    def test_paper_shape_non_random_cqs_low_hw(self, study):
        """Goal 2 shape: CQ Application instances all have hw <= 3."""
        from repro.benchmark.classes import BenchmarkClass

        for entry in study.repository.entries(BenchmarkClass.CQ_APPLICATION):
            assert entry.hw_high is not None and entry.hw_high <= 3

    def test_paper_shape_hw_equals_ghw_mostly(self, study):
        """Section 6.4 shape: where both are exact, hw = ghw almost always."""
        solved = [
            e
            for e in study.repository
            if e.hw_exact is not None and e.ghw_exact is not None
        ]
        agreeing = [e for e in solved if e.hw_exact == e.ghw_exact]
        if solved:
            assert len(agreeing) / len(solved) >= 0.9


class TestRenderedTables:
    def test_every_result_renders(self, study):
        for result in study.results.values():
            text = result.rendered
            assert text.count("+-") >= 2  # has separators
            assert result.title in text


class TestPaperShapes:
    def test_table1_csp_random_cyclic_cq_application_not(self, study):
        result = table1_overview(study.repository)
        by_class = {row[0]: (row[1], row[2]) for row in result.rows}
        total, cyclic = by_class["CSP Random"]
        assert cyclic == total
        total, cyclic = by_class["CQ Application"]
        assert cyclic < total
        # Check(HD, 1) refutes exactly the instances the sweep found cyclic.
        refuted = sum(1 for e in study.repository if check_hd(e.hypergraph, 1) is None)
        assert refuted == result.rows[-1][2]

    def test_table2_application_bip_low_random_degree_high(self, study):
        rows = table2_properties(study.repository).rows
        app = [r for r in rows if r[0] == "CSP Application"]
        assert sum(r[3] for r in app if r[1] in ("0", "1", "2")) == sum(r[3] for r in app)
        degree = {r[1]: r[2] for r in rows if r[0] == "CSP Random"}
        assert degree[">5"] >= sum(degree.values()) / 2

    def test_figure3_small_cqs_low_arity(self, study):
        rows = figure3_sizes(study.repository).rows
        cq_edges = [r for r in rows if r[0] == "CQ Application" and r[1] == "edges"]
        assert sum(r[3] for r in cq_edges if r[2] == "1-10") >= sum(r[3] for r in cq_edges) / 2
        arity = [r for r in rows if r[1] == "arity"]
        assert sum(r[3] for r in arity if r[2] == "1-5") >= sum(r[3] for r in arity) / 2

    def test_figure4_cqs_resolve_early_csps_need_larger_k(self, study):
        rows = figure4_hw(study.hw).rows
        assert max(r[1] for r in rows if r[0] == "CQ Application") <= 3
        assert max(r[1] for r in rows if r[0].startswith("CSP")) >= 3
        csp_random_k1 = [r for r in rows if r[0] == "CSP Random" and r[1] == 1]
        assert csp_random_k1 and csp_random_k1[0][2] == 0

    def test_figure5_intersection_metrics_correlate(self, study):
        matrix = correlation_matrix(study.repository)
        assert matrix[METRICS.index("bip")][METRICS.index("3-BMIP")] >= 0.5

    def test_table3_balsep_refutes_most(self, study):
        refuted = {
            name: sum(
                cell.no
                for (algorithm, _k), cell in study.ghw.algorithm_cells.items()
                if algorithm == name
            )
            for name in ALGORITHMS
        }
        assert refuted["BalSep"] >= refuted["GlobalBIP"]
        assert refuted["BalSep"] >= refuted["LocalBIP"]

    def test_table4_no_dominates_and_portfolio_answers_most(self, study):
        cells = study.ghw.portfolio_cells.values()
        yes = sum(c.yes for c in cells)
        no = sum(c.no for c in cells)
        assert no >= yes
        for name in ALGORITHMS:
            solo = sum(
                cell.yes + cell.no
                for (algorithm, _k), cell in study.ghw.algorithm_cells.items()
                if algorithm == name
            )
            assert yes + no >= solo, name

    def test_table5_improve_hd_never_times_out_or_widens(self, study):
        stored = [e.extra["hd"] for e in study.repository if e.extra.get("hd") is not None]
        assert stored
        for hd in stored:
            assert improve_hd(hd).width <= hd.width + 1e-9
        assert all(c.counts["timeout"] == 0 for c in study.fractional.improve_hd.values())

    def test_table6_frac_improve_finds_at_least_improve_hd(self, study):
        def improved(cells):
            return sum(c.counts[">=1"] + c.counts["[0.5,1)"] for c in cells.values())

        frac = study.fractional.frac_improve
        timeouts = sum(c.counts["timeout"] for c in frac.values())
        assert improved(frac) + timeouts >= improved(study.fractional.improve_hd)
        for cell in frac.values():
            assert sum(cell.counts[b] for b in BUCKETS) >= 1
