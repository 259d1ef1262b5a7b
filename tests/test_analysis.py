"""Tests for the analysis drivers (Figure 4, Tables 3-6, Figure 5)."""

import pytest

from repro.analysis.correlation import METRICS, correlation_matrix
from repro.analysis.fractional_analysis import bucket, run_fractional_analysis
from repro.analysis.ghw_analysis import run_ghw_analysis
from repro.analysis.hw_analysis import run_hw_analysis
from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.repository import HyperBenchRepository
from repro.core.hypergraph import Hypergraph
from tests.conftest import clique_hypergraph, cycle_hypergraph


@pytest.fixture
def small_repo():
    repo = HyperBenchRepository("small")
    repo.add(
        Hypergraph({"a": ["1", "2"], "b": ["2", "3"]}, name="acyclic"),
        BenchmarkClass.CQ_APPLICATION,
    )
    repo.add(cycle_hypergraph(4), BenchmarkClass.CQ_APPLICATION)
    repo.add(clique_hypergraph(5), BenchmarkClass.CSP_RANDOM)  # hw = 3
    repo.add(clique_hypergraph(6), BenchmarkClass.CSP_RANDOM)  # hw = 3
    return repo


class TestHwAnalysis:
    def test_bounds_updated(self, small_repo):
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        assert small_repo.get("acyclic").hw_exact == 1
        assert small_repo.get("cycle4").hw_exact == 2
        assert small_repo.get("K5").hw_exact == 3
        assert small_repo.get("K6").hw_exact == 3

    def test_cells_track_counts(self, small_repo):
        analysis = run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        cq1 = analysis.cell(BenchmarkClass.CQ_APPLICATION, 1)
        assert cq1.yes == 1 and cq1.no == 1
        csp1 = analysis.cell(BenchmarkClass.CSP_RANDOM, 1)
        assert csp1.no == 2

    def test_hds_stored_for_fractional_study(self, small_repo):
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        assert small_repo.get("cycle4").extra["hd"] is not None

    def test_no_unresolved_with_generous_budget(self, small_repo):
        analysis = run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        assert analysis.unresolved == []

    def test_timeouts_recorded(self, small_repo):
        analysis = run_hw_analysis(small_repo, max_k=2, timeout=0.0)
        total_timeouts = sum(c.timeout for c in analysis.cells.values())
        assert total_timeouts > 0


class TestGhwAnalysis:
    def test_k5_ghw_equals_hw(self, small_repo):
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        analysis = run_ghw_analysis(small_repo, ks=(3,), timeout=10.0)
        assert analysis.totals[3] == 2
        entry = small_repo.get("K5")
        # ghw(K5) = 3 = hw: Check(GHD, 2) answers no, closing the gap.
        assert entry.ghw_exact == 3
        cell = analysis.portfolio_cell(3)
        assert cell.no == 2

    def test_algorithm_cells_populated(self, small_repo):
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        analysis = run_ghw_analysis(small_repo, ks=(3,), timeout=10.0)
        for name in ("GlobalBIP", "LocalBIP", "BalSep"):
            cell = analysis.algorithm_cell(name, 3)
            assert cell.yes + cell.no + cell.timeout == 2


class TestFractionalAnalysis:
    def test_buckets(self):
        assert bucket(1.2) == ">=1"
        assert bucket(0.7) == "[0.5,1)"
        assert bucket(0.3) == "[0.1,0.5)"
        assert bucket(0.01) == "no"

    def test_triangle_improves(self):
        repo = HyperBenchRepository()
        repo.add(
            Hypergraph(
                {"r": ["x", "y"], "s": ["y", "z"], "t": ["z", "x"]}, name="tri"
            ),
            BenchmarkClass.CQ_APPLICATION,
        )
        run_hw_analysis(repo, max_k=3, timeout=10.0)
        analysis = run_fractional_analysis(repo, timeout=10.0)
        # Triangle: hw 2 -> fhw 1.5, improvement 0.5.
        assert analysis.improve_hd[2].counts["[0.5,1)"] == 1
        assert analysis.frac_improve[2].counts["[0.5,1)"] == 1
        assert repo.get("tri").fhw_high == pytest.approx(1.5, abs=0.01)

    def test_acyclic_no_improvement(self, small_repo):
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        analysis = run_fractional_analysis(small_repo, hw_values=(1,), timeout=10.0)
        # Acyclic instances have fhw = hw = 1: no fractional improvement.
        assert analysis.improve_hd[1].counts["no"] == 1
        assert analysis.frac_improve[1].counts["no"] == 1


class TestCorrelation:
    def test_matrix_shape_and_diagonal(self, small_repo):
        small_repo.compute_all_statistics()
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        matrix = correlation_matrix(small_repo)
        assert len(matrix) == len(METRICS)
        assert all(len(row) == len(METRICS) for row in matrix)
        assert all(matrix[i][i] == 1.0 for i in range(len(METRICS)))

    def test_symmetric_and_bounded(self, small_repo):
        small_repo.compute_all_statistics()
        run_hw_analysis(small_repo, max_k=4, timeout=10.0)
        matrix = correlation_matrix(small_repo)
        n = len(METRICS)
        assert all(
            abs(matrix[i][j] - matrix[j][i]) < 1e-12 for i in range(n) for j in range(n)
        )
        assert all(-1.0 - 1e-9 <= v <= 1.0 + 1e-9 for row in matrix for v in row)

    def test_constant_column_gives_zero(self):
        repo = HyperBenchRepository()
        repo.add(cycle_hypergraph(4), BenchmarkClass.CQ_RANDOM)
        repo.add(cycle_hypergraph(5), BenchmarkClass.CQ_RANDOM)
        repo.compute_all_statistics()
        run_hw_analysis(repo, max_k=3, timeout=10.0)
        matrix = correlation_matrix(repo)
        hw_index = METRICS.index("HW")  # hw constant = 2 across entries
        vertices_index = METRICS.index("vertices")
        assert matrix[hw_index][vertices_index] == 0.0
