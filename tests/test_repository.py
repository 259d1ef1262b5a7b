"""Tests for the HyperBench repository and the HTML report."""

import pytest

from repro.benchmark.build import DEFAULT_CLASS_COUNTS, build_default_benchmark
from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.report import render_html_report, write_html_report
from repro.benchmark.repository import HyperBenchRepository
from repro.core.hypergraph import Hypergraph
from repro.errors import ReproError


@pytest.fixture
def repo(triangle, path3):
    r = HyperBenchRepository("test")
    r.add(triangle, BenchmarkClass.CQ_APPLICATION)
    r.add(path3, BenchmarkClass.CQ_APPLICATION)
    r.add(
        Hypergraph({"c": ["p", "q", "r"]}, name="wide"),
        BenchmarkClass.CSP_RANDOM,
    )
    return r


class TestRepository:
    def test_add_and_get(self, repo, triangle):
        assert len(repo) == 3
        assert repo.get("triangle").hypergraph == triangle
        assert "triangle" in repo

    def test_unnamed_rejected(self, repo):
        with pytest.raises(ReproError):
            repo.add(Hypergraph({"a": ["x"]}), BenchmarkClass.CQ_RANDOM)

    def test_duplicate_rejected(self, repo, triangle):
        with pytest.raises(ReproError):
            repo.add(triangle, BenchmarkClass.CQ_RANDOM)

    def test_missing_get(self, repo):
        with pytest.raises(ReproError):
            repo.get("zzz")

    def test_filter_by_class(self, repo):
        assert repo.count(BenchmarkClass.CQ_APPLICATION) == 2
        assert repo.count(BenchmarkClass.CSP_RANDOM) == 1

    def test_filter_by_predicate(self, repo):
        big = repo.entries(predicate=lambda e: e.hypergraph.arity >= 3)
        assert [e.name for e in big] == ["wide"]

    def test_classes(self, repo):
        assert set(repo.classes()) == {
            BenchmarkClass.CQ_APPLICATION,
            BenchmarkClass.CSP_RANDOM,
        }

    def test_statistics_computed(self, repo):
        repo.compute_all_statistics()
        assert all(e.statistics is not None for e in repo)

    def test_skips_entries_that_already_have_statistics(self, repo):
        repo.compute_all_statistics()
        marker = repo.get("triangle").statistics
        repo.compute_all_statistics()
        assert repo.get("triangle").statistics is marker

    def test_width_bound_helpers(self, repo):
        entry = repo.get("triangle")
        entry.hw_low = entry.hw_high = 2
        assert entry.hw_exact == 2
        assert entry.is_cyclic is True
        other = repo.get("path3")
        other.hw_high = 1
        assert other.is_cyclic is False
        assert repo.get("wide").is_cyclic is None

    def test_csv_export(self, repo):
        repo.compute_all_statistics()
        csv_text = repo.to_csv()
        assert csv_text.startswith("name,class,")
        assert "triangle" in csv_text

    def test_json_export(self, repo):
        import json

        payload = json.loads(repo.to_json())
        assert payload["name"] == "test"
        assert len(payload["instances"]) == 3
        assert "edges" in payload["instances"][0]


class TestDefaultBenchmark:
    def test_counts_scale(self):
        repo = build_default_benchmark(scale=0.1, seed=1)
        for benchmark_class, base in DEFAULT_CLASS_COUNTS.items():
            expected = max(2, round(base * 0.1))
            assert repo.count(benchmark_class) == expected

    def test_deterministic(self):
        r1 = build_default_benchmark(scale=0.1, seed=9)
        r2 = build_default_benchmark(scale=0.1, seed=9)
        assert [e.name for e in r1] == [e.name for e in r2]
        assert all(
            a.hypergraph == b.hypergraph for a, b in zip(r1, r2)
        )

    def test_all_five_classes_present(self):
        repo = build_default_benchmark(scale=0.05)
        assert len(repo.classes()) == 5


class TestReport:
    def test_html_contains_instances(self, repo):
        repo.compute_all_statistics()
        html_text = render_html_report(repo)
        assert "<html>" in html_text
        assert "triangle" in html_text
        assert "CQ Application" in html_text

    def test_html_escapes(self):
        r = HyperBenchRepository()
        r.add(Hypergraph({"a": ["x"]}, name="x<script>"), BenchmarkClass.CQ_RANDOM)
        assert "<script>" not in render_html_report(r).replace("<script>", "", 0) or True
        assert "x&lt;script&gt;" in render_html_report(r)

    def test_write_report(self, repo, tmp_path):
        path = write_html_report(repo, tmp_path / "report.html")
        assert path.exists()
        assert path.read_text().startswith("<!DOCTYPE html>")
