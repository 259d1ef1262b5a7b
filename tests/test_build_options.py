"""Tests for SQL-pipeline CQs in a corpus (the manifest's ``sql`` family)."""

from repro.benchmark import BenchmarkClass
from repro.experiment import CorpusSection, Manifest, build_corpus


def _sql_corpus(count: int):
    return build_corpus(Manifest(sections=[CorpusSection("sql", count)]))


class TestSqlFamily:
    def test_sql_instances_are_cq_application(self):
        corpus = _sql_corpus(5)
        assert len(corpus) == 5
        assert corpus.count(BenchmarkClass.CQ_APPLICATION) == 5

    def test_sql_instance_names_deterministic(self):
        assert [e.name for e in _sql_corpus(4)] == [e.name for e in _sql_corpus(4)]

    def test_sql_instances_analysable(self):
        from repro.decomp.detkdecomp import check_hd

        corpus = _sql_corpus(3)
        assert [e.name.startswith("cq_sql_") for e in corpus] == [True] * 3
        for entry in corpus:
            assert check_hd(entry.hypergraph, 3) is not None
