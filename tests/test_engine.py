"""Tests for the ``repro.engine`` subsystem.

Covers fingerprint stability, result-store round-trips and accounting,
hard-timeout worker behaviour, batch resume from a (truncated) journal, and
cross-checks of the engine-backed paths against the in-process drivers.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.cli import main
from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import NO, TIMEOUT, YES, CheckOutcome, exact_width, ghd_portfolio
from repro.decomp.detkdecomp import check_hd
from repro.engine import (
    DecompositionEngine,
    JobSpec,
    Journal,
    ResultStore,
    canonical_form,
    fingerprint,
    map_checks,
    race_checks,
    register_method,
    run_checked,
    structural_fingerprint,
)
from repro.benchmark import build
from repro.benchmark.build import build_default_benchmark
from repro.benchmark.classes import BenchmarkClass
from repro.errors import ReproError
from repro.io.json_io import decomposition_from_json, decomposition_to_json
from tests.conftest import cycle_hypergraph, random_hypergraph


def _spin_forever(hypergraph, k, deadline):
    """A check function that ignores its cooperative deadline entirely."""
    while True:
        pass


def _crash(hypergraph, k, deadline):
    """A check function whose worker dies without reporting."""
    raise SystemExit(17)


register_method("spin", _spin_forever)
register_method("crash", _crash)


def _generator_bug(count, seed):
    raise ValueError("generator bug")


def _generator_crash(count, seed):
    os._exit(29)


# ----------------------------------------------------------------- fingerprint


class TestFingerprint:
    def test_stable_under_edge_and_vertex_reordering(self, triangle):
        reordered = Hypergraph(
            {"t": ["x", "z"], "s": ["z", "y"], "r": ["y", "x"]}, name="other-name"
        )
        assert fingerprint(triangle) == fingerprint(reordered)
        assert canonical_form(triangle) == canonical_form(reordered)

    def test_instance_name_is_excluded(self, triangle):
        renamed = Hypergraph(triangle.edges, name="copy")
        assert fingerprint(triangle) == fingerprint(renamed)

    def test_different_graphs_differ(self, triangle, path3, star):
        prints = {fingerprint(h) for h in (triangle, path3, star)}
        assert len(prints) == 3

    def test_edge_names_are_significant(self, triangle):
        # λ-labels refer to edges by name, so renamed edges must not share
        # cached decompositions.
        renamed_edges = Hypergraph(
            {"a": ["x", "y"], "b": ["y", "z"], "c": ["z", "x"]}
        )
        assert fingerprint(triangle) != fingerprint(renamed_edges)

    def test_structural_fingerprint_survives_renaming(self, triangle):
        renamed = Hypergraph({"a": ["p", "q"], "b": ["q", "w"], "c": ["w", "p"]})
        assert structural_fingerprint(triangle) == structural_fingerprint(renamed)

    def test_structural_fingerprint_separates_graphs(self, triangle, path3):
        assert structural_fingerprint(triangle) != structural_fingerprint(path3)
        assert structural_fingerprint(cycle_hypergraph(4)) != structural_fingerprint(
            cycle_hypergraph(6)
        )

    def test_random_graphs_rarely_collide(self):
        graphs = [random_hypergraph(seed) for seed in range(30)]
        forms = {canonical_form(g) for g in graphs}
        prints = {fingerprint(g) for g in graphs}
        assert len(prints) == len(forms)


# ----------------------------------------------------------------------- store


class TestResultStore:
    def test_round_trip_with_decomposition(self, triangle):
        outcome = CheckOutcome(YES, 0.5, check_hd(triangle, 2))
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 10.0, outcome)
            stored = store.get(fp, "hd", 2, 10.0)
            assert stored is not None
            rebuilt = stored.outcome(triangle)
        assert rebuilt.verdict == YES
        assert rebuilt.seconds == 0.5
        rebuilt.decomposition.validate()
        assert rebuilt.decomposition.integral_width == 2

    def test_hit_miss_accounting(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            assert store.get(fp, "hd", 1, None) is None
            store.put(fp, "hd", 1, None, CheckOutcome(NO, 0.1))
            assert store.get(fp, "hd", 1, None) is not None
            stats = store.stats
            assert (stats.hits, stats.misses) == (1, 1)
            assert (stats.session_hits, stats.session_misses) == (1, 1)
            assert stats.entries == 1

    def test_definite_answers_are_timeout_independent(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 60.0, CheckOutcome(YES, 0.2, check_hd(triangle, 2)))
            stored = store.get(fp, "hd", 2, 1.0)  # different budget
            assert stored is not None and stored.verdict == YES

    def test_timeouts_only_replay_for_their_budget(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 1.0, CheckOutcome(TIMEOUT, 1.0))
            assert store.get(fp, "hd", 2, 5.0) is None
            assert store.get(fp, "hd", 2, 1.0) is not None

    def test_lru_eviction(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore(max_entries=3) as store:
            for k in range(1, 6):
                store.put(fp, "hd", k, None, CheckOutcome(NO, 0.1))
            assert len(store) == 3

    def test_clear_and_persistence(self, tmp_path, triangle):
        path = tmp_path / "results.db"
        fp = fingerprint(triangle)
        with ResultStore(path) as store:
            store.put(fp, "hd", 2, None, CheckOutcome(NO, 0.1))
        with ResultStore(path) as store:
            assert store.get(fp, "hd", 2, None) is not None
            assert store.methods() == {"hd": 1}
            store.clear()
            assert len(store) == 0


class TestDecompositionJson:
    @pytest.mark.parametrize(
        "bad",
        [
            '{"root": {"bag": ["A"], "cover": ["e1"]}}',  # cover not a mapping
            '{"root": {"bag": 5, "cover": {}}}',  # bag not iterable
            '{"root": {"bag": ["A"], "cover": {"e": "x"}}}',  # weight not numeric
            '{"root": {"cover": {}}}',  # missing bag
            '{"kind": "XXX", "root": {"bag": [], "cover": {}}}',  # bad kind
        ],
    )
    def test_malformed_payloads_raise_parse_error(self, triangle, bad):
        from repro.errors import ParseError

        with pytest.raises(ParseError):
            decomposition_from_json(bad, triangle)

    def test_round_trip(self, triangle):
        decomposition = check_hd(triangle, 2)
        text = decomposition_to_json(decomposition)
        rebuilt = decomposition_from_json(text, triangle)
        rebuilt.validate()
        assert rebuilt.kind == decomposition.kind
        assert rebuilt.width == decomposition.width
        assert sorted(map(sorted, rebuilt.bags())) == sorted(
            map(sorted, decomposition.bags())
        )


# --------------------------------------------------------------------- workers


class TestWorkers:
    def test_hard_timeout_kills_uncooperative_checks(self, triangle):
        outcome = run_checked("spin", triangle, 2, timeout=0.2, grace=0.2)
        assert outcome.verdict == TIMEOUT
        assert outcome.seconds < 5.0

    def test_worker_crash_is_a_timeout(self, triangle):
        outcome = run_checked("crash", triangle, 2, timeout=5.0)
        assert outcome.verdict == TIMEOUT

    def test_unknown_method_raises_in_parent(self, triangle):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="unknown check method"):
            run_checked("no-such-method", triangle, 2, timeout=5.0)
        with pytest.raises(ReproError, match="unknown check method"):
            DecompositionEngine(jobs=2).check(triangle, 2, method="no-such-method")

    def test_worker_exceptions_surface_in_parent(self, triangle):
        def boom(hypergraph, k, deadline):
            raise RuntimeError("worker bug")

        register_method("boom", boom)
        with pytest.raises(RuntimeError, match="worker bug"):
            run_checked("boom", triangle, 2, timeout=5.0)

    def test_run_checked_matches_in_process(self, triangle):
        outcome = run_checked("hd", triangle, 2, timeout=10.0)
        assert outcome.verdict == YES
        outcome.decomposition.validate()
        assert run_checked("hd", triangle, 1, timeout=10.0).verdict == NO

    def test_race_first_answer_wins(self, triangle):
        winner, results = race_checks(
            ["hd", "spin"], triangle, 2, timeout=2.0, grace=0.5
        )
        assert winner == "hd"
        assert results["hd"].verdict == YES
        assert not results["hd"].cancelled
        assert results["spin"].verdict == TIMEOUT
        assert results["spin"].cancelled  # killed because the race was won

    def test_exhausted_race_is_not_cancelled(self, triangle):
        winner, results = race_checks(["spin"], triangle, 2, timeout=0.2, grace=0.2)
        assert winner is None
        assert results["spin"].verdict == TIMEOUT
        assert not results["spin"].cancelled  # ran its full budget

    def test_map_checks_preserves_order(self, triangle, path3):
        tasks = [
            ("hd", triangle, 1, 10.0),
            ("hd", triangle, 2, 10.0),
            ("hd", path3, 1, 10.0),
            ("spin", path3, 1, 0.2),
        ]
        outcomes = map_checks(tasks, jobs=3, grace=0.2)
        assert [o.verdict for o in outcomes] == [NO, YES, YES, TIMEOUT]

    def test_race_that_cannot_start_leaves_no_worker_running(self, triangle):
        before = set(multiprocessing.active_children())
        with pytest.raises(ReproError, match="unknown check method"):
            race_checks(["spin", "no-such-method"], triangle, 2, timeout=0.2, grace=0.2)
        assert set(multiprocessing.active_children()) <= before


# ---------------------------------------------------------------------- engine


class TestEngine:
    def test_check_hits_cache_on_second_call(self, triangle):
        engine = DecompositionEngine(store=ResultStore())
        first = engine.check(triangle, 2)
        second = engine.check(triangle, 2)
        assert first.verdict == second.verdict == YES
        second.decomposition.validate()
        assert engine.stats.cache_hits == 1
        assert engine.stats.executed == 1

    def test_renamed_instance_shares_results(self, triangle):
        engine = DecompositionEngine(store=ResultStore())
        engine.check(triangle, 2)
        copy = Hypergraph(triangle.edges, name="copy")
        engine.check(copy, 2)
        assert engine.stats.cache_hits == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exact_width_matches_in_process_driver(self, jobs):
        engine = DecompositionEngine(store=ResultStore(), jobs=jobs)
        for seed in range(6):
            h = random_hypergraph(seed)
            expected = exact_width(check_hd, h, 4)
            got = engine.exact_width(h, 4, timeout=30.0 if jobs > 1 else None)
            assert (got.lower, got.upper, got.exact) == (
                expected.lower,
                expected.upper,
                expected.exact,
            ), h.name

    def test_parallel_portfolio_verdict_matches_sequential(self, triangle, cycle6):
        sequential = DecompositionEngine()
        parallel = DecompositionEngine(jobs=3)
        for h, k in [(triangle, 1), (triangle, 2), (cycle6, 1), (cycle6, 2)]:
            seq_best, _ = sequential.portfolio(h, k, timeout=30.0)
            par_best, per = parallel.portfolio(h, k, timeout=30.0)
            assert par_best.verdict == seq_best.verdict, (h.name, k)
            assert set(per) == {"GlobalBIP", "LocalBIP", "BalSep"}

    def test_portfolio_cache_preserves_per_algorithm_verdicts(self, triangle):
        engine = DecompositionEngine(store=ResultStore())
        best1, per1 = engine.portfolio(triangle, 2)
        best2, per2 = engine.portfolio(triangle, 2)
        assert best2.verdict == best1.verdict == YES
        assert {n: o.verdict for n, o in per2.items()} == {
            n: o.verdict for n, o in per1.items()
        }
        assert engine.stats.cache_hits == 1

    def test_driver_portfolio_routes_through_engine(self, triangle):
        engine = DecompositionEngine(store=ResultStore())
        best, per = ghd_portfolio(triangle, 2, engine=engine)
        assert best.verdict == YES
        assert engine.stats.requests == 1


class TestBatch:
    def _specs(self, timeout=None):
        graphs = [random_hypergraph(seed) for seed in range(4)]
        specs = [JobSpec.check(h, 2, timeout=timeout) for h in graphs]
        specs.append(JobSpec.width(graphs[0], 3, timeout=timeout))
        specs.append(JobSpec.portfolio(graphs[1], 2, timeout=timeout))
        return specs

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_second_run_is_fully_cached(self, jobs):
        specs = self._specs(timeout=30.0 if jobs > 1 else None)
        engine = DecompositionEngine(store=ResultStore(), jobs=jobs)
        first = engine.run_batch(specs)
        assert first.total == len(specs)
        assert first.executed == len(specs)
        second = engine.run_batch(specs)
        assert second.cache_hits == second.total == len(specs)
        assert second.executed == 0
        assert second.all_cached
        for a, b in zip(first.results, second.results):
            assert a.verdict == b.verdict
            assert (a.lower, a.upper, a.winner) == (b.lower, b.upper, b.winner)

    def test_batch_stats_count_each_request_exactly_once(self, triangle):
        specs = [JobSpec.check(triangle, k) for k in (1, 2, 3)]
        engine = DecompositionEngine(store=ResultStore())
        engine.run_batch(specs)
        assert (engine.stats.requests, engine.stats.cache_hits) == (3, 0)
        assert (engine.store.stats.hits, engine.store.stats.misses) == (0, 3)
        engine.run_batch(specs)
        assert (engine.stats.requests, engine.stats.cache_hits) == (6, 3)
        assert engine.stats.hit_rate == 0.5
        # the store's lifetime counters agree: replay peeks are not
        # double-counted against the later execution lookups
        assert (engine.store.stats.hits, engine.store.stats.misses) == (3, 3)

    def test_parallel_batch_verdicts_match_sequential(self):
        specs = self._specs(timeout=30.0)
        sequential = DecompositionEngine().run_batch(specs)
        parallel = DecompositionEngine(jobs=3).run_batch(specs)
        assert [r.verdict for r in sequential.results] == [
            r.verdict for r in parallel.results
        ]

    def test_resume_from_journal(self, tmp_path):
        specs = self._specs()
        journal = tmp_path / "sweep.jsonl"
        engine = DecompositionEngine()
        engine.run_batch(specs, journal=journal)
        resumed = DecompositionEngine().run_batch(specs, journal=journal)
        assert resumed.resumed == len(specs)
        assert resumed.executed == 0

    def test_resume_from_truncated_journal(self, tmp_path):
        specs = self._specs()
        journal = tmp_path / "sweep.jsonl"
        DecompositionEngine().run_batch(specs, journal=journal)
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[:-20], encoding="utf-8")  # kill mid-final-line
        report = DecompositionEngine().run_batch(specs, journal=journal)
        assert report.resumed == len(specs) - 1
        assert report.executed == 1
        # the journal is compacted + completed: a third run resumes everything
        final = DecompositionEngine().run_batch(specs, journal=journal)
        assert final.resumed == len(specs)

    def test_journal_lines_are_valid_json(self, tmp_path, triangle):
        journal = tmp_path / "sweep.jsonl"
        DecompositionEngine().run_batch([JobSpec.check(triangle, 2)], journal=journal)
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["result"]["verdict"] == YES
        assert Journal(journal).load() != {}


# ------------------------------------------------------- rewired entry points


class TestRewiredLayers:
    def test_parallel_benchmark_build_is_deterministic(self):
        sequential = build_default_benchmark(scale=0.03, seed=7)
        parallel = build_default_benchmark(
            scale=0.03, seed=7, engine=DecompositionEngine(jobs=4)
        )
        assert len(sequential) == len(parallel)
        for a, b in zip(sequential, parallel):
            assert a.name == b.name
            assert a.hypergraph == b.hypergraph
            assert a.benchmark_class == b.benchmark_class

    @pytest.mark.parametrize(
        "generator, reason",
        [
            pytest.param(_generator_bug, r"ValueError\('generator bug'\)", id="raises"),
            pytest.param(_generator_crash, "crash", id="crashes"),
        ],
    )
    def test_parallel_build_raises_naming_a_failed_class(
        self, monkeypatch, generator, reason
    ):
        monkeypatch.setitem(build._GENERATORS, BenchmarkClass.CSP_RANDOM, generator)
        with pytest.raises(ReproError, match=f"generating CSP Random: {reason}"):
            build_default_benchmark(
                scale=0.03, seed=7, engine=DecompositionEngine(jobs=2)
            )

    def test_ghw_analysis_skips_race_cancelled_outcomes(self, triangle):
        from repro.analysis.ghw_analysis import run_ghw_analysis
        from repro.benchmark.classes import BenchmarkClass
        from repro.benchmark.repository import HyperBenchRepository

        class StubEngine:
            def portfolio(self, hypergraph, k, timeout=None):
                per = {
                    "GlobalBIP": CheckOutcome(YES, 0.1),
                    "LocalBIP": CheckOutcome(TIMEOUT, 0.1, cancelled=True),
                    "BalSep": CheckOutcome(NO, 0.05),
                }
                return per["GlobalBIP"], per

        repository = HyperBenchRepository()
        entry = repository.add(triangle, BenchmarkClass.CQ_APPLICATION)
        entry.hw_high = 3
        analysis = run_ghw_analysis(repository, ks=(3,), engine=StubEngine())
        # genuine outcomes are recorded, the cancelled loser is not
        assert analysis.algorithm_cell("GlobalBIP", 3).yes == 1
        assert analysis.algorithm_cell("BalSep", 3).no == 1
        cell = analysis.algorithm_cell("LocalBIP", 3)
        assert (cell.yes, cell.no, cell.timeout) == (0, 0, 0)

    def test_hw_analysis_with_engine_matches_plain(self):
        from repro.analysis.hw_analysis import run_hw_analysis

        plain_repo = build_default_benchmark(scale=0.03, seed=3)
        engine_repo = build_default_benchmark(scale=0.03, seed=3)
        plain = run_hw_analysis(plain_repo, max_k=3, timeout=None)
        engine = DecompositionEngine(store=ResultStore())
        backed = run_hw_analysis(engine_repo, max_k=3, timeout=None, engine=engine)
        assert {
            (str(cls), k): (c.yes, c.no) for (cls, k), c in plain.cells.items()
        } == {(str(cls), k): (c.yes, c.no) for (cls, k), c in backed.cells.items()}
        for a, b in zip(plain_repo, engine_repo):
            assert (a.hw_low, a.hw_high) == (b.hw_low, b.hw_high)
        # a second sweep over the same repository is served from cache
        before = engine.stats.executed
        run_hw_analysis(engine_repo, max_k=3, timeout=None, engine=engine)
        assert engine.stats.executed == before


class TestCliEngineFlags:
    @pytest.fixture
    def triangle_file(self, tmp_path):
        path = tmp_path / "tri.hg"
        path.write_text("r(x,y),\ns(y,z),\nt(z,x).\n", encoding="utf-8")
        return path

    def test_width_with_cache_and_jobs(self, triangle_file, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        args = ["width", str(triangle_file), "--cache", str(cache), "--jobs", "2",
                "--timeout", "30"]
        assert main(args) == 0
        assert "hw(tri) = 2" in capsys.readouterr().out
        assert main(args) == 0  # second run: served from the store
        assert "hw(tri) = 2" in capsys.readouterr().out
        # the bounds index lets the warm run answer with a single lookup
        # (binary search inside the stored [lo, hi] interval)
        with ResultStore(cache) as store:
            assert store.stats.hits >= 1

    def test_decompose_with_cache_replays_decomposition(self, triangle_file, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        args = ["decompose", str(triangle_file), "-k", "2", "--cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "width 2" in first and "width 2" in second

    def test_cache_stats_and_clear(self, triangle_file, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        main(["width", str(triangle_file), "--cache", str(cache)])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "hd" in out
        assert main(["cache", "clear", "--cache", str(cache)]) == 0
        assert "cleared" in capsys.readouterr().out
        with ResultStore(cache) as store:
            assert len(store) == 0

    def test_cache_stats_missing_file(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache", str(tmp_path / "nope.db")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_clear_missing_file_does_not_create_one(self, tmp_path, capsys):
        target = tmp_path / "typo.db"
        assert main(["cache", "clear", "--cache", str(target)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not target.exists()

    def test_cache_stats_rejects_non_sqlite_file(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.db"
        garbage.write_text("not a database", encoding="utf-8")
        assert main(["cache", "stats", "--cache", str(garbage)]) == 2
        assert "not a result store" in capsys.readouterr().err

    def test_benchmark_with_jobs(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        assert main(["benchmark", str(out_dir), "--scale", "0.03", "--jobs", "4"]) == 0
        assert (out_dir / "hyperbench.csv").exists()
        assert len(list((out_dir / "hypergraphs").glob("*.hg"))) == 10
