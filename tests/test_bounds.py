"""Tests for the store's bounds index and the cache-aware scheduling on top.

Covers the monotonicity invariant (property-style over seeded random
hypergraphs), implied answers, consistency under timeout reuse and row
replacement, the binary-searched ``exact_width``, batch pruning
cross-checks against unpruned journals, the engine-backed fractional study,
and the new CLI surfaces (``fractional``, ``cache bounds``).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.fractional_analysis import run_fractional_analysis
from repro.analysis.hw_analysis import run_hw_analysis
from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.repository import HyperBenchRepository
from repro.cli import main
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import NO, TIMEOUT, YES, CheckOutcome, exact_width, timed_check
from repro.engine import (
    MONOTONE_METHODS,
    DecompositionEngine,
    JobSpec,
    Journal,
    ResultStore,
    fingerprint,
)
from tests.conftest import clique_hypergraph, cycle_hypergraph, random_hypergraph

MAX_K = 5


# ----------------------------------------------------------------- store index


class TestBoundsIndex:
    def test_puts_derive_interval(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            assert store.bounds(fp, "hd") == (1, None)
            store.put(fp, "hd", 1, None, CheckOutcome(NO, 0.1))
            assert store.bounds(fp, "hd") == (2, None)
            store.put(fp, "hd", 4, None, CheckOutcome(YES, 0.1))
            assert store.bounds(fp, "hd") == (2, 4)

    def test_timeout_rows_do_not_move_bounds(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 3, 1.0, CheckOutcome(TIMEOUT, 1.0))
            assert store.bounds(fp, "hd") == (1, None)

    def test_non_monotone_methods_are_excluded(self, triangle):
        fp = fingerprint(triangle)
        assert "custom" not in MONOTONE_METHODS
        with ResultStore() as store:
            store.put(fp, "custom", 3, None, CheckOutcome(NO, 0.1))
            assert store.bounds(fp, "custom") == (1, None)
            assert store.implied(fp, "custom", 1) is None

    def test_implied_yes_replays_witness_decomposition(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.5, check_hd(triangle, 2)))
            derived = store.get(fp, "hd", 4, None)
            assert derived is not None and derived.implied
            assert derived.verdict == YES
            assert derived.seconds == 0.0
            outcome = derived.outcome(triangle)
            outcome.decomposition.validate()
            assert outcome.decomposition.integral_width <= 4

    def test_implied_no_below_lower_bound(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 3, None, CheckOutcome(NO, 0.5))
            derived = store.get(fp, "hd", 1, None)
            assert derived is not None and derived.implied
            assert derived.verdict == NO
            # inside the open interval nothing is implied
            assert store.get(fp, "hd", 4, None) is None

    def test_definite_knowledge_dominates_stored_timeout(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 1.0, CheckOutcome(TIMEOUT, 1.0))
            store.put(fp, "hd", 2, 60.0, CheckOutcome(NO, 5.0))
            got = store.get(fp, "hd", 2, 1.0)
            assert got is not None and got.verdict == NO

    def test_implied_answer_dominates_stale_exact_timeout_row(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 3, 1.0, CheckOutcome(TIMEOUT, 1.0))
            store.put(fp, "hd", 2, 60.0, CheckOutcome(YES, 0.2, check_hd(triangle, 2)))
            # hi = 2 proves k = 3 is yes; the recorded timeout at the exact
            # (k=3, 1.0s) key must stop replaying
            got = store.get(fp, "hd", 3, 1.0)
            assert got is not None and got.verdict == YES and got.implied
            # bounds=False restores the row-only view
            raw = store.get(fp, "hd", 3, 1.0, bounds=False)
            assert raw is not None and raw.verdict == TIMEOUT

    def test_clear_drops_bounds(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1))
            store.clear()
            assert store.bounds(fp, "hd") == (1, None)
            assert store.bounds_rows() == []


class TestBoundsConsistencyRegressions:
    """Timeout reuse in ``get`` and row replacement vs the index."""

    def test_timeout_reuse_get_leaves_bounds_intact(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 60.0, CheckOutcome(YES, 0.2, check_hd(triangle, 2)))
            assert store.bounds(fp, "hd") == (1, 2)
            stored = store.get(fp, "hd", 2, 1.0)  # definite reuse, other budget
            assert stored is not None and stored.verdict == YES
            assert store.bounds(fp, "hd") == (1, 2)

    def test_bounds_always_match_surviving_rows_under_churn(self):
        """Randomised regression: after any put/get interleaving, with rows
        replaced under one key, the index equals exactly what the stored
        rows justify."""
        rng = random.Random(7)
        graphs = [random_hypergraph(seed) for seed in range(3)]
        prints = [fingerprint(h) for h in graphs]
        with ResultStore() as store:
            for _ in range(60):
                fp = rng.choice(prints)
                k = rng.randint(1, MAX_K)
                action = rng.random()
                if action < 0.6:
                    verdict = rng.choice([YES, NO, TIMEOUT])
                    store.put(fp, "hd", k, None, CheckOutcome(verdict, 0.01))
                else:
                    store.get(fp, "hd", k, None)
                for check_fp in prints:
                    rows = store._conn.execute(
                        "SELECT k, verdict FROM results "
                        "WHERE fingerprint = ? AND method = 'hd'",
                        (check_fp,),
                    ).fetchall()
                    nos = [row_k for row_k, v in rows if v == NO]
                    yeses = [row_k for row_k, v in rows if v == YES]
                    expected = (
                        (max(nos) + 1 if nos else 1),
                        (min(yeses) if yeses else None),
                    )
                    assert store.bounds(check_fp, "hd") == expected


# ------------------------------------------------------ property-based invariant


class TestBoundsInvariantProperty:
    """Satellite: random small hypergraphs, random put sequences — the index
    always brackets the true width and the cache-aware ``exact_width``
    matches the sequential driver."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_put_sequences_respect_the_invariant(self, seed):
        rng = random.Random(1000 + seed)
        h = random_hypergraph(seed)
        truth = exact_width(check_hd, h, MAX_K)
        width = truth.value  # None when the width exceeds MAX_K
        fp = fingerprint(h)
        with ResultStore() as store:
            for k in (rng.randint(1, MAX_K) for _ in range(rng.randint(2, 8))):
                store.put(fp, "hd", k, None, timed_check(check_hd, h, k))
                lo, hi = store.bounds(fp, "hd")
                if width is not None:
                    assert lo <= width, (h.name, lo, width)
                    assert hi is None or width <= hi, (h.name, hi, width)
                if width is not None:
                    for q in range(1, MAX_K + 1):
                        derived = store.implied(fp, "hd", q)
                        if derived is not None:
                            assert derived.verdict == (YES if q >= width else NO)
            engine = DecompositionEngine(store=store)
            got = engine.exact_width(h, MAX_K)
            assert (got.lower, got.upper, got.exact) == (
                truth.lower,
                truth.upper,
                truth.exact,
            ), h.name


# ------------------------------------------------------------ cache-aware width


class TestCacheAwareExactWidth:
    def test_partial_rows_enable_bisection_with_fewer_checks(self):
        h = clique_hypergraph(5)  # hw = 3
        fp = fingerprint(h)
        store = ResultStore()
        # a previous coarse sweep left only the endpoints
        store.put(fp, "hd", 1, None, timed_check(check_hd, h, 1))
        store.put(fp, "hd", 5, None, timed_check(check_hd, h, 5))
        engine = DecompositionEngine(store=store)
        result = engine.exact_width(h, MAX_K)
        expected = exact_width(check_hd, h, MAX_K)
        assert (result.lower, result.upper, result.exact) == (
            expected.lower,
            expected.upper,
            expected.exact,
        )
        # the linear protocol runs len(expected.timings) checks from scratch;
        # bisection inside [2, 5] issues strictly fewer
        assert engine.stats.executed < len(expected.timings)

    def test_warm_sweep_executes_nothing_and_uses_implied_answers(self):
        graphs = [random_hypergraph(seed) for seed in range(6)]
        store = ResultStore()
        cold = DecompositionEngine(store=store)
        cold_results = [cold.exact_width(h, MAX_K) for h in graphs]
        assert cold.stats.executed > 0
        warm = DecompositionEngine(store=store)
        warm_results = [warm.exact_width(h, MAX_K) for h in graphs]
        assert warm.stats.executed == 0  # strictly fewer checks than cold
        assert warm.stats.cache_hits > 0
        for h, a, b in zip(graphs, cold_results, warm_results):
            expected = exact_width(check_hd, h, MAX_K)
            assert (
                (a.lower, a.upper, a.exact)
                == (b.lower, b.upper, b.exact)
                == (expected.lower, expected.upper, expected.exact)
            ), h.name
        # bounds also settle plain checks above the interval without work
        h = graphs[0]
        width = warm.exact_width(h, MAX_K).upper
        before = warm.stats.executed
        outcome = warm.check(h, width + 3)
        assert outcome.verdict == YES
        assert warm.stats.executed == before
        assert warm.stats.implied >= 1


# ------------------------------------------------------------------ batch pruning


class TestBatchPruning:
    """Satellite: pruned batches are verdict-identical to unpruned runs."""

    def _graphs(self):
        return [random_hypergraph(seed) for seed in range(4)]

    def _check_specs(self, graphs):
        return [JobSpec.check(h, k) for h in graphs for k in (1, 2, 3, 4)]

    @staticmethod
    def _verdicts(journal_path):
        return {
            key: (p["verdict"], p["lower"], p["upper"], p["winner"])
            for key, p in Journal(journal_path).load().items()
        }

    def test_pruned_run_matches_unpruned_journal(self, tmp_path):
        graphs = self._graphs()
        specs = self._check_specs(graphs)

        cold_journal = tmp_path / "cold.jsonl"
        cold = DecompositionEngine(store=ResultStore())
        cold_report = cold.run_batch(specs, journal=cold_journal)
        assert cold_report.pruned == 0 and cold_report.executed > 0

        # warm the store with width sweeps only — the check batch below is
        # then answered by exact rows *and* bounds-implied verdicts
        warm_store = ResultStore()
        seeder = DecompositionEngine(store=warm_store)
        seeder.run_batch([JobSpec.width(h, MAX_K) for h in graphs])

        warm_journal = tmp_path / "warm.jsonl"
        warm = DecompositionEngine(store=warm_store)
        warm_report = warm.run_batch(specs, journal=warm_journal)
        assert warm_report.executed == 0
        assert warm_report.pruned > 0  # some verdicts were implied, not stored
        assert warm_report.cache_hits == warm_report.total

        assert self._verdicts(cold_journal) == self._verdicts(warm_journal)

    def test_truncated_journal_resume_stays_verdict_identical(self, tmp_path):
        graphs = self._graphs()
        specs = self._check_specs(graphs)

        cold_journal = tmp_path / "cold.jsonl"
        DecompositionEngine(store=ResultStore()).run_batch(specs, journal=cold_journal)

        warm_store = ResultStore()
        DecompositionEngine(store=warm_store).run_batch(
            [JobSpec.width(h, MAX_K) for h in graphs]
        )
        warm_journal = tmp_path / "warm.jsonl"
        DecompositionEngine(store=warm_store).run_batch(specs, journal=warm_journal)
        text = warm_journal.read_text(encoding="utf-8")
        warm_journal.write_text(text[:-25], encoding="utf-8")  # kill mid-line

        resumed = DecompositionEngine(store=warm_store).run_batch(
            specs, journal=warm_journal
        )
        assert resumed.resumed == len(specs) - 1
        assert resumed.executed == 0
        assert self._verdicts(cold_journal) == self._verdicts(warm_journal)


# ------------------------------------------------------- engine-backed fractional


class TestEngineFractionalStudy:
    def _repo_with_hw(self):
        repo = HyperBenchRepository()
        for h in (
            cycle_hypergraph(4),
            cycle_hypergraph(6),
            clique_hypergraph(4),
            random_hypergraph(3),
            random_hypergraph(5),
        ):
            repo.add(h, BenchmarkClass.CQ_APPLICATION)
        run_hw_analysis(repo, max_k=3, timeout=None)
        return repo

    def test_engine_study_matches_sequential_within_precision(self):
        plain_repo = self._repo_with_hw()
        plain = run_fractional_analysis(plain_repo, hw_values=(2, 3), timeout=30.0)

        engine = DecompositionEngine(store=ResultStore())
        engine_repo = self._repo_with_hw()
        backed = run_fractional_analysis(
            engine_repo, hw_values=(2, 3), timeout=30.0, run_batch=engine.run_batch
        )
        # Table 5 is deterministic: identical cells
        assert {k: c.counts for k, c in plain.improve_hd.items()} == {
            k: c.counts for k, c in backed.improve_hd.items()
        }
        # Table 6: both paths run the same bisection, so the achieved widths
        # agree to within the bisection precision and nothing times out
        # either way
        for a, b in zip(plain_repo, engine_repo):
            if a.fhw_high is None:
                assert b.fhw_high is None
            else:
                assert abs(a.fhw_high - b.fhw_high) <= 0.25, a.name
        assert sum(c.counts["timeout"] for c in backed.frac_improve.values()) == 0

    def test_warm_rerun_replays_entirely_from_the_store(self):
        engine = DecompositionEngine(store=ResultStore())
        first_repo = self._repo_with_hw()
        first = run_fractional_analysis(
            first_repo, hw_values=(2, 3), timeout=30.0, run_batch=engine.run_batch
        )
        misses_before = engine.store.session_misses
        warm_repo = self._repo_with_hw()
        warm = run_fractional_analysis(
            warm_repo, hw_values=(2, 3), timeout=30.0, run_batch=engine.run_batch
        )
        assert engine.store.session_misses == misses_before
        assert engine.store.session_hits > 0
        assert {k: c.counts for k, c in first.frac_improve.items()} == {
            k: c.counts for k, c in warm.frac_improve.items()
        }

    def test_frac_outcome_ignores_witness_widths_from_smaller_k(self, triangle):
        """A fracimprove row at k=2 must not masquerade as k=5's optimum:
        the engine serves a witness-required method no implied "yes"."""
        engine = DecompositionEngine(store=ResultStore())
        engine.check(triangle, 2, method="fracimprove", timeout=30.0)
        assert engine.store.methods() == {"fracimprove": 1}
        outcome = engine.check(triangle, 5, method="fracimprove", timeout=30.0)
        assert outcome.verdict == YES
        # a fresh row was computed and persisted for k=5
        assert engine.stats.executed == 2
        assert engine.store.methods() == {"fracimprove": 2}

    def test_parallel_study_books_each_lookup_exactly_once(self):
        """Each entry's fracimprove lookup books exactly one miss (cold) or
        one hit (warm), never both."""
        engine = DecompositionEngine(store=ResultStore())
        repo = self._repo_with_hw()
        run_fractional_analysis(
            repo, hw_values=(2, 3), timeout=30.0, run_batch=engine.run_batch
        )
        processed = sum(
            1 for e in repo if e.hw_high in (2, 3) and e.extra.get("hd") is not None
        )
        assert processed > 0
        assert engine.store.session_misses == processed
        assert engine.store.session_hits == 0
        # warm rerun: one hit per entry, misses unchanged
        run_fractional_analysis(
            self._repo_with_hw(),
            hw_values=(2, 3),
            timeout=30.0,
            run_batch=engine.run_batch,
        )
        assert engine.store.session_misses == processed
        assert engine.store.session_hits == processed


# ------------------------------------------------------------------ CLI surfaces


class TestCliBounds:
    @pytest.fixture
    def triangle_file(self, tmp_path):
        path = tmp_path / "tri.hg"
        path.write_text("r(x,y),\ns(y,z),\nt(z,x).\n", encoding="utf-8")
        return path

    def test_fractional_command_with_cache_replays(self, triangle_file, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        args = ["fractional", str(triangle_file), "-k", "2", "--cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "ImproveHD width      1.500" in first
        assert "FracImproveHD width  1.500" in first
        assert main(args) == 0  # warm: replayed from the store
        assert capsys.readouterr().out == first
        with ResultStore(cache) as store:
            assert "fracimprove" in store.methods()
            assert store.stats.hits > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fractional_command_keeps_one_row_per_k(
        self, triangle_file, tmp_path, capsys, jobs
    ):
        """Table 6 is this k's best width: k = 3 runs its own search rather
        than replaying k = 2's FHD, at any --jobs."""
        cache = tmp_path / "cache.db"
        for k in ("2", "3"):
            args = ["fractional", str(triangle_file), "-k", k, "--cache", str(cache)]
            assert main([*args, "--jobs", str(jobs)]) == 0
        assert "FracImproveHD width  1.500 (improvement 1.500)" in capsys.readouterr().out
        with ResultStore(cache) as store:
            ks = sorted(row[2] for row in store.export_rows() if row[1] == "fracimprove")
        assert ks == [2, 3]

    def test_fractional_command_without_engine(self, triangle_file, capsys):
        assert main(["fractional", str(triangle_file), "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "FracImproveHD width  1.500" in out

    def test_fractional_command_no_hd(self, triangle_file, capsys):
        assert main(["fractional", str(triangle_file), "-k", "1"]) == 1
        assert "no HD of width <= 1" in capsys.readouterr().out

    def test_cache_bounds_lists_derived_intervals(self, triangle_file, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        assert main(["width", str(triangle_file), "--cache", str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "bounds", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "method" in out and "hd" in out
        row = next(line for line in out.splitlines() if " hd " in line)
        assert " 2" in row  # hw(triangle) = 2: lo = hi = 2

    def test_cache_bounds_empty_store(self, tmp_path, capsys):
        cache = tmp_path / "cache.db"
        with ResultStore(cache):
            pass
        assert main(["cache", "bounds", "--cache", str(cache)]) == 0
        assert "no width bounds" in capsys.readouterr().out
