"""Tests for the store's bounds index and the cache-aware scheduling on top.

Covers the monotonicity invariant (property-style over seeded random
hypergraphs), implied answers, eviction/timeout-reuse consistency, the
binary-searched ``exact_width``, batch pruning cross-checks against
unpruned journals, the engine-backed fractional study, parallel repository
statistics, and the new CLI surfaces (``fractional``, ``cache bounds``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.analysis.fractional_analysis import run_fractional_analysis
from repro.analysis.hw_analysis import run_hw_analysis
from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.repository import HyperBenchRepository
from repro.cli import main
from repro.core.properties import compute_statistics
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
from repro.errors import ReproError
from repro.utils.deadline import Deadline
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
    """Satellite fix: get timeout-reuse and LRU eviction vs the index."""

    def test_timeout_reuse_get_leaves_bounds_intact(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, 60.0, CheckOutcome(YES, 0.2, check_hd(triangle, 2)))
            assert store.bounds(fp, "hd") == (1, 2)
            stored = store.get(fp, "hd", 2, 1.0)  # definite reuse, other budget
            assert stored is not None and stored.verdict == YES
            assert store.bounds(fp, "hd") == (1, 2)

    def test_eviction_shrinks_bounds_to_surviving_rows(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore(max_entries=2) as store:
            store.put(fp, "hd", 1, None, CheckOutcome(NO, 0.1))
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1, check_hd(triangle, 2)))
            assert store.bounds(fp, "hd") == (2, 2)
            store.get(fp, "hd", 2, None)  # refresh the yes row's LRU clock
            store.put(fp, "hd", 5, None, CheckOutcome(YES, 0.1))
            # the k=1 refutation was evicted: lo must fall back to 1, not
            # silently keep claiming width >= 2
            assert store.bounds(fp, "hd") == (1, 2)

    def test_evicting_the_only_witness_drops_the_interval(self, triangle):
        fp = fingerprint(triangle)
        other = fingerprint(cycle_hypergraph(4))
        with ResultStore(max_entries=1) as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1))
            assert store.bounds(fp, "hd") == (1, 2)
            store.put(other, "hd", 1, None, CheckOutcome(NO, 0.1))  # evicts fp row
            assert store.bounds(fp, "hd") == (1, None)
            assert store.get(fp, "hd", 3, None, record=False) is None

    def test_bounds_always_match_surviving_rows_under_churn(self):
        """Randomised regression: after any put/get/evict interleaving the
        index equals exactly what the surviving rows justify."""
        rng = random.Random(7)
        graphs = [random_hypergraph(seed) for seed in range(3)]
        prints = [fingerprint(h) for h in graphs]
        with ResultStore(max_entries=4) as store:
            for _ in range(60):
                fp = rng.choice(prints)
                k = rng.randint(1, MAX_K)
                action = rng.random()
                if action < 0.6:
                    verdict = rng.choice([YES, NO, TIMEOUT])
                    store.put(fp, "hd", k, None, CheckOutcome(verdict, 0.01))
                else:
                    store.get(fp, "hd", k, None, record=False)
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
            engine_repo, hw_values=(2, 3), timeout=30.0, engine=engine
        )
        # Table 5 is deterministic: identical cells
        assert {k: c.counts for k, c in plain.improve_hd.items()} == {
            k: c.counts for k, c in backed.improve_hd.items()
        }
        # Table 6 bisections may differ by (at most) the bisection precision
        # between the seeded and unseeded paths; the achieved widths agree
        # to within it and nothing times out either way
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
            first_repo, hw_values=(2, 3), timeout=30.0, engine=engine
        )
        misses_before = engine.store.session_misses
        warm_repo = self._repo_with_hw()
        warm = run_fractional_analysis(
            warm_repo, hw_values=(2, 3), timeout=30.0, engine=engine
        )
        assert engine.store.session_misses == misses_before
        assert engine.store.session_hits > 0
        assert {k: c.counts for k, c in first.frac_improve.items()} == {
            k: c.counts for k, c in warm.frac_improve.items()
        }

    def test_frac_outcome_ignores_witness_widths_from_smaller_k(self, triangle):
        """A fracimprove row at k=2 must not masquerade as k=5's optimum:
        the quality-sensitive replay is exact-k only."""
        from repro.analysis.fractional_analysis import frac_improve_outcome

        store = ResultStore()
        frac_improve_outcome(triangle, 2, timeout=30.0, store=store)
        assert store.methods() == {"fracimprove": 1}
        outcome = frac_improve_outcome(triangle, 5, timeout=30.0, store=store)
        assert outcome.verdict == YES
        # a fresh row was computed and persisted for k=5
        assert store.methods() == {"fracimprove": 2}

    def test_parallel_study_books_each_lookup_exactly_once(self):
        """The pre-check peek must not double-count misses that run_batch
        books again when executing the deferred jobs."""
        engine = DecompositionEngine(store=ResultStore(), jobs=2)
        repo = self._repo_with_hw()
        run_fractional_analysis(repo, hw_values=(2, 3), timeout=30.0, engine=engine)
        processed = sum(
            1 for e in repo if e.hw_high in (2, 3) and e.extra.get("hd") is not None
        )
        assert processed > 0
        assert engine.store.session_misses == processed
        assert engine.store.session_hits == 0
        # warm rerun: one hit per entry, misses unchanged
        run_fractional_analysis(
            self._repo_with_hw(), hw_values=(2, 3), timeout=30.0, engine=engine
        )
        assert engine.store.session_misses == processed
        assert engine.store.session_hits == processed

    def test_custom_precision_bypasses_the_cache(self):
        """A row bisected at coarse precision must not be replayed for a
        finer request — non-default precisions compute live, uncached."""
        from repro.analysis.fractional_analysis import frac_improve_outcome

        h = random_hypergraph(5)
        store = ResultStore()
        coarse = frac_improve_outcome(h, 3, timeout=30.0, precision=1.0, store=store)
        assert len(store) == 0  # non-default precision is never cached
        fine = frac_improve_outcome(h, 3, timeout=30.0, precision=0.01, store=store)
        assert len(store) == 0
        assert fine.decomposition.width <= coarse.decomposition.width
        default = frac_improve_outcome(h, 3, timeout=30.0, store=store)
        assert store.methods() == {"fracimprove": 1}
        assert default.verdict == YES

    def test_store_backed_hd_warm_start_without_hw_analysis(self, triangle):
        """A fresh repository with known hw but no in-session HD gets the
        decomposition replayed from the store."""
        engine = DecompositionEngine(store=ResultStore())
        engine.check(triangle, 2, method="hd", timeout=30.0)  # caches the HD
        repo = HyperBenchRepository()
        entry = repo.add(triangle, BenchmarkClass.CQ_APPLICATION)
        entry.hw_high = 2
        analysis = run_fractional_analysis(
            repo, hw_values=(2,), timeout=30.0, engine=engine
        )
        assert entry.extra.get("hd") is not None
        assert analysis.cell("improve", 2).counts["[0.5,1)"] == 1  # 2 -> 1.5
        assert entry.fhw_high == pytest.approx(1.5, abs=0.2)


# ------------------------------------------------------ parallel repo statistics


def _crash_on_rand2(hypergraph, deadline=None):
    if hypergraph.name == "rand2":
        os._exit(23)
    return compute_statistics(hypergraph, deadline)


def _spin_on_rand1(hypergraph, deadline=None):
    if hypergraph.name == "rand1":
        while True:
            pass
    return compute_statistics(hypergraph, deadline)


def _raise_on_rand3(hypergraph, deadline=None):
    if hypergraph.name == "rand3":
        raise ValueError("stats bug")
    return compute_statistics(hypergraph, deadline)


class TestParallelStatistics:
    def _repo(self):
        repo = HyperBenchRepository()
        for seed in range(5):
            repo.add(random_hypergraph(seed), BenchmarkClass.CQ_APPLICATION)
        return repo

    def test_parallel_matches_sequential(self):
        sequential = self._repo()
        parallel = self._repo()
        assert sequential.compute_all_statistics() == {}
        assert parallel.compute_all_statistics(jobs=3) == {}
        for a, b in zip(sequential, parallel):
            assert a.statistics == b.statistics, a.name

    def test_worker_crash_is_a_per_entry_timeout(self):
        repo = self._repo()
        failures = repo.compute_all_statistics(jobs=3, _stats_fn=_crash_on_rand2)
        assert failures == {"rand2": "timeout"}
        assert repo.get("rand2").statistics is None
        for entry in repo:
            if entry.name != "rand2":
                assert entry.statistics is not None, entry.name

    def test_hung_worker_is_a_per_entry_timeout(self):
        repo = self._repo()
        failures = repo.compute_all_statistics(
            jobs=3, timeout=0.5, _stats_fn=_spin_on_rand1
        )
        assert failures == {"rand1": "timeout"}
        for entry in repo:
            if entry.name != "rand1":
                assert entry.statistics is not None, entry.name

    def test_parallel_path_derives_timeout_from_deadline(self):
        """Without an explicit timeout, the cooperative deadline's remaining
        budget becomes the per-entry hard cap — a hung worker cannot
        outlive it."""
        repo = self._repo()
        failures = repo.compute_all_statistics(
            deadline=Deadline(0.5), jobs=3, _stats_fn=_spin_on_rand1
        )
        assert failures == {"rand1": "timeout"}

    def test_single_pending_entry_still_gets_crash_isolation(self):
        repo = self._repo()
        failures = repo.compute_all_statistics(jobs=3, _stats_fn=_crash_on_rand2)
        assert failures == {"rand2": "timeout"}
        # only rand2 is pending now — a retry must still run in a worker and
        # report the failure instead of crashing the caller
        failures = repo.compute_all_statistics(jobs=3, _stats_fn=_crash_on_rand2)
        assert failures == {"rand2": "timeout"}

    def test_raising_stats_function_raises_like_the_sequential_path(self):
        with pytest.raises(ValueError, match="stats bug"):
            self._repo().compute_all_statistics(_stats_fn=_raise_on_rand3)
        with pytest.raises(ReproError, match=r"rand3: ValueError\('stats bug'\)"):
            self._repo().compute_all_statistics(jobs=3, _stats_fn=_raise_on_rand3)

    def test_skips_entries_that_already_have_statistics(self):
        repo = self._repo()
        repo.compute_all_statistics()
        marker = repo.get("rand0").statistics
        assert repo.compute_all_statistics(jobs=3) == {}
        assert repo.get("rand0").statistics is marker


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
