"""Cross-method bound propagation: the store's knowledge layer.

Covers the :data:`repro.engine.store.WIDTH_RELATIONS` transforms
(fhw ≤ ghw ≤ hw ≤ 3·ghw + 1), witness borrowing across methods, the
witness-required suppression for ``fracimprove``, cache files written by
older builds (answers come from their rows, never from their stored
bounds), clearing, contradicting rows (no derived answer), the
``cache bounds --kind`` CLI filter, and the acceptance scenario: a warm
sweep interleaving hw and ghw jobs on the same instances answers from the
other method's rows (``EngineStats.implied`` hits) with verdicts identical
to the frozen reference kernel.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import NO, YES, CheckOutcome
from repro.decomp.reference import check_ghd_balsep_reference, check_hd_reference
from repro.engine import (
    DecompositionEngine,
    JobSpec,
    ResultStore,
    fingerprint,
)
from repro.engine import methods
from repro.io.hg_format import format_hypergraph
from repro.io.json_io import decomposition_to_json
from tests.conftest import random_hypergraph

FP = "f" * 64  # synthetic fingerprint for rule-level tests


# ------------------------------------------------------------ relation rules


class TestWidthRelationRules:
    def test_hw_yes_caps_ghw_and_fhw(self):
        with ResultStore() as store:
            store.put(FP, "hd", 3, None, CheckOutcome(YES, 0.1))
            assert store.kind_bounds(FP, methods.HW) == (1, 3)
            assert store.kind_bounds(FP, methods.GHW) == (1, 3)
            assert store.kind_bounds(FP, methods.FHW) == (1, 3)
            # every ghw method is implied-yes at k >= 3
            for name in ("balsep", "localbip", "globalbip", "hybrid", "portfolio"):
                derived = store.get(FP, name, 3, None)
                assert derived is not None and derived.verdict == YES
                assert derived.implied

    def test_ghw_no_lifts_hw(self):
        with ResultStore() as store:
            store.put(FP, "balsep", 2, None, CheckOutcome(NO, 0.1))
            assert store.kind_bounds(FP, methods.GHW) == (3, None)
            assert store.kind_bounds(FP, methods.HW) == (3, None)
            derived = store.get(FP, "hd", 2, None)
            assert derived is not None and derived.verdict == NO and derived.implied
            # nothing implied at or above the open end
            assert store.get(FP, "hd", 3, None) is None

    def test_ghw_yes_caps_hw_at_three_k_plus_one(self):
        with ResultStore() as store:
            store.put(FP, "balsep", 2, None, CheckOutcome(YES, 0.1))
            assert store.kind_bounds(FP, methods.HW) == (1, 7)  # 3*2 + 1
            derived = store.get(FP, "hd", 7, None)
            assert derived is not None and derived.verdict == YES and derived.implied
            # purely arithmetic: no HD witness exists for the derived yes
            assert derived.decomposition_json is None
            assert store.get(FP, "hd", 6, None) is None

    def test_hw_no_lifts_ghw_by_the_adler_bound(self):
        with ResultStore() as store:
            store.put(FP, "hd", 6, None, CheckOutcome(NO, 0.1))
            # hw >= 7 and hw <= 3*ghw + 1  =>  ghw >= 2
            assert store.kind_bounds(FP, methods.GHW) == (2, None)
            derived = store.get(FP, "balsep", 1, None)
            assert derived is not None and derived.verdict == NO and derived.implied

    def test_fhw_lower_bounds_lift_the_chain(self):
        with ResultStore() as store:
            # direct fhw-kind facts can only come from relations today, so
            # check the transform directly through a ghw refutation
            store.put(FP, "localbip", 1, None, CheckOutcome(NO, 0.1))
            assert store.kind_bounds(FP, methods.GHW)[0] == 2
            assert store.kind_bounds(FP, methods.HW)[0] == 2
            # fhw keeps only upper bounds from the chain (none here)
            assert store.kind_bounds(FP, methods.FHW) == (1, None)

    def test_custom_methods_stay_outside_the_knowledge_layer(self):
        with ResultStore() as store:
            store.put(FP, "mystery", 2, None, CheckOutcome(YES, 0.1))
            assert store.kind_bounds_rows() == []
            assert store.get(FP, "hd", 2, None) is None


# --------------------------------------------------------- witness borrowing


class TestWitnessBorrowing:
    def test_ghw_yes_borrows_the_hd_witness(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1, check_hd(triangle, 2)))
            derived = store.get(fp, "balsep", 2, None)
            assert derived is not None and derived.verdict == YES and derived.implied
            outcome = derived.outcome(triangle)
            assert outcome.decomposition is not None
            outcome.decomposition.validate()  # an HD is a valid GHD
            assert outcome.decomposition.integral_width <= 2

    def test_fracimprove_never_replays_a_cross_yes(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1, check_hd(triangle, 2)))
            # the verdict is certain (hw <= 2) but the Table 6 deliverable
            # is the FHD itself — fracimprove must execute, not replay
            assert store.get(fp, "fracimprove", 2, None) is None
            # implied "no" is still fine: hd refutations close fracimprove keys
            store.put(fp, "hd", 1, None, CheckOutcome(NO, 0.1))
            derived = store.get(fp, "fracimprove", 1, None)
            assert derived is not None and derived.verdict == NO and derived.implied

    def test_effective_bounds_fold_in_the_kind_interval(self, triangle):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1, check_hd(triangle, 2)))
            store.put(fp, "balsep", 1, None, CheckOutcome(NO, 0.1))
            assert store.bounds(fp, "balsep") == (2, None)
            assert store.effective_bounds(fp, "balsep") == (2, 2)
            assert store.effective_bounds(fp, "hd") == (2, 2)
            # witness-required methods never borrow a cross upper bound
            assert store.effective_bounds(fp, "fracimprove") == (2, None)


# ------------------------------------------------------------ schema upkeep


OLD_SCHEMA = """
CREATE TABLE results (
    fingerprint TEXT NOT NULL, method TEXT NOT NULL, k INTEGER NOT NULL,
    timeout TEXT NOT NULL, verdict TEXT NOT NULL, seconds REAL NOT NULL,
    decomposition TEXT, extra TEXT, created_at REAL NOT NULL,
    last_used REAL NOT NULL, use_count INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, method, k, timeout)
);
CREATE TABLE bounds (
    fingerprint TEXT NOT NULL, method TEXT NOT NULL,
    lo INTEGER NOT NULL, hi INTEGER,
    PRIMARY KEY (fingerprint, method)
);
CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL);
"""

#: The cross-method table that older builds, from the knowledge layer on,
#: kept in the file.
OLD_KIND_BOUNDS = """
CREATE TABLE IF NOT EXISTS kind_bounds (
    fingerprint TEXT NOT NULL, kind TEXT NOT NULL,
    lo INTEGER NOT NULL, hi INTEGER,
    PRIMARY KEY (fingerprint, kind)
)
"""


def write_pr2_era_store(path, triangle) -> str:
    """A cache file exactly as the pre-knowledge-layer schema wrote it."""
    fp = fingerprint(triangle)
    decomposition = decomposition_to_json(check_hd(triangle, 2))
    conn = sqlite3.connect(path)
    conn.executescript(OLD_SCHEMA)
    conn.executemany(
        "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?, ?, ?, 1.0, 1.0, 0)",
        [
            (fp, "hd", 1, "none", NO, 0.2, None, None),
            (fp, "hd", 2, "none", YES, 0.3, decomposition, None),
            (fp, "balsep", 1, "none", NO, 0.1, None, None),
        ],
    )
    conn.executemany(
        "INSERT INTO bounds VALUES (?, ?, ?, ?)",
        [(fp, "hd", 2, 2), (fp, "balsep", 2, None)],
    )
    conn.execute("INSERT INTO meta VALUES ('hits', 5)")
    conn.commit()
    conn.close()
    return fp


class TestSchemaMigration:
    def test_pr2_era_store_migrates_in_place(self, tmp_path, triangle):
        path = tmp_path / "old.db"
        fp = write_pr2_era_store(path, triangle)
        with ResultStore(path) as store:
            # every pre-migration fact survives
            assert store.bounds(fp, "hd") == (2, 2)
            assert store.bounds(fp, "balsep") == (2, None)
            assert store.stats.hits == 5
            got = store.get(fp, "hd", 2, None)
            assert got is not None and got.verdict == YES
            # and the cross-method rows are derived from them
            assert store.kind_bounds(fp, methods.HW) == (2, 2)
            assert store.kind_bounds(fp, methods.GHW) == (2, 2)
            derived = store.get(fp, "localbip", 2, None)
            assert derived is not None and derived.verdict == YES and derived.implied

    def test_migration_runs_once(self, tmp_path, triangle):
        path = tmp_path / "old.db"
        fp = write_pr2_era_store(path, triangle)
        with ResultStore(path):
            pass
        # a second open derives the same intervals from the same rows
        with ResultStore(path) as store:
            assert store.kind_bounds(fp, methods.GHW) == (2, 2)

    def test_a_stale_bounds_row_in_an_older_file_is_ignored(self, tmp_path, triangle):
        path = tmp_path / "old.db"
        fp = write_pr2_era_store(path, triangle)
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.execute("UPDATE bounds SET lo = 5, hi = NULL WHERE method = 'hd'")
        with ResultStore(path) as store:
            # the rows say no at 1 and yes at 2; the stale row said hw >= 5
            assert store.bounds(fp, "hd") == (2, 2)
            got = store.get(fp, "hd", 3, None)
            assert got is not None and got.verdict == YES and got.implied

    def test_a_new_file_holds_no_derived_table(self, tmp_path):
        path = tmp_path / "new.db"
        with ResultStore(path) as store:
            store.put(FP, "hd", 2, None, CheckOutcome(YES, 0.1))
        assert _tables(path) == {"results", "meta"}

    def test_clear_drops_an_older_files_derived_tables(self, tmp_path, triangle):
        path = tmp_path / "old.db"
        write_pr2_era_store(path, triangle)
        with closing(sqlite3.connect(path)) as conn, conn:
            conn.execute(OLD_KIND_BOUNDS)
        with ResultStore(path):
            pass
        # opening leaves them: an older build may share the file
        assert _tables(path) == {"results", "bounds", "kind_bounds", "meta"}
        with ResultStore(path) as store:
            store.clear()
        assert _tables(path) == {"results", "meta"}

    def test_clear_drops_kind_rows(self):
        with ResultStore() as store:
            store.put(FP, "hd", 2, None, CheckOutcome(YES, 0.1))
            assert store.kind_bounds_rows()
            store.clear()
            assert store.kind_bounds_rows() == []


def _tables(path) -> set[str]:
    with closing(sqlite3.connect(path)) as conn:
        return {
            name
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }


# ------------------------------------------------------- contradicting rows


class TestContradictingRows:
    """Rows that close an interval (``lo > hi``) serve no derived answer."""

    def test_a_closed_method_interval_serves_only_exact_rows(self):
        with ResultStore() as store:
            store.put(FP, "hd", 2, None, CheckOutcome(YES, 0.1))
            store.put(FP, "hd", 3, None, CheckOutcome(NO, 0.1))
            # the raw intervals report what the rows say
            assert store.bounds(FP, "hd") == (4, 2)
            assert store.kind_bounds(FP, methods.HW) == (4, 2)
            assert store.effective_bounds(FP, "hd") == (1, None)
            assert store.get(FP, "hd", 4, None) is None
            assert store.get(FP, "hd", 5, None) is None
            assert store.get(FP, "balsep", 5, None) is None
            assert store.implied(FP, "hd", 1) is None
            for k, verdict in ((2, YES), (3, NO)):
                got = store.get(FP, "hd", k, None)
                assert got is not None and got.verdict == verdict
                assert not got.implied

    def test_a_closed_kind_interval_sends_exact_width_to_the_linear_protocol(
        self, triangle
    ):
        fp = fingerprint(triangle)
        with ResultStore() as store:
            store.put(fp, "hd", 2, None, CheckOutcome(YES, 0.1, check_hd(triangle, 2)))
            # a false refutation: ghw(triangle) = 2, and ghw <= hw <= 2
            store.put(fp, "balsep", 2, None, CheckOutcome(NO, 0.1))
            assert store.bounds(fp, "hd") == (1, 2)  # open on its own
            assert store.kind_bounds(fp, methods.GHW) == (3, 2)
            assert store.effective_bounds(fp, "hd") == (1, None)
            assert store.implied(fp, "hd", 1) is None
            assert store.implied(fp, "hd", 3) is None
            engine = DecompositionEngine(store=store)
            result = engine.exact_width(triangle, 4)
            assert (result.lower, result.upper, result.exact) == (2, 2, True)
            # k = 1 ran, k = 2 answered from its row
            assert engine.stats.executed == 1
            assert engine.stats.implied == 0


# ------------------------------------------------------------- CLI surface


class TestCacheBoundsKindFilter:
    def seeded_store(self, tmp_path):
        cache = tmp_path / "cache.db"
        with ResultStore(cache) as store:
            store.put(FP, "hd", 1, None, CheckOutcome(NO, 0.1))
            store.put(FP, "balsep", 2, None, CheckOutcome(YES, 0.1))
        return cache

    def test_bounds_lists_cross_method_rows(self, tmp_path, capsys):
        cache = self.seeded_store(tmp_path)
        assert main(["cache", "bounds", "--cache", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "hd" in out and "balsep" in out
        assert "kind" in out and "ghw" in out and "fhw" in out

    def test_kind_filter_restricts_both_tables(self, tmp_path, capsys):
        cache = self.seeded_store(tmp_path)
        assert main(["cache", "bounds", "--cache", str(cache), "--kind", "ghw"]) == 0
        out = capsys.readouterr().out
        assert "balsep" in out and "ghw" in out
        assert "hd " not in out and "fhw" not in out

    def test_decompose_reports_witnessless_implied_yes(self, tmp_path, capsys):
        # a ghw yes at 2 implies hw <= 7; no HD witness exists to print
        h = random_hypergraph(2)
        path = tmp_path / "h.hg"
        path.write_text(format_hypergraph(h), encoding="utf-8")
        cache = tmp_path / "cache.db"
        fp = fingerprint(h)
        with ResultStore(cache) as store:
            store.put(fp, "balsep", 2, None, CheckOutcome(YES, 0.1))
        code = main(
            ["decompose", str(path), "-k", "7", "--algorithm", "hd",
             "--cache", str(cache)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "confirmed from cached bounds" in out
        # with --json the witnessless verdict must still be machine-readable
        import json

        code = main(
            ["decompose", str(path), "-k", "7", "--algorithm", "hd",
             "--cache", str(cache), "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload == {
            "verdict": "yes", "k": 7, "implied": True, "decomposition": None,
        }


# ------------------------------------------------- acceptance: warm sweeps


class TestInterleavedWarmSweep:
    """hw rows answer ghw jobs (and vice versa) with reference-true verdicts."""

    MAX_K = 4

    def graphs(self):
        return [random_hypergraph(seed) for seed in range(5)]

    def test_hw_sweep_closes_ghw_checks(self):
        store = ResultStore()
        cold = DecompositionEngine(store=store)
        widths = {}
        for h in self.graphs():
            result = cold.exact_width(h, self.MAX_K, method="hd")
            if result.exact:
                widths[h.name] = result.value

        warm = DecompositionEngine(store=store)
        checked = 0
        for h in self.graphs():
            width = widths.get(h.name)
            if width is None:
                continue
            outcome = warm.check(h, width, method="balsep")
            # ghw <= hw: the hd yes-row answers the ghw key instantly
            assert outcome.verdict == YES
            reference = check_ghd_balsep_reference(h, width)
            assert reference is not None, h.name  # zero verdict mismatches
            if outcome.decomposition is not None:
                outcome.decomposition.validate()
            checked += 1
        assert checked > 0
        assert warm.stats.executed == 0
        assert warm.stats.implied == checked

    def test_ghw_refutations_close_hw_checks(self):
        from tests.conftest import clique_hypergraph, cycle_hypergraph

        # cyclic instances: ghw = 2, so Check(GHD, 1) is a definite no
        cyclic = [cycle_hypergraph(4), cycle_hypergraph(5), clique_hypergraph(4)]
        store = ResultStore()
        cold = DecompositionEngine(store=store)
        refuted = []
        for h in cyclic:
            outcome = cold.check(h, 1, method="balsep")
            if outcome.verdict == NO:
                refuted.append(h)
        assert refuted

        warm = DecompositionEngine(store=store)
        for h in refuted:
            outcome = warm.check(h, 1, method="hd")
            assert outcome.verdict == NO
            assert check_hd_reference(h, 1) is None, h.name
        assert warm.stats.executed == 0
        assert warm.stats.implied == len(refuted)

    def test_interleaved_batch_prunes_and_matches_reference(self):
        graphs = self.graphs()

        def interleaved_specs():
            specs = []
            for h in graphs:
                for k in (1, 2, 3):
                    specs.append(JobSpec.check(h, k, method="hd"))
                    specs.append(JobSpec.check(h, k, method="balsep"))
            return specs

        # cold run on a *method-disjoint* warm-up: hd width sweeps only
        store = ResultStore()
        seeder = DecompositionEngine(store=store)
        seeder.run_batch([JobSpec.width(h, self.MAX_K, method="hd") for h in graphs])

        warm = DecompositionEngine(store=store)
        report = warm.run_batch(interleaved_specs())
        # ghw jobs were never executed before, yet some are served from the
        # hw rows via the knowledge layer
        assert report.pruned > 0
        assert warm.stats.implied > 0
        for result in report.results:
            h = result.spec.hypergraph
            k = result.spec.k
            if result.verdict not in (YES, NO):
                continue
            if result.spec.method == "hd":
                expected = YES if check_hd_reference(h, k) is not None else NO
            else:
                expected = (
                    YES if check_ghd_balsep_reference(h, k) is not None else NO
                )
            assert result.verdict == expected, (h.name, result.spec.method, k)
