"""The fingerprint-sharded result store.

Routing determinism (every process agrees on each row's home shard),
one-shard writes (a verdict is one transaction on its owner shard, and
``implied``/``kind_bounds`` answer from the owner alone), the aggregated
accounting surfaces the CLI ``cache stats|clear|bounds`` commands sit on,
lookups that write nothing, and in-place migration of a pre-shard
single-file cache."""

from __future__ import annotations

import json
import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import NO, YES, CheckOutcome
from repro.engine import (
    DecompositionEngine,
    JobSpec,
    ResultStore,
    ShardedResultStore,
    fingerprint,
    open_result_store,
)
from repro.engine.shards import shard_for
from repro.errors import ReproError
from tests.conftest import clique_hypergraph, random_hypergraph
from tests.test_cross_bounds import OLD_KIND_BOUNDS, write_pr2_era_store


def _fingerprints(count: int) -> list[str]:
    return [fingerprint(random_hypergraph(seed)) for seed in range(count)]


# ---------------------------------------------------------------- routing


class TestRouting:
    def test_routing_is_deterministic_and_in_range(self):
        for n_shards in (1, 2, 4, 7):
            for fp in _fingerprints(20):
                route = shard_for(fp, n_shards)
                assert 0 <= route < n_shards
                assert route == shard_for(fp, n_shards)  # stable
                assert route == int(fp[:2], 16) % n_shards

    def test_non_hex_fingerprints_still_route(self):
        assert 0 <= shard_for("not-hex-at-all", 4) < 4
        assert shard_for("not-hex-at-all", 4) == shard_for("not-hex-at-all", 4)

    def test_rows_land_on_their_routed_shard(self, tmp_path):
        fps = _fingerprints(12)
        with ShardedResultStore(tmp_path / "cache.d", shards=4) as store:
            for fp in fps:
                store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            for fp in fps:
                owner = shard_for(fp, 4)
                for index, shard in enumerate(store.shards):
                    # bounds=False asks for the literal row, which only
                    # the owner holds
                    hit = shard.get(fp, "hd", 2, None, bounds=False)
                    assert (hit is not None) == (index == owner)

    def test_reopen_recovers_the_same_routing(self, tmp_path):
        fps = _fingerprints(8)
        with ShardedResultStore(tmp_path / "cache.d", shards=3) as store:
            for fp in fps:
                store.put(fp, "hd", 2, None, CheckOutcome("no", 0.1))
        # no shard count passed: the manifest decides
        with open_result_store(tmp_path / "cache.d") as store:
            assert isinstance(store, ShardedResultStore)
            assert store.n_shards == 3
            for fp in fps:
                assert store.get(fp, "hd", 2, None).verdict == "no"

    def test_conflicting_shard_count_is_refused(self, tmp_path):
        with ShardedResultStore(tmp_path / "cache.d", shards=2):
            pass
        with pytest.raises(ReproError, match="resharding"):
            ShardedResultStore(tmp_path / "cache.d", shards=5)


# ------------------------------------------------------ one-shard writes


def _rows_on(shard: ResultStore, fp: str) -> int:
    return shard._conn.execute(
        "SELECT COUNT(*) FROM results WHERE fingerprint = ?", (fp,)
    ).fetchone()[0]


class TestOneShardPerVerdict:
    def test_a_put_changes_exactly_one_shard(self, tmp_path):
        with ShardedResultStore(tmp_path / "cache.d", shards=4) as store:
            for fp in _fingerprints(10):
                for k, verdict in ((1, "no"), (2, "yes")):
                    before = [shard._conn.total_changes for shard in store.shards]
                    store.put(fp, "hd", k, None, CheckOutcome(verdict, 0.1))
                    changed = [
                        index
                        for index, shard in enumerate(store.shards)
                        if shard._conn.total_changes != before[index]
                    ]
                    assert changed == [shard_for(fp, 4)]

    def test_a_put_is_one_statement(self, tmp_path):
        """A verdict is one row: no derived table is written beside it."""
        fp = _fingerprints(1)[0]
        with ResultStore(tmp_path / "cache.db") as store:
            statements: list[str] = []
            store._conn.set_trace_callback(statements.append)
            for method, k, verdict in (
                ("hd", 1, NO), ("hd", 2, YES), ("balsep", 2, YES), ("mystery", 2, NO)
            ):
                statements.clear()
                store.put(fp, method, k, None, CheckOutcome(verdict, 0.1))
                assert len(statements) == 1, statements
                assert statements[0].startswith("INSERT OR REPLACE INTO results")
            store._conn.set_trace_callback(None)
            assert store.bounds(fp, "hd") == (2, 2)

    def test_implied_and_kind_bounds_answer_from_the_owner(self, tmp_path):
        fps = _fingerprints(10)
        with ShardedResultStore(tmp_path / "cache.d", shards=4) as store:
            for fp in fps:
                store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            for fp in fps:
                implied = store.implied(fp, "balsep", 2)  # hw <= 2 => ghw <= 2
                assert implied is not None and implied.verdict == "yes"
                assert store.kind_bounds(fp, "hw") == (1, 2)
                owner = shard_for(fp, 4)
                for index, shard in enumerate(store.shards):
                    assert (_rows_on(shard, fp) > 0) == (index == owner)
                    if index != owner:
                        assert shard.kind_bounds(fp, "hw") == (1, None)

    def test_a_failed_put_leaves_no_row_and_unchanged_bounds(self, tmp_path):
        fp = _fingerprints(1)[0]
        with ShardedResultStore(tmp_path / "cache.d", shards=4) as store:
            store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            owner = store.shards[shard_for(fp, 4)]
            # a trigger on the owner's connection makes the row write fail
            owner._conn.execute(
                "CREATE TEMP TRIGGER fail_put BEFORE INSERT ON results"
                " BEGIN SELECT RAISE(ABORT, 'row write failed'); END"
            )
            with pytest.raises(sqlite3.IntegrityError, match="row write failed"):
                store.put(fp, "hd", 1, None, CheckOutcome("no", 0.1))
            owner._conn.execute("DROP TRIGGER fail_put")

            assert store.get(fp, "hd", 1, None, bounds=False) is None
            assert len(store) == 1
            assert store.bounds(fp, "hd") == (1, 2)
            assert not owner._conn.in_transaction
            # the store still takes writes after the failed one
            store.put(fp, "hd", 1, None, CheckOutcome("no", 0.1))
            assert store.bounds(fp, "hd") == (2, 2)

    def test_aggregate_kind_rows_dedupe_replicas(self, tmp_path):
        fps = _fingerprints(6)
        with ShardedResultStore(tmp_path / "cache.d", shards=4) as store:
            for fp in fps:
                store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            rows = store.kind_bounds_rows()
            keys = [(fp, kind) for fp, kind, _lo, _hi in rows]
            assert len(keys) == len(set(keys)), "replicas leaked into the view"
            assert {fp for fp, _ in keys} == set(fps)

    def test_stale_replicas_in_an_older_cache_are_ignored(self, tmp_path, capsys):
        """Older versions copied each fingerprint's kind_bounds rows to every
        shard and stopped refreshing the copies; intervals derive from the
        owner's rows alone."""
        cache_dir = tmp_path / "cache.d"
        fp = "00" + "ab" * 31  # owned by shard 0; the copies sit after it
        with ShardedResultStore(cache_dir, shards=4) as store:
            store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            store.put(fp, "hd", 1, None, CheckOutcome("no", 0.1))
        for index in (1, 2, 3):
            shard_file = cache_dir / f"shard-{index:02d}.db"
            with closing(sqlite3.connect(shard_file)) as conn, conn:
                conn.execute(OLD_KIND_BOUNDS)
                conn.execute(
                    "INSERT OR REPLACE INTO kind_bounds (fingerprint, kind, lo, hi)"
                    " VALUES (?, 'hw', 1, 5)",
                    (fp,),
                )
        with open_result_store(cache_dir) as store:
            assert store.kind_bounds(fp, "hw") == (2, 2)
            assert [r for r in store.kind_bounds_rows() if r[1] == "hw"] == [
                (fp, "hw", 2, 2)
            ]
        assert main(["cache", "bounds", "--cache", str(cache_dir), "--kind", "hw"]) == 0
        lines = capsys.readouterr().out.splitlines()
        kind_lines = [line.split() for line in lines if line.split()[1:2] == ["hw"]]
        assert kind_lines == [[fp[:12] + "..", "hw", "2", "2"]]


# ------------------------------------------------------ lookups are reads


def _seed_k5(store):
    """K5 has hw = ghw = 3: a refutation at 2 and an HD at 3 answer exact,
    bounds-implied and cross-kind lookups."""
    k5 = clique_hypergraph(5)
    fp = fingerprint(k5)
    store.put(fp, "hd", 2, None, CheckOutcome(NO, 0.1))
    store.put(fp, "hd", 3, None, CheckOutcome(YES, 0.1, check_hd(k5, 3)))
    return k5, fp


class TestLookupsAreReads:
    @pytest.mark.parametrize("layout", ["plain", "sharded"])
    def test_a_lookup_writes_nothing(self, tmp_path, layout):
        if layout == "plain":
            store = ResultStore(tmp_path / "cache.db")
            connections = [store._conn]
        else:
            store = ShardedResultStore(tmp_path / "cache.d", shards=2)
            connections = [shard._conn for shard in store.shards]
        with store:
            _, fp = _seed_k5(store)
            before = [conn.total_changes for conn in connections]
            assert store.get(fp, "hd", 3, None).verdict == YES  # exact row
            assert store.get(fp, "hd", 5, None).implied  # yes at 3 => yes at 5
            assert store.get(fp, "hd", 1, None).implied  # no at 2 => no at 1
            crossed = store.get(fp, "balsep", 3, None)  # hw <= 3 => ghw <= 3
            assert crossed.implied and crossed.decomposition_json is not None
            assert store.get(fp, "balsep", 2, None) is None
            for other in _fingerprints(4):
                assert store.get(other, "hd", 2, None) is None
            assert [conn.total_changes for conn in connections] == before

    @pytest.mark.parametrize(
        "kind, method, k, implied",
        [
            ("check", "hd", 3, False),
            ("check", "hd", 5, True),
            ("check", "balsep", 3, True),
            ("width", "hd", 4, True),  # k = 1 implied, k = 2 and 3 exact
        ],
        ids=["exact", "implied", "cross_kind", "width"],
    )
    def test_a_store_answer_is_one_write(self, tmp_path, kind, method, k, implied):
        store = ResultStore(tmp_path / "cache.db")
        k5, _ = _seed_k5(store)
        statements: list[str] = []
        store._conn.set_trace_callback(statements.append)
        make = JobSpec.check if kind == "check" else JobSpec.width
        with DecompositionEngine(store=store) as engine:
            result = engine.try_replay(make(k5, k, method))
            assert result is not None and result.cached
            assert result.implied == implied
            writes = [s for s in statements if not s.lstrip().upper().startswith("SELECT")]
            assert len(writes) == 1 and writes[0].startswith("INSERT INTO meta"), writes
            assert engine.stats.cache_hits == store.stats.session_hits > 0


# ------------------------------------------------------------- accounting


class TestAccountingAndEviction:
    def test_engine_runs_identically_on_a_sharded_store(self, tmp_path):
        specs = [JobSpec.check(random_hypergraph(seed), 2) for seed in range(12)]
        sharded = DecompositionEngine(
            store=ShardedResultStore(tmp_path / "cache.d", shards=4)
        )
        plain = DecompositionEngine(store=ResultStore())
        assert [r.verdict for r in sharded.run_batch(specs).results] == [
            r.verdict for r in plain.run_batch(specs).results
        ]
        # second pass: everything replays from the shards
        rerun = sharded.run_batch(specs)
        assert rerun.executed == 0
        assert rerun.cache_hits == len(specs)

    def test_cli_cache_stats_aggregates_shards(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache.d"
        with ShardedResultStore(cache_dir, shards=4) as store:
            for fp in _fingerprints(10):
                store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
            for index, hits in enumerate((4, 3, 2, 1)):
                store.shards[index].record(hits=hits)  # lifetime hits on each
        assert main(["cache", "stats", "--cache", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries      10" in out
        assert "hits         10" in out

    def test_cli_cache_clear_empties_every_shard(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache.d"
        with ShardedResultStore(cache_dir, shards=4) as store:
            for fp in _fingerprints(10):
                store.put(fp, "hd", 2, None, CheckOutcome("yes", 0.1))
        assert main(["cache", "clear", "--cache", str(cache_dir)]) == 0
        assert "cleared 10" in capsys.readouterr().out
        with open_result_store(cache_dir) as store:
            assert len(store) == 0
            assert all(len(shard) == 0 for shard in store.shards)


# --------------------------------------------------------------- migration


class TestSingleFileMigration:
    def test_pre_shard_file_migrates_in_place(self, tmp_path, triangle):
        """A PR 2-era single-file cache becomes a shard directory, losslessly.

        The old file predates the knowledge layer *and* the shard layout:
        opening it sharded distributes its rows, and the owner derives the
        knowledge layer from them."""
        path = tmp_path / "cache.db"
        fp = write_pr2_era_store(path, triangle)

        with ShardedResultStore(path, shards=2) as store:
            assert store.n_shards == 2
            assert len(store) == 3
            hit = store.get(fp, "hd", 2, None)
            assert hit.verdict == "yes"
            assert hit.decomposition_json is not None
            assert store.bounds(fp, "hd") == (2, 2)
            # the owner derives the knowledge layer from its migrated rows
            owner = shard_for(fp, 2)
            assert store.shards[owner].kind_bounds(fp, "hw") == (2, 2)
            assert _rows_on(store.shards[1 - owner], fp) == 0
            assert store.shards[1 - owner].kind_bounds(fp, "hw") == (1, None)

        assert path.is_dir()
        backup = tmp_path / "cache.db.preshard"
        assert backup.is_file(), "original file must survive as a backup"
        manifest = json.loads((path / "shards.json").read_text())
        assert manifest == {"version": 1, "shards": 2}

    def test_migrated_rows_route_correctly(self, tmp_path, triangle):
        path = tmp_path / "cache.db"
        fp = write_pr2_era_store(path, triangle)
        with ShardedResultStore(path, shards=2) as store:
            owner = shard_for(fp, 2)
            for index, shard in enumerate(store.shards):
                held = shard.get(fp, "hd", 2, None, bounds=False)
                assert (held is not None) == (index == owner)

    def test_lifetime_counters_survive_migration(self, tmp_path, triangle):
        path = tmp_path / "cache.db"
        write_pr2_era_store(path, triangle)  # records hits=5 in meta
        with ShardedResultStore(path, shards=4) as store:
            assert store.stats.hits == 5

    def test_open_result_store_picks_the_right_flavour(self, tmp_path, triangle):
        assert isinstance(open_result_store(None), ResultStore)
        assert isinstance(open_result_store(None, shards=4), ShardedResultStore)
        single = tmp_path / "single.db"
        with open_result_store(single) as store:
            assert isinstance(store, ResultStore)
        # a single file + --shards migrates; the manifest then sticks
        with open_result_store(single, shards=2) as store:
            assert isinstance(store, ShardedResultStore)
        with open_result_store(single) as store:
            assert isinstance(store, ShardedResultStore)
            assert store.n_shards == 2
