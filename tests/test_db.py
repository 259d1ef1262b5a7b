"""The SQLite helper that opens the job queue's and the result store's files.

A second connection holds ``BEGIN IMMEDIATE`` on the file, so every write
the helper's connection tries gets ``SQLITE_BUSY``.  The helper's
``time.sleep`` is replaced by a recorder, so the waits are exact and take no
wall time; one test lets a real holder thread release the lock instead.
"""

from __future__ import annotations

import sqlite3
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.engine import db
from repro.errors import ReproError

SCHEMA = "CREATE TABLE IF NOT EXISTS t (x INTEGER);"


@pytest.fixture
def busy(tmp_path):
    """(the helper's connection, a plain connection holding the write lock)."""
    path = str(tmp_path / "busy.db")
    conn = db.connect(path, SCHEMA, "test file")
    holder = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    holder.execute("BEGIN IMMEDIATE")
    yield conn, holder
    holder.close()
    conn.close()


def record_sleeps(monkeypatch, after_each=None) -> list[float]:
    """Replace the helper's sleep; ``after_each(sleeps)`` runs after each."""
    sleeps: list[float] = []

    def sleep(seconds: float) -> None:
        sleeps.append(seconds)
        if after_each is not None:
            after_each(sleeps)

    monkeypatch.setattr(db, "time", SimpleNamespace(sleep=sleep))
    return sleeps


def rows(conn) -> int:
    return conn.execute("SELECT COUNT(*) FROM t").fetchone()[0]


class TestBusyRetry:
    @pytest.mark.parametrize("write", ["autocommit", "transaction"])
    def test_sleeps_double_from_a_tenth_of_a_millisecond_until_the_lock_frees(
        self, busy, monkeypatch, write
    ):
        conn, holder = busy

        def commit_after_eight(sleeps):
            if len(sleeps) == 8:
                holder.execute("COMMIT")

        sleeps = record_sleeps(monkeypatch, commit_after_eight)
        if write == "autocommit":
            conn.execute("INSERT INTO t VALUES (1)")
        else:  # BEGIN IMMEDIATE waits; the statements inside never need to
            with db.transaction(conn):
                conn.execute("INSERT INTO t VALUES (1)")
        assert sleeps[0] <= 0.0002
        assert sleeps == pytest.approx(
            [0.0001, 0.0002, 0.0004, 0.0008, 0.0016, 0.002, 0.002, 0.002]
        )
        assert rows(conn) == 1

    def test_the_busy_error_surfaces_after_five_seconds_of_sleep(
        self, busy, monkeypatch
    ):
        conn, _ = busy
        sleeps = record_sleeps(monkeypatch)
        with pytest.raises(sqlite3.OperationalError, match="database is locked") as caught:
            conn.execute("INSERT INTO t VALUES (1)")
        assert sum(sleeps[:-1]) < db.BUSY_TIMEOUT <= sum(sleeps)
        assert max(sleeps) == pytest.approx(0.002)
        if sys.version_info >= (3, 11):
            assert caught.value.sqlite_errorcode & 0xFF == sqlite3.SQLITE_BUSY
        assert not conn.in_transaction

    def test_a_statement_inside_an_explicit_transaction_is_never_retried(
        self, busy, monkeypatch
    ):
        conn, _ = busy
        sleeps = record_sleeps(monkeypatch)
        conn.execute("BEGIN")
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            conn.execute("INSERT INTO t VALUES (1)")
        conn.execute("ROLLBACK")
        assert sleeps == []

    def test_other_errors_are_not_retried(self, busy, monkeypatch):
        conn, _ = busy
        sleeps = record_sleeps(monkeypatch)
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            conn.execute("INSERT INTO missing VALUES (1)")
        assert sleeps == []

    def test_a_busy_error_without_a_code_is_matched_by_its_message(
        self, monkeypatch
    ):
        """Before Python 3.11 an ``OperationalError`` carries no
        ``sqlite_errorcode``; SQLite's message names ``SQLITE_BUSY``."""
        conn = db.connect(":memory:", SCHEMA, "test file")
        sleeps = record_sleeps(monkeypatch)
        busy = sqlite3.OperationalError("database is locked")
        assert getattr(busy, "sqlite_errorcode", None) is None
        raised = [busy]  # fails once more after the first failure

        def run(conn, sql, parameters):
            if raised:
                raise raised.pop()
            return "ran"

        changes = conn.total_changes
        assert conn._retry(busy, run, "SELECT 1", (), changes) == "ran"
        assert len(sleeps) == 2
        locked = sqlite3.OperationalError("database table is locked")
        assert db._is_busy(busy) and not db._is_busy(locked)
        conn.close()

    def test_a_real_holder_is_waited_for(self, busy):
        conn, holder = busy
        release = threading.Timer(0.05, holder.execute, ("COMMIT",))
        release.start()
        started = time.monotonic()
        try:
            with db.transaction(conn):
                conn.execute("INSERT INTO t VALUES (1)")
        finally:
            release.join(timeout=5)
        assert not release.is_alive()
        assert time.monotonic() - started >= 0.04
        assert rows(conn) == 1


def test_a_file_that_is_no_database_is_named_in_the_error(tmp_path):
    path = tmp_path / "junk.db"
    path.write_bytes(b"not a database, " * 64)
    with pytest.raises(ReproError, match="is not a test file"):
        db.connect(str(path), SCHEMA, "test file")
