"""How the job queue and the result store open and write their SQLite files.

:func:`connect` is the one place a :class:`~repro.engine.queue.JobQueue` or
a :class:`~repro.engine.store.ResultStore` opens its file, and
:func:`transaction` the one ``BEGIN IMMEDIATE … COMMIT`` block their
multi-statement writes run in.

In WAL mode only writers contend, for the file's one write lock, and a
single-row write holds it for a fraction of a millisecond.  SQLite's busy
handler sleeps 1, 2, 5, 10 … ms per collision, so :func:`connect` sets the
busy timeout to 0 once the file is set up and its :class:`Connection` waits
itself: a statement that got ``SQLITE_BUSY`` outside an explicit
transaction sleeps 0.1 ms and runs again, doubling the sleep up to 2 ms,
and after 5 s of sleeping (the busy timeout it replaces) the ``database is
locked`` error surfaces.  ``BEGIN IMMEDIATE`` runs outside a transaction,
so it waits in these steps.  A statement inside one is never run again: the
transaction must roll back instead.

>>> conn = connect(":memory:", "CREATE TABLE t (x INTEGER);", "demo table")
>>> with transaction(conn):
...     _ = conn.execute("INSERT INTO t VALUES (1)")
>>> conn.execute("SELECT x FROM t").fetchall()
[(1,)]
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager

from repro.errors import ReproError

__all__ = ["BUSY_TIMEOUT", "Connection", "connect", "transaction"]

#: Seconds a statement sleeps in all before a busy write lock fails it.
BUSY_TIMEOUT = 5.0
#: The first sleep after ``SQLITE_BUSY``; each further one doubles it, up
#: to the cap.
_FIRST_PAUSE = 0.0001
_MAX_PAUSE = 0.002

_SQLITE_BUSY = 5
#: The C methods, called unbound: cheaper than ``super()`` per statement.
_EXECUTE = sqlite3.Connection.execute
_EXECUTEMANY = sqlite3.Connection.executemany


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    """Whether ``exc`` is ``SQLITE_BUSY`` (any extended code).  Before
    Python 3.11 the error carries no code, only SQLite's message."""
    code = getattr(exc, "sqlite_errorcode", None)
    if code is None:
        return str(exc) == "database is locked"
    return code & 0xFF == _SQLITE_BUSY


class Connection(sqlite3.Connection):
    """A connection whose statements wait for a busy write lock in short
    steps (see the module docstring)."""

    def execute(self, sql, parameters=(), /):
        try:
            return _EXECUTE(self, sql, parameters)
        except sqlite3.OperationalError as exc:
            # a statement that failed changed no row
            return self._retry(exc, _EXECUTE, sql, parameters, self.total_changes)

    def executemany(self, sql, parameters, /):
        rows, changes = list(parameters), self.total_changes
        try:
            return _EXECUTEMANY(self, sql, rows)
        except sqlite3.OperationalError as exc:
            return self._retry(exc, _EXECUTEMANY, sql, rows, changes)

    def _retry(self, exc, run, sql, parameters, changes):
        """Run ``sql`` again after the error ``exc`` while it is a busy
        error outside a transaction, less than :data:`BUSY_TIMEOUT` was
        slept, and the connection has changed no row since it counted
        ``changes`` (an autocommit ``executemany`` commits row by row, so
        one that failed part-way must not run again); else raise the last
        error."""
        slept, pause = 0.0, _FIRST_PAUSE
        while not (
            self.in_transaction
            or slept >= BUSY_TIMEOUT
            or self.total_changes != changes
            or not _is_busy(exc)
        ):
            time.sleep(pause)
            slept += pause
            pause = min(2 * pause, _MAX_PAUSE)
            try:
                return run(self, sql, parameters)
            except sqlite3.OperationalError as again:
                exc = again
        raise exc


def connect(path: str, schema: str, what: str) -> Connection:
    """Open ``path`` in autocommit mode for use from any thread.

    A file gets WAL and ``synchronous=NORMAL`` (an in-memory database
    keeps its own journal), then ``schema`` runs, all in one script under
    SQLite's 5 s busy timeout; after that the busy timeout is 0 and
    :class:`Connection` does the waiting.  Raises :class:`ReproError`
    calling the file no ``what`` when SQLite cannot open it as a database.
    """
    conn = None
    try:
        conn = sqlite3.connect(
            path,
            timeout=BUSY_TIMEOUT,
            isolation_level=None,
            check_same_thread=False,
            factory=Connection,
        )
        conn.executescript(
            "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL;" + schema
        )
        conn.execute("PRAGMA busy_timeout=0")
    except sqlite3.DatabaseError as exc:
        if conn is not None:
            conn.close()
        raise ReproError(f"{path} is not a {what}: {exc}") from exc
    return conn


@contextmanager
def transaction(conn: sqlite3.Connection):
    """``BEGIN IMMEDIATE … COMMIT``, or ``ROLLBACK`` when the block raises.

    The block's statements commit together or not at all, and the write
    lock is taken before the first read, so two processes can never both
    read a row that each then updates."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")
