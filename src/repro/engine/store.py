"""A SQLite-backed, content-addressed store of decomposition results.

Every row is one ``Check(H, k)`` (or portfolio / width-building-block)
verdict, keyed by ``(fingerprint, method, k, timeout)``.  Definite answers
(yes / no) are facts about the hypergraph and therefore *timeout
independent*: a lookup that misses its exact timeout key still returns a
stored definite answer for the same ``(fingerprint, method, k)``.  Timeout
verdicts, by contrast, only replay for the exact budget they were observed
under.

Serialized decompositions travel through :mod:`repro.io.json_io`, so
anything the store hands back can be validated by the independent checkers
in :mod:`repro.core.decomposition`.

The store keeps lifetime hit/miss counters in a ``meta`` table (surfaced by
``repro cache stats``) plus per-session counters.  A lookup only reads: the
caller that knows what a lookup meant books it with :meth:`ResultStore.record`.

On top of the row cache sits a per-``(fingerprint, method)`` **bounds index**:
``Check(H, k)`` is monotone in ``k`` for every method whose search space only
grows with ``k`` (a decomposition of width ≤ k is one of width ≤ k + 1, and a
definite "no" at k refutes every smaller k), so every stored definite verdict
implies verdicts at other widths.  The index is the derived interval
``lo <= width <= hi`` — ``lo`` is one past the largest refuted k, ``hi`` the
smallest accepted k — and :meth:`ResultStore.get` answers *implied* keys from
it when no row matches: ``k >= hi`` replays the witnessing yes-row (its
decomposition is valid evidence at any larger k; a witness-required
method gets no such "yes"), ``k < lo`` is a derived "no".  Only methods
the :mod:`repro.engine.methods` registry marks monotone participate (see
:data:`MONOTONE_METHODS`); custom registered methods make no monotonicity
promise.  The index is not stored: every reader derives it
from the fingerprint's rows with one grouped query over ``results``, whose
primary key already orders them by ``(fingerprint, method, k)``, so it never
claims more than the rows present can justify.

On top of the per-method index sits the **cross-method knowledge layer**:
the paper's width notions are related by the proven inequalities

    fhw(H) ≤ ghw(H) ≤ hw(H) ≤ 3·ghw(H) + 1

so a verdict recorded under one method constrains every method of a related
*width kind*.  :data:`WIDTH_RELATIONS` encodes the inequalities as interval
transforms between kinds; a reader folds each method's direct interval into
its width kind and propagates the kind intervals to a fixpoint.
:meth:`ResultStore.implied` consults them after the direct interval: an hw
"yes" at ``k`` answers a ghw check at ``k`` instantly (with the witnessing
decomposition borrowed from any same-kind method whose witness kind
matches), and a ghw "no" at ``k`` refutes an hw check at ``k`` — closing
gaps no single method's rows could.

**Contradictions.**  Rows that contradict each other close an interval
(``lo > hi``): an hd "yes" at 2 and "no" at 3 say nothing true about larger
k.  When the asked method's interval closes, or any kind interval closes
after the fixpoint, the store serves no derived answer for that
fingerprint: :meth:`ResultStore.implied` returns ``None`` and
:meth:`ResultStore.effective_bounds` ``(1, None)``, so only exact rows
answer.  :meth:`ResultStore.bounds` and :meth:`ResultStore.kind_bounds`
still report the raw interval.

Files written by older builds also hold ``bounds`` and ``kind_bounds``
tables, copies of these intervals that those builds rewrote on every put.
This build neither reads nor writes them.  :meth:`ResultStore.clear` drops
them, so a cleared file holds nothing an older build could answer from;
opening a file never does, because an older build may share it.

**Concurrency.**  A store may be shared between threads (the service layer
peeks from its event loop while a batch wave writes from a worker thread)
and between processes (several ``repro`` invocations pointing at the same
``--cache`` file).  Every public method serialises on an internal reentrant
lock, and :func:`repro.engine.db.connect` opens the file for use from any
thread, in SQLite's WAL journal mode — readers never block the writer.  A
write that finds another process holding the write lock retries in 0.1-2 ms
steps for up to 5 s (SQLite's own busy handler would sleep 1, 2, 5, 10 …
ms) and fails with ``database is locked`` only after that.  A verdict is
one row: ``put`` is a single ``INSERT`` and so one commit.  ``clear`` and
``import_rows`` are one :func:`repro.engine.db.transaction` (``BEGIN
IMMEDIATE … COMMIT``) each.  A lookup (``get``, ``implied``, the bounds
readers) takes no write lock and appends nothing to the WAL.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import NO, YES, CheckOutcome
from repro.engine import methods as _methods
from repro.engine.db import connect, transaction
from repro.io.json_io import decomposition_from_json, decomposition_to_json
from repro.obs.metrics import REGISTRY

# Process-wide store metric families, published at the mutation sites (all
# stores in the process aggregate here; per-store numbers stay on StoreStats).
_M_HITS = REGISTRY.counter(
    "repro_store_hits_total", "Result-store lookups answered from a stored row."
)
_M_MISSES = REGISTRY.counter(
    "repro_store_misses_total", "Result-store lookups that found nothing."
)
_M_IMPLIED = REGISTRY.counter(
    "repro_store_implied_total",
    "Store hits derived from the bounds index rather than an exact row.",
)

__all__ = [
    "MONOTONE_METHODS",
    "WIDTH_RELATIONS",
    "WidthRelation",
    "ResultStore",
    "StoredResult",
    "StoreStats",
    "timeout_key",
]


class _MonotoneMethodsView:
    """Live set-like view of the registry's monotone method names.

    Replaces the old hand-maintained frozenset: membership follows the
    :mod:`repro.engine.methods` registry, so a method registered with
    ``monotone=True`` feeds the bounds index without touching the store.
    """

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        spec = _methods.get_optional(name)
        return spec is not None and spec.monotone

    def __iter__(self):
        return iter(sorted(_methods.monotone_names()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MONOTONE_METHODS view: {sorted(self)}>"


#: Methods whose ``Check(H, k)`` verdicts are monotone in ``k`` and therefore
#: feed the bounds index (a live view over the method registry).  Custom
#: methods registered at runtime are excluded by default: the store cannot
#: know whether their search spaces are nested.
MONOTONE_METHODS = _MonotoneMethodsView()


@dataclass(frozen=True)
class WidthRelation:
    """One provable interval transform between two width kinds.

    A source-kind fact ``width_src ≥ lo`` yields ``width_dst ≥ lo_map(lo)``;
    ``width_src ≤ hi`` yields ``width_dst ≤ hi_map(hi)``.  A relation carries
    one direction only (``None`` for the other).
    """

    src: str
    dst: str
    lo_map: "callable | None" = None
    hi_map: "callable | None" = None


def _ghw_lower_from_hw(lo: int) -> int:
    # hw ≥ lo and hw ≤ 3·ghw + 1  ⇒  ghw ≥ ⌈(lo − 1) / 3⌉.
    return max(1, -(-(lo - 1) // 3))


#: The paper's inter-width inequalities (fhw ≤ ghw ≤ hw ≤ 3·ghw + 1) as
#: interval transforms.  Upper bounds flow *down* the chain (an hw "yes"
#: caps ghw and fhw), lower bounds flow *up* (a ghw "no" lifts hw), and the
#: 3·ghw + 1 bound closes the loop in both directions.
WIDTH_RELATIONS: tuple[WidthRelation, ...] = (
    # ghw ≤ hw
    WidthRelation(_methods.HW, _methods.GHW, hi_map=lambda hi: hi),
    WidthRelation(_methods.GHW, _methods.HW, lo_map=lambda lo: lo),
    # hw ≤ 3·ghw + 1
    WidthRelation(_methods.GHW, _methods.HW, hi_map=lambda hi: 3 * hi + 1),
    WidthRelation(_methods.HW, _methods.GHW, lo_map=_ghw_lower_from_hw),
    # fhw ≤ ghw (and hence ≤ hw, via the chain)
    WidthRelation(_methods.GHW, _methods.FHW, hi_map=lambda hi: hi),
    WidthRelation(_methods.FHW, _methods.GHW, lo_map=lambda lo: lo),
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT NOT NULL,
    method      TEXT NOT NULL,
    k           INTEGER NOT NULL,
    timeout     TEXT NOT NULL,
    verdict     TEXT NOT NULL,
    seconds     REAL NOT NULL,
    decomposition TEXT,
    extra       TEXT,
    created_at  REAL NOT NULL,
    last_used   REAL NOT NULL,
    use_count   INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, method, k, timeout)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""


#: A width interval ``(lo, hi)``: ``lo <= width``, and ``width <= hi``
#: unless ``hi`` is ``None``.
_Interval = tuple[int, int | None]


def _kind_intervals(direct: dict[str, _Interval]) -> dict[str, _Interval]:
    """The per-kind intervals that per-method intervals imply.

    Each monotone method's direct interval is folded into its *decision
    kind* (the width kind whose ``≤ k`` question its verdicts answer), then
    the :data:`WIDTH_RELATIONS` transforms propagate the intervals across
    kinds until nothing tightens.  The fixpoint exists because ``lo`` only
    ever rises and ``hi`` only ever falls within the bounded lattice the
    relations span; the iteration cap is defensive.
    """
    intervals: dict[str, list] = {}
    for method, (lo, hi) in direct.items():
        kind = _methods.decision_kind_of(method)
        if kind is None:
            continue
        current = intervals.setdefault(kind, [1, None])
        current[0] = max(current[0], lo)
        if hi is not None:
            current[1] = hi if current[1] is None else min(current[1], hi)

    for _ in range(8):  # defensive cap; 2-3 passes suffice in practice
        changed = False
        for relation in WIDTH_RELATIONS:
            src = intervals.get(relation.src)
            if src is None:
                continue
            dst = intervals.setdefault(relation.dst, [1, None])
            if relation.lo_map is not None:
                derived_lo = relation.lo_map(src[0])
                if derived_lo > dst[0]:
                    dst[0] = derived_lo
                    changed = True
            if relation.hi_map is not None and src[1] is not None:
                derived_hi = relation.hi_map(src[1])
                if dst[1] is None or derived_hi < dst[1]:
                    dst[1] = derived_hi
                    changed = True
        if not changed:
            break
    return {kind: (lo, hi) for kind, (lo, hi) in intervals.items()}


def _closes(interval: _Interval) -> bool:
    """Whether contradicting rows closed the interval (``lo > hi``)."""
    lo, hi = interval
    return hi is not None and lo > hi


def timeout_key(timeout: float | None) -> str:
    """Normalise a timeout into a stable text key (``None`` → ``"none"``)."""
    return "none" if timeout is None else repr(float(timeout))


@dataclass
class StoredResult:
    """One cached verdict, decomposition still in its serialized form.

    ``implied`` marks an answer derived from the bounds index rather than a
    stored row for the exact key: the verdict is certain (monotonicity), the
    ``seconds`` are zero (no work was replayed), and for a "yes" the
    decomposition is the witnessing row's — valid evidence at any larger k.
    """

    verdict: str
    seconds: float
    decomposition_json: str | None = None
    extra: dict | None = None
    implied: bool = False

    def outcome(self, hypergraph: Hypergraph | None = None) -> CheckOutcome:
        """Rebuild the :class:`CheckOutcome` (decomposition needs the graph)."""
        decomposition = None
        if self.decomposition_json is not None and hypergraph is not None:
            decomposition = decomposition_from_json(self.decomposition_json, hypergraph)
        return CheckOutcome(self.verdict, self.seconds, decomposition)


@dataclass
class StoreStats:
    """Lifetime (persisted) and session hit/miss accounting.

    ``implied`` counts the subset of ``hits`` answered by the bounds index
    rather than an exact row (lifetime and session respectively).
    """

    entries: int
    hits: int
    misses: int
    session_hits: int
    session_misses: int
    implied: int = 0
    session_implied: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultStore:
    """Persistent result cache; use as a context manager or call :meth:`close`.

    Verdicts round-trip by ``(fingerprint, method, k)``; definite answers
    stored at one ``k`` also answer *implied* keys via the bounds index:

    >>> from repro.decomp.driver import CheckOutcome
    >>> store = ResultStore()                       # ephemeral, in-memory
    >>> store.put("fp", "hd", 2, None, CheckOutcome("yes", 0.1))
    >>> store.get("fp", "hd", 2, None).verdict
    'yes'
    >>> store.get("fp", "hd", 5, None).implied      # yes at 2 ⇒ yes at 5
    True
    >>> store.bounds("fp", "hd")
    (1, 2)

    Parameters
    ----------
    path:
        SQLite file path, or ``":memory:"`` for an ephemeral store.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self.session_hits = 0
        self.session_misses = 0
        self.session_implied = 0
        # Reentrant: public methods lock, then call other (locking) methods.
        self._lock = threading.RLock()
        self._conn = connect(self.path, _SCHEMA, "result store")

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- cache

    def get(
        self,
        fingerprint: str,
        method: str,
        k: int,
        timeout: float | None,
        bounds: bool = True,
    ) -> StoredResult | None:
        """Look up one result; a read that books nothing (see :meth:`record`).

        Lookup order: a definite answer for ``(fingerprint, method, k)``
        under *any* budget (yes/no are facts about the hypergraph), then —
        unless ``bounds=False`` — a definite answer implied by the bounds
        index (see :meth:`implied`), and only then the exact ``(…, timeout)``
        row, replaying a timeout verdict for its own budget.  Derived
        definite answers thus dominate stale timeout rows: once some other k
        settles the verdict, a recorded timeout at this key stops replaying.
        """
        with self._lock:
            # Definite answers are timeout independent; prefer one recorded
            # under any budget over a timeout verdict at the exact key.
            row = self._conn.execute(
                "SELECT verdict, seconds, decomposition, extra FROM results "
                "WHERE fingerprint = ? AND method = ? AND k = ? "
                "AND verdict IN (?, ?) LIMIT 1",
                (fingerprint, method, k, YES, NO),
            ).fetchone()
            if row is None and bounds:
                derived = self.implied(fingerprint, method, k)
                if derived is not None:
                    return derived
            if row is None:
                row = self._conn.execute(
                    "SELECT verdict, seconds, decomposition, extra FROM results "
                    "WHERE fingerprint = ? AND method = ? AND k = ? AND timeout = ?",
                    (fingerprint, method, k, timeout_key(timeout)),
                ).fetchone()
        if row is None:
            return None
        verdict, seconds, decomposition, extra = row
        return StoredResult(
            verdict,
            seconds,
            decomposition,
            json.loads(extra) if extra else None,
        )

    def put(
        self,
        fingerprint: str,
        method: str,
        k: int,
        timeout: float | None,
        outcome: CheckOutcome,
        extra: dict | None = None,
    ) -> None:
        """Persist one outcome (replacing any stale row under the same key).

        One statement: the intervals the store answers from are derived
        from the rows on read.
        """
        decomposition = (
            decomposition_to_json(outcome.decomposition)
            if outcome.decomposition is not None
            else None
        )
        # Nothing reads created_at/last_used/use_count; they are written so
        # builds that still name the columns can read and write the file.
        now = time.time()
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(fingerprint, method, k, timeout, verdict, seconds, decomposition,"
                " extra, created_at, last_used, use_count) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    fingerprint,
                    method,
                    k,
                    timeout_key(timeout),
                    outcome.verdict,
                    outcome.seconds,
                    decomposition,
                    json.dumps(extra, sort_keys=True) if extra else None,
                    now,
                    now,
                ),
            )

    def clear(self) -> None:
        """Drop every cached result and reset the lifetime counters.

        Also drops the ``bounds`` and ``kind_bounds`` tables an older build
        keeps in the file, so a cleared file holds nothing an older build
        could answer from.
        """
        with self._lock, transaction(self._conn):
            self._conn.execute("DELETE FROM results")
            self._conn.execute("DELETE FROM meta")
            self._conn.execute("DROP TABLE IF EXISTS bounds")
            self._conn.execute("DROP TABLE IF EXISTS kind_bounds")

    # ---------------------------------------------------------------- bounds

    def _direct_rows(
        self, fingerprint: str | None = None
    ) -> list[tuple[str, str, int, int | None]]:
        """``(fingerprint, method, lo, hi)`` for every monotone method with a
        definite row, of one fingerprint or of all, in key order."""
        where, params = "", ()
        if fingerprint is not None:
            where, params = "fingerprint = ? AND ", (fingerprint,)
        rows = self._conn.execute(
            "SELECT fingerprint, method, MAX(CASE WHEN verdict = ? THEN k END),"
            " MIN(CASE WHEN verdict = ? THEN k END) FROM results"
            f" WHERE {where}verdict IN (?, ?)"
            " GROUP BY fingerprint, method ORDER BY fingerprint, method",
            (NO, YES, *params, YES, NO),
        )
        return [
            (fp, method, (max_no or 0) + 1, min_yes)
            for fp, method, max_no, min_yes in rows
            if method in MONOTONE_METHODS
        ]

    def _intervals(
        self, fingerprint: str
    ) -> tuple[dict[str, _Interval], dict[str, _Interval]]:
        """The fingerprint's per-method and per-kind intervals."""
        direct = {
            method: (lo, hi) for _, method, lo, hi in self._direct_rows(fingerprint)
        }
        return direct, _kind_intervals(direct)

    def _answerable(
        self, fingerprint: str, method: str
    ) -> tuple[_Interval, dict[str, _Interval]] | None:
        """The method's direct interval and the kind intervals, or ``None``
        when the rows contradict each other: the method's interval or any
        kind interval closes, so no derived answer may be served."""
        direct, kinds = self._intervals(fingerprint)
        interval = direct.get(method, (1, None))
        if _closes(interval) or any(_closes(kind) for kind in kinds.values()):
            return None
        return interval, kinds

    def bounds(self, fingerprint: str, method: str) -> tuple[int, int | None]:
        """Derived width bounds ``(lo, hi)``: ``lo <= width``, ``width <= hi``.

        ``(1, None)`` when nothing definite is stored (every width is ≥ 1 and
        no upper bound is known).  These are the *direct* bounds — what the
        method's own rows prove, raw even when they contradict; see
        :meth:`kind_bounds` / :meth:`effective_bounds` for the cross-method
        knowledge.
        """
        with self._lock:
            direct, _ = self._intervals(fingerprint)
        return direct.get(method, (1, None))

    def kind_bounds(self, fingerprint: str, kind: str) -> tuple[int, int | None]:
        """The cross-method interval for one width kind (``(1, None)`` default)."""
        with self._lock:
            _, kinds = self._intervals(fingerprint)
        return kinds.get(kind, (1, None))

    def effective_bounds(self, fingerprint: str, method: str) -> tuple[int, int | None]:
        """Direct bounds tightened by the method's decision-kind interval.

        The upper bound is only borrowed across methods when an implied
        "yes" would actually replay for this method (witness-required
        methods execute instead — their deliverable is the decomposition).
        ``(1, None)`` when the fingerprint's rows contradict each other.
        """
        with self._lock:
            known = self._answerable(fingerprint, method)
        if known is None:
            return 1, None
        (lo, hi), kinds = known
        spec = _methods.get_optional(method)
        if spec is None or spec.decision_kind is None:
            return lo, hi
        kind_lo, kind_hi = kinds.get(spec.decision_kind, (1, None))
        lo = max(lo, kind_lo)
        if kind_hi is not None and not spec.witness_required:
            hi = kind_hi if hi is None else min(hi, kind_hi)
        return lo, hi

    def implied(self, fingerprint: str, method: str, k: int) -> StoredResult | None:
        """A verdict implied by the bounds index, or ``None``.

        The method's *direct* bounds answer first: ``k >= hi`` is an implied
        "yes" carrying the witnessing row's decomposition (width ≤ hi ≤ k);
        ``k < lo`` is an implied "no".  When the direct interval is silent,
        the **cross-method** kind interval answers: a "no" needs no witness
        (the refutation lives in another method's rows); a "yes" borrows the
        decomposition of a same-decision-kind method whose witness kind
        matches (a BalSep GHD is valid evidence for a LocalBIP "yes").
        Witness-required methods consume implied "no"s but never an implied
        "yes", direct or cross-method: their deliverable is this k's own
        decomposition (a smaller k's FHD is not this k's best), so they
        execute instead.  Derived answers report zero seconds: no stored
        attempt ran at this k.  Nothing is implied while the fingerprint's
        rows contradict each other.
        """
        spec = _methods.get_optional(method)
        if spec is None or not spec.monotone:
            return None
        with self._lock:
            known = self._answerable(fingerprint, method)
            if known is None:
                return None
            (lo, hi), kinds = known
            if hi is not None and k >= hi and not spec.witness_required:
                witness = self._conn.execute(
                    "SELECT decomposition FROM results "
                    "WHERE fingerprint = ? AND method = ? AND k = ? AND verdict = ? "
                    "LIMIT 1",
                    (fingerprint, method, hi, YES),
                ).fetchone()
                decomposition = witness[0] if witness is not None else None
                return StoredResult(YES, 0.0, decomposition, implied=True)
            if k < lo:
                return StoredResult(NO, 0.0, implied=True)
            return self._cross_implied(fingerprint, spec, k, kinds)

    def _cross_implied(
        self, fingerprint: str, spec: _methods.MethodSpec, k: int, kinds: dict
    ) -> StoredResult | None:
        """A verdict implied by *other* methods' rows via the width relations."""
        if spec.decision_kind is None:
            return None
        lo, hi = kinds.get(spec.decision_kind, (1, None))
        if k < lo:
            return StoredResult(NO, 0.0, implied=True)
        if hi is not None and k >= hi and not spec.witness_required:
            return StoredResult(
                YES, 0.0, self._borrowed_witness(fingerprint, spec, k), implied=True
            )
        return None

    #: Which stored decomposition kinds are valid evidence for which
    #: expected witness kind: every HD is a GHD, and both are FHDs with
    #: integral weights — the converse directions do not hold.
    _WITNESS_ACCEPTS = {
        "HD": ("HD",),
        "GHD": ("GHD", "HD"),
        "FHD": ("FHD", "GHD", "HD"),
    }

    def _borrowed_witness(self, fingerprint: str, spec, k: int) -> str | None:
        """Another method's yes-decomposition at some ``k' ≤ k``, if any.

        Any monotone method's stored "yes" decomposition qualifies when its
        witness kind is acceptable evidence for ``spec`` (a BalSep GHD backs
        a LocalBIP "yes"; a DetKDecomp HD backs any GHD "yes"): the
        decomposition's own width is ≤ k' ≤ k regardless of which search
        found it.  Purely arithmetic derivations (an hw "yes" at ``3·k + 1``
        from a ghw row) stay witnessless — the verdict is certain, but no
        stored tree of the right kind exists.
        """
        acceptable = self._WITNESS_ACCEPTS.get(spec.witness_kind or "", ())
        donors = [
            s.name
            for s in _methods.specs()
            if s.monotone and s.witness_kind in acceptable
        ]
        if not donors:
            return None
        marks = ",".join("?" for _ in donors)
        row = self._conn.execute(
            f"SELECT decomposition FROM results "
            f"WHERE fingerprint = ? AND method IN ({marks}) AND k <= ? "
            f"AND verdict = ? AND decomposition IS NOT NULL "
            f"ORDER BY k ASC LIMIT 1",
            (fingerprint, *donors, k, YES),
        ).fetchone()
        return row[0] if row is not None else None

    def bounds_rows(self) -> list[tuple[str, str, int, int | None]]:
        """The whole bounds index as ``(fingerprint, method, lo, hi)`` rows."""
        with self._lock:
            return self._direct_rows()

    def kind_bounds_rows(self) -> list[tuple[str, str, int, int | None]]:
        """The cross-method index as ``(fingerprint, kind, lo, hi)`` rows,
        leaving out the intervals that say nothing (``(1, None)``)."""
        by_fingerprint: dict[str, dict[str, _Interval]] = {}
        for fp, method, lo, hi in self.bounds_rows():
            by_fingerprint.setdefault(fp, {})[method] = (lo, hi)
        return [
            (fp, kind, lo, hi)
            for fp, direct in by_fingerprint.items()
            for kind, (lo, hi) in sorted(_kind_intervals(direct).items())
            if lo > 1 or hi is not None
        ]

    # ------------------------------------------------------------ migration

    def export_rows(self) -> list[tuple]:
        """Every ``results`` row in insertable form (migration to shards)."""
        with self._lock:
            return self._conn.execute(
                "SELECT fingerprint, method, k, timeout, verdict, seconds,"
                " decomposition, extra, created_at, last_used, use_count"
                " FROM results ORDER BY fingerprint, method, k, timeout"
            ).fetchall()

    def import_rows(self, rows: list[tuple]) -> None:
        """Bulk-load rows exported by :meth:`export_rows` in one transaction.

        ``created_at``/``last_used``/``use_count`` are carried as stored.
        """
        if not rows:
            return
        with self._lock, transaction(self._conn):
            self._conn.executemany(
                "INSERT OR REPLACE INTO results"
                " (fingerprint, method, k, timeout, verdict, seconds,"
                "  decomposition, extra, created_at, last_used, use_count)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )

    def adopt_meta(self, hits: int = 0, misses: int = 0, implied: int = 0) -> None:
        """Carry lifetime counters over from a store being migrated away.

        Only ``meta`` changes: migrated counts are not this process's
        lookups, so the session counters and metrics stay as they are.
        """
        with self._lock:
            self._add_meta(hits=hits, misses=misses, implied=implied)

    # ------------------------------------------------------------ accounting

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def record(self, hits: int = 0, misses: int = 0, implied: int = 0) -> None:
        """Book lookups made with :meth:`get` once the caller knows what
        they meant; ``implied`` says how many of the ``hits`` the bounds
        index answered.

        Books the session counters, the ``repro_store_*`` metrics and the
        lifetime counters in ``meta`` (one statement).
        """
        with self._lock:
            self.session_hits += hits
            self.session_misses += misses
            self.session_implied += implied
            self._add_meta(hits=hits, misses=misses, implied=implied)
        _M_HITS.inc(hits)
        _M_MISSES.inc(misses)
        _M_IMPLIED.inc(implied)

    def _add_meta(self, **amounts: int) -> None:
        """Add the non-zero ``amounts`` to their lifetime counters in one upsert."""
        rows = [(key, amount) for key, amount in amounts.items() if amount]
        if not rows:
            return
        self._conn.execute(
            "INSERT INTO meta (key, value) VALUES "
            + ", ".join("(?, ?)" for _ in rows)
            + " ON CONFLICT(key) DO UPDATE SET value = value + excluded.value",
            [value for row in rows for value in row],
        )

    def _meta(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else 0

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                entries=len(self),
                hits=self._meta("hits"),
                misses=self._meta("misses"),
                session_hits=self.session_hits,
                session_misses=self.session_misses,
                implied=self._meta("implied"),
                session_implied=self.session_implied,
            )

    def methods(self) -> dict[str, int]:
        """Entry counts per method (for ``repro cache stats``)."""
        with self._lock:
            return dict(
                self._conn.execute(
                    "SELECT method, COUNT(*) FROM results GROUP BY method ORDER BY method"
                ).fetchall()
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore {self.path!r}: {len(self)} entries>"
