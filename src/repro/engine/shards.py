"""A fingerprint-sharded result store: N :class:`ResultStore` files as one.

Distributed dispatch turns the store from a private cache into a shared
write target: every worker process finishing a wave writes its verdicts
back, and a single SQLite file serialises all of them on one WAL writer
lock.  Sharding by content fingerprint splits that contention N ways while
keeping every lookup single-file: a job's rows live on the shard its
fingerprint routes to, and no table is replicated.  A verdict is therefore
one row on one shard file, and every read (``get``, ``implied``,
``bounds``, ``kind_bounds``, ``effective_bounds``) routes to that same
owner, which derives the intervals from those rows.

Routing is the first two hex digits of the (SHA-256) fingerprint modulo the
shard count — deterministic, uniform, and stable across processes, so every
worker and the dispatcher agree on each row's home without coordination.

A directory layout::

    cache.d/
        shards.json     {"version": 1, "shards": 4}
        shard-00.db     rows with int(fp[:2], 16) % 4 == 0
        shard-01.db     ...

Opening an existing *single-file* store path migrates it in place: rows are
exported, the file is parked as ``<name>.preshard``, and a directory of the
requested shard count takes its place with rows distributed by route and
lifetime hit/miss counters adopted by shard 0.  :func:`open_result_store`
is the front door used by the CLI and the service: it picks plain
:class:`ResultStore` or the sharded layout from the path and ``--shards``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.decomp.driver import CheckOutcome
from repro.engine.store import ResultStore, StoredResult, StoreStats
from repro.errors import ReproError

__all__ = ["ShardedResultStore", "open_result_store"]

_META_NAME = "shards.json"


def shard_for(fingerprint: str, n_shards: int) -> int:
    """Route a fingerprint to its owning shard (stable across processes)."""
    try:
        return int(fingerprint[:2], 16) % n_shards
    except (ValueError, IndexError):
        # Non-hex keys (tests, ad-hoc fingerprints) still route somewhere
        # deterministic; hash() is salted per-process, so use a digest-free
        # fold of the code points instead.
        return sum(ord(ch) for ch in fingerprint[:8]) % n_shards


class ShardedResultStore:
    """N result-store files behind the single-store API.

    Duck-types :class:`ResultStore` for every surface the engine, service,
    and CLI touch — ``get``/``put``/``bounds``/``kind_bounds``/
    ``effective_bounds``/``implied`` route by fingerprint; ``record`` books
    lookups on shard 0; ``stats``, ``__len__``, ``methods``,
    ``bounds_rows``, ``kind_bounds_rows``, ``clear`` aggregate across shards.

    >>> store = ShardedResultStore(shards=4)        # ephemeral, in-memory
    >>> store.put("00aa", "hd", 2, None, CheckOutcome("yes", 0.1))
    >>> store.get("00aa", "hd", 2, None).verdict
    'yes'
    >>> [s.kind_bounds("00aa", "hw") for s in store.shards]    # owner only
    [(1, 2), (1, None), (1, None), (1, None)]

    Parameters
    ----------
    path:
        Directory holding the shard files, an existing single-file store to
        migrate, or ``None`` for an ephemeral in-memory sharded store.
    shards:
        Shard count for a *new* store.  An existing directory's recorded
        count always wins (resharding is not supported in place); passing a
        conflicting count raises.
    """

    DEFAULT_SHARDS = 4

    def __init__(self, path: str | Path | None = None, shards: int | None = None):
        self._dir = None if path is None else Path(path)
        self.path = None if self._dir is None else str(self._dir)
        requested = None if shards is None else max(1, int(shards))
        if self._dir is None:
            self.n_shards = requested or self.DEFAULT_SHARDS
            self.shards = [ResultStore() for _ in range(self.n_shards)]
            return
        if self._dir.is_file():
            self._migrate_single_file(requested or self.DEFAULT_SHARDS)
        recorded = self._read_meta()
        if recorded is None:
            self.n_shards = requested or self.DEFAULT_SHARDS
            self._dir.mkdir(parents=True, exist_ok=True)
            self._write_meta()
        else:
            if requested is not None and requested != recorded:
                raise ReproError(
                    f"{self.path} holds {recorded} shards; in-place resharding"
                    f" to {requested} is not supported"
                )
            self.n_shards = recorded
        self.shards = [ResultStore(self._shard_path(i)) for i in range(self.n_shards)]

    def _shard_path(self, index: int) -> Path:
        return self._dir / f"shard-{index:02d}.db"

    def _read_meta(self) -> int | None:
        meta_path = None if self._dir is None else self._dir / _META_NAME
        if meta_path is None or not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            return max(1, int(meta["shards"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ReproError(f"{meta_path} is not a shard manifest: {exc}") from exc

    def _write_meta(self) -> None:
        (self._dir / _META_NAME).write_text(
            json.dumps({"version": 1, "shards": self.n_shards}) + "\n",
            encoding="utf-8",
        )

    def _migrate_single_file(self, n_shards: int) -> None:
        """Turn a pre-shard single-file store into a shard directory.

        The original file survives as ``<name>.preshard`` next to the new
        directory — the migration is lossless but the backup makes it also
        trivially reversible.
        """
        with ResultStore(self._dir) as old:
            rows = old.export_rows()
            stats = old.stats
        backup = self._dir.with_name(self._dir.name + ".preshard")
        self._dir.rename(backup)
        # WAL side files belong to the old database; they are checkpointed
        # on close, so stale ones next to the new directory just confuse.
        for suffix in ("-wal", "-shm"):
            side = Path(str(self._dir) + suffix)
            if side.exists():
                side.unlink()
        self._dir.mkdir(parents=True)
        self.n_shards = n_shards
        self._write_meta()
        buckets: dict[int, list[tuple]] = {}
        for row in rows:
            buckets.setdefault(shard_for(row[0], n_shards), []).append(row)
        for index in range(n_shards):
            with ResultStore(self._shard_path(index)) as shard:
                shard.import_rows(buckets.get(index, []))
                if index == 0:
                    shard.adopt_meta(stats.hits, stats.misses, stats.implied)

    # --------------------------------------------------------------- routing

    def _shard(self, fingerprint: str) -> ResultStore:
        return self.shards[shard_for(fingerprint, self.n_shards)]

    # ----------------------------------------------------------------- cache

    def get(
        self,
        fingerprint: str,
        method: str,
        k: int,
        timeout: float | None,
        bounds: bool = True,
    ) -> StoredResult | None:
        return self._shard(fingerprint).get(fingerprint, method, k, timeout, bounds)

    def put(
        self,
        fingerprint: str,
        method: str,
        k: int,
        timeout: float | None,
        outcome: CheckOutcome,
        extra: dict | None = None,
    ) -> None:
        self._shard(fingerprint).put(fingerprint, method, k, timeout, outcome, extra)

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()

    # ---------------------------------------------------------------- bounds

    def bounds(self, fingerprint: str, method: str) -> tuple[int, int | None]:
        return self._shard(fingerprint).bounds(fingerprint, method)

    def kind_bounds(self, fingerprint: str, kind: str) -> tuple[int, int | None]:
        return self._shard(fingerprint).kind_bounds(fingerprint, kind)

    def effective_bounds(self, fingerprint: str, method: str) -> tuple[int, int | None]:
        return self._shard(fingerprint).effective_bounds(fingerprint, method)

    def implied(self, fingerprint: str, method: str, k: int) -> StoredResult | None:
        return self._shard(fingerprint).implied(fingerprint, method, k)

    def bounds_rows(self) -> list[tuple[str, str, int, int | None]]:
        rows: list[tuple[str, str, int, int | None]] = []
        for shard in self.shards:
            rows.extend(shard.bounds_rows())
        return sorted(rows)

    def kind_bounds_rows(self) -> list[tuple[str, str, int, int | None]]:
        rows: list[tuple[str, str, int, int | None]] = []
        for shard in self.shards:
            rows.extend(shard.kind_bounds_rows())
        return sorted(rows)

    # ------------------------------------------------------------ accounting

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def record(self, hits: int = 0, misses: int = 0, implied: int = 0) -> None:
        # Booked lookups can span fingerprints; shard 0 keeps the counters
        # (stats() aggregates, so placement is moot).
        self.shards[0].record(hits, misses, implied)

    @property
    def stats(self) -> StoreStats:
        shard_stats = [shard.stats for shard in self.shards]
        return StoreStats(
            entries=sum(s.entries for s in shard_stats),
            hits=sum(s.hits for s in shard_stats),
            misses=sum(s.misses for s in shard_stats),
            session_hits=sum(s.session_hits for s in shard_stats),
            session_misses=sum(s.session_misses for s in shard_stats),
            implied=sum(s.implied for s in shard_stats),
            session_implied=sum(s.session_implied for s in shard_stats),
        )

    def methods(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for shard in self.shards:
            for method, count in shard.methods().items():
                merged[method] = merged.get(method, 0) + count
        return dict(sorted(merged.items()))

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedResultStore {self.path!r}:"
            f" {self.n_shards} shards, {len(self)} entries>"
        )


def open_result_store(path: str | Path | None, shards: int | None = None):
    """Open the right store flavour for a ``--cache`` path.

    - ``None`` path → ephemeral in-memory :class:`ResultStore` (sharded
      only when ``shards`` asks for it).
    - A directory, or any path carrying a ``shards.json`` manifest →
      :class:`ShardedResultStore` (the manifest's count wins).
    - A single file plus ``shards`` > 1 → in-place migration to shards.
    - Otherwise → plain single-file :class:`ResultStore`.
    """
    if path is None:
        if shards is not None and shards > 1:
            return ShardedResultStore(shards=shards)
        return ResultStore()
    path = Path(path)
    sharded = (
        (shards is not None and shards > 1)
        or path.is_dir()
        or (path / _META_NAME).exists()
    )
    if sharded:
        return ShardedResultStore(path, shards=shards)
    return ResultStore(path)
