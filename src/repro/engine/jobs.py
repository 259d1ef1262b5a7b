"""Batch job specifications and the restartable JSONL journal.

A :class:`JobSpec` is one deployable unit of decomposition work — a single
``Check(H, k)`` attempt, an exact-width sweep (the Figure 4 protocol for one
instance), or a portfolio race (Table 4).  A batch is simply a list of specs;
:meth:`repro.engine.engine.DecompositionEngine.run_batch` executes them with
cache consultation and writes one journal line per finished job, so an
interrupted benchmark sweep resumes exactly where it stopped — even when the
interruption truncated the journal mid-line.

Journal lines are self-contained JSON records keyed by the job's identity
``(kind, fingerprint, method, k, max_k, timeout)``; the hypergraph itself is
not journalled (the spec still carries it), only the verdicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.core.hypergraph import Hypergraph
from repro.decomp.driver import CheckOutcome, WidthResult
from repro.engine.fingerprint import fingerprint as _content_fingerprint
from repro.engine.store import timeout_key

__all__ = ["JobSpec", "JobResult", "Journal", "append_record"]

CHECK = "check"
WIDTH = "width"
PORTFOLIO = "portfolio"
_KINDS = (CHECK, WIDTH, PORTFOLIO)

#: The verdict of a job that got no answer (see ``Dispatcher``); never journalled.
ERROR = "error"


@dataclass(frozen=True)
class JobSpec:
    """One unit of work over one hypergraph.

    Use the :meth:`check` / :meth:`width` / :meth:`portfolio` constructors;
    ``kind`` decides which of ``k`` / ``max_k`` is meaningful.  A spec's
    :meth:`key` is its content-addressed identity — what the batch journal
    resumes on and the service scheduler coalesces on:

    >>> from repro.core.hypergraph import Hypergraph
    >>> h = Hypergraph({"r": ["x", "y"], "s": ["y", "z"]}, name="path")
    >>> spec = JobSpec.check(h, 2, method="hd")
    >>> spec.key() == JobSpec.check(Hypergraph({"s": ["z", "y"], "r": ["y", "x"]}), 2).key()
    True
    >>> spec.key()[0], spec.key()[2:]
    ('check', ('hd', 2, None, 'none'))
    """

    kind: str
    hypergraph: Hypergraph
    method: str = "hd"
    k: int | None = None
    max_k: int | None = None
    timeout: float | None = None
    #: The submitting request's :class:`~repro.obs.TraceContext` (or ``None``).
    #: Travels with the spec into ``run_batch`` so the wave / worker spans
    #: parent into the request's trace; excluded from identity and equality —
    #: two requests for the same work still coalesce.
    trace: object | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; known: {_KINDS}")

    # ------------------------------------------------------------ factories

    @classmethod
    def check(
        cls,
        hypergraph: Hypergraph,
        k: int,
        method: str = "hd",
        timeout: float | None = None,
        trace: object | None = None,
    ) -> "JobSpec":
        """A single ``Check(H, k)`` attempt with the given algorithm."""
        return cls(CHECK, hypergraph, method=method, k=k, timeout=timeout, trace=trace)

    @classmethod
    def width(
        cls,
        hypergraph: Hypergraph,
        max_k: int,
        method: str = "hd",
        timeout: float | None = None,
        trace: object | None = None,
    ) -> "JobSpec":
        """An exact-width sweep, iterating k = 1..max_k (Figure 4 protocol)."""
        return cls(
            WIDTH, hypergraph, method=method, max_k=max_k, timeout=timeout, trace=trace
        )

    @classmethod
    def portfolio(
        cls,
        hypergraph: Hypergraph,
        k: int,
        timeout: float | None = None,
        trace: object | None = None,
    ) -> "JobSpec":
        """A GHD portfolio race at width ``k`` (Table 4 protocol)."""
        return cls(
            PORTFOLIO, hypergraph, method="portfolio", k=k, timeout=timeout, trace=trace
        )

    # ------------------------------------------------------------- identity

    @cached_property
    def fingerprint(self) -> str:
        """The hypergraph's content fingerprint, computed once per spec."""
        return _content_fingerprint(self.hypergraph)

    def key(self) -> tuple:
        """Content-addressed identity used for journal resume."""
        return (
            self.kind,
            self.fingerprint,
            self.method,
            self.k,
            self.max_k,
            timeout_key(self.timeout),
        )

    @property
    def name(self) -> str:
        return self.hypergraph.name or "H"


@dataclass
class JobResult:
    """The outcome of one executed (or resumed) job."""

    spec: JobSpec
    verdict: str
    seconds: float
    #: True when every underlying check was served by the result store.
    cached: bool = False
    #: True when at least one underlying verdict was *implied* by the store's
    #: bounds index (monotonicity) rather than stored verbatim — the job was
    #: pruned before any worker dispatch.
    implied: bool = False
    #: True when the job was skipped because the journal already had it.
    resumed: bool = False
    #: Exact-width bounds, for ``width`` jobs.
    lower: int | None = None
    upper: int | None = None
    #: Live objects when the job actually ran this session (not journalled).
    outcome: CheckOutcome | None = None
    width_result: WidthResult | None = None
    #: Winning algorithm, for ``portfolio`` jobs.
    winner: str | None = None
    #: Each raced algorithm's outcome, for ``portfolio`` jobs that ran or
    #: replayed an exact row in this process (not journalled); empty when
    #: the verdict was implied by a race at another k (Table 3 counts no race).
    per_algorithm: dict[str, CheckOutcome] | None = None
    #: Kernel-counter delta accrued executing this job (worker- or in-process
    #: side), and the worker-side span records grafted into the parent trace.
    counters: dict | None = None
    spans: list | None = None

    def payload(self) -> dict:
        """The JSON-serialisable record written to the journal."""
        record = {
            "name": self.spec.name,
            "verdict": self.verdict,
            "seconds": round(self.seconds, 6),
            "cached": self.cached,
            "implied": self.implied,
            "lower": self.lower,
            "upper": self.upper,
            "winner": self.winner,
        }
        if self.counters:
            record["counters"] = self.counters
        return record

    @classmethod
    def from_journal(cls, spec: JobSpec, payload: dict) -> "JobResult":
        return cls(
            spec=spec,
            verdict=str(payload.get("verdict", "")),
            seconds=float(payload.get("seconds", 0.0)),
            cached=bool(payload.get("cached", False)),
            implied=bool(payload.get("implied", False)),
            resumed=True,
            lower=payload.get("lower"),
            upper=payload.get("upper"),
            winner=payload.get("winner"),
            counters=payload.get("counters"),
        )


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to a JSONL file as one line, ending a torn tail first.

    A crash can leave a last line without its newline; a record written
    straight after it would share that line, and the next load would drop
    both.  Ended first, the fragment is a damaged line of its own, which a
    load skips.
    """
    line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
    with open(path, "a+b") as handle:
        if handle.seek(0, 2):
            handle.seek(-1, 2)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)


class Journal:
    """An append-only JSONL record of finished jobs.

    :meth:`load` tolerates a truncated final line (the typical artefact of a
    killed sweep) and interior corruption: invalid lines are dropped and the
    file is compacted to the valid prefix, so subsequent appends produce a
    well-formed journal again.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> dict[tuple, dict]:
        """Read finished-job records as ``{job key: payload}``."""
        if not self.path.exists():
            return {}
        records: dict[tuple, dict] = {}
        valid_lines: list[str] = []
        dirty = False
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                dirty = True
                continue
            try:
                record = json.loads(line)
                key = tuple(record["key"])
                payload = record["result"]
            except (json.JSONDecodeError, KeyError, TypeError):
                dirty = True
                continue
            records[key] = payload
            valid_lines.append(line)
        if dirty:
            tmp = self.path.with_suffix(self.path.suffix + ".tmp")
            tmp.write_text(
                "".join(f"{line}\n" for line in valid_lines), encoding="utf-8"
            )
            tmp.replace(self.path)
        return records

    def append(self, spec: JobSpec, result: JobResult) -> None:
        """Write one finished job (:func:`append_record`)."""
        append_record(self.path, {"key": list(spec.key()), "result": result.payload()})
