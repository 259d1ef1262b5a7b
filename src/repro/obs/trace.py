"""Context-manager spans with cross-process propagation (stdlib only).

A **span** is one timed operation: it has a ``trace_id`` (shared by every
span of one request), its own ``span_id``, an optional ``parent_id``, a
wall-clock ``start`` and a monotonic-derived ``duration``, plus free-form
``attrs``.  The :class:`Tracer` hands out spans as context managers and
keeps the finished records in a bounded in-memory ring (the ``/debug/traces``
payload) and, optionally, an append-only JSONL **journal** that the
``repro trace show|summary`` CLI reads offline.

Propagation is explicit, not ambient-only: a span's :class:`TraceContext`
``(trace_id, span_id)`` is a picklable named tuple that travels through
:class:`~repro.engine.jobs.JobSpec` and the packed worker wire protocol, so
a span started inside a worker *process* parents correctly into the trace
that dispatched it.  Within one thread (or one asyncio task) nesting is
automatic via a :class:`contextvars.ContextVar`.

Worker processes do not share the parent's ring: they build detached spans
with :func:`make_span`, ship the finished records back over the result pipe,
and the parent :meth:`grafts <Tracer.graft>` them into its ring and journal.

Tracing is on by default and costs a few microseconds per span — the
``"obs"`` section of ``BENCH_kernel.json`` gates the end-to-end overhead at
< 5 % of a cold check.  Set :attr:`Tracer.enabled` to ``False`` to turn every
``span()`` into a shared no-op null span.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "TraceContext",
    "Span",
    "Tracer",
    "TRACER",
    "NULL_SPAN",
    "make_span",
    "span",
    "current_context",
]


class TraceContext(NamedTuple):
    """The picklable identity a child span needs: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str


def _new_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One in-progress (then finished) timed operation.

    Spans are created through :meth:`Tracer.span` / :meth:`Tracer.start_span`
    (recorded into the tracer on :meth:`end`) or :func:`make_span` (detached
    — the caller ships :meth:`to_dict` records itself, e.g. from a worker
    process back to the parent).
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "status",
        "attrs",
        "_start_mono",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        parent: TraceContext | tuple | None = None,
        tracer: "Tracer | None" = None,
        **attrs: object,
    ):
        self.name = name
        if parent is not None:
            self.trace_id, self.parent_id = parent[0], parent[1]
        else:
            self.trace_id, self.parent_id = _new_id(), None
        self.span_id = _new_id()
        self.start = time.time()
        self.duration: float | None = None
        self.status = "ok"
        self.attrs: dict = dict(attrs)
        self._start_mono = time.monotonic()
        self._tracer = tracer

    @property
    def context(self) -> TraceContext:
        """What a child span (possibly in another process) parents on."""
        return TraceContext(self.trace_id, self.span_id)

    @property
    def ended(self) -> bool:
        return self.duration is not None

    def set(self, **attrs: object) -> None:
        """Attach attributes (verdicts, counter deltas, sizes) to the span."""
        self.attrs.update(attrs)

    def end(self, status: str | None = None, **attrs: object) -> "Span":
        """Finish the span (idempotent) and record it with its tracer."""
        if self.duration is None:
            self.duration = time.monotonic() - self._start_mono
            if status is not None:
                self.status = status
            self.attrs.update(attrs)
            if self._tracer is not None:
                self._tracer._record(self.to_dict())
        return self

    def to_dict(self) -> dict:
        """The JSON-able record stored in the ring / journal / wire."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration * 1000:.2f}ms" if self.ended else "open"
        return f"Span({self.name!r}, trace={self.trace_id}, {state})"


class _NullSpan:
    """The shared no-op span a disabled tracer yields (no allocation)."""

    __slots__ = ()
    context = None
    ended = True

    def set(self, **attrs: object) -> None:
        pass

    def end(self, status: str | None = None, **attrs: object) -> "_NullSpan":
        return self

    def to_dict(self) -> None:
        return None


NULL_SPAN = _NullSpan()


def make_span(
    name: str, parent: TraceContext | tuple | None = None, **attrs: object
) -> Span:
    """A detached span bound to no tracer — worker processes use this to
    build records they ship back over the result pipe."""
    return Span(name, parent=parent, tracer=None, **attrs)


class Tracer:
    """Span factory + bounded ring of finished records + optional journal.

    >>> tracer = Tracer(capacity=16)
    >>> with tracer.span("outer") as outer:
    ...     with tracer.span("inner") as inner:
    ...         same_trace = inner.trace_id == outer.trace_id
    >>> same_trace
    True
    >>> [record["name"] for record in tracer.spans()]
    ['inner', 'outer']
    """

    def __init__(
        self,
        capacity: int = 2048,
        journal: str | Path | None = None,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self._ring: deque[dict] = deque(maxlen=max(1, int(capacity)))
        self._lock = threading.Lock()
        self._journal_path: Path | None = None
        self._journal_handle = None
        self._current: contextvars.ContextVar[TraceContext | None] = (
            contextvars.ContextVar("repro_trace_context", default=None)
        )
        if journal is not None:
            self.set_journal(journal)

    # ----------------------------------------------------------- span factory

    def current_context(self) -> TraceContext | None:
        """The ambient context of this thread / asyncio task (or ``None``)."""
        if not self.enabled:
            return None
        return self._current.get()

    def start_span(
        self,
        name: str,
        parent: TraceContext | tuple | None = None,
        **attrs: object,
    ):
        """Start a span explicitly (caller must :meth:`Span.end` it).

        ``parent=None`` falls back to the ambient context; a span with no
        parent at all roots a fresh trace.  Does **not** switch the ambient
        context — use :meth:`span` for that.
        """
        if not self.enabled:
            return NULL_SPAN
        if parent is None:
            parent = self._current.get()
        return Span(name, parent=parent, tracer=self, **attrs)

    @contextmanager
    def span(
        self,
        name: str,
        parent: TraceContext | tuple | None = None,
        **attrs: object,
    ):
        """Context manager: start a span, make it ambient, end it on exit.

        An exception escaping the block marks the span ``status="error"``
        (with the exception's ``repr`` attached) and re-raises.
        """
        if not self.enabled:
            yield NULL_SPAN
            return
        opened = self.start_span(name, parent=parent, **attrs)
        token = self._current.set(opened.context)
        try:
            yield opened
        except BaseException as exc:
            opened.end(status="error", error=repr(exc))
            raise
        finally:
            self._current.reset(token)
            opened.end()

    @contextmanager
    def attach(self, context: TraceContext | tuple | None):
        """Make a remote context ambient (no span of its own is created)."""
        if not self.enabled or context is None:
            yield
            return
        token = self._current.set(TraceContext(context[0], context[1]))
        try:
            yield
        finally:
            self._current.reset(token)

    # -------------------------------------------------------------- recording

    def _record(self, record: dict) -> None:
        with self._lock:
            self._ring.append(record)
            if self._journal_handle is not None:
                try:
                    self._journal_handle.write(
                        json.dumps(record, sort_keys=True) + "\n"
                    )
                except (OSError, ValueError):  # pragma: no cover - disk issues
                    self._journal_handle = None

    def graft(self, records: list[dict] | None) -> None:
        """Adopt finished span records built elsewhere (worker processes)."""
        if not records or not self.enabled:
            return
        for record in records:
            if isinstance(record, dict) and record.get("span_id"):
                self._record(record)

    # ---------------------------------------------------------------- reading

    def spans(self, limit: int | None = None) -> list[dict]:
        """The most recent finished records, oldest first."""
        with self._lock:
            records = list(self._ring)
        return records if limit is None else records[-limit:]

    def traces(self, limit: int | None = None) -> list[dict]:
        """Ring records grouped by trace, most recently finished trace first.

        Each entry is ``{"trace_id", "spans": [...]}`` with the spans in
        start order — the ``/debug/traces`` payload.
        """
        grouped: dict[str, list[dict]] = {}
        for record in self.spans():
            grouped.setdefault(record["trace_id"], []).append(record)
        ordered = sorted(
            grouped.items(),
            key=lambda item: max(r["start"] for r in item[1]),
            reverse=True,
        )
        if limit is not None:
            ordered = ordered[: max(0, int(limit))]
        return [
            {
                "trace_id": trace_id,
                "spans": sorted(records, key=lambda r: r["start"]),
            }
            for trace_id, records in ordered
        ]

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    # ---------------------------------------------------------------- journal

    @property
    def journal_path(self) -> Path | None:
        return self._journal_path

    def set_journal(self, path: str | Path | None) -> None:
        """Start (or stop, with ``None``) appending finished spans as JSONL."""
        with self._lock:
            if self._journal_handle is not None:
                self._journal_handle.close()
                self._journal_handle = None
            self._journal_path = None
            if path is not None:
                self._journal_path = Path(path)
                self._journal_handle = self._journal_path.open(
                    "a", encoding="utf-8", buffering=1
                )


#: The process-global tracer every layer records into by default.
TRACER = Tracer()

#: Module-level conveniences over the global tracer.
span = TRACER.span
current_context = TRACER.current_context


def load_journal(path: str | Path) -> list[dict]:
    """Read a JSONL trace journal, dropping corrupt lines (truncated tails)."""
    records: list[dict] = []
    journal = Path(path)
    if not journal.exists():
        return records
    for line in journal.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("span_id"):
            records.append(record)
    return records
