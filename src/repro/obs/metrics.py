"""A unified, thread-safe metrics registry with Prometheus text exposition.

Every stats surface in the stack — :class:`~repro.engine.engine.EngineStats`,
:class:`~repro.service.scheduler.ServiceStats`, the result store's
hit/miss/implied accounting, and the kernel call counters shipped back from
worker processes — publishes into one process-global :data:`REGISTRY`, so
``GET /metrics`` renders a single coherent view of the process no matter how
many engines, schedulers or stores it hosts.  (Per-instance snapshots stay
on their owning classes; the registry is the *process* aggregate.)

Three metric types, all stdlib:

* :class:`Counter` — monotone floats, optional labels, names end ``_total``;
* :class:`Gauge` — set/inc/dec, optional labels;
* :class:`Histogram` — log-bucketed observations (default: powers of two
  from 1 ms), rendered as cumulative ``_bucket{le=...}`` series plus
  ``_sum`` / ``_count``.

:meth:`MetricsRegistry.render` emits the Prometheus text exposition format
(version 0.0.4: ``# HELP`` / ``# TYPE`` comments, ``name{labels} value``
lines); :meth:`MetricsRegistry.snapshot` returns the same data as one
JSON-able dict under a consistent lock.  Setting
:attr:`MetricsRegistry.enabled` to ``False`` turns every ``inc`` /
``observe`` into a no-op — the instrumentation-overhead benchmark
(``"obs"`` in ``BENCH_kernel.json``) flips this to measure the cost.
"""

from __future__ import annotations

import math
import re
import threading
from collections.abc import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-spaced latency buckets: powers of two from 1 ms to ~65 s (plus +Inf).
DEFAULT_BUCKETS: tuple[float, ...] = tuple(0.001 * 2**i for i in range(17))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    rendered = ",".join(
        f'{key}="{_escape(value)}"' for key, value in labels
    )
    return "{" + rendered + "}"


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


class _Metric:
    """Shared plumbing: name/help validation, label keying, a lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    @staticmethod
    def _key(labels: dict) -> tuple[tuple[str, str], ...]:
        for name in labels:
            if not _LABEL_RE.match(name):
                raise ValueError(f"invalid label name {name!r}")
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def samples(self) -> "list[tuple[str, tuple, float]]":
        """``(name, labels, value)`` rows; labels is a sorted tuple of pairs."""
        raise NotImplementedError

    def render(self) -> str:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for name, labels, value in self.samples():
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
        return "\n".join(lines)


class Counter(_Metric):
    """A monotonically increasing value (name must end ``_total``)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        if not name.endswith("_total"):
            raise ValueError(f"counter {name!r} must end with '_total'")
        super().__init__(name, help, registry)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled or amount == 0:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self):
        with self._lock:
            items = sorted(self._values.items())
        return [(self.name, labels, value) for labels, value in items] or [
            (self.name, (), 0.0)
        ]


class Gauge(_Metric):
    """A value that can go up and down (queue depths, entry counts)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", registry: "MetricsRegistry | None" = None):
        super().__init__(name, help, registry)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels: object) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def samples(self):
        with self._lock:
            items = sorted(self._values.items())
        return [(self.name, labels, value) for labels, value in items] or [
            (self.name, (), 0.0)
        ]


class Histogram(_Metric):
    """Log-bucketed observations with cumulative Prometheus rendering.

    An observation equal to a bucket's upper edge counts into that bucket
    (Prometheus ``le`` semantics: less-than-or-equal).

    >>> h = Histogram("repro_test_seconds", buckets=(0.001, 0.002))
    >>> h.observe(0.001); h.observe(0.0015); h.observe(5.0)
    >>> h.bucket_counts()
    {0.001: 1, 0.002: 2, inf: 3}
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] | None = None,
        registry: "MetricsRegistry | None" = None,
    ):
        super().__init__(name, help, registry)
        edges = tuple(sorted(buckets if buckets is not None else DEFAULT_BUCKETS))
        if not edges or any(e <= 0 for e in edges):
            raise ValueError("histogram buckets must be positive and non-empty")
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # final slot: > last edge (+Inf)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        value = float(value)
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):  # ≤ 20 edges: linear is fine
            if value <= edge:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts per upper edge (``math.inf`` for the overflow)."""
        with self._lock:
            counts = list(self._counts)
        cumulative: dict[float, int] = {}
        running = 0
        for edge, count in zip(self.buckets, counts):
            running += count
            cumulative[edge] = running
        cumulative[math.inf] = running + counts[-1]
        return cumulative

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def samples(self):
        rows = []
        for edge, cumulative in self.bucket_counts().items():
            rows.append(
                (f"{self.name}_bucket", (("le", _format_value(edge)),), float(cumulative))
            )
        with self._lock:
            rows.append((f"{self.name}_sum", (), self._sum))
            rows.append((f"{self.name}_count", (), float(self._count)))
        return rows


class MetricsRegistry:
    """Get-or-create metric store with one consistent snapshot/render lock.

    >>> registry = MetricsRegistry()
    >>> registry.counter("repro_demo_total", "demo").inc(3)
    >>> registry.snapshot()["repro_demo_total"]["samples"]
    [{'labels': {}, 'value': 3.0}]
    >>> "repro_demo_total 3" in registry.render()
    True
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -------------------------------------------------------------- factories

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help, registry=self, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # ---------------------------------------------------------------- reading

    def metrics(self) -> list[_Metric]:
        with self._lock:
            return sorted(self._metrics.values(), key=lambda m: m.name)

    def snapshot(self) -> dict:
        """All metrics as one JSON-able dict (each metric locks internally)."""
        payload: dict = {}
        for metric in self.metrics():
            payload[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "samples": [
                    {"name": name, "labels": dict(labels), "value": value}
                    if name != metric.name
                    else {"labels": dict(labels), "value": value}
                    for name, labels, value in metric.samples()
                ],
            }
        return payload

    def render(self, extra: "Iterable[_Metric] | None" = None) -> str:
        """The Prometheus text exposition (0.0.4) of every metric.

        ``extra`` lets a scrape handler append ad-hoc, non-registered
        metrics (live gauges over objects the registry does not own, e.g.
        store entry counts) without leaking them into the registry.
        """
        blocks = [metric.render() for metric in self.metrics()]
        for metric in extra or ():
            blocks.append(metric.render())
        return "\n".join(blocks) + "\n"


#: The process-global registry every layer publishes into.
REGISTRY = MetricsRegistry()
