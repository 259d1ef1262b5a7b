"""The HyperBench repository: the programmatic face of the paper's web tool.

The web interface at hyperbench.dbai.tuwien.ac.at lets users retrieve
hypergraphs or groups of hypergraphs together with "a broad spectrum of
properties ... such as lower/upper bounds on hw and ghw, (multi-)intersection
size, degree, etc.".  This class is the in-process equivalent: a catalog of
entries (hypergraph + class + lazily computed statistics + width bounds) with
filtering, aggregation and CSV/JSON export; the static HTML report in
:mod:`repro.benchmark.report` renders it for a browser.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.benchmark.classes import BenchmarkClass
from repro.core.hypergraph import Hypergraph
from repro.core.properties import HypergraphStatistics, compute_statistics
from repro.errors import ReproError
from repro.utils.deadline import Deadline

__all__ = ["BenchmarkEntry", "HyperBenchRepository"]


@dataclass
class BenchmarkEntry:
    """One repository row: an instance plus everything computed about it."""

    hypergraph: Hypergraph
    benchmark_class: BenchmarkClass
    statistics: HypergraphStatistics | None = None
    #: Best known bounds on hw: ``hw_low <= hw(H) <= hw_high`` (None = unknown)
    hw_low: int | None = None
    hw_high: int | None = None
    #: Best known bounds on ghw
    ghw_low: int | None = None
    ghw_high: int | None = None
    #: Upper bound on fhw from fractional improvement, if computed
    fhw_high: float | None = None
    extra: dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.hypergraph.name

    @property
    def hw_exact(self) -> int | None:
        if self.hw_low is not None and self.hw_low == self.hw_high:
            return self.hw_low
        return None

    @property
    def ghw_exact(self) -> int | None:
        if self.ghw_low is not None and self.ghw_low == self.ghw_high:
            return self.ghw_low
        return None

    @property
    def is_cyclic(self) -> bool | None:
        """``hw >= 2``, when known (Table 1's last column)."""
        if self.hw_low is not None and self.hw_low >= 2:
            return True
        if self.hw_high == 1:
            return False
        return None

    def as_record(self) -> dict[str, object]:
        stats = self.statistics
        record: dict[str, object] = {
            "name": self.name,
            "class": str(self.benchmark_class),
            "vertices": stats.num_vertices if stats else self.hypergraph.num_vertices,
            "edges": stats.num_edges if stats else self.hypergraph.num_edges,
            "arity": stats.arity if stats else self.hypergraph.arity,
            "degree": stats.degree if stats else None,
            "bip": stats.bip if stats else None,
            "bmip3": stats.bmip3 if stats else None,
            "bmip4": stats.bmip4 if stats else None,
            "vc_dim": stats.vc_dim if stats else None,
            "hw_low": self.hw_low,
            "hw_high": self.hw_high,
            "ghw_low": self.ghw_low,
            "ghw_high": self.ghw_high,
            "fhw_high": self.fhw_high,
        }
        # Scalar annotations (e.g. the experiment pipeline's corpus family)
        # export too; structured extras like stashed decompositions do not,
        # and nothing may shadow the base columns.
        for key in sorted(self.extra):
            value = self.extra[key]
            if key not in record and isinstance(value, (str, int, float, bool)):
                record[key] = value
        return record


class HyperBenchRepository:
    """A named collection of benchmark entries with query/export helpers."""

    def __init__(self, name: str = "hyperbench"):
        self.name = name
        self._entries: dict[str, BenchmarkEntry] = {}

    # --------------------------------------------------------------- storage

    def add(
        self, hypergraph: Hypergraph, benchmark_class: BenchmarkClass
    ) -> BenchmarkEntry:
        if not hypergraph.name:
            raise ReproError("repository entries need named hypergraphs")
        if hypergraph.name in self._entries:
            raise ReproError(f"duplicate instance name {hypergraph.name!r}")
        entry = BenchmarkEntry(hypergraph, benchmark_class)
        self._entries[hypergraph.name] = entry
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[BenchmarkEntry]:
        return iter(self._entries.values())

    def get(self, name: str) -> BenchmarkEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise ReproError(f"no instance named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # --------------------------------------------------------------- queries

    def entries(
        self,
        benchmark_class: BenchmarkClass | None = None,
        predicate: Callable[[BenchmarkEntry], bool] | None = None,
    ) -> list[BenchmarkEntry]:
        """Entries filtered by class and/or arbitrary predicate."""
        result = []
        for entry in self._entries.values():
            if benchmark_class is not None and entry.benchmark_class != benchmark_class:
                continue
            if predicate is not None and not predicate(entry):
                continue
            result.append(entry)
        return result

    def classes(self) -> list[BenchmarkClass]:
        seen: list[BenchmarkClass] = []
        for entry in self._entries.values():
            if entry.benchmark_class not in seen:
                seen.append(entry.benchmark_class)
        return seen

    def count(
        self,
        benchmark_class: BenchmarkClass | None = None,
        predicate: Callable[[BenchmarkEntry], bool] | None = None,
    ) -> int:
        return len(self.entries(benchmark_class, predicate))

    # -------------------------------------------------------------- analysis

    def compute_all_statistics(self, deadline: Deadline | None = None) -> None:
        """Fill in the Table 2 metrics for every entry that lacks them.

        ``deadline`` is one cooperative budget for the whole pass.
        """
        deadline = deadline or Deadline.unlimited()
        for entry in self._entries.values():
            if entry.statistics is None:
                entry.statistics = compute_statistics(entry.hypergraph, deadline)

    # ---------------------------------------------------------------- export

    def to_csv(self) -> str:
        """The repository as a CSV document (one row per instance).

        Records may be heterogeneous (extras appear on some entries only),
        so the header is the union of all keys in first-seen order; rows
        lacking a column leave it empty.
        """
        records = [entry.as_record() for entry in self._entries.values()]
        if not records:
            return ""
        fieldnames: list[str] = []
        for record in records:
            for key in record:
                if key not in fieldnames:
                    fieldnames.append(key)
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
        writer.writeheader()
        writer.writerows(records)
        return buffer.getvalue()

    def to_json(self, indent: int | None = None) -> str:
        """The repository as a JSON document, including edge structures."""
        payload = {
            "name": self.name,
            "instances": [
                {
                    **entry.as_record(),
                    "edges": {
                        n: sorted(vs) for n, vs in entry.hypergraph.edges.items()
                    },
                }
                for entry in self._entries.values()
            ],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)
