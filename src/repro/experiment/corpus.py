"""Manifest-driven experiment corpora over the generator families.

A *corpus manifest* is a small JSON document describing which instances an
experiment runs on and under which protocol parameters (timeouts, the
Figure 4 ``max_k``, the Tables 3/4 ``ks``, the Tables 5/6 ``hw_values``).
Sections name a *family* — one of the five HyperBench generator classes, the
SQL pipeline workload, structured grids/cliques/cycles at scale, inline
conjunctive queries, or full extensional random CSPs built through
``repro.csp`` — plus a count and an optional per-section seed.  Building the
same manifest twice yields the same corpus: every family is deterministic in
its seed, and every instance is content-addressed downstream by its engine
fingerprint (:func:`repro.engine.fingerprint.fingerprint`), which is how the
runner detects manifest/generator drift on resume.

:func:`repro.benchmark.build.build_default_benchmark` builds the corpus of
:func:`default_manifest`, so the default corpus is the default benchmark:
``repro experiment run`` at the default manifest runs the study over the
corpus ``repro benchmark`` exports.

>>> manifest = default_manifest(scale=0.05, seed=7)
>>> [s.family for s in manifest.sections]
['cq_application', 'cq_random', 'csp_application', 'csp_random', 'csp_other']
>>> manifest == Manifest.from_dict(manifest.to_dict())
True
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.benchmark.build import DEFAULT_CLASS_COUNTS
from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.generators import (
    generate_application_cqs,
    generate_application_csps,
    generate_other_csps,
    generate_random_cqs,
    generate_random_csps,
    pebbling_grid,
    random_csp_instance,
)
from repro.benchmark.repository import HyperBenchRepository
from repro.core.hypergraph import Hypergraph
from repro.errors import ReproError

__all__ = [
    "CorpusSection",
    "Family",
    "FAMILIES",
    "Manifest",
    "build_corpus",
    "default_manifest",
]


# ------------------------------------------------------------------ families


@dataclass(frozen=True)
class Family:
    """One way of producing instances: a seeded builder plus its class."""

    name: str
    benchmark_class: BenchmarkClass
    build: Callable[[int, int, dict], list[Hypergraph]]
    description: str = ""


def _rename(h: Hypergraph, name: str) -> Hypergraph:
    return Hypergraph({n: sorted(vs) for n, vs in h.edges.items()}, name=name)


def _build_cq_application(count: int, seed: int, params: dict) -> list[Hypergraph]:
    return generate_application_cqs(count, seed)


def _build_cq_random(count: int, seed: int, params: dict) -> list[Hypergraph]:
    return generate_random_cqs(count, seed)


def _build_csp_application(count: int, seed: int, params: dict) -> list[Hypergraph]:
    return generate_application_csps(count, seed)


def _build_csp_random(count: int, seed: int, params: dict) -> list[Hypergraph]:
    return generate_random_csps(count, seed)


def _build_csp_other(count: int, seed: int, params: dict) -> list[Hypergraph]:
    return generate_other_csps(count, seed)


def _build_sql(count: int, seed: int, params: dict) -> list[Hypergraph]:
    # Imported lazily: the SQL pipeline pulls in the whole Section 5 stack.
    from repro.benchmark.generators.sql_workload import generate_sql_application_cqs

    return generate_sql_application_cqs(
        count, seed, num_dimensions=int(params.get("dimensions", 6))
    )


def _build_grid(count: int, seed: int, params: dict) -> list[Hypergraph]:
    rng = random.Random(seed)
    lo, hi = (int(v) for v in params.get("size", (3, 8)))
    out = []
    for i in range(count):
        rows, cols = rng.randint(lo, hi), rng.randint(lo, hi)
        out.append(
            _rename(pebbling_grid(rows, cols), f"grid_{seed}_{i:04d}_{rows}x{cols}")
        )
    return out


def _build_clique(count: int, seed: int, params: dict) -> list[Hypergraph]:
    rng = random.Random(seed)
    lo, hi = (int(v) for v in params.get("size", (4, 9)))
    out = []
    for i in range(count):
        n = rng.randint(lo, hi)
        edges = {
            f"e{a}_{b}": [f"v{a}", f"v{b}"]
            for a in range(n)
            for b in range(a + 1, n)
        }
        out.append(Hypergraph(edges, name=f"clique_{seed}_{i:04d}_K{n}"))
    return out


def _build_cycle(count: int, seed: int, params: dict) -> list[Hypergraph]:
    rng = random.Random(seed)
    lo, hi = (int(v) for v in params.get("size", (3, 24)))
    out = []
    for i in range(count):
        n = rng.randint(lo, hi)
        edges = {f"c{j}": [f"x{j}", f"x{(j + 1) % n}"] for j in range(n)}
        out.append(Hypergraph(edges, name=f"cycle_{seed}_{i:04d}_n{n}"))
    return out


def _build_cq_inline(count: int, seed: int, params: dict) -> list[Hypergraph]:
    # Inline datalog-style queries through the repro.cq front end; ``count``
    # is ignored — the section carries its instances in ``params``.
    from repro.cq import cq_to_hypergraph, parse_cq

    queries = params.get("queries")
    if not queries:
        raise ReproError("the 'cq' family needs params={'queries': [...]}")
    return [
        cq_to_hypergraph(parse_cq(text, name=f"cq_inline_{i:04d}"))
        for i, text in enumerate(queries)
    ]


def _build_csp_model(count: int, seed: int, params: dict) -> list[Hypergraph]:
    # Full extensional CSP instances through the repro.csp model layer (the
    # other csp families generate hypergraphs directly).
    from repro.csp import csp_to_hypergraph

    out = []
    for i in range(count):
        instance = random_csp_instance(
            int(params.get("variables", 10)),
            int(params.get("constraints", 14)),
            int(params.get("domain", 3)),
            float(params.get("tightness", 0.4)),
            seed=seed + i,
        )
        out.append(_rename(csp_to_hypergraph(instance), f"csp_model_{seed}_{i:04d}"))
    return out


#: Registry of corpus families, keyed by the manifest's ``family`` string.
FAMILIES: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "cq_application",
            BenchmarkClass.CQ_APPLICATION,
            _build_cq_application,
            "application-shaped conjunctive queries",
        ),
        Family(
            "cq_random",
            BenchmarkClass.CQ_RANDOM,
            _build_cq_random,
            "random conjunctive queries",
        ),
        Family(
            "csp_application",
            BenchmarkClass.CSP_APPLICATION,
            _build_csp_application,
            "application-shaped CSPs",
        ),
        Family(
            "csp_random",
            BenchmarkClass.CSP_RANDOM,
            _build_csp_random,
            "random CSPs (hypergraph-level)",
        ),
        Family(
            "csp_other",
            BenchmarkClass.CSP_OTHER,
            _build_csp_other,
            "structured CSPs (grids, circuits)",
        ),
        Family(
            "sql",
            BenchmarkClass.CQ_APPLICATION,
            _build_sql,
            "CQs derived through the Section 5 SQL pipeline",
        ),
        Family(
            "grid",
            BenchmarkClass.CSP_OTHER,
            _build_grid,
            "pebbling grids at random sizes",
        ),
        Family(
            "clique",
            BenchmarkClass.CSP_OTHER,
            _build_clique,
            "binary-edge cliques K_n (hw = ceil(n/2))",
        ),
        Family(
            "cycle",
            BenchmarkClass.CSP_OTHER,
            _build_cycle,
            "binary-edge cycles (hw = 2)",
        ),
        Family(
            "cq",
            BenchmarkClass.CQ_APPLICATION,
            _build_cq_inline,
            "inline conjunctive queries via repro.cq",
        ),
        Family(
            "csp",
            BenchmarkClass.CSP_RANDOM,
            _build_csp_model,
            "extensional random CSP instances via repro.csp",
        ),
    )
}


# ------------------------------------------------------------------ manifest


@dataclass
class CorpusSection:
    """One manifest section: a family, how many instances, which seed."""

    family: str
    count: int = 0
    seed: int | None = None  # None -> the manifest seed
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload: dict = {"family": self.family, "count": self.count}
        if self.seed is not None:
            payload["seed"] = self.seed
        if self.params:
            payload["params"] = self.params
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CorpusSection":
        if payload.get("family") not in FAMILIES:
            raise ReproError(
                f"unknown corpus family {payload.get('family')!r} "
                f"(known: {', '.join(sorted(FAMILIES))})"
            )
        return cls(
            family=payload["family"],
            count=int(payload.get("count", 0)),
            seed=payload.get("seed"),
            params=dict(payload.get("params", {})),
        )


@dataclass
class Manifest:
    """The full experiment description: corpus sections + protocol knobs."""

    name: str = "experiment"
    seed: int = 42
    #: render reports with zeroed runtimes so they are byte-stable across
    #: independent runs (wall-clock seconds never are)
    deterministic: bool = True
    sections: list[CorpusSection] = field(default_factory=list)
    timeout: float | None = 1.0
    frac_timeout: float | None = None  # None -> same as ``timeout``
    max_k: int = 6
    ghw_ks: list[int] = field(default_factory=lambda: [3, 4, 5, 6])
    hw_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5, 6])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "deterministic": self.deterministic,
            "sections": [s.to_dict() for s in self.sections],
            "protocol": {
                "timeout": self.timeout,
                "frac_timeout": self.frac_timeout,
                "max_k": self.max_k,
                "ghw_ks": list(self.ghw_ks),
                "hw_values": list(self.hw_values),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Manifest":
        protocol = payload.get("protocol", {})
        return cls(
            name=str(payload.get("name", "experiment")),
            seed=int(payload.get("seed", 42)),
            deterministic=bool(payload.get("deterministic", True)),
            sections=[CorpusSection.from_dict(s) for s in payload.get("sections", [])],
            timeout=protocol.get("timeout", 1.0),
            frac_timeout=protocol.get("frac_timeout"),
            max_k=int(protocol.get("max_k", 6)),
            ghw_ks=[int(k) for k in protocol.get("ghw_ks", [3, 4, 5, 6])],
            hw_values=[int(k) for k in protocol.get("hw_values", [2, 3, 4, 5, 6])],
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Manifest":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read manifest {path}: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @property
    def effective_frac_timeout(self) -> float | None:
        return self.frac_timeout if self.frac_timeout is not None else self.timeout


#: The corpus family of each default benchmark class.
_DEFAULT_FAMILIES: dict[BenchmarkClass, str] = {
    BenchmarkClass.CQ_APPLICATION: "cq_application",
    BenchmarkClass.CQ_RANDOM: "cq_random",
    BenchmarkClass.CSP_APPLICATION: "csp_application",
    BenchmarkClass.CSP_RANDOM: "csp_random",
    BenchmarkClass.CSP_OTHER: "csp_other",
}


def default_manifest(
    scale: float = 0.25,
    seed: int = 42,
    name: str = "experiment",
    timeout: float | None = 1.0,
    max_k: int = 6,
    deterministic: bool = True,
) -> Manifest:
    """The default benchmark's manifest: ``build_default_benchmark(scale,
    seed)`` is its corpus.

    One section per benchmark class, in ``DEFAULT_CLASS_COUNTS`` order, each
    ``scale`` times the class count (at least two), all at ``seed``.
    """
    sections = [
        CorpusSection(_DEFAULT_FAMILIES[cls], max(2, round(base * scale)))
        for cls, base in DEFAULT_CLASS_COUNTS.items()
    ]
    return Manifest(
        name=name,
        seed=seed,
        deterministic=deterministic,
        sections=sections,
        timeout=timeout,
        max_k=max_k,
    )


def build_corpus(manifest: Manifest) -> HyperBenchRepository:
    """Materialise a manifest into a repository (deterministic in its seeds).

    Every entry is tagged with its family in ``entry.extra["family"]``, which
    rides into CSV/JSON exports via ``BenchmarkEntry.as_record``.  Duplicate
    instance names across sections are a manifest error (the repository
    rejects them).
    """
    repository = HyperBenchRepository(name=manifest.name)
    for section in manifest.sections:
        family = FAMILIES.get(section.family)
        if family is None:
            raise ReproError(f"unknown corpus family {section.family!r}")
        seed = manifest.seed if section.seed is None else section.seed
        for hypergraph in family.build(section.count, seed, section.params):
            entry = repository.add(hypergraph, family.benchmark_class)
            entry.extra["family"] = family.name
    return repository
