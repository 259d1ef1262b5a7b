"""Assembly of the default synthetic HyperBench benchmark.

The paper's benchmark has 3,648 instances; running its full analysis took a
10-machine cluster with 3600 s timeouts.  The default build here scales the
per-class counts down (preserving the class proportions) so the entire
Figure 4 / Tables 2–6 pipeline runs on one machine in minutes; ``scale``
adjusts the totals.
"""

from __future__ import annotations

from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.generators import (
    generate_application_cqs,
    generate_application_csps,
    generate_other_csps,
    generate_random_cqs,
    generate_random_csps,
)
from repro.benchmark.repository import HyperBenchRepository
from repro.errors import ReproError

__all__ = ["build_default_benchmark", "DEFAULT_CLASS_COUNTS"]

#: Per-class instance counts at ``scale=1.0``.  The paper's proportions are
#: 1113 : 500 : 1090 : 863 : 82 — we keep roughly the same mix.
DEFAULT_CLASS_COUNTS: dict[BenchmarkClass, int] = {
    BenchmarkClass.CQ_APPLICATION: 56,
    BenchmarkClass.CQ_RANDOM: 25,
    BenchmarkClass.CSP_APPLICATION: 54,
    BenchmarkClass.CSP_RANDOM: 43,
    BenchmarkClass.CSP_OTHER: 8,
}

_GENERATORS = {
    BenchmarkClass.CQ_APPLICATION: generate_application_cqs,
    BenchmarkClass.CQ_RANDOM: generate_random_cqs,
    BenchmarkClass.CSP_APPLICATION: generate_application_csps,
    BenchmarkClass.CSP_RANDOM: generate_random_csps,
    BenchmarkClass.CSP_OTHER: generate_other_csps,
}


def build_default_benchmark(
    scale: float = 1.0,
    seed: int = 42,
    name: str = "hyperbench",
    sql_derived: int = 0,
    engine: "object | None" = None,
) -> HyperBenchRepository:
    """Build the synthetic benchmark (deterministic in ``seed``).

    ``scale`` multiplies every class count (minimum 2 instances per class so
    all experiment tables stay populated).  ``sql_derived`` additionally runs
    that many CQ Application instances through the full Section 5 SQL
    pipeline (generated SQL text → dependency graph → conjunctive core →
    hypergraph), like the paper's own benchmark construction.

    When a :class:`repro.engine.DecompositionEngine` with ``jobs > 1`` is
    supplied, the five class generators run in parallel worker processes;
    each generator is deterministic in ``seed`` and the classes are merged
    in their fixed order, so the result is identical to the sequential
    build.  A generator that raises or kills its worker raises
    :class:`~repro.errors.ReproError` naming its class: the build never
    returns a repository missing a class.
    """
    repository = HyperBenchRepository(name=name)
    classes = list(DEFAULT_CLASS_COUNTS.items())
    jobs = getattr(engine, "jobs", 1) if engine is not None else 1
    if jobs > 1:
        from repro.engine.workers import CallFailure, map_callables

        calls = [
            (_GENERATORS[benchmark_class], (max(2, round(base_count * scale)), seed))
            for benchmark_class, base_count in classes
        ]
        generated = map_callables(calls, jobs)
        for (benchmark_class, _), hypergraphs in zip(classes, generated):
            if isinstance(hypergraphs, CallFailure):
                raise ReproError(f"generating {benchmark_class}: {hypergraphs.reason}")
            for hypergraph in hypergraphs:
                repository.add(hypergraph, benchmark_class)
    else:
        for benchmark_class, base_count in classes:
            count = max(2, round(base_count * scale))
            generator = _GENERATORS[benchmark_class]
            for hypergraph in generator(count, seed=seed):
                repository.add(hypergraph, benchmark_class)
    if sql_derived:
        from repro.benchmark.generators.sql_workload import (
            generate_sql_application_cqs,
        )

        for hypergraph in generate_sql_application_cqs(sql_derived, seed=seed):
            repository.add(hypergraph, BenchmarkClass.CQ_APPLICATION)
    return repository
