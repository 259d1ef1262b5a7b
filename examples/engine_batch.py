"""A cached batch sweep with the decomposition engine.

Builds a small slice of the synthetic benchmark, then runs the same
exact-width + portfolio job list twice through a persistent
:class:`repro.engine.DecompositionEngine`:

* run 1 executes every job in worker processes (hard timeouts) and journals
  each finished job, so an interrupted sweep resumes where it stopped;
* run 2 is served entirely from the SQLite result store — zero checks run.

Run with::

    PYTHONPATH=src python examples/engine_batch.py
"""

import tempfile
from pathlib import Path

from repro.benchmark.build import build_default_benchmark
from repro.engine import DecompositionEngine, JobSpec, ResultStore


def run_sweep(engine: DecompositionEngine, specs, journal: Path, label: str) -> None:
    report = engine.run_batch(specs, journal=journal)
    print(f"== {label}")
    print(f"   jobs       {report.total}")
    print(f"   resumed    {report.resumed}  (already in the journal)")
    print(f"   cache hits {report.cache_hits}  (served by the result store)")
    print(f"   executed   {report.executed}")
    for result in report.results[:5]:
        bounds = (
            f" width in [{result.lower}, {result.upper}]"
            if result.spec.kind == "width"
            else ""
        )
        winner = f" winner={result.winner}" if result.winner else ""
        print(
            f"   {result.spec.kind:<9} {result.spec.name:<16} "
            f"{result.verdict:<7} {result.seconds:.3f}s{bounds}{winner}"
        )
    print(f"   ... ({len(report.results)} results total)")


def main() -> None:
    repository = build_default_benchmark(scale=0.05, seed=11)
    hypergraphs = [entry.hypergraph for entry in repository]

    specs = [JobSpec.width(h, max_k=4, timeout=10.0) for h in hypergraphs[:8]]
    # Every portfolio racer keeps the whole budget, so a race lasts as long
    # as its slowest racer; a short budget keeps the example quick.
    specs += [JobSpec.portfolio(h, 2, timeout=1.0) for h in hypergraphs[:4]]

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "results.db"
        with DecompositionEngine(store=ResultStore(store_path), jobs=4) as engine:
            run_sweep(engine, specs, Path(tmp) / "run1.jsonl", "cold sweep (executes)")
            run_sweep(engine, specs, Path(tmp) / "run2.jsonl", "warm sweep (cached)")
            stats = engine.store.stats
            print(
                f"store: {stats.entries} entries, "
                f"{stats.hits} hits / {stats.misses} misses "
                f"({stats.hit_rate:.0%} lifetime hit rate)"
            )


if __name__ == "__main__":
    main()
