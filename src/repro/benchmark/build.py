"""Assembly of the default synthetic HyperBench benchmark.

The paper's benchmark has 3,648 instances; running its full analysis took a
10-machine cluster with 3600 s timeouts.  The default build here scales the
per-class counts down (preserving the class proportions) so the entire
Figure 4 / Tables 2–6 pipeline runs on one machine in minutes; ``scale``
adjusts the totals.
"""

from __future__ import annotations

from repro.benchmark.classes import BenchmarkClass
from repro.benchmark.repository import HyperBenchRepository

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


def build_default_benchmark(
    scale: float = 1.0,
    seed: int = 42,
    name: str = "hyperbench",
) -> HyperBenchRepository:
    """Build the synthetic benchmark (deterministic in ``seed``).

    ``scale`` multiplies every class count (minimum 2 instances per class so
    all experiment tables stay populated).  The benchmark is the corpus of
    :func:`~repro.experiment.corpus.default_manifest`, so every entry names
    its generator family in ``extra["family"]``; SQL-pipeline CQs are that
    manifest format's ``sql`` family.
    """
    # not at module level, or every `repro` command would load the pipeline
    from repro.experiment.corpus import build_corpus, default_manifest

    return build_corpus(default_manifest(scale, seed, name=name))
