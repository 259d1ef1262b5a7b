"""The pairwise correlation analysis of Figure 5.

The paper correlates nine per-instance metrics — vertices, edges, arity,
degree, bip, 3-BMIP, 4-BMIP, VC-dimension and hypertree width — and finds
that arity correlates with hw while the tractability parameters (degree,
intersection sizes, VC-dim) have almost no impact on hw.  We compute the same
Pearson matrix over the repository's entries (instances lacking a metric, e.g.
an unresolved hw, are dropped pairwise), with population standard deviations
and ``math.fsum`` sums, which round the same on every Python version.
"""

from __future__ import annotations

import math

from repro.benchmark.repository import HyperBenchRepository

__all__ = ["METRICS", "correlation_matrix"]

METRICS = (
    "vertices",
    "edges",
    "arity",
    "degree",
    "bip",
    "3-BMIP",
    "4-BMIP",
    "VC-dim",
    "HW",
)


def _metric_vector(entry) -> list[float | None]:
    stats = entry.statistics
    hw = entry.hw_high
    return [
        float(stats.num_vertices) if stats else None,
        float(stats.num_edges) if stats else None,
        float(stats.arity) if stats else None,
        float(stats.degree) if stats else None,
        float(stats.bip) if stats else None,
        float(stats.bmip3) if stats else None,
        float(stats.bmip4) if stats else None,
        float(stats.vc_dim) if stats else None,
        float(hw) if hw is not None else None,
    ]


def correlation_matrix(repository: HyperBenchRepository) -> list[list[float]]:
    """The 9×9 Pearson correlation matrix over all repository entries.

    Requires :meth:`compute_all_statistics` to have run; hw values come from
    the Figure 4 sweep (entries without an hw upper bound are skipped for
    pairs involving HW).  Constant columns yield correlation 0 (not NaN).
    """
    rows = [_metric_vector(entry) for entry in repository]
    n = len(METRICS)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            xs, ys = [], []
            for row in rows:
                if row[i] is not None and row[j] is not None:
                    xs.append(row[i])
                    ys.append(row[j])
            value = 0.0
            if len(xs) >= 2:
                dx = _deviations(xs)
                dy = _deviations(ys)
                sx = math.sqrt(math.fsum(d * d for d in dx) / len(dx))
                sy = math.sqrt(math.fsum(d * d for d in dy) / len(dy))
                if sx > 0 and sy > 0:
                    value = math.fsum(a * b for a, b in zip(dx, dy)) / len(dx) / (sx * sy)
            if i == j:
                value = 1.0
            if math.isnan(value):  # pragma: no cover - guarded above
                value = 0.0
            matrix[i][j] = matrix[j][i] = value
    return matrix


def _deviations(values: list[float]) -> list[float]:
    mean = math.fsum(values) / len(values)
    return [v - mean for v in values]
