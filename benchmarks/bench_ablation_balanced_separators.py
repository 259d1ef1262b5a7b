"""Ablation — why BalSep refutes fast: balanced vs. arbitrary separators.

The paper conjectures (Section 7) that "the number of balanced separators is
often drastically smaller than the number of arbitrary separators"; this
bench measures the census on benchmark instances and asserts the conjecture's
shape, then times one census as the benchmark kernel.
"""

from repro.analysis.separators import count_balanced_separators
from repro.benchmark.classes import BenchmarkClass
from repro.utils.tables import render_table


def test_balanced_separator_census(benchmark, repository):
    entries = [
        e
        for e in repository.entries(BenchmarkClass.CSP_RANDOM)
        if e.hypergraph.num_edges <= 25
    ][:6]
    assert entries

    benchmark(count_balanced_separators, entries[0].hypergraph, 2)

    rows = []
    ratios = []
    for entry in entries:
        census = count_balanced_separators(entry.hypergraph, 2)
        rows.append(
            [
                entry.name,
                entry.hypergraph.num_edges,
                census.total,
                census.balanced,
                round(census.ratio, 3),
            ]
        )
        ratios.append(census.ratio)
    print()
    print(
        render_table(
            ["instance", "edges", "<=2-subsets", "balanced", "ratio"],
            rows,
            title="Ablation: balanced vs. arbitrary separators (k = 2)",
        )
    )

    # Shape: balanced separators are a small fraction of all candidates.
    assert sum(ratios) / len(ratios) < 0.5
