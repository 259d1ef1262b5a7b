"""Ablation — separator-ordering heuristics in DetKDecomp.

The paper notes that NewDetKDecomp "added heuristics to speed up the basic
algorithm".  This bench times the same Check(HD, k) queries under the three
candidate orderings (coverage-first, degree-weighted, plain name order) and
verifies the verdicts are ordering-independent.
"""

import time

import pytest

from repro.decomp.detkdecomp import DetKDecomp
from repro.utils.tables import render_table


def _instances(repository):
    picked = [e for e in repository if 8 <= e.hypergraph.num_edges <= 30][:8]
    assert picked
    return picked


@pytest.mark.parametrize("heuristic", DetKDecomp.HEURISTICS)
def test_heuristic_kernel(benchmark, repository, heuristic):
    entries = _instances(repository)

    def sweep():
        return [
            DetKDecomp(e.hypergraph, 2, heuristic=heuristic).decompose() is not None
            for e in entries
        ]

    verdicts = benchmark.pedantic(sweep, rounds=1, iterations=1)

    if heuristic == DetKDecomp.HEURISTICS[-1]:
        rows = []
        for entry in entries:
            cells = [entry.name, entry.hypergraph.num_edges]
            answers = set()
            for h_name in DetKDecomp.HEURISTICS:
                start = time.perf_counter()
                result = DetKDecomp(entry.hypergraph, 2, heuristic=h_name).decompose()
                cells.append(round(time.perf_counter() - start, 4))
                answers.add(result is not None)
            assert len(answers) == 1  # verdict never depends on the ordering
            rows.append(cells)
        print()
        print(
            render_table(
                ["instance", "edges"] + [f"{h} (s)" for h in DetKDecomp.HEURISTICS],
                rows,
                title="Ablation: DetKDecomp separator-ordering heuristics (k = 2)",
            )
        )
    assert isinstance(verdicts, list)
