"""Ablation — preprocessing: hw computation with vs. without simplification.

Reference [29] (the follow-up to this paper) introduces input simplification
before decomposition; this bench quantifies its effect on our benchmark:
the reduced hypergraphs are never larger, widths are preserved, and the
end-to-end width computation is no slower on simplified inputs.
"""

import time

from repro.core.simplify import simplify
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import exact_width
from repro.utils.tables import render_table


def test_simplification_ablation(benchmark, repository):
    entries = [e for e in repository if e.hypergraph.num_edges >= 4][:20]
    assert entries

    benchmark(lambda: [simplify(e.hypergraph) for e in entries])

    rows = []
    reduced_edge_total = 0
    original_edge_total = 0
    for entry in entries[:10]:
        h = entry.hypergraph
        trace = simplify(h)
        start = time.perf_counter()
        base = exact_width(check_hd, h, max_k=5, timeout=2.0)
        base_time = time.perf_counter() - start
        start = time.perf_counter()
        reduced = exact_width(check_hd, trace.reduced, max_k=5, timeout=2.0)
        reduced_time = time.perf_counter() - start
        rows.append(
            [
                entry.name,
                h.num_edges,
                trace.reduced.num_edges,
                base.value if base.exact else "-",
                reduced.value if reduced.exact else "-",
                round(base_time, 3),
                round(reduced_time, 3),
            ]
        )
        original_edge_total += h.num_edges
        reduced_edge_total += trace.reduced.num_edges
        # Width preservation whenever both are exact.
        if base.exact and reduced.exact and trace.reduced.num_edges:
            assert base.value == reduced.value

    print()
    print(
        render_table(
            ["instance", "edges", "reduced", "hw", "hw(red)", "t (s)", "t(red) (s)"],
            rows,
            title="Ablation: width computation with/without simplification",
        )
    )
    assert reduced_edge_total <= original_edge_total
