"""Equivalence suite: bitset kernel vs the frozenset reference kernel.

Property-based differential tests on random hypergraphs: the mask-native
primitives (:mod:`repro.core.bitset`) must agree with the frozenset reference
implementations (:mod:`repro.core.components`, the frozenset
``covering_combinations``), and every mask-rewritten decomposition search
must return the same verdict — and an equally valid decomposition — as the
frozen pre-bitset implementations in :mod:`repro.decomp.reference`.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.bitset import (
    FamilyIndex,
    HypergraphView,
    iter_bits,
    mask_components,
    mask_covering_combinations,
    mask_is_balanced,
    mask_minimum_cover,
    mask_separate,
)
from repro.core.components import (
    components,
    is_balanced_separator,
    separate,
)
from repro.core.covers import is_integral_cover, minimum_integral_cover
from repro.core.hypergraph import Hypergraph
from repro.core.simplify import lift_decomposition, simplify
from repro.decomp.balsep import check_ghd_balsep
from repro.decomp.detkdecomp import DetKDecomp, check_hd, covering_combinations
from repro.decomp.globalbip import check_ghd_global_bip
from repro.decomp.hybrid import check_ghd_hybrid
from repro.decomp.localbip import check_ghd_local_bip
from repro.decomp.reference import (
    ReferenceDetKDecomp,
    check_ghd_balsep_reference,
    check_hd_reference,
)
from repro.perf import counters
from repro.utils.deadline import Deadline
from tests.conftest import clique_hypergraph, cycle_hypergraph, random_hypergraph

SEEDS = range(40)


def _view_components_as_names(view, comps):
    return {view.edge_names_of(members) for members, _ in comps}


def _random_vertex_subset(h: Hypergraph, rng: random.Random) -> frozenset[str]:
    vertices = sorted(h.vertices)
    return frozenset(v for v in vertices if rng.random() < 0.4)


class TestComponentsEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_components_match_reference(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        rng = random.Random(seed * 31 + 7)
        for _ in range(5):
            separator = _random_vertex_subset(h, rng)
            expected = set(components(h.edges, separator))
            got = _view_components_as_names(
                view, mask_components(view.edge_masks, view.vertices_mask(separator))
            )
            assert got == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_separate_matches_reference(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        rng = random.Random(seed * 17 + 3)
        separator = _random_vertex_subset(h, rng)
        ref_comps, ref_absorbed = separate(h.edges, separator)
        comps, absorbed = mask_separate(
            view.edge_masks, view.vertices_mask(separator)
        )
        assert _view_components_as_names(view, comps) == set(ref_comps)
        assert view.edge_names_of(absorbed) == ref_absorbed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_balanced_matches_reference(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        rng = random.Random(seed * 13 + 1)
        for _ in range(5):
            separator = _random_vertex_subset(h, rng)
            assert mask_is_balanced(
                view.edge_masks, view.vertices_mask(separator)
            ) == is_balanced_separator(h.edges, separator)

    def test_components_active_subset(self):
        h = cycle_hypergraph(8)
        view = HypergraphView.of(h)
        active = view.edges_mask(["c0", "c1", "c4", "c5"])
        comps = mask_components(
            view.edge_masks, view.vertices_mask(["x2"]), active=active
        )
        got = _view_components_as_names(view, comps)
        sub = {n: h.edge(n) for n in ("c0", "c1", "c4", "c5")}
        assert got == set(components(sub, frozenset({"x2"})))


class TestCoveringEnumerationEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_frozenset_reference(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        rng = random.Random(seed * 41 + 5)
        names = list(view.edge_names)
        rng.shuffle(names)
        n_primary = rng.randint(0, len(names))
        primary, secondary = names[:n_primary], names[n_primary:]
        conn = _random_vertex_subset(h, rng)
        k = rng.randint(1, 3)
        require = rng.random() < 0.5

        ref = {
            frozenset(combo)
            for combo in covering_combinations(
                dict(h.edges), primary, secondary, conn, k,
                Deadline.unlimited(), require_primary=require,
            )
        }
        masks = [view.edge_masks[view.edge_bit[n]] for n in names]
        got = {
            frozenset(names[j] for j in combo)
            for combo in mask_covering_combinations(
                masks, n_primary, view.vertices_mask(conn), k,
                Deadline.unlimited(), require_primary=require,
            )
        }
        assert got == ref

    def test_specialised_k_matches_general_dfs(self):
        # k=1 / k=2 / k=3 take the specialised loops; cross-check them
        # against the k=4 general DFS restricted to the same sizes.
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(0, 7)
            masks = [rng.randint(0, 63) for _ in range(n)]
            n_primary = rng.randint(0, n)
            conn = rng.randint(0, 63)
            require = rng.random() < 0.5
            general = list(
                mask_covering_combinations(
                    masks, n_primary, conn, 4, Deadline.unlimited(),
                    require_primary=require,
                )
            )
            for k in (1, 2, 3):
                special = list(
                    mask_covering_combinations(
                        masks, n_primary, conn, k, Deadline.unlimited(),
                        require_primary=require,
                    )
                )
                assert special == [c for c in general if len(c) <= k]


class TestMinimumCoverEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mask_cover_matches_name_cover_size(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        rng = random.Random(seed * 7 + 11)
        bag = _random_vertex_subset(h, rng)
        ref = minimum_integral_cover(h.edges, bag)
        got = mask_minimum_cover(view.edge_masks, view.vertices_mask(bag))
        if ref is None:
            assert got is None
        else:
            assert got is not None and len(got) == len(ref)
            cover_names = [view.edge_names[j] for j in got]
            assert is_integral_cover(h.edges, cover_names, bag)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_max_size_agreement(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        bag = h.vertices
        for max_size in (1, 2):
            ref = minimum_integral_cover(h.edges, bag, max_size=max_size)
            got = mask_minimum_cover(
                view.edge_masks, view.vertices_mask(bag), max_size=max_size
            )
            assert (got is None) == (ref is None)


class TestViewRoundTrips:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mask_name_round_trips(self, seed):
        h = random_hypergraph(seed)
        view = HypergraphView.of(h)
        assert view.vertex_names_of(view.all_vertices) == h.vertices
        assert view.edge_names_of(view.all_edges) == frozenset(h.edge_names)
        for name in h.edge_names:
            mask = view.edge_masks[view.edge_bit[name]]
            assert view.vertex_names_of(mask) == h.edge(name)
        # incidence: vertex bit -> mask of incident edges
        for v in h.vertices:
            b = view.vertex_bit[v]
            assert view.edge_names_of(view.incidence[b]) == frozenset(
                h.incident_edges(v)
            )

    def test_view_is_cached_per_hypergraph(self, triangle):
        assert HypergraphView.of(triangle) is HypergraphView.of(triangle)

    def test_family_index_matches_view(self, triangle):
        view = HypergraphView.of(triangle)
        index = FamilyIndex(triangle.edges)
        assert index.edge_names == view.edge_names
        assert index.edge_masks == view.edge_masks

    def test_iter_bits(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]


class TestVerdictEquivalence:
    """All decomposition methods agree with the frozen reference kernel."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hd_verdicts_and_validity(self, seed):
        h = random_hypergraph(seed)
        for k in (1, 2, 3):
            got = check_hd(h, k)
            ref = check_hd_reference(h, k)
            assert (got is None) == (ref is None), f"hd verdict differs at k={k}"
            if got is not None:
                got.validate("HD")
                assert got.integral_width <= k
            if ref is not None:
                ref.validate("HD")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ghd_verdicts_and_validity(self, seed):
        h = random_hypergraph(seed)
        for k in (1, 2):
            ref = check_ghd_balsep_reference(h, k)
            for fn in (
                check_ghd_balsep,
                check_ghd_local_bip,
                check_ghd_global_bip,
                check_ghd_hybrid,
            ):
                got = fn(h, k)
                assert (got is None) == (ref is None), (
                    f"{fn.__name__} verdict differs at k={k}"
                )
                if got is not None:
                    got.validate("GHD")
                    assert got.integral_width <= k

    @pytest.mark.parametrize("heuristic", DetKDecomp.HEURISTICS)
    def test_heuristics_agree_with_reference(self, heuristic):
        for seed in range(10):
            h = random_hypergraph(seed + 500)
            for k in (1, 2):
                got = DetKDecomp(h, k, heuristic=heuristic).decompose()
                ref = ReferenceDetKDecomp(h, k, heuristic=heuristic).decompose()
                assert (got is None) == (ref is None)

    def test_structured_instances(self):
        # Known widths: K_n has hw = ghw = ceil(n/2); cycles have hw = 2.
        assert check_hd(clique_hypergraph(6), 2) is None
        assert check_hd(clique_hypergraph(6), 3) is not None
        assert check_ghd_balsep(cycle_hypergraph(9), 1) is None
        assert check_ghd_balsep(cycle_hypergraph(9), 2) is not None

    @pytest.mark.parametrize("seed", range(12))
    def test_bag_filter_equivalence(self, seed):
        h = random_hypergraph(seed + 900)
        for limit in (2, 3):
            got = DetKDecomp(h, 2, bag_filter=lambda bag: len(bag) <= limit).decompose()
            ref = ReferenceDetKDecomp(
                h, 2, bag_filter=lambda bag: len(bag) <= limit
            ).decompose()
            assert (got is None) == (ref is None)
            if got is not None:
                assert all(len(b) <= limit for b in got.bags())

    @pytest.mark.parametrize("seed", range(12))
    def test_simplified_verdicts_survive_lift(self, seed):
        h = random_hypergraph(seed + 1200)
        trace = simplify(h)
        for k in (1, 2):
            reduced_ghd = check_ghd_balsep(trace.reduced, k)
            full_ghd = check_ghd_balsep_reference(h, k)
            assert (reduced_ghd is None) == (full_ghd is None)
            if reduced_ghd is not None:
                lifted = lift_decomposition(trace, reduced_ghd)
                lifted.validate("GHD")


class TestCounters:
    def test_kernel_counters_increment(self, k5):
        counters.reset()
        assert check_hd(k5, 2) is None
        snap = counters.snapshot()
        assert snap["components_calls"] > 0
        assert snap["cover_enumerations"] > 0

    def test_reference_counters_increment(self, k5):
        counters.reset()
        assert check_hd_reference(k5, 2) is None
        snap = counters.snapshot()
        assert snap["components_calls"] > 0
        assert snap["cover_enumerations"] > 0

    def test_subedge_closure_counted(self, triangle):
        counters.reset()
        assert check_ghd_balsep(triangle, 1) is None
        assert counters.snapshot()["subedge_closures"] >= 1


class TestHarness:
    def test_quick_workload_runs_and_agrees(self):
        from repro.perf.harness import compare_to_baseline, default_workload, run_workload

        cases = [c for c in default_workload(quick=True) if c.instance in ("K6", "cycle16")]
        assert cases, "workload subset is empty"
        report = run_workload(cases=cases)
        assert report["summary"]["verdict_mismatches"] == 0
        for record in report["cases"]:
            assert record["bitset"]["seconds"] >= 0
            assert record["bitset"]["components_calls"] > 0
        # The report regresses against itself only if times somehow doubled.
        assert compare_to_baseline(report, report) == []

    def test_compare_to_baseline_flags_regressions(self):
        baseline = {
            "cases": [
                {"case": "a/x/k1", "bitset": {"seconds": 1.0}},
                {"case": "b/x/k1", "bitset": {"seconds": 0.001}},
            ]
        }
        report = {
            "cases": [
                {"case": "a/x/k1", "bitset": {"seconds": 2.5}},
                # tiny case doubling stays under the absolute floor
                {"case": "b/x/k1", "bitset": {"seconds": 0.002}},
                {"case": "new/x/k1", "bitset": {"seconds": 9.9}},
            ]
        }
        from repro.perf.harness import compare_to_baseline

        regressions = compare_to_baseline(report, baseline)
        assert len(regressions) == 1 and regressions[0].startswith("a/x/k1")

    def test_obs_gate_reads_the_median_of_adjacent_pairs(self):
        import statistics

        from repro.obs.metrics import REGISTRY
        from repro.obs.trace import TRACER
        from repro.perf.harness import run_obs_workload

        before = (TRACER.enabled, REGISTRY.enabled)
        report = run_obs_workload(rounds=3)
        assert len(report["ratios"]) == 3
        assert report["overhead_ratio"] == statistics.median(report["ratios"])
        assert report["within_limit"] == (report["overhead_ratio"] <= report["limit"])
        assert (TRACER.enabled, REGISTRY.enabled) == before


class TestSubedgeMaskClosure:
    @pytest.mark.parametrize("seed", range(15))
    def test_mask_entries_match_frozenset_family(self, seed):
        from repro.core.subedges import mask_subedge_entries, subedge_family

        h = random_hypergraph(seed, max_vertices=6, max_edges=5)
        view = HypergraphView.of(h)
        family = subedge_family(h.edges, 2)
        entries = mask_subedge_entries(view.edge_masks, 2)
        got = {view.vertex_names_of(mask) for mask, _ in entries}
        assert got == set(family)
        for mask, parent in entries:
            assert view.vertex_names_of(mask) <= h.edge(view.edge_names[parent])

    @pytest.mark.parametrize("seed", range(15))
    def test_restricted_closure_is_subset(self, seed):
        from repro.core.subedges import mask_subedge_entries

        h = random_hypergraph(seed, max_vertices=6, max_edges=6)
        view = HypergraphView.of(h)
        full = {m for m, _ in mask_subedge_entries(view.edge_masks, 2)}
        half = view.all_edges & (view.all_edges >> 1) | 1
        local = {
            m for m, _ in mask_subedge_entries(view.edge_masks, 2, restrict_to=half)
        }
        assert local <= full
