"""Unit tests for integral and fractional edge covers."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.covers import (
    covered_vertices,
    covering_lp,
    fractional_cover,
    fractional_cover_number,
    is_integral_cover,
    minimum_integral_cover,
)
from repro.errors import HypergraphError
from tests.conftest import clique_hypergraph


class TestFractionalCover:
    def test_triangle_fractional_cover_is_1_5(self, triangle):
        cover = fractional_cover(triangle.edges, triangle.vertices)
        assert cover.weight == pytest.approx(1.5, abs=1e-6)

    def test_triangle_weights_are_halves(self, triangle):
        cover = fractional_cover(triangle.edges, triangle.vertices)
        assert all(w == pytest.approx(0.5, abs=1e-6) for w in cover.weights.values())

    def test_single_edge_covers_itself(self, star):
        cover = fractional_cover(star.edges, star.edge("fact"))
        assert cover.weight == pytest.approx(1.0, abs=1e-6)

    def test_empty_bag_costs_nothing(self, triangle):
        assert fractional_cover(triangle.edges, []).weight == 0.0

    def test_uncoverable_vertex_raises(self, triangle):
        with pytest.raises(HypergraphError):
            fractional_cover(triangle.edges, ["nonexistent"])

    def test_allowed_restriction(self, triangle):
        cover = fractional_cover(triangle.edges, ["x", "y"], allowed=["r"])
        assert set(cover.weights) == {"r"}

    def test_allowed_restriction_infeasible(self, triangle):
        with pytest.raises(HypergraphError):
            fractional_cover(triangle.edges, ["x", "y", "z"], allowed=["r"])

    def test_allowed_duplicate_is_one_edge(self, triangle):
        cover = fractional_cover(triangle.edges, ["x", "y"], allowed=["r", "r"])
        assert cover.weights == {"r": pytest.approx(1.0, abs=1e-9)}

    def test_allowed_duplicate_keeps_the_optimum(self, triangle):
        cover = fractional_cover(
            triangle.edges, triangle.vertices, allowed=["r", "r", "s", "t"]
        )
        assert cover.weight == pytest.approx(1.5, abs=1e-9)

    def test_k5_fractional_cover(self, k5):
        # K5: fractional vertex cover by edges = 5/2 edges of weight 1/... the
        # optimum is 2.5 (each vertex in 4 edges; LP optimum n/2).
        assert fractional_cover_number(k5.edges, k5.vertices) == pytest.approx(2.5, abs=1e-6)

    def test_degenerate_hub_is_exact(self):
        # The hub h lies in every edge, so h is over-covered and its packing
        # value is 0 at every optimum, and r2/s2 duplicate r/s, which ties
        # the ratio tests: the pivots are degenerate, and Bland's rule must
        # not cycle through them.
        family = {
            "r": frozenset("hxy"),
            "s": frozenset("hyz"),
            "t": frozenset("hzx"),
            "r2": frozenset("hxy"),
            "s2": frozenset("hyz"),
        }
        cover = fractional_cover(family, "hxyz")
        assert cover.weight == 1.5
        assert covered_vertices(family, cover.weights, tolerance=0.0) == set("hxyz")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cover_and_packing_certify_the_optimum(self, data):
        vertices = [f"v{i}" for i in range(data.draw(st.integers(1, 7)))]
        edges = data.draw(
            st.lists(
                st.frozensets(st.sampled_from(vertices), min_size=1),
                min_size=1,
                max_size=16,
            )
        )
        family = {f"e{j}": e for j, e in enumerate(edges)}
        reachable = sorted(frozenset().union(*edges))
        bag = sorted(data.draw(st.frozensets(st.sampled_from(reachable), min_size=1)))
        cover = fractional_cover(family, bag)
        # The cover is feasible: every bag vertex gets at least 1.
        assert covered_vertices(family, cover.weights, tolerance=1e-9) >= set(bag)
        # The packing is feasible: non-negative, and no edge gets more than 1.
        names = list(family)
        rows = [[j for j, name in enumerate(names) if v in family[name]] for v in bag]
        value, _cover, packing = covering_lp(rows, len(names))
        assert all(y >= -1e-9 for y in packing)
        for name in names:
            assert sum(y for v, y in zip(bag, packing) if v in family[name]) <= 1 + 1e-9
        # Equal objectives: by weak duality both are optimal.
        assert cover.weight == pytest.approx(sum(packing), abs=1e-9)
        assert value == pytest.approx(sum(packing), abs=1e-9)

    def test_vertex_in_no_edge_is_rejected(self):
        with pytest.raises(ValueError):
            covering_lp([[0], []], 1)

    def test_covered_vertices(self, triangle):
        covered = covered_vertices(triangle.edges, {"r": 0.5, "s": 0.5, "t": 0.5})
        assert covered == {"x", "y", "z"}

    def test_covered_vertices_threshold(self, triangle):
        covered = covered_vertices(triangle.edges, {"r": 0.4, "s": 0.4, "t": 0.4})
        assert covered == frozenset()


class TestIntegralCover:
    def test_is_integral_cover_true(self, triangle):
        assert is_integral_cover(triangle.edges, ["r", "s"], ["x", "y", "z"])

    def test_is_integral_cover_false(self, triangle):
        assert not is_integral_cover(triangle.edges, ["r"], ["x", "y", "z"])

    def test_minimum_cover_of_triangle_needs_two(self, triangle):
        cover = minimum_integral_cover(triangle.edges, triangle.vertices)
        assert cover is not None and len(cover) == 2

    def test_minimum_cover_empty_bag(self, triangle):
        assert minimum_integral_cover(triangle.edges, []) == ()

    def test_minimum_cover_uncoverable(self, triangle):
        assert minimum_integral_cover(triangle.edges, ["q"]) is None

    def test_minimum_cover_respects_max_size(self, triangle):
        assert minimum_integral_cover(triangle.edges, triangle.vertices, max_size=1) is None

    def test_k4_needs_two_edges(self, k4):
        cover = minimum_integral_cover(k4.edges, k4.vertices)
        assert len(cover) == 2

    def test_clique_cover_grows(self):
        k6 = clique_hypergraph(6)
        cover = minimum_integral_cover(k6.edges, k6.vertices)
        assert len(cover) == 3
