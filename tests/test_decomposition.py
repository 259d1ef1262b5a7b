"""Unit tests for decomposition objects and their validators."""

import pytest

from repro.core.covers import FractionalCover
from repro.core.decomposition import Decomposition, DecompositionNode
from repro.core.hypergraph import Hypergraph
from repro.errors import ValidationError


def make_path_td():
    h = Hypergraph({"a": ["1", "2"], "b": ["2", "3"]}, name="p")
    leaf = DecompositionNode({"2", "3"}, {"b": 1.0})
    root = DecompositionNode({"1", "2"}, {"a": 1.0}, [leaf])
    return h, Decomposition(h, root, kind="HD")


class TestBasics:
    def test_width(self):
        _, d = make_path_td()
        assert d.width == 1.0
        assert d.integral_width == 1

    def test_len_and_nodes(self):
        _, d = make_path_td()
        assert len(d) == 2
        assert len(list(d.nodes())) == 2

    def test_unknown_kind_rejected(self):
        h, d = make_path_td()
        with pytest.raises(ValueError):
            Decomposition(h, d.root, kind="XXX")

    def test_cover_weight_is_the_correctly_rounded_sum(self):
        # FracImproveHD's optimal cover of a csp_model_7_0000 bag at k = 2;
        # the builtin sum reads 1.7999999999999998 before Python 3.12
        weights = {"c0": 0.4, "c3": 0.4, "c4": 0.6, "c5": 0.2, "c9": 0.2}
        assert DecompositionNode({"x"}, weights).weight == 1.8
        assert FractionalCover(weights).weight == 1.8

    def test_lambda_label_ignores_zero_weights(self):
        node = DecompositionNode({"x"}, {"a": 1.0, "b": 0.0})
        assert node.lambda_label() == {"a"}

    def test_to_dict_roundtrippable(self):
        _, d = make_path_td()
        payload = d.to_dict()
        assert payload["kind"] == "HD"
        assert payload["width"] == 1.0
        assert payload["root"]["children"][0]["bag"] == ["2", "3"]


class TestValidation:
    def test_valid_hd_passes(self):
        _, d = make_path_td()
        d.validate("HD")

    def test_edge_coverage_violation(self):
        h = Hypergraph({"a": ["1", "2"], "b": ["3", "4"]})
        root = DecompositionNode({"1", "2"}, {"a": 1.0})
        d = Decomposition(h, root, kind="TD")
        with pytest.raises(ValidationError, match="contained in no bag"):
            d.validate()

    def test_connectedness_violation(self):
        h = Hypergraph({"a": ["1", "2"], "b": ["2", "3"], "c": ["1", "3"]})
        # 1 appears at the root and in a grandchild but not between.
        grandchild = DecompositionNode({"1", "3"}, {"c": 1.0})
        child = DecompositionNode({"2", "3"}, {"b": 1.0}, [grandchild])
        root = DecompositionNode({"1", "2"}, {"a": 1.0}, [child])
        d = Decomposition(h, root, kind="TD")
        with pytest.raises(ValidationError, match="connectedness|disconnected"):
            d.validate()

    def test_cover_violation(self):
        h = Hypergraph({"a": ["1", "2"]})
        root = DecompositionNode({"1", "2"}, {})
        d = Decomposition(h, root, kind="GHD")
        with pytest.raises(ValidationError, match="not covered"):
            d.validate()

    def test_td_does_not_check_covers(self):
        h = Hypergraph({"a": ["1", "2"]})
        root = DecompositionNode({"1", "2"}, {})
        Decomposition(h, root, kind="TD").validate()

    def test_unknown_edge_in_cover(self):
        h = Hypergraph({"a": ["1"]})
        root = DecompositionNode({"1"}, {"zzz": 1.0})
        with pytest.raises(ValidationError, match="unknown edge"):
            Decomposition(h, root, kind="GHD").validate()

    def test_negative_weight_rejected(self):
        h = Hypergraph({"a": ["1"]})
        root = DecompositionNode({"1"}, {"a": -1.0})
        with pytest.raises(ValidationError, match="negative"):
            Decomposition(h, root, kind="FHD").validate()

    def test_fractional_weight_rejected_for_ghd(self):
        h = Hypergraph({"a": ["1"], "b": ["1"]})
        root = DecompositionNode({"1"}, {"a": 0.5, "b": 0.5})
        with pytest.raises(ValidationError, match="non-integral"):
            Decomposition(h, root, kind="GHD").validate()

    def test_fractional_weights_fine_for_fhd(self):
        h = Hypergraph({"a": ["1", "2"], "b": ["2", "3"], "c": ["1", "3"]})
        root = DecompositionNode({"1", "2", "3"}, {"a": 0.5, "b": 0.5, "c": 0.5})
        Decomposition(h, root, kind="FHD").validate()

    def test_special_condition_violation(self):
        # λ at the root covers vertex 3, which is cut from the root bag but
        # reappears below -> violates the HD special condition.
        h = Hypergraph({"r": ["1", "2"], "s": ["2", "3"]})
        child = DecompositionNode({"2", "3"}, {"s": 1.0})
        root = DecompositionNode({"1", "2"}, {"r": 1.0, "s": 1.0}, [child])
        d = Decomposition(h, root, kind="HD")
        with pytest.raises(ValidationError, match="special condition"):
            d.validate()

    def test_same_tree_valid_as_ghd(self):
        h = Hypergraph({"r": ["1", "2"], "s": ["2", "3"]})
        child = DecompositionNode({"2", "3"}, {"s": 1.0})
        root = DecompositionNode({"1", "2"}, {"r": 1.0, "s": 1.0}, [child])
        Decomposition(h, root, kind="GHD").validate()
