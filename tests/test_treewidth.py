"""Tests for the primal graph, min-fill TDs, and exact treewidth."""

import os
import subprocess
import sys

import pytest

from repro.core.hypergraph import Hypergraph
from repro.core.treewidth import (
    primal_graph,
    tree_decomposition_min_fill,
    treewidth_exact,
    treewidth_upper_bound,
)
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import exact_width
from tests.conftest import (
    REPO_ROOT,
    clique_hypergraph,
    cycle_hypergraph,
    random_hypergraph,
)


class TestPrimalGraph:
    def test_triangle_primal(self, triangle):
        g = primal_graph(triangle)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3

    def test_hyperedge_becomes_clique(self):
        h = Hypergraph({"wide": ["a", "b", "c", "d"]})
        g = primal_graph(h)
        assert g.number_of_edges() == 6

    def test_empty(self):
        assert primal_graph(Hypergraph({})).number_of_nodes() == 0


class TestTreeDecomposition:
    def test_min_fill_td_validates(self, triangle):
        td = tree_decomposition_min_fill(triangle)
        td.validate("TD")

    @pytest.mark.parametrize("seed", range(15))
    def test_min_fill_valid_on_random(self, seed):
        h = random_hypergraph(seed)
        td = tree_decomposition_min_fill(h)
        td.validate("TD")

    def test_empty_hypergraph(self):
        td = tree_decomposition_min_fill(Hypergraph({}))
        assert td.width == 0


class TestTreewidthValues:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_clique_treewidth(self, n):
        assert treewidth_exact(clique_hypergraph(n)) == n - 1

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_cycle_treewidth(self, n):
        assert treewidth_exact(cycle_hypergraph(n)) == 2

    def test_tree_treewidth(self, path3):
        assert treewidth_exact(path3) == 1

    def test_single_vertex(self):
        assert treewidth_exact(Hypergraph({"a": ["x"]})) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_at_most_upper_bound(self, seed):
        h = random_hypergraph(seed)
        assert treewidth_exact(h) <= treewidth_upper_bound(h)


class TestWidthRelations:
    """The classical relations between tw and hw, checked empirically."""

    @pytest.mark.parametrize("seed", range(15))
    def test_hw_at_most_tw_plus_one(self, seed):
        h = random_hypergraph(seed)
        if not h.num_edges:
            return
        tw = treewidth_exact(h)
        # hw <= tw + 1: cover every TD bag vertex-by-vertex with edges.
        result = exact_width(check_hd, h, max_k=tw + 1)
        assert result.upper is not None and result.upper <= tw + 1

    def test_wide_acyclic_gap(self):
        # hw = 1 but tw = arity - 1: hypergraphs beat graphs for wide edges.
        h = Hypergraph({"wide": ["a", "b", "c", "d", "e"]})
        assert check_hd(h, 1) is not None
        assert treewidth_exact(h) == 4


class TestLazyNetworkx:
    def test_entry_modules_do_not_load_networkx(self):
        """The CLI, the service and the pull-worker never pay the networkx
        import; only the treewidth functions load it, on first use."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        probe = (
            "import sys\n"
            "import repro.cli, repro.service.server, repro.engine.remote\n"
            "print('networkx' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"
