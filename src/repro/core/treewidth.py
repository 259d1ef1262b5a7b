"""Treewidth of the primal graph, and TDs as decomposition objects.

The SPARQL analyses the paper builds on (Bonifati, Martens & Timm) classify
queries by the *treewidth* of their (primal) graph; this module adds the same
capability: the primal graph of a hypergraph, a min-fill-in tree
decomposition (via networkx's approximation algorithms), an exact treewidth
check for small instances, and the classical width relations

    hw(H) <= tw(H) + 1        (every TD bag can be covered edge-by-vertex)
    tw(H) + 1 <= hw(H) * arity(H)

which the test suite verifies on random hypergraphs.
"""

from __future__ import annotations

import itertools

from repro.core.decomposition import Decomposition, DecompositionNode
from repro.core.hypergraph import Hypergraph
from repro.utils.deadline import Deadline

__all__ = [
    "primal_graph",
    "tree_decomposition_min_fill",
    "treewidth_upper_bound",
    "treewidth_exact",
]


def primal_graph(hypergraph: Hypergraph) -> nx.Graph:
    """The primal (Gaifman) graph: vertices adjacent iff they share an edge."""
    # networkx loads on first use: nothing on the check, serve or worker
    # paths needs it, and importing it costs every process ~290 modules.
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(hypergraph.vertices)
    for edge in hypergraph.edges.values():
        for u, v in itertools.combinations(sorted(edge), 2):
            graph.add_edge(u, v)
    return graph


def tree_decomposition_min_fill(hypergraph: Hypergraph) -> Decomposition:
    """A tree decomposition from the min-fill-in heuristic.

    The result is a valid TD of the *hypergraph* (every hyperedge is a
    clique of the primal graph and therefore contained in some bag).
    """
    from networkx.algorithms.approximation import treewidth_min_fill_in

    graph = primal_graph(hypergraph)
    if graph.number_of_nodes() == 0:
        return Decomposition(hypergraph, DecompositionNode(frozenset(), {}), kind="TD")
    _width, junction_tree = treewidth_min_fill_in(graph)

    bags = list(junction_tree.nodes)
    if not bags:  # single vertex, no edges in the junction tree
        bags = [frozenset(graph.nodes)]

    # Root the junction tree and convert to DecompositionNodes.
    root_bag = bags[0]
    nodes: dict[frozenset, DecompositionNode] = {
        bag: DecompositionNode(frozenset(bag), {}) for bag in bags
    }
    visited = {root_bag}
    stack = [root_bag]
    while stack:
        bag = stack.pop()
        for neighbour in junction_tree.neighbors(bag):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            nodes[bag].children.append(nodes[neighbour])
            stack.append(neighbour)
    return Decomposition(hypergraph, nodes[root_bag], kind="TD")


def treewidth_upper_bound(hypergraph: Hypergraph) -> int:
    """Width of the min-fill-in TD (an upper bound on tw)."""
    decomposition = tree_decomposition_min_fill(hypergraph)
    return max((len(bag) for bag in decomposition.bags()), default=1) - 1


def treewidth_exact(
    hypergraph: Hypergraph, deadline: Deadline | None = None
) -> int:
    """Exact treewidth by the elimination-ordering QuickBB-style search.

    Exponential — intended for the benchmark-scale instances (< 25 primal
    vertices), cooperative w.r.t. deadlines.
    """
    deadline = deadline or Deadline.unlimited()
    graph = primal_graph(hypergraph)
    n = graph.number_of_nodes()
    if n == 0:
        return 0
    upper = treewidth_upper_bound(hypergraph)
    if upper <= 1:
        return upper

    best = upper
    memo: dict[frozenset, int] = {}

    adjacency = {v: set(graph.neighbors(v)) for v in graph.nodes}

    def eliminate(remaining: frozenset, adj: dict[str, set[str]], bound: int) -> int:
        """Minimum over elimination orders of the maximum degree seen."""
        deadline.check()
        if len(remaining) <= 1:
            return 0
        cached = memo.get(remaining)
        if cached is not None:
            return cached
        best_here = bound
        for v in sorted(remaining):
            degree = len(adj[v] & remaining)
            if degree >= best_here:
                continue
            neighbours = adj[v] & remaining
            # Eliminate v: connect its neighbours into a clique.
            new_adj = {u: set(adj[u]) for u in remaining if u != v}
            for a in neighbours:
                new_adj[a] |= neighbours - {a}
                new_adj[a].discard(v)
            sub = eliminate(remaining - {v}, new_adj, best_here)
            best_here = min(best_here, max(degree, sub))
        memo[remaining] = best_here
        return best_here

    best = eliminate(frozenset(graph.nodes), adjacency, best)
    return best
