"""Decomposition objects and independent validators (Section 3.2).

A single :class:`Decomposition` class represents TDs, GHDs, HDs and FHDs: every
node carries a bag (set of vertices) and an edge-cover function mapping edge
names to weights.  Integral decompositions use weight ``1.0`` per λ-label
member; fractional ones use arbitrary non-negative weights.

The validators re-check every defining condition from scratch:

1. every hyperedge is contained in some bag,
2. connectedness: the nodes containing any vertex form a subtree,
3. cover: ``B_u ⊆ B(γ_u)`` at every node,
4. (HDs only) the *special condition*: ``V(T_u) ∩ B(λ_u) ⊆ B_u``.

They are deliberately written independently of the search algorithms so the
test suite can use them as a soundness oracle: anything any algorithm returns
must validate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping

from repro.core.hypergraph import Hypergraph
from repro.errors import ValidationError

__all__ = ["DecompositionNode", "Decomposition"]


class DecompositionNode:
    """One node of a decomposition tree.

    Attributes
    ----------
    bag:
        The vertex set ``B_u``.
    cover:
        The (fractional) edge cover ``γ_u`` as ``{edge_name: weight}``.
        Integral λ-labels use weight ``1.0``.
    children:
        Child nodes (the tree is rooted; HDs depend on the rooting).
    """

    __slots__ = ("bag", "cover", "children")

    def __init__(
        self,
        bag: frozenset[str] | set[str],
        cover: Mapping[str, float],
        children: list["DecompositionNode"] | None = None,
    ):
        self.bag = frozenset(bag)
        self.cover = dict(cover)
        self.children = list(children or [])

    @property
    def weight(self) -> float:
        """The cover weight at this node (its contribution to the width).

        Summed with :func:`math.fsum`, so the width is the correctly rounded
        sum of the weights on every Python version (the builtin ``sum``
        compensates its rounding only from 3.12 on).
        """
        return math.fsum(self.cover.values())

    def lambda_label(self) -> frozenset[str]:
        """Edge names with positive weight (the λ/γ support)."""
        return frozenset(name for name, w in self.cover.items() if w > 0)

    def __repr__(self) -> str:
        return (
            f"DecompositionNode(bag={sorted(self.bag)}, "
            f"cover={sorted(self.lambda_label())}, children={len(self.children)})"
        )


class Decomposition:
    """A rooted decomposition of a hypergraph.

    Parameters
    ----------
    hypergraph:
        The decomposed hypergraph; cover labels refer to its edge names.
    root:
        Root node of the tree.
    kind:
        One of ``"TD"``, ``"GHD"``, ``"HD"``, ``"FHD"`` — informational, and
        selects which conditions :meth:`validate` enforces by default.
    """

    INTEGRAL_KINDS = ("TD", "GHD", "HD")
    KINDS = INTEGRAL_KINDS + ("FHD",)

    def __init__(self, hypergraph: Hypergraph, root: DecompositionNode, kind: str = "GHD"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown decomposition kind {kind!r}")
        self.hypergraph = hypergraph
        self.root = root
        self.kind = kind

    # ------------------------------------------------------------- traversal

    def nodes(self) -> Iterator[DecompositionNode]:
        """Pre-order iterator over the tree nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def __len__(self) -> int:
        return sum(1 for _ in self.nodes())

    @property
    def width(self) -> float:
        """``max_u weight(γ_u)`` — integral widths come out as whole floats."""
        return max(node.weight for node in self.nodes())

    @property
    def integral_width(self) -> int:
        """Width as an int; only meaningful for TD/GHD/HD decompositions."""
        return max(len(node.lambda_label()) for node in self.nodes())

    def bags(self) -> list[frozenset[str]]:
        return [node.bag for node in self.nodes()]

    # ------------------------------------------------------------ validation

    def validate(self, kind: str | None = None) -> None:
        """Re-check every defining condition; raise :class:`ValidationError`.

        ``kind`` overrides the decomposition's own kind (e.g. validate a GHD
        as a mere TD).  ``"HD"`` additionally enforces the special condition.
        """
        kind = kind or self.kind
        if kind not in self.KINDS:
            raise ValueError(f"unknown decomposition kind {kind!r}")
        self._validate_edge_coverage()
        self._validate_connectedness()
        if kind != "TD":
            self._validate_covers(integral=kind in ("GHD", "HD"))
        if kind == "HD":
            self._validate_special_condition()

    def _validate_edge_coverage(self) -> None:
        bags = self.bags()
        for name, edge in self.hypergraph.edges.items():
            if not any(edge <= bag for bag in bags):
                raise ValidationError(f"edge {name!r} is contained in no bag")

    def _validate_connectedness(self) -> None:
        # For every vertex, the nodes whose bag contains it must form a
        # connected subtree.  We check top-down: once a root-to-leaf path
        # leaves the vertex's subtree, the vertex must not reappear below.
        nodes = list(self.nodes())
        occurrences: dict[str, int] = {}
        for node in nodes:
            for v in node.bag:
                occurrences[v] = occurrences.get(v, 0) + 1

        def count_connected(node: DecompositionNode, v: str) -> int:
            """Size of the connected block containing ``node`` (which has v)."""
            total = 1
            for child in node.children:
                if v in child.bag:
                    total += count_connected(child, v)
            return total

        seen_roots: set[str] = set()
        stack: list[tuple[DecompositionNode, DecompositionNode | None]] = [
            (self.root, None)
        ]
        while stack:
            node, parent = stack.pop()
            for v in node.bag:
                is_block_root = parent is None or v not in parent.bag
                if not is_block_root:
                    continue
                if v in seen_roots:
                    raise ValidationError(
                        f"vertex {v!r} occurs in two disconnected parts of the tree"
                    )
                seen_roots.add(v)
                if count_connected(node, v) != occurrences[v]:
                    raise ValidationError(
                        f"vertex {v!r} violates the connectedness condition"
                    )
            for child in node.children:
                stack.append((child, node))

    def _validate_covers(self, integral: bool) -> None:
        edges = self.hypergraph.edges
        for node in self.nodes():
            totals: dict[str, float] = {}
            for name, weight in node.cover.items():
                if weight < 0:
                    raise ValidationError(f"negative cover weight on edge {name!r}")
                if integral and weight not in (0, 0.0, 1, 1.0):
                    raise ValidationError(
                        f"non-integral weight {weight} in an integral decomposition"
                    )
                if name not in edges:
                    raise ValidationError(f"cover refers to unknown edge {name!r}")
                for v in edges[name]:
                    totals[v] = totals.get(v, 0.0) + weight
            for v in node.bag:
                if totals.get(v, 0.0) < 1.0 - 1e-7:
                    raise ValidationError(
                        f"bag vertex {v!r} is not covered (condition 3 fails)"
                    )

    def _validate_special_condition(self) -> None:
        edges = self.hypergraph.edges

        def subtree_vertices(node: DecompositionNode) -> frozenset[str]:
            result = set(node.bag)
            for child in node.children:
                result |= subtree_vertices(child)
            return frozenset(result)

        for node in self.nodes():
            covered = frozenset().union(
                *(edges[name] for name in node.lambda_label())
            ) if node.cover else frozenset()
            offenders = (subtree_vertices(node) & covered) - node.bag
            if offenders:
                raise ValidationError(
                    f"special condition violated at a node: vertices "
                    f"{sorted(offenders)} appear below but are cut from the bag"
                )

    # ---------------------------------------------------------------- export

    def to_dict(self) -> dict:
        """JSON-serialisable representation (see :mod:`repro.io`)."""

        def node_dict(node: DecompositionNode) -> dict:
            return {
                "bag": sorted(node.bag),
                "cover": {k: v for k, v in sorted(node.cover.items())},
                "children": [node_dict(c) for c in node.children],
            }

        return {
            "kind": self.kind,
            "hypergraph": self.hypergraph.name,
            "width": self.width,
            "root": node_dict(self.root),
        }

    def __repr__(self) -> str:
        return f"<{self.kind} of {self.hypergraph.name or 'H'}: width={self.width}, nodes={len(self)}>"
