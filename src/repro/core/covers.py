"""Integral and fractional edge covers (Section 3.2).

The fractional cover number ``ρ*(X)`` of a vertex set ``X`` is the optimum of
the covering LP

    minimise   Σ_e γ(e)
    subject to Σ_{e ∋ v} γ(e) ≥ 1   for every v ∈ X,  γ ≥ 0,

solved here by :func:`covering_lp`: a small primal simplex on its packing dual

    maximise   Σ_v y(v)
    subject to Σ_{v ∈ e} y(v) ≤ 1   for every edge e,  y ≥ 0,

whose origin is feasible, so no phase 1 is needed.  At the optimum the
reduced cost of edge e's slack is γ(e), an optimal cover, and the basic y
values are a packing of equal weight, which certifies the optimum by weak
duality.  ``ImproveHD`` and ``FracImproveHD`` (Section 6.5) call this once per
bag; the width of an FHD is the maximum bag weight.

Integral covers (the λ-labels of HDs/GHDs) are handled by a small greedy +
exact search used by validators and by the relational engine's cost model.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence

from repro.core.bitset import FamilyIndex
from repro.errors import HypergraphError
from repro.perf import counters

__all__ = [
    "FractionalCover",
    "covering_lp",
    "fractional_cover",
    "fractional_cover_number",
    "covered_vertices",
    "is_integral_cover",
    "minimum_integral_cover",
]

EdgeFamily = Mapping[str, frozenset[str]]

#: Weights below this threshold are dropped from reported covers; the
#: simplex's float pivots can leave round-off such as 1e-17 (or its negative)
#: on edges that carry no weight.
_WEIGHT_EPSILON = 1e-9

#: Pivot tolerance of :func:`covering_lp`.  Tableau entries are rationals with
#: small denominators, so anything closer to zero than this is round-off.
_PIVOT_EPSILON = 1e-12


class FractionalCover:
    """A fractional edge cover: edge weights plus the resulting total weight."""

    __slots__ = ("weights", "weight")

    def __init__(self, weights: Mapping[str, float]):
        self.weights = {
            name: float(w) for name, w in weights.items() if w > _WEIGHT_EPSILON
        }
        # correctly rounded on every Python version, like DecompositionNode.weight
        self.weight = math.fsum(self.weights.values())

    def __repr__(self) -> str:
        return f"FractionalCover(weight={self.weight:.4f}, support={len(self.weights)})"


def covered_vertices(
    family: EdgeFamily, weights: Mapping[str, float], tolerance: float = 1e-7
) -> frozenset[str]:
    """The set ``B(γ)`` of vertices receiving total weight ≥ 1."""
    totals: dict[str, float] = {}
    for name, w in weights.items():
        if w <= 0:
            continue
        for v in family[name]:
            totals[v] = totals.get(v, 0.0) + w
    return frozenset(v for v, t in totals.items() if t >= 1.0 - tolerance)


def fractional_cover(
    family: EdgeFamily,
    bag: Iterable[str],
    allowed: Iterable[str] | None = None,
) -> FractionalCover:
    """Optimal fractional edge cover of ``bag`` by edges of ``family``.

    Parameters
    ----------
    family:
        Edge mapping ``{name: vertices}`` (typically ``hypergraph.edges``).
    bag:
        Vertices to cover.
    allowed:
        Restrict the cover's support to these edge names (defaults to all).

    Raises
    ------
    HypergraphError
        If some bag vertex occurs in no allowed edge (the LP is infeasible).
    """
    bag_set = frozenset(bag)
    if not bag_set:
        return FractionalCover({})

    if allowed is None:
        candidates = [name for name, e in family.items() if e & bag_set]
    else:
        # One LP column per edge: a name listed twice is still one edge.
        candidates = [
            name for name in dict.fromkeys(allowed) if family[name] & bag_set
        ]

    vertices = sorted(bag_set)
    rows = [
        [j for j, name in enumerate(candidates) if v in family[name]]
        for v in vertices
    ]
    uncoverable = [v for v, edges in zip(vertices, rows) if not edges]
    if uncoverable:
        raise HypergraphError(
            f"vertices {uncoverable} occur in no allowed edge; "
            "the covering LP is infeasible"
        )
    _value, cover, _packing = covering_lp(rows, len(candidates))
    return FractionalCover(dict(zip(candidates, cover)))


def covering_lp(
    rows: Sequence[Sequence[int]], n: int
) -> tuple[float, list[float], list[float]]:
    """Solve ``min Σ x  s.t.  Σ_{e ∈ rows[i]} x[e] ≥ 1 for every i,  x ≥ 0``.

    ``rows[i]`` lists the indices (below ``n``) of the edges that contain bag
    vertex ``i``.  The primal simplex runs on the packing dual ``max Σ y``
    subject to ``Σ_{i : e ∈ rows[i]} y[i] ≤ 1`` for every edge ``e`` and
    ``y ≥ 0``: one tableau row per edge, one slack per row, starting from the
    feasible origin.  Bland's rule picks the entering and leaving variables,
    so the degenerate pivots these 0/1 LPs often take cannot cycle.

    Returns ``(value, cover, packing)``: the optimum, the cover ``x`` (length
    ``n``, read off the reduced costs of the slacks) and the packing ``y``
    (length ``len(rows)``, the basic values).  Both are feasible and weigh
    ``value``, which is the optimality certificate.
    """
    if not all(rows):
        raise ValueError("every vertex needs an edge: the covering LP is infeasible")
    m = len(rows)
    width = m + n  # columns y[0..m), then the slacks; the last entry is the rhs
    table = [[0.0] * width + [1.0] for _ in range(n)]
    for i, edges in enumerate(rows):
        for e in edges:
            table[e][i] = 1.0
    for e, row in enumerate(table):
        row[m + e] = 1.0
    basis = list(range(m, width))
    objective = [-1.0] * m + [0.0] * (n + 1)  # reduced costs; rhs = Σ y
    while True:
        col = next((j for j in range(width) if objective[j] < -_PIVOT_EPSILON), None)
        if col is None:
            break
        pivot, best = -1, 0.0
        for r, row in enumerate(table):
            if row[col] > _PIVOT_EPSILON:
                ratio = row[-1] / row[col]
                if pivot < 0 or ratio < best - _PIVOT_EPSILON or (
                    ratio <= best + _PIVOT_EPSILON and basis[r] < basis[pivot]
                ):
                    pivot, best = r, ratio
        scale = table[pivot][col]
        prow = table[pivot] = [a / scale for a in table[pivot]]
        for r, row in enumerate(table):
            f = row[col]
            if r != pivot and f != 0.0:
                table[r] = [a - f * b for a, b in zip(row, prow)]
        f = objective[col]
        objective = [a - f * b for a, b in zip(objective, prow)]
        basis[pivot] = col
    packing = [0.0] * m
    for r, j in enumerate(basis):
        if j < m:
            packing[j] = table[r][-1]
    return objective[-1], objective[m:width], packing


def fractional_cover_number(family: EdgeFamily, bag: Iterable[str]) -> float:
    """The fractional cover number ``ρ*(bag)`` (just the optimal weight)."""
    return fractional_cover(family, bag).weight


def is_integral_cover(
    family: EdgeFamily, cover: Iterable[str], bag: Iterable[str]
) -> bool:
    """Whether the edges named in ``cover`` jointly contain every bag vertex."""
    covered: set[str] = set()
    for name in cover:
        covered.update(family[name])
    return frozenset(bag) <= covered


def minimum_integral_cover(
    family: EdgeFamily,
    bag: Iterable[str],
    max_size: int | None = None,
) -> tuple[str, ...] | None:
    """A minimum-cardinality integral edge cover of ``bag``.

    Exact search: greedy upper bound first, then exhaustive search over
    combinations below the greedy size.  Intended for the small bags that
    occur in decompositions (``max_size`` defaults to the greedy bound).
    Returns ``None`` when no cover of size ``<= max_size`` exists.
    """
    counters.cover_enumerations += 1
    bag_set = frozenset(bag)
    if not bag_set:
        return ()
    # Mask-native search via a one-off dense index: the exhaustive phase
    # tests O(candidates^size) combinations, each now a few AND/OR ops.
    index = FamilyIndex(family)
    bit = index.vertex_bit
    bag_mask = 0
    for v in bag_set:
        b = bit.get(v)
        if b is None:
            return None  # vertex occurs in no edge at all
        bag_mask |= 1 << b
    masks = index.edge_masks
    names = index.edge_names
    candidates = [j for j in range(len(masks)) if masks[j] & bag_mask]
    union = 0
    for j in candidates:
        union |= masks[j]
    if bag_mask & ~union:
        return None

    # Greedy: repeatedly take the edge covering most uncovered vertices
    # (name tie-break, matching the historical frozenset behaviour).
    uncovered = bag_mask
    greedy: list[int] = []
    while uncovered:
        best = max(
            candidates,
            key=lambda j: ((masks[j] & uncovered).bit_count(), names[j]),
        )
        gain = masks[best] & uncovered
        if not gain:  # pragma: no cover - cannot happen given the union check
            return None
        greedy.append(best)
        uncovered &= ~gain

    bound = len(greedy) if max_size is None else min(len(greedy), max_size)

    # Exhaustive improvement below the greedy bound.
    for size in range(1, bound):
        for combo in itertools.combinations(candidates, size):
            covered = 0
            for j in combo:
                covered |= masks[j]
            if not bag_mask & ~covered:
                return tuple(names[j] for j in combo)
    if max_size is not None and len(greedy) > max_size:
        for combo in itertools.combinations(candidates, max_size):
            covered = 0
            for j in combo:
                covered |= masks[j]
            if not bag_mask & ~covered:
                return tuple(names[j] for j in combo)
        return None
    return tuple(names[j] for j in greedy)
