"""Fractionally improved decompositions (Section 6.5).

Two algorithms trade computational cost against quality:

* :func:`improve_hd` (the paper's ``ImproveHD``) keeps the tree and bags of
  an existing (G)HD and merely replaces every integral λ-label with an
  optimal fractional edge cover (one LP per bag).  Cheap, but entirely
  dependent on the starting decomposition.
* :func:`check_frac_improved` (the paper's ``FracImproveHD``) searches over
  *all* HDs of integral width ≤ k reachable by the ``DetKDecomp`` search for
  one whose bags all admit fractional covers of weight ≤ k′ — i.e. it decides
  the "fractionally improved HD" problem for the pair ``(k, k′)``.
  :func:`best_fractional_improvement` then minimises k′ by bisection.

The search reuses :class:`~repro.decomp.detkdecomp.DetKDecomp` with a bag
filter; LP results are memoised per bag since the search revisits bags.
"""

from __future__ import annotations

from repro.core.covers import fractional_cover
from repro.core.decomposition import Decomposition, DecompositionNode
from repro.core.hypergraph import Hypergraph
from repro.decomp.detkdecomp import DetKDecomp
from repro.utils.deadline import Deadline

__all__ = [
    "improve_hd",
    "check_frac_improved",
    "best_fractional_improvement",
    "check_frac_best",
    "DEFAULT_PRECISION",
    "FRACTIONAL_TOLERANCE",
]

#: Numeric slack when comparing LP optima against thresholds.
FRACTIONAL_TOLERANCE = 1e-6

#: Default bisection precision of :func:`best_fractional_improvement`, and
#: the one the engine's ``fracimprove`` method (:func:`check_frac_best`)
#: runs at: the store key carries no precision dimension, so another
#: precision is a library call, never a cached row.
DEFAULT_PRECISION = 0.1


def improve_hd(decomposition: Decomposition) -> Decomposition:
    """``ImproveHD``: swap every integral cover for an optimal fractional one.

    The tree and bags are preserved, so the result is an FHD of width equal
    to the maximum fractional cover number over the existing bags — never
    worse than the input width.
    """
    h = decomposition.hypergraph
    family = h.edges

    def rebuild(node: DecompositionNode) -> DecompositionNode:
        gamma = fractional_cover(family, node.bag)
        return DecompositionNode(
            node.bag, gamma.weights, [rebuild(c) for c in node.children]
        )

    root = rebuild(decomposition.root)
    return Decomposition(h, root, kind="FHD")


class _BagWeightCache:
    """Memoised fractional cover numbers, shared across search probes."""

    def __init__(self, hypergraph: Hypergraph):
        self._family = hypergraph.edges
        self._cache: dict[frozenset[str], float] = {}

    def weight(self, bag: frozenset[str]) -> float:
        cached = self._cache.get(bag)
        if cached is None:
            cached = fractional_cover(self._family, bag).weight
            self._cache[bag] = cached
        return cached


def check_frac_improved(
    hypergraph: Hypergraph,
    k: int,
    k_prime: float,
    deadline: Deadline | None = None,
    cache: _BagWeightCache | None = None,
) -> Decomposition | None:
    """``FracImproveHD``: an FHD of width ≤ k′ from some HD of width ≤ k.

    Searches the ``DetKDecomp`` space of HDs of integral width ≤ k for one in
    which every bag's fractional cover number is ≤ k′; on success that HD is
    fractionally improved and returned as an FHD.  Returns ``None`` when no
    such HD exists in the search space.
    """
    if k_prime <= 0:
        raise ValueError("k_prime must be positive")
    cache = cache or _BagWeightCache(hypergraph)

    def bag_ok(bag: frozenset[str]) -> bool:
        return cache.weight(bag) <= k_prime + FRACTIONAL_TOLERANCE

    hd = DetKDecomp(
        hypergraph, k, deadline=deadline, bag_filter=bag_ok
    ).decompose()
    if hd is None:
        return None
    return improve_hd(hd)


def best_fractional_improvement(
    hypergraph: Hypergraph,
    k: int,
    precision: float = DEFAULT_PRECISION,
    deadline: Deadline | None = None,
) -> Decomposition | None:
    """Minimise k′ over fractionally improved HDs of integral width ≤ k.

    Bisects the threshold k′ down to ``precision``, reusing one LP cache
    across probes.  Returns the best FHD found, or ``None`` when not even
    ``k′ = k`` admits an HD (i.e. ``Check(HD, k)`` itself fails).
    """
    deadline = deadline or Deadline.unlimited()
    cache = _BagWeightCache(hypergraph)

    best = check_frac_improved(hypergraph, k, float(k), deadline=deadline, cache=cache)
    if best is None:
        return None
    low, high = 1.0, best.width
    while high - low > precision:
        deadline.check()
        mid = (low + high) / 2
        candidate = check_frac_improved(
            hypergraph, k, mid, deadline=deadline, cache=cache
        )
        if candidate is None:
            low = mid
        else:
            best = candidate
            high = min(mid, candidate.width)
    return best


def check_frac_best(
    hypergraph: Hypergraph,
    k: int,
    deadline: Deadline | None = None,
) -> Decomposition | None:
    """``FracImproveHD`` as an engine check function (method ``fracimprove``).

    Matches the :data:`repro.decomp.driver.CheckFunction` signature so the
    decomposition engine can cache, prune and hard-timeout the Table 6
    computation like any other ``Check(H, k)``: "yes" means an HD of width
    ≤ k exists and the returned FHD is the best fractional improvement found
    (its ``width`` is the Table 6 value); "no" means not even ``Check(HD, k)``
    succeeds.  Both are monotone in ``k``, so ``fracimprove`` rows feed the
    store's bounds index.  Uses the default bisection precision.
    """
    return best_fractional_improvement(hypergraph, k, deadline=deadline)
