"""Wire-layer tests: packed hypergraphs, mask decompositions, pickling.

Property-based round trips for :class:`repro.core.bitset.PackedHypergraph`
(names, masks, fingerprint stability), the mask wire form of decompositions,
the fingerprint-carrying ``Hypergraph.__reduce__``, and a differential test
that packed-dispatch verdicts through real worker processes match the frozen
reference kernel (:mod:`repro.decomp.reference`) on random hypergraphs.
"""

from __future__ import annotations

import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.bitset import (
    HypergraphView,
    PackedHypergraph,
    pack_decomposition,
    unpack_decomposition,
)
from repro.core.hypergraph import Hypergraph
from repro.decomp.detkdecomp import check_hd
from repro.decomp.fractional import best_fractional_improvement
from repro.decomp.localbip import check_ghd_local_bip
from repro.decomp.reference import check_ghd_balsep_reference, check_hd_reference
import importlib

from repro.engine import fingerprint, map_checks, run_checked

# The package re-exports the ``fingerprint`` *function* under the submodule's
# name, so the module object must be resolved explicitly for monkeypatching.
fingerprint_module = importlib.import_module("repro.engine.fingerprint")
from tests.conftest import random_hypergraph

vertex_names = st.integers(min_value=0, max_value=6).map(lambda i: f"v{i}")

edges_strategy = st.lists(
    st.frozensets(vertex_names, min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)


def build(edge_sets) -> Hypergraph:
    return Hypergraph({f"e{i}": sorted(vs) for i, vs in enumerate(edge_sets)}, name="H")


# -------------------------------------------------------- pack / unpack


class TestPackedRoundTrip:
    @given(edges_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_unpack_restores_the_hypergraph(self, edge_sets):
        h = build(edge_sets)
        packed = PackedHypergraph.pack(h)
        restored = packed.unpack()
        assert restored == h
        assert restored.name == h.name
        assert restored.edge_names == h.edge_names
        assert restored.vertices == h.vertices

    @given(edges_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_pack_of_unpack_is_identity(self, edge_sets):
        packed = PackedHypergraph.pack(build(edge_sets))
        assert PackedHypergraph.pack(packed.unpack()) == packed

    @given(edges_strategy)
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_fingerprint_is_stable_across_the_wire(self, edge_sets):
        h = build(edge_sets)
        packed = PackedHypergraph.pack(h)
        revived = pickle.loads(pickle.dumps(packed))
        assert revived == packed
        assert fingerprint(revived.unpack()) == fingerprint(h)

    def test_unpacked_view_matches_a_freshly_built_one(self):
        h = random_hypergraph(3)
        packed = PackedHypergraph.pack(h)
        restored = packed.unpack()
        cached = HypergraphView.of(restored)  # installed by unpack()
        rebuilt = HypergraphView(restored)
        assert cached.vertex_names == rebuilt.vertex_names
        assert cached.edge_names == rebuilt.edge_names
        assert cached.edge_masks == rebuilt.edge_masks
        assert cached.incidence == rebuilt.incidence
        assert cached.all_vertices == rebuilt.all_vertices
        assert cached.all_edges == rebuilt.all_edges

    def test_unpack_skips_rehashing(self, monkeypatch):
        h = random_hypergraph(5)
        packed = PackedHypergraph.pack(h)

        def boom(_h):  # the canonical form must not be recomputed
            raise AssertionError("canonical_form recomputed after unpack")

        monkeypatch.setattr(fingerprint_module, "canonical_form", boom)
        assert fingerprint(packed.unpack()) == packed.fingerprint


# --------------------------------------------------- decomposition wire


class TestDecompositionWire:
    @pytest.mark.parametrize("seed", range(8))
    def test_hd_round_trip_validates(self, seed):
        h = random_hypergraph(seed)
        decomposition = check_hd(h, 3)
        if decomposition is None:
            pytest.skip("no HD of width <= 3")
        payload = pickle.loads(pickle.dumps(pack_decomposition(decomposition)))
        restored = unpack_decomposition(payload, h)
        restored.validate()
        assert restored.kind == decomposition.kind
        assert restored.integral_width == decomposition.integral_width
        assert sorted(map(sorted, restored.bags())) == sorted(
            map(sorted, decomposition.bags())
        )

    def test_fractional_weights_survive(self, triangle):
        fhd = best_fractional_improvement(triangle, 2)
        assert fhd is not None
        restored = unpack_decomposition(pack_decomposition(fhd), triangle)
        assert restored.width == pytest.approx(fhd.width)

    def test_ghd_round_trip(self, triangle):
        decomposition = check_ghd_local_bip(triangle, 2)
        restored = unpack_decomposition(pack_decomposition(decomposition), triangle)
        restored.validate()
        assert restored.integral_width == decomposition.integral_width


# ------------------------------------------------- fingerprint pickling


class TestReduceCarriesFingerprint:
    def test_round_trip_skips_canonical_form(self, monkeypatch):
        h = random_hypergraph(11)
        fp = fingerprint(h)  # computed and cached before pickling
        revived = pickle.loads(pickle.dumps(h))
        assert revived == h

        def boom(_h):
            raise AssertionError("canonical_form recomputed after unpickling")

        monkeypatch.setattr(fingerprint_module, "canonical_form", boom)
        assert fingerprint(revived) == fp

    def test_uncomputed_fingerprint_stays_lazy(self):
        h = random_hypergraph(12)
        revived = pickle.loads(pickle.dumps(h))
        assert revived._fingerprint is None
        assert fingerprint(revived) == fingerprint(h)


# ----------------------------------------------------- differential runs


class TestPackedDispatchMatchesReference:
    """Verdicts through packed worker processes == in-process reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_hd_verdicts(self, seed):
        h = random_hypergraph(seed)
        for k in (1, 2, 3):
            reference = check_hd_reference(h, k)
            outcome = run_checked("hd", h, k, timeout=30.0)
            assert outcome.verdict == ("yes" if reference is not None else "no"), (
                h.name,
                k,
            )
            if outcome.verdict == "yes":
                outcome.decomposition.validate()
                assert outcome.decomposition.integral_width <= k
                # re-named at the parent: labels refer to this hypergraph
                assert outcome.decomposition.hypergraph is h

    def test_ghd_batch_through_the_pool(self):
        graphs = [random_hypergraph(seed) for seed in range(5)]
        tasks = [("balsep", h, 2, 30.0) for h in graphs]
        outcomes = map_checks(tasks, jobs=2)
        for h, outcome in zip(graphs, outcomes):
            reference = check_ghd_balsep_reference(h, 2)
            assert outcome.verdict == ("yes" if reference is not None else "no"), h.name
            if outcome.decomposition is not None:
                outcome.decomposition.validate()
