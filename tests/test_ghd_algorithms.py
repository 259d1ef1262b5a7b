"""Unit + differential tests for the three Check(GHD, k) algorithms."""

import pytest

from repro.core.hypergraph import Hypergraph
from repro.decomp.balsep import check_ghd_balsep
from repro.decomp.detkdecomp import check_hd
from repro.decomp.globalbip import check_ghd_global_bip
from repro.decomp.localbip import check_ghd_local_bip
from repro.errors import DeadlineExceeded
from repro.utils.deadline import Deadline
from tests.conftest import clique_hypergraph, cycle_hypergraph, random_hypergraph

ALGORITHMS = [check_ghd_global_bip, check_ghd_local_bip, check_ghd_balsep]
ALGORITHM_IDS = ["GlobalBIP", "LocalBIP", "BalSep"]


@pytest.mark.parametrize("check", ALGORITHMS, ids=ALGORITHM_IDS)
class TestEachAlgorithm:
    def test_acyclic_width_1(self, check, path3):
        ghd = check(path3, 1)
        assert ghd is not None
        ghd.validate("GHD")

    def test_triangle_no_at_1_yes_at_2(self, check, triangle):
        assert check(triangle, 1) is None
        ghd = check(triangle, 2)
        assert ghd is not None and ghd.integral_width <= 2
        ghd.validate("GHD")

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cycles(self, check, n):
        h = cycle_hypergraph(n)
        assert check(h, 1) is None
        ghd = check(h, 2)
        assert ghd is not None
        ghd.validate("GHD")

    def test_k4(self, check, k4):
        assert check(k4, 1) is None
        ghd = check(k4, 2)
        assert ghd is not None
        ghd.validate("GHD")

    def test_empty_hypergraph(self, check):
        ghd = check(Hypergraph({}), 1)
        assert ghd is not None

    def test_disconnected(self, check):
        h = Hypergraph({"a": ["1", "2"], "b": ["3", "4"]})
        ghd = check(h, 1)
        assert ghd is not None
        ghd.validate("GHD")

    def test_expired_deadline(self, check, k5):
        with pytest.raises(DeadlineExceeded):
            check(k5, 2, Deadline(0.0))

    def test_k5_refuted_at_2(self, check, k5):
        """K5 has ghw 3, so Check(GHD, 2) exhausts the search space and
        answers a definite no (the regime Table 3 probes)."""
        assert check(k5, 2) is None

    def test_wide_edges(self, check):
        h = Hypergraph(
            {
                "a": ["1", "2", "3"],
                "b": ["3", "4", "5"],
                "c": ["5", "6", "1"],
            }
        )
        assert check(h, 1) is None
        ghd = check(h, 2)
        assert ghd is not None
        ghd.validate("GHD")


class TestGhwBelowHw:
    """A hypergraph family where subedges genuinely matter.

    ghw can be smaller than hw; the classic witnesses need the GHD bags to
    use proper subedges.  We at least verify ghw <= hw everywhere and that
    the three algorithms agree with each other (see differential tests).
    """

    @pytest.mark.parametrize("seed", range(12))
    def test_ghw_never_exceeds_hw(self, seed):
        h = random_hypergraph(seed)
        for k in (1, 2, 3):
            if check_hd(h, k) is not None:
                ghd = check_ghd_balsep(h, k)
                assert ghd is not None
                ghd.validate("GHD")
                break


class TestDifferential:
    """The three independent implementations must agree on yes/no."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_agreement_on_random_hypergraphs(self, seed, k):
        h = random_hypergraph(seed)
        answers = {}
        for name, check in zip(ALGORITHM_IDS, ALGORITHMS):
            result = check(h, k)
            if result is not None:
                result.validate("GHD")
                assert result.integral_width <= k
            answers[name] = result is not None
        assert len(set(answers.values())) == 1, (
            f"disagreement on {h!r} at k={k}: {answers}"
        )

    @pytest.mark.parametrize("seed", range(30, 42))
    def test_agreement_on_denser_hypergraphs(self, seed):
        h = random_hypergraph(seed, max_vertices=8, max_edges=9, max_arity=5)
        answers = {
            name: check(h, 2) is not None
            for name, check in zip(ALGORITHM_IDS, ALGORITHMS)
        }
        assert len(set(answers.values())) == 1, f"disagreement on {h!r}: {answers}"
