"""Unit tests for the timed-check / exact-width / portfolio drivers."""

import pytest

from repro.core.hypergraph import Hypergraph
from repro.decomp.detkdecomp import check_hd
from repro.decomp.driver import (
    GHD_ALGORITHMS,
    NO,
    TIMEOUT,
    YES,
    CheckOutcome,
    exact_width,
    ghd_portfolio,
    portfolio_verdict,
    timed_check,
)
from repro.errors import DeadlineExceeded
from tests.conftest import clique_hypergraph


class TestTimedCheck:
    def test_yes_outcome(self, triangle):
        outcome = timed_check(check_hd, triangle, 2)
        assert outcome.verdict == YES
        assert outcome.decomposition is not None
        assert outcome.answered

    def test_no_outcome(self, triangle):
        outcome = timed_check(check_hd, triangle, 1)
        assert outcome.verdict == NO
        assert outcome.decomposition is None
        assert outcome.answered

    def test_timeout_outcome(self, k5):
        outcome = timed_check(check_hd, k5, 2, timeout=0.0)
        assert outcome.verdict == TIMEOUT
        assert not outcome.answered

    def test_seconds_recorded(self, triangle):
        outcome = timed_check(check_hd, triangle, 2)
        assert outcome.seconds >= 0.0


class TestExactWidth:
    def test_exact_on_triangle(self, triangle):
        result = exact_width(check_hd, triangle, max_k=3)
        assert result.exact
        assert result.value == 2
        assert result.decomposition is not None

    def test_exact_on_acyclic(self, path3):
        result = exact_width(check_hd, path3, max_k=2)
        assert result.value == 1

    def test_upper_bound_without_exactness(self, k5):
        # With a zero timeout below k=3 everything times out; no width known.
        result = exact_width(check_hd, k5, max_k=2, timeout=0.0)
        assert not result.exact
        assert result.upper is None

    def test_timings_per_k(self, triangle):
        result = exact_width(check_hd, triangle, max_k=3)
        assert set(result.timings) == {1, 2}
        assert result.timings[1].verdict == NO
        assert result.timings[2].verdict == YES


class TestPortfolio:
    def test_portfolio_yes(self, triangle):
        best, per_algorithm = ghd_portfolio(triangle, 2, timeout=5.0)
        assert best.verdict == YES
        assert set(per_algorithm) == set(GHD_ALGORITHMS)

    def test_portfolio_no(self, triangle):
        best, _ = ghd_portfolio(triangle, 1, timeout=5.0)
        assert best.verdict == NO

    def test_portfolio_all_timeout(self, k5):
        best, per_algorithm = ghd_portfolio(k5, 2, timeout=0.0)
        assert best.verdict == TIMEOUT
        assert all(o.verdict == TIMEOUT for o in per_algorithm.values())

    def test_verdict_is_the_fastest_definite_answer(self):
        per = {
            "GlobalBIP": CheckOutcome(NO, 0.3),
            "LocalBIP": CheckOutcome(TIMEOUT, 0.1),  # quicker, but no answer
            "BalSep": CheckOutcome(NO, 0.2),
        }
        assert portfolio_verdict(per) == (per["BalSep"], "BalSep")
        # equal times: the earlier racer in lineup order wins
        per["GlobalBIP"] = CheckOutcome(NO, 0.2)
        assert portfolio_verdict(per)[1] == "GlobalBIP"

    def test_verdict_without_an_answer_is_the_slowest_timeout(self):
        per = {
            "GlobalBIP": CheckOutcome(TIMEOUT, 1.0),
            "LocalBIP": CheckOutcome(TIMEOUT, 1.4),
            "BalSep": CheckOutcome(TIMEOUT, 1.2),
        }
        outcome, winner = portfolio_verdict(per)
        assert outcome is per["LocalBIP"] and winner is None

    def test_portfolio_picks_fastest_answer(self, cycle6):
        best, per_algorithm = ghd_portfolio(cycle6, 2, timeout=5.0)
        answered = [o for o in per_algorithm.values() if o.answered]
        assert best.seconds == min(o.seconds for o in answered)
