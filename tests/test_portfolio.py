"""Tests for log-optimal investment and growth-gap certificates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoloss import (
    DeterministicMap,
    MarketModel,
    apply_map,
    c_max_bound,
    gen_market,
    growth_gap_bound,
    log_optimal_portfolio,
    side_info_growth,
)
from infoloss.discrete import check_pmf

from conftest import grid_growth_oracle

EPS = 1e-9


def horse_race_market(theta=1e-9):
    """Two-horse market where X reveals the winner and Z reveals nothing.

    Returns ((2, eps), (eps, 2)): betting everything on the winning horse
    doubles wealth.  With X = winner, W*(X) = log 2 - O(eps); with Z
    constant the optimal split is 50/50 and W*(Z) ~ log((2 + eps)/2) ~ 0.
    """
    returns = np.array([[2.0, theta], [theta, 2.0]])
    j = np.array([[0.5, 0.0], [0.0, 0.5]])  # (outcome, x): x = winner
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return MarketModel(returns=returns, joint=apply_map(j, tmap), tmap=tmap)


class TestPortfolioValidation:
    def test_accepts_simplex_point(self):
        b = check_pmf([0.25, 0.75], name="portfolio")
        np.testing.assert_allclose(b, [0.25, 0.75])

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError, match="negative"):
            check_pmf([-0.1, 1.1], name="portfolio")
        with pytest.raises(ValueError, match="sum"):
            check_pmf([0.4, 0.4], name="portfolio")


class TestLogOptimalPortfolio:
    def test_single_asset_trivial(self):
        b, w = log_optimal_portfolio([0.5, 0.5], [[1.1], [0.9]])
        assert b == pytest.approx([1.0])
        assert w == pytest.approx(0.5 * math.log(1.1) + 0.5 * math.log(0.9))

    def test_symmetric_two_horse_race(self):
        # Fair odds, fair coin: optimal bet is 50/50 with growth log(1+eps)/..
        returns = np.array([[2.0, EPS], [EPS, 2.0]])
        b, w = log_optimal_portfolio([0.5, 0.5], returns)
        np.testing.assert_allclose(b, [0.5, 0.5], atol=1e-6)
        assert w == pytest.approx(math.log((2.0 + EPS) / 2.0), abs=1e-9)

    def test_dominant_asset_takes_all(self):
        # One asset strictly better in every outcome.
        returns = np.array([[1.2, 1.1], [0.9, 0.8]])
        b, w = log_optimal_portfolio([0.6, 0.4], returns)
        assert b[0] == pytest.approx(1.0, abs=1e-6)
        assert w == pytest.approx(0.6 * math.log(1.2) + 0.4 * math.log(0.9), abs=1e-9)

    def test_matches_grid_oracle_2d(self, rng):
        for _ in range(10):
            p = rng.random(4) + 0.1
            p /= p.sum()
            returns = np.exp(rng.uniform(-0.5, 0.5, (4, 2)))
            _, w_solver = log_optimal_portfolio(p, returns)
            _, w_grid = grid_growth_oracle(p, returns)
            assert w_solver >= w_grid - 1e-6
            assert abs(w_solver - w_grid) < 1e-4

    def test_matches_grid_oracle_3d(self, rng):
        p = rng.random(5) + 0.1
        p /= p.sum()
        returns = np.exp(rng.uniform(-0.4, 0.4, (5, 3)))
        _, w_solver = log_optimal_portfolio(p, returns)
        _, w_grid = grid_growth_oracle(p, returns, step=2e-3)
        assert w_solver >= w_grid - 1e-6
        assert abs(w_solver - w_grid) < 1e-4

    def test_trace_strictly_increasing(self, rng):
        p = rng.random(6) + 0.1
        p /= p.sum()
        returns = np.exp(rng.uniform(-0.5, 0.5, (6, 4)))
        _, _, trace = log_optimal_portfolio(p, returns, return_trace=True)
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_kelly_fraction_unfair_odds(self):
        # Classic 2-outcome market: win-double vs lose-all with p = 0.75.
        # Cash as second asset; Kelly bet is 2p - 1 = 0.5 of wealth.
        returns = np.array([[2.0, 1.0], [EPS, 1.0]])
        b, w = log_optimal_portfolio([0.75, 0.25], returns)
        assert b[0] == pytest.approx(0.5, abs=1e-5)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert w == pytest.approx(expected, abs=1e-8)

    def test_zero_probability_outcomes_ignored(self):
        # An outcome with p = 0 must not influence the solution even with
        # an extreme return vector.
        returns = np.array([[1.2, 0.9], [0.9, 1.2], [1e-9, 1e-9]])
        b1, w1 = log_optimal_portfolio([0.5, 0.5, 0.0], returns)
        b2, w2 = log_optimal_portfolio([0.5, 0.5], returns[:2])
        assert w1 == pytest.approx(w2, abs=1e-10)
        np.testing.assert_allclose(b1, b2, atol=1e-5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_returns_valid_portfolio(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(4) + 0.05
        p /= p.sum()
        returns = np.exp(rng.uniform(-1.0, 1.0, (4, 3)))
        b, w = log_optimal_portfolio(p, returns)
        check_pmf(b, name="portfolio", atol=1e-9)
        assert np.isfinite(w)


class TestSideInfoGrowth:
    def test_ordering_no_less_coarse_full(self, rng):
        for seed in range(5):
            market = gen_market(2, 3, seed)
            w = side_info_growth(market, None)
            wz = side_info_growth(market, "z")
            wx = side_info_growth(market, "x")
            assert w <= wz + 1e-9
            assert wz <= wx + 1e-9

    def test_horse_race_values(self):
        market = horse_race_market()
        wx = side_info_growth(market, "x")
        wz = side_info_growth(market, "z")
        # Revealed winner: bet all on it, growth log 2 (up to eps bets).
        assert wx == pytest.approx(math.log(2.0), abs=1e-8)
        # No information: even split earns log((2 + eps)/2).
        assert wz == pytest.approx(math.log((2.0 + EPS) / 2.0), abs=1e-8)

    def test_condition_on_validation(self):
        market = horse_race_market()
        with pytest.raises(ValueError, match="condition_on"):
            side_info_growth(market, "y")


class TestGrowthGapBound:
    def test_horse_race_saturates_bound(self):
        # X reveals the winner exactly: gap = log 2 - O(eps) while the
        # information gap is exactly log 2 — the inequality is tight.
        report = growth_gap_bound(horse_race_market())
        assert report.mi_gap == pytest.approx(math.log(2.0), abs=1e-12)
        assert report.gap == pytest.approx(math.log(2.0), abs=1e-8)
        assert report.gap <= report.mi_gap + 1e-6

    def test_constant_returns_zero_gap(self):
        # Returns identical across outcomes: side information is worthless.
        returns = np.array([[1.1, 0.9], [1.1, 0.9]])
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        market = MarketModel(returns=returns, joint=apply_map(j, tmap), tmap=tmap)
        report = growth_gap_bound(market)
        assert report.gap == pytest.approx(0.0, abs=1e-9)
        assert report.w_star == pytest.approx(report.w_star_x, abs=1e-9)
        # Information gap is still log 2: the bound is slack here.
        assert report.mi_gap == pytest.approx(math.log(2.0))

    def test_random_markets_respect_bound(self):
        for seed in range(25):
            report = growth_gap_bound(gen_market(2, 3, seed))
            assert report.gap <= report.mi_gap + 1e-6
            assert report.w_star <= report.w_star_z + 1e-9 <= report.w_star_x + 2e-9

    def test_report_dict_keys(self):
        d = growth_gap_bound(horse_race_market()).to_dict()
        assert set(d) == {
            "W_star", "W_star_X", "W_star_Z", "I_RX", "I_RZ", "gap", "mi_gap",
        }


class TestCMaxBound:
    def test_frozen_value(self):
        market = gen_market(2, 3, 0, c_max=0.3)
        assert market.c_max <= 0.3
        # With delta_I = 0.02: bound = (c_max / sqrt 2) sqrt(0.02).
        expected = market.c_max / math.sqrt(2.0) * math.sqrt(0.02)
        assert c_max_bound(market, 0.02) == pytest.approx(expected, rel=1e-12)

    def test_zero_gap_zero_bound(self):
        market = gen_market(2, 3, 0)
        assert c_max_bound(market, 0.0) == 0.0

    def test_rejects_negative_gap(self):
        market = gen_market(2, 3, 0)
        with pytest.raises(ValueError):
            c_max_bound(market, -0.5)


class TestMarketModel:
    def test_rejects_nonpositive_returns(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        with pytest.raises(ValueError, match="positive"):
            MarketModel(
                returns=np.array([[1.0, 0.0], [1.0, 1.0]]),
                joint=apply_map(j, tmap),
                tmap=tmap,
            )

    def test_rejects_outcome_mismatch(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        with pytest.raises(ValueError, match="outcome"):
            MarketModel(
                returns=np.ones((3, 2)),
                joint=apply_map(j, tmap),
                tmap=tmap,
            )

    def test_c_max_is_log_return_sup(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        market = MarketModel(
            returns=np.array([[2.0, 1.0], [0.25, 1.0]]),
            joint=apply_map(j, tmap),
            tmap=tmap,
        )
        assert market.c_max == pytest.approx(math.log(4.0))
