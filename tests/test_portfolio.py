"""Tests for log-optimal investment and growth-gap certificates."""

import json
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
    gen_random_joint,
    growth_gap_bound,
    log_optimal_portfolio,
)
import infoloss.portfolio
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


def kuhn_tucker_bound(pmf, returns, b):
    """log max_i E[R_i / <b, R>], which bounds W* - W(b) from above."""
    p, r = np.asarray(pmf), np.asarray(returns)
    return max(math.log((r.T @ (p / (r @ b))).max()), 0.0)


def revealed_outcome_market(seed, d_a):
    """Random market where X reveals the outcome and Z is constant."""
    rng = np.random.default_rng(seed)
    outcomes = int(rng.integers(2, 7))
    p = rng.random(outcomes) + 0.05
    p /= p.sum()
    returns = np.exp(rng.uniform(-0.5, 0.5, (outcomes, d_a)))
    tmap = DeterministicMap(np.zeros(outcomes, dtype=np.int64), n_z=1)
    return MarketModel(returns=returns, joint=apply_map(np.diag(p), tmap), tmap=tmap)


def one_cell_z_market(seed):
    """``gen_market(2, 3, seed)`` with its side information mapped onto one Z cell."""
    market = gen_market(2, 3, seed)
    tmap = DeterministicMap(np.zeros(market.joint.p_yx.shape[1], dtype=np.int64), n_z=1)
    return MarketModel(returns=market.returns, joint=apply_map(market.joint.p_yx, tmap),
                       tmap=tmap)


def duplicate_asset_market():
    """Two identical assets: their split is free, the face's KKT system singular."""
    returns = np.array([[1.3, 1.3, 0.8], [0.8, 0.8, 1.3]])
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return MarketModel(returns=returns, joint=apply_map(j, tmap), tmap=tmap)


def wide_market_laws(seed, count, duplicate=False):
    """(pmf, returns) pairs: 2-20 assets, 2-30 outcomes, R = exp(U(-5, 5)).

    With ``duplicate`` the last asset copies another one's returns.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, m = int(rng.integers(2, 21)), int(rng.integers(2, 31))
        p = rng.random(m) + 0.01
        p /= p.sum()
        returns = np.exp(rng.uniform(-5.0, 5.0, (m, d)))
        if duplicate:
            returns[:, -1] = returns[:, int(rng.integers(0, d - 1))]
        yield p, returns


def record_solves(monkeypatch):
    """Spy on the solver: a list that fills with (pmf, returns, b) per solve."""
    solves = []
    solver = infoloss.portfolio.log_optimal_portfolio

    def spy(pmf, returns, **kwargs):
        result = solver(pmf, returns, **kwargs)
        solves.append((np.asarray(pmf), np.asarray(returns), result[0]))
        return result

    monkeypatch.setattr(infoloss.portfolio, "log_optimal_portfolio", spy)
    return solves


class TestPortfolioValidation:
    def test_accepts_simplex_point(self):
        b = check_pmf([0.25, 0.75], name="portfolio")
        np.testing.assert_allclose(b, [0.25, 0.75])

    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError, match="negative"):
            check_pmf([-0.1, 1.1], name="portfolio")
        with pytest.raises(ValueError, match="sum"):
            check_pmf([0.4, 0.4], name="portfolio")

    @pytest.mark.parametrize("value, message", [
        pytest.param(math.nan, "returns: non-finite entries", id="nan"),
        pytest.param(math.inf, "returns: non-finite entries", id="inf"),
        pytest.param(-math.inf, "returns: non-finite entries", id="-inf"),
        pytest.param(0.0, "returns: zero entries", id="0.0"),
        pytest.param(-0.0, "returns: zero entries", id="-0.0"),
        pytest.param(-1.0, "returns: negative entries", id="-1.0"),
    ])
    def test_rejects_bad_returns(self, value, message):
        returns = np.array([[1.1, 0.9], [0.8, 1.2]])
        returns[1, 0] = value
        joint, tmap = gen_random_joint((2, 3, 2), 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            MarketModel(returns=returns, joint=joint, tmap=tmap)
        with pytest.raises(ValueError, match=f"^{message}$"):
            log_optimal_portfolio([0.5, 0.5], returns)

    def test_empty_returns_reach_the_shape_check(self):
        # Zero outcomes fail the array rule's emptiness check, before the
        # outcome counts are compared.
        with pytest.raises(ValueError, match="^returns: empty alphabet$"):
            log_optimal_portfolio([1.0], np.empty((0, 2)))

    def test_zero_assets_rejected_by_name(self):
        joint, tmap = gen_random_joint((2, 3, 2), 0)
        with pytest.raises(ValueError, match="^returns: empty alphabet$"):
            MarketModel(returns=np.empty((2, 0)), joint=joint, tmap=tmap)
        with pytest.raises(ValueError, match="^returns: empty alphabet$"):
            log_optimal_portfolio([1.0], np.empty((1, 0)))


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
        check_pmf(b, name="portfolio")
        assert np.isfinite(w)

    def test_subnormal_returns(self):
        # Outcome 0 pays 1e-320 on both assets; dividing each outcome by its
        # largest return keeps the solver's divisions finite (warnings are
        # errors here), and the best bet puts everything on asset 1.
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        market = MarketModel(
            returns=np.array([[1e-320, 1e-320], [1.0, 2.0]]),
            joint=apply_map(j, tmap),
            tmap=tmap,
        )
        b, w = log_optimal_portfolio([0.5, 0.5], market.returns)
        expected = 0.5 * math.log(1e-320) + 0.5 * math.log(2.0)
        assert w == pytest.approx(expected, rel=1e-15)
        assert b[1] == pytest.approx(1.0)
        report = growth_gap_bound(market)
        assert report.w_star == pytest.approx(expected, rel=1e-15)
        assert report.w_star_x == pytest.approx(expected, rel=1e-15)
        json.dumps(report.to_dict(), allow_nan=False)


class TestCertifiedError:
    @staticmethod
    def check_sound(market, step):
        # W*(X) is known exactly (all on the outcome's best asset); W* and
        # W*(Z) both solve the outcome law, which the grid oracle covers.
        report = growth_gap_bound(market)
        p, returns = market.joint.p_y, market.returns
        _, w_grid = grid_growth_oracle(p, returns, step=step)
        assert w_grid - report.w_star <= report.w_star_err + 1e-12
        assert w_grid - report.w_star_z <= report.w_star_z_err + 1e-12
        w_x = float(p @ np.log(returns.max(axis=1)))
        assert w_x - report.w_star_x <= report.w_star_x_err + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sound_against_grid_2d(self, seed):
        self.check_sound(revealed_outcome_market(seed, 2), 1e-4)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_sound_against_grid_3d(self, seed):
        self.check_sound(revealed_outcome_market(seed, 3), 1e-3)

    def test_horse_race_exact(self):
        report = growth_gap_bound(horse_race_market())
        assert report.w_star_x_err == 0.0
        assert report.w_star_z_err == 0.0
        assert report.w_star_err == 0.0

    def test_benchmark_markets_certify(self, monkeypatch):
        # The certificates workload's markets (perfbench/workloads.py): at
        # least 98% of the multi-asset solves certify within 1e-12, and each
        # report's W* error is the bound its one solve's b reaches.
        rng = np.random.default_rng(0)
        markets = [
            gen_market(int(rng.integers(1, 4)), int(rng.integers(2, 7)), i)
            for i in range(200)
        ] + [horse_race_market()]
        solves = record_solves(monkeypatch)
        for market in markets:
            first = len(solves)
            report = growth_gap_bound(market)
            p, r, b = solves[first]  # the W* solve
            assert report.w_star_err == pytest.approx(kuhn_tucker_bound(p, r, b), abs=1e-15)
            assert 0.0 <= report.w_star_x_err <= 1e-6
            assert 0.0 <= report.w_star_z_err <= 1e-6
        bounds = [kuhn_tucker_bound(p[p > 0], r[p > 0], b) for p, r, b in solves if b.size > 1]
        assert len(bounds) > 900
        certified = sum(bound <= 1e-12 for bound in bounds)
        assert certified >= 0.98 * len(bounds), f"{certified} of {len(bounds)} certified"

    def test_duplicate_assets_certify(self):
        # The face's KKT system is singular; the minimum-norm step certifies.
        report = growth_gap_bound(duplicate_asset_market())
        assert report.w_star_err <= 1e-12
        assert report.w_star_z_err <= 1e-12

    def test_fallback_reports_bound_reached(self, monkeypatch):
        # Capped at one Newton step, the solver stops uncertified; the report
        # carries the bound the solver's b reached, which still covers the
        # grid oracle's optimum.
        monkeypatch.setattr(infoloss.portfolio, "_MAX_STEPS", 1)
        solves = record_solves(monkeypatch)
        report = growth_gap_bound(duplicate_asset_market())
        p, returns, b = solves[0]
        reached = kuhn_tucker_bound(p, returns, b)
        assert reached > 1e-12
        assert report.w_star_err == pytest.approx(reached, rel=1e-9)
        _, w_grid = grid_growth_oracle(p, returns)
        assert w_grid - report.w_star <= report.w_star_err + 1e-12

    def test_stalled_step_gives_up_early(self, monkeypatch):
        # With one asset a copy of another times 1 + 1e-10 noise, a Newton
        # step often finds no length that raises the objective.  The line
        # search gives up once the step no longer moves b, after a few dozen
        # candidates (halving until t underflowed took over 1000), and an
        # uncertified stop keeps the best objective reached: accepting steps
        # that only lowered the bound left w an ulp below it on 9 of these.
        bound = infoloss.portfolio._kuhn_tucker_bound
        calls = []

        def spy(g):
            calls.append(None)
            return bound(g)

        monkeypatch.setattr(infoloss.portfolio, "_kuhn_tucker_bound", spy)
        rng = np.random.default_rng(2)
        for _ in range(400):
            d, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            p = rng.random(m) + 0.01
            p /= p.sum()
            returns = np.exp(rng.uniform(-3.0, 3.0, (m, d)))
            twin = returns[:, int(rng.integers(0, d - 1))]
            returns[:, -1] = twin * (1.0 + 1e-10 * rng.standard_normal(m))
            calls.clear()
            b, w, trace = log_optimal_portfolio(p, returns, return_trace=True)
            assert len(calls) <= 100
            if kuhn_tucker_bound(p, returns, b) > 1e-12:
                assert w == trace[-1]

    @pytest.mark.parametrize(
        "seed, duplicate",
        # The first 50 markets of each sweep include ones the earlier
        # exponentiated-gradient solver left uncertified: 2 wide markets
        # (bounds up to 6.8e-4) and 6 with a duplicated asset (up to 2.1e-4).
        [(123, False), (7, True)],
        ids=["wide", "duplicated"],
    )
    def test_wide_markets_certify(self, seed, duplicate):
        for p, returns in wide_market_laws(seed, 50, duplicate):
            b, w, trace = log_optimal_portfolio(p, returns, return_trace=True)
            assert kuhn_tucker_bound(p, returns, b) <= 1e-12
            assert all(y > x for x, y in zip(trace, trace[1:]))
            # A last step that only lowers the bound may lower w by rounding.
            assert 0.0 <= trace[-1] - w <= 4 * np.spacing(abs(w))

    def test_inflated_rate_raises(self, monkeypatch):
        solves = infoloss.portfolio._side_info_solves

        def inflated(market, condition_on):
            w, err = solves(market, condition_on)
            return (w + 1e-3 if condition_on == "x" else w), err

        monkeypatch.setattr(infoloss.portfolio, "_side_info_solves", inflated)
        with pytest.raises(ValueError, match="exceeds information gap"):
            growth_gap_bound(horse_race_market())

    def test_nan_rate_raises(self, monkeypatch):
        def nan_solver(pmf, returns, **kwargs):
            return np.full(np.shape(returns)[1], math.nan), math.nan

        monkeypatch.setattr(infoloss.portfolio, "log_optimal_portfolio", nan_solver)
        with pytest.raises(ValueError, match="W_star: growth rate nan from market returns"):
            growth_gap_bound(gen_market(2, 3, 0))


class TestGrowthGapBound:
    def test_horse_race_rates(self):
        report = growth_gap_bound(horse_race_market())
        # Revealed winner: bet all on it, growth log 2 (up to eps bets).
        assert report.w_star_x == pytest.approx(math.log(2.0), abs=1e-8)
        # No information: even split earns log((2 + eps)/2).
        assert report.w_star_z == pytest.approx(math.log((2.0 + EPS) / 2.0), abs=1e-8)

    def test_constant_z_earns_the_no_information_rate(self):
        # A map onto one Z value leaves only the outcome marginal to bet on.
        for seed in range(5):
            report = growth_gap_bound(one_cell_z_market(seed))
            assert report.w_star_z == pytest.approx(report.w_star, abs=1e-12)
            assert report.i_rz == pytest.approx(0.0, abs=1e-15)

    def test_constant_z_information_never_negative(self):
        # I(R; Z) = 0 for a one-cell Z, exactly; its divergence sum rounds
        # to -2.2e-16 or +2.2e-16 on some seeds.
        for seed in range(50):
            assert growth_gap_bound(one_cell_z_market(seed)).i_rz == 0.0

    def test_constant_z_rounding_below_zero_reads_zero(self):
        # Seed 1's divergence sum rounds to -2.2e-16.
        report = growth_gap_bound(one_cell_z_market(1))
        assert report.i_rz == 0.0
        assert report.to_dict()["I_RZ"] == 0.0

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
            "W_star_err", "W_star_X_err", "W_star_Z_err",
        }


class TestCMaxBound:
    def test_frozen_value(self):
        market = gen_market(2, 3, 0)
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

    def test_rejects_nan_gap(self):
        market = gen_market(2, 3, 0)
        with pytest.raises(ValueError, match="delta_i must be >= 0, got nan"):
            c_max_bound(market, float("nan"))


class TestMarketModel:
    def test_rejects_nonpositive_returns(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        with pytest.raises(ValueError, match="^returns: zero entries$"):
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
