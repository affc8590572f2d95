"""Tests for the finite-alphabet information and risk primitives."""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoloss import (
    CubicPartition,
    DeterministicMap,
    DiscreteJoint,
    ExperimentPlan,
    H0Config,
    H1Config,
    LossMatrix,
    SubgaussianProfile,
    TestConfig,
    apply_map,
    bayes_risk,
    c_max_bound,
    conditional_mutual_information,
    delta_lossless_bounded,
    excess_risk,
    family_lossless_check,
    gen_h1,
    gen_market,
    gen_random_joint,
    gen_random_loss,
    h_schedule,
    log_optimal_portfolio,
    map_from_dict,
    mutual_information,
    philox,
    run_plan,
    squared_loss,
    threshold,
    type1_bound,
    zero_one_loss,
)

import infoloss.discrete
from infoloss.discrete import PMF_ATOL, check_nonnegative, check_pmf

from conftest import brute_force_bayes_risk, conditional_dependence_l1, random_joint2


def joints(max_y=3, max_x=3, max_z=3):
    """Strategy producing strictly positive normalized (Y, X, Z) arrays."""

    @st.composite
    def _make(draw):
        ny = draw(st.integers(2, max_y))
        nx = draw(st.integers(2, max_x))
        nz = draw(st.integers(2, max_z))
        vals = draw(
            st.lists(
                st.floats(0.01, 1.0),
                min_size=ny * nx * nz,
                max_size=ny * nx * nz,
            )
        )
        p = np.asarray(vals).reshape(ny, nx, nz)
        return DiscreteJoint(p / p.sum())

    return _make()


class TestMutualInformation:
    def test_frozen_correlated_pair(self):
        # Marginals are fair bits; off-diagonal mass 0.2 total.
        j = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert mutual_information(j) == pytest.approx(
            0.19274475702175753, abs=1e-12
        )

    def test_independent_is_zero(self):
        j = np.outer([0.3, 0.7], [0.2, 0.5, 0.3])
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_marginals_frozen_value(self):
        # p_y = (1/2, 1/2) and p_x = (1/4, 3/4); the zero cell adds nothing.
        j = np.array([[0.25, 0.25], [0.0, 0.5]])
        expected = (0.25 * math.log(2.0) + 0.25 * math.log(2.0 / 3.0)
                    + 0.5 * math.log(4.0 / 3.0))
        assert mutual_information(j) == pytest.approx(expected, rel=1e-12)

    def test_zero_row_and_column_change_nothing(self, rng):
        for _ in range(10):
            j = random_joint2(rng, 3, 4)
            padded = np.zeros((4, 5))
            padded[:3, 1:] = j
            assert mutual_information(padded) == pytest.approx(mutual_information(j), rel=1e-14)

    def test_symmetric_in_its_two_variables(self, rng):
        for _ in range(10):
            j = random_joint2(rng, 3, 4)
            assert mutual_information(j.T) == pytest.approx(mutual_information(j), rel=1e-12)

    def test_deterministic_equals_entropy(self):
        # X = Y with fair marginal: I(Y;X) = H(Y) = log 2.
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j) == pytest.approx(math.log(2.0))

    def test_underflowing_marginal_product_stays_finite(self):
        # p_a p_b of the 1e-200 cell underflows to 0; its term is
        # 1e-200 log(1e200) and the other cell's is 0.
        j = np.array([[1e-200, 0.0], [0.0, 1.0 - 1e-200]])
        assert mutual_information(j) == pytest.approx(1e-200 * 200 * math.log(10), rel=1e-12)

    def test_ordinary_joints_keep_the_ratio_formula(self, rng):
        for _ in range(20):
            j = random_joint2(rng, 3, 4)
            mask = j > 0
            ratio = j[mask] / np.outer(j.sum(axis=1), j.sum(axis=0))[mask]
            assert mutual_information(j) == float(np.sum(j[mask] * np.log(ratio)))

    def test_sum_rounding_above_one_reads_zero(self):
        # A one-column joint has I = 0.  These entries sum to 1 + 2^-52, and
        # the divergence form rounds to -log of that sum, -2.2e-16.
        col = np.array([[0.33], [0.56], [0.11]])
        assert mutual_information(col) == 0.0
        assert mutual_information(col.T) == 0.0

    @pytest.mark.parametrize("joint", [
        [[0.7], [0.2], [0.1]],
        [[0.7, 0.2, 0.1]],
        [[0.7, 0.0], [0.2, 0.0], [0.1, 0.0]],
    ], ids=["one-column", "one-row", "one-supported-column"])
    def test_one_supported_symbol_reads_exact_zero(self, joint):
        # These entries sum to 1 - 2^-53, and the divergence form rounds
        # to -log of that sum, +2.2e-16.
        assert mutual_information(joint) == 0.0

    def test_one_column_joints_never_negative(self, rng):
        for _ in range(1000):
            col = rng.random((int(rng.integers(2, 6)), 1))
            assert mutual_information(col / col.sum()) >= 0.0

class TestConditionalMutualInformation:
    def test_chain_rule_decomposition(self, rng):
        # I(Y; X | T(X)) = I(Y; X) - I(Y; T(X)) for a function of X.
        for _ in range(20):
            probs = rng.random((3, 4, 1)) + 0.01
            probs /= probs.sum()
            joint2 = probs[:, :, 0]
            tmap = DeterministicMap(np.array([0, 1, 0, 1]), n_z=2)
            joint = apply_map(joint2, tmap)
            direct = conditional_mutual_information(joint)
            chained = mutual_information(joint.p_yx) - mutual_information(
                joint.p_yz
            )
            assert direct == pytest.approx(chained, abs=1e-12)

    def test_underflowing_denominator_stays_finite(self):
        # With one z, I(Y; X | Z) = I(Y; X); p(y,z) p(x,z) of the 1e-200
        # cell underflows to 0.
        probs = np.array([[1e-200, 0.0], [0.0, 1.0 - 1e-200]])[:, :, None]
        assert conditional_mutual_information(probs) == pytest.approx(
            1e-200 * 200 * math.log(10), rel=1e-12
        )

    def test_underflowing_numerator_stays_finite(self):
        # p(y,x,z) p(z) of the 1e-200 cell underflows; given Z, X and Y are
        # both determined, so I(Y; X | Z) = 0.
        probs = np.zeros((2, 2, 2))
        probs[0, 0, 0] = 1e-200
        probs[1, 1, 1] = 1.0 - 1e-200
        assert conditional_mutual_information(probs) == 0.0

    def test_markov_chain_gives_zero(self, rng):
        # Build P(y,x,z) = P(z) P(y|z) P(x|z): conditional independence.
        nz, ny, nx = 2, 3, 3
        pz = np.array([0.4, 0.6])
        py_z = rng.random((ny, nz)) + 0.1
        py_z /= py_z.sum(axis=0)
        px_z = rng.random((nx, nz)) + 0.1
        px_z /= px_z.sum(axis=0)
        probs = np.einsum("z,yz,xz->yxz", pz, py_z, px_z)
        assert conditional_mutual_information(
            DiscreteJoint(probs)
        ) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(joints())
    def test_nonnegative(self, joint):
        assert conditional_mutual_information(joint) >= -1e-12


class TestConditionalDependenceL1:
    def test_zero_under_conditional_independence(self, rng):
        pz = np.array([0.5, 0.5])
        py_z = rng.random((2, 2)) + 0.1
        py_z /= py_z.sum(axis=0)
        px_z = rng.random((3, 2)) + 0.1
        px_z /= px_z.sum(axis=0)
        probs = np.einsum("z,yz,xz->yxz", pz, py_z, px_z)
        assert conditional_dependence_l1(DiscreteJoint(probs)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_perfect_dependence_single_z(self):
        # Y = X, one z cell: sum |p - q| over pairs = 2 * (1 - 1/2) = 1.
        probs = np.zeros((2, 2, 1))
        probs[0, 0, 0] = 0.5
        probs[1, 1, 0] = 0.5
        assert conditional_dependence_l1(DiscreteJoint(probs)) == pytest.approx(
            1.0
        )

    @settings(max_examples=60, deadline=None)
    @given(joints())
    def test_bounded_by_two(self, joint):
        val = conditional_dependence_l1(joint)
        assert -1e-12 <= val <= 2.0 + 1e-12


class TestBayesRisk:
    def test_matches_rule_enumeration(self, rng):
        # Oracle: exhaustive minimum over all |Y|^|X| deterministic rules.
        for _ in range(10):
            j = random_joint2(rng, 3, 4)
            loss = LossMatrix(rng.random((3, 3)))
            assert bayes_risk(j, loss) == pytest.approx(
                brute_force_bayes_risk(j, loss), abs=1e-12
            )

    def test_zero_one_fair_bit_no_information(self):
        # X independent of a fair bit Y: best rule errs half the time.
        j = np.full((2, 2), 0.25)
        assert bayes_risk(j, zero_one_loss(2)) == pytest.approx(0.5)

    def test_zero_one_perfect_information(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert bayes_risk(j, zero_one_loss(2)) == pytest.approx(0.0)

    def test_squared_loss_known_posterior(self):
        # P(Y=1 | x) = 0.25 and 0.75 on two equally likely X values.
        # Squared loss with predictions on the label grid {0, 1}:
        # best grid point is the nearer label, cost 0.25**2... but risk of
        # predicting label b is E[(y - b)^2 | x]; enumerate to be safe.
        j = np.array([[0.375, 0.125], [0.125, 0.375]])
        loss = squared_loss(np.array([0.0, 1.0]))
        assert bayes_risk(j, loss) == pytest.approx(
            brute_force_bayes_risk(j, loss), abs=1e-12
        )


class TestApplyMap:
    def test_mass_lands_on_graph(self, rng):
        j = random_joint2(rng, 2, 4)
        tmap = DeterministicMap(np.array([0, 0, 1, 1]), n_z=2)
        joint = apply_map(j, tmap)
        assert joint.probs.sum() == pytest.approx(1.0)
        # Off-graph cells must be exactly zero.
        for x in range(4):
            for z in range(2):
                if z != tmap.table[x]:
                    assert np.all(joint.probs[:, x, z] == 0.0)

    def test_marginals_preserved(self, rng):
        j = random_joint2(rng, 3, 5)
        tmap = DeterministicMap(np.array([0, 1, 2, 0, 1]), n_z=3)
        joint = apply_map(j, tmap)
        np.testing.assert_allclose(joint.p_yx, j, atol=1e-15)

    def test_identity_map_diagonal(self):
        j = np.array([[0.25, 0.25], [0.25, 0.25]])
        joint = apply_map(j, DeterministicMap(np.array([0, 1]), n_z=2))
        assert joint.probs[0, 0, 0] == 0.25
        assert joint.probs[0, 0, 1] == 0.0


class TestExcessRisk:
    def test_lossless_map_zero_excess(self, rng):
        # Injective relabeling: no information lost, excess risk zero.
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([2, 0, 1]), n_z=3)
        joint = apply_map(j, tmap)
        loss = LossMatrix(rng.random((2, 2)))
        assert excess_risk(joint, tmap, loss) == pytest.approx(0.0, abs=1e-12)

    def test_fair_bit_merge_costs_half(self):
        # Y = X fair bit, T collapses both values: risk goes 0 -> 1/2.
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        tmap = DeterministicMap(np.array([0, 0]), n_z=1)
        joint = apply_map(j, tmap)
        assert excess_risk(joint, tmap, zero_one_loss(2)) == pytest.approx(0.5)

    @settings(max_examples=40, deadline=None)
    @given(joints(max_x=4))
    def test_nonnegative_for_function_maps(self, joint):
        # Coarsening X through any deterministic map never lowers risk.
        nx = joint.probs.shape[1]
        tmap = DeterministicMap(np.arange(nx) % 2, n_z=2)
        mapped = apply_map(joint.p_yx, tmap)
        loss = zero_one_loss(joint.probs.shape[0])
        assert excess_risk(mapped, tmap, loss) >= -1e-12


@st.composite
def mapped_joints(draw):
    """(joint, map, loss) with Z = T(X); optionally an isolated 1e-200 cell
    whose marginal product underflows, taking MI's log-sum branch."""
    ny, nx = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    table = np.array(draw(st.lists(st.integers(0, 2), min_size=nx, max_size=nx)))
    _, table = np.unique(table, return_inverse=True)
    tmap = DeterministicMap(table, n_z=int(table.max()) + 1)
    vals = draw(st.lists(st.floats(0.01, 1.0), min_size=ny * nx, max_size=ny * nx))
    j = np.asarray(vals).reshape(ny, nx)
    j /= j.sum()
    if draw(st.booleans()):
        j[0, :] = 0.0
        j[:, 0] = 0.0
        j /= j.sum()
        j[0, 0] = 1e-200
    costs = draw(st.lists(st.floats(0.0, 2.0), min_size=ny * ny, max_size=ny * ny))
    return apply_map(j, tmap), tmap, LossMatrix(np.reshape(costs, (ny, ny)))


class TestJointCoresMatchValidatedPath:
    """The gap and the excess skip re-validating the joint's own marginals;
    they must equal the public functions on those marginals bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(mapped_joints())
    @example((  # p_a p_b = 1e-400 underflows in p_yx
        apply_map(np.array([[1e-200, 0.0], [0.0, 1.0 - 1e-200]]),
                  DeterministicMap(np.array([0, 0]), n_z=1)),
        DeterministicMap(np.array([0, 0]), n_z=1),
        zero_one_loss(2),
    ))
    def test_gap_and_excess_bit_equal(self, instance):
        joint, tmap, loss = instance
        gap = mutual_information(joint.p_yx) - mutual_information(joint.p_yz)
        assert joint.information_gap == gap
        excess = bayes_risk(joint.p_yz, loss) - bayes_risk(joint.p_yx, loss)
        assert excess_risk(joint, tmap, loss) == excess

    def test_error_messages_and_order(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        joint = apply_map(j, DeterministicMap(np.array([0, 1]), n_z=2))
        other = DeterministicMap(np.array([1, 0]), n_z=2)
        with pytest.raises(ValueError, match=exact(
            "joint has mass at (y=0, x=0, z=0) but map sends x=0 to z=1"
        )):
            excess_risk(joint, other, zero_one_loss(3))  # off the graph and 3 labels
        with pytest.raises(ValueError, match=exact(
            "map shape (2 -> 3) does not match joint axes (2, 2)"
        )):
            excess_risk(joint, DeterministicMap(np.array([0, 1]), n_z=3), zero_one_loss(2))
        with pytest.raises(ValueError, match=exact(
            "alphabet mismatch: joint has 2 labels, loss has 3"
        )):
            excess_risk(joint, DeterministicMap(np.array([0, 1]), n_z=2), zero_one_loss(3))


class TestDataProcessing:
    @settings(max_examples=40, deadline=None)
    @given(joints(max_x=4))
    def test_information_never_increases(self, joint):
        # I(Y; T(X)) <= I(Y; X) for every deterministic T.
        nx = joint.probs.shape[1]
        tmap = DeterministicMap(np.arange(nx) % 2, n_z=2)
        mapped = apply_map(joint.p_yx, tmap)
        assert mutual_information(mapped.p_yz) <= mutual_information(
            mapped.p_yx
        ) + 1e-12


class TestValidation:
    def test_joint_rejects_negative(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = -0.1
        probs[1, 1, 1] = 0.35
        with pytest.raises(ValueError, match="negative"):
            DiscreteJoint(probs)

    def test_joint_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteJoint(np.full((2, 2, 2), 0.25))

    def test_joint_is_frozen(self):
        joint = DiscreteJoint(np.full((2, 2, 2), 0.125))
        with pytest.raises(ValueError):
            joint.probs[0, 0, 0] = 1.0

    def test_map_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            DeterministicMap(np.array([0, 3]), n_z=2)

    def test_loss_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            LossMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_apply_map_size_mismatch(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([0, 1]), n_z=2)
        with pytest.raises(ValueError, match="x-symbols"):
            apply_map(j, tmap)


INF = math.inf
NAN = math.nan


def exact(message):
    return f"^{re.escape(message)}$"


def _two_label_joint():
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return apply_map(np.diag([0.5, 0.5]), tmap)


# Every input held to the nonnegative-array rule: a valid value and the call
# that checks it.  A case overwrites the first entry, or empties the array.
NONNEGATIVE_SITES = {
    "p": (np.array([0.5, 0.5]), lambda a: check_pmf(a, name="p")),
    "loss.cost": (np.ones((2, 2)), LossMatrix),
    "sigma_sq": (np.array([0.25, 0.25]), SubgaussianProfile),
    "envelope": (np.ones(2), lambda a: family_lossless_check(_two_label_joint(), 0.1, 1.0, a)),
    "returns": (np.ones((2, 2)), lambda a: log_optimal_portfolio([0.5, 0.5], a)),
}
NONNEGATIVE_CASES = {
    "nan": (NAN, "non-finite entries"),
    "inf": (INF, "non-finite entries"),
    "-inf": (-INF, "non-finite entries"),
    "negative": (-1.0, "negative entries"),
    "empty": (None, "empty alphabet"),
}


PMF_MESSAGE_CASES = [
    ([NAN, 1.0], "p: non-finite entries"),
    ([INF, 0.5], "p: non-finite entries"),
    ([-INF, 0.5], "p: non-finite entries"),
    ([INF, -INF], "p: non-finite entries"),
    ([NAN, -1.0], "p: non-finite entries"),
    ([-0.1, 1.1], "p: negative entries"),
    ([0.4, 0.4], "p: probabilities sum to 0.8, not 1"),
]


def full_pmf_rule(values, ndim):
    """``check_pmf`` without its fast accept: the nonnegative rule, then the guarded sum."""
    arr = check_nonnegative(values, ndim, name="p")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if abs(total - 1.0) > PMF_ATOL:
        raise ValueError(f"p: probabilities sum to {total!r}, not 1")
    return arr


def outcome(check, values, ndim):
    """The bytes and shape ``check`` returns, or the message it raises."""
    try:
        arr = check(values, ndim)
    except ValueError as exc:
        return str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


# Inputs for the fast accept against the full rule, and whether they reach
# the nonnegative rule: only a wrong shape or an entry outside [0, 1] does.
FAST_ACCEPT_CASES = [
    ([0.0, 1.0], 1, False),
    ([1.0], 1, False),
    ([-0.0, 1.0], 1, False),
    ([0.25, 0.25, 0.5], 1, False),
    ([[0.5, 0.0], [0.0, 0.5]], 2, False),
    (np.full((2, 3, 2), 1 / 12), 3, False),
    ([0.5, 0.25], 1, False),  # in range, but sums to 0.75
    ("abc", 1, False),  # fails to convert, before either
    ([1 + 5e-13, 0.0], 1, True),  # sums to 1 within PMF_ATOL
    ([0.5, NAN], 1, True),
    ([2.0], 1, True),
    ([1e308, 1e308], 1, True),
    ([0.5, 0.5], 2, True),
    ([], 1, True),
] + [(values, 1, not all(0 <= v <= 1 for v in values)) for values, _ in PMF_MESSAGE_CASES]


class TestFastPathRejections:
    """The cheap min/max checks keep every rejection and its message."""

    @pytest.mark.parametrize("case", list(NONNEGATIVE_CASES))
    @pytest.mark.parametrize("site", list(NONNEGATIVE_SITES))
    def test_nonnegative_rule_messages(self, site, case):
        valid, check = NONNEGATIVE_SITES[site]
        value, reason = NONNEGATIVE_CASES[case]
        check(valid)
        if value is None:
            bad = np.empty((0,) * valid.ndim)
        else:
            bad = valid.copy()
            bad.flat[0] = value
        with pytest.raises(ValueError, match=exact(f"{site}: {reason}")):
            check(bad)

    @pytest.mark.parametrize("values, message", PMF_MESSAGE_CASES)
    def test_check_pmf_messages(self, values, message):
        with pytest.raises(ValueError, match=exact(message)):
            check_pmf(values, name="p")

    @pytest.mark.parametrize("values, ndim, slow", FAST_ACCEPT_CASES)
    def test_fast_accept_matches_full_rule(self, monkeypatch, values, ndim, slow):
        # Same array or same message, and no warning (warnings are errors here).
        full = outcome(full_pmf_rule, values, ndim)
        slow_calls = []

        def counted(*args, **kwargs):
            slow_calls.append(args)
            return check_nonnegative(*args, **kwargs)

        monkeypatch.setattr(infoloss.discrete, "check_nonnegative", counted)
        assert outcome(lambda v, n: check_pmf(v, n, name="p"), values, ndim) == full
        assert len(slow_calls) == slow

    def test_check_pmf_overflowing_sum(self):
        # Finite entries pass the entry checks; their sum overflows, without
        # a warning, and fails the sum check.
        with pytest.raises(ValueError, match=exact("p: probabilities sum to inf, not 1")):
            check_pmf([1e308, 1e308], name="p")

    def test_check_pmf_accepts_negative_zero(self):
        arr = check_pmf([-0.0, 1.0], name="p")
        assert arr.tobytes() == np.array([-0.0, 1.0]).tobytes()

    def test_joint_messages(self):
        probs = np.full((2, 2, 2), 0.125)
        probs[0, 0, 0] = NAN
        with pytest.raises(ValueError, match=exact("joint.probs: non-finite entries")):
            DiscreteJoint(probs)

    @pytest.mark.parametrize("value, message", [
        (NAN, "loss.cost: non-finite entries"),
        (INF, "loss.cost: non-finite entries"),
        (-INF, "loss.cost: non-finite entries"),
        (-1.0, "loss.cost: negative entries"),
    ])
    def test_loss_messages(self, value, message):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        cost[0, 1] = value
        with pytest.raises(ValueError, match=exact(message)):
            LossMatrix(cost)

    def test_loss_accepts_huge_finite_costs(self):
        # Entries whose sum would overflow are still finite and valid.
        assert LossMatrix(np.full((2, 2), 1e308)).sup_norm == 1e308

    @pytest.mark.parametrize("table", [[0, -1], [0, 2], [2, 0], [-5, 7]])
    def test_map_messages(self, table):
        with pytest.raises(ValueError, match=exact("map.table: entries must lie in [0, 2)")):
            DeterministicMap(np.array(table), n_z=2)

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: DeterministicMap(np.array([[0, 1]]), n_z=2),
                     "map.table: expected a nonempty 1-D array, got shape (1, 2)", id="map-2d"),
        pytest.param(lambda: DeterministicMap(np.array([0.0, 1.0]), n_z=2),
                     "map.table: entries must be integers", id="map-float"),
        pytest.param(lambda: LossMatrix(np.ones((2, 3))),
                     "loss.cost: expected a square matrix, got shape (2, 3)", id="loss-2x3"),
    ])
    def test_shape_messages(self, make, message):
        with pytest.raises(ValueError, match=exact(message)):
            make()


def _tiny_plan(**kw):
    return ExperimentPlan(**{"scenario": "h0", "n_grid": (50,), "reps": 1,
                             "cfg": TestConfig(h=0.5), **kw})


# Every count held to the count rule: the call that checks it, its message
# for a non-integer value, and a value below its minimum with its message.
# A seed has no minimum of its own; -1 gets its [0, 2**64) range message.
COUNT_SITES = {
    "DeterministicMap.n_z": (lambda v: DeterministicMap(np.array([0]), n_z=v),
                             "map.n_z must be an integer, got {!r}",
                             0, "map.n_z must be >= 1, got 0"),
    "CubicPartition.d": (lambda v: CubicPartition(h=0.5, d=v, d_prime=0),
                         "d must be an integer, got {!r}", 0, "d must be >= 1, got 0"),
    "CubicPartition.d_prime": (lambda v: CubicPartition(h=0.5, d=1, d_prime=v),
                               "d_prime must be an integer, got {!r}",
                               -1, "d_prime must be >= 0, got -1"),
    "h_schedule.n": (lambda v: h_schedule(v, 1, 1, 0.2),
                     "n must be an integer, got {!r}", 0, "n must be >= 1, got 0"),
    "h_schedule.d": (lambda v: h_schedule(100, v, 1, 0.2),
                     "d must be an integer, got {!r}", 0, "d must be >= 1, got 0"),
    "h_schedule.d_prime": (lambda v: h_schedule(100, 1, v, 0.2),
                           "d_prime must be an integer, got {!r}",
                           -1, "d_prime must be >= 0, got -1"),
    "H0Config.n": (lambda v: H0Config(n=v, seed=0),
                   "n must be an integer, got {!r}", 0, "n must be >= 1, got 0"),
    "H0Config.k": (lambda v: H0Config(n=10, seed=0, k=v),
                   "k must be an integer, got {!r}", 0, "k must be >= 1, got 0"),
    "philox.seed": (philox, "seed must be an integer, got {!r}",
                    -1, "seed must be in [0, 2**64), got -1"),
    "gen_market.d_a": (lambda v: gen_market(v, 3, 1),
                       "d_a must be an integer, got {!r}", 0, "d_a must be >= 1, got 0"),
    "gen_market.outcomes": (lambda v: gen_market(2, v, 1),
                            "outcomes must be an integer, got {!r}",
                            0, "outcomes must be >= 1, got 0"),
    "ExperimentPlan.n_grid": (lambda v: _tiny_plan(n_grid=(v,)),
                              "n_grid entry must be an integer, got {!r}",
                              0, "n_grid entry must be >= 1, got 0"),
    "ExperimentPlan.reps": (lambda v: _tiny_plan(reps=v),
                            "reps must be an integer, got {!r}", 0, "reps must be >= 1, got 0"),
    "ExperimentPlan.base_seed": (
        lambda v: _tiny_plan(base_seed=v), "base_seed must be an integer, got {!r}",
        -1, "seed -1 and reps 1 give replicate seeds -1 .. -1, outside [0, 2**64)"),
    "run_plan.threads": (lambda v: run_plan(_tiny_plan(), threads=v),
                         "threads must be an integer, got {!r}",
                         0, "threads must be >= 1, got 0"),
    "gen_random_joint.ny": (lambda v: gen_random_joint((v, 2, 2), 0),
                            "ny must be an integer, got {!r}", 0, "ny must be >= 1, got 0"),
    "gen_random_joint.nx": (lambda v: gen_random_joint((2, v, 2), 0),
                            "nx must be an integer, got {!r}", 0, "nx must be >= 1, got 0"),
    "gen_random_joint.nz": (lambda v: gen_random_joint((2, 2, v), 0),
                            "nz must be an integer, got {!r}", 0, "nz must be >= 1, got 0"),
    "gen_random_loss.size": (lambda v: gen_random_loss(v, 1.0, 0),
                             "size must be an integer, got {!r}", 0, "size must be >= 1, got 0"),
    "threshold.n": (lambda v: threshold(v, 2, 2, 2, 0.5, 1.5),
                    "n must be an integer, got {!r}", 0, "n must be >= 1, got 0"),
    "threshold.m": (lambda v: threshold(10, v, 2, 2, 0.5, 1.5),
                    "m must be an integer, got {!r}", 0, "m must be >= 1, got 0"),
    "threshold.m_prime": (lambda v: threshold(10, 2, v, 2, 0.5, 1.5),
                          "m_prime must be an integer, got {!r}",
                          0, "m_prime must be >= 1, got 0"),
    "threshold.m_dprime": (lambda v: threshold(10, 2, 2, v, 0.5, 1.5),
                           "m_dprime must be an integer, got {!r}",
                           0, "m_dprime must be >= 1, got 0"),
    "type1_bound.m_dprime": (lambda v: type1_bound(1.5, v),
                             "m_dprime must be an integer, got {!r}",
                             0, "m_dprime must be >= 1, got 0"),
    # The JSON reader keeps its own message but decides by the same rule.
    "map_from_dict.n_z": (lambda v: map_from_dict({"table": [0], "n_z": v}),
                          "map.n_z: expected a positive integer, got {!r}",
                          0, "map.n_z: expected a positive integer, got 0"),
}
COUNT_CASES = {"True": True, "2.0": 2.0, "2.5": 2.5, "'3'": "3", "below": None}


class TestCountRule:
    """Every count is an int: bools, floats and strings are refused by name."""

    @pytest.mark.parametrize("case", list(COUNT_CASES))
    @pytest.mark.parametrize("site", list(COUNT_SITES))
    def test_rejected(self, site, case):
        check, not_integer, below, below_message = COUNT_SITES[site]
        value = COUNT_CASES[case]
        if value is None:
            value, message = below, below_message
        else:
            message = not_integer.format(value)
        with pytest.raises(ValueError, match=exact(message)):
            check(value)

    @pytest.mark.parametrize("site", list(COUNT_SITES))
    def test_numpy_integer_accepted(self, site):
        COUNT_SITES[site][0](np.int64(2))


# Real arguments that were accepted, read as an overflow, or failed inside
# Python with a TypeError: each call and the ValueError that names the argument.
REAL_ARGUMENT_CASES = {
    "threshold.c1=-1": (lambda: threshold(100, 4, 2, 2, 0.5, -1.0),
                        "c1 must be finite and >= 0, got -1.0"),
    "threshold.c1=nan": (lambda: threshold(100, 4, 2, 2, 0.5, NAN),
                         "c1 must be finite and >= 0, got nan"),
    "threshold.c1=True": (lambda: threshold(100, 4, 2, 2, 0.5, True),
                          "c1 must be a real number, got True"),
    "threshold.h=inf": (lambda: threshold(100, 4, 2, 2, INF, 1.5),
                        "h must be in (0, 1], got inf"),
    "threshold.h=2": (lambda: threshold(100, 4, 2, 2, 2.0, 1.5), "h must be in (0, 1], got 2.0"),
    "threshold.h=True": (lambda: threshold(100, 4, 2, 2, True, 1.5),
                         "h must be a real number, got True"),
    "type1_bound.c1=nan": (lambda: type1_bound(NAN, 2), "c1 must be finite and >= 0, got nan"),
    "type1_bound.c1=-2": (lambda: type1_bound(-2.0, 2), "c1 must be finite and >= 0, got -2.0"),
    "type1_bound.c1='2'": (lambda: type1_bound("2", 2), "c1 must be a real number, got '2'"),
    "TestConfig.h=True": (lambda: TestConfig(h=True), "h must be a real number, got True"),
    "TestConfig.h='0.5'": (lambda: TestConfig(h="0.5"), "h must be a real number, got '0.5'"),
    "TestConfig.c1=None": (lambda: TestConfig(c1=None), "c1 must be a real number, got None"),
    "TestConfig.delta=True": (lambda: TestConfig(delta=True),
                              "delta must be a real number, got True"),
    "H0Config.noise_scale='0.1'": (lambda: H0Config(n=10, seed=0, noise_scale="0.1"),
                                   "noise_scale must be a real number, got '0.1'"),
    "H0Config.interval_width=True": (lambda: H0Config(n=10, seed=0, interval_width=True),
                                     "interval_width must be a real number, got True"),
    "H1Config.theta=True": (lambda: H1Config(n=10, seed=0, theta=True),
                            "theta must be a real number, got True"),
    "CubicPartition.h=True": (lambda: CubicPartition(h=True, d=1, d_prime=0),
                              "h must be a real number, got True"),
    "CubicPartition.h='0.5'": (lambda: CubicPartition(h="0.5", d=1, d_prime=0),
                               "h must be a real number, got '0.5'"),
    "h_schedule.delta='0.1'": (lambda: h_schedule(10, 1, 1, "0.1"),
                               "delta must be a real number, got '0.1'"),
    "delta_lossless_bounded.delta=True": (
        lambda: delta_lossless_bounded(_two_label_joint(), True, 1.0),
        "delta must be a real number, got True"),
    "delta_lossless_bounded.delta='0.1'": (
        lambda: delta_lossless_bounded(_two_label_joint(), "0.1", 1.0),
        "delta must be a real number, got '0.1'"),
    "family_lossless_check.c=None": (
        lambda: family_lossless_check(_two_label_joint(), 0.1, None, [1, 1]),
        "c must be a real number, got None"),
    "c_max_bound.delta_i=True": (lambda: c_max_bound(gen_market(2, 3, 1), True),
                                 "delta_i must be a real number, got True"),
    "c_max_bound.delta_i='0.1'": (lambda: c_max_bound(gen_market(2, 3, 1), "0.1"),
                                  "delta_i must be a real number, got '0.1'"),
    "gen_random_loss.sup=True": (lambda: gen_random_loss(2, True, 0),
                                 "sup must be a real number, got True"),
    "gen_random_loss.sup='1.0'": (lambda: gen_random_loss(2, "1.0", 0),
                                  "sup must be a real number, got '1.0'"),
}

# Every real argument the real rule reads, called with a valid numpy scalar.
NUMPY_SCALAR_CALLS = {
    "threshold.c1": lambda v: threshold(100, 4, 2, 2, 0.5, v(1.5)),
    "threshold.h": lambda v: threshold(100, 4, 2, 2, v(0.5), 1.5),
    "type1_bound.c1": lambda v: type1_bound(v(1.5), 2),
    "TestConfig.c1": lambda v: TestConfig(c1=v(1.5)),
    "TestConfig.delta": lambda v: TestConfig(delta=v(0.2)),
    "TestConfig.h": lambda v: TestConfig(h=v(0.5)),
    "CubicPartition.h": lambda v: CubicPartition(h=v(0.5), d=1, d_prime=0),
    "h_schedule.delta": lambda v: h_schedule(10, 1, 1, v(0.1)),
    "H0Config.interval_width": lambda v: H0Config(n=10, seed=0, interval_width=v(0.2)),
    "H0Config.noise_scale": lambda v: H0Config(n=10, seed=0, noise_scale=v(0.1)),
    "H1Config.theta": lambda v: H1Config(n=10, seed=0, theta=v(0.5)),
    "delta_lossless_bounded.delta": lambda v: delta_lossless_bounded(_two_label_joint(), v(0.1), 1),
    "delta_lossless_bounded.c": lambda v: delta_lossless_bounded(_two_label_joint(), 0.1, v(1.0)),
    "c_max_bound.delta_i": lambda v: c_max_bound(gen_market(2, 3, 1), v(0.1)),
    "gen_random_loss.sup": lambda v: gen_random_loss(2, v(1.0), 0),
}


@pytest.mark.parametrize("case", list(REAL_ARGUMENT_CASES))
def test_real_arguments_refused_by_name(case):
    call, message = REAL_ARGUMENT_CASES[case]
    with pytest.raises(ValueError, match=exact(message)):
        call()


@pytest.mark.parametrize("scalar", [np.float64, np.float32])
@pytest.mark.parametrize("site", list(NUMPY_SCALAR_CALLS))
def test_real_arguments_accept_numpy_scalars(site, scalar):
    NUMPY_SCALAR_CALLS[site](scalar)


class TestCachedMarginals:
    AXES = {"p_y": (1, 2), "p_z": (0, 1), "p_yx": 2, "p_yz": 1}

    @pytest.mark.parametrize("name", sorted(AXES))
    def test_bit_equal_to_sum(self, rng, name):
        joint = DiscreteJoint(rng.dirichlet(np.ones(24)).reshape(2, 3, 4))
        got = getattr(joint, name)
        want = joint.probs.sum(axis=self.AXES[name])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert getattr(joint, name) is got

    @pytest.mark.parametrize("name", sorted(AXES))
    def test_read_only(self, name):
        marginal = getattr(DiscreteJoint(np.full((2, 2, 2), 0.125)), name)
        assert not marginal.flags.writeable
        with pytest.raises(ValueError):
            marginal[0] = 1.0


# One of each frozen record that holds arrays, and the values it caches.
FROZEN_RECORDS = {
    "joint": (lambda: gen_random_joint((3, 4, 2), 5)[0],
              ("p_y", "p_z", "p_yx", "p_yz", "information_gap")),
    "map": (lambda: gen_random_joint((3, 4, 2), 5)[1], ()),
    "loss": (lambda: gen_random_loss(3, 1.0, 5), ("sup_norm",)),
    "dataset": (lambda: gen_h1(H1Config(n=500, seed=5)), ()),
    "profile": (lambda: SubgaussianProfile(np.array([0.25, 0.5])), ()),
    "market": (lambda: gen_market(2, 3, 5), ("c_max",)),
}


def assert_frozen_copy(original, clone):
    """Same fields, byte-equal read-only arrays, and no cached value carried over."""
    assert type(clone) is type(original)
    names = {f.name for f in dataclasses.fields(original)}
    assert set(vars(clone)) == names
    for name in names:
        want, got = getattr(original, name), getattr(clone, name)
        if isinstance(want, np.ndarray):
            assert got is not want and not got.flags.writeable
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous == want.flags.f_contiguous
        elif dataclasses.is_dataclass(want):
            assert_frozen_copy(want, got)
        else:
            assert got == want


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("record", sorted(FROZEN_RECORDS))
def test_copies_of_frozen_records_stay_frozen(record, copier):
    # numpy's copy and unpickling give writeable arrays, and a copy of the
    # instance dict would carry cached marginals that go stale once the
    # copy's arrays are written.
    make, cached = FROZEN_RECORDS[record]
    original = make()
    for name in cached:
        getattr(original, name)
    clone = copier(original)
    assert_frozen_copy(original, clone)
    if record == "dataset":
        assert clone.x.flags.f_contiguous and clone.z.flags.f_contiguous
    for name in cached:
        want, got = getattr(original, name), getattr(clone, name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
