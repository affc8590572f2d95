"""Tests for the excess-risk certificates tied to information gaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoloss import (
    BoundReport,
    DeterministicMap,
    LossMatrix,
    SubgaussianProfile,
    apply_map,
    bound_bounded_loss,
    bound_subgaussian,
    delta_lossless_bounded,
    dv_gap_check,
    excess_risk,
    family_lossless_check,
    hoeffding_profile,
    hoeffding_sigma,
    information_gap,
    mutual_information,
    optimal_loss_envelope,
    quantizer_sequence_bound,
    regression_sigma,
    zero_one_loss,
)

from conftest import random_joint2


def fair_bit_merge():
    """Y = X fair bit collapsed to a single point: the canonical lossy map."""
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return apply_map(j, tmap), tmap


class TestHoeffdingSigma:
    def test_width_squared_over_four(self):
        assert hoeffding_sigma(2.0) == 1.0
        assert hoeffding_sigma(1.0) == 0.25
        assert hoeffding_sigma(0.0) == 0.0

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            hoeffding_sigma(-1.0)


class TestInformationGap:
    def test_fair_bit_merge_is_log_two(self):
        joint, _ = fair_bit_merge()
        assert information_gap(joint) == pytest.approx(math.log(2.0))

    def test_injective_map_is_zero(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([1, 2, 0]), n_z=3)
        assert information_gap(apply_map(j, tmap)) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative_for_coarsenings(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint2(rng, 3, 4)
        tmap = DeterministicMap(np.array([0, 1, 0, 1]), n_z=2)
        assert information_gap(apply_map(j, tmap)) >= -1e-12


class TestBoundedLossBound:
    def test_fair_bit_frozen_value(self):
        # excess = 0.5, bound = (1/sqrt 2) sqrt(log 2) = 0.5887050112577373.
        joint, tmap = fair_bit_merge()
        rep = bound_bounded_loss(joint, tmap, zero_one_loss(2))
        assert rep.delta_I == pytest.approx(math.log(2.0))
        assert rep.bound == pytest.approx(0.5887050112577373, abs=1e-12)
        assert rep.excess == pytest.approx(0.5)
        assert rep.corollary == "cor1"
        assert rep.holds

    def test_report_dict_keys(self):
        joint, tmap = fair_bit_merge()
        d = bound_bounded_loss(joint, tmap, zero_one_loss(2)).to_dict()
        assert set(d) == {"delta_I", "bound", "excess", "corollary", "holds"}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 4), st.integers(2, 5))
    def test_holds_on_random_instances(self, seed, ny, nx):
        rng = np.random.default_rng(seed)
        j = random_joint2(rng, ny, nx)
        tmap = DeterministicMap(rng.integers(0, 2, nx), n_z=2)
        loss = LossMatrix(rng.random((ny, ny)))
        rep = bound_bounded_loss(apply_map(j, tmap), tmap, loss)
        assert rep.holds

    def test_zero_gap_zero_bound(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([0, 1, 2]), n_z=3)
        rep = bound_bounded_loss(apply_map(j, tmap), tmap, zero_one_loss(2))
        assert rep.bound == pytest.approx(0.0, abs=1e-7)
        assert rep.excess == pytest.approx(0.0, abs=1e-12)


class TestSubgaussianBound:
    def test_reduces_to_bounded_case(self, rng):
        # With sigma^2(y) = sup|loss|^2 / 4 constant, cor2 equals cor1.
        j = random_joint2(rng, 2, 4)
        tmap = DeterministicMap(np.array([0, 0, 1, 1]), n_z=2)
        joint = apply_map(j, tmap)
        loss = zero_one_loss(2)
        profile = SubgaussianProfile(np.full(2, loss.sup_norm**2 / 4.0))
        rep1 = bound_bounded_loss(joint, tmap, loss)
        rep2 = bound_subgaussian(joint, tmap, profile, loss)
        assert rep2.bound == pytest.approx(rep1.bound, rel=1e-12)
        assert rep2.corollary == "cor2"

    def test_profile_tightens_when_labels_cheap(self):
        # One label has zero loss range: its sigma^2 drops out of the mean.
        joint, tmap = fair_bit_merge()
        cost = np.array([[0.0, 0.2], [1.0, 0.0]])
        loss = LossMatrix(cost)
        profile = hoeffding_profile(joint.p_yx, loss)
        rep2 = bound_subgaussian(joint, tmap, profile, loss)
        rep1 = bound_bounded_loss(joint, tmap, loss)
        assert rep2.bound < rep1.bound
        assert rep2.holds

    def test_without_loss_reports_nan(self):
        joint, tmap = fair_bit_merge()
        rep = bound_subgaussian(joint, tmap, SubgaussianProfile(np.array([0.25, 0.25])))
        assert math.isnan(rep.excess)
        assert rep.holds is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_certified_profile_holds(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint2(rng, 3, 4)
        tmap = DeterministicMap(rng.integers(0, 2, 4), n_z=2)
        joint = apply_map(j, tmap)
        loss = LossMatrix(rng.random((3, 3)) * 2.0)
        profile = hoeffding_profile(joint.p_yx, loss)
        assert profile.certified
        rep = bound_subgaussian(joint, tmap, profile, loss)
        assert rep.holds


class TestHoeffdingProfile:
    def test_widths_from_optimal_predictions(self):
        # Two x values with opposite optimal labels: each row of
        # loss(y, f*(x)) spans its full range.
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        profile = hoeffding_profile(j, zero_one_loss(2))
        np.testing.assert_allclose(profile.sigma_sq, [0.25, 0.25])

    def test_constant_prediction_zero_profile(self):
        # X carries no information: one optimal label, zero loss range.
        j = np.array([[0.3, 0.3], [0.2, 0.2]])
        profile = hoeffding_profile(j, zero_one_loss(2))
        np.testing.assert_allclose(profile.sigma_sq, [0.0, 0.0])

    def test_label_mismatch_message_shared_with_envelope(self):
        j = np.full((2, 2), 0.25)
        msg = "alphabet mismatch: joint has 2 labels, loss has 3"
        with pytest.raises(ValueError, match=msg):
            hoeffding_profile(j, zero_one_loss(3))
        with pytest.raises(ValueError, match=msg):
            optimal_loss_envelope(j, zero_one_loss(3))


class TestDeltaLossless:
    def test_threshold_exactly_at_gap(self):
        joint, tmap = fair_bit_merge()
        gap = math.log(2.0)
        # delta^2 = gap c^2 / 2 with c = 1 sits exactly on the boundary.
        delta = math.sqrt(gap / 2.0)
        assert delta_lossless_bounded(joint, tmap, delta + 1e-9, 1.0)
        assert not delta_lossless_bounded(joint, tmap, delta - 1e-6, 1.0)

    def test_lossless_map_any_delta(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([0, 1, 2]), n_z=3)
        assert delta_lossless_bounded(apply_map(j, tmap), tmap, 0.0, 5.0)

    def test_scaling_in_c(self):
        joint, tmap = fair_bit_merge()
        # Doubling c quarters the admissible gap.
        delta = math.sqrt(math.log(2.0) / 2.0) + 1e-9
        assert delta_lossless_bounded(joint, tmap, delta, 1.0)
        assert not delta_lossless_bounded(joint, tmap, delta, 2.0)


class TestFamilyLossless:
    def test_zero_envelope_always_certifies(self):
        joint, tmap = fair_bit_merge()
        assert family_lossless_check(joint, tmap, 0.0, 1.0, np.zeros(2))

    def test_second_moment_replaces_sup(self):
        joint, tmap = fair_bit_merge()
        g = np.array([1.0, 0.0])  # E[g^2] = 0.5 under the fair marginal
        gap = math.log(2.0)
        delta_edge = math.sqrt(gap * 0.5 / 2.0)
        assert family_lossless_check(joint, tmap, delta_edge + 1e-9, 1.0, g)
        assert not family_lossless_check(joint, tmap, delta_edge - 1e-6, 1.0, g)

    def test_envelope_exceeding_c_rejected(self):
        joint, tmap = fair_bit_merge()
        with pytest.raises(ValueError, match="second moment"):
            family_lossless_check(joint, tmap, 0.1, 1.0, np.array([2.0, 2.0]))

    def test_envelope_consistency_with_optimum(self):
        # The computed envelope of the 0-1 loss on the fair-bit pair feeds
        # back into the family check coherently.
        joint, tmap = fair_bit_merge()
        g = optimal_loss_envelope(joint.p_yx, zero_one_loss(2))
        np.testing.assert_allclose(g, [1.0, 1.0])
        assert family_lossless_check(joint, tmap, 0.6, 1.0, g)


class TestRegressionSigma:
    def test_frozen_values(self):
        assert regression_sigma(3.0, 1.0) == 38.0
        assert regression_sigma(1.0, 0.5) == 4.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            regression_sigma(-1.0, 1.0)


class TestDvGapCheck:
    def test_independent_lhs_zero(self, rng):
        p_u = np.array([0.4, 0.6])
        p_v = np.array([0.3, 0.7])
        j = np.outer(p_u, p_v)
        lhs, rhs = dv_gap_check(j, rng.random((2, 2)))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-7)

    def test_random_sweep_never_raises(self, rng):
        for _ in range(100):
            j = random_joint2(rng, 3, 3)
            h = rng.normal(0.0, 2.0, (3, 3))
            lhs, rhs = dv_gap_check(j, h)
            assert lhs <= rhs + 1e-9

    def test_correlated_pair_strict_gap(self):
        j = np.array([[0.4, 0.1], [0.1, 0.4]])
        h = np.array([[1.0, 0.0], [0.0, 1.0]])
        lhs, rhs = dv_gap_check(j, h)
        # E h = 0.8 vs independent 0.5; bound sqrt(2 * 0.25 * I).
        assert lhs == pytest.approx(0.3)
        assert rhs == pytest.approx(math.sqrt(0.5 * mutual_information(j)))
        assert lhs < rhs


class TestQuantizerSequence:
    def setup_method(self):
        # Three atoms on the line; Y = index of the atom.
        self.positions = np.array([0.05, 0.45, 0.85])
        self.joint = np.diag([0.3, 0.4, 0.3])
        self.loss = zero_one_loss(3)

    def test_refinement_shrinks_gap_and_excess(self):
        reports = quantizer_sequence_bound(
            self.joint, self.positions, [1.0, 0.5, 0.1], self.loss
        )
        gaps = [r.delta_I for r in reports]
        excesses = [r.excess for r in reports]
        assert gaps[0] > gaps[1] > gaps[2] - 1e-15
        assert excesses[0] >= excesses[1] >= excesses[2]
        # Width 1 merges everything: full information loss.
        assert gaps[0] == pytest.approx(mutual_information(self.joint))
        # Width 0.1 separates all atoms: lossless.
        assert gaps[2] == pytest.approx(0.0, abs=1e-12)
        assert excesses[2] == pytest.approx(0.0, abs=1e-12)
        assert all(r.holds for r in reports)

    def test_intermediate_width_partial_merge(self):
        # Width 0.5 puts atoms 0.05, 0.45 in cell 0 and 0.85 in cell 1.
        [report] = quantizer_sequence_bound(
            self.joint, self.positions, [0.5], self.loss
        )
        merged = np.array([[0.3, 0.0], [0.4, 0.0], [0.0, 0.3]])
        expected_gap = mutual_information(self.joint) - mutual_information(merged)
        assert report.delta_I == pytest.approx(expected_gap)
        # Best rule on the merged cell picks label 1 (mass 0.4): excess 0.3.
        assert report.excess == pytest.approx(0.3)

    def test_rejects_nondecreasing_widths(self):
        with pytest.raises(ValueError, match="decreasing"):
            quantizer_sequence_bound(self.joint, self.positions, [0.5, 0.5], self.loss)
        with pytest.raises(ValueError, match="decreasing"):
            quantizer_sequence_bound(self.joint, self.positions, [0.1, 0.5], self.loss)

    def test_rejects_empty_widths(self):
        with pytest.raises(ValueError, match="empty"):
            quantizer_sequence_bound(self.joint, self.positions, [], self.loss)

    def test_rejects_non_finite_positions(self):
        # NaN used to be cast to the int64 minimum and get a cell of its own.
        joint = np.full((2, 2), 0.25)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positions: non-finite entries"):
                quantizer_sequence_bound(joint, [0.0, bad], [1.0, 0.5], zero_one_loss(2))


class TestProfileValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SubgaussianProfile(np.array([-0.1, 0.2]))

    def test_expected_shape_mismatch(self):
        profile = SubgaussianProfile(np.array([0.25, 0.25]))
        with pytest.raises(ValueError, match="mismatch"):
            profile.expected(np.array([0.2, 0.3, 0.5]))
