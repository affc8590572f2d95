"""Tests for the excess-risk certificates tied to information gaps."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoloss.bounds
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
    gen_random_joint,
    gen_random_loss,
    hoeffding_profile,
    mutual_information,
    quantizer_sequence_bound,
    zero_one_loss,
)

from conftest import random_joint2


def fair_bit_merge():
    """Y = X fair bit collapsed to a single point: the canonical lossy map."""
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return apply_map(j, tmap), tmap


class TestInformationGap:
    def test_fair_bit_merge_is_log_two(self):
        joint, _ = fair_bit_merge()
        assert joint.information_gap == pytest.approx(math.log(2.0))

    def test_cached_gap_is_bit_equal(self, rng):
        for _ in range(20):
            j = random_joint2(rng, 3, 4)
            joint = apply_map(j, DeterministicMap(np.array([0, 1, 0, 1]), n_z=2))
            want = mutual_information(joint.p_yx) - mutual_information(joint.p_yz)
            assert joint.information_gap == want

    def test_injective_map_is_zero(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([1, 2, 0]), n_z=3)
        assert apply_map(j, tmap).information_gap == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_nonnegative_for_coarsenings(self, seed):
        rng = np.random.default_rng(seed)
        j = random_joint2(rng, 3, 4)
        tmap = DeterministicMap(np.array([0, 1, 0, 1]), n_z=2)
        assert apply_map(j, tmap).information_gap >= -1e-12


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
        rep = bound_subgaussian(joint, tmap, profile, loss)
        assert rep.holds


class TestOracleExcessOnce:
    """``_report`` evaluates the oracle excess once per (joint, map, loss)."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def recording(joint, tmap, loss):
            seen.append((joint, tmap, loss))
            return excess_risk(joint, tmap, loss)

        monkeypatch.setattr(infoloss.bounds, "excess_risk", recording)
        return seen

    def test_one_call_per_instance(self, calls):
        instances = [gen_random_joint((3, 4, 2), seed) + (gen_random_loss(3, 1.0, seed),)
                     for seed in range(4)]
        for joint, tmap, loss in instances:
            worst = bound_bounded_loss(joint, tmap, loss)
            profile = hoeffding_profile(joint.p_yx, loss)
            adaptive = bound_subgaussian(joint, tmap, profile, loss)
            assert worst.excess == adaptive.excess == excess_risk(joint, tmap, loss)
        assert calls == instances

    def test_equal_but_distinct_loss_or_map_evaluates_again(self, calls):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        loss = gen_random_loss(3, 1.0, 0)
        twin_loss = LossMatrix(loss.cost)
        twin_map = DeterministicMap(tmap.table, n_z=tmap.n_z)
        for args in ((tmap, loss), (tmap, loss), (tmap, twin_loss), (twin_map, twin_loss)):
            bound_bounded_loss(joint, *args)
        assert calls == [(joint, tmap, loss), (joint, tmap, twin_loss),
                         (joint, twin_map, twin_loss)]

    def test_failed_check_leaves_no_entry(self, calls):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        for _ in range(2):
            with pytest.raises(ValueError, match="alphabet mismatch"):
                bound_bounded_loss(joint, tmap, zero_one_loss(2))
        assert len(calls) == 2

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["deepcopy", "pickle"])
    def test_copies_start_without_the_entry(self, calls, copier):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        loss = gen_random_loss(3, 1.0, 0)
        bound_bounded_loss(joint, tmap, loss)
        assert "_excess" in vars(joint)
        clone = copier(joint)
        assert set(vars(clone)) == {"probs"}
        assert bound_bounded_loss(clone, tmap, loss) == bound_bounded_loss(joint, tmap, loss)
        assert calls == [(joint, tmap, loss), (clone, tmap, loss)]


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

    def test_width_squared_over_four(self):
        # x = y with the optimal prediction f*(x) = x: label 0 loses 0 or 2,
        # label 1 loses 1 or 0, so the widths 2 and 1 give 1 and 1/4.
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        loss = LossMatrix(np.array([[0.0, 2.0], [1.0, 0.0]]))
        profile = hoeffding_profile(j, loss)
        np.testing.assert_array_equal(profile.sigma_sq, [1.0, 0.25])

    def test_unsupported_x_adds_no_width(self):
        # f* predicts 1 on x0 and 2 on x1; x2 has no mass, and its argmin
        # (prediction 0, loss up to 5) must not widen any row.
        j = np.array([[0.1, 0.0, 0.0], [0.4, 0.0, 0.0], [0.0, 0.5, 0.0]])
        loss = LossMatrix(np.array([[0.0, 1.0, 1.0], [5.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))
        profile = hoeffding_profile(j, loss)
        np.testing.assert_array_equal(profile.sigma_sq, [0.0, 0.25, 0.25])

    def test_label_mismatch_message(self):
        j = np.full((2, 2), 0.25)
        msg = "alphabet mismatch: joint has 2 labels, loss has 3"
        with pytest.raises(ValueError, match=msg):
            hoeffding_profile(j, zero_one_loss(3))


class TestDeltaLossless:
    def test_threshold_exactly_at_gap(self):
        joint, _ = fair_bit_merge()
        gap = math.log(2.0)
        # delta^2 = gap c^2 / 2 with c = 1 sits exactly on the boundary.
        delta = math.sqrt(gap / 2.0)
        assert delta_lossless_bounded(joint, delta + 1e-9, 1.0)
        assert not delta_lossless_bounded(joint, delta - 1e-6, 1.0)

    def test_lossless_map_any_delta(self, rng):
        j = random_joint2(rng, 2, 3)
        tmap = DeterministicMap(np.array([0, 1, 2]), n_z=3)
        assert delta_lossless_bounded(apply_map(j, tmap), 0.0, 5.0)

    def test_scaling_in_c(self):
        joint, _ = fair_bit_merge()
        # Doubling c quarters the admissible gap.
        delta = math.sqrt(math.log(2.0) / 2.0) + 1e-9
        assert delta_lossless_bounded(joint, delta, 1.0)
        assert not delta_lossless_bounded(joint, delta, 2.0)


class TestFamilyLossless:
    def test_zero_envelope_always_certifies(self):
        joint, _ = fair_bit_merge()
        assert family_lossless_check(joint, 0.0, 1.0, np.zeros(2))

    def test_second_moment_replaces_sup(self):
        joint, _ = fair_bit_merge()
        g = np.array([1.0, 0.0])  # E[g^2] = 0.5 under the fair marginal
        gap = math.log(2.0)
        delta_edge = math.sqrt(gap * 0.5 / 2.0)
        assert family_lossless_check(joint, delta_edge + 1e-9, 1.0, g)
        assert not family_lossless_check(joint, delta_edge - 1e-6, 1.0, g)

    def test_envelope_exceeding_c_rejected(self):
        joint, _ = fair_bit_merge()
        with pytest.raises(ValueError, match="second moment"):
            family_lossless_check(joint, 0.1, 1.0, np.array([2.0, 2.0]))

    def test_envelope_label_mismatch(self):
        joint, _ = fair_bit_merge()
        with pytest.raises(ValueError, match="alphabet mismatch: envelope has 3 labels, joint has 2"):
            family_lossless_check(joint, 0.1, 1.0, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("envelope", [[float("nan"), 1.0, 1.0], [math.inf, 0.0, 0.0]],
                             ids=["nan", "inf"])
    def test_non_finite_envelope(self, envelope):
        # Named before the sign and second-moment checks, which would
        # misreport NaN as negative and inf as exceeding c^2.
        joint, _ = gen_random_joint((3, 2, 2), 0)
        with pytest.raises(ValueError, match="^envelope: non-finite entries$"):
            family_lossless_check(joint, 0.1, 1.0, envelope)

    def test_envelope_consistency_with_optimum(self):
        # On the fair-bit pair the 0-1 loss of the optimal predictor is 0 or
        # 1 for each label, so its envelope g = (1, 1) feeds the family check.
        joint, _ = fair_bit_merge()
        assert family_lossless_check(joint, 0.6, 1.0, [1.0, 1.0])


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

    def test_rejects_table_of_another_shape(self):
        with pytest.raises(
            ValueError, match=re.escape("table shape (2, 3) does not match joint shape (2, 2)")
        ):
            dv_gap_check(np.full((2, 2), 0.25), np.zeros((2, 3)))

    def test_violation_raises(self, monkeypatch):
        # The inequality is a theorem, so only a wrong information value
        # (stubbed here as 0) can break it.
        monkeypatch.setattr(infoloss.bounds, "mutual_information", lambda joint: 0.0)
        message = "variational gap bound violated: lhs=0.30000000000000004, rhs=0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dv_gap_check(np.array([[0.4, 0.1], [0.1, 0.4]]), np.eye(2))


class TestHoeffdingOverflow:
    """A range whose width^2 / 4 overflows float64 is an error naming its input.

    Warnings are errors here, so an overflow warning or a NaN that reaches
    the result fails the test as well.
    """

    WIDEST = math.sqrt(np.finfo(np.float64).max)  # widest range with a finite square

    @staticmethod
    def message(name, width):
        width = re.escape(repr(width))
        return rf"^{name}: a row range of {width} overflows width\^2 / 4 in float64$"

    def test_profile_names_the_loss(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        loss = LossMatrix(np.array([[0.0, 1e200], [1e200, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.message("loss", 1e200)):
                hoeffding_profile(j, loss)

    def test_dv_gap_names_the_table(self):
        # Independent (U, V): I = 0, so an infinite sigma^2 would give NaN.
        j = np.outer([0.5, 0.5], [0.5, 0.5])
        table = np.array([[0.0, 1e200], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.message("table", 1e200)):
                dv_gap_check(j, table)

    def test_dv_gap_range_beyond_float64(self):
        j = np.outer([0.5, 0.5], [0.5, 0.5])
        table = np.array([[-1e308, 1e308], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=self.message("table", math.inf)):
                dv_gap_check(j, table)

    def test_widest_finite_square_is_kept(self):
        j = np.array([[0.5, 0.0], [0.0, 0.5]])
        loss = LossMatrix(np.array([[0.0, self.WIDEST], [self.WIDEST, 0.0]]))
        assert hoeffding_profile(j, loss).sigma_sq[0] == self.WIDEST * self.WIDEST / 4.0
        wider = math.nextafter(self.WIDEST, math.inf)
        with pytest.raises(ValueError, match=self.message("loss", wider)):
            hoeffding_profile(j, LossMatrix(np.array([[0.0, wider], [wider, 0.0]])))


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

    def test_rejects_positions_of_another_size(self):
        with pytest.raises(
            ValueError, match=re.escape("positions: expected 3 entries, got shape (2,)")
        ):
            quantizer_sequence_bound(self.joint, self.positions[:2], [1.0], self.loss)

    def test_rejects_empty_widths(self):
        with pytest.raises(ValueError, match="empty"):
            quantizer_sequence_bound(self.joint, self.positions, [], self.loss)

    def test_rejects_non_finite_positions(self):
        # NaN used to be cast to the int64 minimum and get a cell of its own.
        joint = np.full((2, 2), 0.25)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="positions: non-finite entries"):
                quantizer_sequence_bound(joint, [0.0, bad], [1.0, 0.5], zero_one_loss(2))

    def test_cells_beyond_int64_stay_apart(self):
        # pos / w is about 1e20 and 2e20, past the int64 range: the cells
        # still separate the atoms, so nothing is lost.
        [report] = quantizer_sequence_bound(
            np.diag([0.5, 0.5]), [1e10, 2e10], [1e-10], zero_one_loss(2)
        )
        assert report.delta_I == 0.0
        assert report.excess == 0.0

    def test_rejects_overflowing_width(self):
        with pytest.raises(ValueError, match="width 1e-300: positions / width overflows"):
            quantizer_sequence_bound(
                np.diag([0.5, 0.5]), [0.0, 1e10], [1.0, 1e-300], zero_one_loss(2)
            )


class TestProfileValidation:
    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            SubgaussianProfile(np.array([-0.1, 0.2]))

    @pytest.mark.parametrize("value, message", [
        pytest.param(-0.1, "sigma_sq: negative entries", id="-0.1"),
        pytest.param(float("nan"), "sigma_sq: non-finite entries", id="nan"),
        pytest.param(math.inf, "sigma_sq: non-finite entries", id="inf"),
        pytest.param(-math.inf, "sigma_sq: non-finite entries", id="-inf"),
    ])
    def test_sigma_message(self, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SubgaussianProfile(np.array([value, 0.2]))

    def test_expected_shape_mismatch(self):
        profile = SubgaussianProfile(np.array([0.25, 0.25]))
        with pytest.raises(ValueError, match="mismatch"):
            profile.expected(np.array([0.2, 0.3, 0.5]))


NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda j: delta_lossless_bounded(j, NAN, 1.0),
                     "delta must be >= 0, got nan", id="delta-lossless-delta"),
        pytest.param(lambda j: delta_lossless_bounded(j, 0.1, NAN),
                     "c must be > 0, got nan", id="delta-lossless-c"),
        pytest.param(lambda j: family_lossless_check(j, NAN, 1.0, [0.0, 0.0]),
                     "delta must be >= 0, got nan", id="family-delta"),
        pytest.param(lambda j: family_lossless_check(j, 0.1, NAN, [0.0, 0.0]),
                     "c must be > 0, got nan", id="family-c"),
        pytest.param(lambda j: family_lossless_check(j, 0.1, 1.0, [NAN, 0.0]),
                     "envelope: non-finite entries", id="family-envelope"),
        pytest.param(lambda j: dv_gap_check(np.full((2, 2), 0.25), [[NAN, 0.0], [0.0, 0.0]]),
                     "table: non-finite entries", id="dv-table"),
        pytest.param(lambda j: quantizer_sequence_bound(
                         np.full((2, 2), 0.25), [0.0, 1.0], [1.0, NAN], zero_one_loss(2)),
                     "widths must be > 0", id="quantizer-width"),
    ],
)
def test_nan_arguments_raise_naming_the_argument(call, message):
    # NaN fails every comparison, so a check written as "x < 0" let it
    # through and returned False or nan; the negated form rejects it.
    joint, _ = fair_bit_merge()
    with pytest.raises(ValueError, match=message):
        call(joint)
