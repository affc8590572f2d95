"""Tests for greedy coordinate selection under the independence test."""

import numpy as np
import pytest

import infoloss.selection
from infoloss import Dataset, TestConfig, greedy_lossless_selection

from conftest import always_reject


def selection_data(rng, n, target):
    """Two uniform coordinates; y per the target rule."""
    x = rng.random((n, 2))
    if target == "x1":
        y = x[:, 0] + 0.05 * rng.standard_normal(n)
    elif target == "none":
        y = rng.random(n)
    elif target == "both":
        y = np.mod(x[:, 0] + x[:, 1], 1.0)
    else:
        raise ValueError(target)
    return Dataset(x=x, y=y, z=np.zeros((n, 1)))


class TestGreedySelection:
    def test_single_relevant_coordinate(self, rng):
        data = selection_data(rng, 100_000, "x1")
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, h=0.1))
        assert res.accepted
        assert res.selected == (0,)
        # First step rejected on the empty set, second accepted on {x1}.
        assert res.steps[0].outcome.reject
        assert res.steps[0].added == 0
        assert not res.steps[-1].outcome.reject

    def test_independent_response_selects_nothing(self, rng):
        data = selection_data(rng, 100_000, "none")
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, h=0.1))
        assert res.accepted
        assert res.selected == ()
        assert len(res.steps) == 1

    def test_joint_dependence_needs_both(self, rng):
        # y = (x1 + x2) mod 1: each coordinate alone leaves y fully
        # dependent on the other, so the greedy path must take both.
        data = selection_data(rng, 1_000_000, "both")
        res = greedy_lossless_selection(data, TestConfig(c1=1.2, h=0.05))
        assert res.accepted
        assert sorted(res.selected) == [0, 1]
        # Intermediate singleton subset still rejected.
        assert res.steps[1].outcome.reject

    def test_input_z_columns_ignored(self, rng):
        # The dataset's own z is a decoy; selection probes x subsets only.
        x = rng.random((50_000, 2))
        y = rng.random(50_000)
        data = Dataset(x=x, y=y, z=y[:, None])  # z "explains" y perfectly
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, h=0.1))
        assert res.selected == ()

    def test_deterministic_given_data(self, rng):
        data = selection_data(rng, 50_000, "x1")
        cfg = TestConfig(c1=1.5, h=0.1)
        r1 = greedy_lossless_selection(data, cfg)
        r2 = greedy_lossless_selection(data, cfg)
        assert r1.selected == r2.selected
        assert [s.added for s in r1.steps] == [s.added for s in r2.steps]


class TestExhaustedCandidates:
    def test_full_set_returned_unaccepted(self, rng, monkeypatch):
        # Real data cannot get here: once Z is all of X, L_n is about 0.
        monkeypatch.setattr(infoloss.selection, "run_test", always_reject)
        res = greedy_lossless_selection(selection_data(rng, 100, "none"))
        assert res.accepted is False
        assert res.selected == (0, 1)
        assert len(res.steps) == 3
        assert [s.added for s in res.steps] == [0, 1, None]
        assert res.steps[-1].candidate_scores == {}


class TestScheduleClamp:
    def test_inadmissible_delta_clamped_not_fatal(self, rng):
        # delta = 0.2 is illegal once d + 1 + d' >= 5; the per-step config
        # must clamp instead of raising mid-selection.
        x = rng.random((20_000, 4))
        y = rng.random(20_000)
        data = Dataset(x=x, y=y, z=np.zeros((20_000, 1)))
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, delta=0.2))
        assert res.accepted
        assert res.selected == ()


class TestSelectionReport:
    def test_dict_uses_column_names(self, rng):
        data = selection_data(rng, 100_000, "x1")
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, h=0.1))
        d = res.to_dict()
        assert d["selected"] == ["x1"]
        assert d["indices"] == [0]
        assert d["accepted"] is True
        first = d["trace"][0]
        assert first["subset"] == []
        assert first["added"] == "x1"
        assert set(first["candidates"]) == {"x1", "x2"}
        last = d["trace"][-1]
        assert last["accepted"] is True
        assert last["added"] is None

    def test_candidate_scores_recorded(self, rng):
        data = selection_data(rng, 100_000, "x1")
        res = greedy_lossless_selection(data, TestConfig(c1=1.5, h=0.1))
        scores = res.steps[0].candidate_scores
        assert set(scores) == {0, 1}
        # Conditioning on the relevant coordinate drops the statistic far
        # more than conditioning on noise.
        assert scores[0] < scores[1] - 0.5
