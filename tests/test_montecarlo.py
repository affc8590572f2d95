"""Tests for the Monte Carlo harness."""

import numpy as np
import pytest

from infoloss import (
    ExperimentPlan,
    TestConfig,
    gen_h0,
    H0Config,
    run_plan,
    run_test,
)
from infoloss.montecarlo import CSV_COLUMNS


def small_plan(scenario="h0", **kw):
    defaults = dict(
        scenario=scenario,
        n_grid=(200, 400),
        reps=8,
        cfg=TestConfig(c1=1.5, h=0.25),
        base_seed=0,
        min_n=300,
    )
    defaults.update(kw)
    return ExperimentPlan(**defaults)


class TestPlanValidation:
    def test_scenario_names(self):
        with pytest.raises(ValueError, match="scenario"):
            small_plan(scenario="h2")

    def test_n_grid_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            small_plan(n_grid=(400, 400))
        with pytest.raises(ValueError, match="increasing"):
            small_plan(n_grid=(400, 200))

    def test_reps_positive(self):
        with pytest.raises(ValueError, match="reps"):
            small_plan(reps=0)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            small_plan(n_grid=())


class TestRunPlan:
    def test_thread_count_invariance(self):
        # Identical aggregates with 1, 2, and 5 workers: per-replicate seeds
        # are fixed and aggregation is in replicate order.
        plan = small_plan()
        res1 = run_plan(plan, threads=1)
        res2 = run_plan(plan, threads=2)
        res5 = run_plan(plan, threads=5)
        assert res1.to_csv() == res2.to_csv() == res5.to_csv()
        for a, b in zip(res1.rows, res5.rows):
            assert a.mean_L_n == b.mean_L_n
            assert a.median_L_n == b.median_L_n
            assert a.rejection_rate == b.rejection_rate

    def test_replicate_seeds_match_direct_generation(self):
        # Replicate r at size n reproduces gen_h0 with seed base_seed + r.
        plan = small_plan(n_grid=(300,), reps=3, base_seed=17)
        res = run_plan(plan, threads=1)
        outcomes = [
            run_test(gen_h0(H0Config(n=300, seed=17 + r)), plan.cfg)
            for r in range(3)
        ]
        assert res.rows[0].mean_L_n == pytest.approx(
            np.mean([o.L_n for o in outcomes]), abs=1e-15
        )
        assert res.rows[0].rejection_rate == np.mean(
            [o.reject for o in outcomes]
        )

    def test_h0_low_rejection_rate(self):
        plan = small_plan(n_grid=(2000,), reps=20, min_n=1000)
        res = run_plan(plan)
        assert res.rows[0].rejection_rate <= 0.1
        assert not res.rows[0].below_burn_in

    def test_burn_in_flag(self):
        plan = small_plan(n_grid=(200, 400), min_n=300)
        res = run_plan(plan)
        assert res.rows[0].below_burn_in
        assert not res.rows[1].below_burn_in


class TestOutputFormats:
    def test_csv_header_and_shape(self):
        res = run_plan(small_plan(), threads=1)
        lines = res.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[0] == "n,rejection_rate,mean_Ln,mean_tn,type1_bound"
        assert len(lines) == 1 + len(res.rows)
        first = lines[1].split(",")
        assert first[0] == "200"
        # Full-precision floats round-trip.
        assert float(first[1]) == res.rows[0].rejection_rate
        assert float(first[2]) == res.rows[0].mean_L_n

    def test_csv_ends_with_newline(self):
        res = run_plan(small_plan(), threads=1)
        assert res.to_csv().endswith("\n")

    def test_dict_echoes_plan(self):
        plan = small_plan(scenario="h1", theta=0.9)
        res = run_plan(plan, threads=1)
        d = res.to_dict()
        assert d["plan"]["scenario"] == "h1"
        assert d["plan"]["theta"] == 0.9
        assert d["plan"]["n_grid"] == [200, 400]
        assert len(d["results"]) == 2
        assert {"n", "rejection_rate", "mean_L_n", "median_L_n"} <= set(
            d["results"][0]
        )

    def test_theta_omitted_for_null(self):
        res = run_plan(small_plan(), threads=1)
        assert res.to_dict()["plan"]["theta"] is None

    def test_wall_time_only_in_json(self):
        res = run_plan(small_plan(), threads=1)
        assert "wall_time" not in res.to_csv().splitlines()[0]
        assert "wall_time" in res.to_dict()["results"][0]
