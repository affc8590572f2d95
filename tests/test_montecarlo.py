"""Tests for the Monte Carlo harness."""

import dataclasses
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from infoloss import (
    ExperimentPlan,
    TestConfig,
    gen_h0,
    H0Config,
    H1Config,
    run_plan,
    run_test,
)
import infoloss.montecarlo
from infoloss.montecarlo import CSV_COLUMNS
from infoloss.partition import L_MAX

from conftest import traced_peak


def small_plan(scenario="h0", **kw):
    defaults = dict(
        scenario=scenario,
        n_grid=(200, 400),
        reps=8,
        cfg=TestConfig(c1=1.5, h=0.25),
        base_seed=0,
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

    # A float must not be truncated: n = 100.7 would run n = 100 and
    # base_seed 0.5 seed 0, while the JSON echo kept the float.
    @pytest.mark.parametrize("field, value, message", [
        ("n_grid", (100.7, 200), "n_grid entry must be an integer, got 100.7"),
        ("reps", 8.0, "reps must be an integer, got 8.0"),
        ("base_seed", 0.5, "base_seed must be an integer, got 0.5"),
    ])
    def test_integer_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_plan(**{field: value})

    # An h1 plan holds theta to H1Config's rule when it is built, not when a
    # worker thread comes to draw its first replicate; h0 ignores theta.
    @pytest.mark.parametrize("theta, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (0.0, "0.0"),
    ])
    def test_h1_theta_checked_when_built(self, theta, shown):
        message = f"theta must be finite and nonzero (0 is the null), got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_plan(scenario="h1", theta=theta)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            H1Config(n=10, seed=0, theta=theta)

    def test_h0_ignores_theta(self):
        plan = small_plan(theta=float("nan"))
        assert plan.scenario == "h0" and math.isnan(plan.theta)

    def test_numpy_integers_kept_as_ints(self):
        plan = small_plan(n_grid=(np.int64(200), 400), reps=np.int32(8), base_seed=np.uint64(3))
        assert plan.n_grid == (200, 400) and plan.reps == 8 and plan.base_seed == 3
        assert all(type(v) is int for v in (*plan.n_grid, plan.reps, plan.base_seed))


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

    def test_threaded_mean_equals_direct_replicates_exactly(self):
        # Each replicate draws its own fresh sample, so the workers give each
        # replicate's L_n bit for bit and the aggregates are exactly equal.
        # Five workers on a short switch interval would expose a sample shared
        # across threads.
        plan = small_plan(n_grid=(300, 20_000), reps=10, base_seed=17, cfg=TestConfig())
        direct = {
            n: [run_test(gen_h0(H0Config(n=n, seed=17 + r)), plan.cfg).L_n for r in range(10)]
            for n in plan.n_grid
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = [run_plan(plan, threads=threads) for threads in (2, 5)]
        finally:
            sys.setswitchinterval(interval)
        for res in results:
            for row in res.rows:
                assert row.mean_L_n == np.mean(direct[row.n])
                assert row.median_L_n == np.median(direct[row.n])

    @pytest.mark.parametrize("scenario", ["h0", "h1"])
    def test_one_worker_holds_one_sample(self, scenario):
        # README states about 34 B/row per worker: the fresh (n, 4) float64
        # sample of the running replicate (32 B/row) plus chunked binning.
        # A freed replicate still held while the next one draws would read
        # 64 B/row or more.
        n = 1_000_000
        plan = small_plan(scenario=scenario, n_grid=(n,), reps=3, cfg=TestConfig())
        _, peak = traced_peak(run_plan, plan, 1)
        assert peak <= 40 * n, f"peak {peak / n:.1f} B/row"

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_threads_rejected(self, threads):
        with pytest.raises(ValueError, match=rf"^threads must be >= 1, got {threads}$"):
            run_plan(small_plan(), threads=threads)

    def test_non_integer_threads_rejected(self):
        with pytest.raises(ValueError, match=r"^threads must be an integer, got 1\.5$"):
            run_plan(small_plan(), threads=1.5)

    @pytest.mark.parametrize("affinity", [True, False])
    def test_default_workers_follow_cpu_affinity(self, monkeypatch, affinity):
        # The default is the cores this process may run on, not the host's;
        # without sched_getaffinity it falls back to os.cpu_count().
        workers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kw):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kw)

        monkeypatch.setattr(infoloss.montecarlo, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        run_plan(small_plan(n_grid=(200,), reps=2))
        assert workers == [3 if affinity else 64]

    def test_h0_low_rejection_rate(self):
        # At n = 2000 the threshold exceeds L_MAX, so its rate is 0 by
        # construction; the 1e5 row is the one whose rate says something.
        plan = small_plan(n_grid=(2000, 100_000), reps=20, cfg=TestConfig())
        res = run_plan(plan)
        assert [row.rejection_rate <= 0.1 for row in res.rows] == [True, True]
        assert [row.vacuous for row in res.rows] == [True, False]

    def test_burn_in_flag(self):
        # Burn-in is where the test cannot reject: t_n >= L_MAX.  With the
        # default schedule t_n is 3.158, 2.617 and 1.838 on the acceptance
        # grid, so only its largest row can reject.
        plan = small_plan(scenario="h1", n_grid=(1000, 10_000, 100_000), reps=2,
                          cfg=TestConfig())
        res = run_plan(plan)
        assert [row.vacuous for row in res.rows] == [True, True, False]
        assert [row.mean_t_n >= L_MAX for row in res.rows] == [True, True, False]
        assert res.rows[0].rejection_rate == res.rows[1].rejection_rate == 0.0


class TestOutputFormats:
    def test_csv_header_and_shape(self):
        res = run_plan(small_plan(), threads=1)
        lines = res.to_csv().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS.values())
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

    def test_plan_echo_keys_are_plan_fields(self):
        # The echo lists every ExperimentPlan field, cfg as its own fields,
        # so a field added to or removed from the plan cannot go unechoed.
        expected = []
        for field in dataclasses.fields(ExperimentPlan):
            if field.name == "cfg":
                expected += [f.name for f in dataclasses.fields(TestConfig)]
            else:
                expected.append(field.name)
        assert list(run_plan(small_plan(), threads=1).to_dict()["plan"]) == expected

    def test_theta_omitted_for_null(self):
        res = run_plan(small_plan(), threads=1)
        assert res.to_dict()["plan"]["theta"] is None

    def test_wall_time_only_in_json(self):
        res = run_plan(small_plan(), threads=1)
        assert "wall_time" not in res.to_csv().splitlines()[0]
        assert "wall_time" in res.to_dict()["results"][0]
