"""Acceptance gate: one test per release criterion.

Each criterion is a single test function, so ``pytest -v`` prints exactly one
pass/fail line per criterion.  Tolerances are pinned here and nowhere else;
numbers printed on failure are the measured values.

Criterion 2 (power of the partition test under the h1 alternative at
theta = 0.5, default c1 = 1.5 and delta = 0.2, 100 replicates, seed 0) runs
the grid n = 1e3, 1e4, 1e5, 1e6, 5e6 on two threads.  It asserts that the
rejection rate is nondecreasing, that it is exactly 1.0 at the top size
n = 5e6, and that t_n < 2 there, so the rejection is not forced by the cap
L_n <= 2.  The test is strongly consistent, not powerful at a fixed n:
L_n settles near the population defect while t_n -> 0.  Measured curve:

    n      rate   median L_n   t_n
    1e3    0.0    0.714        3.158
    1e4    0.0    0.901        2.617
    1e5    0.0    1.026        1.838
    1e6    0.0    1.1245       1.3817
    5e6    1.0    1.1729       1.1172

At n = 2e6 three seeds gave L_n 1.148 against t_n 1.292, so the onset lies
in (2e6, 5e6].  Rejection at n = 1e5 is out of reach for any implementation
of the documented threshold: even at c1 -> sqrt(2 log 2) and the best h,
t_n >= 1.686 there.  An earlier clause "median L_n >= 2 t_n" is not
asserted: since L_n <= 2 it needs t_n <= 1, and the default schedule gives
t_n = 1.382, 1.040, 0.748, 0.550 at n = 1e6, 1e7, 1e8, 1e9, so it cannot
hold below about 1e9 rows.
"""

import json
import math

import numpy as np
import pytest

from infoloss import (
    CubicPartition,
    DeterministicMap,
    apply_map,
    bayes_risk,
    bound_bounded_loss,
    build_histogram,
    conditional_mutual_information,
    delta_lossless_bounded,
    dv_gap_check,
    excess_risk,
    gen_market,
    gen_random_joint,
    gen_random_loss,
    growth_gap_bound,
    l_statistic,
    log_optimal_portfolio,
    MarketModel,
    mutual_information,
    philox,
    quantizer_sequence_bound,
    zero_one_loss,
)
from infoloss.cli import main as cli_main

from conftest import (
    conditional_dependence_l1,
    gen_atomic_dataset,
    gen_markov_joint,
    grid_growth_oracle,
)

# One-sided 99% binomial margin for 200 trials: sqrt(ln(1/0.01) / (2 * 200)).
BINOMIAL_MARGIN_200 = 0.1073


def run_mc(tmp_path, scenario, reps, n_grid="1000,10000,100000", extra=()):
    stem = tmp_path / f"{scenario}_{reps}"
    code = cli_main(
        [
            "mc",
            "--scenario", scenario,
            "--n-grid", n_grid,
            "--reps", str(reps),
            "--seed", "0",
            "--output", str(stem),
            *extra,
        ]
    )
    assert code == 0
    return json.loads(stem.with_suffix(".json").read_text())


def test_criterion_01_type1_error_control(tmp_path, capsys):
    # Null scenario, c1 = 1.5, delta = 0.2 (the defaults), 200 replicates:
    # at every n >= 1e4 the rejection rate stays within the theoretical
    # false-rejection bound plus the one-sided 99% binomial margin.  With
    # the default schedule t_n >= 2 at n = 1e4, so that row is vacuous and
    # its rate is 0 by construction; n = 1e5 is the real type-I check.
    blob = run_mc(tmp_path, "h0", 200)
    vacuous = {row["n"]: row["vacuous"] for row in blob["results"]}
    assert vacuous[10_000] is True
    assert vacuous[100_000] is False
    checked = 0
    for row in blob["results"]:
        if row["n"] < 10_000:
            continue
        limit = row["type1_bound"] + BINOMIAL_MARGIN_200
        assert row["rejection_rate"] <= limit, (
            f"n={row['n']}: rejection rate {row['rejection_rate']} exceeds "
            f"{row['type1_bound']} + {BINOMIAL_MARGIN_200}"
        )
        checked += 1
    assert checked == 2


def test_criterion_02_power_under_alternative(tmp_path, capsys):
    # Alternative scenario at theta = 0.5, default c1 and delta, 100
    # replicates: rejection rate nondecreasing in n and equal to 1 at
    # n = 5e6, the first grid size at which the default threshold lets the
    # test reject, with t_n < 2 there (see the module docstring for why no
    # "median L_n >= 2 t_n" clause).  Two threads hold memory at two
    # 5e6-row replicates; criterion 11 pins thread invariance.
    blob = run_mc(
        tmp_path, "h1", 100,
        n_grid="1000,10000,100000,1000000,5000000",
        extra=("--theta", "0.5", "--threads", "2"),
    )
    rows = blob["results"]
    curve = "; ".join(
        f"n={row['n']}: rate {row['rejection_rate']}, median L_n "
        f"{row['median_L_n']:.4f}, t_n {row['mean_t_n']:.4f}"
        for row in rows
    )
    rates = [row["rejection_rate"] for row in rows]
    assert all(b >= a for a, b in zip(rates, rates[1:])), (
        f"rejection rates not nondecreasing: {curve}"
    )
    top = rows[-1]
    assert top["n"] == 5_000_000, f"top of the grid is not n=5e6: {curve}"
    assert top["rejection_rate"] == 1.0, (
        f"rejection rate at n=5e6 is {top['rejection_rate']}, expected 1.0: "
        f"{curve}"
    )
    assert top["mean_t_n"] < 2.0, (
        f"threshold at n=5e6 is {top['mean_t_n']:.4f} >= 2, so the test "
        f"could not reject whatever the data: {curve}"
    )


def test_criterion_03_chain_rule_identity():
    # 1000 seeded coarsening joints, sizes up to 4 x 6 x 3: the conditional
    # information equals the information difference to 1e-12.
    worst = 0.0
    for seed in range(1000):
        rng = philox(seed)
        ny = int(rng.integers(2, 5))
        nx = int(rng.integers(2, 7))
        nz = int(rng.integers(2, min(nx, 3) + 1))
        joint, _ = gen_random_joint((ny, nx, nz), seed)
        direct = conditional_mutual_information(joint)
        chained = mutual_information(joint.p_yx) - mutual_information(joint.p_yz)
        worst = max(worst, abs(direct - chained))
    assert worst <= 1e-12, f"worst chain-rule residual {worst}"


def test_criterion_04_markov_lossless_and_converse():
    # Conditionally independent joints lose nothing under any loss; a
    # dependent joint loses at least 0.05 under a 0-1 loss.
    worst = 0.0
    for seed in range(1000):
        joint, tmap = gen_markov_joint((3, 5, 2), seed)
        for k in range(10):
            loss = gen_random_loss(3, 1.0, seed * 10 + k)
            worst = max(worst, excess_risk(joint, tmap, loss))
    assert worst <= 1e-12, f"worst Markov excess {worst}"

    # Converse witness: fair bit fully revealed by X, erased by T.
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    non_markov = apply_map(j, tmap)
    assert conditional_mutual_information(non_markov) > 0.05
    assert excess_risk(non_markov, tmap, zero_one_loss(2)) >= 0.05


def test_criterion_05_bounded_loss_certificate():
    # 1000 random (joint, map, loss) triples with sup norm <= 1: the oracle
    # excess never exceeds (1/sqrt 2) sqrt(delta_I) + 1e-9.
    violations = 0
    for seed in range(1000):
        rng = philox(seed + 10_000)
        ny = int(rng.integers(2, 5))
        nx = int(rng.integers(2, 6))
        nz = int(rng.integers(2, min(nx, 3) + 1))
        joint, tmap = gen_random_joint((ny, nx, nz), seed + 10_000)
        loss = gen_random_loss(ny, 1.0, seed + 20_000)
        excess = excess_risk(joint, tmap, loss)
        cap = math.sqrt(max(joint.information_gap, 0.0) / 2.0)
        if excess > cap + 1e-9:
            violations += 1
    assert violations == 0, f"{violations} certificate violations"

    # Constant-T fair bit: excess exactly 0.5 against bound 0.588705...
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    report = bound_bounded_loss(apply_map(j, tmap), tmap, zero_one_loss(2))
    assert report.excess == 0.5
    assert report.bound == pytest.approx(0.5887050112577373, abs=1e-12)
    assert report.holds


def test_criterion_06_delta_lossless_certificate():
    # Wherever the bounded-family certificate fires, a 100-loss sweep stays
    # within delta.
    certified = 0
    for seed in range(200):
        joint, tmap = gen_random_joint((3, 4, 2), seed + 30_000)
        for delta in (0.05, 0.1, 0.2):
            if not delta_lossless_bounded(joint, delta, 1.0):
                continue
            certified += 1
            sweep = max(
                excess_risk(joint, tmap, gen_random_loss(3, 1.0, seed * 100 + k))
                for k in range(100)
            )
            assert sweep <= delta + 1e-9, (
                f"seed {seed}, delta {delta}: sweep excess {sweep}"
            )
    assert certified >= 20, f"only {certified} certified instances exercised"


def test_criterion_07_variational_gap_inequality():
    # 500 random 4x4 function tables: the expectation gap never exceeds the
    # subgaussian-information bound (dv_gap_check raises on violation).
    for seed in range(500):
        rng = philox(seed + 40_000)
        j = rng.random((4, 4)) + 0.01
        j /= j.sum()
        table = rng.normal(0.0, 1.5, (4, 4))
        lhs, rhs = dv_gap_check(j, table)
        assert lhs <= rhs + 1e-9


def test_criterion_08_quantizer_refinement():
    # Three atoms quantized at widths 1, 0.5, 0.1: the information gap and
    # the excess risk are nonincreasing and vanish at the finest width.
    positions = np.array([0.05, 0.45, 0.85])
    joint_yx = np.diag([0.3, 0.4, 0.3])
    reports = quantizer_sequence_bound(
        joint_yx, positions, [1.0, 0.5, 0.1], zero_one_loss(3)
    )
    gaps = [r.delta_I for r in reports]
    excesses = [r.excess for r in reports]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])), gaps
    assert all(b <= a + 1e-12 for a, b in zip(excesses, excesses[1:])), excesses
    assert gaps[-1] <= 1e-12
    assert excesses[-1] <= 1e-12


def test_criterion_09_growth_gap_certificates():
    # 200 random markets (up to 3 assets, up to 6 outcomes): the growth gap
    # respects the information gap with margin 1e-6, and the solver matches
    # the simplex-grid oracle within 1e-4; the doubling horse race is tight.
    for seed in range(200):
        rng = philox(seed + 50_000)
        d_a = int(rng.integers(1, 4))
        outcomes = int(rng.integers(2, 7))
        market = gen_market(d_a, outcomes, seed + 50_000)
        report = growth_gap_bound(market)  # raises when the bound fails
        assert report.gap <= report.mi_gap + 1e-6
        _, w_solver = log_optimal_portfolio(market.joint.p_y, market.returns)
        _, w_grid = grid_growth_oracle(market.joint.p_y, market.returns)
        assert abs(w_solver - w_grid) <= 1e-4, (
            f"seed {seed}: solver {w_solver} vs grid {w_grid}"
        )

    eps = 1e-9
    returns = np.array([[2.0, eps], [eps, 2.0]])
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    race = MarketModel(returns=returns, joint=apply_map(j, tmap), tmap=tmap)
    report = growth_gap_bound(race)
    assert report.gap == pytest.approx(math.log(2.0), abs=1e-6)
    assert report.mi_gap == pytest.approx(math.log(2.0), abs=1e-6)


def test_criterion_10_plugin_convergence():
    # Fixed atomic (Y, X, Z) law with atoms on cell-separated positions:
    # the empirical partition statistic at n = 1e5 matches the population
    # conditional-dependence defect within 0.02 on all 20 replicates.
    joint, _ = gen_random_joint((3, 4, 2), 42)
    population = conditional_dependence_l1(joint)
    y_atoms = [0.0, 0.5, 1.0]
    x_atoms = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0]
    z_atoms = [0.0, 1.0]
    part = CubicPartition(h=0.25, d=1, d_prime=1)
    errors = []
    for rep in range(20):
        data = gen_atomic_dataset(joint, y_atoms, x_atoms, z_atoms, 100_000, rep)
        l_n = l_statistic(build_histogram(data, part))
        errors.append(abs(l_n - population))
    assert max(errors) <= 0.02, (
        f"max |L_n - population| = {max(errors):.4f} (population {population:.4f})"
    )


def test_criterion_11_determinism(tmp_path, capsys):
    # Seeded commands rerun byte-identically and the Monte Carlo harness is
    # thread-count invariant.
    for scenario in ("h0", "h1"):
        a = tmp_path / f"{scenario}_a"
        b = tmp_path / f"{scenario}_b"
        argv = ["gen", "--scenario", scenario, "--n", "2000", "--seed", "3"]
        assert cli_main(argv + ["--output", str(a)]) == 0
        assert cli_main(argv + ["--output", str(b)]) == 0
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    mc_argv = ["mc", "--scenario", "h1", "--n-grid", "500,1000", "--reps", "8",
               "--h", "0.2", "--seed", "1"]
    assert cli_main(mc_argv + ["--threads", "1", "--output", str(tmp_path / "m1")]) == 0
    assert cli_main(mc_argv + ["--threads", "4", "--output", str(tmp_path / "m4")]) == 0
    assert cli_main(mc_argv + ["--threads", "1", "--output", str(tmp_path / "m1b")]) == 0
    csv1 = (tmp_path / "m1.csv").read_bytes()
    assert csv1 == (tmp_path / "m4.csv").read_bytes()
    assert csv1 == (tmp_path / "m1b.csv").read_bytes()
