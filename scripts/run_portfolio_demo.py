#!/usr/bin/env python3
"""Growth-rate cost of coarsening side information, on random markets.

Prints the doubling horse race (where the information bound is tight), then
sweeps seeded random markets and summarizes how the realized growth gap
W*(X) - W*(Z) compares to the information gap I(R;X) - I(R;Z), and how far
below the optimum the solver's growth rates may be (their certified error).
"""

import argparse
import math

import numpy as np

from infoloss import (
    DeterministicMap,
    MarketModel,
    apply_map,
    gen_market,
    growth_gap_bound,
)


def horse_race():
    eps = 1e-9
    returns = np.array([[2.0, eps], [eps, 2.0]])
    j = np.array([[0.5, 0.0], [0.0, 0.5]])
    tmap = DeterministicMap(np.array([0, 0]), n_z=1)
    return MarketModel(returns=returns, joint=apply_map(j, tmap), tmap=tmap)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def outcome_count(text):
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {value}")
    return value


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--markets", type=positive_int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--assets", type=positive_int, default=3, help="max d_a")
    ap.add_argument("--outcomes", type=outcome_count, default=6, help="max outcomes")
    args = ap.parse_args()
    # default_rng takes the seed, and market i keys philox with seed + i and + i + 1.
    last = args.seed + args.markets
    if args.seed < 0 or last >= 2**64:
        ap.error(f"argument --seed: the demo keys seeds {args.seed} .. {last}, "
                 "outside [0, 2**64)")
    return args


def main():
    args = parse_args()

    print("doubling horse race (side information reveals the winner):")
    race = growth_gap_bound(horse_race())
    print(f"  W*      = {race.w_star:+.6f}")
    print(f"  W*(Z)   = {race.w_star_z:+.6f}   (Z constant)")
    print(f"  W*(X)   = {race.w_star_x:+.6f}   (X = winner)")
    print(f"  gap     = {race.gap:.6f}")
    print(f"  I gap   = {race.mi_gap:.6f}   (log 2 = {math.log(2):.6f}; tight)")

    rng = np.random.default_rng(args.seed)
    gaps, ratios, errors = [], [], []
    for i in range(args.markets):
        d_a = int(rng.integers(1, args.assets + 1))
        outcomes = int(rng.integers(2, args.outcomes + 1))
        report = growth_gap_bound(gen_market(d_a, outcomes, args.seed + i))
        gaps.append(report.gap)
        errors.append(max(report.w_star_err, report.w_star_x_err, report.w_star_z_err))
        if report.mi_gap > 1e-12:
            ratios.append(report.gap / report.mi_gap)

    gaps = np.asarray(gaps)
    print(f"\nrandom markets ({args.markets} seeds, d_a <= {args.assets}, "
          f"<= {args.outcomes} outcomes):")
    print(f"  growth gap > 1e-6 in {int((gaps > 1e-6).sum())} markets")
    print(f"  mean gap            {gaps.mean():.6f}")
    print(f"  max gap             {gaps.max():.6f}")
    print(f"  max gap / info gap  {max(ratios):.4f}  (1.0 would saturate the bound)")
    print(f"  max certified error {max(errors):.1e}  (bound on how far any rate is below its optimum)")
    print("  certificate violations: 0 (growth_gap_bound raises otherwise)")


if __name__ == "__main__":
    main()
