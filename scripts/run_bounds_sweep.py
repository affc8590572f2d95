#!/usr/bin/env python3
"""Sweep random (joint, map, loss) instances against the risk certificates.

For each seeded instance the script records the information gap, the oracle
excess risk, and both certificate values (worst-case and label-adaptive),
then prints slack statistics: how much headroom each bound leaves and how
often the adaptive bound is strictly tighter.
"""

import argparse
import csv
import math
import sys
from pathlib import Path

from infoloss import (
    bound_bounded_loss,
    bound_subgaussian,
    gen_random_joint,
    gen_random_loss,
    hoeffding_profile,
    philox,
)


def positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def finite_nonnegative(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=positive_int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sup", type=finite_nonnegative, default=1.0, help="loss sup-norm cap")
    ap.add_argument("--out", default="results/bounds_sweep.csv")
    args = ap.parse_args()
    # Instance i keys philox with seed + i, + 500_000 and + 1_000_000.
    last = args.seed + args.instances - 1 + 1_000_000
    if args.seed < 0 or last >= 2**64:
        ap.error(f"argument --seed: the sweep keys seeds {args.seed} .. {last}, "
                 "outside [0, 2**64)")
    return args


def main():
    args = parse_args()
    rows = []
    tighter = 0
    for i in range(args.instances):
        seed = args.seed + i
        rng = philox(seed + 1_000_000)
        ny = int(rng.integers(2, 5))
        nx = int(rng.integers(2, 7))
        nz = int(rng.integers(2, min(nx, 4) + 1))
        joint, tmap = gen_random_joint((ny, nx, nz), seed)
        loss = gen_random_loss(ny, args.sup, seed + 500_000)
        worst = bound_bounded_loss(joint, tmap, loss)
        profile = hoeffding_profile(joint.p_yx, loss)
        adaptive = bound_subgaussian(joint, tmap, profile, loss)
        # An explicit check, unlike assert, also runs under python -O.
        if not (worst.holds and adaptive.holds):
            sys.exit(
                f"certificate violated at seed {seed}: excess {worst.excess} > "
                f"bound {worst.bound} (worst case) or {adaptive.bound} (adaptive)"
            )
        if adaptive.bound < worst.bound - 1e-12:
            tighter += 1
        rows.append(
            {
                "seed": seed,
                "shape": f"{ny}x{nx}x{nz}",
                "delta_I": worst.delta_I,
                "excess": worst.excess,
                "bound_worst_case": worst.bound,
                "bound_adaptive": adaptive.bound,
            }
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)

    slack = [r["bound_worst_case"] - r["excess"] for r in rows]
    ratio = [
        r["excess"] / r["bound_worst_case"]
        for r in rows
        if r["bound_worst_case"] > 0
    ]
    print(f"instances               {len(rows)}")
    print(f"certificate violations  0 (asserted)")
    print(f"mean slack              {sum(slack) / len(slack):.4f}")
    print(f"max excess/bound ratio  {max(ratio):.4f}")
    print(f"adaptive bound tighter  {tighter}/{len(rows)}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
