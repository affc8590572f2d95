"""Command line interface.

Subcommands:
  test       run the conditional independence test on a CSV sample
  mc         Monte Carlo rejection-rate experiment over a sample-size grid
  bounds     excess-risk certificate for a (joint, map, loss) JSON file
  portfolio  growth-gap report for a market JSON file
  gen        write a synthetic sample CSV plus a config echo JSON
  select     greedy forward feature selection on a CSV sample

Exit codes: 0 success (test/select: independence accepted), 3 test rejected,
1 any error, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bounds import bound_bounded_loss
from .montecarlo import ExperimentPlan, run_plan
from .partition import TestConfig, run_test
from .portfolio import growth_gap_bound
from .selection import greedy_lossless_selection
from .serialize import (
    SchemaError,
    dataset_to_csv,
    joint_from_dict,
    load_json,
    loss_from_dict,
    map_from_dict,
    market_from_dict,
    read_dataset_csv,
    save_json,
)
from .synth import H0Config, H1Config, gen_h0, gen_h1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 3


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c1", type=float, default=1.5, help="threshold multiplier")
    p.add_argument("--delta", type=float, default=0.2, help="bandwidth exponent, h = n^-delta")
    p.add_argument("--h", type=float, default=None, help="explicit bandwidth (overrides --delta)")


def _test_config(args) -> TestConfig:
    return TestConfig(c1=args.c1, delta=args.delta, h=args.h)


def _emit_json(obj: dict, output: str | None) -> None:
    """Print ``obj`` as indented JSON, and also write it to ``output`` when given."""
    payload = json.dumps(obj, indent=2)
    if output:
        Path(output).write_text(payload + "\n")
    print(payload)


def _cmd_test(args) -> int:
    data = read_dataset_csv(args.input, d=args.d, d_prime=args.dprime)
    outcome = run_test(data, _test_config(args))
    _emit_json(outcome.to_dict(), args.output)
    return EXIT_REJECT if outcome.reject else EXIT_OK


def _cmd_mc(args) -> int:
    plan = ExperimentPlan(
        scenario=args.scenario,
        n_grid=tuple(int(tok) for tok in args.n_grid.split(",")),
        reps=args.reps,
        cfg=_test_config(args),
        base_seed=args.seed,
        theta=args.theta,
        min_n=args.min_n,
    )
    result = run_plan(plan, threads=args.threads)
    out = Path(args.output)
    out.with_suffix(".csv").write_text(result.to_csv())
    save_json(result.to_dict(), out.with_suffix(".json"))
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    obj = load_json(args.input)
    joint = joint_from_dict(obj.get("joint"), "joint")
    tmap = map_from_dict(obj.get("map"), "map")
    loss = loss_from_dict(obj.get("loss"), "loss")
    report = bound_bounded_loss(joint, tmap, loss)
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_portfolio(args) -> int:
    market = market_from_dict(load_json(args.input), "market")
    report = growth_gap_bound(market)
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.scenario == "h0":
        cfg = H0Config(
            n=args.n,
            seed=args.seed,
            k=args.k,
            interval_width=args.width,
            noise_scale=args.noise,
        )
        data = gen_h0(cfg)
        echo = {"scenario": "h0"}
    else:
        cfg = H1Config(
            n=args.n,
            seed=args.seed,
            k=args.k,
            interval_width=args.width,
            noise_scale=args.noise,
            theta=args.theta,
        )
        data = gen_h1(cfg)
        echo = {"scenario": "h1", "theta": cfg.theta}
    echo.update(
        {
            "n": cfg.n,
            "seed": cfg.seed,
            "k": cfg.k,
            "interval_width": cfg.interval_width,
            "noise_scale": cfg.noise_scale,
            "atoms": [float(a) for a in cfg.atoms],
            "regression_values": [float(v) for v in cfg.g],
            "d": data.d,
            "d_prime": data.d_prime,
        }
    )
    out = Path(args.output)
    out.with_suffix(".csv").write_text(dataset_to_csv(data))
    save_json(echo, out.with_suffix(".json"))
    print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    return EXIT_OK


def _cmd_select(args) -> int:
    data = read_dataset_csv(args.input, d=args.d)
    result = greedy_lossless_selection(data, _test_config(args))
    _emit_json(result.to_dict(), args.output)
    if not result.accepted:
        print("warning: no subset accepted; returning the full set", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infoloss",
        description="Conditional independence testing for feature transformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the independence test on a CSV sample")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="also write the JSON outcome here")
    p.add_argument("--d", type=int, default=None, help="number of x columns (checked against header)")
    p.add_argument("--dprime", type=int, default=None, help="number of z columns")
    _add_test_flags(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate experiment")
    p.add_argument("--scenario", choices=("h0", "h1"), default="h0")
    p.add_argument("--n-grid", default="1000,10000,100000", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--threads", type=int, default=None, help="worker threads (default: all cores)")
    p.add_argument("--min-n", type=int, default=1000, help="burn-in below which rates are informational")
    p.add_argument("--output", required=True, help="output path stem for .csv and .json")
    _add_test_flags(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("bounds", help="excess-risk certificate from a JSON instance")
    p.add_argument("--input", required=True, help='JSON file with "joint", "map", "loss"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("portfolio", help="growth-gap report for a market JSON file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_portfolio)

    p = sub.add_parser("gen", help="write a synthetic sample CSV")
    p.add_argument("--scenario", choices=("h0", "h1"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--width", type=float, default=0.2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--output", required=True, help="output path stem for .csv and .json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("select", help="greedy forward feature selection")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--d", type=int, default=None)
    _add_test_flags(p)
    p.set_defaults(func=_cmd_select)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
