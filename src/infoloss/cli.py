"""Command line interface.

Subcommands:
  test       run the conditional independence test on a CSV sample
  mc         Monte Carlo rejection-rate experiment over a sample-size grid
  bounds     excess-risk certificate for a (joint, map, loss) JSON file
  portfolio  growth-gap report for a market JSON file
  gen        write a synthetic sample CSV plus a config echo JSON
  select     greedy forward feature selection on a CSV sample

Exit codes: 0 success (test: independence accepted; select: always, with
the outcome in its JSON), 3 test rejected, 1 any error, 2 bad arguments.
A stdout closed by its reader (``infoloss select ... | head``) also exits 1,
with no error message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .bounds import bound_bounded_loss
from .montecarlo import ExperimentPlan, run_plan
from .partition import L_MAX, TestConfig, run_test
from .portfolio import growth_gap_bound
from .selection import greedy_lossless_selection
from .serialize import (
    _require,
    # Not called here: perfbench/tracing.py wraps this module's dataset_to_csv.
    dataset_to_csv,
    joint_from_dict,
    load_json,
    loss_from_dict,
    map_from_dict,
    market_from_dict,
    read_dataset_csv,
    save_json,
    write_dataset_csv,
)
from .synth import H0Config, H1Config, gen_h0, gen_h1

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECT = 3


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c1", type=float, default=TestConfig.c1, help="threshold multiplier")
    p.add_argument("--delta", type=float, default=TestConfig.delta,
                   help="bandwidth exponent, h = n^-delta")
    p.add_argument("--h", type=float, default=TestConfig.h,
                   help="explicit bandwidth (overrides --delta)")


def _test_config(args) -> TestConfig:
    return TestConfig(**{f.name: getattr(args, f.name) for f in fields(TestConfig)})


class _StdoutClosed(Exception):
    """The reader of stdout went away (``infoloss select ... | head``)."""


def _print(text: str) -> None:
    """Print ``text`` to stdout and flush it, so a closed stdout raises here,
    as _StdoutClosed, and not at interpreter exit.  A broken pipe on any other
    file stays an OSError."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _emit_json(obj: dict, output: str | None) -> None:
    """Print ``obj`` as indented JSON, and also write it to ``output`` when given."""
    if output:
        save_json(obj, output)
    _print(json.dumps(obj, indent=2))


def _cmd_test(args) -> int:
    data = read_dataset_csv(args.input)
    outcome = run_test(data, _test_config(args))
    _emit_json(outcome.to_dict(), args.output)
    return EXIT_REJECT if outcome.reject else EXIT_OK


def _cmd_mc(args) -> int:
    n_grid = []
    for tok in args.n_grid.split(","):
        try:
            n_grid.append(int(tok))
        except ValueError:
            raise ValueError(f"--n-grid: {tok!r} is not an integer") from None
    plan = ExperimentPlan(
        scenario=args.scenario,
        n_grid=tuple(n_grid),
        reps=args.reps,
        cfg=_test_config(args),
        base_seed=args.seed,
        theta=args.theta,
    )
    result = run_plan(plan, threads=args.threads)
    out = Path(args.output)
    out.with_suffix(".csv").write_text(result.to_csv())
    save_json(result.to_dict(), out.with_suffix(".json"))
    _print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    obj = load_json(args.input)
    joint = joint_from_dict(_require(obj, "joint", args.input), "joint")
    tmap = map_from_dict(_require(obj, "map", args.input), "map")
    loss = loss_from_dict(_require(obj, "loss", args.input), "loss")
    report = bound_bounded_loss(joint, tmap, loss)
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_portfolio(args) -> int:
    market = market_from_dict(load_json(args.input), "market")
    report = growth_gap_bound(market)
    _emit_json(report.to_dict(), args.output)
    return EXIT_OK


def _cmd_gen(args) -> int:
    params = {f.name: getattr(args, f.name) for f in fields(H0Config)}
    echo = {"scenario": args.scenario}
    if args.scenario == "h0":
        cfg = H0Config(**params)
        data = gen_h0(cfg)
    else:
        cfg = H1Config(**params, theta=args.theta)
        data = gen_h1(cfg)
        echo["theta"] = cfg.theta
    atoms = [float(a) for a in cfg.atoms]
    echo.update({name: getattr(cfg, name) for name in params})
    echo.update(atoms=atoms, regression_values=atoms, d=data.d, d_prime=data.d_prime)
    out = Path(args.output)
    write_dataset_csv(data, out.with_suffix(".csv"))
    save_json(echo, out.with_suffix(".json"))
    _print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
    return EXIT_OK


def _cmd_select(args) -> int:
    data = read_dataset_csv(args.input)
    result = greedy_lossless_selection(data, _test_config(args))
    _emit_json(result.to_dict(), args.output)
    if not result.accepted:
        print("warning: no subset accepted; returning the full set", file=sys.stderr)
    elif result.steps[-1].outcome.vacuous:
        outcome = result.steps[-1].outcome
        print(f"warning: t_n = {outcome.t_n:.4g} >= {L_MAX:g} at n = {data.n}, "
              f"h = {outcome.h:g}, so the test cannot reject and the acceptance is "
              "no evidence of sufficiency", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # No abbreviated long flags: a removed flag must fail as unrecognized,
    # not parse as a prefix of a live one (``--d`` of ``--delta``).
    parser = argparse.ArgumentParser(
        prog="infoloss",
        description="Conditional independence testing for feature transformations",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="run the independence test on a CSV sample", allow_abbrev=False)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None, help="also write the JSON outcome here")
    _add_test_flags(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("mc", help="Monte Carlo rejection-rate experiment", allow_abbrev=False)
    p.add_argument("--scenario", choices=("h0", "h1"), default="h0")
    p.add_argument("--n-grid", default="1000,10000,100000", help="comma-separated sample sizes")
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--seed", type=int, default=ExperimentPlan.base_seed)
    p.add_argument("--theta", type=float, default=ExperimentPlan.theta)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: the cores this process may run on); "
                        "each holds about 34 bytes per row of the sample size being run")
    p.add_argument("--output", required=True, help="output path stem for .csv and .json")
    _add_test_flags(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("bounds", help="excess-risk certificate from a JSON instance",
                       allow_abbrev=False)
    p.add_argument("--input", required=True, help='JSON file with "joint", "map", "loss"')
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("portfolio", help="growth-gap report for a market JSON file",
                       allow_abbrev=False)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_portfolio)

    p = sub.add_parser("gen", help="write a synthetic sample CSV", allow_abbrev=False)
    p.add_argument("--scenario", choices=("h0", "h1"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=H0Config.k)
    # Each dest is the H0Config field the flag sets; the metavar keeps the help text.
    p.add_argument("--width", dest="interval_width", metavar="WIDTH", type=float,
                   default=H0Config.interval_width)
    p.add_argument("--noise", dest="noise_scale", metavar="NOISE", type=float,
                   default=H0Config.noise_scale)
    p.add_argument("--theta", type=float, default=H1Config.theta)
    p.add_argument("--output", required=True, help="output path stem for .csv and .json")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("select", help="greedy forward feature selection", allow_abbrev=False)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    _add_test_flags(p)
    p.set_defaults(func=_cmd_select)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StdoutClosed:
        # Python's SIGPIPE recipe: send what is still buffered to devnull, so
        # the exit-time flush reports nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
