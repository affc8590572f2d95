"""Monte Carlo harness for the conditional independence test.

Runs the test over a grid of sample sizes with many replicates per size and
aggregates rejection rates and statistic summaries.  Replicate r of every
sample size uses seed ``base_seed + r``, and aggregation always happens in
replicate order, so results are identical whatever the worker count.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .partition import TestConfig, run_test
from .synth import SAMPLE_COLUMNS, H0Config, H1Config, gen_h0, gen_h1

__all__ = ["ExperimentPlan", "MCResult", "MCRow", "run_plan"]

CSV_COLUMNS = ("n", "rejection_rate", "mean_Ln", "mean_tn", "type1_bound")


@dataclass(frozen=True)
class ExperimentPlan:
    """A full Monte Carlo experiment description.

    ``scenario`` is "h0" or "h1"; replicates draw from that generator with its
    default atoms, interval width and noise scale.
    """

    scenario: str
    n_grid: tuple[int, ...]
    reps: int
    cfg: TestConfig
    base_seed: int = 0
    theta: float = 0.5
    min_n: int = 1000

    def __post_init__(self) -> None:
        if self.scenario not in ("h0", "h1"):
            raise ValueError(f"scenario must be h0 or h1, got {self.scenario!r}")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid:
            raise ValueError("n_grid is empty")
        if any(n < 1 for n in grid):
            raise ValueError("sample sizes must be >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class MCRow:
    """Aggregates for one sample size."""

    n: int
    rejection_rate: float
    mean_L_n: float
    median_L_n: float
    mean_t_n: float
    type1_bound: float
    wall_time: float
    below_burn_in: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MCResult:
    """All rows of a finished plan, with plot-ready CSV rendering."""

    plan: ExperimentPlan
    rows: tuple[MCRow, ...]

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join(
                    (
                        repr(row.n),
                        repr(row.rejection_rate),
                        repr(row.mean_L_n),
                        repr(row.mean_t_n),
                        repr(row.type1_bound),
                    )
                )
            )
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        plan = self.plan
        return {
            "plan": {
                "scenario": plan.scenario,
                "n_grid": list(plan.n_grid),
                "reps": plan.reps,
                "c1": plan.cfg.c1,
                "delta": plan.cfg.delta,
                "h": plan.cfg.h,
                "base_seed": plan.base_seed,
                "theta": plan.theta if plan.scenario == "h1" else None,
                "min_n": plan.min_n,
            },
            "results": [row.to_dict() for row in self.rows],
        }


def _replicate(plan: ExperimentPlan, n: int, rep: int, local: threading.local):
    """One replicate, drawn and scaled in its worker's two reusable blocks."""
    if not hasattr(local, "blocks"):
        local.blocks = tuple(np.empty((n, SAMPLE_COLUMNS), order="F") for _ in range(2))
    sample, scaled = local.blocks
    seed = plan.base_seed + rep
    if plan.scenario == "h0":
        data = gen_h0(H0Config(n=n, seed=seed), out=sample)
    else:
        data = gen_h1(H1Config(n=n, seed=seed, theta=plan.theta), out=sample)
    outcome = run_test(data, plan.cfg, scratch=scaled)
    return outcome.L_n, outcome.t_n, outcome.reject, outcome.type1_bound


def run_plan(plan: ExperimentPlan, threads: int | None = None) -> MCResult:
    """Execute a plan; results are independent of the thread count.

    Each worker draws and scales its replicates of one n in two blocks of
    (n, 4) floats, allocated on its first replicate of that n and dropped
    when that n's pool closes: 64 bytes per row per worker.
    """
    workers = threads if threads is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"threads must be >= 1, got {workers}")
    rows = []
    for n in plan.n_grid:
        start = time.perf_counter()
        local = threading.local()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda r: _replicate(plan, n, r, local), range(plan.reps)))
        elapsed = time.perf_counter() - start
        l_vals = np.array([res[0] for res in results])
        t_vals = np.array([res[1] for res in results])
        rejects = np.array([res[2] for res in results])
        rows.append(
            MCRow(
                n=n,
                rejection_rate=float(rejects.mean()),
                mean_L_n=float(l_vals.mean()),
                median_L_n=float(np.median(l_vals)),
                mean_t_n=float(t_vals.mean()),
                type1_bound=float(results[0][3]),
                wall_time=elapsed,
                below_burn_in=bool(n < plan.min_n),
            )
        )
    return MCResult(plan=plan, rows=tuple(rows))
