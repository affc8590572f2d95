"""Greedy forward feature selection driven by the conditional independence test.

Starting from the empty set, the selector tests whether Y is conditionally
independent of X given the currently selected coordinates; while the test
rejects, it adds the candidate coordinate whose inclusion minimizes the
statistic.  Because Z is a column subset of X and all coordinates share one
scaling and one cell side, the Z-partition is automatically the nested
restriction of the X-partition.

This is an explicit heuristic: the test guarantees each accepted subset is
consistent with conditional independence at the current sample size, not
that the subset is minimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Dataset, TestConfig, TestOutcome, run_test

__all__ = ["SelectionResult", "SelectionStep", "greedy_lossless_selection"]


@dataclass(frozen=True)
class SelectionStep:
    """One round: the subset tested and, if expanded, the candidate scores."""

    subset: tuple[int, ...]
    outcome: TestOutcome
    candidate_scores: dict[int, float]
    added: int | None

    def to_dict(self) -> dict:
        return {
            "subset": [f"x{i + 1}" for i in self.subset],
            "L_n": float(self.outcome.L_n),
            "t_n": float(self.outcome.t_n),
            "accepted": not bool(self.outcome.reject),
            "candidates": {
                f"x{i + 1}": float(score) for i, score in self.candidate_scores.items()
            },
            "added": None if self.added is None else f"x{self.added + 1}",
        }


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]
    accepted: bool
    steps: tuple[SelectionStep, ...]

    def to_dict(self) -> dict:
        return {
            "selected": [f"x{i + 1}" for i in self.selected],
            "indices": list(self.selected),
            "accepted": bool(self.accepted),
            "trace": [step.to_dict() for step in self.steps],
        }


def _step_config(cfg: TestConfig, d: int, d_prime: int) -> TestConfig:
    """Clamp the schedule exponent so it stays admissible as Z grows.

    With an explicit h nothing changes; with an exponent delta that would
    hit or exceed 1/(d + 1 + d'), the step uses 99% of that limit instead.
    """
    if cfg.h is not None or cfg.delta is None:
        return cfg
    limit = 1.0 / (d + 1 + d_prime)
    if cfg.delta < limit:
        return cfg
    return TestConfig(c1=cfg.c1, delta=0.99 * limit, h=None)


def _run_subset(data: Dataset, subset: list[int], cfg: TestConfig) -> TestOutcome:
    z = data.x[:, subset] if subset else np.empty((data.n, 0))
    probe = Dataset._owned(data.x, data.y, z)
    return run_test(probe, _step_config(cfg, probe.d, probe.d_prime))


def greedy_lossless_selection(data: Dataset, cfg: TestConfig = TestConfig()) -> SelectionResult:
    """Smallest greedy coordinate subset the test accepts as sufficient.

    The input dataset's own z columns are ignored; candidate subsets come
    from the x coordinates.  Ties in the candidate statistic break toward
    the lowest coordinate index, so the procedure is deterministic.
    """
    selected: list[int] = []
    steps: list[SelectionStep] = []
    while True:
        outcome = _run_subset(data, selected, cfg)
        remaining = [j for j in range(data.d) if j not in selected]
        if not outcome.reject or not remaining:
            steps.append(
                SelectionStep(
                    subset=tuple(selected), outcome=outcome, candidate_scores={}, added=None
                )
            )
            return SelectionResult(
                selected=tuple(selected), accepted=not outcome.reject, steps=tuple(steps)
            )
        scores = {
            j: _run_subset(data, selected + [j], cfg).L_n for j in remaining
        }
        best = min(scores, key=lambda j: (scores[j], j))
        steps.append(
            SelectionStep(
                subset=tuple(selected),
                outcome=outcome,
                candidate_scores=scores,
                added=best,
            )
        )
        selected.append(best)
