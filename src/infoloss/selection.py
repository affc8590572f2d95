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

Each subset is tested once: the winning candidate's outcome is the next
round's test of the grown subset, since its probe has the same columns in
the same order and the same per-step schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .partition import Dataset, TestConfig, TestOutcome, run_test


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
            "vacuous": bool(self.outcome.vacuous),
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
    limit = 1.0 / (d + 1 + d_prime)
    if cfg.h is not None or cfg.delta < limit:
        return cfg
    return replace(cfg, delta=0.99 * limit)


def _run_subset(data: Dataset, subset: list[int], cfg: TestConfig) -> TestOutcome:
    probe = Dataset._owned(data.x, data.y, data.x[:, subset])
    return run_test(probe, _step_config(cfg, probe.d, probe.d_prime))


def greedy_lossless_selection(data: Dataset, cfg: TestConfig = TestConfig()) -> SelectionResult:
    """Smallest greedy coordinate subset the test accepts as sufficient.

    The input dataset's own z columns are ignored; candidate subsets come
    from the x coordinates.  Ties in the candidate statistic break toward
    the lowest coordinate index, so the procedure is deterministic.
    """
    selected: list[int] = []
    steps: list[SelectionStep] = []
    outcome = _run_subset(data, selected, cfg)
    while True:
        remaining = [j for j in range(data.d) if j not in selected] if outcome.reject else []
        outcomes = {j: _run_subset(data, selected + [j], cfg) for j in remaining}
        scores = {j: o.L_n for j, o in outcomes.items()}
        best = min(scores, key=lambda j: (scores[j], j)) if scores else None
        steps.append(SelectionStep(tuple(selected), outcome, scores, best))
        if best is None:
            return SelectionResult(
                selected=tuple(selected), accepted=not outcome.reject, steps=tuple(steps)
            )
        selected.append(best)
        outcome = outcomes[best]
