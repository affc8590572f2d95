"""Log-optimal investment and the growth cost of coarsened side information.

A market with d_a assets is a finite set of gross-return vectors
R_k in R_+^{d_a} with a joint law over (return outcome, side information X,
coarsened side information Z = T(X)).  A portfolio b in the probability
simplex earns log-growth E[log <b, R>]; the log-optimal portfolio maximizes
it.  With side information V the achievable growth rate is

    W*(V) = sum_v P(v) max_b E[log <b, R> | V = v].

Coarsening the side information costs at most the mutual-information gap:

    W*(X) - W*(Z) <= I(R; X) - I(R; Z),

with the no-side-information special case W*(X) - W* <= I(R; X).  When all
returns satisfy |log R| <= c_max, the gap is also at most
(c_max / sqrt 2) sqrt(delta_I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discrete import (
    DeterministicMap,
    DiscreteJoint,
    _check_consistent,
    check_pmf,
    mutual_information,
)

__all__ = [
    "GrowthReport",
    "MarketModel",
    "c_max_bound",
    "growth_gap_bound",
    "log_optimal_portfolio",
    "side_info_growth",
]

_GAP_TOL = 1e-6
_SOLVER_TOL = 1e-10
_SOLVER_MAX_ITER = 10_000


def _check_returns(returns) -> np.ndarray:
    r = np.asarray(returns, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError(f"returns: expected a 2-D array, got shape {r.shape}")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("returns must be finite and strictly positive")
    return r


@dataclass(frozen=True)
class MarketModel:
    """Finite market: return vectors plus a joint law over (R, X, Z).

    ``returns[k]`` is the gross-return vector of outcome k; ``joint`` is the
    (outcome, x, z) pmf supported on the graph of ``tmap``.
    """

    returns: np.ndarray
    joint: DiscreteJoint
    tmap: DeterministicMap

    def __post_init__(self) -> None:
        r = _check_returns(self.returns)
        if r.shape[0] != self.joint.shape[0]:
            raise ValueError(
                f"outcome mismatch: {r.shape[0]} return vectors, "
                f"joint has {self.joint.shape[0]} outcomes"
            )
        _check_consistent(self.joint, self.tmap)
        r = r.copy()
        r.flags.writeable = False
        object.__setattr__(self, "returns", r)

    @property
    def d_a(self) -> int:
        return self.returns.shape[1]

    @cached_property
    def c_max(self) -> float:
        return float(np.abs(np.log(self.returns)).max())


def log_optimal_portfolio(pmf, returns, *, return_trace: bool = False):
    """Maximize E[log <b, R>] over the simplex.

    Exponentiated-gradient ascent with a backtracking multiplicative step:
    candidates b * exp(eta * grad) (normalized) are only accepted when they
    improve the objective, so the trace is strictly increasing.  Stops when
    the improvement falls below 1e-10 or after 10 000 iterations.

    Returns (b, w) with w the achieved growth rate, plus the objective trace
    when ``return_trace`` is set.
    """
    p = check_pmf(pmf, name="pmf")
    r = _check_returns(returns)
    if r.shape[0] != p.size:
        raise ValueError(
            f"outcome mismatch: pmf has {p.size} outcomes, returns has {r.shape[0]}"
        )
    keep = p > 0
    pk, rk = p[keep], r[keep]
    d = r.shape[1]
    if d == 1:
        b = np.ones(1)
        w = float(pk @ np.log(rk[:, 0]))
        return (b, w, [w]) if return_trace else (b, w)

    def objective(bv: np.ndarray) -> float:
        return float(pk @ np.log(rk @ bv))

    b = np.full(d, 1.0 / d)
    best = objective(b)
    trace = [best]
    eta = 1.0
    for _ in range(_SOLVER_MAX_ITER):
        wealth = rk @ b
        grad = rk.T @ (pk / wealth)
        val = -math.inf
        cand = b
        while eta > 1e-14:
            cand = b * np.exp(eta * (grad - grad.max()))
            cand /= cand.sum()
            val = objective(cand)
            if val > best:
                break
            eta *= 0.5
        if val <= best:
            break
        gain = val - best
        b, best = cand, val
        trace.append(best)
        eta = min(eta * 2.0, 1e3)
        if gain < _SOLVER_TOL:
            break
    return (b, best, trace) if return_trace else (b, best)


def side_info_growth(market: MarketModel, condition_on: str | None = None) -> float:
    """Best growth rate with no, full, or coarsened side information.

    ``condition_on`` is None for W*, "x" for W*(X), or "z" for W*(Z).
    """
    probs = market.joint.probs
    if condition_on is None:
        return log_optimal_portfolio(market.joint.p_y, market.returns)[1]
    if condition_on == "x":
        joint_rv = probs.sum(axis=2)
    elif condition_on == "z":
        joint_rv = probs.sum(axis=1)
    else:
        raise ValueError(f"condition_on must be None, 'x', or 'z', got {condition_on!r}")
    p_v = joint_rv.sum(axis=0)
    total = 0.0
    for v in np.flatnonzero(p_v > 0):
        cond = joint_rv[:, v] / p_v[v]
        total += p_v[v] * log_optimal_portfolio(cond, market.returns)[1]
    return float(total)


@dataclass(frozen=True)
class GrowthReport:
    """Growth rates, information quantities, and the gap comparison."""

    w_star: float
    w_star_x: float
    w_star_z: float
    i_rx: float
    i_rz: float
    gap: float
    mi_gap: float

    def to_dict(self) -> dict:
        return {
            "W_star": float(self.w_star),
            "W_star_X": float(self.w_star_x),
            "W_star_Z": float(self.w_star_z),
            "I_RX": float(self.i_rx),
            "I_RZ": float(self.i_rz),
            "gap": float(self.gap),
            "mi_gap": float(self.mi_gap),
        }


def growth_gap_bound(market: MarketModel) -> GrowthReport:
    """Compare the growth cost of coarsening against the information gap.

    Raises if W*(X) - W*(Z) exceeds I(R;X) - I(R;Z) beyond solver tolerance.
    """
    w_star = side_info_growth(market, None)
    w_star_x = side_info_growth(market, "x")
    w_star_z = side_info_growth(market, "z")
    i_rx = mutual_information(market.joint.p_yx)
    i_rz = mutual_information(market.joint.p_yz)
    gap = w_star_x - w_star_z
    mi_gap = i_rx - i_rz
    if gap > mi_gap + _GAP_TOL:
        raise ValueError(
            f"growth gap {gap} exceeds information gap {mi_gap} beyond tolerance"
        )
    return GrowthReport(
        w_star=w_star,
        w_star_x=w_star_x,
        w_star_z=w_star_z,
        i_rx=i_rx,
        i_rz=i_rz,
        gap=gap,
        mi_gap=mi_gap,
    )


def c_max_bound(market: MarketModel, delta_i: float) -> float:
    """Growth-gap certificate (c_max / sqrt 2) sqrt(delta_I) for bounded log-returns."""
    if delta_i < -1e-12:
        raise ValueError(f"delta_i must be >= 0, got {delta_i}")
    return market.c_max / math.sqrt(2.0) * math.sqrt(max(delta_i, 0.0))
