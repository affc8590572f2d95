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
    _Frozen,
    _read_only,
    _real,
    check_nonnegative,
    check_pmf,
    mutual_information,
)

# The solver starts on the face {i : g_i >= max g - _FACE_SLACK} of the
# uniform portfolio and takes at most _MAX_STEPS Newton steps; it stops once
# the certified bound is at most _CERT_TOL.  Coordinates whose ratio-test
# step lengths agree to _RTOL reach zero together.
_CERT_TOL = 1e-12
_FACE_SLACK = 1e-3
_MAX_STEPS = 200
_RTOL = 1e-9
# growth_gap_bound's rounding allowance, in units of the double epsilon times
# the magnitudes compared (plus 1): each growth rate and mutual information is
# a probability-weighted sum of a few dozen logarithms at most, each term and
# partial sum rounded once, and the certified errors are logarithms of
# numbers near 1.
_ROUNDING_ULPS = 64


def _check_returns(returns) -> np.ndarray:
    r = check_nonnegative(returns, 2, name="returns")
    if np.count_nonzero(r) < r.size:
        raise ValueError("returns: zero entries")
    return r


@dataclass(frozen=True)
class MarketModel(_Frozen):
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
        object.__setattr__(self, "returns", _read_only(r.copy()))

    @property
    def d_a(self) -> int:
        return self.returns.shape[1]

    @cached_property
    def c_max(self) -> float:
        return float(np.abs(np.log(self.returns)).max())


def _kuhn_tucker_bound(g: np.ndarray) -> float:
    """Certified gap W* - W(b) <= log max_i g_i, where g = E[R / <b, R>].

    Jensen's inequality gives the bound for any portfolio b (Cover & Thomas,
    *Elements of Information Theory*, ch. 16); it is zero exactly when b
    meets the Kuhn-Tucker conditions.  Since sum_i b_i g_i = 1 it is never
    negative, so a rounded value below zero reads as zero.
    """
    return max(math.log(g.max()), 0.0)


def _unit_rows(returns: np.ndarray) -> np.ndarray:
    """Each outcome's returns divided by that outcome's largest entry.

    Neither the optimal b nor g = E[R / <b, R>] changes.  The wealth
    <b, R> is then at most 1 and at least the weight b puts on the outcome's
    best asset, so subnormal returns cannot overflow the solver's divisions.
    """
    return returns / returns.max(axis=1, keepdims=True)


def log_optimal_portfolio(pmf, returns, *, return_trace: bool = False):
    """Maximize E[log <b, R>] over the simplex, to a certified tolerance.

    Each outcome's returns are first divided by its largest entry, which
    leaves the optimal b unchanged; sum_k p_k log max_i R_ki is added back to
    the growth rate.  With g = E[R / <b, R>] the gradient, Jensen's
    inequality bounds the shortfall W* - W(b) by log max_i g_i.

    The solver is an active-set Newton method.  It starts from the uniform
    portfolio restricted to the face {i : g_i >= max g - 1e-3} and
    renormalized.  Each step adds to the face every coordinate whose g_i
    reaches the face's largest, and solves the KKT system [H 1; 1^T 0] of
    the face's Hessian H = -E[R R^T / <b, R>^2] under sum_i b_i = 1 by
    minimum-norm least squares, which also gives a step when the system is
    singular (identical assets, or more assets than outcomes plus one).  A
    coordinate at zero whose step is negative leaves the face and the system
    is solved again.  The step length is min(1, t_max), where at t_max the
    first coordinate reaches zero and leaves the face; it is halved until
    the objective rises or the Kuhn-Tucker bound reaches 1e-12, and given up
    once the step no longer moves b.  The solver stops once the bound is at
    most 1e-12, when a step is given up, or after 200 steps; the bound it
    reached then stays above 1e-12.

    The trace records the objective at the start and after every step that
    raises it, so it is strictly increasing.  Only a last step, one that
    brings the bound to 1e-12, may leave the objective where it was or lower
    it, by at most that bound; the trace does not count it.

    Returns (b, w) with w the growth rate at b, plus the trace when
    ``return_trace`` is set.
    """
    p = check_pmf(pmf, name="pmf")
    r = _check_returns(returns)
    if r.shape[0] != p.size:
        raise ValueError(
            f"outcome mismatch: pmf has {p.size} outcomes, returns has {r.shape[0]}"
        )
    # BLAS rounds a strided or column-major product differently, and the
    # core uses arrays that drop no outcome as they are.
    return _log_optimal(np.ascontiguousarray(p), np.ascontiguousarray(r), return_trace)


def _log_optimal(p: np.ndarray, r: np.ndarray, return_trace: bool = False):
    """``log_optimal_portfolio`` of a C-contiguous float64 pmf and returns array."""
    keep = p > 0
    pk, rk = (p, r) if keep.all() else (p[keep], r[keep])
    d = r.shape[1]
    if d == 1:
        b = np.ones(1)
        w = float(pk @ np.log(rk[:, 0]))
        return (b, w, [w]) if return_trace else (b, w)

    top = rk.max(axis=1, keepdims=True)
    offset = float(pk @ np.log(top[:, 0]))
    rk = rk / top

    def gradient(wealth: np.ndarray) -> np.ndarray:
        return rk.T @ (pk / wealth)

    def objective(wealth: np.ndarray) -> float:
        return float(pk @ np.log(wealth)) + offset

    g = gradient(rk @ np.full(d, 1.0 / d))
    face = g >= g.max() - _FACE_SLACK
    b = np.where(face, 1.0 / d, 0.0)
    b /= b.sum()
    wealth = rk @ b
    g = gradient(wealth)
    w = objective(wealth)
    trace = [w]
    for _ in range(_MAX_STEPS):
        bound = _kuhn_tucker_bound(g)
        if bound <= _CERT_TOL:
            break
        face |= g >= g[face].max()
        while True:
            idx = np.flatnonzero(face)
            k = idx.size
            sub = rk[:, idx] * (np.sqrt(pk) / wealth)[:, None]
            kkt = np.ones((k + 1, k + 1))
            kkt[:k, :k] = -(sub.T @ sub)
            kkt[k, k] = 0.0
            rhs = np.append(-g[idx], 0.0)
            step = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            down = step < 0
            falling = idx[down]
            ratios = b[falling] / -step[down]
            t_max = ratios.min(initial=math.inf)
            if t_max > 0:
                break
            face[falling[ratios == 0.0]] = False  # at zero and falling
        t = min(1.0, t_max)
        reach = np.abs(step).max()
        while t > 0:
            cand = b.copy()
            cand[idx] += t * step
            if t == t_max:
                leaving = falling[ratios <= t_max * (1.0 + _RTOL)]
                cand[leaving] = 0.0
            cand /= cand.sum()
            cand_wealth = rk @ cand
            cand_g = gradient(cand_wealth)
            val = objective(cand_wealth)
            if val > w or _kuhn_tucker_bound(cand_g) <= _CERT_TOL:
                break
            # Halve until t * step no longer moves b.
            t = 0.5 * t if t * reach > np.spacing(b.max()) else 0.0
        else:
            break
        if t == t_max:
            face[leaving] = False
        if val > w:
            trace.append(val)
        b, wealth, g, w = cand, cand_wealth, cand_g, val
    return (b, w, trace) if return_trace else (b, w)


def _side_info_solves(market: MarketModel, condition_on: str | None) -> tuple[float, float]:
    """(growth rate, certified error) with no, full, or coarsened side information.

    The error is sum_v P(v) log max_i E[R_i / <b_v, R> | V = v], recomputed
    from each returned b_v: W*(V) minus the rate is at most this.
    """
    if condition_on is None:
        conds = [(1.0, market.joint.p_y)]
    else:
        joint_rv = market.joint.p_yx if condition_on == "x" else market.joint.p_yz
        p_v = joint_rv.sum(axis=0)
        conds = [(p_v[v], joint_rv[:, v] / p_v[v]) for v in np.flatnonzero(p_v > 0)]
    unit = _unit_rows(market.returns)
    total = err = 0.0
    for weight, cond in conds:
        b, w = log_optimal_portfolio(cond, market.returns)
        total += weight * w
        keep = cond > 0
        u, c = (unit, cond) if keep.all() else (unit[keep], cond[keep])
        err += weight * _kuhn_tucker_bound(u.T @ (c / (u @ b)))
    return float(total), float(err)


# GrowthReport field -> key of its dict and JSON form, in output order.
_REPORT_KEYS = {
    "w_star": "W_star",
    "w_star_x": "W_star_X",
    "w_star_z": "W_star_Z",
    "i_rx": "I_RX",
    "i_rz": "I_RZ",
    "gap": "gap",
    "mi_gap": "mi_gap",
    "w_star_err": "W_star_err",
    "w_star_x_err": "W_star_X_err",
    "w_star_z_err": "W_star_Z_err",
}


@dataclass(frozen=True)
class GrowthReport:
    """Growth rates, information quantities, the gap comparison, and the
    certified error of each growth rate (how far below the optimum it may be).
    """

    w_star: float
    w_star_x: float
    w_star_z: float
    i_rx: float
    i_rz: float
    gap: float
    mi_gap: float
    w_star_err: float
    w_star_x_err: float
    w_star_z_err: float

    def to_dict(self) -> dict:
        return {key: float(getattr(self, field)) for field, key in _REPORT_KEYS.items()}


def growth_gap_bound(market: MarketModel) -> GrowthReport:
    """Compare the growth cost of coarsening against the information gap.

    The computed W*(X) is at most the true one and the computed W*(Z) at most
    its certified error below, so the computed gap exceeds the true gap by at
    most that error.  Raises if the gap exceeds I(R;X) - I(R;Z) by more than
    the error plus a rounding allowance, or if a growth rate is not finite.
    """
    w_star, w_star_err = _side_info_solves(market, None)
    w_star_x, w_star_x_err = _side_info_solves(market, "x")
    w_star_z, w_star_z_err = _side_info_solves(market, "z")
    for key, value in (("W_star", w_star), ("W_star_X", w_star_x), ("W_star_Z", w_star_z)):
        if not math.isfinite(value):
            raise ValueError(f"{key}: growth rate {value} from market returns is not finite")
    i_rx = mutual_information(market.joint.p_yx)
    i_rz = mutual_information(market.joint.p_yz)
    gap = w_star_x - w_star_z
    mi_gap = i_rx - i_rz
    rounding = _ROUNDING_ULPS * np.finfo(np.float64).eps * (
        1.0 + abs(w_star_x) + abs(w_star_z) + i_rx + i_rz
    )
    if not gap <= mi_gap + w_star_z_err + rounding:
        raise ValueError(
            f"growth gap {gap} exceeds information gap {mi_gap} beyond the "
            f"certified error {w_star_z_err} of W*(Z)"
        )
    return GrowthReport(
        w_star=w_star,
        w_star_x=w_star_x,
        w_star_z=w_star_z,
        i_rx=i_rx,
        i_rz=i_rz,
        gap=gap,
        mi_gap=mi_gap,
        w_star_err=w_star_err,
        w_star_x_err=w_star_x_err,
        w_star_z_err=w_star_z_err,
    )


def c_max_bound(market: MarketModel, delta_i: float) -> float:
    """Growth-gap certificate (c_max / sqrt 2) sqrt(delta_I) for bounded log-returns."""
    if not _real(delta_i, "delta_i") >= -1e-12:
        raise ValueError(f"delta_i must be >= 0, got {delta_i}")
    return market.c_max / math.sqrt(2.0) * math.sqrt(max(delta_i, 0.0))
