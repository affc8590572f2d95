"""Information-theoretic excess-risk bounds for deterministic transformations.

For a joint law of (Y, X) and a transformation Z = T(X), the increase in
Bayes risk from predicting Y out of Z instead of X is controlled by the
mutual-information gap

    delta_I = I(Y; X) - I(Y; Z) = I(Y; X | Z)  >= 0.

Three certificates are implemented, differing in how the loss is controlled:

* bounded loss:     excess <= (sup|loss| / sqrt(2)) sqrt(delta_I)
* subgaussian loss: excess <= sqrt(2 E[sigma^2(Y)] delta_I), where
  loss(y, f*(X)) is sigma^2(y)-subgaussian given T(X) for the X-optimal
  predictor f*; Hoeffding's lemma gives sigma^2(y) = width^2 / 4 from the
  per-label range of loss(y, f*(.)).
* envelope family:  for losses whose optimal-predictor loss is dominated by
  g(Y) with E[g(Y)^2] <= c^2, the gap condition delta_I <= 2 delta^2 / c^2
  certifies excess <= delta for the whole family.

The same machinery yields the two-distribution comparison
|E h(U,V) - E h(U',V')| <= sqrt(2 E[sigma^2(U)] I(U;V)) for independent
(U', V') with the same marginals, checked by ``dv_gap_check``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .discrete import (
    DeterministicMap,
    DiscreteJoint,
    LossMatrix,
    _Frozen,
    _read_only,
    _real,
    apply_map,
    check_nonnegative,
    check_pmf,
    excess_risk,
    mutual_information,
    posterior_cost,
)

_HOLDS_TOL = 1e-9
# Widest range whose Hoeffding parameter width^2 / 4 is finite in float64.
_MAX_WIDTH = math.sqrt(np.finfo(np.float64).max)


def _hoeffding_sigma_sq(rows: np.ndarray, name: str) -> np.ndarray:
    """Hoeffding width^2 / 4 of each row's range; raises, naming ``name``, on overflow."""
    with np.errstate(over="ignore"):
        widths = rows.max(axis=1) - rows.min(axis=1)
    widest = float(widths.max())
    if not widest <= _MAX_WIDTH:
        raise ValueError(f"{name}: a row range of {widest!r} overflows width^2 / 4 in float64")
    return widths * widths / 4.0


@dataclass(frozen=True)
class SubgaussianProfile(_Frozen):
    """Per-label subgaussian parameters sigma^2(y).

    ``hoeffding_profile`` derives one from a loss; a profile built directly
    is taken as an assertion about its loss.
    """

    sigma_sq: np.ndarray

    def __post_init__(self) -> None:
        arr = check_nonnegative(self.sigma_sq, 1, name="sigma_sq")
        object.__setattr__(self, "sigma_sq", _read_only(arr.copy()))

    def expected(self, p_y: np.ndarray) -> float:
        if p_y.shape != self.sigma_sq.shape:
            raise ValueError(
                f"alphabet mismatch: profile has {self.sigma_sq.size} labels, "
                f"marginal has {p_y.size}"
            )
        return float(p_y @ self.sigma_sq)


def hoeffding_profile(joint_yx, loss: LossMatrix) -> SubgaussianProfile:
    """Certified profile from the ranges of loss(y, f*(.)) over supported x."""
    j, cost = posterior_cost(joint_yx, loss, name="joint_yx")
    best = cost.argmin(axis=0)
    supported = best[j.sum(axis=0) > 0]
    return SubgaussianProfile(_hoeffding_sigma_sq(loss.cost[:, supported], "loss"))


@dataclass(frozen=True)
class BoundReport:
    """One excess-risk certificate: the gap, the bound, and the oracle value.

    ``excess`` is NaN when no loss was supplied to evaluate the oracle
    against (then ``holds`` is None).
    """

    delta_I: float
    bound: float
    excess: float
    corollary: str
    holds: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def _oracle_excess(joint: DiscreteJoint, tmap: DeterministicMap, loss: LossMatrix) -> float:
    """``excess_risk``, remembered on the joint for its last (map, loss) pair.

    The entry keys on the identity of ``tmap`` and ``loss`` and holds both,
    so neither can be freed and its id reused while the entry stands.  It
    lives in the instance dict beside the cached marginals, so copies and
    pickles of the joint start without it.
    """
    memo = joint.__dict__.get("_excess")
    if memo is not None and memo[0] is tmap and memo[1] is loss:
        return memo[2]
    excess = excess_risk(joint, tmap, loss)
    joint.__dict__["_excess"] = (tmap, loss, excess)
    return excess


def _report(
    joint: DiscreteJoint,
    tmap: DeterministicMap,
    gap: float,
    bound: float,
    corollary: str,
    loss: LossMatrix | None,
) -> BoundReport:
    """A certificate, checked against the oracle excess when a loss is given."""
    if loss is None:
        excess, holds = math.nan, None
    else:
        excess = _oracle_excess(joint, tmap, loss)
        holds = bool(excess <= bound + _HOLDS_TOL)
    return BoundReport(delta_I=gap, bound=bound, excess=excess, corollary=corollary, holds=holds)


def bound_bounded_loss(
    joint: DiscreteJoint, tmap: DeterministicMap, loss: LossMatrix
) -> BoundReport:
    """Bounded-loss certificate: excess <= (sup|loss|/sqrt 2) sqrt(delta_I)."""
    gap = joint.information_gap
    bound = loss.sup_norm / math.sqrt(2.0) * math.sqrt(max(gap, 0.0))
    return _report(joint, tmap, gap, bound, "cor1", loss)


def bound_subgaussian(
    joint: DiscreteJoint,
    tmap: DeterministicMap,
    profile: SubgaussianProfile,
    loss: LossMatrix | None = None,
) -> BoundReport:
    """Subgaussian certificate: excess <= sqrt(2 E[sigma^2(Y)] delta_I).

    When a loss is supplied the oracle excess is evaluated and compared;
    otherwise the report carries the bound alone.
    """
    gap = joint.information_gap
    expected = profile.expected(joint.p_y)
    bound = math.sqrt(2.0 * expected * max(gap, 0.0))
    return _report(joint, tmap, gap, bound, "cor2", loss)


def _check_delta_c(delta: float, c: float) -> None:
    if not _real(delta, "delta") >= 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if not _real(c, "c") > 0:
        raise ValueError(f"c must be > 0, got {c}")


def delta_lossless_bounded(joint: DiscreteJoint, delta: float, c: float) -> bool:
    """True iff delta_I <= 2 delta^2 / c^2.

    When true, every loss with sup norm <= c suffers excess at most delta
    under the coarsening Z = T(X).
    """
    _check_delta_c(delta, c)
    return bool(joint.information_gap <= 2.0 * delta * delta / (c * c))


def family_lossless_check(joint: DiscreteJoint, delta: float, c: float, envelope) -> bool:
    """Envelope-family certificate for losses dominated by g at the optimum.

    ``envelope`` gives g(y) per label; requires E[g(Y)^2] <= c^2.  Returns
    True iff delta_I <= 2 delta^2 / E[g(Y)^2], which certifies excess <=
    delta for every loss whose optimal-predictor envelope has second moment
    at most E[g(Y)^2].  A zero envelope certifies unconditionally (the loss
    vanishes at the optimum, so nothing can be lost).
    """
    _check_delta_c(delta, c)
    g = check_nonnegative(envelope, 1, name="envelope")
    p_y = joint.p_y
    if g.shape != p_y.shape:
        raise ValueError(
            f"alphabet mismatch: envelope has {g.size} labels, joint has {p_y.size}"
        )
    second_moment = float(p_y @ (g * g))
    if second_moment > c * c + _HOLDS_TOL:
        raise ValueError(
            f"envelope second moment {second_moment} exceeds c^2 = {c * c}"
        )
    if second_moment == 0.0:
        return True
    return bool(joint.information_gap <= 2.0 * delta * delta / second_moment)


def dv_gap_check(joint_uv, table) -> tuple[float, float]:
    """Check |E h(U,V) - E h(U',V')| <= sqrt(2 E[sigma^2(U)] I(U;V)).

    ``joint_uv`` is the joint pmf of (U, V); (U', V') are independent with
    the same marginals; ``table[u, v]`` gives h.  The per-u subgaussian
    parameter is the Hoeffding value of the row range over supported v.
    Returns (lhs, rhs) and raises if the inequality fails beyond tolerance.
    """
    j = check_pmf(joint_uv, 2, name="joint_uv")
    h = np.asarray(table, dtype=np.float64)
    if h.shape != j.shape:
        raise ValueError(f"table shape {h.shape} does not match joint shape {j.shape}")
    if not np.isfinite(h).all():
        raise ValueError("table: non-finite entries")
    p_u = j.sum(axis=1)
    p_v = j.sum(axis=0)
    expected_sigma = float(p_u @ _hoeffding_sigma_sq(h[:, p_v > 0], "table"))
    lhs = abs(float(np.sum(j * h)) - float(p_u @ h @ p_v))
    rhs = math.sqrt(2.0 * expected_sigma * mutual_information(j))
    if lhs > rhs + _HOLDS_TOL:
        raise ValueError(f"variational gap bound violated: lhs={lhs}, rhs={rhs}")
    return lhs, rhs


def quantizer_sequence_bound(
    joint_yx,
    positions,
    widths,
    loss: LossMatrix,
) -> list[BoundReport]:
    """Bounded-loss certificates for a sequence of uniform quantizers of X.

    The X alphabet is embedded on the real line at ``positions``; each width
    w quantizes it by cells [k w, (k+1) w).  Widths must be strictly
    decreasing.  When each width divides the previous one the partitions
    refine, so both the information gap and the oracle excess are
    nonincreasing along the sequence, and both vanish once the cells
    separate the atoms.
    """
    j = check_pmf(joint_yx, 2, name="joint_yx")
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 1 or pos.size != j.shape[1]:
        raise ValueError(
            f"positions: expected {j.shape[1]} entries, got shape {pos.shape}"
        )
    if not np.isfinite(pos).all():
        raise ValueError("positions: non-finite entries")
    ws = [_real(w, f"widths[{i}]") for i, w in enumerate(widths)]
    if not ws:
        raise ValueError("widths is empty")
    if not all(w > 0 for w in ws):
        raise ValueError("widths must be > 0")
    if any(b >= a for a, b in zip(ws, ws[1:])):
        raise ValueError("widths must be strictly decreasing")
    reports = []
    for w in ws:
        with np.errstate(over="ignore"):
            scaled = pos / w
        if not np.isfinite(scaled).all():
            raise ValueError(f"width {w}: positions / width overflows float64")
        _, table = np.unique(np.floor(scaled), return_inverse=True)
        tmap = DeterministicMap(table=table.astype(np.int64), n_z=int(table.max()) + 1)
        joint3 = apply_map(j, tmap)
        reports.append(bound_bounded_loss(joint3, tmap, loss))
    return reports
