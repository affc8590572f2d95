"""Exact information and decision-risk computations on finite alphabets.

Everything in this module is dense, brute-force linear algebra on explicit
joint pmfs.  These functions are the ground truth that the sample-based
estimators, the risk bounds, and the portfolio results elsewhere in the
package are checked against.  All information quantities use natural
logarithms (nats).

Conventions
-----------
* A pmf is a 1-D float array with nonnegative entries summing to one
  (within ``PMF_ATOL``).
* A three-way joint over (Y, X, Z) is stored as a ``DiscreteJoint`` whose
  ``probs`` array is indexed ``[y, x, z]``.
* A loss is a square matrix ``cost[y_true, y_pred] >= 0``.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

PMF_ATOL = 1e-12
# Below this a product of probabilities may have lost its bits to underflow.
_TINY = np.finfo(np.float64).tiny


def _real(value, name: str, minimum: float | None = None) -> float:
    """``value`` as a Python float, finite and >= ``minimum`` if one is given.

    Bools, non-real values and values beyond float64 raise ValueError naming
    the argument; numpy scalars pass.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        # No value in the message: repr of an int over 4300 digits raises.
        raise ValueError(f"{name} must be in the float64 range") from None
    if minimum is not None and not (math.isfinite(x) and x >= minimum):
        raise ValueError(f"{name} must be finite and >= {minimum}, got {value}")
    return x


def _count(value, name: str, minimum: int | None = 1) -> int:
    """``value`` as a Python int of at least ``minimum`` (None: any integer).

    Bools, floats and other non-integers raise ValueError; numpy integers pass.
    """
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = operator.index(value)
    if minimum is not None and n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_nonnegative(values, ndim: int, *, name: str) -> np.ndarray:
    """``values`` as a nonempty float64 ``ndim``-D array of finite entries >= 0."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name}: empty alphabet")
    # A NaN or -inf fails the min test and a +inf the max test.
    if not (arr.min() >= 0 and arr.max() < math.inf):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name}: non-finite entries")
        raise ValueError(f"{name}: negative entries")
    return arr


def check_pmf(p, ndim: int = 1, *, name: str) -> np.ndarray:
    """Validate an ``ndim``-D array as a pmf and return it as float64."""
    arr = np.asarray(p, dtype=np.float64)
    # Entries in [0, 1] pass the nonnegative rule and cannot sum past the
    # float64 range, so the sum needs no overflow guard.
    if arr.ndim == ndim and arr.size and arr.min() >= 0 and arr.max() <= 1:
        total = float(arr.sum())
    else:
        arr = check_nonnegative(arr, ndim, name=name)
        # Finite entries may sum past the float64 range; the sum is then inf.
        with np.errstate(over="ignore"):
            total = float(arr.sum())
    if abs(total - 1.0) > PMF_ATOL:
        raise ValueError(f"{name}: probabilities sum to {total!r}, not 1")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Frozen:
    """Copy and pickle hooks: a copy holds the dataclass fields only (no cached
    values), its arrays marked read-only in place rather than copied again."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                _read_only(value)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DiscreteJoint(_Frozen):
    """Joint pmf of (Y, X, Z) on finite alphabets, indexed ``probs[y, x, z]``."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = check_pmf(self.probs, 3, name="joint.probs")
        object.__setattr__(self, "probs", _read_only(arr.copy()))

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.probs.shape  # type: ignore[return-value]

    # The marginals and the gap are computed once per joint; the arrays are
    # shared, so they are read-only like ``probs``.
    @cached_property
    def p_y(self) -> np.ndarray:
        return _read_only(self.probs.sum(axis=(1, 2)))

    @cached_property
    def p_z(self) -> np.ndarray:
        return _read_only(self.probs.sum(axis=(0, 1)))

    @cached_property
    def p_yx(self) -> np.ndarray:
        return _read_only(self.probs.sum(axis=2))

    @cached_property
    def p_yz(self) -> np.ndarray:
        return _read_only(self.probs.sum(axis=1))

    @cached_property
    def information_gap(self) -> float:
        """I(Y; X) - I(Y; Z); >= 0 when Z = T(X)."""
        return _mi(self.p_yx) - _mi(self.p_yz)


@dataclass(frozen=True)
class DeterministicMap(_Frozen):
    """A map T from the X alphabet into the Z alphabet, ``table[x] = z``."""

    table: np.ndarray
    n_z: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_z", _count(self.n_z, "map.n_z"))
        arr = np.asarray(self.table)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"map.table: expected a nonempty 1-D array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("map.table: entries must be integers")
        if arr.min() < 0 or arr.max() >= self.n_z:
            raise ValueError(f"map.table: entries must lie in [0, {self.n_z})")
        object.__setattr__(self, "table", _read_only(arr.astype(np.int64)))

    @property
    def n_x(self) -> int:
        return self.table.size


@dataclass(frozen=True)
class LossMatrix(_Frozen):
    """Nonnegative loss ``cost[y_true, y_pred]`` on a finite label alphabet."""

    cost: np.ndarray

    def __post_init__(self) -> None:
        arr = check_nonnegative(self.cost, 2, name="loss.cost")
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"loss.cost: expected a square matrix, got shape {arr.shape}")
        object.__setattr__(self, "cost", _read_only(arr.copy()))

    @cached_property
    def sup_norm(self) -> float:
        return float(self.cost.max())

    @property
    def n_labels(self) -> int:
        return self.cost.shape[0]


def zero_one_loss(n_labels: int) -> LossMatrix:
    """0-1 loss: cost 1 for a wrong label, 0 for a correct one."""
    return LossMatrix(1.0 - np.eye(n_labels))


def squared_loss(values) -> LossMatrix:
    """Squared-difference loss on labels embedded at real ``values``."""
    v = np.asarray(values, dtype=np.float64)
    return LossMatrix((v[:, None] - v[None, :]) ** 2)


def mutual_information(joint2) -> float:
    """I(A; B) of a two-way joint pmf, in nats.

    Computed as the divergence between the joint and the product of its
    marginals; finite for every valid joint.  When a supported cell's
    marginal product underflows, every term is taken as
    log p - log p_a - log p_b instead of the log of the ratio.
    """
    return _mi(check_pmf(joint2, 2, name="joint2"))


def _mi(j: np.ndarray) -> float:
    """``mutual_information`` of a float64 pmf; a sum rounding below 0 reads 0.

    A marginal with one supported symbol gives exactly 0, where the sum
    would be the log of the joint's rounded total.
    """
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    if np.count_nonzero(pa) == 1 or np.count_nonzero(pb) == 1:
        return 0.0
    mask = j > 0
    jm = j[mask]
    prod = (pa[:, None] * pb)[mask]
    if prod.min() >= _TINY:
        terms = jm * np.log(jm / prod)
    else:
        a, b = np.nonzero(mask)
        terms = jm * (np.log(jm) - np.log(pa[a]) - np.log(pb[b]))
    return max(0.0, float(terms.sum()))


def conditional_mutual_information(joint: DiscreteJoint | np.ndarray) -> float:
    """I(Y; X | Z) of a three-way joint, in nats.

    Equals sum_z P(z) D(P_{YX|z} || P_{Y|z} x P_{X|z}); evaluated directly as
    sum over supported cells of p(y,x,z) log[ p(y,x,z) p(z) / (p(y,z) p(x,z)) ].
    When a supported cell's numerator or denominator underflows, every term
    is taken as a sum of the four logarithms instead.
    """
    probs = joint.probs if isinstance(joint, DiscreteJoint) else check_pmf(joint, 3, name="joint")
    p_z = probs.sum(axis=(0, 1))
    p_yz = probs.sum(axis=1)
    p_xz = probs.sum(axis=0)
    mask = probs > 0
    pm = probs[mask]
    num = (probs * p_z[None, None, :])[mask]
    den = (p_yz[:, None, :] * p_xz[None, :, :])[mask]
    if min(num.min(), den.min()) >= _TINY:
        return float((pm * np.log(num / den)).sum())
    y, x, z = np.nonzero(mask)
    logs = np.log(pm) + np.log(p_z[z]) - np.log(p_yz[y, z]) - np.log(p_xz[x, z])
    return float((pm * logs).sum())


def posterior_cost(joint2, loss: LossMatrix, *, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a (Y, observation) joint against a loss and weigh its costs.

    Returns the joint as float64 and ``cost[y_pred, obs] = sum_y
    joint2[y, obs] loss.cost[y, y_pred]``, the posterior expected loss of
    each prediction times the observation's probability.
    """
    j = check_pmf(joint2, 2, name=name)
    _check_labels(j.shape[0], loss)
    return j, loss.cost.T @ j


def _check_labels(n_labels: int, loss: LossMatrix) -> None:
    if n_labels != loss.n_labels:
        raise ValueError(
            f"alphabet mismatch: joint has {n_labels} labels, loss has {loss.n_labels}"
        )


def bayes_risk(joint2, loss: LossMatrix) -> float:
    """Minimum expected loss for predicting Y from an observation.

    ``joint2[y, obs]`` is the joint pmf of (Y, observation); the optimal rule
    picks, for each observation, the label minimizing the posterior expected
    loss.  Equals sum_obs min_y' sum_y joint2[y, obs] cost[y, y'].
    """
    _, cost = posterior_cost(joint2, loss, name="joint2")
    return float(cost.min(axis=0).sum())


def _bayes_risk(j: np.ndarray, loss: LossMatrix) -> float:
    """``bayes_risk`` of a float64 pmf whose label count matches the loss."""
    return float((loss.cost.T @ j).min(axis=0).sum())


def _check_consistent(joint: DiscreteJoint, tmap: DeterministicMap) -> None:
    ny, nx, nz = joint.shape
    if tmap.n_x != nx or tmap.n_z != nz:
        raise ValueError(
            f"map shape ({tmap.n_x} -> {tmap.n_z}) does not match joint axes ({nx}, {nz})"
        )
    allowed = tmap.table[None, :, None] == np.arange(nz)[None, None, :]
    off_graph = joint.probs * (~allowed)
    if off_graph.max() > 0:
        y, x, z = np.argwhere(off_graph > 0)[0]
        raise ValueError(
            f"joint has mass at (y={y}, x={x}, z={z}) but map sends x={x} to z={tmap.table[x]}"
        )


def apply_map(joint2, tmap: DeterministicMap) -> DiscreteJoint:
    """Lift a (Y, X) joint to the (Y, X, Z) joint with Z = T(X)."""
    j = check_pmf(joint2, 2, name="joint2")
    ny, nx = j.shape
    if tmap.n_x != nx:
        raise ValueError(f"alphabet mismatch: joint has {nx} x-symbols, map has {tmap.n_x}")
    probs = np.zeros((ny, nx, tmap.n_z))
    probs[:, np.arange(nx), tmap.table] = j
    return DiscreteJoint(probs)


def excess_risk(joint: DiscreteJoint, tmap: DeterministicMap, loss: LossMatrix) -> float:
    """Bayes-risk increase from observing T(X) = Z instead of X.

    Requires the joint to be supported on the graph of the map (every cell
    with positive mass satisfies z = T(x)).  The result is nonnegative up to
    float roundoff: coarsening the observation can never help.
    """
    _check_consistent(joint, tmap)
    _check_labels(joint.shape[0], loss)
    return _bayes_risk(joint.p_yz, loss) - _bayes_risk(joint.p_yx, loss)
