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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PMF_ATOL",
    "DiscreteJoint",
    "DeterministicMap",
    "LossMatrix",
    "apply_map",
    "bayes_risk",
    "check_pmf",
    "conditional_dependence_l1",
    "conditional_mutual_information",
    "excess_risk",
    "kl_divergence",
    "mutual_information",
    "squared_loss",
    "zero_one_loss",
]

PMF_ATOL = 1e-12


def check_pmf(p, ndim: int = 1, *, name: str, atol: float = PMF_ATOL) -> np.ndarray:
    """Validate an ``ndim``-D array as a pmf and return it as float64."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != ndim:
        raise ValueError(f"{name}: expected a {ndim}-D array, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name}: empty alphabet")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name}: negative probabilities")
    total = float(arr.sum())
    if abs(total - 1.0) > atol:
        raise ValueError(f"{name}: probabilities sum to {total!r}, not 1")
    return arr


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint pmf of (Y, X, Z) on finite alphabets, indexed ``probs[y, x, z]``."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = check_pmf(self.probs, 3, name="joint.probs")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.probs.shape  # type: ignore[return-value]

    @property
    def p_y(self) -> np.ndarray:
        return self.probs.sum(axis=(1, 2))

    @property
    def p_x(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 2))

    @property
    def p_z(self) -> np.ndarray:
        return self.probs.sum(axis=(0, 1))

    @property
    def p_yx(self) -> np.ndarray:
        return self.probs.sum(axis=2)

    @property
    def p_yz(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    @property
    def p_xz(self) -> np.ndarray:
        return self.probs.sum(axis=0)


@dataclass(frozen=True)
class DeterministicMap:
    """A map T from the X alphabet into the Z alphabet, ``table[x] = z``."""

    table: np.ndarray
    n_z: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.table)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"map.table: expected a nonempty 1-D array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("map.table: entries must be integers")
        if self.n_z < 1:
            raise ValueError(f"map.n_z: must be >= 1, got {self.n_z}")
        if np.any(arr < 0) or np.any(arr >= self.n_z):
            raise ValueError(f"map.table: entries must lie in [0, {self.n_z})")
        arr = arr.astype(np.int64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def n_x(self) -> int:
        return self.table.size

    def __call__(self, x_idx) -> np.ndarray:
        return self.table[np.asarray(x_idx)]


@dataclass(frozen=True)
class LossMatrix:
    """Nonnegative loss ``cost[y_true, y_pred]`` on a finite label alphabet."""

    cost: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.cost, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"loss.cost: expected a square matrix, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("loss.cost: empty alphabet")
        if not np.all(np.isfinite(arr)):
            raise ValueError("loss.cost: non-finite entries")
        if np.any(arr < 0):
            raise ValueError("loss.cost: negative entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "cost", arr)

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


def kl_divergence(p, q) -> float:
    """Relative entropy D(p || q) in nats.

    Terms with p_i = 0 contribute zero; any i with p_i > 0 and q_i = 0 makes
    the divergence infinite.
    """
    p = check_pmf(p, name="p")
    q = check_pmf(q, name="q")
    if p.shape != q.shape:
        raise ValueError(f"alphabet mismatch: p has {p.size} symbols, q has {q.size}")
    mask = p > 0
    if np.any(q[mask] == 0):
        return math.inf
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def mutual_information(joint2) -> float:
    """I(A; B) of a two-way joint pmf, in nats.

    Computed as the divergence between the joint and the product of its
    marginals; finite for every valid joint.
    """
    j = check_pmf(joint2, 2, name="joint2")
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    mask = j > 0
    prod = np.outer(pa, pb)
    return float(np.sum(j[mask] * np.log(j[mask] / prod[mask])))


def conditional_mutual_information(joint: DiscreteJoint | np.ndarray) -> float:
    """I(Y; X | Z) of a three-way joint, in nats.

    Equals sum_z P(z) D(P_{YX|z} || P_{Y|z} x P_{X|z}); evaluated directly as
    sum over supported cells of p(y,x,z) log[ p(y,x,z) p(z) / (p(y,z) p(x,z)) ].
    """
    probs = joint.probs if isinstance(joint, DiscreteJoint) else check_pmf(joint, 3, name="joint")
    p_z = probs.sum(axis=(0, 1))
    p_yz = probs.sum(axis=1)
    p_xz = probs.sum(axis=0)
    mask = probs > 0
    num = probs * p_z[None, None, :]
    den = p_yz[:, None, :] * p_xz[None, :, :]
    return float(np.sum(probs[mask] * np.log(num[mask] / den[mask])))


def conditional_dependence_l1(joint: DiscreteJoint | np.ndarray) -> float:
    """L1 defect of conditional independence of a three-way joint.

    Returns sum over cells of |p(y,x,z) - p(x,z) p(y,z) / p(z)|, skipping z
    with p(z) = 0.  Zero iff Y and X are conditionally independent given Z;
    this is the population analogue of the sample partition statistic.
    """
    probs = joint.probs if isinstance(joint, DiscreteJoint) else check_pmf(joint, 3, name="joint")
    p_z = probs.sum(axis=(0, 1))
    p_yz = probs.sum(axis=1)
    p_xz = probs.sum(axis=0)
    pos = p_z > 0
    q = np.zeros_like(probs)
    q[:, :, pos] = p_yz[:, None, pos] * p_xz[None, :, pos] / p_z[None, None, pos]
    return float(np.abs(probs[:, :, pos] - q[:, :, pos]).sum())


def bayes_risk(joint2, loss: LossMatrix) -> float:
    """Minimum expected loss for predicting Y from an observation.

    ``joint2[y, obs]`` is the joint pmf of (Y, observation); the optimal rule
    picks, for each observation, the label minimizing the posterior expected
    loss.  Equals sum_obs min_y' sum_y joint2[y, obs] cost[y, y'].
    """
    j = check_pmf(joint2, 2, name="joint2")
    if j.shape[0] != loss.n_labels:
        raise ValueError(
            f"alphabet mismatch: joint has {j.shape[0]} labels, loss has {loss.n_labels}"
        )
    # posterior_cost[y_pred, obs] = sum_y P(y, obs) * cost[y, y_pred]
    posterior_cost = loss.cost.T @ j
    return float(posterior_cost.min(axis=0).sum())


def _check_consistent(joint: DiscreteJoint, tmap: DeterministicMap) -> None:
    ny, nx, nz = joint.shape
    if tmap.n_x != nx or tmap.n_z != nz:
        raise ValueError(
            f"map shape ({tmap.n_x} -> {tmap.n_z}) does not match joint axes ({nx}, {nz})"
        )
    allowed = tmap.table[None, :, None] == np.arange(nz)[None, None, :]
    off_graph = joint.probs * (~allowed)
    if np.any(off_graph > 0):
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
    risk_x = bayes_risk(joint.p_yx, loss)
    risk_z = bayes_risk(joint.p_yz, loss)
    return risk_z - risk_x
