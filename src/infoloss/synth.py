"""Seeded synthetic generators for tests and experiments.

All randomness flows through numpy's Philox counter-based generator keyed by
a 64-bit seed, so every generated artifact is reproducible bit-for-bit from
(seed, parameters) alone, independent of platform or worker scheduling.

The continuous scenarios share one structure: a latent atom J uniform on
{0, ..., k-1} determines Z = z_J = J/k (the atom value) and an interval
[z_J, z_J + w] from which the informative coordinate X1 is drawn; X2 is an
independent uniform nuisance coordinate, and

    Y = z_J (+ theta * X2) + noise

with the theta term only in the alternative (dependence through X2; the
null has Y indep of X given Z) and noise uniform on [-noise_scale,
+noise_scale].  The transformation T(x) = atom of the interval containing
x1 reproduces Z exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import DeterministicMap, DiscreteJoint, LossMatrix, _count, _real, apply_map
from .partition import _CHUNK_ROWS, Dataset
from .portfolio import MarketModel


def philox(seed: int) -> np.random.Generator:
    """The package-wide counter-based generator, keyed by a 64-bit seed."""
    seed = _count(seed, "seed", minimum=None)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class H0Config:
    """Null-scenario parameters: Y independent of X given the atom Z.

    Atoms sit at z_j = j/k, which is also Y's level on atom j, and carry
    intervals [z_j, z_j + w]; w < 1/k keeps the intervals separated by gaps
    so the atom is recoverable from x1.
    """

    n: int
    seed: int
    k: int = 4
    interval_width: float = 0.2
    noise_scale: float = 0.1

    def __post_init__(self) -> None:
        for name in ("n", "k"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if not 0.0 < _real(self.interval_width, "interval_width") < 1.0 / self.k:
            raise ValueError(
                f"interval_width must be in (0, 1/k) = (0, {1.0 / self.k}), "
                f"got {self.interval_width}"
            )
        _real(self.noise_scale, "noise_scale", minimum=0)

    @property
    def atoms(self) -> np.ndarray:
        return np.arange(self.k) / self.k


@dataclass(frozen=True)
class H1Config(H0Config):
    """Alternative-scenario parameters; theta scales the Y-X2 dependence."""

    theta: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_theta(self.theta)


def _check_theta(theta) -> None:
    """H1Config's rule for theta, also applied to an h1 ``ExperimentPlan``."""
    value = _real(theta, "theta")
    if not math.isfinite(value) or value == 0:
        raise ValueError(f"theta must be finite and nonzero (0 is the null), got {theta}")


def _draw(cfg: H0Config, theta: float | None) -> Dataset:
    """Null (``theta`` None) or alternative sample, built in place.

    Draws come in the order J, X1, X2, noise, straight into the columns x1,
    x2, y, z of one fresh column-major (n, 4) block, and the in-place
    arithmetic keeps the formulas' operand order, so values are
    bit-identical to the fresh-array expressions x1 = z_J + w U and
    y = z_J (+ theta X2) + noise.
    J and the theta X2 term go through _CHUNK_ROWS rows at a time, so no
    temporary grows with n; the generator continues one stream across
    calls, so drawing J by chunks gives the same values as one call.
    """
    rng = philox(cfg.seed)
    blk = np.empty((cfg.n, 4), order="F")
    x1, x2, y, zj = blk[:, 0], blk[:, 1], blk[:, 2], blk[:, 3]
    chunks = [slice(lo, lo + _CHUNK_ROWS) for lo in range(0, cfg.n, _CHUNK_ROWS)]
    for rows in chunks:
        # J lies in [0, k), so "clip" never clips; unlike "raise" it writes
        # straight into zj instead of through a buffered copy.
        atoms = zj[rows]
        np.take(cfg.atoms, rng.integers(0, cfg.k, size=atoms.size), out=atoms, mode="clip")
    rng.random(out=x1)
    rng.random(out=x2)
    rng.random(out=y)
    x1 *= cfg.interval_width
    x1 += zj
    y *= 2.0
    y -= 1.0
    y *= cfg.noise_scale  # the noise term
    if theta is not None:
        buf = np.empty(min(cfg.n, _CHUNK_ROWS))
        for rows in chunks:
            level = np.multiply(x2[rows], theta, out=buf[: zj[rows].size])
            level += zj[rows]
            y[rows] += level
    else:
        y += zj
    # Finite parameters keep x and z inside [0, 1]; only y can overflow.
    if not np.isfinite(y).all():
        raise ValueError("y: non-finite values")
    return Dataset._owned(blk[:, :2], y, blk[:, 3:])


def gen_h0(cfg: H0Config) -> Dataset:
    """Sample the null scenario: d = 2, d' = 1, Y indep of X given Z."""
    return _draw(cfg, None)


def gen_h1(cfg: H1Config) -> Dataset:
    """Sample the alternative: Y leans on X2, which T(x) = atom(x1) discards."""
    return _draw(cfg, cfg.theta)


def _surjective_map(rng: np.random.Generator, nx: int, nz: int) -> DeterministicMap:
    """Random map onto all nz symbols: a permutation picks one preimage per z."""
    if nx < nz:
        raise ValueError(f"need nx >= nz for a surjective map, got {(nx, nz)}")
    perm = rng.permutation(nx)
    table = np.empty(nx, dtype=np.int64)
    table[perm[:nz]] = np.arange(nz)
    table[perm[nz:]] = rng.integers(0, nz, size=nx - nz)
    return DeterministicMap(table=table, n_z=nz)


def gen_random_joint(
    shape: tuple[int, int, int], seed: int
) -> tuple[DiscreteJoint, DeterministicMap]:
    """Random (Y, X) joint lifted through a random surjective map Z = T(X)."""
    ny, nx, nz = shape
    ny, nx, nz = _count(ny, "ny"), _count(nx, "nx"), _count(nz, "nz")
    rng = philox(seed)
    tmap = _surjective_map(rng, nx, nz)
    joint2 = rng.random((ny, nx))
    joint2 /= joint2.sum()
    return apply_map(joint2, tmap), tmap


def gen_random_loss(size: int, sup: float, seed: int) -> LossMatrix:
    """Random nonnegative loss matrix with sup norm at most ``sup``."""
    sup = _real(sup, "sup", minimum=0)
    size = _count(size, "size")
    rng = philox(seed)
    return LossMatrix(sup * rng.random((size, size)))


def gen_market(d_a: int, outcomes: int, seed: int) -> MarketModel:
    """Random market with bounded log-returns and coarsened side information.

    Return entries are exp(U(-0.3, 0.3)), so |log R| <= 0.3 holds by
    construction; the (R, X) joint is random over 4 side-information symbols
    and Z = T(X) for a random surjective map onto 2.
    """
    d_a, outcomes = _count(d_a, "d_a"), _count(outcomes, "outcomes")
    rng = philox(seed)
    returns = np.exp(rng.uniform(-0.3, 0.3, size=(outcomes, d_a)))
    joint, tmap = gen_random_joint((outcomes, 4, 2), seed + 1)
    return MarketModel(returns=returns, joint=joint, tmap=tmap)
