"""Seeded synthetic generators for tests and experiments.

All randomness flows through numpy's Philox counter-based generator keyed by
a 64-bit seed, so every generated artifact is reproducible bit-for-bit from
(seed, parameters) alone, independent of platform or worker scheduling.

The continuous scenarios share one structure: a latent atom J uniform on
{0, ..., k-1} determines Z = z_J (the atom value) and an interval
[z_J, z_J + w] from which the informative coordinate X1 is drawn; X2 is an
independent uniform nuisance coordinate, and

    null        Y = g(z_J) + noise                 (Y indep of X given Z)
    alternative Y = g(z_J) + theta * X2 + noise    (dependence through X2)

with noise uniform on [-noise_scale, +noise_scale].  The transformation
T(x) = atom of the interval containing x1 reproduces Z exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import DeterministicMap, DiscreteJoint, LossMatrix, apply_map
from .partition import Dataset
from .portfolio import MarketModel

__all__ = [
    "H0Config",
    "H1Config",
    "gen_atomic_dataset",
    "gen_h0",
    "gen_h1",
    "gen_market",
    "gen_markov_joint",
    "gen_random_joint",
    "gen_random_loss",
    "philox",
    "population_joint",
    "true_transform",
]


def philox(seed: int) -> np.random.Generator:
    """The package-wide counter-based generator, keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class H0Config:
    """Null-scenario parameters: Y independent of X given the atom Z.

    Atoms sit at z_j = j/k and carry intervals [z_j, z_j + w]; w < 1/k keeps
    the intervals separated by gaps so the atom is recoverable from x1.
    """

    n: int
    seed: int
    k: int = 4
    interval_width: float = 0.2
    noise_scale: float = 0.1
    regression_values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.interval_width < 1.0 / self.k:
            raise ValueError(
                f"interval_width must be in (0, 1/k) = (0, {1.0 / self.k}), "
                f"got {self.interval_width}"
            )
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.regression_values is not None and len(self.regression_values) != self.k:
            raise ValueError(
                f"regression_values needs {self.k} entries, got {len(self.regression_values)}"
            )

    @property
    def atoms(self) -> np.ndarray:
        return np.arange(self.k) / self.k

    @property
    def g(self) -> np.ndarray:
        if self.regression_values is not None:
            return np.asarray(self.regression_values, dtype=np.float64)
        return np.arange(self.k) / self.k


@dataclass(frozen=True)
class H1Config(H0Config):
    """Alternative-scenario parameters; theta scales the Y-X2 dependence."""

    theta: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.theta == 0:
            raise ValueError("theta = 0 would reproduce the null scenario")


def _draw_common(cfg: H0Config, rng: np.random.Generator):
    j = rng.integers(0, cfg.k, size=cfg.n)
    x1 = cfg.atoms[j] + cfg.interval_width * rng.random(cfg.n)
    x2 = rng.random(cfg.n)
    noise = cfg.noise_scale * (2.0 * rng.random(cfg.n) - 1.0)
    return j, x1, x2, noise


def gen_h0(cfg: H0Config) -> Dataset:
    """Sample the null scenario: d = 2, d' = 1, Y indep of X given Z."""
    rng = philox(cfg.seed)
    j, x1, x2, noise = _draw_common(cfg, rng)
    y = cfg.g[j] + noise
    return Dataset(x=np.stack([x1, x2], axis=1), y=y, z=cfg.atoms[j][:, None])


def gen_h1(cfg: H1Config) -> Dataset:
    """Sample the alternative: Y leans on X2, which T(x) = atom(x1) discards."""
    rng = philox(cfg.seed)
    j, x1, x2, noise = _draw_common(cfg, rng)
    y = cfg.g[j] + cfg.theta * x2 + noise
    return Dataset(x=np.stack([x1, x2], axis=1), y=y, z=cfg.atoms[j][:, None])


def true_transform(cfg: H0Config, x: np.ndarray) -> np.ndarray:
    """Atom values of the intervals containing x1; the generating T."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    j = np.clip(np.floor(x[:, 0] * cfg.k), 0, cfg.k - 1).astype(np.int64)
    lo = cfg.atoms[j]
    inside = (x[:, 0] >= lo) & (x[:, 0] <= lo + cfg.interval_width)
    if not np.all(inside):
        bad = int(np.flatnonzero(~inside)[0])
        raise ValueError(f"x1={x[bad, 0]!r} falls outside every atom interval")
    return cfg.atoms[j][:, None]


def _uniform_sum_cdf(t: float, lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """CDF at t of U(lo1, hi1) + U(lo2, hi2); degenerate intervals allowed."""
    len1, len2 = hi1 - lo1, hi2 - lo2
    if len1 > len2:
        len1, len2 = len2, len1
    s = t - lo1 - lo2
    total = len1 + len2
    if s <= 0:
        return 0.0
    if s >= total:
        return 1.0
    if len2 == 0:  # both degenerate: step function, s > 0 already
        return 1.0
    if len1 == 0:  # single uniform
        return min(s / len2, 1.0)
    if s <= len1:
        return s * s / (2.0 * len1 * len2)
    if s <= len2:
        return (2.0 * s - len1) / (2.0 * len2)
    return 1.0 - (total - s) ** 2 / (2.0 * len1 * len2)


def population_joint(
    cfg: H0Config, y_cells: int = 20, x2_cells: int = 10
) -> DiscreteJoint:
    """Exact discretized law of (Y, X2, Z) under the generator.

    Y is partitioned into ``y_cells`` equal cells spanning its support, X2
    into ``x2_cells`` cells of [0, 1]; Z keeps its k atoms.  X1 is dropped:
    given Z it is independent of everything else, so it contributes nothing
    to the Y-X dependence structure.  Under the null the result factorizes
    conditionally on Z exactly; under the alternative its conditional
    dependence defect is positive and grows with |theta|.
    """
    theta = getattr(cfg, "theta", 0.0)
    g = cfg.g
    s = cfg.noise_scale
    y_lo = float(g.min()) + min(0.0, theta) - s
    y_hi = float(g.max()) + max(0.0, theta) + s
    if y_hi == y_lo:  # fully degenerate Y
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_edges = np.linspace(y_lo, y_hi, y_cells + 1)
    x2_w = 1.0 / x2_cells
    probs = np.empty((y_cells, x2_cells, cfg.k))
    for j in range(cfg.k):
        for c in range(x2_cells):
            lo1, hi1 = theta * c * x2_w, theta * (c + 1) * x2_w
            if theta < 0:
                lo1, hi1 = hi1, lo1
            cdf = np.array(
                [
                    _uniform_sum_cdf(edge - g[j], lo1, hi1, -s, s)
                    for edge in y_edges
                ]
            )
            mass = np.maximum(np.diff(cdf), 0.0)
            probs[:, c, j] = mass / (cfg.k * x2_cells)
    return DiscreteJoint(probs)


def _surjective_map(rng: np.random.Generator, nx: int, nz: int) -> DeterministicMap:
    """Random map onto all nz symbols: a permutation picks one preimage per z."""
    if nx < nz:
        raise ValueError(f"need nx >= nz for a surjective map, got {(nx, nz)}")
    perm = rng.permutation(nx)
    table = np.empty(nx, dtype=np.int64)
    table[perm[:nz]] = np.arange(nz)
    table[perm[nz:]] = rng.integers(0, nz, size=nx - nz)
    return DeterministicMap(table=table, n_z=nz)


def gen_markov_joint(
    shape: tuple[int, int, int], seed: int
) -> tuple[DiscreteJoint, DeterministicMap]:
    """Random joint that factorizes conditionally on Z, with Z = T(X).

    Draws P(z), P(y|z), and P(x|z) with the x-conditionals supported inside
    the preimage of z under a random surjective map, so the joint is both
    map-consistent and conditionally independent by construction.
    """
    ny, nx, nz = shape
    rng = philox(seed)
    tmap = _surjective_map(rng, nx, nz)

    p_z = rng.random(nz) + 0.05
    p_z /= p_z.sum()
    p_y_given_z = rng.random((ny, nz)) + 0.05
    p_y_given_z /= p_y_given_z.sum(axis=0, keepdims=True)
    weights = rng.random(nx) + 0.05
    p_x_given_z = weights[:, None] * (tmap.table[:, None] == np.arange(nz)[None, :])
    p_x_given_z /= p_x_given_z.sum(axis=0, keepdims=True)

    probs = p_y_given_z[:, None, :] * p_x_given_z[None, :, :] * p_z[None, None, :]
    return DiscreteJoint(probs), tmap


def gen_random_joint(
    shape: tuple[int, int, int], seed: int
) -> tuple[DiscreteJoint, DeterministicMap]:
    """Random (Y, X) joint lifted through a random surjective map Z = T(X)."""
    ny, nx, nz = shape
    rng = philox(seed)
    tmap = _surjective_map(rng, nx, nz)
    joint2 = rng.random((ny, nx))
    joint2 /= joint2.sum()
    return apply_map(joint2, tmap), tmap


def gen_random_loss(size: int, sup: float, seed: int) -> LossMatrix:
    """Random nonnegative loss matrix with sup norm at most ``sup``."""
    if sup < 0:
        raise ValueError(f"sup must be >= 0, got {sup}")
    rng = philox(seed)
    return LossMatrix(sup * rng.random((size, size)))


def gen_market(
    d_a: int,
    outcomes: int,
    seed: int,
    *,
    x_size: int = 4,
    z_size: int = 2,
    c_max: float = 0.3,
) -> MarketModel:
    """Random market with bounded log-returns and coarsened side information.

    Return entries are exp(U(-c_max, c_max)), so |log R| <= c_max holds by
    construction; the (R, X) joint is random and Z = T(X) for a random
    surjective map.
    """
    if d_a < 1 or outcomes < 1:
        raise ValueError(f"need d_a >= 1 and outcomes >= 1, got ({d_a}, {outcomes})")
    if c_max <= 0:
        raise ValueError(f"c_max must be > 0, got {c_max}")
    rng = philox(seed)
    returns = np.exp(rng.uniform(-c_max, c_max, size=(outcomes, d_a)))
    joint, tmap = gen_random_joint((outcomes, x_size, z_size), seed + 1)
    return MarketModel(returns=returns, joint=joint, tmap=tmap)


def gen_atomic_dataset(
    joint: DiscreteJoint,
    y_atoms,
    x_atoms,
    z_atoms,
    n: int,
    seed: int,
) -> Dataset:
    """Sample a continuous-looking dataset from an atomic (Y, X, Z) law.

    Indices are drawn i.i.d. from the joint and embedded at the given real
    atom positions (d = d' = 1).
    """
    y_pos = np.asarray(y_atoms, dtype=np.float64)
    x_pos = np.asarray(x_atoms, dtype=np.float64)
    z_pos = np.asarray(z_atoms, dtype=np.float64)
    ny, nx, nz = joint.shape
    if y_pos.size != ny or x_pos.size != nx or z_pos.size != nz:
        raise ValueError(
            f"atom position counts {(y_pos.size, x_pos.size, z_pos.size)} "
            f"do not match joint shape {joint.shape}"
        )
    rng = philox(seed)
    flat = rng.choice(joint.probs.size, size=n, p=joint.probs.ravel())
    y_i, x_i, z_i = np.unravel_index(flat, joint.shape)
    return Dataset(x=x_pos[x_i][:, None], y=y_pos[y_i], z=z_pos[z_i][:, None])
