"""Fixtures, and the oracles and generators that only the tests use."""

from pathlib import Path

import numpy as np
import pytest

from infoloss import (
    Dataset,
    DeterministicMap,
    DiscreteJoint,
    LossMatrix,
    dataset_to_csv,
    philox,
)
from infoloss.partition import TestOutcome
from infoloss.synth import H0Config, _surjective_map


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def write_dataset_csv(data: Dataset, path) -> None:
    """Write ``data`` to ``path`` in the CLI's sample CSV format."""
    Path(path).write_text(dataset_to_csv(data))


def always_reject(data, cfg):
    """Stand-in for ``run_test`` that rejects every subset it is given."""
    return TestOutcome(L_n=1.0, t_n=0.5, m=1, m_prime=1, m_dprime=1, h=1.0,
                       reject=True, type1_bound=1.0)


def random_pmf(rng, size):
    p = rng.random(size) + 0.01
    return p / p.sum()


def random_joint2(rng, ny, nx):
    j = rng.random((ny, nx)) + 0.01
    return j / j.sum()


def brute_force_bayes_risk(joint2, loss: LossMatrix) -> float:
    """Independent oracle: minimize over every deterministic decision rule."""
    import itertools

    joint2 = np.asarray(joint2)
    ny, nobs = joint2.shape
    best = np.inf
    for rule in itertools.product(range(ny), repeat=nobs):
        risk = sum(
            joint2[y, o] * loss.cost[y, rule[o]]
            for y in range(ny)
            for o in range(nobs)
        )
        best = min(best, risk)
    return float(best)


def grid_growth_oracle(pmf, returns, step: float = 1e-3):
    """Exhaustive simplex-grid maximization of E[log <b, R>] (d_a <= 3).

    Independent check for the iterative solver: evaluates the objective on
    every grid point with coordinates in multiples of ``step`` and returns
    the best (b, w).
    """
    p = np.asarray(pmf, dtype=np.float64)
    r = np.asarray(returns, dtype=np.float64)
    keep = p > 0
    pk, rk = p[keep], r[keep]
    d = r.shape[1]
    if d == 1:
        return np.ones(1), float(pk @ np.log(rk[:, 0]))
    m = round(1.0 / step)
    if d == 2:
        t = np.arange(m + 1) / m
        grid = np.stack([t, 1.0 - t], axis=1)
    elif d == 3:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        mask = i + j <= m
        i, j = i[mask], j[mask]
        grid = np.stack([i / m, j / m, (m - i - j) / m], axis=1)
    else:
        raise ValueError(f"grid oracle supports d_a <= 3, got {d}")
    obj = np.log(grid @ rk.T) @ pk
    k = int(obj.argmax())
    return grid[k], float(obj[k])


def dense_l_statistic(data, part) -> float:
    """Independent oracle: full dense sum over every (A, B, C) cell triple."""
    from collections import Counter

    bins = part.bins_per_axis
    h = part.h
    cols = data.columns()
    idx = np.minimum(np.floor(cols / h).astype(int), bins - 1)
    d, dp = data.d, data.d_prime
    triples = Counter()
    ac = Counter()
    bc = Counter()
    c_marg = Counter()
    for row in idx:
        a = tuple(row[:d])
        b = int(row[d])
        c = tuple(row[d + 1 :])
        triples[(a, b, c)] += 1
        ac[(a, c)] += 1
        bc[(b, c)] += 1
        c_marg[c] += 1
    n = data.n
    import itertools

    total = 0.0
    for c in itertools.product(range(bins), repeat=dp):
        if c_marg[c] == 0:
            continue
        for a in itertools.product(range(bins), repeat=d):
            for b in range(bins):
                p = triples[(a, b, c)] / n
                q = (ac[(a, c)] / n) * (bc[(b, c)] / n) / (c_marg[c] / n)
                total += abs(p - q)
    return total


def conditional_dependence_l1(joint: DiscreteJoint) -> float:
    """L1 defect of conditional independence of a three-way joint.

    Returns sum over cells of |p(y,x,z) - p(x,z) p(y,z) / p(z)|, skipping z
    with p(z) = 0.  Zero iff Y and X are conditionally independent given Z;
    this is the population analogue of the sample partition statistic.
    """
    probs = joint.probs
    p_z = probs.sum(axis=(0, 1))
    p_yz = probs.sum(axis=1)
    p_xz = probs.sum(axis=0)
    pos = p_z > 0
    q = np.zeros_like(probs)
    q[:, :, pos] = p_yz[:, None, pos] * p_xz[None, :, pos] / p_z[None, None, pos]
    return float(np.abs(probs[:, :, pos] - q[:, :, pos]).sum())


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
    """Exact discretized law of (Y, X2, Z) under the h0/h1 generator.

    Y is partitioned into ``y_cells`` equal cells spanning its support, X2
    into ``x2_cells`` cells of [0, 1]; Z keeps its k atoms.  X1 is dropped:
    given Z it is independent of everything else, so it contributes nothing
    to the Y-X dependence structure.  Under the null the result factorizes
    conditionally on Z exactly; under the alternative its conditional
    dependence defect is positive and grows with |theta|.
    """
    theta = getattr(cfg, "theta", 0.0)
    g = cfg.atoms
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
