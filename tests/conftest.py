import numpy as np
import pytest

from infoloss import DiscreteJoint, LossMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(42)


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
