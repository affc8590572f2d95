"""Partition-based conditional independence test on continuous data.

Given an i.i.d. sample of (X, Y, Z) with X in R^d, Y real, and Z in R^d',
the test scales every coordinate to [0, 1], partitions each of the three
spaces into axis-aligned cubes of common side h, and compares the empirical
cell masses of the joint against the product predicted by conditional
independence of Y and X given Z:

    L_n = sum_{A,B,C} | P_n(A,B,C) - P_n(A,C) P_n(B,C) / P_n(C) |

where A, B, C range over the X, Y, Z cells and empty Z-cells contribute
nothing.  Rejection compares L_n against the deterministic threshold

    t_n = c1 ( sqrt(m m' m'' / n) + sqrt(m' m'' / n)
             + sqrt(m m'' / n)   + sqrt(m'' / n) ) + (log n) h

with m, m', m'' the total cube counts of the three unit hypercubes.  Under
conditional independence the rejection probability is at most
4 exp(-(c1^2/2 - log 2) m'') for samples large enough, provided
c1 > sqrt(2 log 2); under dependence L_n stays bounded away from zero while
t_n -> 0, so the test eventually rejects.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "C1_MIN",
    "CubicPartition",
    "Dataset",
    "JointHistogram",
    "TestConfig",
    "TestOutcome",
    "build_histogram",
    "h_schedule",
    "l_statistic",
    "run_test",
    "scale_unit",
    "threshold",
    "type1_bound",
]

# Smallest admissible multiplier for the sampling terms of the threshold.
C1_MIN = math.sqrt(2.0 * math.log(2.0))

_MAX_TOTAL_CELLS = 2**62  # flat cell ids must fit in int64


@dataclass(frozen=True)
class Dataset:
    """Sample of n rows (x_i, y_i, z_i), x in R^d, y real, z in R^d'.

    The arrays are read-only float64 copies of the inputs.  x and z are
    stored column-major, so each coordinate is one contiguous column: the
    layout that ``scale_unit`` writes and ``build_histogram`` reads.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64)
        if z.ndim == 1:
            z = z[:, None]
        if y.ndim != 1:
            raise ValueError(f"y: expected a 1-D array, got shape {y.shape}")
        n = y.shape[0]
        if n < 1:
            raise ValueError("dataset is empty")
        if x.shape[0] != n or z.shape[0] != n:
            raise ValueError(
                f"row mismatch: x has {x.shape[0]}, y has {n}, z has {z.shape[0]}"
            )
        if x.shape[1] < 1:
            raise ValueError("x must have at least one coordinate")
        for name, arr in (("x", x), ("y", y), ("z", z)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name}: non-finite values")
            arr = arr.copy(order="F")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def d_prime(self) -> int:
        return self.z.shape[1]

    def columns(self) -> np.ndarray:
        """All coordinates as one (n, d + 1 + d') matrix, ordered x, y, z."""
        return np.hstack([self.x, self.y[:, None], self.z])

    @classmethod
    def _owned(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> Dataset:
        """Wrap float64 arrays without re-validating or copying them.

        Callers pass arrays computed from a validated ``Dataset``
        (``scale_unit``'s scaled block, ``select``'s probe), or the
        generators' column-major draws (``gen_h0``/``gen_h1``).  Either way
        the shapes agree and every value is finite: a generator's x and z
        are affine images of uniforms with finite, checked parameters, so
        they lie in [0, 1], and it checks the one column that can overflow,
        y, itself.  The arrays are made read-only in place; when they are
        views of a caller's buffer, the buffer itself stays writable.
        """
        data = object.__new__(cls)
        for name, arr in (("x", x), ("y", y), ("z", z)):
            arr.flags.writeable = False
            object.__setattr__(data, name, arr)
        return data

    @classmethod
    def _split(cls, block: np.ndarray, d: int) -> Dataset:
        """Wrap a column-major (n, d + 1 + d') block as x, y, z views of it."""
        return cls._owned(block[:, :d], block[:, d], block[:, d + 1 :])


def _column_block(n: int, width: int, out: np.ndarray | None) -> np.ndarray:
    """A column-major float64 (n, width) block: fresh, or ``out`` once checked."""
    if out is None:
        return np.empty((n, width), order="F")
    if not isinstance(out, np.ndarray):
        raise TypeError(f"buffer must be a numpy array, got {type(out).__name__}")
    if out.shape != (n, width):
        raise ValueError(f"buffer must have shape {(n, width)}, got {out.shape}")
    if out.dtype != np.float64:
        raise ValueError(f"buffer must have dtype float64, got {out.dtype}")
    if not out.flags.f_contiguous:
        raise ValueError("buffer must be column-major (F-contiguous)")
    if not out.flags.writeable:
        raise ValueError("buffer is read-only")
    return out


def _coordinates(data: Dataset) -> list[tuple[str, np.ndarray]]:
    """Every coordinate as a (name, column) pair, ordered x1..xd, y, z1..zd'."""
    return (
        [(f"x{j + 1}", data.x[:, j]) for j in range(data.d)]
        + [("y", data.y)]
        + [(f"z{j + 1}", data.z[:, j]) for j in range(data.d_prime)]
    )


def scale_unit(data: Dataset, out: np.ndarray | None = None) -> Dataset:
    """Min-max scale every coordinate of the sample onto [0, 1].

    Constant coordinates map to 0.5.  The scaled coordinates are written
    into one column-major (n, d + 1 + d') float64 block, ordered x, y, z:
    a fresh one, or ``out`` when given.  With ``out`` the returned
    ``Dataset`` aliases it and stays valid only until the next write into
    ``out``.  ``out`` may not overlap ``data``.
    """
    block = _column_block(data.n, data.d + 1 + data.d_prime, out)
    if out is not None and any(np.may_share_memory(out, a) for a in (data.x, data.y, data.z)):
        raise ValueError("buffer overlaps the sample it would scale")
    for j, (name, col) in enumerate(_coordinates(data)):
        dest = block[:, j]
        lo, hi = col.min(), col.max()
        span = float(hi) - float(lo)
        if math.isinf(span):
            raise ValueError(f"{name}: max - min = {hi!r} - {lo!r} overflows float64")
        if span == 0.0:
            dest.fill(0.5)
        else:
            np.subtract(col, lo, out=dest)
            np.divide(dest, span, out=dest)
    return Dataset._split(block, data.d)


def h_schedule(n: int, d: int, d_prime: int, delta: float) -> float:
    """Bandwidth h = n^(-delta) for an admissible exponent.

    Admissibility requires 0 < delta < 1/(d + 1 + d'), which keeps the total
    cell count m m' m'' = o(n) while h -> 0.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1 or d_prime < 0:
        raise ValueError(f"invalid dimensions d={d}, d_prime={d_prime}")
    limit = 1.0 / (d + 1 + d_prime)
    if not 0.0 < delta < limit:
        raise ValueError(
            f"delta={delta} is not admissible for dimensions ({d}, 1, {d_prime}); "
            f"need 0 < delta < {limit}"
        )
    return min(1.0, float(n) ** (-delta))


@dataclass(frozen=True)
class CubicPartition:
    """Cubic partitions of the X, Y, Z unit cubes with common side h."""

    h: float
    d: int
    d_prime: int

    def __post_init__(self) -> None:
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"h must be in (0, 1], got {self.h}")
        if self.d < 1 or self.d_prime < 0:
            raise ValueError(f"invalid dimensions d={self.d}, d_prime={self.d_prime}")
        if self.bins_per_axis ** (self.d + 1 + self.d_prime) > _MAX_TOTAL_CELLS:
            raise ValueError("partition too fine: flat cell ids would overflow int64")

    @cached_property
    def bins_per_axis(self) -> int:
        return math.ceil(1.0 / self.h)

    @property
    def m(self) -> int:
        """Total X-cells."""
        return self.bins_per_axis**self.d

    @property
    def m_prime(self) -> int:
        """Total Y-cells."""
        return self.bins_per_axis

    @property
    def m_dprime(self) -> int:
        """Total Z-cells."""
        return self.bins_per_axis**self.d_prime


@dataclass(frozen=True)
class JointHistogram:
    """Sparse occupancy counts of the (A, B, C) cell triples of a sample.

    Only occupied triples are stored.  ``ac/bc/c_counts`` are aligned with
    the triples: entry k is the count of the (A, C), (B, C), or C marginal
    cell containing triple k.
    """

    n: int
    part: CubicPartition
    a_ids: np.ndarray
    b_ids: np.ndarray
    c_ids: np.ndarray
    counts: np.ndarray
    ac_counts: np.ndarray
    bc_counts: np.ndarray
    c_counts: np.ndarray


def build_histogram(data: Dataset, part: CubicPartition) -> JointHistogram:
    """Bin a scaled sample into the cubic partition.

    Every coordinate must already lie in [0, 1]; values exactly at 1 fall
    into the last bin along their axis.  Each coordinate's cell index
    floor(u / h) is added into one mixed-radix key over x..., y, z....  When
    the whole grid has no more cells than the sample has rows, one bincount
    counts it and the marginals are sums of that grid; finer grids are
    counted by sorting the keys.  Either way the occupied triples come out
    in ascending key order.
    """
    if data.d != part.d or data.d_prime != part.d_prime:
        raise ValueError(
            f"dimension mismatch: data is ({data.d}, 1, {data.d_prime}), "
            f"partition is ({part.d}, 1, {part.d_prime})"
        )
    bins = part.bins_per_axis
    key = np.zeros(data.n, dtype=np.int64)
    index = np.empty(data.n, dtype=np.int64)
    for _, col in _coordinates(data):
        if col.min() < 0.0 or col.max() > 1.0:
            raise ValueError("unscaled coordinate outside [0, 1]; call scale_unit first")
        # u / h >= 0 here, so the cast's truncation toward zero is floor.
        np.divide(col, part.h, out=index, casting="unsafe")
        np.minimum(index, bins - 1, out=index)
        key *= bins
        key += index

    shape = (part.m, bins, part.m_dprime)
    if math.prod(shape) <= data.n:
        grid = np.bincount(key, minlength=math.prod(shape))
        ids = np.flatnonzero(grid)
        counts = grid[ids]
        a_ids, b_ids, c_ids = np.unravel_index(ids, shape)
        grid = grid.reshape(shape)
        ac, bc = grid.sum(axis=1), grid.sum(axis=0)
        marginals = [ac[a_ids, c_ids], bc[b_ids, c_ids], bc.sum(axis=0)[c_ids]]
    else:
        ids, counts = np.unique(key, return_counts=True)
        a_ids, b_ids, c_ids = np.unravel_index(ids, shape)
        n_c = part.m_dprime
        marginals = []
        for cell_key in (a_ids * n_c + c_ids, b_ids * n_c + c_ids, c_ids):
            _, inverse = np.unique(cell_key, return_inverse=True)
            marginals.append(np.bincount(inverse, weights=counts)[inverse].astype(np.int64))
    return JointHistogram(data.n, part, a_ids, b_ids, c_ids, counts, *marginals)


def l_statistic(hist: JointHistogram) -> float:
    """L1 conditional-independence statistic of a binned sample.

    Equal to the full-sum definition over all cell triples: for each triple
    the product term P_n(A,C) P_n(B,C) / P_n(C) sums to 1 over the occupied
    C-cells, so the unoccupied triples contribute 1 - sum_occupied(q) and

        L_n = 1 + sum_occupied( |p - q| - q ).

    Always in [0, 2].
    """
    n = float(hist.n)
    p = hist.counts / n
    q = hist.ac_counts * (hist.bc_counts / (hist.c_counts * n))
    return float(1.0 + np.sum(np.abs(p - q) - q))


def threshold(n: int, m: int, m_prime: int, m_dprime: int, h: float, c1: float) -> float:
    """Deterministic rejection threshold t_n for the partition statistic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min(m, m_prime, m_dprime) < 1:
        raise ValueError("cell counts must be >= 1")
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    sampling = (
        math.sqrt(m * m_prime * m_dprime / n)
        + math.sqrt(m_prime * m_dprime / n)
        + math.sqrt(m * m_dprime / n)
        + math.sqrt(m_dprime / n)
    )
    t_n = c1 * sampling + math.log(n) * h
    if not math.isfinite(t_n):
        raise ValueError(f"threshold overflows: t_n = {t_n} for c1={c1}, h={h}, n={n}")
    return t_n


def type1_bound(c1: float, m_dprime: int) -> float:
    """Asymptotic false-rejection bound 4 exp(-(c1^2/2 - log 2) m'')."""
    return 4.0 * math.exp(-(c1 * c1 / 2.0 - math.log(2.0)) * m_dprime)


@dataclass(frozen=True)
class TestConfig:
    """Test parameters: threshold multiplier and bandwidth choice.

    The bandwidth is either explicit (``h``) or scheduled as n^(-delta); an
    explicit h takes precedence.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    c1: float = 1.5
    delta: float | None = 0.2
    h: float | None = None

    def __post_init__(self) -> None:
        if not (C1_MIN < self.c1 < math.inf):
            raise ValueError(
                f"c1 must be finite and exceed sqrt(2 log 2) = {C1_MIN:.6f}, got {self.c1}"
            )
        if self.h is None and self.delta is None:
            raise ValueError("either h or delta must be given")
        if self.h is not None and not 0.0 < self.h <= 1.0:
            raise ValueError(f"h must be in (0, 1], got {self.h}")

    def bandwidth(self, n: int, d: int, d_prime: int) -> float:
        if self.h is not None:
            return self.h
        assert self.delta is not None
        return h_schedule(n, d, d_prime, self.delta)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one run of the conditional independence test."""

    __test__ = False  # keep pytest from collecting this as a test class

    L_n: float
    t_n: float
    m: int
    m_prime: int
    m_dprime: int
    h: float
    reject: bool
    type1_bound: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_test(
    data: Dataset, cfg: TestConfig = TestConfig(), *, scratch: np.ndarray | None = None
) -> TestOutcome:
    """Scale, bin, and test a sample for conditional independence.

    Rejects (dependence found) iff L_n >= t_n.  ``scratch``, when given, is
    the ``out`` block of ``scale_unit``: a reusable column-major float64
    (n, d + 1 + d') buffer that must not overlap ``data``.
    """
    scaled = scale_unit(data, out=scratch)
    h = cfg.bandwidth(data.n, data.d, data.d_prime)
    part = CubicPartition(h=h, d=data.d, d_prime=data.d_prime)
    hist = build_histogram(scaled, part)
    l_n = l_statistic(hist)
    t_n = threshold(data.n, part.m, part.m_prime, part.m_dprime, h, cfg.c1)
    return TestOutcome(
        L_n=l_n,
        t_n=t_n,
        m=part.m,
        m_prime=part.m_prime,
        m_dprime=part.m_dprime,
        h=float(h),
        reject=bool(l_n >= t_n),
        type1_bound=type1_bound(cfg.c1, part.m_dprime),
    )
