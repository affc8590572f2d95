"""Partition-based conditional independence test on continuous data.

Given an i.i.d. sample of (X, Y, Z) with X in R^d, Y real, and Z in R^d',
the test bins the raw columns through each coordinate's min-max map onto
[0, 1] (no scaled copy is made), partitions each unit cube into cubes of
common side h, and compares the empirical cell masses of the joint against
the product predicted by conditional independence of Y and X given Z:

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

from .discrete import _count, _Frozen, _read_only, _real

# Smallest admissible multiplier for the sampling terms of the threshold.
C1_MIN = math.sqrt(2.0 * math.log(2.0))

_MAX_TOTAL_CELLS = 2**62  # flat cell ids must fit in int64
_CHUNK_ROWS = 1 << 16  # rows binned per pass, so its buffers stay cache-sized


@dataclass(frozen=True)
class Dataset(_Frozen):
    """Sample of n rows (x_i, y_i, z_i), x in R^d, y real, z in R^d'.

    The arrays are read-only float64 copies of the inputs.  x and z are
    stored column-major, so each coordinate is one contiguous column: the
    layout that the generators write and ``build_histogram`` reads.  A 1-D
    x or z is one coordinate; a 2-D one has a row per sample.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        x, y, z = (np.asarray(a, dtype=np.float64) for a in (self.x, self.y, self.z))
        for name, arr in (("x", x), ("z", z)):
            if arr.ndim not in (1, 2):
                raise ValueError(f"{name}: expected a 1-D or 2-D array, got shape {arr.shape}")
        x, z = (a[:, None] if a.ndim == 1 else a for a in (x, z))
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
            object.__setattr__(self, name, _read_only(arr.copy(order="F")))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def d_prime(self) -> int:
        return self.z.shape[1]

    @classmethod
    def _owned(cls, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> Dataset:
        """Wrap float64 arrays without re-validating or copying them.

        Callers pass arrays taken from a validated ``Dataset`` (``select``'s
        probe), or the generators' column-major draws (``gen_h0``/``gen_h1``).
        Either way the shapes agree and every value is finite: a generator's
        x and z are affine images of uniforms with finite, checked
        parameters, so they lie in [0, 1], and it checks the one column that
        can overflow, y, itself.  The arrays are made read-only in place.
        """
        data = object.__new__(cls)
        data.__setstate__({"x": x, "y": y, "z": z})
        return data


def _coordinates(data: Dataset) -> list[tuple[str, np.ndarray]]:
    """Every coordinate as a (name, column) pair, ordered x1..xd, y, z1..zd'."""
    return (
        [(f"x{j + 1}", data.x[:, j]) for j in range(data.d)]
        + [("y", data.y)]
        + [(f"z{j + 1}", data.z[:, j]) for j in range(data.d_prime)]
    )


def scale_unit(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Min-max map of every coordinate of the sample onto [0, 1].

    Returns ``(lo, span)``, one entry per coordinate ordered x, y, z: the
    coordinate's minimum and its max - min.  ``build_histogram`` maps a
    value c to (c - lo) / span, and a constant coordinate (span 0) to 0.5.
    """
    lo, span = np.empty((2, data.d + 1 + data.d_prime))
    for j, (name, col) in enumerate(_coordinates(data)):
        lo[j], hi = col.min(), col.max()
        span[j] = float(hi) - float(lo[j])
        if math.isinf(span[j]):
            raise ValueError(f"{name}: max - min = {hi!r} - {lo[j]!r} overflows float64")
    return lo, span


def h_schedule(n: int, d: int, d_prime: int, delta: float) -> float:
    """Bandwidth h = n^(-delta) for an admissible exponent.

    Admissibility requires 0 < delta < 1/(d + 1 + d'), which keeps the total
    cell count m m' m'' = o(n) while h -> 0.
    """
    n, d, d_prime = _count(n, "n"), _count(d, "d"), _count(d_prime, "d_prime", minimum=0)
    limit = 1.0 / (d + 1 + d_prime)
    if not 0.0 < _real(delta, "delta") < limit:
        raise ValueError(
            f"delta={delta} is not admissible for dimensions ({d}, 1, {d_prime}); "
            f"need 0 < delta < {limit}"
        )
    return min(1.0, float(n) ** (-delta))


def _check_h(h) -> float:
    """The cell side h as a float in (0, 1], the range every partition needs."""
    value = _real(h, "h")
    if not 0.0 < value <= 1.0:
        raise ValueError(f"h must be in (0, 1], got {h}")
    return value


@dataclass(frozen=True)
class CubicPartition:
    """Cubic partitions of the X, Y, Z unit cubes with common side h."""

    h: float
    d: int
    d_prime: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _count(self.d, "d"))
        object.__setattr__(self, "d_prime", _count(self.d_prime, "d_prime", minimum=0))
        _check_h(self.h)
        if (
            not math.isfinite(1.0 / self.h)
            or self.bins_per_axis ** (self.d + 1 + self.d_prime) > _MAX_TOTAL_CELLS
        ):
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
    """Bin a sample into the cubic partition through its min-max map.

    With (lo, span) = ``scale_unit(data)``, coordinate j maps to
    u = (c - lo[j]) / span[j], or to 0.5 when span[j] is 0, and u = 1 falls
    into the last bin along its axis.  lo is the column minimum and
    span = fl(max - lo), so monotone rounding keeps every u in [0, 1].

    _CHUNK_ROWS rows at a time, each cell index floor(u / h) is added into
    one mixed-radix key over x..., y, z....  For u <= 1, fl(u / h) <=
    fl(1 / h), so an index reaches ``bins_per_axis`` only when 1 / h rounds
    to that integer; only then is it clamped to the last bin.  A grid with
    no more cells than the sample has rows counts each chunk's keys, in int32
    while the grid has fewer than 2^31 cells; finer grids keep every row's
    int64 key and count them by sorting.  Either way the occupied triples
    come out in ascending key order.  Each of the (A, C), (B, C) and C
    marginals is one weighted count over them, by cell id when the marginal
    has at most n cells and by the rank of its occupied ids otherwise.
    """
    if data.d != part.d or data.d_prime != part.d_prime:
        raise ValueError(
            f"dimension mismatch: data is ({data.d}, 1, {data.d_prime}), "
            f"partition is ({part.d}, 1, {part.d_prime})"
        )
    lo, span = scale_unit(data)
    bins = part.bins_per_axis
    clamp = 1.0 / part.h >= bins
    shape = (part.m, bins, part.m_dprime)
    cells = math.prod(shape)
    dense = cells <= data.n
    ints = np.int32 if dense and cells < 2**31 else np.int64
    step = min(_CHUNK_ROWS, data.n)
    unit, index = np.empty(step), np.empty(step, dtype=ints)
    key = np.empty(step if dense else data.n, dtype=ints)
    grid = np.zeros(cells if dense else 0, dtype=np.int64)
    columns = [col for _, col in _coordinates(data)]
    for start in range(0, data.n, step):
        stop = min(start + step, data.n)
        k = key[: stop - start] if dense else key[start:stop]
        u, i = unit[: stop - start], index[: stop - start]
        for j, (col, c_lo, c_span) in enumerate(zip(columns, lo, span, strict=True)):
            if c_span == 0.0:
                u.fill(0.5)
            else:
                np.subtract(col[start:stop], c_lo, out=u)
                np.divide(u, c_span, out=u)
            # The first index goes straight into the key.  u / h >= 0 here,
            # so the cast's truncation toward zero is floor.
            out = i if j else k
            np.divide(u, part.h, out=out, casting="unsafe")
            if clamp:
                np.minimum(out, bins - 1, out=out)
            if j:
                k *= bins
                k += i
        if dense:
            np.add.at(grid, k, 1)

    if dense:
        ids = np.flatnonzero(grid)
        counts = grid[ids]
    else:
        ids, counts = np.unique(key, return_counts=True)
    a_ids, b_ids, c_ids = np.unravel_index(ids, shape)
    n_c = part.m_dprime
    marginals = []
    for cell_key, n_cells in ((a_ids * n_c + c_ids, part.m * n_c),
                              (b_ids * n_c + c_ids, bins * n_c), (c_ids, n_c)):
        if n_cells > data.n:
            _, cell_key = np.unique(cell_key, return_inverse=True)
        marginals.append(np.bincount(cell_key, weights=counts)[cell_key].astype(np.int64))
    return JointHistogram(data.n, part, a_ids, b_ids, c_ids, counts, *marginals)


# Supremum of L_n: every occupied triple has q > 0, so L_n < L_MAX on any
# sample, and a test whose threshold is at least L_MAX cannot reject.
L_MAX = 2.0


def l_statistic(hist: JointHistogram) -> float:
    """L1 conditional-independence statistic of a binned sample.

    Equal to the full-sum definition over all cell triples: for each triple
    the product term P_n(A,C) P_n(B,C) / P_n(C) sums to 1 over the occupied
    C-cells, so the unoccupied triples contribute 1 - sum_occupied(q) and

        L_n = 1 + sum_occupied( |p - q| - q ).

    Always in [0, L_MAX).
    """
    n = float(hist.n)
    p = hist.counts / n
    q = hist.ac_counts * (hist.bc_counts / (hist.c_counts * n))
    return float(1.0 + np.sum(np.abs(p - q) - q))


def threshold(n: int, m: int, m_prime: int, m_dprime: int, h: float, c1: float) -> float:
    """Deterministic rejection threshold t_n for the partition statistic."""
    n, m, m_prime, m_dprime = (
        _count(n, "n"), _count(m, "m"), _count(m_prime, "m_prime"), _count(m_dprime, "m_dprime")
    )
    c1, h = _real(c1, "c1", minimum=0), _check_h(h)
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
    c1, m_dprime = _real(c1, "c1", minimum=0), _count(m_dprime, "m_dprime")
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
        if not (C1_MIN < _real(self.c1, "c1") < math.inf):
            raise ValueError(
                f"c1 must be finite and exceed sqrt(2 log 2) = {C1_MIN:.6f}, got {self.c1}"
            )
        if self.h is None and self.delta is None:
            raise ValueError("either h or delta must be given")
        if self.delta is not None and not math.isfinite(_real(self.delta, "delta")):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.h is not None:
            _check_h(self.h)

    def bandwidth(self, n: int, d: int, d_prime: int) -> float:
        if self.h is not None:
            return self.h
        assert self.delta is not None
        return h_schedule(n, d, d_prime, self.delta)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one run of the conditional independence test.

    ``vacuous`` marks a threshold t_n >= L_MAX: the test accepts whatever
    the sample, so its acceptance is no evidence of independence.
    ``type1_trivial`` marks a ``type1_bound`` >= 1, which bounds nothing.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    L_n: float
    t_n: float
    m: int
    m_prime: int
    m_dprime: int
    h: float
    reject: bool
    vacuous: bool
    type1_bound: float
    type1_trivial: bool

    def to_dict(self) -> dict:
        return asdict(self)


def run_test(data: Dataset, cfg: TestConfig = TestConfig()) -> TestOutcome:
    """Scale, bin, and test a sample; rejects (dependence found) iff L_n >= t_n."""
    h = cfg.bandwidth(data.n, data.d, data.d_prime)
    part = CubicPartition(h=h, d=data.d, d_prime=data.d_prime)
    hist = build_histogram(data, part)
    l_n = l_statistic(hist)
    t_n = threshold(data.n, part.m, part.m_prime, part.m_dprime, h, cfg.c1)
    bound = type1_bound(cfg.c1, part.m_dprime)
    return TestOutcome(
        L_n=l_n,
        t_n=t_n,
        m=part.m,
        m_prime=part.m_prime,
        m_dprime=part.m_dprime,
        h=float(h),
        reject=bool(l_n >= t_n),
        vacuous=t_n >= L_MAX,
        type1_bound=bound,
        type1_trivial=bound >= 1.0,
    )
