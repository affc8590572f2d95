"""Tests for the partition-based conditional independence test."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infoloss import (
    C1_MIN,
    CubicPartition,
    Dataset,
    H0Config,
    H1Config,
    TestConfig,
    build_histogram,
    gen_h0,
    gen_h1,
    h_schedule,
    l_statistic,
    read_dataset_csv,
    run_test,
    scale_unit,
    threshold,
    type1_bound,
)

from infoloss.partition import _CHUNK_ROWS, L_MAX

from conftest import columns, dense_l_statistic, unit_scaled


TOO_FINE = r"^partition too fine: flat cell ids would overflow int64$"


def make_dataset(rng, n, d=1, d_prime=1):
    return Dataset(
        x=rng.random((n, d)),
        y=rng.random(n),
        z=rng.random((n, d_prime)),
    )


def with_constant_column(rng, n):
    x = rng.random((n, 2))
    x[:, 1] = 0.25
    return Dataset(x=x, y=x[:, 0] + rng.random(n), z=rng.random((n, 1)))


def with_two_z(rng, n):
    x = rng.random((n, 2))
    z = np.column_stack([x[:, 0] // 0.25, rng.integers(0, 3, n)])
    return Dataset(x=x, y=x[:, 1] + 0.1 * rng.random(n), z=z)


class TestScaling:
    def test_maps_onto_unit_cube(self, rng):
        data = Dataset(
            x=rng.normal(5.0, 3.0, (200, 2)),
            y=rng.normal(-2.0, 1.0, 200),
            z=rng.normal(0.0, 10.0, (200, 1)),
        )
        lo, span = scale_unit(data)
        cols = columns(data)
        np.testing.assert_array_equal(lo, cols.min(axis=0))
        np.testing.assert_array_equal(span, cols.max(axis=0) - cols.min(axis=0))
        # Each coordinate's minimum maps to 0 and its maximum to 1 exactly.
        np.testing.assert_array_equal((cols.min(axis=0) - lo) / span, 0.0)
        np.testing.assert_array_equal((cols.max(axis=0) - lo) / span, 1.0)
        # Every other value maps inside [0, 1].
        unit = (cols - lo) / span
        assert unit.min() == 0.0 and unit.max() == 1.0

    def test_constant_coordinate_pins_to_half(self):
        data = Dataset(
            x=np.full((10, 1), 3.0),
            y=np.arange(10.0),
            z=np.ones((10, 1)),
        )
        lo, span = scale_unit(data)
        np.testing.assert_array_equal(lo, [3.0, 0.0, 1.0])
        np.testing.assert_array_equal(span, [0.0, 9.0, 0.0])
        # 0.5 lies in cell 2 of 4: every row shares its x and z cell.
        hist = build_histogram(data, CubicPartition(h=0.25, d=1, d_prime=1))
        assert np.all(hist.a_ids == 2) and np.all(hist.c_ids == 2)
        np.testing.assert_array_equal(hist.b_ids, [0, 1, 2, 3])

    def test_affine_invariance_of_statistic(self, rng):
        # Shifting/stretching coordinates leaves the scaled test unchanged.
        data = make_dataset(rng, 500)
        shifted = Dataset(
            x=7.0 * data.x - 3.0,
            y=-2.0 * data.y + 11.0,
            z=0.1 * data.z + 5.0,
        )
        cfg = TestConfig(h=0.25)
        out_a = run_test(data, cfg)
        out_b = run_test(shifted, cfg)
        # Negating y reverses the bin order but |p - q| sums are permutation
        # invariant, so L_n and everything else agree exactly.
        assert out_a.L_n == pytest.approx(out_b.L_n, abs=1e-12)
        assert out_a.t_n == out_b.t_n
        assert out_a.m == out_b.m


    @pytest.mark.parametrize("factor", [8.0, 2.0 ** -10])
    def test_power_of_two_rescaling_keeps_every_array(self, rng, factor):
        # Scaling every value by a power of two scales min and span alike,
        # so each scaled coordinate, and hence each cell, is bit-identical.
        data = make_dataset(rng, 300, d=2)
        scaled = Dataset(x=factor * data.x, y=factor * data.y, z=factor * data.z)
        part = CubicPartition(h=0.2, d=2, d_prime=1)
        want, got = build_histogram(data, part), build_histogram(scaled, part)
        for field in ("a_ids", "b_ids", "c_ids", "counts", "ac_counts", "bc_counts", "c_counts"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)

    def test_x_span_overflow_names_coordinate(self):
        data = Dataset(
            x=np.array([[0.0, -1e308], [1.0, 1e308], [2.0, 0.0]]),
            y=np.arange(3.0),
            z=np.zeros((3, 1)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x2: max - min .* overflows float64"):
                scale_unit(data)

    def test_y_span_overflow_names_coordinate(self):
        data = Dataset(
            x=np.arange(4.0)[:, None],
            y=np.array([-1.7e308, 0.0, 1.0, 1.7e308]),
            z=np.zeros((4, 1)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^y: max - min .* overflows float64"):
                run_test(data, TestConfig(h=0.5))


class TestLayout:
    """x and z are read-only, column-major copies wherever a Dataset comes from."""

    @staticmethod
    def assert_column_major_read_only(data):
        for arr in (data.x, data.z):
            assert arr.flags.f_contiguous
            assert not arr.flags.writeable
        assert data.y.flags.c_contiguous and not data.y.flags.writeable

    def test_constructor(self, rng):
        self.assert_column_major_read_only(make_dataset(rng, 50, d=3, d_prime=2))

    @pytest.mark.parametrize("gen, cfg", [(gen_h0, H0Config), (gen_h1, H1Config)])
    def test_generators(self, gen, cfg):
        self.assert_column_major_read_only(gen(cfg(n=100, seed=1)))

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2,x3,y,z1,z2\n" + "0.1,0.2,0.3,0.4,0.5,0.6\n" * 4)
        self.assert_column_major_read_only(read_dataset_csv(path))

    def test_input_mutation_does_not_leak(self, rng):
        x, y, z = rng.random((40, 2)), rng.random(40), rng.random((40, 1))
        data = Dataset(x=x, y=y, z=z)
        before = [arr.copy() for arr in (data.x, data.y, data.z)]
        x[:] = -1.0
        y[:] = -1.0
        z[:] = -1.0
        for arr, old in zip((data.x, data.y, data.z), before):
            np.testing.assert_array_equal(arr, old)


class TestDatasetShape:
    """x and z share one rule: 1-D is one coordinate, 2-D is kept, else ValueError."""

    def test_scalar_z_rejected(self):
        with pytest.raises(ValueError, match=r"^z: expected a 1-D or 2-D array, got shape \(\)$"):
            Dataset(x=np.zeros((3, 1)), y=np.zeros(3), z=5.0)

    def test_three_dimensional_x_rejected(self, rng):
        msg = r"^x: expected a 1-D or 2-D array, got shape \(50, 2, 2\)$"
        with pytest.raises(ValueError, match=msg):
            Dataset(x=rng.random((50, 2, 2)), y=rng.random(50), z=rng.random((50, 1)))

    def test_one_dimensional_x_is_one_column(self, rng):
        x, y, z = rng.random(200), rng.random(200), rng.random(200)
        flat = Dataset(x=x, y=y, z=z)
        column = Dataset(x=x[:, None], y=y, z=z[:, None])
        assert flat.x.shape == (200, 1) and flat.d == 1
        np.testing.assert_array_equal(flat.x, column.x)
        assert run_test(flat, TestConfig(h=0.25)) == run_test(column, TestConfig(h=0.25))

    @pytest.mark.parametrize("shapes, message", [
        (((4,), (5,), (5,)), r"row mismatch: x has 4, y has 5, z has 5"),
        (((5, 2), (5,), (3, 1)), r"row mismatch: x has 5, y has 5, z has 3"),
        (((3, 1), (3, 1), (3, 1)), r"y: expected a 1-D array, got shape \(3, 1\)"),
        (((0, 1), (0,), (0, 1)), r"dataset is empty"),
        (((3, 0), (3,), (3, 1)), r"x must have at least one coordinate"),
    ], ids=["flat-x-rows", "row-mismatch", "y-not-1d", "empty", "x-no-coordinate"])
    def test_message(self, shapes, message):
        x, y, z = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Dataset(x=x, y=y, z=z)


class TestBandwidthSchedule:
    def test_power_law_value(self):
        # n = 1024, delta = 0.2: 1024^(-0.2) = 2^(-2) = 0.25.
        assert h_schedule(1024, 1, 1, 0.2) == pytest.approx(0.25)

    def test_capped_at_one(self):
        assert h_schedule(1, 1, 1, 0.2) == 1.0

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError):
            h_schedule(100, 1, 1, 0.0)
        with pytest.raises(ValueError):
            # 1/(d + 1 + d') = 1/3 is excluded at d = d' = 1.
            h_schedule(100, 1, 1, 1.0 / 3.0)
        # Just inside the admissible range is fine.
        assert 0.0 < h_schedule(100, 1, 1, 1.0 / 3.0 - 1e-9) <= 1.0

    def test_dimension_tightens_range(self):
        with pytest.raises(ValueError):
            h_schedule(100, 3, 2, 0.2)  # 1/(3+1+2) = 1/6 < 0.2
        assert h_schedule(100, 3, 2, 0.15) == pytest.approx(100 ** -0.15)


class TestPartitionCounts:
    def test_bin_count_rounds_up(self):
        part = CubicPartition(h=0.3, d=1, d_prime=1)
        assert part.bins_per_axis == 4  # ceil(1/0.3)
        assert part.m == 4 and part.m_prime == 4 and part.m_dprime == 4

    def test_cell_totals_use_all_cells(self):
        part = CubicPartition(h=0.25, d=2, d_prime=3)
        assert part.bins_per_axis == 4
        assert part.m == 4**2
        assert part.m_prime == 4
        assert part.m_dprime == 4**3

    def test_h_one_single_cell(self):
        part = CubicPartition(h=1.0, d=2, d_prime=1)
        assert part.bins_per_axis == 1
        assert (part.m, part.m_prime, part.m_dprime) == (1, 1, 1)

    # 1 / h is finite but too many cells at 1e-300, and overflows to inf
    # below 1 / DBL_MAX, about 5.6e-309.
    @pytest.mark.parametrize("h", [1e-300, 5e-309, 5e-324])
    def test_too_fine_is_a_value_error(self, h):
        with pytest.raises(ValueError, match=TOO_FINE):
            CubicPartition(h=h, d=1, d_prime=0)


class TestHistogram:
    def test_dimension_mismatch(self, rng):
        data = make_dataset(rng, 50, d=2)
        message = "dimension mismatch: data is (2, 1, 1), partition is (1, 1, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_histogram(data, CubicPartition(h=0.5, d=1, d_prime=1))

    def test_counts_sum_to_n(self, rng):
        data = make_dataset(rng, 300, d=2)
        part = CubicPartition(h=0.25, d=2, d_prime=1)
        hist = build_histogram(data, part)
        assert hist.counts.sum() == 300
        assert hist.n == 300

    def test_boundary_point_in_last_cell(self):
        # Each coordinate's maximum maps to exactly 1.0 and lands in the top
        # bin, not one past it.
        data = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([0.0, 1.0]),
                       z=np.array([[0.0], [1.0]]))
        part = CubicPartition(h=0.25, d=1, d_prime=1)
        hist = build_histogram(data, part)
        np.testing.assert_array_equal(hist.a_ids, [0, 3])
        np.testing.assert_array_equal(hist.b_ids, [0, 3])
        np.testing.assert_array_equal(hist.c_ids, [0, 3])

    def test_coordinate_above_one_is_scaled(self):
        # x spans [-2, 6], so -2, 0, 2 and 6 map to 0, 1/4, 1/2 and 1.
        data = Dataset(x=np.array([[6.0], [2.0], [0.0], [-2.0]]), y=np.full(4, 0.5),
                       z=np.zeros((4, 1)))
        part = CubicPartition(h=0.25, d=1, d_prime=1)
        hist = build_histogram(data, part)
        np.testing.assert_array_equal(hist.a_ids, [0, 1, 2, 3])
        np.testing.assert_array_equal(hist.counts, [1, 1, 1, 1])
        self.assert_matches_recount(data, part)

    def test_negative_coordinate_is_scaled(self):
        # y spans [-2, -0.25]: -0.25 maps to 1, -0.75 and -1 to 5/7 and 4/7.
        data = Dataset(x=np.zeros((4, 1)), y=np.array([-0.25, -0.75, -1.0, -2.0]),
                       z=np.zeros((4, 1)))
        part = CubicPartition(h=0.25, d=1, d_prime=1)
        hist = build_histogram(data, part)
        np.testing.assert_array_equal(hist.b_ids, [0, 2, 3])
        np.testing.assert_array_equal(hist.counts, [1, 2, 1])
        self.assert_matches_recount(data, part)

    def test_marginal_alignment(self, rng):
        # The aligned per-triple marginal counts agree with a recount.
        data = make_dataset(rng, 500)
        part = CubicPartition(h=0.2, d=1, d_prime=1)
        hist = build_histogram(data, part)
        for i in range(len(hist.counts)):
            a, b, c = hist.a_ids[i], hist.b_ids[i], hist.c_ids[i]
            ac = hist.counts[(hist.a_ids == a) & (hist.c_ids == c)].sum()
            bc = hist.counts[(hist.b_ids == b) & (hist.c_ids == c)].sum()
            cm = hist.counts[hist.c_ids == c].sum()
            assert hist.ac_counts[i] == ac
            assert hist.bc_counts[i] == bc
            assert hist.c_counts[i] == cm

    @staticmethod
    def _recount(scaled, part):
        """Occupied triples and their marginals from np.unique over row tuples."""
        bins = part.bins_per_axis
        idx = np.minimum(np.floor(columns(scaled) / part.h).astype(np.int64), bins - 1)
        d = scaled.d
        a = np.zeros(scaled.n, dtype=np.int64)
        for j in range(d):
            a = a * bins + idx[:, j]
        c = np.zeros(scaled.n, dtype=np.int64)
        for j in range(d + 1, idx.shape[1]):
            c = c * bins + idx[:, j]
        triples, counts = np.unique(
            np.stack([a, idx[:, d], c], axis=1), axis=0, return_counts=True
        )

        def marginal(cols):
            keys = [tuple(t) for t in triples[:, cols]]
            totals = {}
            for k, n_k in zip(keys, counts):
                totals[k] = totals.get(k, 0) + n_k
            return np.array([totals[k] for k in keys])

        return triples, counts, marginal([0, 2]), marginal([1, 2]), marginal([2])

    @pytest.mark.parametrize(
        "n, h, d, d_prime",
        [(5000, 0.25, 2, 1), (200, 0.05, 2, 1), (200, 0.004, 2, 1)],
        ids=["grid-within-n", "grid-beyond-n", "grid-beyond-int32"],
    )
    def test_both_counting_paths_match_recount(self, rng, n, h, d, d_prime):
        data = make_dataset(rng, n, d=d, d_prime=d_prime)
        part = CubicPartition(h=h, d=d, d_prime=d_prime)
        # The first case counts on the dense grid, the second by sorting.
        assert (part.m * part.m_prime * part.m_dprime <= n) == (n == 5000)
        self.assert_matches_recount(data, part)

    @classmethod
    def assert_matches_recount(cls, data, part):
        hist = build_histogram(data, part)
        triples, counts, ac, bc, cm = cls._recount(unit_scaled(data), part)
        assert hist.n == data.n and hist.part == part
        np.testing.assert_array_equal(hist.a_ids, triples[:, 0])
        np.testing.assert_array_equal(hist.b_ids, triples[:, 1])
        np.testing.assert_array_equal(hist.c_ids, triples[:, 2])
        np.testing.assert_array_equal(hist.counts, counts)
        np.testing.assert_array_equal(hist.ac_counts, ac)
        np.testing.assert_array_equal(hist.bc_counts, bc)
        np.testing.assert_array_equal(hist.c_counts, cm)

    @pytest.mark.parametrize("make", ["h0", "h1", "constant", "dprime2"])
    def test_chunks_match_recount(self, rng, monkeypatch, make):
        # 40-row chunks: n one short of a chunk, one chunk, one row over and
        # several chunks, each counted on the dense grid (h = 0.5, at most
        # 2^5 cells) and by sorting (h = 0.2, at least 5^4 cells).
        monkeypatch.setattr("infoloss.partition._CHUNK_ROWS", 40)
        for n in (39, 40, 41, 250):
            data = {
                "h0": lambda: gen_h0(H0Config(n=n, seed=3)),
                "h1": lambda: gen_h1(H1Config(n=n, seed=3)),
                "constant": lambda: with_constant_column(rng, n),
                "dprime2": lambda: with_two_z(rng, n),
            }[make]()
            for h, dense in ((0.5, True), (0.2, False)):
                part = CubicPartition(h=h, d=data.d, d_prime=data.d_prime)
                assert (part.m * part.m_prime * part.m_dprime <= n) == dense
                self.assert_matches_recount(data, part)

    @pytest.mark.parametrize(
        "h", [0.25, 1 / 3, 0.1, h_schedule(100_000, 2, 1, 0.2)],
        ids=["quarter", "third", "tenth", "scheduled-1e5"],
    )
    def test_cell_ids_match_floor_reference(self, rng, h):
        # Random values plus every cell edge k*h (capped at 1) and the float
        # just below it: u = 1 on an exact edge needs the clamp, while the
        # scheduled h at n = 1e5 puts the top edge just below 1.  Every
        # column holds 0 and 1, so its min-max map is the identity.
        bins = math.ceil(1.0 / h)
        edges = np.minimum(np.arange(bins + 1) * h, 1.0)
        special = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [0.0, 1.0]])
        cols = [rng.permutation(np.concatenate([rng.random(500), special])) for _ in range(4)]
        data = Dataset(x=np.stack(cols[:2], axis=1), y=cols[2], z=cols[3])
        part = CubicPartition(h=h, d=2, d_prime=1)
        lo, span = scale_unit(data)
        assert np.all(lo == 0.0) and np.all(span == 1.0)
        hist = build_histogram(data, part)
        triples, counts, *_ = self._recount(data, part)
        np.testing.assert_array_equal(
            np.stack([hist.a_ids, hist.b_ids, hist.c_ids], axis=1), triples
        )
        np.testing.assert_array_equal(hist.counts, counts)


# Sides where 1 / h is an integer, so u = 1 lands one past the last cell
# before the clamp, and two where it is not.
INTEGRAL_H = [1.0, 0.5, 0.25, 0.125, 0.1, 1e5 ** -0.2]
FRACTIONAL_H = [0.3, 1e6 ** -0.2]


def edge_dataset(kind, n, seed=0):
    """A sample whose every column has the named extreme range."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    cols = {
        "uniform": u,
        "constant": np.column_stack([np.full(n, -7.5), u[:, 1], np.full(n, 1e300)]),
        # spans of about 2e300 and values on both sides of zero
        "huge": np.column_stack([1e300 * (2.0 * u[:, 0] - 1.0), -1e300 + 1e299 * u[:, 1],
                                 8e307 * u[:, 2]]),
        # spans of a few subnormal steps, and subnormal values on a subnormal span
        "subnormal": np.column_stack([5e-324 * rng.integers(0, 7, n), 1e-310 * u[:, 1],
                                      -2.5e-320 * u[:, 2]]),
    }[kind]
    return Dataset(x=cols[:, :1], y=cols[:, 1], z=cols[:, 2:])


class TestImplicitScaling:
    """``build_histogram`` takes its own min-max map, so it runs no range
    check, and clamps only when 1 / h is an integer; every array must match
    the floor-and-clamp recount of the reference scaling, and L_n the dense
    oracle."""

    @staticmethod
    def assert_matches_recount_and_oracle(data, part):
        hist = build_histogram(data, part)
        for field in ("a_ids", "b_ids", "c_ids", "counts", "ac_counts", "bc_counts", "c_counts"):
            assert getattr(hist, field).dtype == np.int64, field
        TestHistogram.assert_matches_recount(data, part)
        assert l_statistic(hist) == pytest.approx(
            dense_l_statistic(unit_scaled(data), part), abs=1e-10
        )

    def test_h_values_cover_both_clamp_cases(self):
        for h in INTEGRAL_H:
            assert 1.0 / h == math.ceil(1.0 / h)
        for h in FRACTIONAL_H:
            assert 1.0 / h < math.ceil(1.0 / h)

    @pytest.mark.parametrize("h", INTEGRAL_H + FRACTIONAL_H)
    @pytest.mark.parametrize("kind", ["uniform", "constant", "huge", "subnormal"])
    def test_edge_ranges_match_recount_and_oracle(self, kind, h):
        data = edge_dataset(kind, 300)
        part = CubicPartition(h=h, d=1, d_prime=1)
        self.assert_matches_recount_and_oracle(data, part)

    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("h, dense", [(0.1, True), (0.003, False)], ids=["dense", "sort"])
    def test_chunk_boundaries_on_both_paths(self, n, h, dense):
        data = gen_h1(H1Config(n=n, seed=5))
        data = Dataset(x=data.x[:, :1], y=data.y, z=np.empty((n, 0)))
        part = CubicPartition(h=h, d=1, d_prime=0)
        assert (part.m * part.m_prime * part.m_dprime <= n) == dense
        self.assert_matches_recount_and_oracle(data, part)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 120), st.sampled_from([2, 3])),
            elements=st.floats(-1e300, 1e300),
        ),
        st.sampled_from(INTEGRAL_H + FRACTIONAL_H),
    )
    @example(np.array([[0.0, 5e-324], [5e-324, 0.0], [-0.0, 1e-323]]), 0.5)
    @example(np.array([[-1e300, 1e300], [1e300, -1e300], [0.0, 3.0]]), 0.1)
    def test_any_finite_sample_matches_recount_and_oracle(self, cols, h):
        data = Dataset(x=cols[:, :1], y=cols[:, 1], z=cols[:, 2:])
        part = CubicPartition(h=h, d=1, d_prime=data.d_prime)
        self.assert_matches_recount_and_oracle(data, part)


class TestLStatistic:
    def test_perfect_dependence_worked_example(self):
        # y == x in {0.1, 0.9}, z constant, h = 0.5: two occupied triples,
        # each p = 0.5, q = 0.25, so L = 2 * 0.25 + (off-diagonal q) 0.5 = 1.
        # Min-max scaling sends 0.1 and 0.9 to 0 and 1, still cells 0 and 1.
        x = np.array([[0.1], [0.9], [0.1], [0.9]])
        y = np.array([0.1, 0.9, 0.1, 0.9])
        z = np.full((4, 1), 0.5)
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        data = Dataset(x=x, y=y, z=z)
        hist = build_histogram(data, part)
        np.testing.assert_array_equal(hist.a_ids, [0, 1])
        np.testing.assert_array_equal(hist.b_ids, [0, 1])
        assert l_statistic(hist) == pytest.approx(1.0, abs=1e-12)

    def test_exact_independence_is_zero(self):
        # Product design: every (a, b) combination equally often, one z cell.
        x = np.array([[0.1], [0.1], [0.9], [0.9]])
        y = np.array([0.1, 0.9, 0.1, 0.9])
        z = np.full((4, 1), 0.5)
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        data = Dataset(x=x, y=y, z=z)
        hist = build_histogram(data, part)
        assert l_statistic(hist) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_is_zero(self):
        # Every coordinate is constant, so each maps to 0.5.
        data = Dataset(x=np.array([[0.3]]), y=np.array([0.7]), z=np.array([[0.2]]))
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        hist = build_histogram(data, part)
        assert l_statistic(hist) == pytest.approx(0.0)

    def test_matches_dense_oracle(self, rng):
        # Sparse closed form vs the full sum over every cell triple.
        for n, h in [(50, 0.5), (120, 0.25), (200, 0.34)]:
            data = make_dataset(rng, n)
            part = CubicPartition(h=h, d=1, d_prime=1)
            hist = build_histogram(data, part)
            assert l_statistic(hist) == pytest.approx(
                dense_l_statistic(unit_scaled(data), part), abs=1e-10
            )

    def test_matches_dense_oracle_2d(self, rng):
        data = make_dataset(rng, 150, d=2, d_prime=1)
        part = CubicPartition(h=0.34, d=2, d_prime=1)
        hist = build_histogram(data, part)
        assert l_statistic(hist) == pytest.approx(
            dense_l_statistic(unit_scaled(data), part), abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([0.2, 0.25, 0.34, 0.5, 1.0]), st.integers(0, 2**31 - 1))
    def test_in_unit_range(self, n, h, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n)
        part = CubicPartition(h=h, d=1, d_prime=1)
        val = l_statistic(build_histogram(data, part))
        assert -1e-12 <= val <= 2.0 + 1e-12


class TestThreshold:
    def test_worked_value(self):
        # Ten bins per axis at n = 10000 with c1 = 1.3: four sample-size
        # terms plus the (log n) h bias term.
        t = threshold(10_000, 10, 10, 10, 0.1, 1.3)
        assert t == pytest.approx(1.633240, abs=5e-7)

    def test_bias_term_only(self):
        # c1 = 0 isolates the (log n) h term (formula level, no config check).
        assert threshold(100, 4, 4, 4, 0.25, 0.0) == pytest.approx(
            math.log(100) * 0.25
        )

    def test_explicit_formula(self):
        n, m, mp, mpp, h, c1 = 500, 16, 4, 4, 0.25, 1.3
        expected = c1 * (
            math.sqrt(m * mp * mpp / n)
            + math.sqrt(mp * mpp / n)
            + math.sqrt(m * mpp / n)
            + math.sqrt(mpp / n)
        ) + math.log(n) * h
        assert threshold(n, m, mp, mpp, h, c1) == pytest.approx(expected, rel=1e-15)

    def test_vanishes_along_schedule(self):
        # With h_n = n^(-delta) and the matching cell counts, t_n -> 0.
        def scheduled_t(n):
            h = h_schedule(n, 1, 1, 0.2)
            part = CubicPartition(h=h, d=1, d_prime=1)
            return threshold(n, part.m, part.m_prime, part.m_dprime, h, 1.5)

        ts = [scheduled_t(n) for n in (10**3, 10**5, 10**7, 10**9)]
        assert ts[0] > ts[1] > ts[2] > ts[3]
        assert ts[-1] < 0.5

    def test_overflow_raises(self):
        # A finite c1 times a sampling term above 1 overflows to inf.
        with pytest.raises(ValueError, match="^threshold overflows: t_n = inf"):
            threshold(3000, 400, 20, 20, 0.05, 1e308)

    @pytest.mark.parametrize("h", [0.0, -0.5, math.nan, 2.0])
    def test_h_must_be_positive(self, h):
        # A NaN h is refused as a bandwidth, not reported as an overflow, and
        # an h above 1, which no partition has, by the partitions' own rule.
        message = f"h must be in (0, 1], got {h}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            threshold(3000, 4, 4, 4, h, 1.5)


class TestType1Bound:
    def test_formula(self):
        c1, mpp = 1.5, 4
        expected = 4.0 * math.exp(-(c1**2 / 2.0 - math.log(2.0)) * mpp)
        assert type1_bound(c1, mpp) == pytest.approx(expected, rel=1e-15)

    def test_shrinks_with_conditioning_cells(self):
        assert type1_bound(1.5, 8) < type1_bound(1.5, 4) < type1_bound(1.5, 1)

    def test_trivial_at_critical_c1(self):
        # At c1 = sqrt(2 log 2) the exponent vanishes: bound is 4.
        assert type1_bound(C1_MIN, 10) == pytest.approx(4.0)


class TestConfigValidation:
    def test_c1_must_exceed_critical(self):
        with pytest.raises(ValueError, match="c1"):
            TestConfig(c1=1.0)
        with pytest.raises(ValueError, match="c1"):
            TestConfig(c1=C1_MIN)

    def test_c1_must_be_finite(self):
        with pytest.raises(ValueError, match="^c1 must be finite"):
            TestConfig(c1=math.inf)

    def test_h_range(self):
        with pytest.raises(ValueError):
            TestConfig(h=0.0)
        with pytest.raises(ValueError):
            TestConfig(h=1.5)

    def test_explicit_h_wins_over_delta(self):
        cfg = TestConfig(delta=0.2, h=0.125)
        assert cfg.bandwidth(10**6, 1, 1) == 0.125

    def test_bandwidth_required(self):
        with pytest.raises(ValueError, match="^either h or delta must be given$"):
            TestConfig(delta=None, h=None)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("h", [None, 0.25])
    def test_delta_must_be_finite(self, delta, h):
        with pytest.raises(ValueError, match=f"^delta must be finite, got {delta}$"):
            TestConfig(delta=delta, h=h)


class TestRunTest:
    def test_single_point_accepts(self):
        data = Dataset(x=np.array([[0.0]]), y=np.array([0.0]), z=np.array([[0.0]]))
        out = run_test(data, TestConfig(h=0.5))
        assert out.L_n == 0.0
        assert not out.reject

    def test_integer_h_reported_as_float(self):
        data = Dataset(x=np.array([[0.0]]), y=np.array([0.0]), z=np.array([[0.0]]))
        assert type(run_test(data, TestConfig(h=1)).to_dict()["h"]) is float

    def test_outcome_fields_consistent(self, rng):
        data = make_dataset(rng, 2000)
        out = run_test(data, TestConfig(c1=1.5, delta=0.2))
        h = h_schedule(2000, 1, 1, 0.2)
        assert out.h == pytest.approx(h)
        bins = math.ceil(1.0 / h)
        assert out.m == bins and out.m_prime == bins and out.m_dprime == bins
        assert out.reject == (out.L_n >= out.t_n)
        d = out.to_dict()
        assert set(d) == {
            "L_n", "t_n", "m", "m_prime", "m_dprime", "h", "reject", "vacuous", "type1_bound",
            "type1_trivial",
        }

    @pytest.mark.parametrize("n, cfg, m_dprime, trivial", [
        (2000, TestConfig(h=1.0), 1, True),  # bound 2.6
        (2000, TestConfig(h=0.34), 3, True),  # bound 1.09
        (2000, TestConfig(h=0.25), 4, False),  # bound 0.71
        (100_000, TestConfig(), 10, False),  # the default schedule
    ])
    def test_type1_trivial_iff_bound_reaches_one(self, rng, n, cfg, m_dprime, trivial):
        out = run_test(make_dataset(rng, n), cfg)
        assert out.m_dprime == m_dprime
        assert out.type1_trivial is trivial
        assert out.type1_trivial == (out.type1_bound >= 1.0)

    def test_strong_dependence_rejects_at_moderate_n(self, rng):
        # y = x on a 10-bin grid: the diagonal concentration drives L_n to
        # 1 + 10(0.09 - 0.01) = 1.8 while t_n ~ 1.4 at this sample size.
        n = 200_000
        x = rng.random(n)
        data = Dataset(x=x[:, None], y=x, z=rng.random((n, 1)))
        out = run_test(data, TestConfig(c1=1.2, h=0.1))
        assert out.L_n > 1.7
        assert out.reject

    def test_independent_data_accepts(self, rng):
        data = make_dataset(rng, 5000)
        out = run_test(data, TestConfig(c1=1.5, delta=0.2))
        assert not out.reject

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 3000),
        st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.5, 1.0]),
        st.floats(C1_MIN + 1e-9, 3.0),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    def test_vacuous_never_rejects(self, n, h, c1, dependent, seed):
        # L_n < L_MAX on every sample, so t_n >= L_MAX forces acceptance.
        # y = x on fine cells puts L_n close to L_MAX.
        rng = np.random.default_rng(seed)
        x = rng.random(n)
        y = x if dependent else rng.random(n)
        data = Dataset(x=x[:, None], y=y, z=np.empty((n, 0)))
        out = run_test(data, TestConfig(c1=c1, h=h))
        assert out.vacuous == (out.t_n >= L_MAX)
        assert out.L_n < L_MAX
        if out.vacuous:
            assert not out.reject


# L_n.hex() of the default test on seeded samples, recorded before the
# binning core was rebuilt; cell assignment and summation order must not
# change.  At n = 1e5 the scheduled side h is 0.09999999999999999, so the
# top cell edge sits just below 1.
GOLDEN_L_N = {
    ("h0", 1_000): "0x0.0p+0",
    ("h1", 1_000): "0x1.68afe2b75ec6fp-1",
    ("h0", 10_000): "0x1.ad35a6fb89e20p-5",
    ("h1", 10_000): "0x1.ce376aae43cc7p-1",
    ("h0", 100_000): "0x1.24d5a8c852320p-5",
    ("h1", 100_000): "0x1.0692164cd9496p+0",
}


@pytest.mark.parametrize("scenario, n", sorted(GOLDEN_L_N))
def test_golden_l_n_bit_identical(scenario, n):
    gen, cfg = (gen_h0, H0Config) if scenario == "h0" else (gen_h1, H1Config)
    out = run_test(gen(cfg(n=n, seed=2024)))
    assert out.L_n.hex() == GOLDEN_L_N[scenario, n]
