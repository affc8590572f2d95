"""Tests for the partition-based conditional independence test."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import dense_l_statistic


def make_dataset(rng, n, d=1, d_prime=1):
    return Dataset(
        x=rng.random((n, d)),
        y=rng.random(n),
        z=rng.random((n, d_prime)),
    )


class TestScaling:
    def test_maps_onto_unit_cube(self, rng):
        data = Dataset(
            x=rng.normal(5.0, 3.0, (200, 2)),
            y=rng.normal(-2.0, 1.0, 200),
            z=rng.normal(0.0, 10.0, (200, 1)),
        )
        scaled = scale_unit(data)
        cols = scaled.columns()
        assert cols.min() >= 0.0
        assert cols.max() <= 1.0
        # Each live coordinate attains both endpoints.
        assert np.allclose(cols.min(axis=0), 0.0)
        assert np.allclose(cols.max(axis=0), 1.0)

    def test_constant_coordinate_pins_to_half(self):
        data = Dataset(
            x=np.full((10, 1), 3.0),
            y=np.arange(10.0),
            z=np.ones((10, 1)),
        )
        scaled = scale_unit(data)
        assert np.all(scaled.x == 0.5)
        assert np.all(scaled.z == 0.5)
        assert scaled.y[0] == 0.0 and scaled.y[-1] == 1.0

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


def read_only_block(n):
    buf = np.empty((n, 4), order="F")
    buf.flags.writeable = False
    return buf


class TestBuffers:
    """``gen_h0``/``gen_h1(out=)`` and ``run_test(scratch=)`` reuse caller blocks."""

    @staticmethod
    def with_constant_column(rng):
        x = rng.random((3000, 2))
        x[:, 1] = 0.25
        return Dataset(x=x, y=x[:, 0] + rng.random(3000), z=rng.random((3000, 1)))

    @staticmethod
    def with_two_z(rng):
        x = rng.random((3000, 2))
        z = np.column_stack([x[:, 0] // 0.25, rng.integers(0, 3, 3000)])
        return Dataset(x=x, y=x[:, 1] + 0.1 * rng.random(3000), z=z)

    @pytest.mark.parametrize("make", ["h0", "h1", "constant", "dprime2"])
    def test_scratch_matches_fresh(self, rng, make):
        data = {
            "h0": lambda: gen_h0(H0Config(n=20_000, seed=3)),
            "h1": lambda: gen_h1(H1Config(n=20_000, seed=3)),
            "constant": lambda: self.with_constant_column(rng),
            "dprime2": lambda: self.with_two_z(rng),
        }[make]()
        cfg = TestConfig(delta=0.15)  # admissible up to d + 1 + d' = 5
        fresh = run_test(data, cfg)
        scratch = np.full((data.n, data.d + 1 + data.d_prime), np.nan, order="F")
        for _ in range(2):  # the second call finds the first call's scaled values
            got = run_test(data, cfg, scratch=scratch)
            assert got == fresh  # every field
            assert got.L_n.hex() == fresh.L_n.hex()

    def test_scaled_sample_aliases_out(self, rng):
        data = make_dataset(rng, 100, d=2, d_prime=2)
        out = np.empty((100, 5), order="F")
        scaled = scale_unit(data, out=out)
        fresh = scale_unit(data)
        for got, want in zip((scaled.x, scaled.y, scaled.z), (fresh.x, fresh.y, fresh.z)):
            assert np.shares_memory(got, out)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, want)
        assert out.flags.writeable

    # (buffer for n = 50 rows and 4 columns, the error it must raise)
    BAD = {
        "width": (lambda n: np.empty((n, 3), order="F"),
                  r"^buffer must have shape \(50, 4\), got \(50, 3\)$"),
        "rows": (lambda n: np.empty((n + 1, 4), order="F"),
                 r"^buffer must have shape \(50, 4\), got \(51, 4\)$"),
        "dtype": (lambda n: np.empty((n, 4), dtype=np.float32, order="F"),
                  r"^buffer must have dtype float64, got float32$"),
        "c-order": (lambda n: np.empty((n, 4)), r"^buffer must be column-major \(F-contiguous\)$"),
        "strided": (lambda n: np.empty((n, 8), order="F")[:, ::2],
                    r"^buffer must be column-major \(F-contiguous\)$"),
        "read-only": (read_only_block, r"^buffer is read-only$"),
    }

    @pytest.fixture(params=sorted(BAD))
    def bad(self, request):
        make, match = self.BAD[request.param]
        return make(50), match

    @pytest.mark.parametrize("gen, cfg", [(gen_h0, H0Config), (gen_h1, H1Config)])
    def test_bad_generator_buffer(self, bad, gen, cfg):
        buf, match = bad
        with pytest.raises(ValueError, match=match):
            gen(cfg(n=50, seed=0), out=buf)

    def test_bad_scratch(self, bad):
        buf, match = bad
        data = gen_h0(H0Config(n=50, seed=0))
        with pytest.raises(ValueError, match=match):
            run_test(data, TestConfig(h=0.5), scratch=buf)
        with pytest.raises(ValueError, match=match):
            scale_unit(data, out=buf)

    def test_non_array_buffer(self):
        with pytest.raises(TypeError, match="^buffer must be a numpy array, got list$"):
            gen_h0(H0Config(n=2, seed=0), out=[[0.0] * 4] * 2)

    def test_scratch_overlapping_sample(self):
        block = np.empty((50, 4), order="F")
        data = gen_h0(H0Config(n=50, seed=0), out=block)
        with pytest.raises(ValueError, match="^buffer overlaps the sample it would scale$"):
            run_test(data, TestConfig(h=0.5), scratch=block)


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


class TestHistogram:
    def test_counts_sum_to_n(self, rng):
        data = make_dataset(rng, 300, d=2)
        scaled = scale_unit(data)
        part = CubicPartition(h=0.25, d=2, d_prime=1)
        hist = build_histogram(scaled, part)
        assert hist.counts.sum() == 300
        assert hist.n == 300

    def test_boundary_point_in_last_cell(self):
        # Value exactly 1.0 lands in the top bin, not one past it.
        data = Dataset(x=np.array([[1.0]]), y=np.array([1.0]), z=np.array([[1.0]]))
        part = CubicPartition(h=0.25, d=1, d_prime=1)
        hist = build_histogram(data, part)
        assert hist.a_ids[0] == 3 and hist.b_ids[0] == 3 and hist.c_ids[0] == 3

    def test_marginal_alignment(self, rng):
        # The aligned per-triple marginal counts agree with a recount.
        data = make_dataset(rng, 500)
        scaled = scale_unit(data)
        part = CubicPartition(h=0.2, d=1, d_prime=1)
        hist = build_histogram(scaled, part)
        for i in range(len(hist.counts)):
            a, b, c = hist.a_ids[i], hist.b_ids[i], hist.c_ids[i]
            ac = hist.counts[(hist.a_ids == a) & (hist.c_ids == c)].sum()
            bc = hist.counts[(hist.b_ids == b) & (hist.c_ids == c)].sum()
            cm = hist.counts[hist.c_ids == c].sum()
            assert hist.ac_counts[i] == ac
            assert hist.bc_counts[i] == bc
            assert hist.c_counts[i] == cm

    def test_rejects_data_outside_unit_cube(self):
        data = Dataset(x=np.array([[1.5]]), y=np.array([0.5]), z=np.array([[0.5]]))
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        with pytest.raises(ValueError):
            build_histogram(data, part)


    @staticmethod
    def _recount(scaled, part):
        """Occupied triples and their marginals from np.unique over row tuples."""
        bins = part.bins_per_axis
        idx = np.minimum(np.floor(scaled.columns() / part.h).astype(np.int64), bins - 1)
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
        [(5000, 0.25, 2, 1), (200, 0.05, 2, 1)],
        ids=["grid-within-n", "grid-beyond-n"],
    )
    def test_both_counting_paths_match_recount(self, rng, n, h, d, d_prime):
        data = make_dataset(rng, n, d=d, d_prime=d_prime)
        scaled = scale_unit(data)
        part = CubicPartition(h=h, d=d, d_prime=d_prime)
        # The first case counts on the dense grid, the second by sorting.
        assert (part.m * part.m_prime * part.m_dprime <= n) == (n == 5000)
        hist = build_histogram(scaled, part)
        triples, counts, ac, bc, cm = self._recount(scaled, part)
        assert hist.n == n and hist.part == part
        np.testing.assert_array_equal(hist.a_ids, triples[:, 0])
        np.testing.assert_array_equal(hist.b_ids, triples[:, 1])
        np.testing.assert_array_equal(hist.c_ids, triples[:, 2])
        np.testing.assert_array_equal(hist.counts, counts)
        np.testing.assert_array_equal(hist.ac_counts, ac)
        np.testing.assert_array_equal(hist.bc_counts, bc)
        np.testing.assert_array_equal(hist.c_counts, cm)

    @pytest.mark.parametrize(
        "h", [0.25, 1 / 3, 0.1, h_schedule(100_000, 2, 1, 0.2)],
        ids=["quarter", "third", "tenth", "scheduled-1e5"],
    )
    def test_cell_ids_match_floor_reference(self, rng, h):
        # Random values plus every cell edge k*h (capped at 1) and the float
        # just below it: u = 1 on an exact edge needs the clamp, while the
        # scheduled h at n = 1e5 puts the top edge just below 1.
        bins = math.ceil(1.0 / h)
        edges = np.minimum(np.arange(bins + 1) * h, 1.0)
        special = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [0.0, 1.0]])
        cols = [rng.permutation(np.concatenate([rng.random(500), special])) for _ in range(4)]
        data = Dataset(x=np.stack(cols[:2], axis=1), y=cols[2], z=cols[3])
        part = CubicPartition(h=h, d=2, d_prime=1)
        hist = build_histogram(data, part)
        triples, counts, *_ = self._recount(data, part)
        np.testing.assert_array_equal(
            np.stack([hist.a_ids, hist.b_ids, hist.c_ids], axis=1), triples
        )
        np.testing.assert_array_equal(hist.counts, counts)

    def test_rejects_negative_coordinate(self):
        data = Dataset(x=np.array([[0.5]]), y=np.array([-0.1]), z=np.array([[0.5]]))
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            build_histogram(data, part)


class TestLStatistic:
    def test_perfect_dependence_worked_example(self):
        # y == x in {0.1, 0.9}, z constant, h = 0.5: two occupied triples,
        # each p = 0.5, q = 0.25, so L = 2 * 0.25 + (off-diagonal q) 0.5 = 1.
        x = np.array([[0.1], [0.9], [0.1], [0.9]])
        y = np.array([0.1, 0.9, 0.1, 0.9])
        z = np.full((4, 1), 0.5)
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        hist = build_histogram(Dataset(x=x, y=y, z=z), part)
        assert l_statistic(hist) == pytest.approx(1.0, abs=1e-12)

    def test_exact_independence_is_zero(self):
        # Product design: every (a, b) combination equally often, one z cell.
        x = np.array([[0.1], [0.1], [0.9], [0.9]])
        y = np.array([0.1, 0.9, 0.1, 0.9])
        z = np.full((4, 1), 0.5)
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        hist = build_histogram(Dataset(x=x, y=y, z=z), part)
        assert l_statistic(hist) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_is_zero(self):
        data = Dataset(x=np.array([[0.3]]), y=np.array([0.7]), z=np.array([[0.2]]))
        part = CubicPartition(h=0.5, d=1, d_prime=1)
        assert l_statistic(build_histogram(data, part)) == pytest.approx(0.0)

    def test_matches_dense_oracle(self, rng):
        # Sparse closed form vs the full sum over every cell triple.
        for n, h in [(50, 0.5), (120, 0.25), (200, 0.34)]:
            data = make_dataset(rng, n)
            scaled = scale_unit(data)
            part = CubicPartition(h=h, d=1, d_prime=1)
            hist = build_histogram(scaled, part)
            assert l_statistic(hist) == pytest.approx(
                dense_l_statistic(scaled, part), abs=1e-10
            )

    def test_matches_dense_oracle_2d(self, rng):
        data = make_dataset(rng, 150, d=2, d_prime=1)
        scaled = scale_unit(data)
        part = CubicPartition(h=0.34, d=2, d_prime=1)
        hist = build_histogram(scaled, part)
        assert l_statistic(hist) == pytest.approx(
            dense_l_statistic(scaled, part), abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 60), st.sampled_from([0.2, 0.25, 0.34, 0.5, 1.0]), st.integers(0, 2**31 - 1))
    def test_in_unit_range(self, n, h, seed):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n)
        scaled = scale_unit(data)
        part = CubicPartition(h=h, d=1, d_prime=1)
        val = l_statistic(build_histogram(scaled, part))
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
            "L_n", "t_n", "m", "m_prime", "m_dprime", "h", "reject", "type1_bound",
        }

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
