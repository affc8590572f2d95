"""Tests for the synthetic data generators."""

import hashlib

import numpy as np
import pytest

from infoloss import (
    H0Config,
    H1Config,
    conditional_mutual_information,
    gen_h0,
    gen_h1,
    gen_market,
    gen_random_joint,
    gen_random_loss,
    philox,
)

from conftest import (
    conditional_dependence_l1,
    gen_atomic_dataset,
    gen_markov_joint,
    population_joint,
)


class TestDeterminism:
    def test_h0_byte_identical(self):
        cfg = H0Config(n=500, seed=7)
        a, b = gen_h0(cfg), gen_h0(cfg)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.z.tobytes() == b.z.tobytes()

    def test_h1_byte_identical(self):
        cfg = H1Config(n=500, seed=7, theta=0.5)
        a, b = gen_h1(cfg), gen_h1(cfg)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_seed_changes_sample(self):
        a = gen_h0(H0Config(n=500, seed=1))
        b = gen_h0(H0Config(n=500, seed=2))
        assert a.y.tobytes() != b.y.tobytes()

    # sha256 prefixes of (x, y, z).tobytes() for seed 7: the defaults at
    # n = 1e5 and a non-default config at n = 1000.  tobytes() is C order
    # whatever the memory layout, so these pin values, not storage.
    _CUSTOM = dict(k=5, interval_width=0.15, noise_scale=0.05)
    GOLDEN_DRAWS = [
        (gen_h0, H0Config(n=100_000, seed=7),
         ("d39fd635fa024bf8", "232a05cabb2720dd", "3d84f9deb1ce6ada")),
        (gen_h1, H1Config(n=100_000, seed=7),
         ("d39fd635fa024bf8", "249247fc1318b3f7", "3d84f9deb1ce6ada")),
        (gen_h0, H0Config(n=1000, seed=7, **_CUSTOM),
         ("ef517e70c5329260", "5fce0626ad9f2278", "c9e5d1b020a739a7")),
        (gen_h1, H1Config(n=1000, seed=7, theta=-0.3, **_CUSTOM),
         ("ef517e70c5329260", "37d97b811aedbc55", "c9e5d1b020a739a7")),
    ]
    GOLDEN_IDS = ["h0-default", "h1-default", "h0-custom", "h1-custom"]

    @pytest.mark.parametrize("gen, cfg, expected", GOLDEN_DRAWS, ids=GOLDEN_IDS)
    def test_scenario_draws_golden(self, gen, cfg, expected):
        assert self.digests(gen(cfg)) == expected

    @staticmethod
    def digests(data):
        return tuple(
            hashlib.sha256(arr.tobytes()).hexdigest()[:16]
            for arr in (data.x, data.y, data.z)
        )

    def test_philox_stream_stable(self):
        # Same key, same stream; independent of global numpy state.
        np.random.seed(0)
        a = philox(123).random(5)
        np.random.seed(99)
        b = philox(123).random(5)
        np.testing.assert_array_equal(a, b)

    def test_philox_seed_range(self):
        # Seeds are 64-bit keys: the ends are accepted, anything outside is a
        # ValueError that every generator shares, gen_market through seed + 1.
        philox(0), philox(2**64 - 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
                philox(seed)
        with pytest.raises(ValueError, match="got -1$"):
            gen_h0(H0Config(n=10, seed=-1))
        with pytest.raises(ValueError, match="got -1$"):
            gen_random_joint((2, 2, 2), -1)
        with pytest.raises(ValueError, match=f"got {2**64}$"):
            gen_market(2, 2, 2**64 - 1)

    def test_philox_seed_must_be_an_integer(self):
        # A float seed must not be cast to the integer below it (2.5 would
        # draw seed 2's stream); numpy integers are integers.
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
            gen_h0(H0Config(n=100, seed=2.5))
        np.testing.assert_array_equal(philox(np.uint64(5)).random(3), philox(5).random(3))

    @pytest.mark.parametrize("field, value", [("k", 2.5), ("n", 50.0), ("k", 4.0)])
    def test_sizes_must_be_integers(self, field, value):
        # k = 2.5 used to draw atoms {0, 0.4}: integers(0, 2.5) gives {0, 1}
        # while the atoms are arange(2.5) / 2.5.  A float n failed in numpy.
        params = {"n": 50, "seed": 1, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
            H0Config(**params)
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {value}$"):
            H1Config(**params)

    def test_numpy_integer_sizes_stored_as_ints(self):
        cfg = H1Config(n=np.int64(50), seed=1, k=np.uint8(3))
        assert type(cfg.n) is int and type(cfg.k) is int
        assert (cfg.n, cfg.k) == (50, 3)
        want = gen_h1(H1Config(n=50, seed=1, k=3))
        np.testing.assert_array_equal(gen_h1(cfg).x, want.x)

    def test_markets_and_joints_deterministic(self):
        m1, m2 = gen_market(3, 4, 11), gen_market(3, 4, 11)
        assert m1.returns.tobytes() == m2.returns.tobytes()
        assert m1.joint.probs.tobytes() == m2.joint.probs.tobytes()
        j1, t1 = gen_random_joint((3, 4, 2), 5)
        j2, t2 = gen_random_joint((3, 4, 2), 5)
        assert j1.probs.tobytes() == j2.probs.tobytes()
        assert np.array_equal(t1.table, t2.table)

    # sha256 prefixes of (random probs, random table, markov probs, markov
    # table, market returns) for shape (3, 5, 2) and 3 assets x 4 outcomes.
    GOLDEN_JOINTS = {
        0: ("9fc76e1128247ea1", "174c34cc57b8b691", "2303f877f89c0a64",
            "174c34cc57b8b691", "9a2582b5df371bd0"),
        1: ("55a84eee8bde015a", "4ff1cae9c5286442", "a5524c76e059aabd",
            "4ff1cae9c5286442", "f922497f816bada8"),
        7: ("f0097db593e13ca6", "b7aaf62e8c657387", "62cea255c441a46a",
            "b7aaf62e8c657387", "41c6cb9c917553e4"),
        12345: ("2dd3c2709d07cbcd", "3aab578c015cefa9", "4160911c3c1472f9",
                "3aab578c015cefa9", "47e5d3eec48a6ee9"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN_JOINTS))
    def test_joint_and_market_draws_golden(self, seed):
        # Pins the draw order (permutation, then integers, then the pmf)
        # that the certificates and criteria 3-9 depend on.
        def digest(arr, dtype):
            return hashlib.sha256(arr.astype(dtype).tobytes()).hexdigest()[:16]

        joint, tmap = gen_random_joint((3, 5, 2), seed)
        markov, mmap = gen_markov_joint((3, 5, 2), seed)
        market = gen_market(3, 4, seed)
        got = (
            digest(joint.probs, "<f8"),
            digest(tmap.table, "<i8"),
            digest(markov.probs, "<f8"),
            digest(mmap.table, "<i8"),
            digest(market.returns, "<f8"),
        )
        assert got == self.GOLDEN_JOINTS[seed]


class TestNullScenario:
    def test_shapes_and_dims(self):
        data = gen_h0(H0Config(n=200, seed=0))
        assert data.n == 200
        assert data.d == 2
        assert data.d_prime == 1

    def test_z_is_transform_of_x(self):
        # T(x) = atom of the interval holding x1, computed from x alone.
        cfg = H0Config(n=1000, seed=3)
        data = gen_h0(cfg)
        j = np.clip(np.floor(data.x[:, 0] * cfg.k), 0, cfg.k - 1).astype(int)
        lo = cfg.atoms[j]
        assert np.all(data.x[:, 0] >= lo)
        assert np.all(data.x[:, 0] <= lo + cfg.interval_width)
        np.testing.assert_array_equal(cfg.atoms[j][:, None], data.z)

    def test_x1_inside_atom_intervals(self):
        cfg = H0Config(n=1000, seed=4, k=5, interval_width=0.15)
        data = gen_h0(cfg)
        j = np.round(data.z[:, 0] * cfg.k).astype(int)
        lo = cfg.atoms[j]
        assert np.all(data.x[:, 0] >= lo)
        assert np.all(data.x[:, 0] <= lo + cfg.interval_width)

    def test_y_tracks_regression_level(self):
        cfg = H0Config(n=5000, seed=5, noise_scale=0.01)
        data = gen_h0(cfg)
        j = np.round(data.z[:, 0] * cfg.k).astype(int)
        np.testing.assert_allclose(data.y, cfg.atoms[j], atol=0.011)

    def test_interval_width_validation(self):
        with pytest.raises(ValueError):
            H0Config(n=10, seed=0, k=4, interval_width=0.25)  # == 1/k
        with pytest.raises(ValueError):
            H0Config(n=10, seed=0, interval_width=0.0)


class TestAlternativeScenario:
    def test_theta_zero_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            H1Config(n=10, seed=0, theta=0.0)

    def test_shares_null_draws(self):
        # Same seed: the alternative shifts y by theta * x2 and nothing else.
        h0 = gen_h0(H0Config(n=300, seed=9))
        h1 = gen_h1(H1Config(n=300, seed=9, theta=0.7))
        np.testing.assert_array_equal(h0.x, h1.x)
        np.testing.assert_allclose(h1.y - h0.y, 0.7 * h1.x[:, 1], atol=1e-12)

    def test_sample_dependence_exceeds_null(self):
        # The empirical conditional-dependence statistic separates the
        # scenarios at moderate sample size.
        from infoloss import CubicPartition, TestConfig, run_test

        cfg_null = H0Config(n=20_000, seed=12)
        cfg_alt = H1Config(n=20_000, seed=12, theta=1.5)
        out0 = run_test(gen_h0(cfg_null), TestConfig(h=0.25))
        out1 = run_test(gen_h1(cfg_alt), TestConfig(h=0.25))
        assert out1.L_n > out0.L_n + 0.2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["noise_scale", "theta"])
def test_non_finite_parameter_named(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        H1Config(n=10, seed=0, **{field: value})


def test_overflowing_y_rejected_after_draw():
    # Finite but huge parameters pass the config checks; y = z + theta*x2 +
    # noise then overflows and the generator's own check catches it.  The
    # suite turns numpy's overflow warning into an error, so it is silenced.
    cfg = H1Config(n=1000, seed=0, theta=1.7e308, noise_scale=1.7e308)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="^y: non-finite values$"):
        gen_h1(cfg)


class TestPopulationJoint:
    def test_null_factorizes_exactly(self):
        joint = population_joint(H0Config(n=1, seed=0))
        assert conditional_mutual_information(joint) <= 1e-12
        assert conditional_dependence_l1(joint) <= 1e-12

    def test_alternative_strictly_dependent(self):
        joint = population_joint(H1Config(n=1, seed=0, theta=0.5))
        assert conditional_mutual_information(joint) > 0.01
        assert conditional_dependence_l1(joint) > 0.1

    def test_defect_monotone_in_theta(self):
        defects = [
            conditional_dependence_l1(
                population_joint(H1Config(n=1, seed=0, theta=t))
            )
            for t in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(b > a for a, b in zip(defects, defects[1:]))

    def test_is_proper_joint(self):
        joint = population_joint(H1Config(n=1, seed=0, theta=0.5))
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-12)
        # Z marginal is uniform over the k atoms by construction.
        np.testing.assert_allclose(joint.p_z, 0.25, atol=1e-12)

    def test_negative_theta_supported(self):
        joint = population_joint(H1Config(n=1, seed=0, theta=-0.5))
        assert conditional_dependence_l1(joint) > 0.1


class TestDiscreteGenerators:
    def test_markov_joint_conditionally_independent(self):
        for seed in range(10):
            joint, tmap = gen_markov_joint((3, 5, 2), seed)
            assert conditional_mutual_information(joint) <= 1e-12
            # Supported on the graph of the map.
            for x in range(5):
                z_bad = [z for z in range(2) if z != tmap.table[x]]
                for z in z_bad:
                    assert np.all(joint.probs[:, x, z] == 0.0)

    def test_random_joint_typically_dependent(self):
        dependent = sum(
            conditional_mutual_information(gen_random_joint((3, 4, 2), s)[0]) > 1e-4
            for s in range(10)
        )
        assert dependent >= 8

    def test_surjective_map(self):
        for seed in range(5):
            _, tmap = gen_random_joint((2, 6, 3), seed)
            assert set(tmap.table.tolist()) == {0, 1, 2}

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="surjective"):
            gen_random_joint((2, 2, 3), 0)

    def test_random_loss_bounded(self):
        loss = gen_random_loss(4, 2.5, 0)
        assert loss.cost.shape == (4, 4)
        assert loss.sup_norm <= 2.5
        assert np.all(loss.cost >= 0)

    @pytest.mark.parametrize("sup", [-1.0, float("nan"), float("inf")])
    def test_random_loss_sup_finite_and_nonnegative(self, sup):
        with pytest.raises(ValueError, match=f"^sup must be finite and >= 0, got {sup}$"):
            gen_random_loss(3, sup, 0)


class TestAtomicDataset:
    def test_embeds_at_given_positions(self):
        joint, _ = gen_random_joint((3, 4, 2), 0)
        y_atoms = [0.0, 0.5, 1.0]
        x_atoms = [0.0, 1 / 3, 2 / 3, 1.0]
        z_atoms = [0.0, 1.0]
        data = gen_atomic_dataset(joint, y_atoms, x_atoms, z_atoms, 500, 1)
        assert data.n == 500
        assert set(np.unique(data.y)) <= set(y_atoms)
        assert set(np.unique(data.x)) <= set(x_atoms)
        assert set(np.unique(data.z)) <= set(z_atoms)

    def test_frequencies_approach_pmf(self):
        joint, _ = gen_random_joint((2, 3, 2), 3)
        data = gen_atomic_dataset(
            joint, [0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 1.0], 200_000, 4
        )
        # Empirical y marginal within 1% of the law.
        emp = np.mean(data.y == 1.0)
        assert emp == pytest.approx(joint.p_y[1], abs=0.01)

    def test_position_count_mismatch(self):
        joint, _ = gen_random_joint((2, 3, 2), 0)
        with pytest.raises(ValueError, match="atom position"):
            gen_atomic_dataset(joint, [0.0], [0.0, 0.5, 1.0], [0.0, 1.0], 10, 0)
