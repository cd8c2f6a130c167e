import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from snrdiff import (
    NumericalError,
    energy_distance,
    gaussian_kl_fit,
    moment_report,
    sample_data,
    single_gaussian,
)
from snrdiff.metrics import _pairwise_distance_sum

# frozen: 0.5*(2 - 1 - log(2))
KL_N02_VS_N01 = 0.15342640972002736


class TestMomentReport:
    def test_exact_samples_within_clt_bounds(self):
        g = single_gaussian([0.0, 0.0], np.eye(2))
        n = 50000
        x = sample_data(g, n, seed=1)
        rep = moment_report(x, g)
        assert rep.mean_error_l2 < 4 * np.sqrt(2.0 / n)
        assert rep.cov_frobenius_error < 4 * np.sqrt(2.0 / n) * 2
        assert rep.n == n

    def test_all_zero_samples(self):
        g = single_gaussian([0.0, 0.0], np.eye(2))
        rep = moment_report(np.zeros((100, 2)), g)
        np.testing.assert_allclose(rep.cov_frobenius_error, 1.0, rtol=1e-12)

    def test_permutation_invariance(self):
        g = single_gaussian([0.5], [[2.0]])
        x = sample_data(g, 500, seed=3)
        a = moment_report(x, g)
        b = moment_report(x[::-1], g)
        assert a.mean_error_l2 == b.mean_error_l2
        assert a.cov_frobenius_error == b.cov_frobenius_error

    def test_dimension_mismatch(self):
        g = single_gaussian([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            moment_report(np.zeros((10, 3)), g)

    def test_json_round_trip(self):
        g = single_gaussian([0.0], [[1.0]])
        rep = moment_report(sample_data(g, 100, seed=0), g)
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["n"] == 100
        assert blob["energy_distance"] is None


class TestEnergyDistance:
    def test_identical_multisets(self):
        x = np.random.default_rng(0).normal(size=(300, 2))
        assert energy_distance(x, x.copy()) <= 1e-12

    def test_permuted_copy(self):
        x = np.random.default_rng(1).normal(size=(200, 1))
        assert energy_distance(x, x[::-1].copy()) <= 1e-12

    def test_symmetric(self):
        gen = np.random.default_rng(2)
        a, b = gen.normal(size=(150, 1)), gen.normal(loc=1.0, size=(130, 1))
        np.testing.assert_allclose(energy_distance(a, b),
                                   energy_distance(b, a), rtol=1e-12)

    def test_nonnegative(self):
        gen = np.random.default_rng(3)
        for _ in range(10):
            a = gen.normal(size=(50, 2))
            b = gen.normal(size=(60, 2))
            assert energy_distance(a, b) >= 0.0

    def test_far_separated_gaussians(self):
        gen = np.random.default_rng(4)
        a = gen.normal(size=(1000, 1))
        b = gen.normal(loc=10.0, size=(1000, 1))
        # 2 E|A-B| ~ 20 dominates the within terms (~2.26 total)
        assert energy_distance(a, b) > 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            energy_distance(np.zeros((5, 1)), np.zeros((5, 2)))

    def test_blockwise_matches_direct(self):
        gen = np.random.default_rng(5)
        a = gen.normal(size=(70, 2))
        b = gen.normal(size=(90, 2))
        direct = (
            2.0 * np.mean([np.linalg.norm(p - q) for p in a for q in b])
            - np.mean([np.linalg.norm(p - q) for p in a for q in a])
            - np.mean([np.linalg.norm(p - q) for p in b for q in b])
        )
        np.testing.assert_allclose(energy_distance(a, b), direct, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, d, bad):
        a = np.zeros((5, d))
        b = np.ones((6, d))
        b[3, d - 1] = bad
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="finite"):
                energy_distance(x, y)


def fraction_energy_distance(a, b) -> Fraction:
    """Exact rational V-statistic of two 1-D float sample sets."""
    a = [Fraction(float(x)) for x in a]
    b = [Fraction(float(x)) for x in b]
    n, m = len(a), len(b)
    return (2 * sum(abs(x - y) for x in a for y in b) / (n * m)
            - sum(abs(x - y) for x in a for y in a) / (n * n)
            - sum(abs(x - y) for x in b for y in b) / (m * m))


def assert_matches_cdist(a, b):
    """The 1-D sorted form against the three blocked-cdist pair sums, to
    1e-12 of E|A-B|: the cdist terms cancel, so their error scales with
    the cross term, not with the result."""
    a, b = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    n, m = len(a), len(b)
    cross = _pairwise_distance_sum(a, b) / (n * m)
    reference = (2.0 * cross - _pairwise_distance_sum(a, a) / (n * n)
                 - _pairwise_distance_sum(b, b) / (m * m))
    assert abs(energy_distance(a, b) - reference) <= 1e-12 * cross


def random_sets(gen, n, m, ties):
    if ties:
        return (gen.integers(-4, 5, size=n).astype(float),
                gen.integers(-3, 6, size=m).astype(float))
    return gen.normal(size=n), gen.normal(0.5, 1.5, size=m)


# integer values make ties within and across the two sets likely
SAMPLE_LISTS = st.lists(st.one_of(st.floats(-1e3, 1e3),
                                  st.integers(-3, 3).map(float)),
                        min_size=1, max_size=40)


class TestEnergyDistance1d:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_exact_fraction(self, seed, ties):
        gen = np.random.default_rng(seed)
        a, b = random_sets(gen, 37 + seed, 52, ties)
        exact = fraction_energy_distance(a, b)
        got = energy_distance(a, b)
        assert abs(Fraction(got) - exact) <= Fraction(1e-13) * exact

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 40), (40, 1), (150, 170),
                                     (300, 299), (2500, 700)])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_cdist(self, n, m, ties):
        a, b = random_sets(np.random.default_rng(n * m), n, m, ties)
        assert_matches_cdist(a, b)

    @pytest.mark.parametrize("ties", [False, True])
    def test_swap_is_bitwise_equal(self, ties):
        a, b = random_sets(np.random.default_rng(7), 400, 333, ties)
        assert energy_distance(a, b) == energy_distance(b, a)

    @pytest.mark.parametrize("ties", [False, True])
    def test_permuted_copy_is_exactly_zero(self, ties):
        gen = np.random.default_rng(8)
        x, _ = random_sets(gen, 500, 1, ties)
        assert energy_distance(x, gen.permutation(x)) == 0.0

    @given(a=SAMPLE_LISTS, b=SAMPLE_LISTS)
    @settings(max_examples=200)
    def test_matches_cdist_and_swaps_on_random_sets(self, a, b):
        assert_matches_cdist(a, b)
        assert energy_distance(a, b) == energy_distance(b, a)


class TestGaussianKlFit:
    def test_exact_fit_is_zero(self):
        # mean 0, ddof-1 variance exactly 1
        x = np.array([[-1.0], [1.0]]) / np.sqrt(2.0)
        assert gaussian_kl_fit(x, [0.0], [[1.0]]) <= 1e-14

    def test_doubled_variance(self):
        # three points with mean 0 and sample variance exactly 2
        x = np.array([[-np.sqrt(2.0)], [0.0], [np.sqrt(2.0)]])
        np.testing.assert_allclose(gaussian_kl_fit(x, [0.0], [[1.0]]),
                                   KL_N02_VS_N01, rtol=1e-12)

    def test_consistency(self):
        g = single_gaussian([0.3, -0.1], np.array([[1.0, 0.2], [0.2, 0.7]]))
        x = sample_data(g, 100000, seed=6)
        assert gaussian_kl_fit(x, g.means[0], g.covs[0]) < 5e-4

    def test_singular_fit_raises(self):
        x = np.ones((10, 2))
        with pytest.raises(NumericalError):
            gaussian_kl_fit(x, [0.0, 0.0], np.eye(2))

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            gaussian_kl_fit(np.zeros((2, 2)), [0.0, 0.0], np.eye(2))
