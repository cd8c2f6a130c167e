import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import distance

from snrdiff import (
    NumericalError,
    energy_distance,
    gaussian_kl_fit,
    moment_report,
    sample_data,
    single_gaussian,
)
from snrdiff import metrics
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

    @pytest.mark.parametrize("ties", [False, True])
    def test_1d_bits_do_not_depend_on_row_order(self, ties):
        # the 1-D path sorts the pooled values itself; rows that tie sit on
        # a zero gap, so the unsorted sets give the sorted sets' bits
        gen = np.random.default_rng(8)
        a, b = random_sets(gen, 300, 240, ties)
        want = energy_distance(np.sort(a), np.sort(b))
        for _ in range(5):
            assert energy_distance(gen.permutation(a),
                                   gen.permutation(b)) == want

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


def matrix_sum(a, b, block=2048):
    """The pairwise distance sum with each block's distance matrix formed
    whole: the reference whose bits the leaf walk keeps."""
    total = 0.0
    for i in range(0, a.shape[0], block):
        rows = a[i:i + block]
        for j in range(0, b.shape[0], block):
            total += float(distance.cdist(rows, b[j:j + block]).sum())
    return total


def assert_matrix_bits(a, b, block=2048):
    got, want = _pairwise_distance_sum(a, b), matrix_sum(a, b, block)
    assert got == want, (
        f"leaf walk {got!r} != matrix sum {want!r} for shapes {a.shape} x "
        f"{b.shape}: numpy {np.__version__} no longer sums a contiguous "
        "float64 array down the pairwise tree metrics._pairwise_distance_sum "
        "copies (halves rounded down to a multiple of 8, runs of at most "
        f"{metrics._PAIRWISE_RUN} unsplit), or cdist's bits depend on "
        "which rows one call holds")


class TestPairwiseDistanceSum:
    @pytest.mark.parametrize("d", [2, 3, 16])
    @pytest.mark.parametrize("n,m", [(2000, 2000), (1999, 2048), (2047, 1023),
                                     (1, 2048), (4000, 5000)])
    def test_matches_matrix_sum(self, n, m, d):
        gen = np.random.default_rng(n + m + d)
        a = gen.normal(size=(n, d))
        b = gen.normal(0.5, 2.0, size=(m, d))
        assert_matrix_bits(a, b)
        assert_matrix_bits(b, b)

    @given(n=st.integers(1, 150), m=st.integers(1, 150),
           d=st.integers(2, 4), block=st.integers(1, 160),
           seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_small_leaves_match_matrix_sum(self, n, m, d, block, seed, ties):
        # _LEAF below numpy's unsplit run: every cut numpy makes becomes a
        # leaf, so deep trees and leaves that split rows run on small sets
        gen = np.random.default_rng(seed)
        a, b = gen.normal(size=(n, d)), gen.normal(size=(m, d))
        if ties:
            a, b = np.round(a), np.round(b)
        with mock.patch.object(metrics, "_LEAF", 64), \
                mock.patch.object(metrics, "_BLOCK", block):
            assert_matrix_bits(a, b, block)

    def test_energy_distance_peak_memory(self):
        gen = np.random.default_rng(2)
        a, b = gen.normal(size=(2000, 16)), gen.normal(size=(2000, 16))
        energy_distance(a[:3], b[:3])  # import scipy.spatial outside the trace
        tracemalloc.start()
        try:
            energy_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 2000 x 2000 distance matrix alone is 32 MB
        assert peak < 8e6, f"energy_distance peaked at {peak / 1e6:.1f} MB"

    def test_no_cdist_call_exceeds_a_leaf(self, monkeypatch):
        gen = np.random.default_rng(3)
        a, b = gen.normal(size=(2000, 16)), gen.normal(size=(4000, 16))
        want = matrix_sum(a, b)
        shapes = []
        cdist = distance.cdist

        def recording_cdist(x, y):
            out = cdist(x, y)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(distance, "cdist", recording_cdist)
        assert _pairwise_distance_sum(a, b) == want
        assert shapes
        for rows, cols in shapes:
            assert rows * cols <= metrics._LEAF + 2 * cols, (rows, cols)


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


def report_bits(report):
    """A report's values with the sign of zero kept: float.hex tells -0.0
    from 0.0, where == does not."""
    return {k: v.hex() if isinstance(v, float) else v
            for k, v in report.to_dict().items()}


def public_report_bits(x, target, reference, kl):
    """What the public per-set functions give for one cell."""
    report = moment_report(x, target)
    report.energy_distance = energy_distance(x, reference)
    if kl:
        report.gaussian_kl = gaussian_kl_fit(x, target.means[0],
                                             target.covs[0])
    return report_bits(report)


def tied_stack(gen, cells, n, d):
    """(cells, n, d) samples with ties within and across cells, and both
    signed zeros."""
    pool = np.array([-0.0, 0.0, 1.0, -1.0, 0.5, 2.0])
    xs = gen.normal(size=(cells, n, d))
    pick = gen.random(size=xs.shape) < 0.5
    xs[pick] = gen.choice(pool, size=int(pick.sum()))
    return xs


class TestQualityReports:
    @pytest.mark.parametrize("cells,n,m", [(1, 2, 2), (60, 2, 3), (5, 3, 2),
                                           (25, 256, 256), (7, 301, 257),
                                           (1, 3000, 3000), (3, 3000, 2999)])
    def test_1d_is_the_public_metrics_bitwise(self, cells, n, m):
        gen = np.random.default_rng(cells * 10007 + n)
        target = single_gaussian([0.25], [[1.5]])
        xs = tied_stack(gen, cells, n, 1)
        reference = tied_stack(gen, 1, m, 1)[0]
        kl = n > 100  # a tied pair has no Gaussian fit
        reports = metrics.quality_reports(
            xs, target.mean(), target.cov(), reference,
            (target.means[0], target.covs[0]) if kl else None)
        assert len(reports) == cells
        for x, report in zip(xs, reports):
            assert report_bits(report) == public_report_bits(
                x, target, reference, kl)

    @given(cells=st.integers(1, 60), n=st.integers(2, 40),
           m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_1d_drawn_stacks_are_the_public_metrics(self, cells, n, m, seed):
        gen = np.random.default_rng(seed)
        target = single_gaussian([-0.5], [[0.3]])
        xs = tied_stack(gen, cells, n, 1)
        reference = tied_stack(gen, 1, m, 1)[0]
        reports = metrics.quality_reports(xs, target.mean(), target.cov(),
                                          reference)
        for x, report in zip(xs, reports):
            assert report_bits(report) == public_report_bits(
                x, target, reference, kl=False)

    def test_d2_past_one_block_is_the_public_metrics(self):
        # n > _BLOCK: each pair sum spans several blocks
        gen = np.random.default_rng(21)
        target = sample_target_2d()
        xs = tied_stack(gen, 2, metrics._BLOCK + 52, 2)
        reference = gen.normal(size=(metrics._BLOCK + 11, 2))
        reports = metrics.quality_reports(xs, target.mean(), target.cov(),
                                          reference)
        for x, report in zip(xs, reports):
            assert report_bits(report) == public_report_bits(
                x, target, reference, kl=False)

    def test_reference_self_term_is_summed_once_per_pass(self, monkeypatch):
        gen = np.random.default_rng(4)
        target = sample_target_2d()
        xs = gen.normal(size=(4, 30, 2))
        reference = gen.normal(size=(25, 2))
        pairs = []
        pair_sum = metrics._pairwise_distance_sum
        monkeypatch.setattr(metrics, "_pairwise_distance_sum",
                            lambda a, b: pairs.append((a, b)) or pair_sum(a, b))
        metrics.quality_reports(xs, target.mean(), target.cov(), reference)
        sorted_reference = metrics._canonical(reference)
        reference_self = [a is b and np.array_equal(a, sorted_reference)
                          for a, b in pairs]
        # a cross and a self term per cell, and one reference self-term
        assert len(pairs) == 2 * len(xs) + 1
        assert sum(reference_self) == 1

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_raises(self, d, bad):
        target = single_gaussian(np.zeros(d), np.eye(d))
        xs, reference = np.zeros((3, 4, d)), np.ones((5, d))
        for arr in (xs[2, 1], reference[4]):
            arr[d - 1] = bad
            with pytest.raises(ValueError, match="finite"):
                metrics.quality_reports(xs, target.mean(), target.cov(),
                                        reference)
            arr[d - 1] = 0.0


def sample_target_2d():
    return single_gaussian([0.1, -0.2], np.array([[1.0, 0.3], [0.3, 0.5]]))
