import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp

from snrdiff import (
    ConfigError,
    GmmSpec,
    exact_score,
    gmm_from_dict,
    log_marginal_density,
    make_schedule,
    marginal_at,
    posterior_mean,
    sample_data,
    single_gaussian,
    transition,
)
from snrdiff import gmm as gmm_module, rng
from snrdiff.snr_space import t_of_lambda

from conftest import BUILTIN


@pytest.fixture
def two_bumps():
    # symmetric 1-D mixture at +-2
    return GmmSpec(np.array([0.5, 0.5]), np.array([[-2.0], [2.0]]),
                   np.array([[[0.1]], [[0.1]]]))


@pytest.fixture
def gmm_2d():
    return GmmSpec(
        np.array([0.3, 0.7]),
        np.array([[-1.0, 0.5], [1.5, -0.2]]),
        np.array([[[0.5, 0.1], [0.1, 0.4]], [[0.3, -0.05], [-0.05, 0.6]]]),
    )


class TestSpecValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            GmmSpec(np.array([0.5, 0.4]), np.zeros((2, 1)), np.ones((2, 1, 1)))

    def test_cov_must_be_psd(self):
        with pytest.raises(ConfigError):
            single_gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_cov_must_be_symmetric(self):
        with pytest.raises(ConfigError):
            single_gaussian([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_large_dim_requires_diagonal(self):
        d = 20
        full = np.eye(d)
        full[0, 1] = full[1, 0] = 0.1
        with pytest.raises(ConfigError):
            single_gaussian(np.zeros(d), full)
        ok = single_gaussian(np.zeros(d), np.ones(d))
        assert ok.dim == d

    @pytest.mark.parametrize("field", ["weights", "means", "covs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, field, bad):
        parts = {"weights": np.array([0.5, 0.5]), "means": np.zeros((2, 2)),
                 "covs": np.stack([np.eye(2), np.eye(2)])}
        parts[field].flat[-1] = bad
        with pytest.raises(ConfigError, match=f"mixture {field} must be finite"):
            GmmSpec(parts["weights"], parts["means"], parts["covs"])

    def test_json_round_trip(self, gmm_2d):
        back = gmm_from_dict(gmm_2d.to_dict())
        np.testing.assert_array_equal(back.means, gmm_2d.means)
        np.testing.assert_array_equal(back.covs, gmm_2d.covs)

    def test_json_diagonal_covs(self):
        g = gmm_from_dict({"weights": [1.0], "means": [[0.0, 0.0]],
                           "covs": [[2.0, 3.0]]})
        np.testing.assert_array_equal(g.covs[0], np.diag([2.0, 3.0]))

    def test_mixture_moments(self, two_bumps):
        np.testing.assert_allclose(two_bumps.mean(), [0.0], atol=1e-15)
        # total variance: within 0.1 plus between 4.0
        np.testing.assert_allclose(two_bumps.cov(), [[4.1]], rtol=1e-12)


class TestSampling:
    def test_standard_normal_mean(self):
        n = 100_000
        g = single_gaussian([0.0, 0.0], np.eye(2))
        x = sample_data(g, n, seed=42)
        assert np.all(np.abs(x.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_degenerate_component(self):
        g = single_gaussian([3.0], [[1e-12]])
        x = sample_data(g, 1000, seed=0)
        np.testing.assert_allclose(x, 3.0, atol=1e-4)

    def test_two_bump_mean(self, two_bumps):
        x = sample_data(two_bumps, 100_000, seed=7)
        assert abs(x.mean()) < 0.02

    def test_deterministic(self, two_bumps):
        a = sample_data(two_bumps, 500, seed=99)
        b = sample_data(two_bumps, 500, seed=99)
        assert np.array_equal(a, b)
        c = sample_data(two_bumps, 500, seed=100)
        assert not np.array_equal(a, c)


def gathered_sample_data(gmm, n, seed):
    """The draw that ``sample_data`` replaced, kept as its reference: one
    Cholesky factor gathered per row, an (n, d, d) array, for one einsum."""
    g = rng.stream(seed, rng.PURPOSE_DATA)
    u = g.random(n)
    comp = np.searchsorted(np.cumsum(gmm.weights), u, side="right")
    comp = np.minimum(comp, gmm.n_components - 1)
    eps = g.standard_normal((n, gmm.dim))
    chols = np.stack([
        np.linalg.cholesky(gmm.covs[k] + gmm_module.COV_FLOOR * np.eye(gmm.dim))
        for k in range(gmm.n_components)
    ])
    return gmm.means[comp] + np.einsum("nij,nj->ni", chols[comp], eps)


class TestSampleDataByComponent:
    def test_bitwise_the_gathered_draw(self):
        gen = np.random.default_rng(5)
        for d in range(1, 17):
            for k in range(1, 9):
                gmm = random_mixture(gen, k, d, gen.random(k) < 0.5)
                for n in (1, 7, 300):
                    got = sample_data(gmm, n, seed=d * k + n)
                    want = gathered_sample_data(gmm, n, seed=d * k + n)
                    assert got.tobytes() == want.tobytes(), (d, k, n)

    def test_holds_order_n_d(self):
        # the mixture_sample shape, where one factor a row would be 16x the
        # output
        gmm = random_mixture(np.random.default_rng(2), 8, 16, [False] * 8)
        n, d = 2000, 16
        tracemalloc.start()
        try:
            sample_data(gmm, n, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * 6 * d, peak


class TestMarginal:
    def test_near_identity_channel(self, gmm_2d):
        # alpha = 1 and sigma = 1e-8 at t = 0 for a tiny-noise VE
        sched = make_schedule("VE", params={"sigma_min": 1e-8, "sigma_max": 50})
        noisy = marginal_at(gmm_2d, sched, 0.0)
        np.testing.assert_allclose(noisy.means, gmm_2d.means, rtol=1e-14)
        np.testing.assert_allclose(noisy.covs, gmm_2d.covs, atol=1e-15)

    def test_fm_ot_midpoint(self):
        sched = make_schedule("FM_OT")
        noisy = marginal_at(single_gaussian([0.0], [[1.0]]), sched, 0.5)
        np.testing.assert_allclose(noisy.covs[0], [[0.5]], rtol=1e-12)

    def test_weights_preserved(self, gmm_2d, any_schedule):
        t = 0.5 * (any_schedule.t_min + any_schedule.t_max)
        noisy = marginal_at(gmm_2d, any_schedule, t)
        assert np.array_equal(noisy.weights, gmm_2d.weights)

    def test_composes_with_transition_kernel(self, gmm_2d, any_schedule):
        lo, hi = any_schedule.t_min, any_schedule.t_max
        s = lo + 0.3 * (hi - lo)
        t = lo + 0.8 * (hi - lo)
        direct = marginal_at(gmm_2d, any_schedule, t)
        at_s = marginal_at(gmm_2d, any_schedule, s)
        k = transition(any_schedule, s, t)
        pushed_means = k.mean_coeff * at_s.means
        pushed_covs = k.mean_coeff ** 2 * at_s.covs \
            + k.variance * np.eye(gmm_2d.dim)[None]
        np.testing.assert_allclose(direct.means, pushed_means,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(direct.covs, pushed_covs,
                                   rtol=1e-12, atol=1e-12)


class TestScore:
    def test_single_gaussian_closed_form(self, vp):
        g = single_gaussian([0.0, 0.0], np.eye(2))
        t = 0.5
        a, s = float(vp.alpha(t)), float(vp.sigma(t))
        z = np.array([[0.3, -1.2], [2.0, 0.1]])
        expected = -z / (a * a + s * s)
        np.testing.assert_allclose(exact_score(g, vp, t, z), expected,
                                   rtol=1e-12)

    def test_symmetry_point(self, two_bumps, vp):
        z = np.array([0.0])
        np.testing.assert_allclose(exact_score(two_bumps, vp, 0.4, z),
                                   [0.0], atol=1e-14)

    def test_matches_log_density_gradient(self, gmm_2d, vp):
        gen = np.random.default_rng(3)
        z = gen.normal(size=(20, 2))
        t = 0.35
        h = 1e-5
        got = exact_score(gmm_2d, vp, t, z)
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = h
            fd = (log_marginal_density(gmm_2d, vp, t, z + dz)
                  - log_marginal_density(gmm_2d, vp, t, z - dz)) / (2 * h)
            np.testing.assert_allclose(got[:, j], fd, rtol=1e-5, atol=1e-8)


class TestPosteriorMean:
    def test_single_gaussian_closed_form(self, vp):
        mu, S = 0.7, 1.9
        g = single_gaussian([mu], [[S]])
        t = 0.45
        a, s = float(vp.alpha(t)), float(vp.sigma(t))
        z = np.linspace(-3, 3, 11)[:, None]
        expected = mu + (a * S / (a * a * S + s * s)) * (z - a * mu)
        np.testing.assert_allclose(posterior_mean(g, vp, t, z), expected,
                                   rtol=1e-12)

    def test_noiseless_inversion(self, gmm_2d):
        sched = make_schedule("VE", params={"sigma_min": 1e-8, "sigma_max": 50})
        z = np.array([[0.5, -0.3], [1.2, 0.9]])
        np.testing.assert_allclose(posterior_mean(gmm_2d, sched, 0.0, z), z,
                                   rtol=1e-16, atol=1e-12)

    def test_tweedie_consistency(self, gmm_2d, any_schedule):
        gen = np.random.default_rng(5)
        z = gen.normal(scale=2.0, size=(30, 2))
        for frac in (0.15, 0.5, 0.85):
            t = any_schedule.t_min + frac * (any_schedule.t_max - any_schedule.t_min)
            a, s = float(any_schedule.alpha(t)), float(any_schedule.sigma(t))
            lhs = posterior_mean(gmm_2d, any_schedule, t, z)
            rhs = (z + s * s * exact_score(gmm_2d, any_schedule, t, z)) / a
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def cholesky_oracle(gmm, schedule, t, z):
    """Reference (score, posterior mean, log density) at rows z, factoring
    every noisy covariance a^2 Sigma_k + sigma^2 I by Cholesky."""
    a = float(schedule.alpha(t))
    s2 = float(schedule.sigma(t)) ** 2
    k_count, d = gmm.n_components, gmm.dim
    logp = np.empty((k_count, z.shape[0]))
    solved = np.empty((k_count, z.shape[0], d))
    for k in range(k_count):
        cf = cho_factor(a * a * gmm.covs[k] + s2 * np.eye(d), lower=True)
        diff = z - a * gmm.means[k]
        solved[k] = cho_solve(cf, diff.T).T
        quad = np.einsum("nd,nd->n", diff, solved[k])
        logdet = 2.0 * np.log(np.diag(cf[0])).sum()
        logp[k] = (np.log(gmm.weights[k]) - 0.5 * quad - 0.5 * logdet
                   - 0.5 * d * np.log(2.0 * np.pi))
    r = np.exp(logp - logsumexp(logp, axis=0, keepdims=True))
    score = -np.einsum("kn,knd->nd", r, solved)
    mean = sum(r[k, :, None] * (gmm.means[k] + a * solved[k] @ gmm.covs[k].T)
               for k in range(k_count))
    return score, mean, logsumexp(logp, axis=0)


def random_mixture(gen, k, d, full):
    """Weights, means, and (diagonal or full, per component) covariances."""
    w = gen.uniform(0.5, 1.5, k)
    means = gen.normal(scale=1.5, size=(k, d))
    covs = np.stack([np.diag(gen.uniform(0.05, 2.0, d)) for _ in range(k)])
    a = gen.normal(size=(k, d, d))
    covs = np.where(np.asarray(full)[:, None, None],
                    a @ a.transpose(0, 2, 1) / d + 0.05 * np.eye(d), covs)
    return GmmSpec(w / w.sum(), means, covs)


def assert_matches_cholesky(gmm, schedule, t, z, tol=1e-12):
    got = (exact_score(gmm, schedule, t, z), posterior_mean(gmm, schedule, t, z),
           log_marginal_density(gmm, schedule, t, z))
    for name, g, w in zip(("score", "posterior mean", "log density"), got,
                          cholesky_oracle(gmm, schedule, t, z)):
        err = np.linalg.norm(g - w) / np.linalg.norm(w)
        assert err <= tol, f"{name} at t={t}: relative error {err:.3g}"


def noisy_draws(gmm, schedule, t, n, seed):
    x = sample_data(gmm, n, seed)
    eps = np.random.default_rng(seed).standard_normal(x.shape)
    return float(schedule.alpha(t)) * x + float(schedule.sigma(t)) * eps


SPECTRAL_CASES = [(k, d, full) for k in (1, 2, 8) for d in (1, 2, 16)
                  for full in ((False,) if d == 1 else (False, True))]


class TestSpectralOracle:
    """The eigenbasis kernel against the per-call Cholesky oracle."""

    @pytest.mark.parametrize("k,d,full", SPECTRAL_CASES)
    def test_matches_cholesky(self, any_schedule, k, d, full):
        gen = np.random.default_rng(100 * k + d)
        gmm = random_mixture(gen, k, d, [full] * k)
        assert (gmm._evecs is None) == (not full)
        lo, hi = any_schedule.t_min, any_schedule.t_max
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            t = lo + frac * (hi - lo)
            z = noisy_draws(gmm, any_schedule, t, 300, seed=k + d)
            assert_matches_cholesky(gmm, any_schedule, t, z)

    @given(k=st.integers(1, 4), d=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), name=st.sampled_from(BUILTIN),
           frac=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_matches_cholesky_on_random_specs(self, k, d, seed, name, frac):
        gen = np.random.default_rng(seed)
        gmm = random_mixture(gen, k, d, gen.random(k) < 0.5)
        sched = make_schedule(name)
        t = sched.t_min + frac * (sched.t_max - sched.t_min)
        z = noisy_draws(gmm, sched, t, 50, seed=seed)
        assert_matches_cholesky(gmm, sched, t, z)

    @pytest.mark.parametrize("cov", [[[1.0, 1.0], [1.0, 1.0]],
                                     [[0.0, 0.0], [0.0, 2.0]]])
    def test_zero_eigenvalue_at_smallest_sigma(self, any_schedule, cov):
        gmm = GmmSpec(np.array([0.4, 0.6]), np.array([[0.5, -1.0], [-0.5, 1.0]]),
                      np.array([cov, np.eye(2)]))
        t = any_schedule.t_min
        z = noisy_draws(gmm, any_schedule, t, 200, seed=11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outs = (exact_score(gmm, any_schedule, t, z),
                    posterior_mean(gmm, any_schedule, t, z),
                    log_marginal_density(gmm, any_schedule, t, z))
        assert all(np.all(np.isfinite(o)) for o in outs)


def rows_first_components(gmm, level, z, views=None):
    """The full-covariance kernel that ``gmm._components`` replaced, kept
    as its reference for mixtures with a full covariance: rows first,
    (K, N, D) and (N, K), with the quadratic form an ``einsum`` over d.
    It reads only the level's c, 1/c, gain and a m, forms r and logp
    whether or not the level has a log normaliser, and allocates whether
    or not it is given ``views``."""
    c, inv_c, gain, m = level.c, level.inv_c, level.gain, level.m
    q = gmm._evecs
    v = (z[None] - m[:, None]) @ q
    quad = np.einsum("knd,kd->nk", v * v, inv_c)
    logp = (np.log(gmm.weights) - 0.5 * np.log(c).sum(axis=1)
            - 0.5 * gmm.dim * np.log(2.0 * np.pi)) - 0.5 * quad
    e = np.exp(logp - logp.max(axis=1, keepdims=True))
    r = e / e.sum(axis=1, keepdims=True)
    w = v * gain[:, None] * r.T[..., None]
    w = (w @ q.transpose(0, 2, 1)).sum(axis=0)
    return r, logp, w


# At D >= 3 the rows-last kernel adds the quadratic form's d terms from left
# to right; the rows-first einsum runs over d innermost, in SIMD-lane order.
# The drift that leaves is a few ulp of the terms.  Over 1,500 random K <= 8, D <= 16 mixtures
# the largest relative error, in the norm over all rows, was 3.2e-15.
ROWS_LAST_RTOL = 1e-13


def kernel_outputs(gmm, schedule, t, z):
    """(r, logp, w) at both gains, then score, posterior mean, log density."""
    a, s2 = float(schedule.alpha(t)), float(schedule.sigma(t)) ** 2
    plain = gmm_module._level(gmm, a, s2)
    shrunk = gmm_module._level(gmm, a, s2, a * gmm._evals)
    return (*gmm_module._components(gmm, plain, z),
            *gmm_module._components(gmm, shrunk, z),
            exact_score(gmm, schedule, t, z), posterior_mean(gmm, schedule, t, z),
            log_marginal_density(gmm, schedule, t, z))


def rows_last_case(k, d, n, seed, name, frac):
    """A mixture of k components, at least one of them full, with n noisy
    rows at a time ``frac`` of the way across the schedule's window."""
    gen = np.random.default_rng(seed)
    full = gen.random(k) < 0.5
    full[gen.integers(k)] = True
    gmm = random_mixture(gen, k, d, full)
    sched = make_schedule(name)
    t = sched.t_min + frac * (sched.t_max - sched.t_min)
    z = noisy_draws(gmm, sched, t, n, seed) if n else np.empty((0, d))
    with mock.patch.object(gmm_module, "_components", rows_first_components):
        want = kernel_outputs(gmm, sched, t, z)
    return kernel_outputs(gmm, sched, t, z), want


ROWS_LAST_CASES = dict(k=st.integers(1, 8), n=st.integers(0, 300),
                       seed=st.integers(0, 2**32 - 1),
                       name=st.sampled_from(BUILTIN), frac=st.floats(0.0, 1.0))


class TestRowsLastKernel:
    """The rows-last full-covariance kernel against the rows-first one."""

    # D = 1 has no full covariance, so D <= 2 means D = 2 here
    @given(**ROWS_LAST_CASES)
    @settings(max_examples=200)
    def test_bitwise_at_d2(self, k, n, seed, name, frac):
        got, want = rows_last_case(k, 2, n, seed, name, frac)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @given(d=st.integers(3, 16), **ROWS_LAST_CASES)
    @settings(max_examples=200)
    def test_close_at_d3_to_16(self, d, k, n, seed, name, frac):
        got, want = rows_last_case(k, d, n, seed, name, frac)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert (np.linalg.norm(g - w)
                    <= ROWS_LAST_RTOL * np.linalg.norm(w))


real_components = gmm_module._components


def mixture_components(gmm, level, z, views=None):
    """``gmm._components`` as it runs for every K, r and logp formed
    whether or not the caller reads them: the one-component shortcut off."""
    if level.log_norm is None:
        level = level._replace(log_norm=gmm_module._log_norm(gmm, level.c))
    return real_components(gmm, level, z, views)

ONE_COMPONENT_CASES = [(d, full) for d in (1, 2, 3, 16)
                       for full in ((False,) if d == 1 else (False, True))]


class TestOneComponent:
    """The one-component path (r = 1, no log joint) against the kernels it
    short-cuts: the diagonal mixture kernel, which it matches bit for bit
    at any D, and the rows-first full-covariance reference."""

    @pytest.mark.parametrize("d,full", ONE_COMPONENT_CASES)
    def test_matches_mixture_kernel(self, any_schedule, d, full):
        gmm = random_mixture(np.random.default_rng(d), 1, d, [full])
        reference = rows_first_components if full else mixture_components
        bitwise = not full or d <= 2
        lo, hi = any_schedule.t_min, any_schedule.t_max
        for t in (lo, 0.5 * (lo + hi), hi):
            for n in (0, 1, 300):
                z = (noisy_draws(gmm, any_schedule, t, n, seed=d) if n
                     else np.empty((0, d)))
                got = kernel_outputs(gmm, any_schedule, t, z)
                with mock.patch.object(gmm_module, "_components", reference):
                    want = kernel_outputs(gmm, any_schedule, t, z)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    if bitwise:
                        assert g.tobytes() == w.tobytes()
                    else:
                        assert (np.linalg.norm(g - w)
                                <= ROWS_LAST_RTOL * np.linalg.norm(w))
                # the closed form: score = -(Sigma_t)^{-1} (z - alpha m)
                a, s = float(any_schedule.alpha(t)), float(any_schedule.sigma(t))
                cov_t = a * a * gmm.covs[0] + s * s * np.eye(d)
                closed = -np.linalg.solve(cov_t, (z - a * gmm.means[0]).T).T
                score = got[-3]
                assert (np.linalg.norm(score - closed)
                        <= 1e-12 * np.linalg.norm(closed))

    @pytest.mark.parametrize("cov", [[[1.0]], [[1.0, 0.5], [0.5, 1.0]]])
    def test_exact_where_the_quadratic_form_overflows(self, vp, cov):
        d = len(cov)
        gmm = single_gaussian(np.full(d, 1e160), cov)
        t = vp.t_min
        a, s = float(vp.alpha(t)), float(vp.sigma(t))
        # rows 1e160 away from the mean: their squared distance overflows
        z = np.linspace(-2.0, 2.0, 5 * d).reshape(5, d)
        with np.errstate(all="ignore"):
            level = gmm_module._level(gmm, a, s * s, joint=False)
            assert np.isnan(mixture_components(gmm, level, z)[2]).all()
            score = exact_score(gmm, vp, t, z)
            mean = posterior_mean(gmm, vp, t, z)
        cov_t = a * a * gmm.covs[0] + s * s * np.eye(d)
        np.testing.assert_allclose(
            score, -np.linalg.solve(cov_t, (z - a * gmm.means[0]).T).T,
            rtol=1e-12)
        # the mean cancels against the shrunk residual: a few ulp of 1e160
        np.testing.assert_allclose(
            mean, gmm.means[0] + a * (gmm.covs[0] @ -score.T).T,
            rtol=0.0, atol=1e-14 * 1e160)


ROW_MAX_VALUES = np.array([-0.0, 0.0, 1.5, -1.5, -745.0, 709.0, np.inf,
                           -np.inf, np.nan, 5e-324])


def as_bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 9, 16, 17])
def test_row_max_is_numpys_row_max(k):
    gen = np.random.default_rng(k)
    x = gen.normal(scale=300.0, size=(4000, k))
    special = gen.random(size=x.shape) < 0.4
    x[special] = gen.choice(ROW_MAX_VALUES, size=int(special.sum()))
    x[:4] = [[-0.0] * k, [0.0] * k, [-np.inf] * k, [np.nan] * k]
    got, want = gmm_module._row_max(x)[:, 0], x.max(axis=1)
    # bitwise, except that a tie of 0.0 and -0.0 may keep either sign
    same = as_bits(got) == as_bits(want)
    zero_tie = (got == 0.0) & (want == 0.0)
    assert np.all(same | zero_tie | (np.isnan(got) & np.isnan(want)))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # and the softmax numerator the oracle forms from it has the same bits
    with np.errstate(invalid="ignore"):
        assert np.array_equal(as_bits(np.exp(x - got[:, None])),
                              as_bits(np.exp(x - want[:, None])))


@pytest.mark.parametrize("k,d,full", SPECTRAL_CASES)
def test_components_with_reused_views_are_the_allocating_bits(vp, k, d,
                                                             full):
    gmm = random_mixture(np.random.default_rng(k * d), k, d, [full] * k)
    for n in (0, 1, 300):
        # one set of views, NaN at the start, serves every level in turn
        views = gmm_module._views(
            gmm, np.full(gmm_module._work_size(gmm, n), np.nan), n)
        for t in (vp.t_min, 0.4 * vp.t_max, vp.t_max):
            a, s2 = float(vp.alpha(t)), float(vp.sigma(t)) ** 2
            z = noisy_draws(gmm, vp, t, n, seed=d) if n else np.empty((0, d))
            levels = (gmm_module._level(gmm, a, s2),
                      gmm_module._mean_level(gmm, a, s2))
            # z as the rows-last pass hands it over too: the .T of a (D, n)
            # block
            for rows in (z, np.ascontiguousarray(z.T).T):
                for level in levels:
                    want = gmm_module._components(gmm, level, rows)
                    got = gmm_module._components(gmm, level, rows, views)
                    for g, w in zip(got, want):
                        assert (g is None) == (w is None)
                        if w is not None:
                            assert g.shape == w.shape
                            assert g.tobytes() == w.tobytes()


def level_cases():
    """(K, D, mixture) at K in {1, 3}, D in {1, 2, 16}, diagonal and full."""
    for k in (1, 3):
        for d in (1, 2, 16):
            for full in ((False,) if d == 1 else (False, True)):
                gen = np.random.default_rng(100 * k + d + full)
                yield k, d, random_mixture(gen, k, d, [full] * k)


# parameters and windows that reach lambda = +-20
WIDE_SCHEDULES = {"VP": ({"beta_min": 0.1, "beta_d": 39.9}, 1e-9, 1.0),
                  "VE": ({"sigma_min": 1e-5, "sigma_max": 1e5}, 0.0, 1.0),
                  "iDDPM": ({}, 1e-9, 1.0 - 1e-7),
                  "FM_OT": ({}, 1e-9, 1.0 - 1e-9)}


@pytest.mark.parametrize("name", sorted(WIDE_SCHEDULES))
def test_level_table_rows_are_the_scalar_levels(name):
    default = make_schedule(name)
    wide = make_schedule(name, *WIDE_SCHEDULES[name])
    # the default window's edges and middle, and lambda = +-20
    t = np.array([default.t_min, 0.5 * (default.t_min + default.t_max),
                  default.t_max])
    t_wide = t_of_lambda(wide, np.array([-20.0, 20.0]))
    alpha = np.concatenate([default.alpha(t), wide.alpha(t_wide)])
    sigma = np.concatenate([default.sigma(t), wide.sigma(t_wide)])
    s2 = np.float_power(sigma, 2)
    for k, d, gmm in level_cases():
        tables = (gmm_module._level(gmm, alpha, s2),
                  gmm_module._level(gmm, alpha, s2, joint=False),
                  gmm_module._mean_level(gmm, alpha, s2))
        for i in range(alpha.size):
            a, s = float(alpha[i]), float(sigma[i])
            assert s2[i] == s ** 2
            scalars = (gmm_module._level(gmm, a, s ** 2),
                       gmm_module._level(gmm, a, s ** 2, joint=False),
                       gmm_module._mean_level(gmm, a, s ** 2))
            for table, scalar in zip(tables, scalars):
                for got, want in zip(table.row(i), scalar):
                    assert (got is None) == (want is None)
                    if want is not None:
                        assert got.shape == want.shape == (
                            (k,) if want.ndim == 1 else (k, d))
                        assert got.tobytes() == want.tobytes()
