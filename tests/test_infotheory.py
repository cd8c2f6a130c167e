import math
import tracemalloc

import numpy as np
import pytest

from snrdiff import (
    GmmSpec,
    NumericalError,
    dkl_dlambda,
    dmi_dlambda,
    kl_gaussian_conditional,
    kong_point,
    mi_gaussian_closed,
    mmse_gaussian,
    mmse_mc,
    pointwise_mmse_gaussian,
    pointwise_mmse_mc,
    sample_data,
    single_gaussian,
    tilde_eval,
)
from snrdiff import infotheory, rng
from snrdiff.gmm import posterior_mean
from snrdiff.snr_space import t_of_lambda
from snrdiff.verify import check_mc_estimators

# frozen closed forms: 0.5*log(2)
HALF_LOG_TWO = 0.34657359027997264

S1 = np.array([[1.0]])


class TestMmseGaussian:
    def test_unit_variance_at_lambda_zero(self, vp):
        p = tilde_eval(vp, 0.0)
        np.testing.assert_allclose(mmse_gaussian(S1, p), 0.5, rtol=1e-10)

    def test_vanishes_at_high_snr(self, vp):
        lo, hi = vp.lambda_range()
        p = tilde_eval(vp, hi - 1e-6)
        assert mmse_gaussian(S1, p) < 2e-4

    def test_monotone_decreasing_in_lambda(self, vp):
        lo, hi = vp.lambda_range()
        vals = [mmse_gaussian(S1, tilde_eval(vp, lam))
                for lam in np.linspace(lo + 0.1, hi - 0.1, 40)]
        assert all(b < a for a, b in zip(vals[:-1], vals[1:]))

    def test_singular_covariance_rejected(self, vp):
        with pytest.raises(NumericalError):
            mmse_gaussian(np.zeros((2, 2)), tilde_eval(vp, 0.0))

    def test_bounded_by_total_variance(self, vp):
        S = np.array([[1.5, 0.3], [0.3, 0.8]])
        lo, hi = vp.lambda_range()
        for lam in np.linspace(lo + 0.1, hi - 0.1, 20):
            m = mmse_gaussian(S, tilde_eval(vp, lam))
            assert 0.0 <= m <= np.trace(S)


class TestMiGaussianClosed:
    def test_zero_data_variance(self, vp):
        p = tilde_eval(vp, 0.0)
        assert mi_gaussian_closed(np.array([[0.0]]), p) == 0.0

    def test_unit_variance_at_lambda_zero(self, vp):
        p = tilde_eval(vp, 0.0)
        np.testing.assert_allclose(mi_gaussian_closed(S1, p), HALF_LOG_TWO,
                                   rtol=1e-10)

    def test_monotone_increasing(self, vp):
        lo, hi = vp.lambda_range()
        vals = [mi_gaussian_closed(S1, tilde_eval(vp, lam))
                for lam in np.linspace(lo + 0.1, hi - 0.1, 40)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))


class TestMonteCarloEstimators:
    def test_mmse_mc_matches_closed_form(self, vp, unit_gmm):
        lam = 0.8
        est = mmse_mc(unit_gmm, vp, lam, n=20000, seed=5)
        closed = mmse_gaussian(S1, tilde_eval(vp, lam))
        assert abs(est.value - closed) <= 3 * est.stderr

    def test_verify_check_passes(self):
        r = check_mc_estimators()
        assert r.ok, r.detail

    def test_mmse_mc_array_equals_scalar_calls(self, any_schedule):
        gmm = GmmSpec(np.array([0.3, 0.7]), np.array([[-1.0, 0.5], [1.2, 0.0]]),
                      np.array([[[0.6, 0.2], [0.2, 0.4]], np.diag([0.5, 0.8])]))
        lo, hi = any_schedule.lambda_range()
        lams = np.linspace(lo + 0.1, hi - 0.1, 9)
        batch = mmse_mc(gmm, any_schedule, lams, n=300, seed=12)
        scalar = [mmse_mc(gmm, any_schedule, float(lam), n=300, seed=12)
                  for lam in lams]
        assert all(type(e.value) is float and type(e.stderr) is float
                   for e in scalar)
        assert batch.value.shape == batch.stderr.shape == lams.shape
        assert np.array_equal(batch.value, [e.value for e in scalar])
        assert np.array_equal(batch.stderr, [e.stderr for e in scalar])

    def test_point_mass_data(self, vp):
        g = single_gaussian([1.0], [[1e-12]])
        est = mmse_mc(g, vp, 0.0, n=2000, seed=2)
        assert est.value < 1e-10

    def test_mmse_decreasing_in_lambda(self, vp, unit_gmm):
        vals = [mmse_mc(unit_gmm, vp, lam, n=20000, seed=11).value
                for lam in (-3.0, 0.0, 3.0, 6.0)]
        assert all(b < a + 0.02 for a, b in zip(vals[:-1], vals[1:]))

    def test_pointwise_matches_closed_form(self, vp, unit_gmm):
        lam, x = 0.4, [0.9]
        est = pointwise_mmse_mc(unit_gmm, vp, x, lam, n=20000, seed=4)
        closed = pointwise_mmse_gaussian(S1, x, tilde_eval(vp, lam))
        assert abs(est.value - closed) <= 3 * est.stderr

    def test_pointwise_vanishes_at_high_snr(self, vp, unit_gmm):
        lo, hi = vp.lambda_range()
        est = pointwise_mmse_mc(unit_gmm, vp, [1.3], hi - 1e-3, n=1000, seed=6)
        assert est.value < 1e-3

    def test_tower_property(self, vp, unit_gmm):
        # averaging the pointwise closed form over data draws recovers mmse
        lam = 0.3
        p = tilde_eval(vp, lam)
        xs = sample_data(unit_gmm, 4000, seed=8)
        pw = np.array([pointwise_mmse_gaussian(S1, x, p) for x in xs])
        closed = mmse_gaussian(S1, p)
        se = pw.std(ddof=1) / np.sqrt(len(pw))
        assert abs(pw.mean() - closed) <= 4 * se

    def test_tower_property_mixture(self, vp):
        # for mixtures only the MC route exists on both sides
        gmm = GmmSpec(np.array([0.5, 0.5]), np.array([[-1.0], [1.0]]),
                      np.array([[[0.3]], [[0.3]]]))
        lam = 0.0
        xs = sample_data(gmm, 300, seed=9)
        pw = np.array([
            pointwise_mmse_mc(gmm, vp, x, lam, n=2000, seed=100 + i).value
            for i, x in enumerate(xs)
        ])
        est = mmse_mc(gmm, vp, lam, n=50000, seed=10)
        se = pw.std(ddof=1) / np.sqrt(len(pw))
        assert abs(pw.mean() - est.value) <= 4 * np.hypot(se, est.stderr)


class TestDerivativeFormulas:
    def test_dmi_matches_mi_finite_difference(self, any_schedule):
        h = 1e-4
        lo, hi = any_schedule.lambda_range()
        for lam in np.linspace(lo + 10 * h, hi - 10 * h, 50):
            p = tilde_eval(any_schedule, float(lam))
            got = dmi_dlambda(p, mmse_gaussian(S1, p))
            fd = (mi_gaussian_closed(S1, tilde_eval(any_schedule, lam + h))
                  - mi_gaussian_closed(S1, tilde_eval(any_schedule, lam - h))
                  ) / (2 * h)
            assert abs(got - fd) <= 1e-6 * (abs(fd) + 1e-12)

    def test_dkl_matches_kl_finite_difference(self, any_schedule):
        h = 1e-4
        gen = np.random.default_rng(23)
        lo, hi = any_schedule.lambda_range()
        for lam in np.linspace(lo + 10 * h, hi - 10 * h, 5):
            p = tilde_eval(any_schedule, float(lam))
            for x in gen.normal(size=4):
                got = dkl_dlambda(p, pointwise_mmse_gaussian(S1, [x], p))
                fd = (kl_gaussian_conditional(
                          S1, [x], tilde_eval(any_schedule, lam + h))
                      - kl_gaussian_conditional(
                          S1, [x], tilde_eval(any_schedule, lam - h))
                      ) / (2 * h)
                assert abs(got - fd) <= 1e-6 * (abs(fd) + 1e-12)

    def test_sqrt_channel_recovers_half_mmse(self):
        for lam in np.linspace(0.1, 8.0, 40):
            p = kong_point(lam)
            m = mmse_gaussian(S1, p)
            assert abs(dmi_dlambda(p, m) - 0.5 * m) <= 1e-9
            pw = pointwise_mmse_gaussian(S1, [0.7], p)
            assert abs(dkl_dlambda(p, pw) - 0.5 * pw) <= 1e-9

    def test_snr_factor_is_half_snr_on_schedules(self, any_schedule):
        # on a lambda-space curve d snr/d lambda = snr, so the factor is
        # exp(lambda)/2
        lo, hi = any_schedule.lambda_range()
        for lam in np.linspace(lo + 0.2, hi - 0.2, 20):
            p = tilde_eval(any_schedule, float(lam))
            from snrdiff.infotheory import snr_derivative_factor
            np.testing.assert_allclose(snr_derivative_factor(p),
                                       0.5 * np.exp(lam), rtol=1e-9)

    def test_multivariate_consistency(self, vp):
        S = np.array([[1.2, 0.4], [0.4, 0.9]])
        h = 1e-4
        for lam in (-2.0, 0.5, 3.0):
            p = tilde_eval(vp, lam)
            got = dmi_dlambda(p, mmse_gaussian(S, p))
            fd = (mi_gaussian_closed(S, tilde_eval(vp, lam + h))
                  - mi_gaussian_closed(S, tilde_eval(vp, lam - h))) / (2 * h)
            assert abs(got - fd) <= 1e-6 * (abs(fd) + 1e-12)


FIELDS = ("lam", "tilde_alpha", "tilde_sigma", "dtilde_alpha_dlambda",
          "dtilde_sigma_dlambda")


def _curves(point, S):
    """The point's fields and the closed forms evaluated on it."""
    mmse = mmse_gaussian(S, point)
    return {**{f: getattr(point, f) for f in FIELDS}, "mmse": mmse,
            "mi": mi_gaussian_closed(S, point),
            "dmi": dmi_dlambda(point, mmse)}


def _assert_array_is_scalar_calls(array_point, scalar_points, S):
    got = _curves(array_point, S)
    per_lambda = [_curves(p, S) for p in scalar_points]
    for name, values in got.items():
        assert all(type(c[name]) is float for c in per_lambda), name
        expected = np.array([c[name] for c in per_lambda])
        assert values.shape == expected.shape, name
        # bitwise: -0.0 and NaN payloads count too
        assert values.tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("S", [S1, np.array([[1.2, 0.4, 0.1],
                                             [0.4, 0.9, 0.0],
                                             [0.1, 0.0, 0.5]])])
def test_array_points_equal_scalar_points_bitwise(any_schedule, S):
    lams = np.linspace(*any_schedule.lambda_range(), 1999)
    _assert_array_is_scalar_calls(
        tilde_eval(any_schedule, lams),
        [tilde_eval(any_schedule, float(lam)) for lam in lams], S)


def test_array_kong_points_equal_scalar_points_bitwise():
    lams = np.linspace(1e-3, 12.0, 1999)
    _assert_array_is_scalar_calls(
        kong_point(lams), [kong_point(float(lam)) for lam in lams], S1)


# -- the Monte Carlo pass's row blocks ----------------------------------------

def _mixture(k, d, full, seed=0):
    gen = np.random.default_rng(seed)
    if full:
        a = gen.normal(size=(k, d, d))
        covs = a @ a.transpose(0, 2, 1) / d + 0.2 * np.eye(d)
    else:
        covs = np.stack([np.diag(gen.random(d) + 0.1) for _ in range(k)])
    return GmmSpec(np.full(k, 1.0 / k), gen.normal(0.0, 1.5, (k, d)), covs)


MIXTURES = {"d2_full": (2, 2, True), "d16_full": (3, 16, True),
            "d16_diag": (4, 16, False)}


def test_row_blocks_follow_the_block_rule():
    rows = infotheory._MC_ROWS
    assert rows >= 8 and rows & (rows - 1) == 0
    for n in (1, 2, rows - 1, rows, rows + 1, rows + 2, 2 * rows,
              2 * rows + 1, 2 * rows + 5, 3 * rows + 1):
        blocks = infotheory._row_blocks(n)
        assert all(lo % rows == 0 for lo, _ in blocks)
        assert [0, *(hi for _, hi in blocks)] == [*(lo for lo, _ in blocks), n]
        assert n == 1 or min(hi - lo for lo, hi in blocks) > 1
        assert len(blocks) == max(1, -(-(n - 1) // rows))


@pytest.mark.parametrize("mixture", MIXTURES)
@pytest.mark.parametrize("extra", [0, 1, 5])
def test_posterior_mean_on_block_slices_is_bitwise(vp, mixture, extra):
    gmm = _mixture(*MIXTURES[mixture])
    n = 2 * infotheory._MC_ROWS + extra
    z = np.random.default_rng(1).normal(0.0, 2.0, (n, gmm.dim))
    blocks = infotheory._row_blocks(n)
    assert len(blocks) > 1
    for t in t_of_lambda(vp, np.linspace(-5.0, 5.0, 7)):
        whole = posterior_mean(gmm, vp, t, z)
        sliced = np.concatenate([posterior_mean(gmm, vp, t, z[lo:hi])
                                 for lo, hi in blocks])
        assert sliced.tobytes() == whole.tobytes()


@pytest.mark.parametrize("mixture", MIXTURES)
@pytest.mark.parametrize("n", [128, 129, 137, 257])
def test_mc_estimates_do_not_depend_on_block_size(monkeypatch, vp, mixture,
                                                  n):
    # a single row's error moves the mean only now and then, so many lambdas
    gmm = _mixture(*MIXTURES[mixture])
    lams = np.linspace(-5.0, 5.0, 21)
    x = np.linspace(-1.0, 1.0, gmm.dim)

    def estimates():
        batch = mmse_mc(gmm, vp, lams, n, seed=3)
        return [batch.value, batch.stderr, mmse_mc(gmm, vp, 0.3, n, seed=3),
                [pointwise_mmse_mc(gmm, vp, x, lam, n, seed=4)
                 for lam in lams[::4]]]

    default = estimates()
    for rows in (8, 64):
        monkeypatch.setattr(infotheory, "_MC_ROWS", rows)
        assert len(infotheory._row_blocks(n)) > 1
        got = estimates()
        assert [np.asarray(v).tobytes() for v in got] \
            == [np.asarray(v).tobytes() for v in default]


def test_non_finite_mc_estimate_names_lambda_t_and_row(vp):
    gmm = GmmSpec(np.array([0.5, 0.5]), np.array([[1e200, 0.0], [0.0, 0.0]]),
                  np.array([np.eye(2), np.eye(2)]))
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
        mmse_mc(gmm, vp, np.array([-1.0, 1.5]), 200, seed=1)
    assert str(info.value) == (
        f"Monte Carlo MMSE is not finite at lambda=-1.0 "
        f"(t={t_of_lambda(vp, -1.0)}): row 3 has squared error nan")


def test_squared_error_pass_holds_one_block_beyond_its_own_buffers(vp):
    gmm = _mixture(2, 2, True)
    n, d, k = 200_000, gmm.dim, gmm.n_components
    lams = np.array([-2.0, 0.0, 2.0])
    t = t_of_lambda(vp, lams)
    x = sample_data(gmm, n, seed=1)
    tracemalloc.start()
    try:
        infotheory._squared_error_mc(gmm, vp, x, lams, t, n, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = 8 * n * (d + 1)  # eps (n, D) and the squared errors (n,)
    # a block's working set: a few (K, D, rows), (rows, K) and (rows, D)
    # arrays
    block = 8 * infotheory._MC_ROWS * (k * d + k + d)
    assert peak <= own + 6 * block, (peak, own, block)


def reference_squared_error_mc(gmm, schedule, x, lam, t, n, seed):
    """The Monte Carlo pass that the rows-last workspace pass replaced, kept
    as its reference: each block builds z rows first, calls the public
    ``posterior_mean`` and sums the error with ``einsum``."""
    lam, t = np.asarray(lam), np.asarray(t)
    alpha, sigma = schedule.alpha(t), schedule.sigma(t)
    eps = rng.stream(seed, rng.PURPOSE_MC).standard_normal((n, gmm.dim))
    sq = np.empty(n)
    value, stderr = np.empty(t.shape), np.empty(t.shape)
    for i, ti in np.ndenumerate(t):
        for lo, hi in infotheory._row_blocks(n):
            xb = x if x.ndim == 1 else x[lo:hi]
            z = sigma[i] * eps[lo:hi]
            z += alpha[i] * xb
            err = posterior_mean(gmm, schedule, ti, z)
            np.subtract(xb, err, out=err)
            np.einsum("nd,nd->n", err, err, out=sq[lo:hi])
        value[i], stderr[i] = sq.mean(), sq.std(ddof=1) / math.sqrt(n)
    if t.ndim == 0:
        return float(value), float(stderr)
    return value, stderr


PASS_CASES = [(d, k, full) for d in (1, 2, 3, 5, 16) for k in (1, 2, 3, 8)
              for full in ((False,) if d == 1 else (False, True))]


@pytest.mark.parametrize("d,k,full", PASS_CASES)
def test_mc_pass_is_the_reference_pass_bitwise(monkeypatch, fm_ot, d, k,
                                               full):
    gmm = _mixture(k, d, full, seed=d + k)
    lams = np.linspace(-5.0, 5.0, 5)
    t = t_of_lambda(fm_ot, lams)
    x = np.linspace(-1.0, 1.0, d)

    def same(n):
        batch = mmse_mc(gmm, fm_ot, lams, n, seed=3)
        want = reference_squared_error_mc(
            gmm, fm_ot, sample_data(gmm, n, 3), lams, t, n, seed=3)
        assert batch.value.tobytes() == want[0].tobytes()
        assert batch.stderr.tobytes() == want[1].tobytes()
        point = pointwise_mmse_mc(gmm, fm_ot, x, lams[1], n, seed=4)
        want = reference_squared_error_mc(gmm, fm_ot, x, lams[1], t[1], n,
                                          seed=4)
        assert np.array(point).tobytes() == np.array(want).tobytes()

    # two blocks of the default size, the second of two rows
    same(infotheory._MC_ROWS + 2)
    # and small blocks: whole ones, a 1-row tail joined to the one before,
    # and a short last block
    monkeypatch.setattr(infotheory, "_MC_ROWS", 64)
    for n in (100, 128, 129, 130, 200):
        same(n)


@pytest.mark.parametrize("full", [False, True])
def test_mc_pass_makes_no_scalar_schedule_call(scalar_schedule_calls, vp,
                                               full):
    gmm = _mixture(2, 2, full)
    lams = np.linspace(-3.0, 3.0, 4)
    t = t_of_lambda(vp, lams)
    x = sample_data(gmm, 300, seed=1)
    scalar_schedule_calls.counting = True
    infotheory._squared_error_mc(gmm, vp, x, lams, t, 300, seed=2)
    infotheory._squared_error_mc(gmm, vp, x[0], lams[0], t[0], 300, seed=2)
    assert not scalar_schedule_calls.calls
