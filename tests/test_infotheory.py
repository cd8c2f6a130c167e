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
            got = dmi_dlambda(p, 1, mmse_gaussian(S1, p))
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
                got = dkl_dlambda(p, 1, pointwise_mmse_gaussian(S1, [x], p))
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
            assert abs(dmi_dlambda(p, 1, m) - 0.5 * m) <= 1e-9
            pw = pointwise_mmse_gaussian(S1, [0.7], p)
            assert abs(dkl_dlambda(p, 1, pw) - 0.5 * pw) <= 1e-9

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
            got = dmi_dlambda(p, 2, mmse_gaussian(S, p))
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
            "dmi": dmi_dlambda(point, S.shape[0], mmse)}


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
