import numpy as np
import pytest
from hypothesis import given, strategies as st

from snrdiff import (
    ConfigError,
    equivalence_check,
    make_schedule,
    t_of_lambda,
    tilde_eval,
    time_warp,
)
from snrdiff.snr_space import _bisect, _newton

from conftest import FAMILY_PARAMS, blended_warp, draw_schedule

# frozen: -2*log(0.01)
VE_LAMBDA_AT_0 = 9.210340371976184


class TestLambdaInverse:
    def test_fm_ot_center(self, fm_ot):
        np.testing.assert_allclose(t_of_lambda(fm_ot, 0.0), 0.5, atol=1e-12)

    def test_ve_affine_inversion(self, ve):
        # lambda is affine in t for VE; invert the truncated printed value
        t = t_of_lambda(ve, 9.21034)
        lam_exact = VE_LAMBDA_AT_0
        # d lambda/dt = -2 log(sigma_max/sigma_min)
        expected_t = (lam_exact - 9.21034) / (2.0 * np.log(50.0 / 0.01))
        np.testing.assert_allclose(t, expected_t, atol=1e-10)
        assert t < 1e-6

    def test_out_of_range(self, vp):
        with pytest.raises(ValueError):
            t_of_lambda(vp, 100.0)


def relative_residual(schedule, t, lams):
    return np.abs(schedule.lam(t) - lams) / np.maximum(1.0, np.abs(lams))


class TestArrayInverse:
    def test_closed_form_matches_bisection(self, any_schedule):
        lo, hi = any_schedule.lambda_range()
        lams = np.linspace(lo, hi, 2000)
        closed = t_of_lambda(any_schedule, lams)
        assert np.all((closed >= any_schedule.t_min)
                      & (closed <= any_schedule.t_max))
        assert relative_residual(any_schedule, closed, lams).max() <= 1e-13
        fallback = _newton(any_schedule, lams, _bisect(any_schedule, lams))
        np.testing.assert_allclose(closed, fallback, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @given(data=st.data())
    def test_round_trip_over_params_and_windows(self, family, data):
        sched = draw_schedule(data, family)
        ts = np.linspace(sched.t_min, sched.t_max, 257)
        lams = sched.lam(ts)
        back = t_of_lambda(sched, lams)
        assert relative_residual(sched, back, lams).max() <= 1e-13
        np.testing.assert_allclose(back, ts, rtol=0.0, atol=1e-10)

    def test_shapes(self, vp):
        lams = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        t = t_of_lambda(vp, lams)
        assert isinstance(t, np.ndarray) and t.shape == (3, 4)
        for lam, ti in zip(lams.ravel(), t.ravel()):
            got = t_of_lambda(vp, lam)
            assert type(got) is float
            assert got == ti
        assert type(t_of_lambda(vp, np.float64(0.0))) is float

    @pytest.mark.parametrize("bad", [100.0, -100.0, np.nan, np.inf, -np.inf])
    def test_out_of_range_entry_raises(self, vp, bad):
        lams = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(ConfigError, match="lambda=") as info:
            t_of_lambda(vp, lams)
        lo, hi = vp.lambda_range()
        assert str(bad) in str(info.value)
        assert f"[{lo}, {hi}]" in str(info.value)

    def test_warped_schedule_uses_bisection(self, vp):
        warp, dwarp = blended_warp(vp)
        warped = time_warp(vp, warp, dwarp)
        assert "lam_inv" not in warped._fns
        lo, hi = warped.lambda_range()
        lams = np.linspace(lo, hi, 2000)
        t = t_of_lambda(warped, lams)
        assert relative_residual(warped, t, lams).max() <= 1e-12
        np.testing.assert_allclose(warp(t), t_of_lambda(vp, lams),
                                   rtol=1e-12)


class TestTildeEval:
    def test_ve_constant_alpha(self, ve):
        for lam in (-5.0, 0.0, 7.0):
            p = tilde_eval(ve, lam)
            assert p.tilde_alpha == 1.0
            assert p.dtilde_alpha_dlambda == 0.0

    def test_sigma_identity(self, any_schedule):
        lo, hi = any_schedule.lambda_range()
        gen = np.random.default_rng(8)
        for lam in gen.uniform(lo, hi, 100):
            p = tilde_eval(any_schedule, float(lam))
            np.testing.assert_allclose(p.tilde_sigma,
                                       p.tilde_alpha * np.exp(-p.lam / 2),
                                       rtol=1e-12)

    def test_matches_time_domain(self, any_schedule):
        ts = np.linspace(any_schedule.t_min + 1e-4,
                         any_schedule.t_max - 1e-4, 25)
        for t in ts:
            p = tilde_eval(any_schedule, float(any_schedule.lam(t)))
            np.testing.assert_allclose(p.tilde_alpha,
                                       float(any_schedule.alpha(t)),
                                       rtol=1e-10)
            np.testing.assert_allclose(p.tilde_sigma,
                                       float(any_schedule.sigma(t)),
                                       rtol=1e-10)

    def test_alpha_derivative_matches_finite_difference(self, any_schedule):
        lo, hi = any_schedule.lambda_range()
        h = 1e-5
        for lam in np.linspace(lo + 0.1, hi - 0.1, 25):
            p = tilde_eval(any_schedule, float(lam))
            fd = (tilde_eval(any_schedule, lam + h).tilde_alpha
                  - tilde_eval(any_schedule, lam - h).tilde_alpha) / (2 * h)
            np.testing.assert_allclose(p.dtilde_alpha_dlambda, fd,
                                       rtol=1e-5, atol=1e-10)


class TestTimeWarp:
    def test_identity_warp(self, vp):
        warped = time_warp(vp, lambda t: np.asarray(t, float),
                           lambda t: np.ones_like(np.asarray(t, float)))
        ts = np.linspace(vp.t_min, vp.t_max, 50)
        np.testing.assert_array_equal(warped.alpha(ts), vp.alpha(ts))
        np.testing.assert_array_equal(warped.lam(ts), vp.lam(ts))

    def test_composition(self, vp):
        warp, dwarp = blended_warp(vp)
        warped = time_warp(vp, warp, dwarp)
        ts = np.linspace(vp.t_min, vp.t_max, 50)
        np.testing.assert_array_equal(warped.lam(ts), vp.lam(warp(ts)))

    def test_rejects_non_monotone(self, vp):
        lo, hi = vp.t_min, vp.t_max

        def bad(t):
            u = (np.asarray(t, float) - lo) / (hi - lo)
            return lo + (hi - lo) * (u - 0.3 * np.sin(2 * np.pi * u))

        with pytest.raises(ConfigError):
            time_warp(vp, bad, lambda t: np.ones_like(np.asarray(t, float)))

    def test_rejects_moved_endpoints(self, vp):
        with pytest.raises(ConfigError):
            time_warp(vp, lambda t: np.asarray(t, float) ** 2,
                      lambda t: 2.0 * np.asarray(t, float))


class TestEquivalence:
    def test_self_equivalence(self, any_schedule):
        rep = equivalence_check(any_schedule, any_schedule, 50, 1e-10)
        assert rep.equivalent
        assert rep.max_deviation == 0.0

    def test_symmetric(self, vp, ve):
        a = equivalence_check(vp, ve, 50, 1e-10)
        b = equivalence_check(ve, vp, 50, 1e-10)
        assert a.equivalent == b.equivalent

    def test_disjoint_ranges_error(self):
        low = make_schedule("VE", t_min=0.0, t_max=0.1)
        high = make_schedule("VE", t_min=0.9, t_max=1.0)
        with pytest.raises(ValueError):
            equivalence_check(low, high, 50, 1e-10)
