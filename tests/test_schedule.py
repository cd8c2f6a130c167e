import json

import numpy as np
import pytest

from snrdiff import (
    ConfigError,
    eval_schedule,
    make_schedule,
    schedule_from_dict,
    snr,
)

from conftest import BUILTIN, interior_grid

# frozen with arbitrary-precision arithmetic: -2*log(0.01) = log(10000)
VE_LAMBDA_AT_0 = 9.210340371976184


class TestConstruction:
    def test_defaults(self):
        windows = {"VP": (1e-3, 1.0), "VE": (0.0, 1.0),
                   "iDDPM": (1e-3, 1.0 - 1e-3), "FM_OT": (1e-3, 1.0 - 1e-3)}
        for name in BUILTIN:
            s = make_schedule(name)
            assert (s.t_min, s.t_max) == windows[name]

    def test_vp_full_window_singular(self):
        with pytest.raises(ConfigError):
            make_schedule("VP", t_min=0.0, t_max=1.0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            make_schedule("cosine-squared")

    def test_unexpected_parameter(self):
        with pytest.raises(ConfigError):
            make_schedule("VE", params={"sigma_min": 0.01, "sigma_mx": 50})

    @pytest.mark.parametrize("value", ["abc", None, True, float("nan"),
                                       float("inf"), [0.1]])
    def test_non_real_parameter(self, value):
        with pytest.raises(ConfigError, match="VP param beta_min"):
            make_schedule("VP", params={"beta_min": value})

    @pytest.mark.parametrize("value", ["abc", True, float("nan")])
    def test_non_real_window(self, value):
        with pytest.raises(ConfigError, match="t_max"):
            make_schedule("VP", t_max=value)

    def test_bad_window_order(self):
        with pytest.raises(ConfigError):
            make_schedule("VP", t_min=0.9, t_max=0.2)

    def test_custom_requires_callables(self):
        with pytest.raises(ConfigError):
            make_schedule("Custom", params={}, t_min=0.1, t_max=0.9)

    def test_custom_schedule_works(self):
        # linear-alpha family, same shape as FM_OT but shifted rate
        s = make_schedule(
            "Custom",
            params={
                "alpha": lambda t: 1.0 - 0.5 * np.asarray(t, float),
                "sigma": lambda t: np.asarray(t, float) + 0.0,
                "dalpha": lambda t: np.full_like(np.asarray(t, float), -0.5),
                "dsigma": lambda t: np.ones_like(np.asarray(t, float)),
            },
            t_min=0.05, t_max=0.95,
        )
        assert float(s.alpha(0.5)) == 0.75
        assert float(s.dlambda_dt(0.5)) < 0


class TestPointValues:
    def test_fm_ot_midpoint(self, fm_ot):
        p = eval_schedule(fm_ot, 0.5)
        assert p.alpha == 0.5
        assert p.sigma == 0.5
        assert p.lam == 0.0

    def test_ve_at_zero(self, ve):
        p = eval_schedule(ve, 0.0)
        assert p.alpha == 1.0
        np.testing.assert_allclose(p.sigma, 0.01, rtol=1e-15)
        np.testing.assert_allclose(p.lam, VE_LAMBDA_AT_0, rtol=1e-14)

    def test_vp_log_derivative_at_one(self, vp):
        # d(log alpha)/dt at t=1 is -(beta_d + beta_min)/2 = -10
        p = eval_schedule(vp, 1.0)
        np.testing.assert_allclose(p.dalpha_dt / p.alpha, -10.0, rtol=1e-12)

    def test_eval_outside_window(self, vp):
        with pytest.raises(ValueError):
            eval_schedule(vp, 1.5)
        with pytest.raises(ValueError):
            eval_schedule(vp, 1e-5)

    def test_eval_vectorized_matches_scalar(self, any_schedule):
        ts = interior_grid(any_schedule, 7)
        batch = eval_schedule(any_schedule, ts)
        for i, t in enumerate(ts):
            one = eval_schedule(any_schedule, float(t))
            for f in ("alpha", "sigma", "lam", "dalpha_dt", "dsigma_dt",
                      "dlambda_dt"):
                assert getattr(batch, f)[i] == getattr(one, f)


class TestSnr:
    def test_fm_ot_midpoint(self, fm_ot):
        assert snr(fm_ot, 0.5) == 1.0

    def test_ve_at_one(self, ve):
        # alpha = 1 and sigma(1) = sigma_max = 50, so snr = 1/2500
        np.testing.assert_allclose(snr(ve, 1.0), 4e-4, rtol=1e-12)

    def test_snr_is_exp_lambda(self, any_schedule):
        ts = np.linspace(any_schedule.t_min, any_schedule.t_max, 50)
        assert np.array_equal(snr(any_schedule, ts),
                              np.exp(any_schedule.lam(ts)))


class TestIdentities:
    def test_lambda_definition(self, any_schedule):
        ts = np.linspace(any_schedule.t_min, any_schedule.t_max, 1000)
        a, s, l = (any_schedule.alpha(ts), any_schedule.sigma(ts),
                   any_schedule.lam(ts))
        np.testing.assert_allclose(l, np.log(a * a / (s * s)),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(s, a * np.exp(-l / 2), rtol=1e-12)

    def test_monotonicity(self, any_schedule):
        ts = np.linspace(any_schedule.t_min, any_schedule.t_max, 1000)
        assert np.all(np.diff(any_schedule.lam(ts)) < 0)
        assert np.all(np.diff(any_schedule.sigma(ts)) > 0)
        assert np.all(any_schedule.dlambda_dt(ts) < 0)

    def test_dlambda_cross_check(self, any_schedule):
        ts = interior_grid(any_schedule, 500)
        lhs = any_schedule.dlambda_dt(ts)
        rhs = 2.0 * (any_schedule.dalpha_dt(ts) / any_schedule.alpha(ts)
                     - any_schedule.dsigma_dt(ts) / any_schedule.sigma(ts))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_derivatives_match_finite_differences(self, any_schedule):
        ts = interior_grid(any_schedule, 200)
        h = 1e-6
        fd_alpha = (any_schedule.alpha(ts + h) - any_schedule.alpha(ts - h)) / (2 * h)
        fd_lam = (any_schedule.lam(ts + h) - any_schedule.lam(ts - h)) / (2 * h)
        np.testing.assert_allclose(any_schedule.dalpha_dt(ts), fd_alpha,
                                   rtol=1e-5, atol=1e-12)
        np.testing.assert_allclose(any_schedule.dlambda_dt(ts), fd_lam,
                                   rtol=1e-5)


class TestSerialization:
    def test_round_trip(self):
        s = make_schedule("VP", params={"beta_min": 0.2}, t_min=0.01, t_max=0.98)
        blob = json.dumps(s.to_dict())
        s2 = schedule_from_dict(json.loads(blob))
        assert s2.name == "VP"
        assert s2.params["beta_min"] == 0.2
        assert s2.params["beta_d"] == 19.9
        assert (s2.t_min, s2.t_max) == (0.01, 0.98)

    def test_custom_not_serializable(self):
        s = make_schedule(
            "Custom",
            params={
                "alpha": lambda t: 1.0 - 0.5 * np.asarray(t, float),
                "sigma": lambda t: np.asarray(t, float) + 0.0,
                "dalpha": lambda t: np.full_like(np.asarray(t, float), -0.5),
                "dsigma": lambda t: np.ones_like(np.asarray(t, float)),
            },
            t_min=0.05, t_max=0.95,
        )
        with pytest.raises(ConfigError):
            s.to_dict()
