import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import snrdiff.schedule as schedule_mod
from snrdiff import (
    ConfigError,
    SamplerConfig,
    euler_maruyama_forward,
    make_schedule,
    make_time_grid,
    oracle_score_model,
    sample,
    schedule_from_dict,
    single_gaussian,
    t_of_lambda,
    time_warp,
)

from conftest import (BUILTIN, FAMILY_PARAMS, blended_warp, draw_schedule,
                      interior_grid)

# frozen with arbitrary-precision arithmetic: -2*log(0.01) = log(10000)
VE_LAMBDA_AT_0 = 9.210340371976184


class TestConstruction:
    def test_defaults(self):
        table = {
            "VP": ({"beta_min": 0.1, "beta_d": 19.9}, (1e-3, 1.0)),
            "VE": ({"sigma_min": 0.01, "sigma_max": 50.0}, (0.0, 1.0)),
            "iDDPM": ({"s": 0.008}, (1e-3, 1.0 - 1e-3)),
            "FM_OT": ({}, (1e-3, 1.0 - 1e-3)),
        }
        for name in BUILTIN:
            s = make_schedule(name)
            params, window = table[name]
            assert (s.params, (s.t_min, s.t_max)) == (params, window)
            assert s.to_dict() == {"name": name, "params": params,
                                   "t_min": window[0], "t_max": window[1]}

    def test_vp_full_window_singular(self):
        with pytest.raises(ConfigError):
            make_schedule("VP", t_min=0.0, t_max=1.0)

    def test_unknown_family(self):
        with pytest.raises(ConfigError) as err:
            make_schedule("cosine-squared")
        assert str(err.value) == (
            "unknown schedule family 'cosine-squared'; expected one of "
            "['Custom', 'FM_OT', 'VE', 'VP', 'Warped', 'iDDPM']")

    def test_alias_map(self):
        assert schedule_mod._CANONICAL_NAMES == {
            "vp": "VP", "ve": "VE", "iddpm": "iDDPM", "fm_ot": "FM_OT",
            "fm-ot": "FM_OT", "fmot": "FM_OT", "warped": "Warped",
            "custom": "Custom"}

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


METHODS = ("alpha", "sigma", "lam", "dalpha_dt", "dsigma_dt", "dlambda_dt")


class TestPointValues:
    def test_fm_ot_midpoint(self, fm_ot):
        assert fm_ot.alpha(0.5) == 0.5
        assert fm_ot.sigma(0.5) == 0.5
        assert fm_ot.lam(0.5) == 0.0

    def test_ve_at_zero(self, ve):
        assert ve.alpha(0.0) == 1.0
        np.testing.assert_allclose(ve.sigma(0.0), 0.01, rtol=1e-15)
        np.testing.assert_allclose(ve.lam(0.0), VE_LAMBDA_AT_0, rtol=1e-14)

    def test_vp_log_derivative_at_one(self, vp):
        # d(log alpha)/dt at t=1 is -(beta_d + beta_min)/2 = -10
        np.testing.assert_allclose(vp.dalpha_dt(1.0) / vp.alpha(1.0), -10.0,
                                   rtol=1e-12)

    def test_eval_outside_window(self, vp):
        for method in METHODS:
            for t in (1.5, 1e-5):
                with pytest.raises(ValueError):
                    getattr(vp, method)(t)

    def test_eval_vectorized_matches_scalar(self, any_schedule):
        ts = interior_grid(any_schedule, 7)
        for method in METHODS:
            fn = getattr(any_schedule, method)
            batch = fn(ts)
            for i, t in enumerate(ts):
                assert batch[i] == fn(float(t)), (method, t)


def inside_window(schedule, t) -> bool:
    try:
        schedule._check_t(t)
    except ValueError:
        return False
    return True


class TestWindowCheck:
    """A 0-d time is checked as a float; arrays through ``np.any``.  The two
    give one verdict: edges within 1e-12 pass, NaN passes, infinities and
    anything further out do not."""

    def test_scalar_and_array_verdicts_agree(self, any_schedule):
        lo, hi = any_schedule.t_min, any_schedule.t_max
        mid = 0.5 * (lo + hi)
        cases = {lo: True, hi: True, mid: True, lo - 5e-13: True,
                 hi + 5e-13: True, lo - 2e-12: False, hi + 2e-12: False,
                 -1.0: False, 2.0: False, float("nan"): True,
                 float("inf"): False, float("-inf"): False}
        for t, inside in cases.items():
            forms = [t, np.float64(t), np.array(t), np.array([t]),
                     np.array([mid, t]), np.array([[t], [mid]])]
            assert [inside_window(any_schedule, f) for f in forms] \
                == [inside] * len(forms), t

    def test_scalar_time_reaches_the_family_as_a_0d_array(self, vp):
        t = vp._check_t(0.5)
        assert isinstance(t, np.ndarray) and t.shape == () \
            and t.dtype == float
        assert vp._check_t(np.array([0.5])).shape == (1,)
        assert np.isnan(vp.alpha(float("nan")))


class TestIdentities:
    def test_monotonicity(self, any_schedule):
        ts = np.linspace(any_schedule.t_min, any_schedule.t_max, 1000)
        assert np.all(np.diff(any_schedule.lam(ts)) < 0)
        assert np.all(np.diff(any_schedule.sigma(ts)) > 0)
        assert np.all(any_schedule.dlambda_dt(ts) < 0)

    # Over 300 random schedules per family the largest errors were 1.3e-15
    # (lambda, relative to max(1, |lambda|)) and 7.1e-16 (dlambda/dt,
    # relative).  The inverse t_of_lambda(lam(t)) = t is checked over the
    # same parameter and window ranges by test_snr_space's
    # test_round_trip_over_params_and_windows.
    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @given(data=st.data())
    def test_identities_over_params_and_windows(self, family, data):
        sched = draw_schedule(data, family)
        ts = np.linspace(sched.t_min, sched.t_max, 257)
        a, s, lam = sched.alpha(ts), sched.sigma(ts), sched.lam(ts)
        assert np.all(np.abs(lam - 2.0 * np.log(a / s))
                      <= 1e-13 * np.maximum(1.0, np.abs(lam)))
        dlam = sched.dlambda_dt(ts)
        rhs = 2.0 * (sched.dalpha_dt(ts) / a - sched.dsigma_dt(ts) / s)
        assert np.all(np.abs(dlam - rhs) <= 1e-13 * np.abs(dlam))

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


def ve_as_custom():
    """Built-in VE at its defaults, as a Custom schedule whose alpha and
    dalpha are constant functions that ignore t."""
    smin, smax = 0.01, 50.0
    rate = math.log(smax / smin)
    return make_schedule("Custom", {
        "alpha": lambda t: 1.0,
        "dalpha": lambda t: 0.0,
        "sigma": lambda t: smin * np.exp(rate * t),
        "dsigma": lambda t: rate * smin * np.exp(rate * t),
    }, 0.0, 1.0)


class TestCustomResults:
    """A Custom function's result becomes a float array of t's shape, so a
    constant function serves every caller that a built-in family does."""

    def test_constant_functions_give_arrays_of_t(self):
        s = ve_as_custom()
        ts = np.linspace(0.0, 1.0, 5)
        for method in ("alpha", "dalpha_dt", "lam", "dlambda_dt"):
            out = getattr(s, method)(ts)
            assert isinstance(out, np.ndarray) and out.shape == ts.shape \
                and out.dtype == float and out.flags.writeable
        assert s.alpha(np.array(0.5)).shape == ()

    def test_ve_as_custom_matches_ve(self, ve):
        custom = ve_as_custom()
        ts = np.linspace(0.0, 1.0, 33)
        for t in (ts, 0.25):
            for f in METHODS:
                np.testing.assert_allclose(getattr(custom, f)(t),
                                           getattr(ve, f)(t),
                                           rtol=0.0, atol=1e-12, err_msg=f)
        np.testing.assert_allclose(
            euler_maruyama_forward(custom, 0.3, 50, 2, n_paths=20),
            euler_maruyama_forward(ve, 0.3, 50, 2, n_paths=20),
            rtol=0.0, atol=1e-12)
        model = oracle_score_model(single_gaussian([0.5], [[0.7]]))
        for kind in ("generalized", "kingma", "exact_reference"):
            cfg = SamplerConfig(kind=kind, steps=20, substeps=2, seed=3)
            np.testing.assert_allclose(sample(custom, model, cfg, 50, 1),
                                       sample(ve, model, cfg, 50, 1),
                                       rtol=0.0, atol=1e-12, err_msg=kind)

    @pytest.mark.parametrize("name", ["alpha", "sigma", "dalpha", "dsigma",
                                      "lam", "dlam"])
    def test_result_of_another_shape_is_a_config_error(self, name):
        params = {"alpha": lambda t: 1.0 - 0.5 * t, "sigma": lambda t: t,
                  "dalpha": lambda t: -0.5, "dsigma": lambda t: 1.0}
        params[name] = lambda t: np.ones(3)
        with pytest.raises(ConfigError, match=rf"Custom {name}\(t\) must "
                           r"give a real value or an array of t's shape"):
            make_schedule("Custom", params, 0.05, 0.95)


def recording(schedule, seen: list):
    """``schedule`` with every ``_fns`` entry wrapped to append (entry
    name, argument) to ``seen``."""
    def wrap(name, fn):
        def recorded(x):
            seen.append((name, x))
            return fn(x)
        return recorded
    schedule._fns = {k: wrap(k, f) for k, f in schedule._fns.items()}
    return schedule


def contract_schedule(name):
    if name == "Warped":
        vp = make_schedule("VP")
        return time_warp(vp, *blended_warp(vp))
    return ve_as_custom() if name == "Custom" else make_schedule(name)


class TestScheduleContract:
    """``Schedule._check_t`` is the only conversion of a time: whatever a
    caller passes, every time closure of a family, a warp or a Custom
    schedule receives a float64 ndarray."""

    @pytest.mark.parametrize("name", [*BUILTIN, "Warped", "Custom"])
    def test_every_closure_gets_a_float_array(self, name):
        s = contract_schedule(name)
        seen = []
        recording(s, seen)
        if name == "Warped":
            recording(s.params["inner"], seen)
        lo, hi = s.t_min, s.t_max
        mid = 0.5 * (lo + hi)
        for method in METHODS:
            for t in (mid, np.array(mid), [lo, mid, hi],
                      np.linspace(lo, hi, 4)):
                getattr(s, method)(t)
        lam_lo, lam_hi = s.lambda_range()
        t_of_lambda(s, 0.5 * (lam_lo + lam_hi))
        t_of_lambda(s, np.linspace(lam_lo, lam_hi, 5))
        make_time_grid(s, "uniform_lambda", 4, hi, lo)
        sample(s, oracle_score_model(single_gaussian([0.0], [[1.0]])),
               SamplerConfig(steps=3, seed=1), 4, 1)
        assert {k for k, _ in seen} == set(s._fns)
        # lam_inv takes a lambda, clipped by t_of_lambda: numpy's clip of a
        # 0-d array is a float64 scalar
        bad = [(k, type(x), x.dtype) for k, x in seen
               if x.dtype != np.float64 or not (
                   type(x) is np.ndarray
                   or k == "lam_inv" and type(x) is np.float64)]
        assert not bad
