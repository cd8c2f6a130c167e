import re
import sys
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import snrdiff.samplers as samplers_mod
from snrdiff import rng
from snrdiff import (
    ConfigError,
    GmmSpec,
    NumericalError,
    SamplerConfig,
    backward_drift,
    convert_score_model,
    forward_coeffs,
    gmm_from_dict,
    make_schedule,
    make_time_grid,
    oracle_score_model,
    sample,
    sampler_config_from_dict,
    single_gaussian,
    step_euler_backward,
    step_generalized,
    step_kingma,
    step_non_markovian,
    t_of_lambda,
)
from snrdiff.dynamics import ScoreModel, _levels
from snrdiff.samplers import non_markovian_beta2
from snrdiff.verify import affine_law

from conftest import BUILTIN, POOL_PREFIX, draw_schedule


class TestGeneralizedStep:
    def test_identity_at_equal_times(self, vp, unit_score):
        z = np.array([[1.3]])
        out = step_generalized(vp, unit_score, z, 0.5, 0.5, 1.0, 0.7, 0.9)
        np.testing.assert_array_equal(out, z)

    def test_kingma_special_case_bitwise(self, vp, unit_score):
        gen = np.random.default_rng(123)
        for _ in range(100):
            t = gen.uniform(0.1, vp.t_max)
            s = gen.uniform(vp.t_min, t)
            z = gen.normal(size=(3, 1))
            eps = gen.normal(size=(3, 1))
            a = step_generalized(vp, unit_score, z, t, s, 1.0, 1.0, 1.0,
                                 eps=eps)
            b = step_kingma(vp, unit_score, z, t, s, eps=eps)
            assert np.array_equal(a, b)

    def test_rho_zero_needs_no_eps(self, vp, unit_score):
        z = np.array([[0.4]])
        out = step_generalized(vp, unit_score, z, 0.8, 0.3, 0.0, 0.5, 1.0)
        assert np.all(np.isfinite(out))

    def test_gamma_minus_one_rejected(self, vp, unit_score):
        with pytest.raises(ValueError):
            step_generalized(vp, unit_score, np.array([[1.0]]), 0.8, 0.3,
                             0.0, -1.0, 1.0)

    def test_negative_delta_warns(self, vp, unit_score):
        with pytest.warns(RuntimeWarning):
            step_generalized(vp, unit_score, np.array([[1.0]]), 0.8, 0.3,
                             1.0, 0.5, -0.2, eps=np.array([[0.1]]))

    def test_continuous_in_gamma(self, vp, unit_score):
        # refining the gamma grid must shrink the largest jump ~linearly
        z = np.array([[0.9]])
        eps = np.array([[0.37]])

        def max_jump(n_points):
            gammas = np.linspace(-0.9, 2.0, n_points)
            outs = np.array([
                step_generalized(vp, unit_score, z, 0.7, 0.4, 1.0, g, 0.95,
                                 eps=eps)[0, 0]
                for g in gammas
            ])
            assert np.all(np.isfinite(outs))
            return np.abs(np.diff(outs)).max()

        coarse, fine = max_jump(60), max_jump(480)
        assert fine < coarse / 4.0


class TestKingmaStep:
    def test_noise_coefficient_vanishes_near_t(self, vp, unit_score):
        # injected-noise magnitude scales like sqrt(dt) toward zero
        z = np.array([[1.0]])
        eps = np.array([[1.0]])
        t = 0.6
        gaps = []
        for dt in (1e-2, 1e-4, 1e-6, 1e-8):
            with_noise = step_kingma(vp, unit_score, z, t, t - dt, eps=eps)
            without = step_kingma(vp, unit_score, z, t, t - dt,
                                  eps=np.zeros((1, 1)))
            gaps.append(float(np.abs(with_noise - without).max()))
        assert all(g1 < g0 for g0, g1 in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] < 1e-3
        for g0, g1 in zip(gaps[:-1], gaps[1:]):
            assert 8.0 <= g0 / g1 <= 12.0  # one decade in dt, half in gap

    def test_small_step_matches_euler_mean(self, vp, unit_score):
        # zero noise draw isolates the O(dt^2) mean agreement
        z = np.array([[0.8]])
        zero = np.zeros((1, 1))
        for t in (0.4, 0.7):
            gaps = []
            for dt in (0.02, 0.01, 0.005):
                a = step_kingma(vp, unit_score, z, t, t - dt, eps=zero)
                b = step_euler_backward(vp, unit_score, z, t, t - dt, 1.0,
                                        eps=zero)
                gaps.append(float(np.abs(a - b).max()))
            for g0, g1 in zip(gaps[:-1], gaps[1:]):
                assert 3.0 <= g0 / g1 <= 5.0


class TestNonMarkovianStep:
    def test_eta_zero_is_deterministic_ddim(self, vp, unit_score):
        z = np.array([[0.9], [-1.4]])
        t, s = 0.7, 0.3
        a_t, a_s = float(vp.alpha(t)), float(vp.alpha(s))
        sigma_t, sigma_s = float(vp.sigma(t)), float(vp.sigma(s))
        x_hat = unit_score.data(z, a_t, sigma_t)
        want = a_s * x_hat + sigma_s * (z - a_t * x_hat) / sigma_t
        got = step_non_markovian(vp, unit_score, z, t, s, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_eta_zero_equals_deterministic_generalized(self, vp, unit_score):
        # the DDIM-style update and the gamma = 0 deterministic step coincide
        gen = np.random.default_rng(12)
        for _ in range(50):
            t = gen.uniform(0.2, vp.t_max)
            s = gen.uniform(vp.t_min, t)
            z = gen.normal(size=(2, 1))
            a = step_non_markovian(vp, unit_score, z, t, s, 0.0)
            b = step_generalized(vp, unit_score, z, t, s, 0.0, 0.0, 1.0)
            np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-13)

    def test_identity_at_equal_times(self, vp, unit_score):
        z = np.array([[0.5]])
        out = step_non_markovian(vp, unit_score, z, 0.6, 0.6, 0.7)
        np.testing.assert_array_equal(out, z)

    def test_beta_clamped_below_sigma_s(self, vp):
        grid = make_time_grid(vp, "uniform_lambda", 25, vp.t_max, vp.t_min)
        for k in range(len(grid) - 1):
            t, s = float(grid[k]), float(grid[k + 1])
            b2 = non_markovian_beta2(vp, s, t, 1.0)
            assert b2 <= float(vp.sigma(s)) ** 2

    def test_affine_propagation_matches_closed_form(self, vp, unit_gmm):
        # with an exact denoiser the eta = 0 step is affine; compare the
        # extracted coefficient against the linear-Gaussian closed form
        model = oracle_score_model(unit_gmm)
        grid = make_time_grid(vp, "uniform_lambda", 40, vp.t_max, vp.t_min)
        probes = np.array([[-2.0], [0.7], [3.1]])
        for k in range(len(grid) - 1):
            t, s = float(grid[k]), float(grid[k + 1])
            a_t, a_s = float(vp.alpha(t)), float(vp.alpha(s))
            s_t, s_s = float(vp.sigma(t)), float(vp.sigma(s))
            shrink = a_t / (a_t ** 2 + s_t ** 2)
            coef = s_s / s_t + (a_s - s_s * a_t / s_t) * shrink
            got = step_non_markovian(vp, model, probes, t, s, 0.0)
            np.testing.assert_allclose(got, coef * probes,
                                       rtol=1e-10, atol=1e-12)


class TestEulerBackward:
    def test_zero_score_zero_noise(self, vp):
        null = ScoreModel(lambda z, alpha, sigma: np.zeros_like(z), "score")
        z = np.array([[1.1]])
        t, s = 0.8, 0.6
        f = forward_coeffs(vp, t).f
        got = step_euler_backward(vp, null, z, t, s, 0.0)
        np.testing.assert_allclose(got, z * (1.0 + f * (s - t)), rtol=1e-14)

    def test_noise_magnitude(self, vp, unit_score):
        z = np.array([[0.2]])
        t, s = 0.7, 0.65
        eps = np.array([[1.0]])
        with_noise = step_euler_backward(vp, unit_score, z, t, s, 1.0, eps=eps)
        without = step_euler_backward(vp, unit_score, z, t, s, 1.0,
                                      eps=np.zeros((1, 1)))
        g = forward_coeffs(vp, t).g
        np.testing.assert_allclose(float((with_noise - without)[0, 0]),
                                   g * np.sqrt(t - s), rtol=1e-12)


@pytest.mark.parametrize("step,args", [
    (step_generalized, (1.0, 0.5, 1.0)),
    (step_kingma, ()),
    (step_non_markovian, (0.5,)),
    (step_euler_backward, (1.0,)),
], ids=["generalized", "kingma", "non_markovian", "euler_backward"])
def test_stochastic_step_without_eps_raises(vp, unit_score, step, args):
    with pytest.raises(ValueError, match="eps"):
        step(vp, unit_score, np.array([[0.4]]), 0.8, 0.3, *args)


def reference_run(schedule, model, t, s, substeps, n=1, seed=5, rho=0.0,
                  gamma=0.0, delta=1.0):
    """kind="exact_reference" over the one interval t -> s: the starting
    state (the prior draw) and the state at s."""
    cfg = SamplerConfig(kind="exact_reference", rho=rho, gamma=gamma,
                        delta=delta, steps=1, t_start=t, t_end=s,
                        substeps=substeps, seed=seed)
    x, _, states = sample(schedule, model, cfg, n=n, d=1,
                          return_trajectories=True)
    return states[0], x


class TestExactReference:
    def test_single_substep_equals_generalized(self, vp, unit_score):
        t, s, seed = 0.8, 0.5, 5
        params = dict(rho=1.0, gamma=1.0, delta=1.0)
        z, a = reference_run(vp, unit_score, t, s, 1, n=3, seed=seed,
                             **params)
        cfg = SamplerConfig(kind="generalized", steps=1, t_start=t, t_end=s,
                            seed=seed, **params)
        np.testing.assert_array_equal(a, sample(vp, unit_score, cfg, n=3, d=1))
        draw = rng.row_normals(seed, rng.PURPOSE_STEP, 0, 0, 3, 1)
        b = step_generalized(vp, unit_score, z, t, s, **params, eps=draw)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_refinement_converges(self, vp, unit_score):
        t, s = 0.9, 0.2
        _, target = reference_run(vp, unit_score, t, s, 1024)
        gaps = []
        for substeps in (1, 4, 16, 64):
            _, approx = reference_run(vp, unit_score, t, s, substeps)
            gaps.append(float(np.abs(approx - target).max()))
        assert all(g1 < g0 for g0, g1 in zip(gaps[:-1], gaps[1:]))

    def test_matches_linear_ode_solution(self, vp, unit_gmm):
        # probability-flow map for N(0, V(t)) data is z * sqrt(V(s)/V(t));
        # one sampler-sized interval resolved by 1000 sub-steps
        model = oracle_score_model(unit_gmm)
        t, s = 0.6, 0.58
        V = lambda u: float(vp.alpha(u)) ** 2 + float(vp.sigma(u)) ** 2
        z, got = reference_run(vp, model, t, s, 1000)
        np.testing.assert_allclose(got, z * np.sqrt(V(s) / V(t)), rtol=1e-6)

    def test_long_interval_error_scales_with_substeps(self, vp, unit_gmm):
        model = oracle_score_model(unit_gmm)
        t, s = 0.9, 0.2
        V = lambda u: float(vp.alpha(u)) ** 2 + float(vp.sigma(u)) ** 2
        errs = []
        for n in (250, 500, 1000, 2000):
            z, got = reference_run(vp, model, t, s, n)
            errs.append(abs(got[0, 0] - z[0, 0] * np.sqrt(V(s) / V(t))))
        # first-order refinement: each doubling roughly halves the error
        for e0, e1 in zip(errs[:-1], errs[1:]):
            assert 1.7 <= e0 / e1 <= 2.3


class TestTimeGrid:
    def test_two_endpoint_grid(self, vp):
        grid = make_time_grid(vp, "uniform_t", 1, 0.9, 0.1)
        np.testing.assert_array_equal(grid, [0.9, 0.1])

    def test_uniform_lambda_symmetry_on_fm_ot(self, fm_ot):
        grid = make_time_grid(fm_ot, "uniform_lambda", 10, fm_ot.t_max,
                              fm_ot.t_min)
        np.testing.assert_allclose(grid + grid[::-1], 1.0, rtol=1e-9)

    def test_decreasing_gaps(self, any_schedule):
        grid = make_time_grid(any_schedule, "uniform_lambda", 37,
                              any_schedule.t_max, any_schedule.t_min)
        assert len(grid) == 38
        assert np.all(np.diff(grid) < 0)
        assert grid[0] == any_schedule.t_max and grid[-1] == any_schedule.t_min

    def test_rejects_non_backward(self, vp):
        with pytest.raises(ValueError):
            make_time_grid(vp, "uniform_t", 5, 0.2, 0.8)

    @pytest.mark.parametrize("grid_kind", ["uniform_t", "uniform_lambda"])
    def test_equal_endpoints_give_one_node(self, vp, grid_kind):
        grid = make_time_grid(vp, grid_kind, 5, 0.8, 0.8)
        np.testing.assert_array_equal(grid, [0.8])

    @pytest.mark.parametrize("t_start,t_end,name,value", [
        (5.0, 0.5, "t_start", 5.0),
        (0.5, 1e-6, "t_end", 1e-6),
        (-1.0, -2.0, "t_start", -1.0),
    ])
    def test_endpoint_outside_window_is_config_error(self, vp, t_start, t_end,
                                                     name, value):
        with pytest.raises(ConfigError,
                           match=rf"{name}={value}: .*\[{vp.t_min}, {vp.t_max}\]"):
            make_time_grid(vp, "uniform_lambda", 5, t_start, t_end)

    @pytest.mark.parametrize("steps", [10, 100, 200])
    def test_uniform_lambda_matches_scalar_bisection(self, any_schedule, steps):
        sched = any_schedule
        grid = make_time_grid(sched, "uniform_lambda", steps, sched.t_max,
                              sched.t_min)
        lams = np.linspace(float(sched.lam(sched.t_max)),
                           float(sched.lam(sched.t_min)), steps + 1)
        ref = np.array([scalar_bisection_t_of_lambda(sched, lam)
                        for lam in lams])
        ref[0], ref[-1] = sched.t_max, sched.t_min
        assert np.all(np.abs(grid - ref) <= 1e-12 * np.abs(ref))


def scalar_bisection_t_of_lambda(schedule, lam):
    """The scalar bisection-plus-Newton inverse that the closed forms
    replaced, kept as the reference for uniform_lambda grids."""
    lam = float(lam)
    lo_lam, hi_lam = schedule.lambda_range()
    tol = 1e-14 * max(1.0, abs(lam))
    lam = min(max(lam, lo_lam), hi_lam)
    a, b = schedule.t_min, schedule.t_max
    fa = float(schedule.lam(a)) - lam
    fb = float(schedule.lam(b)) - lam
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    coarse = 1e-9 * max(1.0, abs(lam))
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = float(schedule.lam(mid)) - lam
        if abs(fm) <= coarse:
            a = b = mid
            break
        if (fa > 0.0) == (fm > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
        if b - a <= 1e-15 * max(1.0, abs(a)):
            break
    t = 0.5 * (a + b)
    best_t, best_resid = t, abs(float(schedule.lam(t)) - lam)
    for _ in range(12):
        resid = float(schedule.lam(t)) - lam
        if abs(resid) < best_resid:
            best_t, best_resid = t, abs(resid)
        if abs(resid) <= tol:
            break
        step = resid / float(schedule.dlambda_dt(t))
        t_new = min(max(t - step, schedule.t_min), schedule.t_max)
        if t_new == t:
            break
        t = t_new
    return best_t


class TestSamplerConfig:
    def test_round_trip(self):
        cfg = SamplerConfig(kind="non_markovian", eta=0.5, steps=64, seed=9)
        back = sampler_config_from_dict(cfg.to_dict())
        assert back == cfg

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            SamplerConfig(kind="heun")

    def test_rejects_bad_eta(self):
        with pytest.raises(ConfigError):
            SamplerConfig(kind="non_markovian", eta=1.5)

    def test_rejects_gamma_minus_one(self, vp, unit_score):
        # the rule lives beside the 1/(1+gamma) division, so it holds for
        # every kind built from the generalized table, exact_reference too
        for kind in ("generalized", "exact_reference"):
            cfg = SamplerConfig(kind=kind, gamma=-1.0, steps=2, substeps=2)
            with pytest.raises(ConfigError, match="gamma = -1 is excluded"):
                sample(vp, unit_score, cfg, n=2, d=1)
        with pytest.raises(ConfigError, match="gamma = -1 is excluded"):
            step_generalized(vp, unit_score, np.zeros((1, 1)), 0.5, 0.4,
                             0.0, -1.0, 1.0)

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            sampler_config_from_dict({"kind": "kingma", "order": 3})

    @pytest.mark.parametrize("field", ["steps", "substeps", "seed"])
    @pytest.mark.parametrize("value", [10.5, 3.0, "7", True, None])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sampler_config_from_dict({field: value})

    @pytest.mark.parametrize("field", ["rho", "gamma", "delta", "eta",
                                       "t_start", "t_end"])
    @pytest.mark.parametrize("value", ["abc", "0.5", True, [0.5],
                                       float("nan"), float("inf"), 10 ** 400])
    def test_rejects_non_real_parameters(self, field, value):
        with pytest.raises(ConfigError, match=field):
            sampler_config_from_dict({field: value})

    @pytest.mark.parametrize("field", ["rho", "gamma", "delta"])
    def test_accepts_integer_and_numpy_reals(self, field):
        assert getattr(SamplerConfig(**{field: 2}), field) == 2
        assert getattr(SamplerConfig(**{field: np.float64(0.5)}), field) == 0.5

    @pytest.mark.parametrize("bounds", [{"t_start": 5.0},
                                        {"t_start": 0.5, "t_end": 1e-6}])
    def test_window_violation_is_config_error(self, vp, unit_score, bounds):
        cfg = SamplerConfig(steps=4, seed=1, **bounds)
        name, value = next((k, v) for k, v in bounds.items()
                           if not vp.t_min <= v <= vp.t_max)
        with pytest.raises(ConfigError,
                           match=rf"{name}={value}: .*\[{vp.t_min}, {vp.t_max}\]"):
            sample(vp, unit_score, cfg, n=4, d=1)


GRAIN = samplers_mod._GRAIN


class TestSampleLoop:
    def test_prior_only_run(self, vp, unit_score):
        cfg = SamplerConfig(kind="generalized", steps=10, seed=21,
                            t_start=0.8, t_end=0.8)
        x = sample(vp, unit_score, cfg, n=5000, d=1)
        sigma = float(vp.sigma(0.8))
        assert abs(x.std(ddof=1) - sigma) < 0.05 * sigma

    def test_same_seed_reproduces(self, vp, unit_score):
        cfg = SamplerConfig(kind="kingma", steps=20, seed=77)
        a = sample(vp, unit_score, cfg, n=64, d=1)
        b = sample(vp, unit_score, cfg, n=64, d=1)
        assert np.array_equal(a, b)

    def test_thread_count_does_not_change_output(self, vp, unit_score,
                                                 split_pools):
        cfg = SamplerConfig(kind="kingma", steps=15, seed=13)
        serial = sample(vp, unit_score, cfg, n=101, d=1, threads=1)
        threaded = sample(vp, unit_score, cfg, n=101, d=1, threads=4)
        assert np.array_equal(serial, threaded)
        assert split_pools == [4]

    @pytest.mark.parametrize("cfg,n,d", [
        # above the real grain, unpatched: one 1-D config and a 2-cell
        # sweep of 2-D rows
        (SamplerConfig(kind="kingma", steps=4, seed=13), 40000, 1),
        ([SamplerConfig(steps=4, seed=13),
          SamplerConfig(steps=4, seed=13, gamma=0.5, delta=0.8)], 10000, 2),
    ], ids=["one_config", "two_cells"])
    def test_thread_count_does_not_change_output_above_grain(
            self, vp, unit_score, cfg, n, d):
        cells = 1 if isinstance(cfg, SamplerConfig) else len(cfg)
        assert samplers_mod._worker_count(3, 3, cells, n, d) == 3
        model = unit_score if d == 1 else oracle_score_model(
            single_gaussian([0.5, -0.5], [[1.0, 0.3], [0.3, 0.6]]))
        runs = [sample(vp, model, cfg, n=n, d=d, threads=threads)
                for threads in (1, 2, 3)]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("threads,cores,cells,n,d,want", [
        (1, 2, 1, 10 * GRAIN, 1, 1),      # one thread asked for
        (2, 2, 1, GRAIN - 1, 1, 1),       # below the grain
        (2, 2, 1, GRAIN, 1, 1),           # at it: one worker's share
        (2, 2, 1, 2 * GRAIN - 1, 1, 1),   # short of two shares
        (2, 2, 1, 2 * GRAIN, 1, 2),       # two shares
        (2, 2, 1, 10 * GRAIN, 1, 2),      # above: capped by threads
        (2, 2, 2, GRAIN, 1, 2),           # cells count toward the values
        (3, 8, 3, GRAIN // 2, 2, 3),      # ... and so does d
        (3, 8, 2, GRAIN // 2, 2, 2),
        (10**5, 2, 1, 10**6, 1, 2),       # capped by the usable cores
        (10**5, 64, 1, 10**6, 1, 64),
        (10**5, 64, 4, 10**6, 1, 64),
        (10**5, 1, 4, 10**6, 1, 1),
        (8, 8, 1, 3, 10 * GRAIN, 3),      # at most one worker per row
        (0, 2, 1, 10 * GRAIN, 1, 1),      # at least one worker
        (-1, 2, 1, 10 * GRAIN, 1, 1),
    ])
    def test_worker_count(self, threads, cores, cells, n, d, want):
        assert samplers_mod._worker_count(threads, cores, cells, n, d) == want

    def test_prefix_stability_under_batch_growth(self, vp, unit_score):
        # row-addressed noise: the first k trajectories do not depend on n
        cfg = SamplerConfig(kind="kingma", steps=8, seed=5)
        small = sample(vp, unit_score, cfg, n=16, d=1)
        large = sample(vp, unit_score, cfg, n=64, d=1)
        assert np.array_equal(small, large[:16])

    def test_non_finite_state_raises(self, vp, split_pools):
        bad = ScoreModel(lambda z, alpha, sigma: np.full_like(z, np.nan),
                         "score")
        cfg = SamplerConfig(kind="generalized", rho=0.0, gamma=0.0, steps=4,
                            seed=1)
        with pytest.raises(NumericalError, match=r"step 0 \(t=1\.0 -> .*row 0 "):
            sample(vp, bad, cfg, n=4, d=1)

        # one bad row in the second of two thread chunks: the message names
        # its global row index
        n, seed = 8, 8
        prior = rng.row_normals(seed, rng.PURPOSE_PRIOR, 0, 0, n, 1)[:, 0]
        row = int(np.argmax(prior))
        assert row >= n // 2
        top = float(vp.sigma(vp.t_max)) * prior[row]
        cfg = SamplerConfig(kind="generalized", rho=0.0, gamma=0.0, steps=4,
                            seed=seed)
        # step 0's sigma, from the array evaluation the step table makes
        first = vp.sigma(make_time_grid(vp, cfg.grid_kind, cfg.steps, vp.t_max,
                                        vp.t_min))[0]
        one_bad = ScoreModel(
            lambda z, alpha, sigma: np.where(z >= top, np.nan, -z)
            if sigma == first else -z, "score")
        with pytest.raises(NumericalError, match=rf"step 0 .*row {row} holds nan"):
            sample(vp, one_bad, cfg, n=n, d=1, threads=2)
        assert split_pools == [2]

        # in a cell sequence the message also names the cell; the cells
        # share the prior, so the state gains its cell axis after step 0
        cell_bad = ScoreModel(
            lambda z, alpha, sigma: np.where(
                np.arange(len(z))[:, None, None] == 1, np.nan, -z)
            if z.ndim == 3 else -z, "score")
        cells = [cfg, replace(cfg, rho=0.5)]
        with pytest.raises(NumericalError,
                           match=r"step 1 \(t=.* -> .*row 0 of cell 1 holds nan"):
            sample(vp, cell_bad, cells, n=4, d=1)

    @pytest.mark.parametrize("config,where", [
        (SamplerConfig(rho=0.0, gamma=0.0, steps=12, seed=4), ""),
        ([SamplerConfig(rho=0.0, gamma=0.0, steps=12, seed=4),
          SamplerConfig(rho=0.0, gamma=0.5, delta=0.8, steps=12, seed=4)],
         " of cell 1"),
        (SamplerConfig(kind="non_markovian", steps=12, seed=4), ""),
    ], ids=["one_config", "two_cells", "non_markovian"])
    def test_failure_message_does_not_depend_on_threads(self, vp, split_pools,
                                                         config, where):
        # the last row goes non-finite at step 3 and row 0 at step 10, so a
        # split pass meets step 10 first in its first span; of two cells,
        # only the last fails.  A zero eps-hat scales every state by
        # alpha_s/alpha_t alone, so the zero-score run's trajectories say
        # which row is which.
        n = 8
        first = config if isinstance(config, SamplerConfig) else config[0]
        null = ScoreModel(lambda z, alpha, sigma: 0.0 * z, "eps")
        _, grid, states = sample(vp, null, first, n=n, d=1,
                                 return_trajectories=True)
        # each step's sigma, from the array evaluation the step table makes
        sigmas = vp.sigma(grid)
        bad_rows = {float(sigmas[3]): states[3, n - 1],
                    float(sigmas[10]): states[10, 0]}

        def eps(z, alpha, sigma):
            bad = z == bad_rows.get(sigma, np.nan)
            if z.ndim == 3:
                bad[:-1] = False
            return np.where(bad, np.nan, 0.0)

        messages = []
        for threads in (1, 2, 3):
            with pytest.raises(NumericalError) as err:
                sample(vp, ScoreModel(eps, "eps"), config, n=n, d=1,
                       threads=threads)
            messages.append(str(err.value))
        assert messages == [messages[0]] * 3
        assert re.match(rf"non-finite state at step 3 \(t=.* -> .*\): "
                        rf"row {n - 1}{where} holds nan$", messages[0])
        assert split_pools == [2, 3]

    def test_trajectories_recorded(self, vp, unit_score):
        # one (steps + 1, n, d) array on the grid: the prior first, x last;
        # exact_reference records its grid nodes, not its sub-steps
        prior = float(vp.sigma(vp.t_max)) * rng.row_normals(
            3, rng.PURPOSE_PRIOR, 0, 0, 5, 1)
        for kind in ("kingma", "exact_reference"):
            cfg = SamplerConfig(kind=kind, steps=6, substeps=3, seed=3)
            x, times, states = sample(vp, unit_score, cfg, n=5, d=1,
                                      return_trajectories=True)
            np.testing.assert_array_equal(
                times, make_time_grid(vp, cfg.grid_kind, 6, vp.t_max,
                                      vp.t_min))
            assert states.shape == (7, 5, 1)
            assert np.array_equal(states[-1], x)
            assert np.array_equal(states[0], prior)

    def test_exact_reference_kind_runs(self, vp, unit_score):
        cfg = SamplerConfig(kind="exact_reference", rho=0.0, gamma=0.0,
                            steps=4, substeps=8, seed=2)
        x = sample(vp, unit_score, cfg, n=16, d=1)
        assert np.all(np.isfinite(x))


# one stochastic config of each kind; exact_reference draws per sub-step
SPLIT_KINDS = {
    "generalized": SamplerConfig(rho=1.0, gamma=0.5, delta=0.8, steps=7,
                                 seed=11),
    "kingma": SamplerConfig(kind="kingma", steps=7, seed=11),
    "non_markovian": SamplerConfig(kind="non_markovian", eta=0.5, steps=7,
                                   seed=11),
    "euler_backward": SamplerConfig(kind="euler_backward", rho=0.5, steps=7,
                                    seed=11),
    "exact_reference": SamplerConfig(kind="exact_reference", steps=3,
                                     substeps=4, seed=11),
}

# (config, n, d, threads, usable cores, trajectories) of passes the real
# rule leaves on one worker: wide stochastic ones, then deterministic ones
# and ones on a single core
WIDE = SamplerConfig(steps=4, grid_kind="uniform_t", seed=3)
ONE_WORKER = {
    "sample_wide": (WIDE, 10000, 1, 2, 2, False),
    "sample_wide_all_threads": (WIDE, 10000, 1, 10**5, 2, False),
    "n4096": (WIDE, 4096, 1, 2, 2, False),
    "d2_trajectories": (WIDE, 2500, 2, 2, 2, True),
    "generalized_rho0": (replace(WIDE, rho=0.0), 10000, 1, 2, 2, False),
    "non_markovian_eta0": (replace(WIDE, kind="non_markovian"), 10000, 1, 2,
                           2, False),
    "euler_backward_rho0": (replace(WIDE, kind="euler_backward", rho=0.0),
                            10000, 1, 2, 2, False),
    "one_core": (WIDE, 10000, 1, 2, 1, False),
    "one_core_all_threads": (WIDE, 10000, 1, 10**5, 1, False),
}


def gaussian_model(d):
    """The oracle of a d-dimensional Gaussian, correlated up to d = 2 and
    diagonal above.  A full covariance's oracle rotates the rows with a
    BLAS product, and at d = 16 its bits depend on how many rows one call
    holds, so a row split would move them whatever the sampler does."""
    cov = 0.5 * np.eye(d) + 0.1
    if d > 2:
        cov = np.diag(cov)
    return oracle_score_model(single_gaussian(np.linspace(-0.5, 0.5, d), cov))


def bounded(*args, **kwargs):
    """``sample(*args, **kwargs)`` on a thread of its own: its result, or its
    exception raised again; fails if it runs for more than a minute."""
    result = {}

    def run():
        try:
            result["value"] = sample(*args, **kwargs)
        except BaseException as exc:  # raised below, in the test's thread
            result["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive(), "sample did not return within a minute"
    if "error" in result:
        raise result["error"]
    return result["value"]


def row_spans(n, workers):
    """The (start, stop) rows of each worker of a pass split ``workers``
    ways, as sample splits them."""
    bounds = np.linspace(0, n, workers + 1).astype(int).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


class TestRowSplit:
    # 23 rows: every worker count below gives spans of unequal size
    @pytest.mark.parametrize("workers", [2, 3, 4, 7])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("kind", list(SPLIT_KINDS))
    def test_split_pass_is_bitwise_the_one_thread_pass(
            self, vp, split_pools, kind, d, workers):
        n, config = 23, SPLIT_KINDS[kind]
        assert len({stop - start for start, stop in row_spans(n, workers)}) > 1
        model = gaussian_model(d)
        serial = sample(vp, model, config, n=n, d=d, threads=1,
                        return_trajectories=True)
        assert split_pools == []
        split = bounded(vp, model, config, n=n, d=d, threads=workers,
                        return_trajectories=True)
        assert split_pools == [workers]
        for a, b in zip(serial, split):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", list(ONE_WORKER))
    def test_one_worker_pass_runs_on_the_calling_thread(
            self, vp, split_pools, monkeypatch, case):
        # the real grain on ``cores`` usable cores: every draw and score call
        # is made by the caller, and no thread is started
        config, n, d, threads, cores, trajectories = ONE_WORKER[case]
        monkeypatch.setattr(samplers_mod, "_GRAIN", GRAIN)
        monkeypatch.setattr(samplers_mod, "_usable_cores", lambda: cores)
        assert samplers_mod._worker_count(threads, cores, 1, n, d) == 1
        callers = set()
        row_normals = rng.row_normals
        model = gaussian_model(d)

        def drawn(*args):
            callers.add(threading.current_thread())
            return row_normals(*args)

        def eps(z, alpha, sigma):
            callers.add(threading.current_thread())
            return model.eps(z, alpha, sigma)

        monkeypatch.setattr(rng, "row_normals", drawn)
        before = threading.enumerate()
        sample(vp, ScoreModel(eps, "eps"), config, n=n, d=d, threads=threads,
               return_trajectories=trajectories)
        assert callers == {threading.current_thread()}
        assert threading.enumerate() == before
        assert split_pools == []

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failing", ["first", "last"])
    @pytest.mark.parametrize("source", ["score", "draw"])
    def test_failure_in_one_worker_propagates_after_every_join(
            self, vp, split_pools, monkeypatch, source, failing, workers):
        # one span's draw or score call raises at step 2; the other workers
        # wait for that before each step, so the exception reaches the
        # caller only if it waits for them to run all their steps and end
        n, steps = 23, 6
        spans = row_spans(n, workers)
        bad = spans[0 if failing == "first" else -1][0]
        failed = threading.Event()
        worker = threading.local()
        scored = []
        row_normals = rng.row_normals
        model = gaussian_model(1)

        def draw(seed, purpose, step, start, stop, d):
            if purpose == rng.PURPOSE_STEP:
                worker.start, worker.step = start, step
                if start != bad:
                    assert failed.wait(timeout=30)
                elif source == "draw" and step == 2:
                    failed.set()
                    raise RuntimeError(f"draw of step {step} failed")
            return row_normals(seed, purpose, step, start, stop, d)

        def eps(z, alpha, sigma):
            if worker.start == bad and source == "score" and worker.step == 2:
                failed.set()
                raise ValueError("score of step 2 failed")
            scored.append(worker.start)
            return model.eps(z, alpha, sigma)

        monkeypatch.setattr(rng, "row_normals", draw)
        with pytest.raises((RuntimeError, ValueError),
                           match=f"{source} of step 2 failed"):
            bounded(vp, ScoreModel(eps, "eps"), SamplerConfig(steps=steps,
                                                              seed=2),
                    n=n, d=1, threads=workers)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith(POOL_PREFIX)]
        assert Counter(scored) == {start: 2 if start == bad else steps
                                   for start, _ in spans}
        assert split_pools == [workers]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_each_worker_draws_each_step_once_under_fast_switching(
            self, vp, split_pools, monkeypatch, workers):
        # switching threads as often as the interpreter allows: a step
        # drawn twice, lost or drawn for another worker's rows would show
        # in the draws or the bits
        n, config = 23, SamplerConfig(steps=300, seed=5)
        model = gaussian_model(1)
        serial = sample(vp, model, config, n=n, d=1)
        draws = []
        row_normals = rng.row_normals

        def drawn(seed, purpose, step, start, stop, d):
            if purpose == rng.PURPOSE_STEP:
                draws.append((start, stop, step, threading.current_thread()))
            return row_normals(seed, purpose, step, start, stop, d)

        monkeypatch.setattr(rng, "row_normals", drawn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = bounded(vp, model, config, n=n, d=1, threads=workers)
        finally:
            sys.setswitchinterval(interval)
        assert split.tobytes() == serial.tobytes()
        for span in row_spans(n, workers):
            own = [draw for draw in draws if draw[:2] == span]
            assert [step for _, _, step, _ in own] == list(range(300))
            assert len({thread for *_, thread in own}) == 1
            assert own[0][3].name.startswith(POOL_PREFIX)
        assert len(draws) == 300 * workers
        assert split_pools == [workers]


class TestMutationHook:
    def test_bracket_flip_breaks_kingma_equality_only(self, vp, unit_score,
                                                      monkeypatch):
        from snrdiff.verify import check_chapman_kolmogorov, check_kingma_reduction
        monkeypatch.setattr(samplers_mod, "_MUTATE_FLIP_EPS_BRACKET", True)
        assert check_chapman_kolmogorov().ok
        assert not check_kingma_reduction().ok

    def test_nan_step_fails_kingma_check(self, monkeypatch):
        from snrdiff import verify
        monkeypatch.setattr(verify, "step_kingma",
                            lambda *args, **kwargs: np.full((1, 1), np.nan))
        result = verify.check_kingma_reduction()
        assert not result.ok
        assert "nan" in result.detail


def _parent_step(schedule, model, kind, cfg, z, t, s, eps):
    """The per-kind step formulas as written before the coefficient table,
    kept as the reference the table must reproduce."""
    alpha_t, alpha_s = float(schedule.alpha(t)), float(schedule.alpha(s))
    sigma_t, sigma_s = float(schedule.sigma(t)), float(schedule.sigma(s))
    lam_t, lam_s = float(schedule.lam(t)), float(schedule.lam(s))
    if kind == "kingma":
        bracket = np.exp(-lam_s) * np.expm1(lam_s - lam_t)
        mean = (alpha_s / alpha_t) * z - alpha_s * bracket \
            * np.exp(0.5 * lam_t) * model.eps(z, alpha_t, sigma_t)
        return mean + alpha_t * np.sqrt(bracket) * (sigma_s / sigma_t) * eps
    if kind == "non_markovian":
        sigma_s2 = sigma_s ** 2
        beta2 = min(max(float(cfg.eta) ** 2 * (sigma_t ** 2 - sigma_s2), 0.0),
                    (1.0 - 1e-9) * sigma_s2)
        x_hat = model.data(z, alpha_t, sigma_t)
        out = alpha_s * x_hat \
            + np.sqrt(sigma_s2 - beta2) * (z - alpha_t * x_hat) / sigma_t
        return out + np.sqrt(beta2) * eps if beta2 > 0.0 else out
    if kind == "euler_backward":
        out = z + backward_drift(schedule, model, cfg.rho, z, t) * (s - t)
        if cfg.rho == 0.0:
            return out
        g = forward_coeffs(schedule, t).g
        return out + cfg.rho * g * np.sqrt(t - s) * eps
    rho, gamma, delta = cfg.rho, cfg.gamma, cfg.delta
    nu = 0.5 * (1.0 + gamma)
    bracket = np.exp(-nu * lam_s) * np.expm1(nu * (lam_s - lam_t))
    coef = (1.0 + rho * rho) / (1.0 + gamma)
    out = (alpha_s / alpha_t) * z + -1.0 * coef * alpha_s * bracket \
        * np.exp(0.5 * gamma * lam_t) * model.eps(z, alpha_t, sigma_t)
    if rho == 0.0:
        return out
    exp_diff = float(np.exp(-lam_s) * np.expm1(lam_s - lam_t))
    return out + (rho * alpha_t * np.sqrt(exp_diff)
                  * (alpha_s / alpha_t) ** (1.0 - delta)
                  * (sigma_s / sigma_t) ** delta) * eps


def _parent_sample(schedule, model, cfg, n, d):
    """A per-step loop over the grid with the same row_normals draws."""
    grid = make_time_grid(schedule, cfg.grid_kind, cfg.steps, schedule.t_max,
                          schedule.t_min)
    z = float(schedule.sigma(schedule.t_max)) * rng.row_normals(
        cfg.seed, rng.PURPOSE_PRIOR, 0, 0, n, d)
    noise = {"kingma": 1.0, "non_markovian": cfg.eta}.get(cfg.kind, cfg.rho)
    sub = cfg.substeps if cfg.kind == "exact_reference" else 1
    for k in range(cfg.steps):
        ts = np.linspace(float(grid[k]), float(grid[k + 1]), sub + 1)
        for j in range(sub):
            eps = (rng.row_normals(cfg.seed, rng.PURPOSE_STEP, k * sub + j,
                                   0, n, d) if noise != 0.0 else None)
            z = _parent_step(schedule, model, cfg.kind, cfg, z, float(ts[j]),
                             float(ts[j + 1]), eps)
    return z


# config and whether the table must match the parent formulas bit for bit:
# it must unless the noise coefficient raises a ratio to a power other than
# 0 or 1 (numpy's array power and libm pow may differ in the last bit) or
# the kind was rewritten from x_hat or score into eps_hat form
PARENT_CASES = {
    "generalized_delta1": (dict(kind="generalized", rho=1.0, gamma=0.8,
                                delta=1.0), True),
    "generalized_delta0": (dict(kind="generalized", rho=0.5, gamma=1.3,
                                delta=0.0), True),
    "generalized_delta07": (dict(kind="generalized", rho=1.0, gamma=1.0,
                                 delta=0.7), False),
    "deterministic": (dict(kind="generalized", rho=0.0, gamma=0.4), True),
    "kingma": (dict(kind="kingma"), True),
    "non_markovian_eta0": (dict(kind="non_markovian", eta=0.0), False),
    "non_markovian_eta06": (dict(kind="non_markovian", eta=0.6), False),
    "euler_rho0": (dict(kind="euler_backward", rho=0.0), False),
    "euler_rho1": (dict(kind="euler_backward", rho=1.0), False),
    "exact_reference": (dict(kind="exact_reference", rho=1.0, gamma=0.5,
                             delta=1.0, substeps=3), True),
}


@pytest.mark.parametrize("grid_kind", ["uniform_t", "uniform_lambda"])
@pytest.mark.parametrize("case", sorted(PARENT_CASES))
def test_sample_matches_parent_step_formulas(any_schedule, grid_kind, case):
    params, bitwise = PARENT_CASES[case]
    gmm = gmm_from_dict({"weights": [0.4, 0.6],
                         "means": [[-1.0, 0.5], [1.2, -0.3]],
                         "covs": [[0.5, 0.8], [[0.6, 0.2], [0.2, 0.4]]]})
    model = oracle_score_model(gmm)
    cfg = SamplerConfig(steps=10, grid_kind=grid_kind, seed=17, **params)
    got = sample(any_schedule, model, cfg, n=6, d=2)
    want = _parent_sample(any_schedule, model, cfg, n=6, d=2)
    if bitwise:
        np.testing.assert_array_equal(got, want)
    else:
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-12, rel


CELL_MIXTURES = {
    "diagonal": {"weights": [0.4, 0.6], "means": [[-1.0, 0.5], [1.2, -0.3]],
                 "covs": [[0.5, 0.8], [0.6, 0.4]]},
    "full": {"weights": [0.3, 0.7], "means": [[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]],
             "covs": [[[1.0, 0.3, 0.1], [0.3, 0.8, 0.2], [0.1, 0.2, 0.5]],
                      [0.4, 0.5, 0.6]]},
}
# (rho, gamma, delta): rho = 0 cells among noisy ones, and deltas whose
# powers numpy special-cases for a scalar exponent (0.5, 2)
CELL_PARAMS = [(0.0, 0.5, 1.0), (1.0, 1.0, 0.5), (0.5, 0.0, 2.0),
               (0.0, 1.3, 0.8), (1.0, -0.5, 1.0)]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", ["generalized", "euler_backward",
                                  "exact_reference", "kingma",
                                  "non_markovian"])
@pytest.mark.parametrize("mixture", sorted(CELL_MIXTURES))
def test_cells_equal_stacked_single_runs(any_schedule, mixture, kind, threads,
                                        split_pools):
    gmm = gmm_from_dict(CELL_MIXTURES[mixture])
    model = oracle_score_model(gmm)
    # eta moves only non_markovian, whose table ignores (rho, gamma, delta)
    base = SamplerConfig(kind=kind, steps=8, substeps=2, seed=23, eta=0.5)
    cells = [replace(base, rho=r, gamma=g, delta=d) for r, g, d in CELL_PARAMS]
    got = sample(any_schedule, model, cells, n=7, d=gmm.dim, threads=threads)
    want = [sample(any_schedule, model, c, n=7, d=gmm.dim) for c in cells]
    np.testing.assert_array_equal(got, np.stack(want))
    assert split_pools == ([2] if threads == 2 else [])


LAMBDA_GMM = {"weights": [0.3, 0.7], "means": [[-1.0, 0.5], [1.2, -0.3]],
              "covs": [[[0.5, 0.2], [0.2, 0.8]], [[0.6, -0.1], [-0.1, 0.4]]]}


def lambda_gap_to_vp(schedule, lams=(-6.0, 6.0), steps=50, n=500, **params):
    """Relative norm gap of x = z/alpha(t_end) between ``schedule`` and VP,
    each run over ``steps`` uniform-lambda steps from lams[0] to lams[1]."""
    gmm = gmm_from_dict(LAMBDA_GMM)
    xs = []
    for sched in (make_schedule("VP"), schedule):
        t_start, t_end = (float(t) for t in t_of_lambda(sched, np.array(lams)))
        cfg = SamplerConfig(steps=steps, grid_kind="uniform_lambda", seed=29,
                            t_start=t_start, t_end=t_end, **params)
        z = sample(sched, oracle_score_model(gmm), cfg, n=n, d=2)
        xs.append(z / float(sched.alpha(t_end)))
    # the norm, not elementwise: near-zero entries reach 1e-11 relative
    return np.linalg.norm(xs[1] - xs[0]) / np.linalg.norm(xs[0])


LAMBDA_INVARIANT = {
    "generalized": dict(kind="generalized", rho=1.0, gamma=0.5, delta=0.5),
    "kingma": dict(kind="kingma"),
    "deterministic": dict(kind="generalized", rho=0.0, gamma=0.5),
    "non_markovian_eta0": dict(kind="non_markovian", eta=0.0),
}


@pytest.mark.parametrize("name", ["VE", "iDDPM", "FM_OT"])
@pytest.mark.parametrize("case", sorted(LAMBDA_INVARIANT))
def test_sample_is_lambda_invariant(case, name):
    gap = lambda_gap_to_vp(make_schedule(name), **LAMBDA_INVARIANT[case])
    assert gap <= 1e-12, gap


@pytest.mark.parametrize("family", BUILTIN)
@settings(max_examples=25)
@given(data=st.data())
def test_sample_is_lambda_invariant_on_drawn_schedules(family, data):
    # any parameters and window, and any lambda endpoints the schedule
    # shares with the default VP
    sched = draw_schedule(data, family)
    (vp_lo, vp_hi), (lo, hi) = (make_schedule("VP").lambda_range(),
                                sched.lambda_range())
    lo, hi = max(lo, vp_lo), min(hi, vp_hi)
    assume(hi > lo)
    lams = (data.draw(st.floats(lo, lo + 0.4 * (hi - lo))),
            data.draw(st.floats(lo + 0.6 * (hi - lo), hi)))
    drawn = data.draw(st.fixed_dictionaries({
        "rho": st.floats(0.0, 2.0), "gamma": st.floats(-0.9, 2.0),
        "delta": st.floats(0.0, 2.0)}))
    for params in (dict(kind="generalized", **drawn), dict(kind="kingma"),
                   dict(kind="non_markovian", eta=0.0)):
        gap = lambda_gap_to_vp(sched, lams, steps=20, n=64, **params)
        assert gap <= 1e-12, (params, gap)


# pinned from below, so a change that makes either invariant shows up:
# beta^2 = eta^2 (sigma_t^2 - sigma_s^2) depends on lambda alone only on
# variance-preserving schedules, and Euler discretizes in t
@pytest.mark.parametrize("name,params,floor", [
    ("VE", dict(kind="non_markovian", eta=1.0), 0.1),
    ("FM_OT", dict(kind="non_markovian", eta=1.0), 0.1),
    ("VE", dict(kind="euler_backward", rho=0.0), 1e-3),
    ("iDDPM", dict(kind="euler_backward", rho=0.0), 1e-3),
    ("FM_OT", dict(kind="euler_backward", rho=0.0), 1e-3),
])
def test_sample_lambda_non_invariance_is_pinned(name, params, floor):
    gap = lambda_gap_to_vp(make_schedule(name), **params)
    assert gap > floor, gap


@pytest.mark.parametrize("change,trajectories,match", [
    ({"steps": 9}, False, "differ only"),
    ({"seed": 24}, False, "differ only"),
    ({"kind": "kingma"}, False, "differ only"),
    ({"eta": 0.5}, False, "differ only"),
    ({"t_end": 0.5}, False, "differ only"),
    ({}, True, "no trajectories"),
    (None, False, "one or more cells"),
])
def test_cells_reject_other_differences_and_trajectories(vp, unit_score,
                                                         change, trajectories,
                                                         match):
    base = SamplerConfig(steps=8, seed=23)
    cells = [] if change is None else [base, replace(base, rho=0.3, **change)]
    with pytest.raises(ValueError, match=match):
        sample(vp, unit_score, cells, n=4, d=1,
               return_trajectories=trajectories)


# the discretised sampler on a 1-D Gaussian target N(mu, nu) under the exact
# oracle: each step is affine in z, so the law stays Gaussian and its two
# moments follow verify.affine_law's recursion over the (A, B, C) table
EXACT_LAW_KINDS = [
    ("generalized", dict(rho=1.0, gamma=0.5, delta=1.0)),
    ("kingma", {}),
    ("non_markovian", dict(eta=0.5)),
    ("euler_backward", dict(rho=1.0)),
]


@pytest.mark.parametrize("kind,params", EXACT_LAW_KINDS,
                         ids=[k for k, _ in EXACT_LAW_KINDS])
def test_sample_follows_the_exact_discrete_law(vp, kind, params):
    mu, nu, n = 0.5, 0.7, 50_000
    cfg = SamplerConfig(kind=kind, steps=20, grid_kind="uniform_t", seed=11,
                        **params)
    grid = make_time_grid(vp, "uniform_t", 20, vp.t_max, vp.t_min)
    table = samplers_mod._affine_table(vp, grid, kind, **params)
    m, v = affine_law(table, 0.0, float(vp.sigma(grid[0])) ** 2, mu, nu)
    x = sample(vp, oracle_score_model(single_gaussian([mu], [[nu]])),
               cfg, n=n, d=1)[:, 0]
    assert abs(x.mean() - m) <= 5.0 * np.sqrt(v / n)
    assert abs(x.var(ddof=1) - v) <= 5.0 * v * np.sqrt(2.0 / (n - 1))


ALL_KINDS = [
    ("generalized", dict(rho=0.8, gamma=0.4, delta=1.1)),
    ("kingma", {}),
    ("non_markovian", dict(eta=0.5)),
    ("euler_backward", dict(rho=1.0)),
    ("exact_reference", dict(rho=0.5, substeps=3)),
]


@pytest.mark.parametrize("kind,params", ALL_KINDS,
                         ids=[k for k, _ in ALL_KINDS])
@pytest.mark.parametrize("gmm", [
    single_gaussian([0.3], [[0.8]]),
    GmmSpec(np.array([0.3, 0.7]), np.array([[-1.0, 0.5], [1.0, 0.0]]),
            np.array([[[0.5, 0.2], [0.2, 0.4]], np.eye(2)])),
], ids=["gaussian_1d", "mixture_2d"])
def test_step_loop_makes_no_scalar_schedule_call(vp, kind, params, gmm,
                                                 scalar_schedule_calls,
                                                 monkeypatch):
    # the oracle reads (alpha, sigma) from the table, not from the schedule
    steps = []
    step = samplers_mod._affine_step

    def counted_step(*args, **kwargs):
        steps.append(args[3])
        scalar_schedule_calls.counting = True
        try:
            return step(*args, **kwargs)
        finally:
            scalar_schedule_calls.counting = False

    monkeypatch.setattr(samplers_mod, "_affine_step", counted_step)
    cfg = SamplerConfig(kind=kind, steps=100, seed=3, **params)
    sample(vp, oracle_score_model(gmm), cfg, n=6, d=gmm.dim)
    # one step per table column, in order
    assert steps == list(range(100 * cfg.substeps
                               ** (kind == "exact_reference")))
    assert scalar_schedule_calls.calls == {}
    # the count is live: the levels asked at a time do call the schedule
    scalar_schedule_calls.counting = True
    oracle_score_model(gmm).eps(np.zeros((2, gmm.dim)), *_levels(vp, 0.5))
    assert scalar_schedule_calls.calls == {"alpha": 1, "sigma": 1}


@pytest.mark.parametrize("grid_kind", ["uniform_t", "uniform_lambda"])
@pytest.mark.parametrize("substeps", [1, 4])
def test_table_levels_are_the_scalar_calls_bits(any_schedule, grid_kind,
                                                substeps):
    # the levels the step hands the score are the bits the score's own
    # scalar schedule calls at t would give
    grid = make_time_grid(any_schedule, grid_kind, 200, any_schedule.t_max,
                          any_schedule.t_min)
    times = samplers_mod._refine(grid, substeps)
    at = samplers_mod._affine_table(any_schedule, times, "kingma")[3]
    assert len(at) == len(times) - 1
    for t, (alpha, sigma) in zip(times[:-1].tolist(), at):
        assert (alpha, sigma) == (float(any_schedule.alpha(t)),
                                  float(any_schedule.sigma(t))), t


@pytest.mark.parametrize("kind,params", ALL_KINDS,
                         ids=[k for k, _ in ALL_KINDS])
def test_eps_converted_oracle_gives_the_oracles_bits(vp, kind, params):
    # every step asks its model for eps_hat at the table's levels: a model
    # converted to the eps tag gives the bits of the oracle's own conversion
    gmm = GmmSpec(np.array([0.3, 0.7]), np.array([[-1.0, 0.5], [1.0, 0.0]]),
                  np.array([[[0.5, 0.2], [0.2, 0.4]], np.eye(2)]))
    oracle = oracle_score_model(gmm)
    eps_model = convert_score_model(oracle, "eps")
    assert eps_model.tag == "eps"
    cfg = SamplerConfig(kind=kind, steps=12, seed=9, **params)
    want = sample(vp, oracle, cfg, n=8, d=2, return_trajectories=True)
    got = sample(vp, eps_model, cfg, n=8, d=2, return_trajectories=True)
    assert got[2].tobytes() == want[2].tobytes()
