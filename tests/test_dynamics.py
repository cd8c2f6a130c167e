import numpy as np
import pytest

from snrdiff import (
    DriftDiffusion,
    TransitionKernel,
    backward_drift,
    convert_score_model,
    euler_maruyama_forward,
    forward_coeffs,
    make_schedule,
    oracle_score_model,
    posterior_mean,
    single_gaussian,
    time_warp,
    transition,
)
from snrdiff import NumericalError, rng
from snrdiff.dynamics import ScoreModel, _levels

from conftest import BUILTIN, blended_warp, interior_grid


def reference_forward(schedule, z0, steps, seed, n_paths, zero_noise=False):
    """An independent rebuild of the forward simulator: a scalar coefficient
    call per step, z <- (1 + f dt) z + g sqrt(dt) xi, with step k's draw
    read for all rows by ``row_normals(seed, PURPOSE_FORWARD, k, ...)``.
    Returns the path."""
    z = np.broadcast_to(np.asarray(z0, dtype=float), (n_paths, len(z0)))
    times = np.linspace(schedule.t_min, schedule.t_max, steps + 1)
    path = [z.copy()]
    for k in range(steps):
        t = float(times[k])
        dt = float(times[k + 1] - times[k])
        coeffs = forward_coeffs(schedule, t)
        z = (1.0 + coeffs.f * dt) * z
        if not zero_noise:
            xi = rng.row_normals(seed, rng.PURPOSE_FORWARD, k, 0, n_paths,
                                 len(z0))
            z = z + coeffs.g * np.sqrt(dt) * xi
        path.append(z)
    return np.stack(path)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    # bitwise: -0.0 and NaN payloads count too
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(params=[*BUILTIN, "warped VP"])
def api_schedule(request):
    """The four families and a time-warped VP, which has no closed forms
    beyond its inner schedule's."""
    if request.param == "warped VP":
        vp = make_schedule("VP")
        return time_warp(vp, *blended_warp(vp))
    return make_schedule(request.param)


class TestScalarOrArray:
    def test_array_coeffs_are_the_scalar_calls(self, api_schedule):
        ts = np.linspace(api_schedule.t_min, api_schedule.t_max, 2001)
        got = forward_coeffs(api_schedule, ts)
        scalar = [forward_coeffs(api_schedule, float(t)) for t in ts]
        for field in ("f", "g"):
            assert_same_bits(getattr(got, field),
                             [getattr(c, field) for c in scalar])

    def test_array_transition_is_the_scalar_calls(self, api_schedule):
        gen = np.random.default_rng(5)
        s, t = np.sort(gen.uniform(api_schedule.t_min, api_schedule.t_max,
                                   (1000, 2))).T
        s[:10] = t[:10]  # equal times: the identity kernel
        got = transition(api_schedule, s, t)
        scalar = [transition(api_schedule, float(a), float(b))
                  for a, b in zip(s, t)]
        for field in ("mean_coeff", "variance"):
            assert_same_bits(getattr(got, field),
                             [getattr(k, field) for k in scalar])

    def test_array_shape_is_kept(self, api_schedule):
        ts = np.linspace(api_schedule.t_min, api_schedule.t_max, 12)
        ts = ts.reshape(3, 4)
        c = forward_coeffs(api_schedule, ts)
        k = transition(api_schedule, api_schedule.t_min, ts)
        for value in (c.f, c.g, k.mean_coeff, k.variance):
            assert value.shape == (3, 4)

    @pytest.mark.parametrize("wrap", [float, np.float64, np.asarray],
                             ids=["float", "float64", "0-d"])
    def test_scalar_gives_floats(self, api_schedule, wrap):
        s = wrap(api_schedule.t_min + 0.25 * (api_schedule.t_max
                                               - api_schedule.t_min))
        t = wrap(0.5 * (api_schedule.t_min + api_schedule.t_max))
        c, k = forward_coeffs(api_schedule, t), transition(api_schedule, s, t)
        assert isinstance(c, DriftDiffusion)
        assert isinstance(k, TransitionKernel)
        for value in (c.f, c.g, k.mean_coeff, k.variance):
            assert type(value) is float

    def test_transition_rejects_any_reversed_pair(self, api_schedule):
        lo, hi = api_schedule.t_min, api_schedule.t_max
        s = np.array([lo, 0.6 * hi, 0.5 * hi])
        t = np.array([hi, 0.4 * hi, 0.2 * hi])
        with pytest.raises(ValueError,
                           match=f"s={0.6 * hi} > t={0.4 * hi}"):
            transition(api_schedule, s, t)
        with pytest.raises(ValueError):
            transition(api_schedule, hi, np.array([hi, lo]))


class TestForwardCoeffs:
    def test_ve_has_zero_drift(self, ve):
        for t in (0.0, 0.3, 1.0):
            assert forward_coeffs(ve, t).f == 0.0

    def test_vp_drift_at_one(self, vp):
        np.testing.assert_allclose(forward_coeffs(vp, 1.0).f, -10.0,
                                   rtol=1e-12)

    def test_variance_identity(self, any_schedule):
        # g^2 + 2 f sigma^2 == d(sigma^2)/dt
        for t in interior_grid(any_schedule, 100):
            c = forward_coeffs(any_schedule, float(t))
            s = float(any_schedule.sigma(t))
            ds = float(any_schedule.dsigma_dt(t))
            np.testing.assert_allclose(c.g ** 2 + 2 * c.f * s * s, 2 * s * ds,
                                       rtol=1e-9, atol=1e-12)

    def test_g_squared_matches_lambda_form(self, any_schedule):
        for t in interior_grid(any_schedule, 50):
            c = forward_coeffs(any_schedule, float(t))
            a = float(any_schedule.alpha(t))
            lam = float(any_schedule.lam(t))
            dlam = float(any_schedule.dlambda_dt(t))
            np.testing.assert_allclose(c.g ** 2, -np.exp(-lam) * dlam * a * a,
                                       rtol=1e-12)


class TestTransition:
    def test_identity_at_equal_times(self, any_schedule):
        t = 0.5 * (any_schedule.t_min + any_schedule.t_max)
        k = transition(any_schedule, t, t)
        assert k.mean_coeff == 1.0
        assert k.variance == 0.0

    def test_fm_ot_mean_coeff(self, fm_ot):
        k = transition(fm_ot, 0.4, 0.6)
        np.testing.assert_allclose(k.mean_coeff, 2.0 / 3.0, rtol=1e-15)

    def test_rejects_reversed_times(self, vp):
        with pytest.raises(ValueError):
            transition(vp, 0.6, 0.4)

    def test_variance_positive(self, any_schedule):
        gen = np.random.default_rng(1)
        for _ in range(50):
            s, t = np.sort(gen.uniform(any_schedule.t_min,
                                       any_schedule.t_max, 2))
            assert transition(any_schedule, s, t).variance >= 0.0

    def test_chapman_kolmogorov(self, any_schedule):
        gen = np.random.default_rng(2)
        for _ in range(100):
            r, s, t = np.sort(gen.uniform(any_schedule.t_min,
                                          any_schedule.t_max, 3))
            k_rt = transition(any_schedule, r, t)
            k_rs = transition(any_schedule, r, s)
            k_st = transition(any_schedule, s, t)
            np.testing.assert_allclose(
                k_rt.mean_coeff, k_rs.mean_coeff * k_st.mean_coeff, rtol=1e-10
            )
            np.testing.assert_allclose(
                k_rt.variance,
                k_st.mean_coeff ** 2 * k_rs.variance + k_st.variance,
                rtol=1e-10, atol=1e-13,
            )

    def test_small_step_recovers_coeffs(self, vp):
        # [mean_coeff - 1]/dt -> f and variance/dt -> g^2, first order
        t = 0.52
        c = forward_coeffs(vp, t)
        errs_f, errs_v = [], []
        for dt in (1e-3, 5e-4, 2.5e-4):
            k = transition(vp, t, t + dt)
            errs_f.append(abs((k.mean_coeff - 1.0) / dt - c.f))
            errs_v.append(abs(k.variance / dt - c.g ** 2))
        for errs in (errs_f, errs_v):
            for e0, e1 in zip(errs[:-1], errs[1:]):
                assert 1.7 <= e0 / e1 <= 2.3


class TestScoreModelConversions:
    def test_unit_gaussian_eps_form(self, vp, unit_gmm):
        model = oracle_score_model(unit_gmm)
        eps_model = convert_score_model(model, "eps")
        t = 0.5
        a, s = float(vp.alpha(t)), float(vp.sigma(t))
        z = np.linspace(-2, 2, 9)[:, None]
        np.testing.assert_allclose(eps_model(z, a, s), s * z / (a * a + s * s),
                                   rtol=1e-12)

    def test_round_trip_identity(self, vp, unit_gmm):
        model = oracle_score_model(unit_gmm)
        back = convert_score_model(convert_score_model(model, "eps"), "score")
        z = np.array([[0.3], [-1.4], [2.2]])
        for t in (0.2, 0.6, 0.95):
            at = _levels(vp, t)
            np.testing.assert_allclose(back(z, *at), model(z, *at), rtol=1e-12)

    def test_data_prediction_matches_posterior_mean(self, vp, unit_gmm):
        model = oracle_score_model(unit_gmm)
        data_model = convert_score_model(model, "data")
        z = np.array([[0.7], [-0.2]])
        for t in (0.3, 0.8):
            np.testing.assert_allclose(data_model(z, *_levels(vp, t)),
                                       posterior_mean(unit_gmm, vp, t, z),
                                       rtol=1e-10)

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            ScoreModel(lambda z, alpha, sigma: z, "noise")


class TestBackwardDrift:
    def test_rho_one_is_standard_reverse_drift(self, vp, unit_score):
        z = np.array([[0.9]])
        t = 0.6
        c = forward_coeffs(vp, t)
        score = unit_score(z, *_levels(vp, t))
        expected = c.f * z - c.g ** 2 * score
        np.testing.assert_allclose(backward_drift(vp, unit_score, 1.0, z, t),
                                   expected, rtol=1e-14)

    def test_zero_score_is_pure_contraction(self, vp):
        null = ScoreModel(lambda z, alpha, sigma: np.zeros_like(z), "score")
        z = np.array([[1.7]])
        t = 0.4
        np.testing.assert_allclose(backward_drift(vp, null, 0.7, z, t),
                                   forward_coeffs(vp, t).f * z, rtol=1e-14)

    def test_eps_form_equals_score_form(self, vp, unit_score):
        eps_model = convert_score_model(unit_score, "eps")
        gen = np.random.default_rng(4)
        for _ in range(20):
            z = gen.normal(size=(3, 1))
            t = gen.uniform(0.1, 1.0)
            rho = gen.uniform(0.0, 2.0)
            np.testing.assert_allclose(
                backward_drift(vp, eps_model, rho, z, t),
                backward_drift(vp, unit_score, rho, z, t), rtol=1e-12
            )


class TestForwardSimulation:
    @pytest.mark.parametrize("zero_noise", [False, True],
                             ids=["noise", "zero_noise"])
    def test_matches_the_per_step_loop_bitwise(self, any_schedule,
                                               zero_noise):
        z0 = np.array([1.0, -0.5])
        expected = reference_forward(any_schedule, z0, 200, 13, 1000,
                                     zero_noise)
        z = euler_maruyama_forward(any_schedule, z0, steps=200, seed=13,
                                   n_paths=1000, zero_noise=zero_noise)
        assert_same_bits(z, expected[-1])
        times, path = euler_maruyama_forward(
            any_schedule, z0, steps=200, seed=13, n_paths=1000,
            zero_noise=zero_noise, return_path=True)
        assert_same_bits(path, expected)

    def test_leaves_the_initial_state_alone(self, vp):
        z0 = np.ones((4, 2))
        euler_maruyama_forward(vp, z0, steps=5, seed=1, n_paths=4)
        assert np.array_equal(z0, np.ones((4, 2)))

    def test_single_deterministic_step(self, vp):
        z = euler_maruyama_forward(vp, np.array([2.0]), steps=1, seed=0,
                                   zero_noise=True)
        dt = vp.t_max - vp.t_min
        f0 = forward_coeffs(vp, vp.t_min).f
        np.testing.assert_allclose(z, 2.0 * (1.0 + f0 * dt), rtol=1e-14)

    def test_ve_drift_contributes_nothing(self, ve):
        z = euler_maruyama_forward(ve, np.array([1.5]), steps=64, seed=0,
                                   zero_noise=True)
        np.testing.assert_array_equal(z, [[1.5]])

    def test_deterministic_given_seed(self, vp):
        a = euler_maruyama_forward(vp, np.array([1.0]), steps=50, seed=11,
                                   n_paths=8)
        b = euler_maruyama_forward(vp, np.array([1.0]), steps=50, seed=11,
                                   n_paths=8)
        assert np.array_equal(a, b)

    def test_path_output_shape(self, vp):
        times, path = euler_maruyama_forward(vp, np.array([1.0]), steps=10,
                                             seed=3, n_paths=4,
                                             return_path=True)
        assert times.shape == (11,)
        assert path.shape == (11, 4, 1)
        assert np.array_equal(path[0], np.ones((4, 1)))

    @pytest.mark.parametrize("z0,n_paths,shape", [
        (0.5, 3, (3, 1)),
        ([0.5, -1.0], 3, (3, 2)),
        ([[0.5, -1.0]], 3, (3, 2)),
        ([[0.5], [-1.0], [2.0]], 3, (3, 1)),
        ([[0.5, 1.0], [-1.0, 0.0], [2.0, 3.0]], 3, (3, 2)),
    ], ids=["scalar", "row", "one_row", "column", "full"])
    def test_z0_broadcasts_to_the_paths(self, vp, z0, n_paths, shape):
        z = euler_maruyama_forward(vp, z0, steps=4, seed=2, n_paths=n_paths,
                                   zero_noise=True)
        assert z.shape == shape
        expected = euler_maruyama_forward(
            vp, np.broadcast_to(np.asarray(z0, float), shape).copy(),
            steps=4, seed=2, n_paths=n_paths, zero_noise=True)
        assert_same_bits(z, expected)

    @pytest.mark.parametrize("z0,n_paths,match", [
        (np.zeros((3, 1, 1)), 3, "z0 must have at most 2 dimensions"),
        ([1.0], 0, "n_paths must be >= 1"),
        ([1.0], -1, "n_paths must be >= 1"),
        (np.zeros((2, 1)), 3, "broadcast"),
    ], ids=["3-d", "zero_paths", "negative_paths", "wrong_rows"])
    def test_rejects_inputs_that_do_not_broadcast(self, vp, z0, n_paths,
                                                  match):
        with pytest.raises(ValueError, match=match):
            euler_maruyama_forward(vp, z0, steps=4, seed=2, n_paths=n_paths)

    def test_paths_do_not_depend_on_n_paths(self, vp):
        z0 = np.array([1.0, -0.5])
        wide = euler_maruyama_forward(vp, z0, steps=50, seed=5, n_paths=1000)
        narrow = euler_maruyama_forward(vp, z0, steps=50, seed=5, n_paths=37)
        assert_same_bits(wide[:37], narrow)
        _, wide = euler_maruyama_forward(vp, z0, steps=50, seed=5,
                                         n_paths=1000, return_path=True)
        _, narrow = euler_maruyama_forward(vp, z0, steps=50, seed=5,
                                           n_paths=37, return_path=True)
        assert_same_bits(wide[:, :37], narrow)

    def test_overflow_names_step_interval_and_row(self):
        # alpha grows, so A = 1 + f dt = 1.1 on every step: row 3 starts at
        # 1e300 and overflows near step 200, the other rows stay finite
        growing = make_schedule("Custom", {
            "alpha": lambda t: np.exp(100.0 * t),
            "dalpha": lambda t: 100.0 * np.exp(100.0 * t),
            "sigma": lambda t: np.exp(200.0 * t),
            "dsigma": lambda t: 200.0 * np.exp(200.0 * t),
        }, 0.0, 1.0)
        z0 = np.ones((5, 1))
        z0[3] = 1e300
        times = np.linspace(0.0, 1.0, 1001)
        a = 1.0 + forward_coeffs(growing, times[:-1]).f * np.diff(times)
        big, step = 1e300, 0
        while np.isfinite(big := float(a[step]) * big):
            step += 1
        # forward in time: the step runs from the earlier s to the later t
        message = (rf"^non-finite state at step {step} \(s={times[step]} -> "
                   rf"t={times[step + 1]}\): row 3 holds inf$")
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match=message):
            euler_maruyama_forward(growing, z0, steps=1000, seed=1,
                                   n_paths=5)

    def test_marginal_statistics(self, vp):
        # scaled-down check of the terminal Gaussian law
        n = 20000
        z = euler_maruyama_forward(vp, np.array([1.0]), steps=2000, seed=99,
                                   n_paths=n)[:, 0]
        target_mean = float(vp.alpha(vp.t_max))
        target_var = float(vp.sigma(vp.t_max)) ** 2
        mc_sigma = z.std(ddof=1) / np.sqrt(n)
        assert abs(z.mean() - target_mean) < 3 * mc_sigma
        assert abs(z.var(ddof=1) - target_var) / target_var < 0.02
