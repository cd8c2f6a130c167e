"""Named cross-module invariant checks.

These checks are the one implementation of the package's closed-form
identities as tests: acceptance tests 01-10 in ``tests/test_acceptance.py``
assert them, so every tolerance, grid, sample count and seed lives here.

``run_verify("fast")`` runs the ten exact identities and finite-difference
checks, about 1 s on a 2-core machine.  ``run_verify("full")`` adds the
six Monte Carlo and convergence studies, 25-31 s on the same machine,
almost all of it the 100k-path, 10k-step forward simulation of
``check_forward_marginals``.  Each check is independent and reports a
one-line detail string with its measured numbers, so a failure names
exactly what broke.  A NaN anywhere fails its check: worst-case errors
accumulate with ``np.maximum``, which keeps a NaN that the builtin ``max``
would drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import (
    convert_score_model,
    euler_maruyama_forward,
    forward_coeffs,
    transition,
)
from .gmm import oracle_score_model, posterior_mean, single_gaussian
from .infotheory import (
    dkl_dlambda,
    dmi_dlambda,
    kl_gaussian_conditional,
    kong_point,
    mi_gaussian_closed,
    mmse_gaussian,
    mmse_mc,
    pointwise_mmse_gaussian,
    pointwise_mmse_mc,
)
from .metrics import moment_report
from .samplers import (
    SamplerConfig,
    make_time_grid,
    non_markovian_beta2,
    sample,
    step_euler_backward,
    step_generalized,
    step_kingma,
    step_non_markovian,
)
from .schedule import make_schedule
from .snr_space import equivalence_check, t_of_lambda, tilde_eval, time_warp

BUILTIN_FAMILIES = ("VP", "VE", "iDDPM", "FM_OT")


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __post_init__(self):
        self.ok = bool(self.ok)


def _rel(a, b) -> float:
    """Largest elementwise |a - b| / max(|a|, |b|)."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b) / scale))


def _close(actual, desired, rtol, atol=0.0) -> bool:
    """The criterion of ``numpy.testing.assert_allclose``, NaN failing."""
    err = np.abs(actual - desired)
    return bool(np.all(err <= atol + rtol * np.abs(desired)))


def _interior_grid(sched, n=200, margin=1e-4):
    span = sched.t_max - sched.t_min
    return np.linspace(sched.t_min + margin * span,
                       sched.t_max - margin * span, n)


def _schedules():
    return {name: make_schedule(name) for name in BUILTIN_FAMILIES}


def check_schedule_identities() -> CheckResult:
    worst_lam = worst_sigma = 0.0
    bad = []
    for name, sched in _schedules().items():
        ts = np.linspace(sched.t_min, sched.t_max, 1000)
        a, s, l = sched.alpha(ts), sched.sigma(ts), sched.lam(ts)
        lam_err = np.abs(l - np.log(a * a / (s * s)))
        worst_lam = np.maximum(worst_lam, float(np.max(
            lam_err / np.maximum(np.abs(l), 1e-12))))
        worst_sigma = np.maximum(worst_sigma, _rel(s, a * np.exp(-l / 2)))
        cross = 2.0 * (sched.dalpha_dt(ts) / a - sched.dsigma_dt(ts) / s)
        inner, h = np.concatenate([ts[1:-1], _interior_grid(sched)]), 1e-6
        fd_a = (sched.alpha(inner + h) - sched.alpha(inner - h)) / (2 * h)
        fd_l = (sched.lam(inner + h) - sched.lam(inner - h)) / (2 * h)
        for holds, what in (
            (np.all(np.diff(l) < 0), "lambda not strictly decreasing"),
            (np.all(np.diff(s) > 0), "sigma not strictly increasing"),
            (_close(sched.dlambda_dt(ts), cross, 1e-9),
             "dlambda_dt vs 2 (dalpha/alpha - dsigma/sigma)"),
            (_close(sched.dalpha_dt(inner), fd_a, 1e-5, 1e-10),
             "dalpha_dt vs finite differences"),
            (_close(sched.dlambda_dt(inner), fd_l, 1e-5),
             "dlambda_dt vs finite differences"),
        ):
            if not holds:
                bad.append(f"{name}: {what}")
    detail = (f"lambda identity max rel error {worst_lam:.2e}, sigma identity "
              f"{worst_sigma:.2e} on 1000-point grids")
    return CheckResult("schedule_identities",
                       not bad and worst_lam <= 1e-12 and worst_sigma <= 1e-12,
                       "; ".join([*bad, detail]))


def check_chapman_kolmogorov() -> CheckResult:
    gen = np.random.default_rng(20240817)
    worst = 0.0
    for name, sched in _schedules().items():
        for _ in range(100):
            r, sm, tm = np.sort(gen.uniform(sched.t_min, sched.t_max, 3))
            k_rt = transition(sched, r, tm)
            k_rs = transition(sched, r, sm)
            k_st = transition(sched, sm, tm)
            worst = np.maximum(worst, _rel(k_rt.mean_coeff,
                                           k_rs.mean_coeff * k_st.mean_coeff))
            composed = k_st.mean_coeff ** 2 * k_rs.variance + k_st.variance
            worst = np.maximum(worst, _rel(k_rt.variance, composed))
    return CheckResult("chapman_kolmogorov", worst <= 1e-10,
                       f"composition max rel error {worst:.2e} "
                       "(100 random triples per schedule)")


def check_forward_variance_identity() -> CheckResult:
    worst = 0.0
    for name, sched in _schedules().items():
        for t in _interior_grid(sched):
            c = forward_coeffs(sched, float(t))
            s = float(sched.sigma(t))
            lhs = c.g ** 2 + 2.0 * c.f * s * s
            rhs = 2.0 * s * float(sched.dsigma_dt(t))
            worst = np.maximum(worst, _rel(lhs, rhs))
    return CheckResult("forward_variance_identity", worst <= 1e-9,
                       f"max residual {worst:.2e}")


def check_score_conversions() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.4], [[1.3]])
    model = oracle_score_model(gmm, sched)
    gen = np.random.default_rng(7)
    z = gen.normal(size=(50, 1))
    worst = 0.0
    for t in (0.2, 0.5, 0.9):
        eps_model = convert_score_model(model, "eps", sched)
        back = convert_score_model(eps_model, "score", sched)
        worst = np.maximum(worst, _rel(model(z, t), back(z, t)))
        x_hat = convert_score_model(model, "data", sched)(z, t)
        worst = np.maximum(worst,
                           _rel(x_hat, posterior_mean(gmm, sched, t, z)))
    return CheckResult("score_conversions", worst <= 1e-10,
                       f"round-trip/Tweedie error {worst:.2e}")


def _step_inputs(sched, seed):
    """100 random (t, s, z, eps) with s < t, in a fixed draw order."""
    gen = np.random.default_rng(seed)
    inputs = []
    for _ in range(100):
        t = gen.uniform(0.1, sched.t_max)
        s = gen.uniform(sched.t_min, t)
        inputs.append((t, s, gen.normal(size=(1, 1)), gen.normal(size=(1, 1))))
    return inputs


def check_kingma_reduction() -> CheckResult:
    sched = make_schedule("VP")
    model = oracle_score_model(single_gaussian([0.0], [[1.0]]), sched)
    worst = 0.0
    for seed in (123, 11):
        for t, s, z, eps in _step_inputs(sched, seed):
            a = step_generalized(sched, model, z, t, s, 1.0, 1.0, 1.0, eps=eps)
            b = step_kingma(sched, model, z, t, s, eps=eps)
            worst = np.maximum(worst, _rel(b, a))
    return CheckResult("kingma_reduction", worst <= 1e-12,
                       f"kingma reduction {worst:.2e} (200 random inputs)")


def _deterministic_step(sched, model, z, t, s, gamma):
    """The closed-form rho = 0 update of the generalized backward equation."""
    lam_t, lam_s = float(sched.lam(t)), float(sched.lam(s))
    a_t, a_s = float(sched.alpha(t)), float(sched.alpha(s))
    nu = 0.5 * (1.0 + gamma)
    bracket = np.exp(-nu * lam_t) - np.exp(-nu * lam_s)
    return (a_s / a_t) * z - (1.0 / (1.0 + gamma)) * a_s * bracket \
        * np.exp(0.5 * gamma * lam_t) * model.eps(sched, z, t)


def check_deterministic_reduction() -> CheckResult:
    # rho = 0 must reproduce the closed deterministic update for any gamma:
    # on VP at gamma = 0 (the kingma inputs) and on FM_OT at random gamma
    vp = make_schedule("VP")
    model = oracle_score_model(single_gaussian([0.0], [[1.0]]), vp)
    worst_vp = np.max([
        _rel(step_generalized(vp, model, z, t, s, 0.0, 0.0, 1.0),
             _deterministic_step(vp, model, z, t, s, 0.0))
        for t, s, z, _ in _step_inputs(vp, 123)])
    fm = make_schedule("FM_OT")
    model = oracle_score_model(single_gaussian([0.2], [[0.8]]), fm)
    gen = np.random.default_rng(13)
    worst_fm = 0.0
    for _ in range(100):
        t = gen.uniform(0.3, fm.t_max)
        s = gen.uniform(fm.t_min, t)
        gamma = gen.uniform(-0.9, 2.0)
        z = gen.normal(size=(1, 1))
        got = step_generalized(fm, model, z, t, s, 0.0, gamma, 1.0)
        expected = _deterministic_step(fm, model, z, t, s, gamma)
        worst_fm = np.maximum(worst_fm, _rel(got, expected))
    return CheckResult("deterministic_reduction",
                       worst_vp <= 1e-12 and worst_fm <= 1e-12,
                       f"deterministic reduction {worst_vp:.2e} (VP, "
                       f"gamma=0), {worst_fm:.2e} (FM_OT, random gamma)")


def check_lambda_inverse() -> CheckResult:
    gen = np.random.default_rng(17)
    worst = 0.0
    for name, sched in _schedules().items():
        ts = gen.uniform(sched.t_min, sched.t_max, 100)
        t_back = t_of_lambda(sched, sched.lam(ts))
        worst = np.maximum(worst, float(np.max(np.abs(t_back - ts))))
    return CheckResult("lambda_inverse", worst <= 1e-10,
                       f"max round-trip error {worst:.2e}")


def check_schedule_equivalence() -> CheckResult:
    vp = make_schedule("VP")
    lo, hi = vp.t_min, vp.t_max

    def warp(t):
        u = (np.asarray(t, float) - lo) / (hi - lo)
        return lo + (hi - lo) * (0.6 * u + 0.4 * u * u)

    def dwarp(t):
        u = (np.asarray(t, float) - lo) / (hi - lo)
        return 0.6 + 0.8 * u

    same = equivalence_check(vp, time_warp(vp, warp, dwarp), 200, 1e-10)
    diff = equivalence_check(vp, make_schedule("VE"), 200, 1e-10)
    return CheckResult(
        "schedule_equivalence", same.equivalent and not diff.equivalent,
        f"warped-VP max deviation {same.max_deviation:.2e}; VP-vs-VE max "
        f"deviation {diff.max_deviation:.2e} "
        f"({'accepted' if diff.equivalent else 'rejected'})"
    )


def check_info_derivatives() -> CheckResult:
    S = np.array([[1.0]])
    h = 1e-4
    worst_mi, worst_kl = 0.0, 0.0
    gen = np.random.default_rng(23)

    def central_difference(f, sched, lam):
        return (f(tilde_eval(sched, lam + h))
                - f(tilde_eval(sched, lam - h))) / (2 * h)

    for name, sched in _schedules().items():
        lo, hi = sched.lambda_range()
        lams = np.linspace(lo + 10 * h, hi - 10 * h, 50)
        p = tilde_eval(sched, lams)
        fd = central_difference(lambda q: mi_gaussian_closed(S, q), sched, lams)
        got = dmi_dlambda(p, 1, mmse_gaussian(S, p))
        worst_mi = np.maximum(worst_mi, np.max(
            np.abs(got - fd) / np.maximum(np.abs(fd), 1e-12)))
        for lam in np.linspace(lo + 10 * h, hi - 10 * h, 5):
            p = tilde_eval(sched, float(lam))
            for x in gen.normal(size=4):
                fd = central_difference(
                    lambda q: kl_gaussian_conditional(S, [x], q), sched, lam)
                got = dkl_dlambda(p, 1, pointwise_mmse_gaussian(S, [x], p))
                worst_kl = np.maximum(worst_kl,
                                      abs(got - fd) / max(abs(fd), 1e-12))
    p = kong_point(np.concatenate([np.linspace(0.1, 8.0, 40),
                                   np.linspace(0.2, 6.0, 30)]))
    m = mmse_gaussian(S, p)
    worst_kong = np.max(np.abs(dmi_dlambda(p, 1, m) - 0.5 * m))
    return CheckResult(
        "info_derivatives",
        worst_mi <= 1e-6 and worst_kl <= 1e-6 and worst_kong <= 1e-9,
        f"dMI {worst_mi:.2e}, dKL {worst_kl:.2e} vs central differences; "
        f"sqrt-channel residual {worst_kong:.2e}"
    )


def check_forward_drift_only() -> CheckResult:
    sched = make_schedule("VP")
    z0 = np.array([1.0])
    z = euler_maruyama_forward(sched, z0, steps=1, seed=0, zero_noise=True)
    dt = sched.t_max - sched.t_min
    f0 = forward_coeffs(sched, sched.t_min).f
    expected = z0 * (1.0 + f0 * dt)
    err = _rel(z, expected)
    return CheckResult("forward_drift_only", err <= 1e-12,
                       f"one-step drift error {err:.2e}")


def check_asymptotic_recovery() -> CheckResult:
    bad, checked = [], 0
    for name, sched in _schedules().items():
        span = sched.t_max - sched.t_min
        for t in (sched.t_min + 0.31 * span, sched.t_min + 0.67 * span):
            c = forward_coeffs(sched, t)
            errs_f, errs_v = [], []
            for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
                k = transition(sched, t, t + dt)
                errs_f.append(abs((k.mean_coeff - 1.0) / dt - c.f))
                errs_v.append(abs(k.variance / dt - c.g ** 2))
            for errs, label, scale in ((errs_f, "f", max(1.0, abs(c.f))),
                                       (errs_v, "g2", max(1.0, c.g ** 2))):
                if np.max(errs) <= 1e-10 * scale:
                    # difference quotient exact (VE drift, FM_OT linear alpha)
                    continue
                for e0, e1 in zip(errs[:-1], errs[1:]):
                    checked += 1
                    if not 1.7 <= e0 / e1 <= 2.3:
                        bad.append(f"{name}/{label}@t={t:.3f}: "
                                   f"ratio {e0 / e1:.2f}")
    return CheckResult("asymptotic_recovery", not bad, "; ".join(bad)
                       or f"{checked} Richardson ratios all in [1.7, 2.3]")


def check_order_of_accuracy() -> CheckResult:
    sched = make_schedule("VP")
    model = oracle_score_model(single_gaussian([0.0], [[1.0]]), sched)
    z = np.array([[0.8]])
    ratios = []
    for t in (0.35, 0.6, 0.8):
        gaps = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            a = step_generalized(sched, model, z, t, t - dt, 0.0, 0.0, 1.0)
            b = step_euler_backward(sched, model, z, t, t - dt, 0.0)
            gaps.append(float(np.abs(a - b).max()))
        ratios += [g0 / g1 for g0, g1 in zip(gaps[:-1], gaps[1:])]
    return CheckResult("order_of_accuracy",
                       all(3.0 <= r <= 5.0 for r in ratios),
                       "one-step gap Richardson ratios "
                       + ", ".join(f"{r:.2f}" for r in ratios))


def check_forward_marginals() -> CheckResult:
    sched = make_schedule("VP")
    n, steps = 100_000, 10_000
    z = euler_maruyama_forward(sched, np.array([1.0]), steps=steps, seed=7,
                               n_paths=n)[:, 0]
    mean_target = float(sched.alpha(sched.t_max))
    var_target = float(sched.sigma(sched.t_max)) ** 2
    mc_sigma = z.std(ddof=1) / np.sqrt(n)
    mean_err = abs(z.mean() - mean_target)
    var_err = abs(z.var(ddof=1) - var_target) / var_target
    return CheckResult(
        "forward_marginals", mean_err <= 3 * mc_sigma and var_err <= 0.02,
        f"mean err {mean_err:.2e} vs 3 MC-sigma {3 * mc_sigma:.2e}; "
        f"variance rel err {var_err:.3%}"
    )


def check_end_to_end_deterministic() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.0], [[1.0]])
    model = oracle_score_model(gmm, sched)
    n = 10_000
    errs, mean_errs = [], []
    for steps in (25, 50, 100, 200):
        cfg = SamplerConfig(kind="generalized", rho=0.0, gamma=0.0,
                            steps=steps, grid_kind="uniform_lambda", seed=3)
        rep = moment_report(sample(sched, model, cfg, n=n, d=1), gmm)
        errs.append(rep.cov_frobenius_error)
        mean_errs.append(rep.mean_error_l2)
    floor = np.sqrt(2.0 / n)
    monotone = all(e1 <= e0 or e1 <= floor
                   for e0, e1 in zip(errs[:-1], errs[1:]))
    return CheckResult(
        "end_to_end_deterministic",
        monotone and errs[-1] < 0.02 and mean_errs[-1] < 0.02,
        "cov errors 25->200 steps: " + ", ".join(f"{e:.4f}" for e in errs)
        + f"; final mean err {mean_errs[-1]:.4f}"
    )


def check_non_markovian_affine() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.0], [[1.0]])
    model = oracle_score_model(gmm, sched)
    # with an exact denoiser the eta = 0 step is z -> coef * z: check the
    # stepper's coefficient and the variance it carries from t_max to t_min,
    # which is the data variance 1
    worst, bad = 0.0, []
    for steps, probes in ((50, np.array([[-1.7], [0.3], [2.2]])),
                          (200, np.array([[-2.0], [0.7], [3.1]]))):
        grid = make_time_grid(sched, "uniform_lambda", steps, sched.t_max,
                              sched.t_min)
        var = float(sched.sigma(sched.t_max)) ** 2
        for k in range(steps):
            t, s = float(grid[k]), float(grid[k + 1])
            a_t, a_s = float(sched.alpha(t)), float(sched.alpha(s))
            s_t, s_s = float(sched.sigma(t)), float(sched.sigma(s))
            shrink = a_t / (a_t ** 2 + s_t ** 2)  # d x_hat / d z
            coef = s_s / s_t + (a_s - s_s * a_t / s_t) * shrink
            got = step_non_markovian(sched, model, probes, t, s, 0.0)
            worst = np.maximum(worst,
                               float(np.max(np.abs(got - coef * probes))))
            var = coef * coef * var
        # 50 steps are too coarse to carry it to within 0.05 (they reach 0.91)
        if steps == 200 and not abs(var - 1.0) < 0.05:
            bad.append(f"{steps} steps carry variance {var:.4f} to t_min")
    # on 200 steps, beta^2 stays below sigma^2(s) and eta > 0 costs at most
    # 2x the eta = 0 moment errors
    grid = make_time_grid(sched, "uniform_lambda", 200, sched.t_max,
                          sched.t_min)
    errs = {}
    for eta in (0.0, 0.5, 1.0):
        beta2 = non_markovian_beta2(sched, grid[1:], grid[:-1], eta)
        if not np.all(beta2 <= sched.sigma(grid[1:]) ** 2):
            bad.append(f"eta={eta}: beta^2 > sigma_s^2")
        cfg = SamplerConfig(kind="non_markovian", eta=eta, steps=200, seed=5)
        rep = moment_report(sample(sched, model, cfg, n=10_000, d=1), gmm)
        errs[eta] = np.array([rep.cov_frobenius_error, rep.mean_error_l2])
    for eta in (0.5, 1.0):
        if not np.all(errs[eta] <= 2.0 * errs[0.0]):
            bad.append(f"eta={eta}: moment errors above 2x eta=0")
    detail = (f"affine propagation max dev {worst:.2e}; cov errs "
              f"eta0={errs[0.0][0]:.4f}, eta05={errs[0.5][0]:.4f}, "
              f"eta1={errs[1.0][0]:.4f}")
    return CheckResult("non_markovian_affine", not bad and worst <= 1e-10,
                       "; ".join([*bad, detail]))


def check_mc_estimators() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.0], [[1.0]])
    lam = 0.5
    p = tilde_eval(sched, lam)
    closed = mmse_gaussian(np.array([[1.0]]), p)
    est = mmse_mc(gmm, sched, lam, 20000, seed=5)
    ok = abs(est.value - closed) <= 3 * est.stderr
    pw = pointwise_mmse_mc(gmm, sched, [0.7], lam, 20000, seed=6)
    pw_closed = pointwise_mmse_gaussian(np.array([[1.0]]), [0.7], p)
    ok = ok and abs(pw.value - pw_closed) <= 3 * pw.stderr
    return CheckResult(
        "mc_estimators", ok,
        f"mmse {est.value:.4f} vs {closed:.4f} (se {est.stderr:.4f}); "
        f"pointwise {pw.value:.4f} vs {pw_closed:.4f} (se {pw.stderr:.4f})"
    )


FAST_CHECKS: list[Callable[[], CheckResult]] = [
    check_schedule_identities,
    check_chapman_kolmogorov,
    check_forward_variance_identity,
    check_score_conversions,
    check_kingma_reduction,
    check_deterministic_reduction,
    check_lambda_inverse,
    check_schedule_equivalence,
    check_info_derivatives,
    check_forward_drift_only,
]

FULL_CHECKS: list[Callable[[], CheckResult]] = FAST_CHECKS + [
    check_asymptotic_recovery,
    check_order_of_accuracy,
    check_forward_marginals,
    check_end_to_end_deterministic,
    check_non_markovian_affine,
    check_mc_estimators,
]


def run_verify(level: str = "fast") -> list[CheckResult]:
    """Run the named checks for the given level ("fast" or "full")."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = FAST_CHECKS if level == "fast" else FULL_CHECKS
    return [check() for check in checks]
