"""Named cross-module invariant checks.

``run_verify("fast")`` exercises the algebraic identities (sub-second);
``run_verify("full")`` adds Monte Carlo and convergence studies (minutes).
Each check is independent and reports a one-line detail string, so a
failure names exactly what broke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import samplers
from .dynamics import (
    convert_score_model,
    euler_maruyama_forward,
    forward_coeffs,
    transition,
)
from .gmm import marginal_at, oracle_score_model, posterior_mean, single_gaussian
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


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / scale))


def _interior_grid(sched, n=1000, margin=1e-4):
    span = sched.t_max - sched.t_min
    return np.linspace(sched.t_min + margin * span,
                       sched.t_max - margin * span, n)


def _schedules():
    return {name: make_schedule(name) for name in BUILTIN_FAMILIES}


def check_schedule_identities() -> CheckResult:
    worst = 0.0
    for name, sched in _schedules().items():
        grid = np.linspace(sched.t_min, sched.t_max, 1000)
        a, s, l = sched.alpha(grid), sched.sigma(grid), sched.lam(grid)
        worst = max(worst, _rel(l, np.log(a * a / (s * s))))
        worst = max(worst, _rel(s, a * np.exp(-l / 2)))
        if not np.all(np.diff(l) < 0):
            return CheckResult("schedule_identities", False,
                               f"{name}: lambda not strictly decreasing")
        if not np.all(np.diff(s) > 0):
            return CheckResult("schedule_identities", False,
                               f"{name}: sigma not strictly increasing")
        dl = sched.dlambda_dt(grid)
        cross = 2.0 * (sched.dalpha_dt(grid) / a - sched.dsigma_dt(grid) / s)
        cross_err = _rel(dl, cross)
        if cross_err > 1e-9:
            return CheckResult("schedule_identities", False,
                               f"{name}: dlambda cross-check {cross_err:.2e}")
        inner = _interior_grid(sched, 200)
        h = 1e-6
        fd_a = (sched.alpha(inner + h) - sched.alpha(inner - h)) / (2 * h)
        fd_l = (sched.lam(inner + h) - sched.lam(inner - h)) / (2 * h)
        if _rel(fd_a, sched.dalpha_dt(inner)) > 1e-5:
            return CheckResult("schedule_identities", False,
                               f"{name}: dalpha_dt vs finite differences")
        if _rel(fd_l, sched.dlambda_dt(inner)) > 1e-5:
            return CheckResult("schedule_identities", False,
                               f"{name}: dlambda_dt vs finite differences")
    return CheckResult("schedule_identities", worst <= 1e-12,
                       f"max identity error {worst:.2e}")


def check_chapman_kolmogorov() -> CheckResult:
    gen = np.random.default_rng(20240817)
    worst = 0.0
    for name, sched in _schedules().items():
        for _ in range(100):
            r, sm, tm = np.sort(gen.uniform(sched.t_min, sched.t_max, 3))
            k_rt = transition(sched, r, tm)
            k_rs = transition(sched, r, sm)
            k_st = transition(sched, sm, tm)
            worst = max(worst, _rel(k_rt.mean_coeff,
                                    k_rs.mean_coeff * k_st.mean_coeff))
            composed = k_st.mean_coeff ** 2 * k_rs.variance + k_st.variance
            worst = max(worst, _rel(k_rt.variance, composed))
    return CheckResult("chapman_kolmogorov", worst <= 1e-10,
                       f"max composition error {worst:.2e}")


def check_forward_variance_identity() -> CheckResult:
    worst = 0.0
    for name, sched in _schedules().items():
        for t in _interior_grid(sched, 200):
            c = forward_coeffs(sched, float(t))
            s = float(sched.sigma(t))
            lhs = c.g ** 2 + 2.0 * c.f * s * s
            rhs = 2.0 * s * float(sched.dsigma_dt(t))
            worst = max(worst, _rel(lhs, rhs))
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
        worst = max(worst, _rel(model(z, t), back(z, t)))
        x_hat = convert_score_model(model, "data", sched)(z, t)
        worst = max(worst, _rel(x_hat, posterior_mean(gmm, sched, t, z)))
    return CheckResult("score_conversions", worst <= 1e-10,
                       f"round-trip/Tweedie error {worst:.2e}")


def check_kingma_reduction() -> CheckResult:
    sched = make_schedule("VP")
    model = oracle_score_model(single_gaussian([0.0], [[1.0]]), sched)
    gen = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        t = gen.uniform(0.1, sched.t_max)
        s = gen.uniform(sched.t_min, t)
        z = gen.normal(size=(1,))
        eps = gen.normal(size=(1,))
        a = step_generalized(sched, model, z, t, s, 1.0, 1.0, 1.0, eps=eps)
        b = step_kingma(sched, model, z, t, s, eps=eps)
        worst = max(worst, _rel(a, b))
    return CheckResult("kingma_reduction", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def check_deterministic_reduction() -> CheckResult:
    # rho = 0 must reproduce the closed deterministic update for any gamma.
    sched = make_schedule("FM_OT")
    model = oracle_score_model(single_gaussian([0.2], [[0.8]]), sched)
    gen = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        t = gen.uniform(0.3, sched.t_max)
        s = gen.uniform(sched.t_min, t)
        gamma = gen.uniform(-0.9, 2.0)
        z = gen.normal(size=(1,))
        lam_t, lam_s = float(sched.lam(t)), float(sched.lam(s))
        a_t, a_s = float(sched.alpha(t)), float(sched.alpha(s))
        nu = 0.5 * (1.0 + gamma)
        bracket = np.exp(-nu * lam_t) - np.exp(-nu * lam_s)
        expected = (a_s / a_t) * z - (1.0 / (1.0 + gamma)) * a_s * bracket \
            * np.exp(0.5 * gamma * lam_t) * model.eps(sched, z, t)
        got = step_generalized(sched, model, z, t, s, 0.0, gamma, 1.0)
        worst = max(worst, _rel(got, expected))
    return CheckResult("deterministic_reduction", worst <= 1e-12,
                       f"max deviation {worst:.2e}")


def check_lambda_inverse() -> CheckResult:
    gen = np.random.default_rng(17)
    worst = 0.0
    for name, sched in _schedules().items():
        ts = gen.uniform(sched.t_min, sched.t_max, 100)
        t_back = t_of_lambda(sched, sched.lam(ts))
        worst = max(worst, float(np.max(np.abs(t_back - ts))))
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

    warped = time_warp(vp, warp, dwarp)
    rep_same = equivalence_check(vp, warped, 200, 1e-10)
    rep_diff = equivalence_check(vp, make_schedule("VE"), 200, 1e-10)
    ok = rep_same.equivalent and not rep_diff.equivalent
    return CheckResult(
        "schedule_equivalence", ok,
        f"warped max dev {rep_same.max_deviation:.2e}; "
        f"VP-vs-VE equivalent={rep_diff.equivalent}"
    )


def check_info_derivatives() -> CheckResult:
    S = np.array([[1.0]])
    h = 1e-4
    worst_mi, worst_kl = 0.0, 0.0
    gen = np.random.default_rng(23)
    for name, sched in _schedules().items():
        lo, hi = sched.lambda_range()
        lams = np.linspace(lo + 10 * h, hi - 10 * h, 20)
        for lam in lams:
            p = tilde_eval(sched, float(lam))
            fd = (mi_gaussian_closed(S, tilde_eval(sched, lam + h))
                  - mi_gaussian_closed(S, tilde_eval(sched, lam - h))) / (2 * h)
            got = dmi_dlambda(p, 1, mmse_gaussian(S, p))
            worst_mi = max(worst_mi, _rel(fd, got))
        for lam in np.linspace(lo + 10 * h, hi - 10 * h, 5):
            p = tilde_eval(sched, float(lam))
            for x in gen.normal(size=5):
                fd = (kl_gaussian_conditional(S, [x], tilde_eval(sched, lam + h))
                      - kl_gaussian_conditional(S, [x], tilde_eval(sched, lam - h))) / (2 * h)
                got = dkl_dlambda(p, 1, pointwise_mmse_gaussian(S, [x], p))
                worst_kl = max(worst_kl, _rel(fd, got))
    worst_kong = 0.0
    for lam in np.linspace(0.2, 6.0, 30):
        p = kong_point(lam)
        m = mmse_gaussian(S, p)
        worst_kong = max(worst_kong, abs(dmi_dlambda(p, 1, m) - 0.5 * m))
    ok = worst_mi <= 1e-6 and worst_kl <= 1e-6 and worst_kong <= 1e-9
    return CheckResult(
        "info_derivatives", ok,
        f"MI {worst_mi:.2e}, KL {worst_kl:.2e}, sqrt-channel {worst_kong:.2e}"
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
    bad = []
    for name, sched in _schedules().items():
        span = sched.t_max - sched.t_min
        for t in (sched.t_min + 0.31 * span, sched.t_min + 0.67 * span):
            c = forward_coeffs(sched, t)
            errs_f, errs_v = [], []
            for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
                k = transition(sched, t, t + dt)
                errs_f.append(abs((k.mean_coeff - 1.0) / dt - c.f))
                errs_v.append(abs(k.variance / dt - c.g ** 2))
            for errs, label in ((errs_f, "f"), (errs_v, "g2")):
                floor = 1e-10 * max(1.0, abs(c.f), c.g ** 2)
                if max(errs) <= floor:
                    # difference quotient already exact (VE: f = 0; FM_OT:
                    # alpha linear): converged trivially
                    continue
                for e0, e1 in zip(errs[:-1], errs[1:]):
                    ratio = e0 / e1
                    if not (1.7 <= ratio <= 2.3):
                        bad.append(f"{name}/{label}@t={t:.3f}: ratio {ratio:.2f}")
    return CheckResult("asymptotic_recovery", not bad,
                       "; ".join(bad) if bad else "Richardson ratios in [1.7, 2.3]")


def check_order_of_accuracy() -> CheckResult:
    sched = make_schedule("VP")
    model = oracle_score_model(single_gaussian([0.0], [[1.0]]), sched)
    z = np.array([0.8])
    bad = []
    for t in (0.35, 0.6, 0.8):
        gaps = []
        for dt in (0.04, 0.02, 0.01, 0.005):
            a = step_generalized(sched, model, z, t, t - dt, 0.0, 0.0, 1.0)
            b = step_euler_backward(sched, model, z, t, t - dt, 0.0)
            gaps.append(float(np.abs(a - b).max()))
        for g0, g1 in zip(gaps[:-1], gaps[1:]):
            ratio = g0 / g1
            if not (3.0 <= ratio <= 5.0):
                bad.append(f"t={t}: ratio {ratio:.2f}")
    return CheckResult("order_of_accuracy", not bad,
                       "; ".join(bad) if bad else "Richardson ratios in [3, 5]")


def check_forward_marginals() -> CheckResult:
    sched = make_schedule("VP")
    n, steps = 20000, 2000
    z = euler_maruyama_forward(sched, np.array([1.0]), steps=steps, seed=99,
                               n_paths=n)
    zf = z[:, 0]
    mean_target = float(sched.alpha(sched.t_max)) * 1.0
    var_target = float(sched.sigma(sched.t_max)) ** 2
    mc_sigma = zf.std(ddof=1) / np.sqrt(n)
    mean_err = abs(zf.mean() - mean_target)
    var_err = abs(zf.var(ddof=1) - var_target) / var_target
    ok = mean_err <= 3 * mc_sigma and var_err <= 0.02
    return CheckResult(
        "forward_marginals", ok,
        f"mean err {mean_err:.2e} (3 MC-sigma {3 * mc_sigma:.2e}), "
        f"var rel err {var_err:.2%}"
    )


def check_end_to_end_deterministic() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.0], [[1.0]])
    model = oracle_score_model(gmm, sched)
    errs = []
    for steps in (25, 50, 100, 200):
        cfg = SamplerConfig(kind="generalized", rho=0.0, gamma=0.0,
                            steps=steps, seed=3)
        x = sample(sched, model, cfg, n=10000, d=1)
        rep = moment_report(x, gmm)
        errs.append(rep.cov_frobenius_error)
    floor = np.sqrt(2.0 / 10000)
    monotone = all(e1 <= e0 or e1 <= floor
                   for e0, e1 in zip(errs[:-1], errs[1:]))
    ok = errs[-1] < 0.02 and monotone
    return CheckResult("end_to_end_deterministic", ok,
                       "cov errors " + ", ".join(f"{e:.4f}" for e in errs))


def check_non_markovian_affine() -> CheckResult:
    sched = make_schedule("VP")
    gmm = single_gaussian([0.0], [[1.0]])
    model = oracle_score_model(gmm, sched)
    grid = make_time_grid(sched, "uniform_lambda", 50, sched.t_max, sched.t_min)
    worst = 0.0
    probes = np.array([[-1.7], [0.3], [2.2]])
    for k in range(len(grid) - 1):
        t, s = float(grid[k]), float(grid[k + 1])
        a_t, a_s = float(sched.alpha(t)), float(sched.alpha(s))
        s_t, s_s = float(sched.sigma(t)), float(sched.sigma(s))
        r = a_t * 1.0 / (a_t ** 2 * 1.0 + s_t ** 2)  # d x_hat / d z
        coef_a = s_s / s_t + (a_s - s_s * a_t / s_t) * r
        got = step_non_markovian(sched, model, probes, t, s, eta=0.0)
        worst = max(worst, float(np.abs(got - coef_a * probes).max()))
    return CheckResult("non_markovian_affine", worst <= 1e-10,
                       f"max affine deviation {worst:.2e}")


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
