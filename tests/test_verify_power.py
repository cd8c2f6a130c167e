"""What each ``snrdiff.verify`` check catches: a table of named defects.

A defect is one small change at one site of the package, never in a
check's own reference code (``verify._deterministic_step``,
``step_kingma``), applied with ``monkeypatch``; a changed function is
rebound wherever a package module binds it, as an edit of its body would
reach every caller.  Each (defect, check) case asserts that the check
*returns* ``ok`` False.  Every check passes on the package as it is
(``tests/test_acceptance.py``), so no case passes without its defect.
A check is listed only where it catches the defect with a margin.
"""

import sys

import numpy as np
import pytest

from snrdiff import dynamics, gmm, infotheory, samplers, schedule, snr_space
from snrdiff import verify
from snrdiff.dynamics import DriftDiffusion, ScoreModel, TransitionKernel


def _replace(monkeypatch, original, replacement):
    """Bind ``replacement`` to every name a package module binds
    ``original`` to."""
    bound = [(module, name) for key, module in list(sys.modules.items())
             if key == "snrdiff" or key.startswith("snrdiff.")
             for name, value in list(vars(module).items())
             if value is original]
    assert bound, original
    for module, name in bound:
        monkeypatch.setattr(module, name, replacement)


def _then(fn, change):
    """The defect ``fn`` -> ``change(fn(*args), *args)``."""
    return lambda mp: _replace(
        mp, fn, lambda *args, **kwargs: change(fn(*args, **kwargs), *args))


def _closure(family, key, factor):
    """The defect that scales the ``key`` closure of a built-in family by
    ``factor`` in every schedule ``make_schedule`` builds."""
    def apply(mp):
        build, defaults, window = schedule._FAMILIES[family]

        def built(params):
            fns = build(params)
            fns[key] = lambda t, real=fns[key]: real(t) * factor
            return fns

        mp.setitem(schedule._FAMILIES, family, (built, defaults, window))
    return apply


def _forward_table(change):
    """The defect that maps the forward SDE table (A, B, C, at) by
    ``change``."""
    return _then(samplers._forward_table,
                 lambda out, *_: (out[0], change(*out[1])))


# name: (apply(monkeypatch), the checks that must report it)
DEFECTS = {
    # the generalized table's eps-hat coefficient with the wrong sign
    "flipped_eps_bracket": (
        lambda mp: mp.setattr(samplers, "_MUTATE_FLIP_EPS_BRACKET", True),
        "kingma_reduction deterministic_reduction order_of_accuracy "
        "end_to_end_deterministic"),
    # its noise coefficient (a_s/a_t)^delta (s_s/s_t)^(1 - delta)
    "swapped_delta_exponents": (
        lambda mp: mp.setattr(samplers, "_power", lambda x, p,
                              real=samplers._power: real(x, 1.0 - p)),
        "kingma_reduction"),
    # e^-lam_t - e^-lam_s 1e-9 too large: transition variance, table's C
    "exp_diff_offset": (
        _then(dynamics._exp_diff, lambda out, *_: out + 1e-9),
        "chapman_kolmogorov kingma_reduction"),
    # one derivative closure per family 1e-6 relative off.  That moves the
    # snr rate by about 1e-6, check_info_derivatives' own bound, so that
    # check is not listed for them
    "vp_dalpha_off": (
        _closure("VP", "dalpha", 1.0 + 1e-6),
        "schedule_identities forward_variance_identity asymptotic_recovery"),
    "ve_dsigma_off": (
        _closure("VE", "dsigma", 1.0 + 1e-6),
        "schedule_identities forward_variance_identity"),
    "iddpm_dlambda_off": (
        _closure("iDDPM", "dlam", 1.0 + 1e-6),
        "schedule_identities forward_variance_identity"),
    "fm_ot_dalpha_off": (
        _closure("FM_OT", "dalpha", 1.0 + 1e-6),
        "schedule_identities forward_variance_identity asymptotic_recovery"),
    "iddpm_lambda_off": (
        _closure("iDDPM", "lam", 1.0 + 1e-9),
        "schedule_identities"),
    # a closed-form t(lambda) 1e-4 relative off, before the Newton step
    "vp_inverse_off": (
        _closure("VP", "lam_inv", 1.0 + 1e-4),
        "lambda_inverse schedule_equivalence info_derivatives"),
    "fm_ot_inverse_off": (
        _closure("FM_OT", "lam_inv", 1.0 + 1e-4),
        "lambda_inverse info_derivatives"),
    # a warped schedule's inverse bisected 10 times, not to the last bit
    "short_bisection": (
        lambda mp: mp.setattr(snr_space, "_BISECT_CAP", 10),
        "schedule_equivalence"),
    "transition_mean_off": (
        _then(dynamics.transition, lambda k, *_: TransitionKernel(
            k.mean_coeff * (1.0 + 1e-9), k.variance)),
        "chapman_kolmogorov asymptotic_recovery"),
    # g^2 = -lambda' sigma, a sigma short
    "g_missing_sigma": (
        _then(dynamics.forward_coeffs, lambda c, sched, t: DriftDiffusion(
            c.f, c.g / np.sqrt(sched.sigma(t)))),
        "forward_variance_identity asymptotic_recovery order_of_accuracy"),
    # A = 1 + 2 f dt
    "forward_drift_doubled": (
        _forward_table(lambda a, b, c, at: (2.0 * a - 1.0, b, c, at)),
        "forward_drift_only"),
    # C = g sqrt(dt) 1e-3 relative off: only the discrete law's first-order
    # gap shows it.  The one pair that pays for the forward simulation
    "forward_noise_off": (
        _forward_table(lambda a, b, c, at: (
            a, b, None if c is None else c * (1.0 + 1e-3), at)),
        "forward_marginals"),
    "eps_sign_flipped": (
        lambda mp: mp.setattr(ScoreModel, "eps", lambda self, *args,
                              real=ScoreModel.eps: -real(self, *args)),
        "score_conversions end_to_end_deterministic non_markovian_affine"),
    # the mixture kernel's noise level s^2 1% too large
    "oracle_noise_level_off": (
        lambda mp: _replace(mp, gmm._level, lambda g, a, s2, *args,
                            real=gmm._level, **kwargs:
                            real(g, a, 1.01 * s2, *args, **kwargs)),
        "score_conversions end_to_end_deterministic non_markovian_affine"),
    # in place: the Monte Carlo pass reads the ``out`` buffer
    "posterior_mean_biased": (
        _then(gmm._posterior_mean,
              lambda mean, *_: np.multiply(mean, 1.0 + 1e-3, out=mean)),
        "score_conversions"),
    "data_scaled": (
        _then(gmm.sample_data, lambda x, *_: 1.2 * x),
        "mc_estimators"),
    "snr_rate_off": (
        _then(infotheory.snr_derivative_factor,
              lambda out, *_: out * (1.0 + 1e-5)),
        "info_derivatives"),
    "mmse_closed_form_off": (
        _then(infotheory.mmse_gaussian, lambda out, *_: out * 1.05),
        "info_derivatives mc_estimators"),
    "pointwise_closed_form_off": (
        _then(infotheory.pointwise_mmse_gaussian, lambda out, *_: out * 1.05),
        "info_derivatives mc_estimators"),
    "kl_closed_form_off": (
        _then(infotheory.kl_gaussian_conditional,
              lambda out, *_: out * (1.0 + 1e-5)),
        "info_derivatives"),
}

PAIRS = [(name, check) for name, (_, checks) in DEFECTS.items()
         for check in checks.split()]


@pytest.mark.parametrize("name,check", PAIRS,
                         ids=[f"{name}-{check}" for name, check in PAIRS])
def test_check_reports_the_defect(monkeypatch, name, check):
    DEFECTS[name][0](monkeypatch)
    result = getattr(verify, f"check_{check}")()
    assert not result.ok, f"{result.name} missed {name}: {result.detail}"


def test_every_check_catches_a_defect():
    # a new check must name a defect it catches; one pair may pay for the
    # forward simulation
    checks = [getattr(verify, f"check_{check}") for _, check in PAIRS]
    assert set(checks) == set(verify.FULL_CHECKS)
    assert checks.count(verify.check_forward_marginals) == 1
