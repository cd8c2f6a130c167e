"""Schedules in signal-to-noise (lambda) space.

Because lambda(t) is strictly decreasing it can be inverted, and any
schedule induces

    tilde_alpha(lambda) = alpha(t(lambda)),
    tilde_sigma(lambda) = sigma(t(lambda)) = tilde_alpha(lambda) e^{-lambda/2},

with lambda-derivatives obtained by the chain rule.  :func:`t_of_lambda`
inverts lambda(t) for a scalar or a whole array of lambdas at once: the
built-in families (VP, VE, iDDPM, FM_OT) in closed form, warped and custom
schedules by vectorized bisection, each followed by one Newton step.

Two schedules whose windows map to the same lambda range and whose
tilde_alpha curves agree induce the same lambda-space forward process;
:func:`equivalence_check` certifies this numerically, and :func:`time_warp`
constructs equivalent pairs by monotone reparameterization of time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .schedule import Schedule

_BISECT_CAP = 200


@dataclass
class SnrPoint:
    """tilde_alpha / tilde_sigma and their lambda-derivatives at lambda."""

    lam: float | np.ndarray
    tilde_alpha: float | np.ndarray
    tilde_sigma: float | np.ndarray
    dtilde_alpha_dlambda: float | np.ndarray
    dtilde_sigma_dlambda: float | np.ndarray


def float_or_array(x):
    """``x`` as a float if it is a scalar, else as a float array."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _bisect(schedule: Schedule, lam: np.ndarray) -> np.ndarray:
    """Vectorized bisection for lambda(t) = lam, run until every bracket
    is as narrow as the floats allow (at most _BISECT_CAP halvings)."""
    a = np.full(lam.shape, schedule.t_min)
    b = np.full(lam.shape, schedule.t_max)
    for _ in range(_BISECT_CAP):
        mid = 0.5 * (a + b)
        active = (mid > a) & (mid < b)
        if not np.any(active):
            break
        # lambda decreases in t: the root lies right of mid where lambda is
        # still above the target
        right = schedule.lam(mid) > lam
        a = np.where(active & right, mid, a)
        b = np.where(active & ~right, mid, b)
    return 0.5 * (a + b)


def _newton(schedule: Schedule, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """One Newton step on the window-clamped t, keeping the better iterate."""
    t = np.clip(t, schedule.t_min, schedule.t_max)
    resid = schedule.lam(t) - lam
    t_new = np.clip(t - resid / schedule.dlambda_dt(t),
                    schedule.t_min, schedule.t_max)
    better = np.abs(schedule.lam(t_new) - lam) < np.abs(resid)
    return np.where(better, t_new, t)


def t_of_lambda(schedule: Schedule, lam):
    """Invert lambda(t) = lam on the schedule window.

    ``lam`` may be a scalar, which returns a float, or an array, which
    returns an array of the same shape.  The built-in families (VP, VE,
    iDDPM, FM_OT) invert in closed form through their ``lam_inv``;
    warped and custom schedules, which have none, use a vectorized
    bisection.  Either result then takes one Newton step (with the
    analytic dlambda/dt).  The residual |lambda(t) - lam| stays within
    1e-12 max(1, |lam|), and within about 2e-14 max(1, |lam|) for the
    closed forms.  Raises :class:`ConfigError`, naming the first offending
    value, if any ``lam`` lies outside the attainable range.
    """
    lam = np.asarray(lam, dtype=float)
    lo, hi = schedule.lambda_range()
    tol = 1e-12 * np.maximum(1.0, np.abs(lam))
    bad = ~((lam >= lo - tol) & (lam <= hi + tol))
    if np.any(bad):
        raise ConfigError(f"lambda={lam[bad].flat[0]} outside attainable "
                          f"range [{lo}, {hi}]")
    lam = np.clip(lam, lo, hi)
    inverse = schedule._fns.get("lam_inv")
    t = inverse(lam) if inverse is not None else _bisect(schedule, lam)
    t = _newton(schedule, lam, t)
    return float_or_array(t)


def tilde_eval(schedule: Schedule, lam) -> SnrPoint:
    """Evaluate the lambda-space functions and chain-rule derivatives: as
    in :func:`t_of_lambda`, a scalar ``lam`` gives a point of floats, an
    array a point of arrays of its shape, entry i that of ``lam[i]``."""
    t = t_of_lambda(schedule, lam)
    dlam = schedule.dlambda_dt(t)
    return SnrPoint(*map(float_or_array, (
        lam, schedule.alpha(t), schedule.sigma(t),
        schedule.dalpha_dt(t) / dlam, schedule.dsigma_dt(t) / dlam)))


def time_warp(schedule: Schedule, warp: Callable[[np.ndarray], np.ndarray],
              dwarp: Callable[[np.ndarray], np.ndarray]) -> Schedule:
    """Reparameterize a schedule by a strictly increasing time warp.

    ``warp`` must fix the window endpoints; ``dwarp`` is its analytic
    derivative (needed so the warped schedule keeps closed-form
    derivatives).  The warped schedule traces the same lambda-space curve
    as the inner one.
    """
    grid = np.linspace(schedule.t_min, schedule.t_max, 513)
    w = np.asarray(warp(grid), dtype=float)
    if abs(w[0] - schedule.t_min) > 1e-9 or abs(w[-1] - schedule.t_max) > 1e-9:
        raise ConfigError("warp must fix the window endpoints")
    if not np.all(np.diff(w) > 0.0):
        raise ConfigError("warp must be strictly increasing on the window")
    dw = np.asarray(dwarp(grid), dtype=float)
    if not np.all(dw > 0.0):
        raise ConfigError("dwarp must be positive on the window")

    inner = schedule
    fns = dict(
        alpha=lambda t: inner.alpha(warp(np.asarray(t, dtype=float))),
        sigma=lambda t: inner.sigma(warp(np.asarray(t, dtype=float))),
        lam=lambda t: inner.lam(warp(np.asarray(t, dtype=float))),
        dalpha=lambda t: (inner.dalpha_dt(warp(np.asarray(t, dtype=float)))
                          * dwarp(np.asarray(t, dtype=float))),
        dsigma=lambda t: (inner.dsigma_dt(warp(np.asarray(t, dtype=float)))
                          * dwarp(np.asarray(t, dtype=float))),
        dlam=lambda t: (inner.dlambda_dt(warp(np.asarray(t, dtype=float)))
                        * dwarp(np.asarray(t, dtype=float))),
    )
    return Schedule("Warped", {"inner": inner, "warp": warp, "dwarp": dwarp},
                    schedule.t_min, schedule.t_max, fns)


@dataclass
class EquivalenceReport:
    equivalent: bool
    max_deviation: float
    endpoints_match: bool


def equivalence_check(s1: Schedule, s2: Schedule, n_points: int = 200,
                      tol: float = 1e-10) -> EquivalenceReport:
    """Test whether two schedules induce the same lambda-space process.

    The hypothesis (endpoint lambda values agree within ``tol``) is checked
    first; the conclusion is tested by comparing tilde_alpha on a shared
    lambda grid.  ``equivalent`` requires both.  Disjoint lambda ranges are
    an error.
    """
    lo1, hi1 = s1.lambda_range()
    lo2, hi2 = s2.lambda_range()
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo >= hi:
        raise ValueError("schedules have disjoint lambda ranges")
    endpoints_match = abs(lo1 - lo2) <= tol and abs(hi1 - hi2) <= tol

    lams = np.linspace(lo, hi, int(n_points))
    dev = float(np.max(np.abs(s1.alpha(t_of_lambda(s1, lams))
                              - s2.alpha(t_of_lambda(s2, lams)))))
    return EquivalenceReport(
        equivalent=bool(endpoints_match and dev <= tol),
        max_deviation=dev,
        endpoints_match=endpoints_match,
    )
