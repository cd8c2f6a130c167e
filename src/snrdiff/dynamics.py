"""Forward/backward SDE coefficients, transition kernels, and score-model
representation changes.

The forward process ``z_t = alpha(t) x + sigma(t) eps`` solves the linear
SDE ``dz = f(t) z dt + g(t) dw`` with

    f(t) = alpha'(t) / alpha(t),
    g(t)^2 = -exp(-lambda(t)) lambda'(t) alpha(t)^2 = -lambda'(t) sigma(t)^2,

and has Gaussian transition kernels q(z_t | z_s) with mean coefficient
alpha(t)/alpha(s) and variance alpha(t)^2 [e^{-lambda(t)} - e^{-lambda(s)}].
The reverse-time dynamics form a one-parameter family: for any real rho,

    dz = (f z - (1 + rho^2)/2 g^2 score) dt + rho g dw

runs the process backward; rho = 0 is the deterministic probability flow.

:func:`forward_coeffs` and :func:`transition` take scalar times, giving
floats, or arrays, giving arrays whose entries are the scalar calls' bits;
so the forward simulator and the backward samplers read a grid's
coefficients as one table, and one loop in :mod:`snrdiff.samplers` runs
both directions, the forward simulator included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .schedule import Schedule, float_or_array

_G2_TOL = 1e-12
SCORE_TAGS = ("score", "eps", "data")


@dataclass(frozen=True)
class DriftDiffusion:
    """Forward SDE coefficients at a time: drift factor f, diffusion g."""

    f: float | np.ndarray
    g: float | np.ndarray


@dataclass(frozen=True)
class TransitionKernel:
    """q(z_t | z_s) = N(mean_coeff * z_s, variance * I) for s <= t."""

    mean_coeff: float | np.ndarray
    variance: float | np.ndarray


def forward_coeffs(schedule: Schedule, t) -> DriftDiffusion:
    """Drift and diffusion of the forward SDE at a time or time array."""
    sigma = schedule.sigma(t)
    g2 = -schedule.dlambda_dt(t) * sigma * sigma
    bad = g2 < -_G2_TOL * np.maximum(1.0, np.abs(g2))
    if np.any(bad):
        raise NumericalError(f"negative diffusion radicand g^2={g2[bad]} at "
                             f"t={np.asarray(t)[bad]}; schedule broken")
    return DriftDiffusion(
        f=float_or_array(schedule.dalpha_dt(t) / schedule.alpha(t)),
        g=float_or_array(np.sqrt(np.maximum(g2, 0.0))))


def _exp_diff(lam_t, lam_s):
    """e^{-lam_t} - e^{-lam_s}, computed without cancellation.

    Positive whenever lam_s > lam_t (i.e. s < t on a valid schedule).
    """
    return np.exp(-lam_s) * np.expm1(lam_s - lam_t)


def transition(schedule: Schedule, s, t) -> TransitionKernel:
    """Transition kernel of the forward process from time s to time t >= s;
    s and t broadcast against each other.  Raises ValueError, naming the
    first offending pair, if any s > t."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    bad = s > t
    if np.any(bad):
        s, t = np.broadcast_arrays(s, t)
        raise ValueError(f"transition requires s <= t, got s={s[bad][0]} > "
                         f"t={t[bad][0]}")
    alpha_t = schedule.alpha(t)
    variance = alpha_t * alpha_t * _exp_diff(schedule.lam(t), schedule.lam(s))
    return TransitionKernel(
        mean_coeff=float_or_array(alpha_t / schedule.alpha(s)),
        variance=float_or_array(np.maximum(variance, 0.0)))


class ScoreModel:
    """A function (z, alpha, sigma) -> array tagged by what it predicts.

    A model sees a schedule only through the levels of z = alpha x +
    sigma eps, never through the clock; a caller at time t passes
    (alpha(t), sigma(t)).  Tags: ``"score"`` for the score of z, ``"eps"``
    for noise prediction, ``"data"`` for the denoiser x_hat.  The three are
    interchangeable at the same levels:

        score = -eps / sigma,      x_hat = (z + sigma^2 score) / alpha.

    Stateless wrappers: the callable must be safe to call concurrently.
    """

    def __init__(self, fn, tag: str):
        if tag not in SCORE_TAGS:
            raise ValueError(f"unknown score-model tag {tag!r}; "
                             f"expected one of {SCORE_TAGS}")
        self.fn, self.tag = fn, tag

    def __call__(self, z, alpha: float, sigma: float) -> np.ndarray:
        return np.asarray(self.fn(z, alpha, sigma), dtype=float)

    def score(self, z, alpha: float, sigma: float) -> np.ndarray:
        """Evaluate as a score regardless of the native tag."""
        z = np.asarray(z, dtype=float)
        out = self(z, alpha, sigma)
        if self.tag == "score":
            return out
        if self.tag == "eps":
            return -out / sigma
        # data tag: invert x_hat = (z + sigma^2 score)/alpha
        return (alpha * out - z) / (sigma * sigma)

    def eps(self, z, alpha: float, sigma: float) -> np.ndarray:
        """Evaluate as a noise prediction regardless of the native tag."""
        if self.tag == "eps":
            return self(z, alpha, sigma)
        return -sigma * self.score(z, alpha, sigma)

    def data(self, z, alpha: float, sigma: float) -> np.ndarray:
        """Evaluate as a denoiser x_hat regardless of the native tag."""
        if self.tag == "data":
            return self(z, alpha, sigma)
        z = np.asarray(z, dtype=float)
        return (z + sigma * sigma * self.score(z, alpha, sigma)) / alpha


def _levels(schedule: Schedule, t) -> tuple[float, float]:
    """(alpha(t), sigma(t)) at a scalar time, as floats."""
    return float(schedule.alpha(t)), float(schedule.sigma(t))


def convert_score_model(model: ScoreModel, target_tag: str) -> ScoreModel:
    """Wrap a model so it natively returns the target quantity: the tags
    name its conversion methods."""
    if target_tag == model.tag:
        return model
    return ScoreModel(getattr(model, target_tag), target_tag)


def backward_drift(schedule: Schedule, score_model: ScoreModel, rho: float,
                   z, t: float) -> np.ndarray:
    """Drift of the reverse SDE family at (z, t).

    Returns f(t) z - ((1 + rho^2)/2) g(t)^2 score(z, t); the matching
    diffusion magnitude is rho * g(t) from :func:`forward_coeffs`.
    """
    z = np.asarray(z, dtype=float)
    coeffs = forward_coeffs(schedule, t)
    score = score_model.score(z, *_levels(schedule, t))
    return coeffs.f * z - 0.5 * (1.0 + rho * rho) * coeffs.g ** 2 * score
