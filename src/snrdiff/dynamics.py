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
coefficients as one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
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
    """A function (z, t) -> array tagged by what it predicts.

    Tags: ``"score"`` for the score s(z, t), ``"eps"`` for noise prediction,
    ``"data"`` for the denoiser x_hat.  The three are interchangeable given
    alpha = alpha(t) and sigma = sigma(t):

        score = -eps / sigma,      x_hat = (z + sigma^2 score) / alpha.

    A model given its ``schedule`` is time-free, ``fn(z, alpha, sigma)``;
    with ``at`` = (alpha(t), sigma(t)) given, no evaluation calls a schedule.
    Stateless wrappers: the callable must be safe to call concurrently.
    """

    def __init__(self, fn, tag: str, schedule: Schedule | None = None):
        if tag not in SCORE_TAGS:
            raise ValueError(f"unknown score-model tag {tag!r}; "
                             f"expected one of {SCORE_TAGS}")
        self.fn, self.tag, self.schedule = fn, tag, schedule

    def __call__(self, z, t, at=None):
        args = ((float(t),) if self.schedule is None
                else at or _levels(self.schedule, t))
        return np.asarray(self.fn(z, *args), dtype=float)

    def score(self, schedule: Schedule, z, t, at=None) -> np.ndarray:
        """Evaluate as a score regardless of the native tag."""
        z = np.asarray(z, dtype=float)
        out = self(z, t, at)
        if self.tag == "score":
            return out
        alpha, sigma = at or _levels(schedule, t)
        if self.tag == "eps":
            return -out / sigma
        # data tag: invert x_hat = (z + sigma^2 score)/alpha
        return (alpha * out - z) / (sigma * sigma)

    def eps(self, schedule: Schedule, z, t, at=None) -> np.ndarray:
        """Evaluate as a noise prediction regardless of the native tag."""
        if self.tag == "eps":
            return self(z, t, at)
        at = at or _levels(schedule, t)
        return -at[1] * self.score(schedule, z, t, at)

    def data(self, schedule: Schedule, z, t, at=None) -> np.ndarray:
        """Evaluate as a denoiser x_hat regardless of the native tag."""
        if self.tag == "data":
            return self(z, t, at)
        z = np.asarray(z, dtype=float)
        alpha, sigma = at = at or _levels(schedule, t)
        return (z + sigma * sigma * self.score(schedule, z, t, at)) / alpha


def _levels(schedule: Schedule, t) -> tuple[float, float]:
    """(alpha(t), sigma(t)) at a scalar time, as floats."""
    return float(schedule.alpha(t)), float(schedule.sigma(t))


def convert_score_model(model: ScoreModel, target_tag: str,
                        schedule: Schedule) -> ScoreModel:
    """Wrap a model so it natively returns the target quantity: the tags
    name its conversion methods."""
    if target_tag == model.tag:
        return model
    return ScoreModel(lambda z, t: getattr(model, target_tag)(schedule, z, t),
                      target_tag)


def backward_drift(schedule: Schedule, score_model: ScoreModel, rho: float,
                   z, t: float) -> np.ndarray:
    """Drift of the reverse SDE family at (z, t).

    Returns f(t) z - ((1 + rho^2)/2) g(t)^2 score(z, t); the matching
    diffusion magnitude is rho * g(t) from :func:`forward_coeffs`.
    """
    z = np.asarray(z, dtype=float)
    coeffs = forward_coeffs(schedule, t)
    score = score_model.score(schedule, z, t)
    return coeffs.f * z - 0.5 * (1.0 + rho * rho) * coeffs.g ** 2 * score


def euler_maruyama_forward(
    schedule: Schedule,
    z0,
    steps: int,
    seed: int,
    n_paths: int = 1,
    zero_noise: bool = False,
    return_path: bool = False,
):
    """Simulate the forward SDE on a uniform time grid over the window.

    ``z0`` broadcasts to (n_paths, D).  Noise comes from a counter-based
    stream keyed by the seed, one (n_paths, D) block per step, so runs are
    deterministic given the seed.  ``zero_noise=True`` suppresses the
    diffusion term (test hook for isolating drift behaviour).

    Returns the final state (n_paths, D), or (times, path) with path of
    shape (steps + 1, n_paths, D) when ``return_path`` is set.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z0, dtype=float)
    if z.ndim == 0:
        z = z[None]
    if z.ndim == 1:
        z = np.broadcast_to(z, (n_paths, z.shape[0]))
    if z.shape[0] != n_paths:
        raise ValueError("z0 leading dimension must match n_paths")
    z = z.copy()  # stepped in place

    times = np.linspace(schedule.t_min, schedule.t_max, steps + 1)
    dt = np.diff(times)
    coeffs = forward_coeffs(schedule, times[:-1])
    noise_scale = coeffs.g * np.sqrt(dt)
    gen = rng.stream(seed, rng.PURPOSE_FORWARD)
    path = [z.copy()] if return_path else None
    tmp, buf = np.empty_like(z), np.empty_like(z)
    for k in range(steps):
        np.multiply(coeffs.f[k], z, out=tmp)
        tmp *= dt[k]
        z += tmp
        if not zero_noise:
            gen.standard_normal(out=buf)
            buf *= noise_scale[k]
            z += buf
        if return_path:
            path.append(z.copy())
    if return_path:
        return times, np.stack(path)
    return z
