"""MMSE and information quantities for the Gaussian noise channel.

Everything here lives in lambda (log-SNR) space: the channel at parameter
lambda is ``z = tilde_alpha x + tilde_sigma eps``.  For Gaussian data the
MMSE, mutual information, and conditional KL have closed forms used as
oracles; for mixtures the MMSE is estimated by Monte Carlo with the exact
posterior mean as the denoiser.

The lambda-derivatives of the conditional KL and of the mutual information
reduce to

    d/dlambda = [(tilde_alpha' tilde_sigma - tilde_alpha tilde_sigma')
                 tilde_alpha / tilde_sigma^3] * mmse
              = (d snr / d lambda) / 2 * mmse,

the I-MMSE relation under reparameterization: both quantities depend on
lambda only through the SNR, so the chain rule carries the classical
snr-derivative identity to any channel parameterization.  In particular
the square-root channel (tilde_alpha = sqrt(lambda), tilde_sigma = 1,
where lambda is the SNR itself) recovers dI/dlambda = mmse / 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ConfigError, NumericalError
from .gmm import GmmSpec, sample_data, posterior_mean
from .schedule import Schedule
from .snr_space import SnrPoint, float_or_array, t_of_lambda


class McEstimate(NamedTuple):
    value: float
    stderr: float


def _as_matrix(S) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim == 0:
        S = S[None, None]
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("S must be a square matrix")
    return S


def _snr(p: SnrPoint):
    # float_power is libm pow, as a Python float's ** is; numpy's power on
    # an array rounds some squares and cubes differently
    return np.float_power(np.divide(p.tilde_alpha, p.tilde_sigma), 2)


def mmse_gaussian(S, snr_point: SnrPoint):
    """Exact MMSE for data N(mu, S) in the channel at snr_point.

    Equals trace[(S^{-1} + snr I)^{-1}] with snr = tilde_alpha^2/tilde_sigma^2;
    computed through the eigenvalues of S.  Requires S positive definite.
    A point of floats gives a float, a point of arrays an array of their
    shape.
    """
    S = _as_matrix(S)
    evals = np.linalg.eigvalsh(S)
    if evals.min() <= 0.0:
        raise NumericalError("mmse_gaussian requires S positive definite")
    snr = _snr(snr_point)[..., None]
    return float_or_array(np.sum(evals / (1.0 + snr * evals), axis=-1))


def mi_gaussian_closed(S, snr_point: SnrPoint):
    """Exact Gaussian-channel mutual information 0.5 log det(I + snr S),
    a float or an array as the fields of ``snr_point`` are."""
    S = _as_matrix(S)
    evals = np.linalg.eigvalsh(S)
    if evals.min() < 0.0:
        raise NumericalError("mi_gaussian_closed requires S PSD")
    snr = _snr(snr_point)[..., None]
    return float_or_array(0.5 * np.sum(np.log1p(snr * evals), axis=-1))


def pointwise_mmse_gaussian(S, x, snr_point: SnrPoint, mean=None) -> float:
    """Closed-form E_{z|x} ||x - E[x|z]||^2 for Gaussian data N(mean, S)."""
    S = _as_matrix(S)
    d = S.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = np.zeros(d) if mean is None else np.atleast_1d(np.asarray(mean, float))
    a, s = snr_point.tilde_alpha, snr_point.tilde_sigma
    C = a * a * S + s * s * np.eye(d)
    R = a * np.linalg.solve(C, S).T  # a S C^{-1}, symmetric since S, C commute
    bias = (np.eye(d) - a * R) @ (x - mu)
    return float(bias @ bias + s * s * np.trace(R @ R.T))


def kl_gaussian_conditional(S, x, snr_point: SnrPoint, mean=None) -> float:
    """Closed-form KL(p(z|x) || p(z)) for Gaussian data N(mean, S).

    p(z|x) = N(a x, s^2 I) and p(z) = N(a mean, a^2 S + s^2 I) with
    a = tilde_alpha, s = tilde_sigma.  Written in the eigenbasis of S as

        0.5 sum_j [log(1 + g_j) - g_j/(1 + g_j) + snr w_j^2/(1 + g_j)],

    g_j = snr nu_j, w = Q^T (x - mean), which stays accurate for KL near
    zero (very low SNR) where the naive trace/logdet form cancels.
    """
    S = _as_matrix(S)
    d = S.shape[0]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mu = np.zeros(d) if mean is None else np.atleast_1d(np.asarray(mean, float))
    evals, vecs = np.linalg.eigh(S)
    if evals.min() < 0.0:
        raise NumericalError("kl_gaussian_conditional requires S PSD")
    snr = (snr_point.tilde_alpha / snr_point.tilde_sigma) ** 2
    g = snr * evals
    w = vecs.T @ (x - mu)
    return float(0.5 * np.sum(np.log1p(g) - g / (1.0 + g)
                              + snr * w * w / (1.0 + g)))


def snr_derivative_factor(snr_point: SnrPoint):
    """(d snr / d lambda) / 2, via the tilde-function Wronskian."""
    a, s = snr_point.tilde_alpha, snr_point.tilde_sigma
    da, ds = snr_point.dtilde_alpha_dlambda, snr_point.dtilde_sigma_dlambda
    # float_power, not **: see _snr
    return float_or_array((da * s - a * ds) * a / np.float_power(s, 3))


def dkl_dlambda(snr_point: SnrPoint, dim: int, pointwise_mmse: float) -> float:
    """d/dlambda of KL(p(z|x) || p(z)) at fixed x.

    The dimension enters only through the pointwise MMSE input; the
    derivative itself is the snr-rate times mmse(x, lambda) / 2.
    """
    return snr_derivative_factor(snr_point) * float(pointwise_mmse)


def dmi_dlambda(snr_point: SnrPoint, dim: int, mmse):
    """d/dlambda of the mutual information I(x, z_lambda)."""
    return float_or_array(snr_derivative_factor(snr_point) * mmse)


def kong_point(lam) -> SnrPoint:
    """The square-root channel z = sqrt(lambda) x + eps at lambda > 0.

    Here the curve parameter IS the SNR, so tilde_sigma is constant and
    dI/dlambda = mmse/2 exactly.  A scalar ``lam`` gives a point of floats,
    an array a point of arrays of its shape.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("the square-root channel needs lambda > 0")
    root = np.sqrt(lam)
    return SnrPoint(*map(float_or_array, (
        lam, root, np.ones_like(lam), 0.5 / root, np.zeros_like(lam))))


def _squared_error_mc(gmm: GmmSpec, schedule: Schedule, x, lam, n: int,
                      seed: int) -> McEstimate:
    """Mean and standard error of ||x - E[x|z]||^2 over the same n channel
    draws at each lambda, for x one point or n rows."""
    t = np.asarray(t_of_lambda(schedule, lam))
    alpha, sigma = schedule.alpha(t), schedule.sigma(t)
    eps = rng.stream(seed, rng.PURPOSE_MC).standard_normal((n, gmm.dim))
    value, stderr = np.empty(t.shape), np.empty(t.shape)
    for i, ti in np.ndenumerate(t):
        x_hat = posterior_mean(gmm, schedule, ti, alpha[i] * x + sigma[i] * eps)
        sq = np.einsum("nd,nd->n", x - x_hat, x - x_hat)
        value[i], stderr[i] = sq.mean(), sq.std(ddof=1) / math.sqrt(n)
    if t.ndim == 0:
        return McEstimate(float(value), float(stderr))
    return McEstimate(value, stderr)


def mmse_mc(gmm: GmmSpec, schedule: Schedule, lam, n: int,
            seed: int) -> McEstimate:
    """Monte Carlo MMSE: average ||x - E[x|z]||^2 over joint draws.

    Uses the exact mixture posterior mean as the denoiser, so the estimate
    is unbiased for the true MMSE.  Returns the estimate with its standard
    error: floats for a scalar ``lam``, or arrays of its shape for an array
    whose lambdas all reuse the same draws, entry i equal to mmse_mc(lam[i]).
    """
    if n < 100:
        raise ConfigError(f"Monte Carlo n must be >= 100, got {n}")
    return _squared_error_mc(gmm, schedule, sample_data(gmm, n, seed), lam,
                             n, seed)


def pointwise_mmse_mc(gmm: GmmSpec, schedule: Schedule, x, lam: float,
                      n: int, seed: int) -> McEstimate:
    """Monte Carlo pointwise MMSE at fixed x: E over z ~ p(z | x)."""
    if n < 100:
        raise ConfigError(f"Monte Carlo n must be >= 100, got {n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _squared_error_mc(gmm, schedule, x, lam, n, seed)
