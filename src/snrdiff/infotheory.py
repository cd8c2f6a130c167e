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

The Monte Carlo pass walks its N rows in blocks of ``_MC_ROWS`` (a power
of two) at every lambda.  The posterior mean's level terms are built once
per pass, one table of every lambda (see :mod:`snrdiff.gmm`), and every
block temporary (z, the kernel arrays, the error) is a view of one
workspace allocated once per pass, the views carved once per block size,
so no block allocates or re-carves.  Every block starts at a multiple of
``_MC_ROWS``, and a 1-row tail joins the block before it.  Each row's
squared error depends only on that row, and numpy's kernels give a row the
same bits in such a block as in the whole pass; they do not for a lone
row, which takes other BLAS paths, nor for blocks at other offsets, which
change the last bits at D = 16.  The squared errors go into one N-long
buffer, and the estimate and its standard error are reduced from it in
one pass: summing per-block partial results would round differently.

A mixture with a full covariance runs the pass rows last, as its kernel
computes (see :mod:`snrdiff.gmm`): z and, where the sum below allows, the
error are (D, rows) blocks, and eps and x are read through ``.T`` views
rather than copied.  The kernel then reads z through ``z.T`` with no copy.
The squared error of a row must add its D terms in the order a rows-first
``einsum("nd,nd->n")`` does.  At D <= 2 that is the squares added in
order, so a rows-last error is squared and summed over its D rows.  At
D >= 3 the einsum itself sums it, on the layout the posterior mean has:
the F-order view of the (D, rows) block for K = 1, and a C-order (rows, D)
block for K >= 2, where the einsum adds a row in SIMD-lane order and no
other layout gives its bits.  Diagonal mixtures keep the rows-first kernel,
so their z and error are (rows, D) blocks.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ConfigError, NumericalError
# posterior_mean stays bound here: bench/selftest.py traces it by this name
from .gmm import (GmmSpec, _mean_level, _posterior_mean, _views,
                  _work_size, posterior_mean, sample_data)  # noqa: F401
from .schedule import Schedule, float_or_array
from .snr_space import SnrPoint, t_of_lambda

# rows per block of the Monte Carlo pass, a power of two (see the module
# docstring).  The workspace holds about (2 K D + 2 K + 3 D + 1) floats a
# row.  On a 2-D, 2-component info run (20,000 rows, 97 lambdas), 8,192 ran
# fastest; 16,384 ran about 6% slower, 4,096 18% and 2,048 44%, and an
# invocation took 26 minor page faults at 8,192, 41 at 16,384 and 300-350
# at 4,096 and 2,048.
_MC_ROWS = 8192


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


def dkl_dlambda(snr_point: SnrPoint, pointwise_mmse: float) -> float:
    """d/dlambda of KL(p(z|x) || p(z)) at fixed x.

    The dimension enters only through the pointwise MMSE input; the
    derivative itself is the snr-rate times mmse(x, lambda) / 2.
    """
    return snr_derivative_factor(snr_point) * float(pointwise_mmse)


def dmi_dlambda(snr_point: SnrPoint, mmse):
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


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(lo, hi) of the row blocks of an n-row pass: each starts at a
    multiple of ``_MC_ROWS``, and a 1-row tail joins the block before it."""
    edges = [*range(0, n, _MC_ROWS), n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _squared_error_mc(gmm: GmmSpec, schedule: Schedule, x, lam, t, n: int,
                      seed: int) -> McEstimate:
    """Mean and standard error of ||x - E[x|z]||^2 over the same n channel
    draws at each lambda and its time t, for x one point or n rows.

    Each lambda walks the rows in the blocks of :func:`_row_blocks` and
    writes the block's squared errors into one n-long buffer, reduced once
    over all n rows.  The levels are built once per pass, and the views of
    its one workspace carved once per block size, laid out as the module
    docstring says.  Row r's error depends only on row r, and a block that
    starts at a multiple of a power of two and holds more than one row
    gives each row the bits the whole pass gives it, so the result is
    bitwise the unblocked one.  A non-finite estimate raises NumericalError
    naming the lambda, its t and the first non-finite row.
    """
    lam, t = np.asarray(lam), np.asarray(t)
    alpha, sigma = schedule.alpha(t.ravel()), schedule.sigma(t.ravel())
    d = gmm.dim
    eps = rng.stream(seed, rng.PURPOSE_MC).standard_normal((n, d))
    x = x[None] if x.ndim == 1 else x
    blocks = _row_blocks(n)
    most = max(hi - lo for lo, hi in blocks)
    full = gmm._evecs is not None
    err_last = full and (d <= 2 or gmm.n_components == 1)
    work = np.empty(2 * d * most + (_work_size(gmm, most) if full else 0))

    def block(at: int, rows: int, rows_last: bool) -> np.ndarray:
        """The (rows, D) view of a C-contiguous block of ``work`` starting
        at float ``at``, stored (D, rows) when ``rows_last``."""
        flat = work[at:at + d * rows]
        return flat.reshape(d, rows).T if rows_last else flat.reshape(rows, d)

    # z, a x, the error (a x's floats, spent by then) and the kernel's
    # views, per block size
    carved = {rows: (block(0, rows, full), block(d * rows, rows, full),
                     block(d * rows, rows, err_last),
                     _views(gmm, work[2 * d * most:], rows) if full else None)
              for rows in {hi - lo for lo, hi in blocks}}

    def last(a: np.ndarray) -> np.ndarray:
        """A (rows, D) array in the z blocks' layout."""
        return a.T if full else a

    # float_power, not **: the bits of each float sigma ** 2 (see _snr)
    levels = _mean_level(gmm, alpha, np.float_power(sigma, 2))
    sq = np.empty(n)
    value, stderr = np.empty(t.size), np.empty(t.size)
    for i, ti in enumerate(t.ravel()):
        a, s = float(alpha[i]), float(sigma[i])
        level = levels.row(i)
        for lo, hi in blocks:
            z, ax, err, views = carved[hi - lo]
            xb = x if len(x) == 1 else x[lo:hi]
            np.multiply(last(eps[lo:hi]), s, out=last(z))
            np.multiply(last(xb), a, out=last(ax))
            z += ax
            # a full kernel reads z.T, which is then a C-contiguous block
            _posterior_mean(gmm, level, z, views, out=err)
            xs, es = (xb.T, err.T) if err_last else (xb, err)
            np.subtract(xs, es, out=es)
            if err_last and d <= 2:
                np.square(es, out=es)
                np.sum(es, axis=0, out=sq[lo:hi])
            else:
                np.einsum("nd,nd->n", err, err, out=sq[lo:hi])
        value[i], stderr[i] = sq.mean(), sq.std(ddof=1) / math.sqrt(n)
        if not math.isfinite(value[i]):
            bad = np.flatnonzero(~np.isfinite(sq))
            why = (f"row {bad[0]} has squared error {sq[bad[0]]}" if bad.size
                   else "the mean of the squared errors overflows")
            raise NumericalError(f"Monte Carlo MMSE is not finite at "
                                 f"lambda={lam.ravel()[i]} (t={ti}): {why}")
    return McEstimate(float_or_array(value.reshape(t.shape)),
                      float_or_array(stderr.reshape(t.shape)))


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
                             t_of_lambda(schedule, lam), n, seed)


def pointwise_mmse_mc(gmm: GmmSpec, schedule: Schedule, x, lam: float,
                      n: int, seed: int) -> McEstimate:
    """Monte Carlo pointwise MMSE at fixed x: E over z ~ p(z | x)."""
    if n < 100:
        raise ConfigError(f"Monte Carlo n must be >= 100, got {n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _squared_error_mc(gmm, schedule, x, lam, t_of_lambda(schedule, lam),
                             n, seed)
