"""Gaussian mixtures with closed-form noisy marginals, scores, and
posterior means.

A mixture plays the role of the data distribution in verification runs:
pushing it through the forward channel ``z_t = alpha(t) x + sigma(t) eps``
keeps it a mixture with known parameters, so the score of the noisy
marginal and the denoising posterior mean E[x | z_t] are available exactly
and can stand in for a trained network.

The oracles work in each component's eigenbasis.  Every covariance is
factored once, when the mixture is built, as Sigma_k = Q_k diag(nu_k) Q_k^T
(eigenvalues clamped at 0; a diagonal covariance is its own factorization,
with no Q_k stored).  The noisy covariance alpha^2 Sigma_k + sigma^2 I
shares Q_k and has eigenvalues c_k = alpha^2 nu_k + sigma^2 >= sigma^2 > 0,
so the score, the posterior mean and the log density at any t need no
further factorization: only the elementwise c_k and, for full
covariances, one rotation of z - alpha m_k into each eigenbasis.

The two kinds of mixture take two layouts in :func:`_components`.  With
every covariance diagonal, the rows stay first, (N, D) and (N, K), and the
quadratic forms and the weighted residual are matrix products over D or K.
With any full covariance, the rows go last, (K, D, N) and (K, N), so each
elementwise step runs over all N rows at once rather than over D or K of
them; results are transposed back to rows first on return.  The tests keep
a rows-first full-covariance kernel, (K, N, D) with an ``einsum`` over d, as
the reference.  At D <= 2 the two give the same bits, for any K, in every
output of the three oracles.  At D >= 3 they do not: the rows-last kernel
adds the quadratic form's d terms from left to right, while the rows-first
``einsum`` runs over d innermost and sums it in SIMD-lane order, which is
left to right only up to D = 2.  The two agree to a few ulp of the terms
(within 1e-13 relative) but not bit for bit.

The kernel takes the channel's level as one argument, built by
:func:`_level`: the terms that depend on (a, s2) but not on the rows.  The
oracles build one per call; the Monte Carlo MMSE pass builds one table of
all its levels at once, each row bitwise the level built alone.  The
full-covariance branch also takes an optional set of views, carved by
:func:`_views` from a flat workspace for one number of rows, and writes
each temporary, (K, D, N), (K, N) and (D, N), into them through ``out=``.
The pass carves them once per block size, which spares every block an
allocation, and the page faults of fresh (K, D, N) arrays.  Without views
each step allocates its result, which is how the sampler's oracle and the
public oracles call it, on arrays of any size.  The diagonal branch takes
none: its products over D and K are the rows-first kernel's, kept as they
are, and its MMSE pass stays rows first.  :func:`_posterior_mean` is the
one formula for E[x | z]; :func:`posterior_mean` and the pass both call it.

:func:`log_marginal_density` combines the components with
``scipy.special.logsumexp``, imported there on first use: no sampling or
information command calls it, and importing ``scipy.special`` would
otherwise take most of the package's import time.  It stays scipy's
because that version adds the largest term through ``log1p``, which keeps
its accuracy where the sum of the other terms is near 0; a plain max-shift
``log(sum(exp))`` would lose it.

A one-component mixture is a Gaussian, and its score and posterior mean
are affine in z: the responsibilities are r = 1 for every row.  For
:func:`exact_score` and :func:`posterior_mean`, :func:`_level` then builds
no log normaliser, and :func:`_components` forms only the whitened
residual, with no quadratic form, log joint or normalisation.  These are
the floating-point operations the mixture kernel performs once r = 1, so
the results are the same bits; and they stay exact where the quadratic
form would overflow (a mean near 1e160), which in the mixture kernel
turns r, and with it every output, into NaN.
:func:`log_marginal_density` forms the log joint at every K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import rng
from .dynamics import ScoreModel, _levels
from .errors import ConfigError
from .schedule import Schedule

COV_FLOOR = 1e-12
_FULL_COV_MAX_DIM = 16


@dataclass(frozen=True)
class GmmSpec:
    """A Gaussian mixture: weights (K,), means (K, D), covs (K, D, D).

    Weights must sum to one; covariances must be symmetric PSD.  Full
    (non-diagonal) covariances are supported up to D = 16.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    dim: int = field(init=False)
    # eigenvalues (K, D) and eigenvectors (K, D, D) of covs; no eigenvectors
    # when every covariance is diagonal
    _evals: np.ndarray = field(init=False, compare=False, repr=False)
    _evecs: np.ndarray | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        c = np.asarray(self.covs, dtype=float)
        if c.ndim == 2 and m.shape[0] == 1:
            c = c[None]
        if c.ndim != 3:
            raise ConfigError("covs must be a (K, D, D) array")
        if m.ndim != 2 or 0 in m.shape:
            raise ConfigError(f"means must be a (K, D) array with K, D >= 1, "
                              f"got shape {m.shape}")
        k, d = m.shape
        if w.shape != (k,) or c.shape != (k, d, d):
            raise ConfigError(
                f"inconsistent mixture shapes: weights {w.shape}, "
                f"means {m.shape}, covs {c.shape}"
            )
        for name, arr in (("weights", w), ("means", m), ("covs", c)):
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"mixture {name} must be finite")
        if np.any(w <= 0.0):
            raise ConfigError("mixture weights must be positive")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mixture weights sum to {total}, not 1")
        w = w / total
        sym = np.isclose(c, c.transpose(0, 2, 1), atol=1e-10).all(axis=(1, 2))
        c = 0.5 * (c + c.transpose(0, 2, 1))
        full = np.any((c != 0.0) & ~np.eye(d, dtype=bool), axis=(1, 2))
        evals = np.diagonal(c, axis1=1, axis2=2).copy()
        evecs = None
        if full.any():
            evecs = np.broadcast_to(np.eye(d), c.shape).copy()
            evals[full], evecs[full] = np.linalg.eigh(c[full])
        bad = np.flatnonzero(~sym | (evals.min(axis=1) < -1e-10))
        if bad.size:
            i = bad[0]
            raise ConfigError(
                f"cov {i} is not {'symmetric' if not sym[i] else 'PSD'}")
        if d > _FULL_COV_MAX_DIM and full.any():
            raise ConfigError(
                f"full covariances are limited to D <= {_FULL_COV_MAX_DIM}; "
                "use diagonal covariances for larger D"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "covs", c)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_evals", np.maximum(evals, 0.0))
        object.__setattr__(self, "_evecs", evecs)

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    def mean(self) -> np.ndarray:
        """Mixture mean."""
        return self.weights @ self.means

    def cov(self) -> np.ndarray:
        """Mixture covariance (law of total covariance)."""
        mu = self.mean()
        total = np.einsum("k,kij->ij", self.weights, self.covs)
        centered = self.means - mu
        total += np.einsum("k,ki,kj->ij", self.weights, centered, centered)
        return total

    def to_dict(self) -> dict:
        return {
            "dim": int(self.dim),
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
        }


def _float_array(name: str, value) -> np.ndarray:
    """``value`` as a float array, or a ConfigError naming the gmm field."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"gmm {name} must be a numeric, non-ragged array: {exc}") from exc


def gmm_from_dict(spec: dict) -> GmmSpec:
    """Build a GmmSpec from its JSON form.

    Covariances may be given as full (D, D) matrices or as length-D
    diagonal vectors.
    """
    if not isinstance(spec, dict):
        raise ConfigError("gmm spec must be a JSON object")
    try:
        weights = spec["weights"]
        means = spec["means"]
        covs_in = spec["covs"]
    except KeyError as exc:
        raise ConfigError(f"gmm spec missing field {exc}") from exc
    try:
        covs = [_float_array("covs", c) for c in covs_in]
    except TypeError as exc:
        raise ConfigError(f"gmm covs must be a list: {exc}") from exc
    gmm = GmmSpec(_float_array("weights", weights),
                  _float_array("means", means),
                  _float_array("covs", [np.diag(c) if c.ndim == 1 else c
                                        for c in covs]))
    if "dim" in spec and spec["dim"] != gmm.dim:
        raise ConfigError(
            f"gmm spec declares dim={spec['dim']} but means have D={gmm.dim}"
        )
    return gmm


def single_gaussian(mean, cov) -> GmmSpec:
    """Convenience constructor for a one-component mixture."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov * np.eye(mean.size)
    elif cov.ndim == 1:
        cov = np.diag(cov)
    return GmmSpec(np.array([1.0]), mean[None], cov[None])


def sample_data(gmm: GmmSpec, n: int, seed: int) -> np.ndarray:
    """Draw n i.i.d. samples, deterministically given the seed.

    Component indices come first from the stream, then one standard-normal
    vector per sample, so the output is independent of any batching.  Each
    component transforms its own rows with its Cholesky factor, so the
    draw holds O(n d) values, not a factor per row.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.stream(seed, rng.PURPOSE_DATA)
    u = g.random(n)
    comp = np.searchsorted(np.cumsum(gmm.weights), u, side="right")
    comp = np.minimum(comp, gmm.n_components - 1)
    eps = g.standard_normal((n, gmm.dim))
    x = np.empty_like(eps)
    for k in range(gmm.n_components):
        rows = np.flatnonzero(comp == k)
        chol = np.linalg.cholesky(gmm.covs[k] + COV_FLOOR * np.eye(gmm.dim))
        x[rows] = gmm.means[k] + np.einsum("ij,nj->ni", chol, eps[rows])
    return x


def marginal_at(gmm: GmmSpec, schedule: Schedule, t: float) -> GmmSpec:
    """Exact law of z_t = alpha(t) x + sigma(t) eps for x ~ gmm.

    Component weights are preserved; means scale by alpha and covariances
    become alpha^2 Sigma_k + sigma^2 I.
    """
    a, s = _levels(schedule, t)
    eye = np.eye(gmm.dim)
    return GmmSpec(
        gmm.weights.copy(),
        a * gmm.means,
        a * a * gmm.covs + s ** 2 * eye[None],
    )


def _log_norm(gmm: GmmSpec, c: np.ndarray) -> np.ndarray:
    """log(weight_k / sqrt(det(2 pi C_k))) for eigenvalues c of C_k: (K,)
    for c (K, D), (L, K) for a table of levels (L, K, D)."""
    return (np.log(gmm.weights) - 0.5 * np.log(c).sum(axis=-1)
            - 0.5 * gmm.dim * np.log(2.0 * np.pi))


class _Level(NamedTuple):
    """The noisy mixture's terms at one level: the eigenvalues
    c = a^2 nu + s2 of its covariances, 1/c, the gain scale / c, the means
    a m, all (K, D), and ``_log_norm`` of c (K,), or None where the kernel
    needs no log joint.  A table of L levels has a leading (L,) axis."""

    c: np.ndarray
    inv_c: np.ndarray
    gain: np.ndarray
    m: np.ndarray
    log_norm: np.ndarray | None

    def row(self, i: int) -> _Level:
        """Level i of a table."""
        return _Level(*(f if f is None else f[i] for f in self))


def _level(gmm: GmmSpec, a, s2, scale=1.0, joint: bool = True) -> _Level:
    """The level argument of :func:`_components` at channel levels (a, s2),
    floats or (L,) arrays; ``scale`` broadcasts against c.  Every term of
    level i of a table has the bits of the level built at (a[i], s2[i]).

    With ``joint=False`` the caller reads only r and w, and a one-component
    mixture, which has r = 1 in every row, gets no ``log_norm``: see
    :func:`_components`.
    """
    if isinstance(a, np.ndarray) and a.ndim:  # not np.ndim, slow on a float
        a, s2 = a[:, None, None], s2[:, None, None]
    c = a * a * gmm._evals + s2
    inv_c = 1.0 / c
    log_norm = _log_norm(gmm, c) if joint or gmm.n_components > 1 else None
    return _Level(c, inv_c, scale * inv_c, a * gmm.means, log_norm)


def _mean_level(gmm: GmmSpec, a, s2) -> _Level:
    """The level at which :func:`_posterior_mean` reads the kernel: gain
    a nu / c, for the shrinkage a Sigma_k C_k^{-1}, and no log joint."""
    return _level(gmm, a, s2, np.multiply.outer(a, gmm._evals), joint=False)


def _row_max(x: np.ndarray) -> np.ndarray:
    """The (N, 1) row maxima of x (N, K), NaN where a row holds one, as
    K - 1 ``np.maximum`` calls over columns: numpy's ``max(axis=1)`` runs
    one inner loop per row.  Every value is exact; only the sign of a tie
    between 0.0 and -0.0 may differ, which no ``x - max`` changes in value
    and no ``exp`` of it in bits."""
    top = x[:, :1]
    for k in range(1, x.shape[1]):
        top = np.maximum(top, x[:, k:k + 1])
    return top


def _work_shapes(gmm: GmmSpec, n: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the views the full-covariance kernel writes into for n
    rows: the centred and the rotated rows (K, D, N), the log joint and the
    responsibilities (K, N), a row reduction (N,) and the residual (D, N)."""
    k, d = gmm._evals.shape
    return (k, d, n), (k, d, n), (k, n), (k, n), (n,), (d, n)


def _work_size(gmm: GmmSpec, n: int) -> int:
    """Floats of a workspace that serves :func:`_components` at n rows."""
    return sum(math.prod(shape) for shape in _work_shapes(gmm, n))


def _views(gmm: GmmSpec, work: np.ndarray, n: int) -> list[np.ndarray]:
    """The kernel's views for n rows: C-contiguous consecutive pieces of
    the flat buffer ``work``, of at least :func:`_work_size` floats."""
    views, at = [], 0
    for shape in _work_shapes(gmm, n):
        size = math.prod(shape)
        views.append(work[at:at + size].reshape(shape))
        at += size
    return views


def _components(gmm: GmmSpec, level: _Level, z: np.ndarray, views=None):
    """Per-component terms of the noisy mixture for rows z of shape (N, D)
    at ``level``, built by :func:`_level`.

    Component k of z_t has mean a m_k and covariance Q_k diag(c_k) Q_k^T,
    c_k = a^2 nu_k + s2.  Returns (r, logp, w): the responsibilities and
    the log joint log(weight_k N(z; a m_k, C_k)), both (N, K), and the
    whitened residual w = sum_k r_k Q_k diag(scale_k / c_k) Q_k^T (z - a m_k),
    (N, D).

    A level with no ``log_norm`` (a one-component mixture whose caller
    reads only w) gives (None, None, w) with w the residual alone: no log
    joint and no normalisation, bitwise the mixture kernel's w wherever its
    log joint is finite (see the module docstring).

    Diagonal mixtures compute rows first.  Full ones compute rows last,
    v = Q_k^T (z - a m_k) as (K, D, N), and return transposed views, so
    their r, logp and w are not C-contiguous; see the module docstring
    for which inputs give bitwise the results of the rows-first kernel.
    A full mixture reads z through ``z.T``, copied only when that is not
    C-contiguous.  Given the ``views`` that :func:`_views` carves for N
    rows, it writes every temporary, and so its results, into them, valid
    until the next call on them; with ``None`` each step allocates its
    result.  Diagonal mixtures ignore ``views``.
    """
    inv_c, gain, m = level.inv_c, level.gain, level.m
    q = gmm._evecs
    affine = level.log_norm is None
    if q is None:
        if affine:
            return None, None, z * gain[0] - gain[0] * m[0]
        quad = ((z * z) @ inv_c.T - 2.0 * z @ (m * inv_c).T
                + np.sum(m * m * inv_c, axis=1))
        logp = level.log_norm - 0.5 * quad
        e = np.exp(logp - _row_max(logp))
        r = e / e.sum(axis=1, keepdims=True)
        return r, logp, z * (r @ gain) - r @ (gain * m)
    # rows last: (K, D, N) and (K, N), so every inner loop runs over N; the
    # steps work in place or in the views, so that a call fills few fresh
    # N-long buffers, and with views none
    diff, v, logp, r, top, w = (None,) * 6 if views is None else views
    diff = np.subtract(np.ascontiguousarray(z.T)[None], m[:, :, None],
                       out=diff)
    v = np.matmul(q.transpose(0, 2, 1), diff, out=v)
    qv = None if views is None else diff  # diff is spent
    if affine:
        v *= gain[:, :, None]
        return None, None, np.matmul(q, v, out=qv)[0].T
    logp = np.einsum("kdn,kdn,kd->kn", v, v, inv_c, out=logp)
    logp *= -0.5
    logp += level.log_norm[:, None]
    r = np.subtract(logp, logp.max(axis=0, out=top), out=r)
    np.exp(r, out=r)
    r /= r.sum(axis=0, out=top)
    v *= gain[:, :, None]
    v *= r[:, None, :]
    return r.T, logp.T, np.matmul(q, v, out=qv).sum(axis=0, out=w).T


def _flatten(z, d):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != d:
        raise ValueError(f"z has last dimension {z.shape[-1]}, expected {d}")
    lead = z.shape[:-1]
    return z.reshape(-1, d), lead


def log_marginal_density(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """log p(z_t) of the noisy mixture; z may be (..., D)."""
    a, s = _levels(schedule, t)
    zf, lead = _flatten(z, gmm.dim)
    _, logp, _ = _components(gmm, _level(gmm, a, s ** 2), zf)
    from scipy.special import logsumexp  # deferred: see the module docstring

    return logsumexp(logp, axis=1).reshape(lead)


def exact_score(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """Exact gradient of log p(z_t) at z; z may be (..., D)."""
    return oracle_score_model(gmm)(z, *_levels(schedule, t))


def _posterior_mean(gmm: GmmSpec, level: _Level, z: np.ndarray,
                    views=None, out=None) -> np.ndarray:
    """E[x | z] for rows z (N, D) of the channel at the :func:`_mean_level`
    ``level``: the responsibility-weighted per-component linear-Gaussian
    posterior means m_k + a Sigma_k C_k^{-1}(z - a m_k), written into
    ``out`` if given.  ``views`` go to :func:`_components`."""
    r, _, w = _components(gmm, level, z, views)
    if r is None:
        return np.add(gmm.means[0], w, out=out)
    mean = np.matmul(r, gmm.means, out=out)
    return np.add(mean, w, out=mean)


def posterior_mean(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """Exact denoiser E[x | z_t = z]; z may be (..., D)."""
    a, s = _levels(schedule, t)
    zf, lead = _flatten(z, gmm.dim)
    return _posterior_mean(gmm, _mean_level(gmm, a, s ** 2),
                           zf).reshape(lead + (gmm.dim,))


def oracle_score_model(gmm: GmmSpec) -> ScoreModel:
    """The exact score of the noisy mixture as a ScoreModel."""
    def fn(z, alpha, sigma):
        zf, lead = _flatten(z, gmm.dim)
        # score = sum_k r_k C_k^{-1}(a m_k - z)
        level = _level(gmm, alpha, sigma ** 2, joint=False)
        _, _, w = _components(gmm, level, zf)
        return (-w).reshape(lead + (gmm.dim,))

    return ScoreModel(fn, "score")
