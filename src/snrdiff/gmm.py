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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import rng
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
    covs = []
    for c in covs_in:
        c = np.asarray(c, dtype=float)
        covs.append(np.diag(c) if c.ndim == 1 else c)
    gmm = GmmSpec(np.asarray(weights, float), np.asarray(means, float),
                  np.asarray(covs, float))
    if "dim" in spec and int(spec["dim"]) != gmm.dim:
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
    vector per sample, so the output is independent of any batching.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.stream(seed, rng.PURPOSE_DATA)
    u = g.random(n)
    comp = np.searchsorted(np.cumsum(gmm.weights), u, side="right")
    comp = np.minimum(comp, gmm.n_components - 1)
    eps = g.standard_normal((n, gmm.dim))
    chols = np.stack([
        np.linalg.cholesky(gmm.covs[k] + COV_FLOOR * np.eye(gmm.dim))
        for k in range(gmm.n_components)
    ])
    return gmm.means[comp] + np.einsum("nij,nj->ni", chols[comp], eps)


def marginal_at(gmm: GmmSpec, schedule: Schedule, t: float) -> GmmSpec:
    """Exact law of z_t = alpha(t) x + sigma(t) eps for x ~ gmm.

    Component weights are preserved; means scale by alpha and covariances
    become alpha^2 Sigma_k + sigma^2 I.
    """
    a = float(schedule.alpha(t))
    s2 = float(schedule.sigma(t)) ** 2
    eye = np.eye(gmm.dim)
    return GmmSpec(
        gmm.weights.copy(),
        a * gmm.means,
        a * a * gmm.covs + s2 * eye[None],
    )


def _components(gmm: GmmSpec, a: float, s2: float, z: np.ndarray, scale=1.0):
    """Per-component terms of the noisy mixture for rows z of shape (N, D).

    Component k of z_t has mean a m_k and covariance Q_k diag(c_k) Q_k^T,
    c_k = a^2 nu_k + s2.  Returns (r, logp, w): the responsibilities and
    the log joint log(weight_k N(z; a m_k, C_k)), both (N, K), and the
    whitened residual w = sum_k r_k Q_k diag(scale_k / c_k) Q_k^T (z - a m_k),
    (N, D).
    """
    c = a * a * gmm._evals + s2
    inv_c = 1.0 / c
    gain = scale * inv_c
    m = a * gmm.means
    q = gmm._evecs
    if q is None:
        quad = ((z * z) @ inv_c.T - 2.0 * z @ (m * inv_c).T
                + np.sum(m * m * inv_c, axis=1))
    else:
        v = (z[None] - m[:, None]) @ q
        quad = np.einsum("knd,kd->nk", v * v, inv_c)
    logp = (np.log(gmm.weights) - 0.5 * np.log(c).sum(axis=1)
            - 0.5 * gmm.dim * np.log(2.0 * np.pi)) - 0.5 * quad
    e = np.exp(logp - logp.max(axis=1, keepdims=True))
    r = e / e.sum(axis=1, keepdims=True)
    if q is None:
        w = z * (r @ gain) - r @ (gain * m)
    else:
        w = v * gain[:, None] * r.T[..., None]
        w = (w @ q.transpose(0, 2, 1)).sum(axis=0)
    return r, logp, w


def _flatten(z, d):
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != d:
        raise ValueError(f"z has last dimension {z.shape[-1]}, expected {d}")
    lead = z.shape[:-1]
    return z.reshape(-1, d), lead


def log_marginal_density(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """log p(z_t) of the noisy mixture; z may be (..., D)."""
    a = float(schedule.alpha(t))
    s2 = float(schedule.sigma(t)) ** 2
    zf, lead = _flatten(z, gmm.dim)
    _, logp, _ = _components(gmm, a, s2, zf)
    return logsumexp(logp, axis=1).reshape(lead)


def exact_score(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """Exact gradient of log p(z_t) at z; z may be (..., D)."""
    a = float(schedule.alpha(t))
    s2 = float(schedule.sigma(t)) ** 2
    zf, lead = _flatten(z, gmm.dim)
    # score = sum_k r_k C_k^{-1}(a m_k - z)
    _, _, w = _components(gmm, a, s2, zf)
    return (-w).reshape(lead + (gmm.dim,))


def posterior_mean(gmm: GmmSpec, schedule: Schedule, t: float, z) -> np.ndarray:
    """Exact denoiser E[x | z_t = z]; z may be (..., D)."""
    a = float(schedule.alpha(t))
    s2 = float(schedule.sigma(t)) ** 2
    zf, lead = _flatten(z, gmm.dim)
    # per-component linear-Gaussian posterior: m_k + a Sigma_k C_k^{-1}(z - a m_k)
    r, _, w = _components(gmm, a, s2, zf, a * gmm._evals)
    return (r @ gmm.means + w).reshape(lead + (gmm.dim,))


def oracle_score_model(gmm: GmmSpec, schedule: Schedule):
    """The exact score of the noisy mixture, wrapped as a ScoreModel."""
    from .dynamics import ScoreModel

    def fn(z, t):
        return exact_score(gmm, schedule, float(t), z)

    return ScoreModel(fn, "score")
