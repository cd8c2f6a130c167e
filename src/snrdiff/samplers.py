"""Backward-time samplers as one affine coefficient table.

Every sampler kind moves a state from time ``t`` to an earlier time ``s``
by z_s = A z_t + B eps_hat(z_t, t) + C xi with xi ~ N(0, I).
:func:`_affine_table` builds (A, B, C) for every interval of a time grid
with one vectorized call per schedule function, and :func:`sample` runs
one loop of that update.  The kinds map onto the table as follows:

* ``generalized``: the exponential integrator, already in eps_hat form,

      z_s = (alpha_s/alpha_t) z_t
            - (1+rho^2)/(1+gamma) alpha_s
              [e^{-(1+gamma) lam_t / 2} - e^{-(1+gamma) lam_s / 2}]
              e^{gamma lam_t / 2} eps_hat(z_t, t)
            + rho alpha_t sqrt(e^{-lam_t} - e^{-lam_s})
              (alpha_s/alpha_t)^{1-delta} (sigma_s/sigma_t)^delta xi;
* ``kingma``: the ancestral step, ``generalized`` at rho = gamma = delta = 1;
* ``non_markovian``: the DDIM-style step through the denoiser x_hat, with
  x_hat = (z_t - sigma_t eps_hat)/alpha_t;
* ``euler_backward``: Euler-Maruyama on the reverse SDE, with
  score = -eps_hat/sigma_t;
* ``exact_reference``: ``generalized`` on the grid refined into
  ``substeps`` equal sub-steps per interval.

The public steppers, except :func:`step_kingma`, are one-interval calls of
the same table.  ``step_kingma`` is an independent transcription, so its
agreement with ``step_generalized`` at rho = gamma = delta = 1 is a real
cross-check of the table.  Steppers take the noise draw as an explicit
array ``eps`` or from a ``numpy.random.Generator``; :func:`sample`
addresses noise by (seed, purpose, step, trajectory row), so results do
not depend on how trajectories are batched or threaded.

The cells of a parameter sweep, configs that differ only in (rho, gamma,
delta), run through :func:`sample` in one pass: the table takes those
parameters as (cells, 1, 1, 1) arrays, so the step index stays its last
axis, and the cells share the grid, every noise draw and each score call.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import rng
from .dynamics import ScoreModel, _drift_diffusion, _exp_diff
from .errors import ConfigError, NumericalError, finite_real
from .schedule import Schedule
from .snr_space import t_of_lambda

SAMPLER_KINDS = ("generalized", "kingma", "non_markovian",
                 "euler_backward", "exact_reference")
GRID_KINDS = ("uniform_t", "uniform_lambda")

# Test hook: flip the sign of the generalized table's eps-hat coefficient
# (step_kingma, the independent transcription, keeps it).  Used by mutation
# tests to confirm which verification checks catch it.
_MUTATE_FLIP_EPS_BRACKET = False


def _draw(shape, eps, gen) -> np.ndarray:
    if eps is not None:
        eps = np.asarray(eps, dtype=float)
        if eps.shape != shape:
            eps = np.broadcast_to(eps, shape)
        return eps
    if gen is not None:
        return gen.standard_normal(shape)
    raise ValueError("stochastic step needs either eps or rng")


def _check_times(schedule: Schedule, s: float, t: float) -> None:
    if s > t:
        raise ValueError(f"backward step requires s <= t, got s={s} > t={t}")
    schedule._check_t(np.array([s, t]))


def non_markovian_beta2(schedule: Schedule, s, t, eta: float):
    """Per-step noise variance beta^2(s, t) = eta^2 (sigma_t^2 - sigma_s^2),
    clamped into [0, (1 - 1e-9) sigma_s^2]; s and t may be arrays."""
    sigma_s2 = schedule.sigma(s) ** 2
    beta2 = float(eta) ** 2 * (schedule.sigma(t) ** 2 - sigma_s2)
    return np.minimum(np.maximum(beta2, 0.0), (1.0 - 1e-9) * sigma_s2)


def _affine_table(schedule: Schedule, times: np.ndarray, kind: str,
                  rho: float = 0.0, gamma: float = 0.0, delta: float = 1.0,
                  eta: float = 0.0):
    """(A, B, C) of z_s = A z_t + B eps_hat(z_t, t) + C xi on each interval
    times[k] -> times[k+1], k on the last axis; rho, gamma and delta may be
    arrays.  C is None when the kind's parameters inject no noise.  For
    exact_reference, ``times`` must be the refined grid."""
    if kind == "kingma":
        rho = gamma = delta = 1.0
    rho, gamma, delta = (np.asarray(v, dtype=float) for v in (rho, gamma, delta))
    times = np.asarray(times, dtype=float)
    alpha, sigma = schedule.alpha(times), schedule.sigma(times)
    alpha_t, alpha_s = alpha[:-1], alpha[1:]
    sigma_t, sigma_s = sigma[:-1], sigma[1:]

    if kind == "non_markovian":
        beta2 = non_markovian_beta2(schedule, times[1:], times[:-1], eta)
        a = alpha_s / alpha_t
        b = np.sqrt(sigma_s ** 2 - beta2) - a * sigma_t
        return a, b, (np.sqrt(beta2) if eta != 0.0 else None)

    if kind == "euler_backward":
        f, g = _drift_diffusion(schedule, times[:-1])
        h = np.diff(times)
        a = 1.0 + f * h
        b = 0.5 * (1.0 + rho * rho) * g ** 2 * h / sigma_t
        return a, b, (rho * g * np.sqrt(-h) if np.any(rho != 0.0) else None)

    if np.any(gamma == -1.0):
        raise ValueError("gamma = -1 is excluded (division by 1 + gamma)")
    if np.any(delta < 0.0):
        warnings.warn("delta < 0 is outside the intended range; proceeding",
                      RuntimeWarning)
    lam = schedule.lam(times)
    lam_t, lam_s = lam[:-1], lam[1:]
    nu = 0.5 * (1.0 + gamma)
    bracket = np.exp(-nu * lam_s) * np.expm1(nu * (lam_s - lam_t))
    coef = (1.0 + rho * rho) / (1.0 + gamma)
    sign = 1.0 if _MUTATE_FLIP_EPS_BRACKET else -1.0
    a = alpha_s / alpha_t
    b = sign * coef * alpha_s * bracket * np.exp(0.5 * gamma * lam_t)
    c = None
    if np.any(rho != 0.0):
        c = (rho * alpha_t * np.sqrt(_exp_diff(lam_t, lam_s))
             * _power(a, 1.0 - delta) * _power(sigma_s / sigma_t, delta))
    return a, b, c


def _power(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x ** p, one scalar exponent at a time: numpy rounds x ** 0.5, 2 or -1
    differently for an array of exponents than for a single one."""
    return np.reshape([x ** float(q) for q in p.flat], p.shape[:-1] + (-1,))


def _refine(grid: np.ndarray, substeps: int) -> np.ndarray:
    """Split every interval of a decreasing grid into equal sub-steps in t."""
    sub = np.linspace(grid[:-1], grid[1:], substeps + 1, axis=-1)[:, :-1]
    return np.append(sub.ravel(), grid[-1])


def _affine_step(schedule: Schedule, score: ScoreModel, z, t: float, table,
                 k: int, xi=None) -> np.ndarray:
    """Step k of the table applied to z at time t, with noise draw xi."""
    a, b, c = table
    out = a[..., k] * z + b[..., k] * score.eps(schedule, z, t)
    return out if xi is None else out + c[..., k] * xi


def _run_table(schedule: Schedule, score: ScoreModel, z_t, times, kind: str,
               rng, eps, **params) -> np.ndarray:
    """Step z_t through every interval of ``times`` (t first, s last); an
    interval of zero length is the identity and draws nothing."""
    _check_times(schedule, times[-1], times[0])
    table = _affine_table(schedule, times, kind, **params)
    z, c = np.asarray(z_t, dtype=float), table[2]
    for k in range(len(times) - 1):
        if times[k + 1] == times[k]:
            z = z.copy()
            continue
        xi = None if c is None or c[k] == 0.0 else _draw(z.shape, eps, rng)
        z = _affine_step(schedule, score, z, float(times[k]), table, k, xi)
    return z


def step_generalized(schedule: Schedule, score: ScoreModel, z_t, t: float,
                     s: float, rho: float, gamma: float, delta: float,
                     rng=None, eps=None) -> np.ndarray:
    """One generalized backward step from t to s (see module docstring).

    The eps-hat prediction is evaluated at (z_t, t).  With s = t the step
    is the identity.  gamma = -1 is rejected (the 1/(1+gamma) prefactor);
    delta may be any real but negative values are flagged.
    """
    return _run_table(schedule, score, z_t, np.array([float(t), float(s)]),
                      "generalized", rng, eps, rho=rho, gamma=gamma, delta=delta)


def step_kingma(schedule: Schedule, score: ScoreModel, z_t, t: float,
                s: float, rng=None, eps=None) -> np.ndarray:
    """Ancestral-style backward step: posterior mean plus matched noise.

    Mean (alpha_s/alpha_t) z_t + alpha_s alpha_t (e^{-lam_t} - e^{-lam_s})
    score(z_t, t), noise std alpha_t sqrt(e^{-lam_t} - e^{-lam_s})
    sigma_s / sigma_t — written in eps-hat form below.  Coincides with
    step_generalized at rho = gamma = delta = 1 (kept as an independent
    transcription so the equality is a real cross-check).
    """
    t, s = float(t), float(s)
    _check_times(schedule, s, t)
    z = np.asarray(z_t, dtype=float)
    if s == t:
        return z.copy()

    alpha_t, alpha_s = float(schedule.alpha(t)), float(schedule.alpha(s))
    sigma_t, sigma_s = float(schedule.sigma(t)), float(schedule.sigma(s))
    lam_t, lam_s = float(schedule.lam(t)), float(schedule.lam(s))

    bracket = np.exp(-lam_s) * np.expm1(lam_s - lam_t)
    eps_hat = score.eps(schedule, z, t)
    mean = (alpha_s / alpha_t) * z \
        - alpha_s * bracket * np.exp(0.5 * lam_t) * eps_hat
    noise_coef = alpha_t * np.sqrt(bracket) * (sigma_s / sigma_t)
    return mean + noise_coef * _draw(z.shape, eps, rng)


def step_non_markovian(schedule: Schedule, score: ScoreModel, z_t, t: float,
                       s: float, eta: float, rng=None, eps=None) -> np.ndarray:
    """DDIM-style backward step through the predicted clean sample.

    z_s = alpha_s x_hat + sqrt(sigma_s^2 - beta^2) (z_t - alpha_t x_hat)/sigma_t
          + beta eps, with x_hat = (z_t - sigma_t eps_hat)/alpha_t.
    eta = 0 gives the deterministic step; eta = 1 injects the largest noise
    the marginal-preserving family allows for this beta parameterization.
    """
    return _run_table(schedule, score, z_t, np.array([float(t), float(s)]),
                      "non_markovian", rng, eps, eta=eta)


def step_euler_backward(schedule: Schedule, score: ScoreModel, z_t, t: float,
                        s: float, rho: float, rng=None, eps=None) -> np.ndarray:
    """One Euler-Maruyama step of the reverse SDE from t to s."""
    return _run_table(schedule, score, z_t, np.array([float(t), float(s)]),
                      "euler_backward", rng, eps, rho=rho)


def exact_reference(schedule: Schedule, score: ScoreModel, z_t, t: float,
                    s: float, substeps: int, rng=None, rho: float = 0.0,
                    gamma: float = 0.0, delta: float = 1.0) -> np.ndarray:
    """Resolve the t -> s transition by ``substeps`` generalized sub-steps.

    As substeps grows this converges to the exact backward solution
    (pointwise for rho = 0, in distribution otherwise) and serves as the
    error yardstick for single big steps.  substeps = 1 reproduces
    step_generalized on the same draw.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    times = _refine(np.array([float(t), float(s)]), int(substeps))
    return _run_table(schedule, score, z_t, times, "generalized", rng, None,
                      rho=rho, gamma=gamma, delta=delta)


def make_time_grid(schedule: Schedule, grid_kind: str, steps: int,
                   t_start: float, t_end: float) -> np.ndarray:
    """Decreasing time grid with steps+1 nodes from t_start down to t_end.

    ``uniform_t`` spaces nodes evenly in t; ``uniform_lambda`` spaces them
    evenly in lambda (equidistributing the per-step SNR change) and maps
    back through the lambda inverse.  Endpoints are exact.
    """
    if grid_kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {grid_kind!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t_start, t_end = float(t_start), float(t_end)
    if t_end >= t_start:
        raise ValueError("need t_end < t_start for a backward grid")
    schedule._check_t(np.array([t_end, t_start]))
    if grid_kind == "uniform_t":
        grid = np.linspace(t_start, t_end, steps + 1)
    else:
        lams = np.linspace(float(schedule.lam(t_start)),
                           float(schedule.lam(t_end)), steps + 1)
        grid = t_of_lambda(schedule, lams)
        grid[0], grid[-1] = t_start, t_end
    if not np.all(np.diff(grid) < 0.0):
        raise NumericalError("time grid is not strictly decreasing")
    return grid


@dataclass(frozen=True)
class SamplerConfig:
    """Everything defining one backward run.

    ``t_start``/``t_end`` default to the schedule window at run time.
    ``substeps`` only matters for kind="exact_reference" (sub-steps per
    grid interval).
    """

    kind: str = "generalized"
    rho: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    eta: float = 0.0
    steps: int = 100
    grid_kind: str = "uniform_lambda"
    t_start: float | None = None
    t_end: float | None = None
    seed: int = 0
    substeps: int = 16

    def __post_init__(self):
        for name in ("steps", "substeps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name in ("rho", "gamma", "delta", "eta", "t_start", "t_end"):
            value = getattr(self, name)
            if not (value is None and name in ("t_start", "t_end")):
                finite_real(name, value)
        if self.kind not in SAMPLER_KINDS:
            raise ConfigError(f"unknown sampler kind {self.kind!r}; "
                              f"expected one of {SAMPLER_KINDS}")
        if self.grid_kind not in GRID_KINDS:
            raise ConfigError(f"unknown grid kind {self.grid_kind!r}")
        if self.kind == "generalized" and self.gamma == -1.0:
            raise ConfigError("gamma = -1 is excluded for the generalized step")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError("eta must lie in [0, 1]")
        if (self.t_start is not None and self.t_end is not None
                and self.t_end > self.t_start):
            raise ConfigError("need t_end <= t_start")

    def to_dict(self) -> dict:
        return asdict(self)


def sampler_config_from_dict(spec: dict) -> SamplerConfig:
    if not isinstance(spec, dict):
        raise ConfigError("sampler spec must be a JSON object")
    known = set(SamplerConfig.__dataclass_fields__)
    unknown = set(spec) - known
    if unknown:
        raise ConfigError(f"unknown sampler config fields {sorted(unknown)}")
    try:
        return SamplerConfig(**spec)
    except TypeError as exc:
        raise ConfigError(f"bad sampler config: {exc}") from exc


@dataclass
class Trajectory:
    """One sample's backward path: decreasing times, states, noise draws,
    as views of the grid and of one states and one noises array shared by
    the records of a :func:`sample` call: writing into one writes those."""

    times: np.ndarray
    states: np.ndarray          # (len(times), D)
    noises: np.ndarray | None   # (len(times) - 1, D) standard-normal draws


def sample(schedule: Schedule, score: ScoreModel, config, n: int, d: int,
           threads: int = 1, return_trajectories: bool = False):
    """Run the configured backward pass for n trajectories of dimension d.

    The prior is z ~ N(0, sigma(t_start)^2 I).  Noise is addressed by
    (seed, purpose, step, trajectory row), so the returned samples are a
    pure function of (config, n, d) regardless of ``threads`` or any other
    batching.  Raises NumericalError, naming the step, its interval and the
    first bad row (and cell), if a trajectory goes non-finite.

    Returns (n, d) samples, plus a list of per-sample Trajectory views
    when ``return_trajectories`` is set.  ``config`` may instead be a
    sequence of cells that differ only in rho, gamma and delta, without
    trajectories: one pass returns (cells, n, d), cell i bit for bit the
    samples of ``config[i]`` run alone.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    cells = None if isinstance(config, SamplerConfig) else list(config)
    if cells is not None:
        if not cells or return_trajectories:
            raise ValueError("need one or more cells and no trajectories")
        config = cells[0]
        if any(replace(c, rho=config.rho, gamma=config.gamma,
                       delta=config.delta) != config for c in cells):
            raise ValueError("cells may differ only in rho, gamma and delta")
    params = {name: getattr(config, name) if cells is None else
              np.reshape([getattr(c, name) for c in cells], (-1, 1, 1, 1))
              for name in ("rho", "gamma", "delta")}
    t_start = schedule.t_max if config.t_start is None else float(config.t_start)
    t_end = schedule.t_min if config.t_end is None else float(config.t_end)
    for name, value in (("t_start", t_start), ("t_end", t_end)):
        try:
            schedule._check_t(value)
        except ValueError as exc:
            raise ConfigError(f"{name}={value}: {exc}") from exc
    if t_end > t_start:
        raise ConfigError("need t_end <= t_start")
    seed = int(config.seed)

    sigma_start = float(schedule.sigma(t_start))
    if t_end == t_start:
        grid = np.array([t_start])
    else:
        grid = make_time_grid(schedule, config.grid_kind, config.steps,
                              t_start, t_end)
    n_steps = len(grid) - 1

    # exact_reference: the generalized table on the refined grid, with the
    # draw for refined step i addressed as step i; states stay on the grid
    stride = config.substeps if config.kind == "exact_reference" else 1
    times = _refine(grid, stride)
    table = _affine_table(schedule, times, config.kind, eta=config.eta,
                          **params)
    stochastic = table[2] is not None

    states = np.empty((n_steps + 1, n, d)) if return_trajectories else None
    noises = (np.empty((n_steps, n, d)) if return_trajectories and stochastic
              and stride == 1 else None)
    out = np.empty((n, d) if cells is None else (len(cells), n, d))

    def run_rows(row_start: int, row_stop: int) -> None:
        z = sigma_start * rng.row_normals(seed, rng.PURPOSE_PRIOR, 0,
                                          row_start, row_stop, d)
        if return_trajectories:
            states[0, row_start:row_stop] = z
        for i in range(len(times) - 1):
            xi = None
            if stochastic:
                xi = rng.row_normals(seed, rng.PURPOSE_STEP, i,
                                     row_start, row_stop, d)
                if noises is not None:
                    noises[i, row_start:row_stop] = xi
            z = _affine_step(schedule, score, z, float(times[i]), table, i, xi)
            if (i + 1) % stride:
                continue
            k = i // stride
            if not np.all(np.isfinite(z)):
                *cell, row, col = np.argwhere(~np.isfinite(z))[0]
                where = f" of cell {cell[0]}" if cell else ""
                raise NumericalError(
                    f"non-finite state at step {k} (t={grid[k]} -> "
                    f"s={grid[k + 1]}): row {row_start + row}{where} holds "
                    f"{z[(*cell, row, col)]}")
            if return_trajectories:
                states[k + 1, row_start:row_stop] = z
        out[..., row_start:row_stop, :] = z

    threads = max(1, int(threads))
    if threads == 1 or n < 2 * threads:
        run_rows(0, n)
    else:
        bounds = np.linspace(0, n, threads + 1).astype(int).tolist()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_rows, bounds[:-1], bounds[1:]))

    if not return_trajectories:
        return out
    return out, [Trajectory(times=grid, states=states[:, i],
                            noises=None if noises is None else noises[:, i])
                 for i in range(n)]
