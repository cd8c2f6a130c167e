"""Backward-time samplers and the forward simulator as affine tables.

Every sampler kind moves a state from time ``t`` to an earlier time ``s``
by z_s = A z_t + B eps_hat(z_t, alpha_t, sigma_t) + C xi with xi ~ N(0, I).
:func:`_affine_table` builds (A, B, C) for every interval of a time grid
with one vectorized call per schedule function, and ``at``, each interval's
(alpha_t, sigma_t), from the same arrays.  One loop, :func:`_run_table`,
runs both directions: :func:`sample` runs a sampler's table through it,
handing the model ``at[k]``, and :func:`euler_maruyama_forward` the forward
SDE's Euler-Maruyama table (1 + f dt, no B, g sqrt(dt)), which calls no
model.  The kinds map onto the table as follows:

* ``generalized``: the exponential integrator, already in eps_hat form,

      z_s = (alpha_s/alpha_t) z_t
            - (1+rho^2)/(1+gamma) alpha_s
              [e^{-(1+gamma) lam_t / 2} - e^{-(1+gamma) lam_s / 2}]
              e^{gamma lam_t / 2} eps_hat(z_t, alpha_t, sigma_t)
            + rho alpha_t sqrt(e^{-lam_t} - e^{-lam_s})
              (alpha_s/alpha_t)^{1-delta} (sigma_s/sigma_t)^delta xi;
* ``kingma``: the ancestral step, ``generalized`` at rho = gamma = delta = 1;
* ``non_markovian``: the DDIM-style step through the denoiser x_hat, with
  x_hat = (z_t - sigma_t eps_hat)/alpha_t;
* ``euler_backward``: Euler-Maruyama on the reverse SDE, with
  score = -eps_hat/sigma_t;
* ``exact_reference``: ``generalized`` on the grid refined into
  ``substeps`` equal sub-steps per interval; as substeps grows it converges
  to the exact backward solution (pointwise for rho = 0).

The public steppers, except :func:`step_kingma`, are one step of the same
table, the step :func:`sample` takes.  ``step_kingma`` is an independent
transcription with its own scalar schedule calls, so its agreement with
``step_generalized`` at rho = gamma = delta = 1 is a real cross-check of
the table.  Steppers take the noise draw only as the array ``eps``, which
a stochastic step needs; the loop addresses noise by (seed, purpose, step,
trajectory row), so results do not depend on how trajectories are batched
or threaded.  The refined-grid reference is the ``exact_reference`` kind
of :func:`sample`.

:func:`sample` runs a sequence of cells, configs that differ only in
(rho, gamma, delta), in one pass; a single config is a one-cell sequence.
The table takes those parameters as (cells, 1, 1, 1) arrays, so the step
index stays its last axis, and the cells share the grid, every noise draw
and each score call.  A trajectory is the (steps + 1, n, d) array of states
on the grid.

On a ``uniform_lambda`` grid between the same lambda endpoints,
``generalized``, ``kingma`` and ``non_markovian`` at eta = 0 give the same
x = z/alpha(t_end) on every schedule: their coefficients depend on the
schedule only through lambda and alpha.  ``non_markovian`` at eta > 0 is
invariant on variance-preserving schedules only; ``euler_backward``, and
``exact_reference`` with substeps > 1, split intervals in t and are not.
"""

from __future__ import annotations

import contextvars
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import rng
from .dynamics import ScoreModel, _exp_diff, _levels, forward_coeffs
from .errors import ConfigError, NumericalError, finite_real, integer
from .schedule import Schedule
from .snr_space import t_of_lambda

SAMPLER_KINDS = ("generalized", "kingma", "non_markovian",
                 "euler_backward", "exact_reference")
GRID_KINDS = ("uniform_t", "uniform_lambda")

# Test hook: flip the sign of the generalized table's eps-hat coefficient
# (step_kingma, the independent transcription, keeps it).  Used by mutation
# tests to confirm which verification checks catch it.
_MUTATE_FLIP_EPS_BRACKET = False

# State values (cells x rows x d) each worker must get per step for a split
# of sample's rows to pay.  Every worker makes ~16 short numpy calls a step;
# on smaller shares the GIL hand-offs between them cost more than another
# core saves.  On a 2-core host two workers broke even at 10k to 24k values
# a step on 1-D, D = 2 and D = 16 targets.
_GRAIN = 8192

# Noise values (n x d) a step's draw must hold for a pass on one row worker
# to give a spare thread the draws of the steps ahead.  On a 2-core host a
# 1-D pass slowed at 1k rows and gained from 2.5k rows up.
_NOISE_GRAIN = 4096
# Bytes of draws the spare thread may hold ahead of the update.
_WINDOW_BYTES = 1 << 20


def _draw(shape, eps) -> np.ndarray:
    if eps is None:
        raise ValueError("stochastic step needs the noise draw eps")
    return np.broadcast_to(np.asarray(eps, dtype=float), shape)


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
    """(A, B, C, at) of z_s = A z_t + B eps_hat(z_t, *at[k]) + C xi on each
    interval times[k] -> times[k+1] (k last), at[k] the score's (alpha,
    sigma) at times[k]; rho, gamma, delta may be arrays.  C is None when no
    noise is injected.  exact_reference takes the refined grid.  The one
    check of gamma = -1 (the 1/(1+gamma) prefactor): a ConfigError."""
    if kind == "kingma":
        rho = gamma = delta = 1.0
    rho, gamma, delta = (np.asarray(v, dtype=float) for v in (rho, gamma, delta))
    times = np.asarray(times, dtype=float)
    alpha, sigma = schedule.alpha(times), schedule.sigma(times)
    alpha_t, alpha_s = alpha[:-1], alpha[1:]
    sigma_t, sigma_s = sigma[:-1], sigma[1:]
    at = list(zip(alpha_t.tolist(), sigma_t.tolist()))

    if kind == "non_markovian":
        beta2 = non_markovian_beta2(schedule, times[1:], times[:-1], eta)
        a = alpha_s / alpha_t
        b = np.sqrt(sigma_s ** 2 - beta2) - a * sigma_t
        return a, b, (np.sqrt(beta2) if eta != 0.0 else None), at

    if kind == "euler_backward":
        sde = forward_coeffs(schedule, times[:-1])
        h = np.diff(times)
        a = 1.0 + sde.f * h
        b = 0.5 * (1.0 + rho * rho) * sde.g ** 2 * h / sigma_t
        return a, b, rho * sde.g * np.sqrt(-h) if np.any(rho != 0.0) else None, at

    if np.any(gamma == -1.0):
        raise ConfigError("gamma = -1 is excluded for the generalized step")
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
    return a, b, c, at


def _power(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x ** p, one scalar exponent at a time: numpy rounds x ** 0.5, 2 or -1
    differently for an array of exponents than for a single one."""
    return np.reshape([x ** float(q) for q in p.flat], p.shape[:-1] + (-1,))


def _refine(grid: np.ndarray, substeps: int) -> np.ndarray:
    """Split every interval of a decreasing grid into equal sub-steps in t."""
    sub = np.linspace(grid[:-1], grid[1:], substeps + 1, axis=-1)[:, :-1]
    return np.append(sub.ravel(), grid[-1])


def _affine_step(score: ScoreModel, z, table, k: int, xi=None) -> np.ndarray:
    """Step k of the table applied to z, with noise draw xi; a table
    without B calls no model."""
    a, b, c, at = table
    out = a[..., k] * z
    if b is not None:
        out = out + b[..., k] * score.eps(z, *at[k])
    return out if xi is None else out + c[..., k] * xi


def _step(schedule: Schedule, score: ScoreModel, z_t, t: float, s: float,
          kind: str, eps, **params) -> np.ndarray:
    """One ``kind`` step of the table from t to s; s = t is the identity."""
    t, s = float(t), float(s)
    _check_times(schedule, s, t)
    z = np.asarray(z_t, dtype=float)
    if s == t:
        return z.copy()
    table = _affine_table(schedule, np.array([t, s]), kind, **params)
    c = table[2]
    xi = None if c is None or c[0] == 0.0 else _draw(z.shape, eps)
    return _affine_step(score, z, table, 0, xi)


def step_generalized(schedule: Schedule, score: ScoreModel, z_t, t: float,
                     s: float, rho: float, gamma: float, delta: float,
                     eps=None) -> np.ndarray:
    """One generalized backward step from t to s (see module docstring).

    The eps-hat prediction sees (z_t, alpha_t, sigma_t).  With s = t the
    step is the identity.  gamma = -1 is a ConfigError (the 1/(1+gamma)
    prefactor); delta may be any real but negative values are flagged.
    """
    return _step(schedule, score, z_t, t, s, "generalized", eps,
                 rho=rho, gamma=gamma, delta=delta)


def step_kingma(schedule: Schedule, score: ScoreModel, z_t, t: float,
                s: float, eps=None) -> np.ndarray:
    """Ancestral-style backward step: posterior mean plus matched noise.

    Mean (alpha_s/alpha_t) z_t + alpha_s alpha_t (e^{-lam_t} - e^{-lam_s})
    score(z_t), noise std alpha_t sqrt(e^{-lam_t} - e^{-lam_s})
    sigma_s / sigma_t — written in eps-hat form below.  Coincides with
    step_generalized at rho = gamma = delta = 1 (kept as an independent
    transcription so the equality is a real cross-check).
    """
    t, s = float(t), float(s)
    _check_times(schedule, s, t)
    z = np.asarray(z_t, dtype=float)
    if s == t:
        return z.copy()

    alpha_t, sigma_t = _levels(schedule, t)
    alpha_s, sigma_s = _levels(schedule, s)
    lam_t, lam_s = float(schedule.lam(t)), float(schedule.lam(s))

    bracket = np.exp(-lam_s) * np.expm1(lam_s - lam_t)
    eps_hat = score.eps(z, alpha_t, sigma_t)
    mean = (alpha_s / alpha_t) * z \
        - alpha_s * bracket * np.exp(0.5 * lam_t) * eps_hat
    noise_coef = alpha_t * np.sqrt(bracket) * (sigma_s / sigma_t)
    return mean + noise_coef * _draw(z.shape, eps)


def step_non_markovian(schedule: Schedule, score: ScoreModel, z_t, t: float,
                       s: float, eta: float, eps=None) -> np.ndarray:
    """DDIM-style backward step through the predicted clean sample.

    z_s = alpha_s x_hat + sqrt(sigma_s^2 - beta^2) (z_t - alpha_t x_hat)/sigma_t
          + beta eps, with x_hat = (z_t - sigma_t eps_hat)/alpha_t.
    eta = 0 gives the deterministic step; eta = 1 injects the largest noise
    the marginal-preserving family allows for this beta parameterization.
    """
    return _step(schedule, score, z_t, t, s, "non_markovian", eps, eta=eta)


def step_euler_backward(schedule: Schedule, score: ScoreModel, z_t, t: float,
                        s: float, rho: float, eps=None) -> np.ndarray:
    """One Euler-Maruyama step of the reverse SDE from t to s."""
    return _step(schedule, score, z_t, t, s, "euler_backward", eps, rho=rho)


def make_time_grid(schedule: Schedule, grid_kind: str, steps: int,
                   t_start: float, t_end: float) -> np.ndarray:
    """Decreasing time grid with steps+1 nodes from t_start down to t_end.

    ``uniform_t`` spaces nodes evenly in t; ``uniform_lambda`` spaces them
    evenly in lambda (equidistributing the per-step SNR change) and maps
    back through the lambda inverse.  Endpoints are exact.  The one check
    of a run's window: an endpoint outside the schedule window, or t_end >
    t_start, is a ConfigError; t_end == t_start gives the grid [t_start].
    """
    if grid_kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {grid_kind!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    t_start, t_end = float(t_start), float(t_end)
    for name, value in (("t_start", t_start), ("t_end", t_end)):
        try:
            schedule._check_t(value)
        except ValueError as exc:
            raise ConfigError(f"{name}={value}: {exc}") from exc
    if t_end > t_start:
        raise ConfigError("need t_end <= t_start")
    if t_end == t_start:
        return np.array([t_start])
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
    grid interval).  Construction checks fields one by one; the window is
    :func:`make_time_grid`'s rule and gamma = -1 is :func:`_affine_table`'s.
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
            if integer(name, getattr(self, name)) < 1 and name != "seed":
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
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigError("eta must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)


# the fields a pass's cells may differ in, and the ones they must share
_CELL_FIELDS = ("rho", "gamma", "delta")
_SHARED_FIELDS = tuple(name for name in SamplerConfig.__dataclass_fields__
                       if name not in _CELL_FIELDS)


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


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(threads: int, cores: int, cells: int, n: int,
                  d: int) -> int:
    """Workers for a pass of ``cells`` x n rows x d state values: at most
    ``threads``, ``cores`` and n, each worker given at least _GRAIN values
    per step, and at least one."""
    return max(1, min(threads, cores, n, cells * n * d // _GRAIN))


def _helper_count(threads: int, cores: int, workers: int,
                  noise_values: int) -> int:
    """Spare threads for a pass on ``workers`` row workers that draws
    ``noise_values`` noise values a step (0 if it injects none): one when
    the pass runs on one worker, ``threads`` and ``cores`` both allow
    another, and each draw holds at least _NOISE_GRAIN values; else none.
    A pass split across rows keeps its row split."""
    return int(workers == 1 < min(threads, cores)
               and noise_values >= _NOISE_GRAIN)


class _StepNoise:
    """The full-width noise draws of a pass's steps, shared by the thread
    running the update and one spare thread that draws the steps ahead.

    Steps are claimed in order from one counter and each is drawn once, by
    whichever thread claims it; no claim runs ``window`` or more steps ahead
    of the step the update takes next.  The update does not wait while a
    step is left to claim: when its own step is still being drawn, it draws
    the next unclaimed one.  A draw is ``rng.row_normals`` over all rows, so
    its bits are those of the one-thread pass.
    """

    def __init__(self, seed: int, purpose: int, steps: int, n: int, d: int,
                 window: int):
        self._draw_args = seed, purpose, n, d
        self._steps, self._window = steps, window
        self._cond = threading.Condition()
        self._claimed = 0  # steps claimed by either thread
        self._taken = 0    # steps the update has taken
        self._ready = {}   # step -> its draw, not yet taken
        self._error = None
        self._closed = False

    def _draw(self, i: int) -> np.ndarray:
        seed, purpose, n, d = self._draw_args
        return rng.row_normals(seed, purpose, i, 0, n, d)

    def _claim(self):
        """The next unclaimed step inside the window, or None; call with
        the lock held."""
        if (self._closed or self._claimed == self._steps
                or self._claimed - self._taken >= self._window):
            return None
        self._claimed += 1
        return self._claimed - 1

    def fill(self) -> None:
        """The spare thread: draw claimed steps until every step is claimed
        or the pass closes; a failed draw is handed to the update."""
        try:
            while True:
                with self._cond:
                    while (i := self._claim()) is None:
                        if self._closed or self._claimed == self._steps:
                            return
                        self._cond.wait()
                xi = self._draw(i)
                with self._cond:
                    self._ready[i] = xi
                    self._cond.notify_all()
        except BaseException as exc:
            with self._cond:
                self._error = exc
                self._cond.notify_all()
            raise

    def take(self, i: int) -> np.ndarray:
        """Step i's draw; the update takes steps 0, 1, ... in order."""
        while True:
            with self._cond:
                if self._error is not None:
                    raise self._error
                if i in self._ready:
                    self._taken = i + 1
                    self._cond.notify_all()
                    return self._ready.pop(i)
                j = self._claim()
                if j is None:
                    self._cond.wait()
                    continue
            xi = self._draw(j)
            with self._cond:
                self._ready[j] = xi

    def close(self) -> None:
        """End the pass: the spare thread claims no further step."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


def _run_table(score, table, z0: np.ndarray, grid, stride: int, seed: int,
               purpose: int, cells: int = 1, threads: int = 1,
               trajectories: bool = False, name_cells: bool = False):
    """Step the (n, d) states z0 through an (A, B, C, at) table holding
    ``stride`` steps per interval of ``grid``, step i's noise drawn at
    (seed, ``purpose``, i, row).  Threads and the NumericalError for a
    non-finite state are as :func:`sample` says; the error names a cell
    only with ``name_cells``.  Returns the (cells, n, d) final states and,
    with ``trajectories``, the (len(grid), n, d) states on the grid."""
    n, d = z0.shape
    stochastic = table[2] is not None
    n_steps = (len(grid) - 1) * stride
    states = np.empty((len(grid), n, d)) if trajectories else None
    out = np.empty((cells, n, d))

    def run_rows(row_start: int, row_stop: int, noise=None):
        """Run rows [row_start, row_stop) into ``out``, taking each step's
        draw from ``noise`` if given, or return their first non-finite state
        as ((step, [cell,] row), message)."""
        z = z0[row_start:row_stop]
        if trajectories:
            states[0, row_start:row_stop] = z
        for i in range(n_steps):
            xi = None
            if noise is not None:
                xi = noise.take(i)
            elif stochastic:
                xi = rng.row_normals(seed, purpose, i, row_start, row_stop, d)
            z = _affine_step(score, z, table, i, xi)
            if (i + 1) % stride:
                continue
            k = i // stride
            if not np.isfinite(z).all():
                *cell, row, col = np.argwhere(~np.isfinite(z))[0]
                where = f" of cell {cell[0]}" if name_cells and cell else ""
                return ((k, *cell, row_start + row),
                        f"non-finite state at step {k} (t={grid[k]} -> "
                        f"s={grid[k + 1]}): row {row_start + row}{where} holds "
                        f"{z[(*cell, row, col)]}")
            if trajectories:
                states[k + 1, row_start:row_stop] = z
        out[:, row_start:row_stop] = z
        return None

    # one span of rows per worker, or one worker and a spare thread drawing
    # its noise; each pool thread runs in a copy of the caller's context, so
    # numpy's errstate (a context variable) holds in the pool
    threads, cores = int(threads), _usable_cores()
    workers = _worker_count(threads, cores, cells, n, d)
    helpers = _helper_count(threads, cores, workers, n * d if stochastic else 0)
    bounds = np.linspace(0, n, workers + 1).astype(int).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    if workers + helpers == 1:
        failures = [run_rows(*spans[0])]
    else:
        failures = []
        with ThreadPoolExecutor(max_workers=helpers or workers) as pool:
            if helpers:
                noise = _StepNoise(seed, purpose, n_steps, n, d,
                                   max(1, _WINDOW_BYTES // (8 * n * d)))
                futures = [pool.submit(contextvars.copy_context().run,
                                       noise.fill)]
                try:
                    failures.append(run_rows(0, n, noise))
                finally:
                    noise.close()
            else:
                futures = [pool.submit(contextvars.copy_context().run,
                                       run_rows, *span) for span in spans]
        failures += [future.result() for future in futures]
    # the earliest (step, cell, row): what one worker over all rows meets
    failures = [f for f in failures if f is not None]
    if failures:
        raise NumericalError(min(failures)[1])
    return out, states


def sample(schedule: Schedule, score: ScoreModel, config, n: int, d: int,
           threads: int = 1, return_trajectories: bool = False):
    """Run the configured backward pass for n trajectories of dimension d.

    The prior is z ~ N(0, sigma(t_start)^2 I).  Noise is addressed by
    (seed, purpose, step, trajectory row), so the returned samples are a
    pure function of (config, n, d) regardless of ``threads`` or any other
    batching.  ``threads`` is the most threads the pass may use.  Its rows
    split across at most one worker per usable core, one per row and one
    per _GRAIN state values (cells x n x d) a step, so a small pass runs on
    one.  A stochastic pass left on one worker, with another thread and
    core to spare and at least _NOISE_GRAIN noise values (n x d) a step,
    gets one spare thread that draws its step noise ahead of the update;
    every thread started is joined before ``sample`` returns or raises.
    Raises NumericalError, naming the step, its interval and the first
    bad row (and cell) of the pass, whatever ``threads``, if a trajectory
    goes non-finite; a bad window or gamma = -1 is a ConfigError from the
    function that owns the rule.

    ``config`` is one SamplerConfig or a sequence of cells that differ only
    in rho, gamma and delta; one config runs as a one-cell sequence.  Returns
    (n, d) samples for one config and (cells, n, d) for a sequence, cell i
    bit for bit the samples of ``config[i]`` run alone.  For one config,
    ``return_trajectories`` returns ``(x, times, states)`` instead: the
    decreasing time grid and the (len(times), n, d) states on it, the prior
    first and ``x`` last (for exact_reference, the grid nodes only).
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    single = isinstance(config, SamplerConfig)
    cells = [config] if single else list(config)
    if not cells or (return_trajectories and not single):
        raise ValueError("need one or more cells and no trajectories")
    config = cells[0]
    if len({tuple(getattr(c, name) for name in _SHARED_FIELDS)
            for c in cells}) > 1:
        raise ValueError("cells may differ only in rho, gamma and delta")
    params = {name: np.reshape([getattr(c, name) for c in cells], (-1, 1, 1, 1))
              for name in _CELL_FIELDS}
    grid = make_time_grid(
        schedule, config.grid_kind, config.steps,
        schedule.t_max if config.t_start is None else config.t_start,
        schedule.t_min if config.t_end is None else config.t_end)
    seed = int(config.seed)
    prior = float(schedule.sigma(grid[0])) * rng.row_normals(
        seed, rng.PURPOSE_PRIOR, 0, 0, n, d)

    # exact_reference: the generalized table on the refined grid, with the
    # draw for refined step i addressed as step i; states stay on the grid
    stride = config.substeps if config.kind == "exact_reference" else 1
    table = _affine_table(schedule, _refine(grid, stride), config.kind,
                          eta=config.eta, **params)
    out, states = _run_table(score, table, prior, grid, stride, seed,
                             rng.PURPOSE_STEP, len(cells), threads,
                             return_trajectories, not single)
    x = out[0] if single else out
    return (x, grid, states) if return_trajectories else x


def _forward_table(schedule: Schedule, steps: int, zero_noise: bool = False):
    """The uniform grid over the window and the forward SDE's table on it,
    (A, B, C) = (1 + f dt, None, g sqrt(dt)), C None with ``zero_noise``."""
    times = np.linspace(schedule.t_min, schedule.t_max, steps + 1)
    dt = np.diff(times)
    sde = forward_coeffs(schedule, times[:-1])
    return times, (1.0 + sde.f * dt, None,
                   None if zero_noise else sde.g * np.sqrt(dt), None)


def euler_maruyama_forward(schedule: Schedule, z0, steps: int, seed: int,
                           n_paths: int = 1, zero_noise: bool = False,
                           return_path: bool = False):
    """Simulate the forward SDE on a uniform time grid over the window.

    Each step is z <- (1 + f dt) z + g sqrt(dt) xi, run by :func:`sample`'s
    loop.  ``z0``, of at most two dimensions, broadcasts to (n_paths, D).
    Noise is addressed by (seed, purpose, step, path row), so a path does
    not depend on ``n_paths``; a non-finite state raises :func:`sample`'s
    NumericalError.  ``zero_noise=True`` suppresses the diffusion term
    (test hook for isolating drift behaviour).

    Returns the final state (n_paths, D), or (times, path) with path of
    shape (steps + 1, n_paths, D) when ``return_path`` is set.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim > 2:
        raise ValueError(f"z0 must have at most 2 dimensions, got {z0.shape}")
    z0 = np.broadcast_to(z0, (n_paths, z0.shape[-1] if z0.ndim else 1))
    times, table = _forward_table(schedule, steps, zero_noise)
    out, path = _run_table(None, table, z0, times, 1, int(seed),
                           rng.PURPOSE_FORWARD, trajectories=return_path)
    return (times, path) if return_path else out[0]
