"""Closed-form noise schedules.

A schedule is the pair of positive functions ``alpha(t)`` (signal) and
``sigma(t)`` (noise) on a clipped window ``[t_min, t_max]`` inside the
normalized horizon ``[0, 1]``, together with the log signal-to-noise ratio

    lambda(t) = log(alpha(t)^2 / sigma(t)^2),

which must be strictly decreasing.  All derivatives are hand-derived
closed forms per family — never finite differences — because downstream
SDE coefficients need them exactly.

Built-in families and default parameters:

=======  ==============================================  =================
name     alpha(t), sigma(t)                              defaults
=======  ==============================================  =================
VP       exp(-B/2), sqrt(1 - exp(-B)),                   beta_min=0.1,
         B = beta_d t^2/2 + beta_min t                   beta_d=19.9
VE       1, sigma_min (sigma_max/sigma_min)^t            0.01, 50.0
iDDPM    cos(theta)/cos(theta_0), sqrt(1 - alpha^2),     s=0.008
         theta = (t+s)/(1+s) * pi/2
FM_OT    1 - t, t
=======  ==============================================  =================

Default windows clip endpoints where lambda diverges: VP uses
[1e-3, 1], iDDPM and FM_OT use [1e-3, 1 - 1e-3], VE is regular on [0, 1].

Each built-in family also carries ``lam_inv``, the closed-form inverse
t(lambda), which :func:`snrdiff.snr_space.t_of_lambda` uses in place of
bisection.

The family table ``_FAMILIES`` is the one place these defaults live: a
row per family holds its closure builder, parameters and window.
``Schedule._check_t`` is the only conversion of a time; the closures take
its float array (or the float validation grid) as it is.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError, finite_real

_VALIDATION_GRID = 1001
_WINDOW_ATOL = 1e-12


def float_or_array(x):
    """``x`` as a float if it is a scalar, else as a float array: the
    scalar-or-array rule of the package's evaluation functions."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _vp_fns(params: dict) -> dict[str, Callable]:
    bmin, bd = float(params["beta_min"]), float(params["beta_d"])

    def B(t):
        return 0.5 * bd * t * t + bmin * t

    def Bp(t):
        return bd * t + bmin

    def alpha(t):
        return np.exp(-0.5 * B(t))

    def sigma(t):
        return np.sqrt(-np.expm1(-B(t)))

    def lam(t):
        return -np.log(np.expm1(B(t)))

    def dalpha(t):
        return -0.5 * Bp(t) * alpha(t)

    def dsigma(t):
        return Bp(t) * np.exp(-B(t)) / (2.0 * sigma(t))

    def dlam(t):
        return -Bp(t) * np.exp(B(t)) / np.expm1(B(t))

    def lam_inv(lam):
        # B = log1p(e^{-lambda}); the root of B(t) = B in cancellation-free form
        b = np.log1p(np.exp(-lam))
        return 2.0 * b / (bmin + np.sqrt(bmin * bmin + 2.0 * bd * b))

    return dict(alpha=alpha, sigma=sigma, lam=lam,
                dalpha=dalpha, dsigma=dsigma, dlam=dlam, lam_inv=lam_inv)


def _ve_fns(params: dict) -> dict[str, Callable]:
    smin, smax = float(params["sigma_min"]), float(params["sigma_max"])
    if not (0.0 < smin < smax):
        raise ConfigError("VE requires 0 < sigma_min < sigma_max")
    log_ratio = math.log(smax / smin)

    def alpha(t):
        return np.ones_like(t)

    def sigma(t):
        return smin * np.exp(log_ratio * t)

    def lam(t):
        return -2.0 * (math.log(smin) + log_ratio * t)

    def dalpha(t):
        return np.zeros_like(t)

    def dsigma(t):
        return log_ratio * sigma(t)

    def dlam(t):
        return np.full_like(t, -2.0 * log_ratio)

    def lam_inv(lam):
        return (-0.5 * lam - math.log(smin)) / log_ratio

    return dict(alpha=alpha, sigma=sigma, lam=lam,
                dalpha=dalpha, dsigma=dsigma, dlam=dlam, lam_inv=lam_inv)


def _iddpm_fns(params: dict) -> dict[str, Callable]:
    s = float(params["s"])
    if s <= 0.0:
        raise ConfigError("iDDPM requires s > 0")
    half_pi = 0.5 * math.pi
    theta0 = s / (1.0 + s) * half_pi
    c0, sin0 = math.cos(theta0), math.sin(theta0)
    dtheta = half_pi / (1.0 + s)

    def theta(t):
        return (t + s) / (1.0 + s) * half_pi

    def alpha(t):
        return np.cos(theta(t)) / c0

    def sigma2(t):
        th = theta(t)
        # c0^2 - cos^2(theta), factored to stay accurate near t = 0
        return (2.0 * np.sin(0.5 * (th + theta0)) * np.sin(0.5 * (th - theta0))
                * (c0 + np.cos(th))) / (c0 * c0)

    def sigma(t):
        return np.sqrt(sigma2(t))

    def lam(t):
        return 2.0 * np.log(alpha(t)) - np.log(sigma2(t))

    def dalpha(t):
        return -np.sin(theta(t)) * dtheta / c0

    def dsigma(t):
        return -alpha(t) * dalpha(t) / sigma(t)

    def dlam(t):
        # lambda' = 2 alpha' / (alpha sigma^2), using alpha^2 + sigma^2 = 1
        return 2.0 * dalpha(t) / (alpha(t) * sigma2(t))

    def lam_inv(lam):
        # alpha^2 = sigmoid(lambda), sigma^2 = sigmoid(-lambda); atan2 with
        # sin(theta) = sqrt(sin^2(theta_0) + c0^2 sigma^2) stays accurate
        # near theta_0, where arccos(c0 alpha) would lose digits
        a = np.sqrt(1.0 / (1.0 + np.exp(-lam)))
        sig2 = 1.0 / (1.0 + np.exp(lam))
        th = np.arctan2(np.sqrt(sin0 * sin0 + c0 * c0 * sig2), c0 * a)
        return th / dtheta - s

    return dict(alpha=alpha, sigma=sigma, lam=lam,
                dalpha=dalpha, dsigma=dsigma, dlam=dlam, lam_inv=lam_inv)


def _fm_ot_fns(params: dict) -> dict[str, Callable]:
    def alpha(t):
        return 1.0 - t

    def sigma(t):
        return t + 0.0

    def lam(t):
        return 2.0 * (np.log1p(-t) - np.log(t))

    def dalpha(t):
        return np.full_like(t, -1.0)

    def dsigma(t):
        return np.ones_like(t)

    def dlam(t):
        return -2.0 / (t * (1.0 - t))

    def lam_inv(lam):
        return 1.0 / (1.0 + np.exp(0.5 * lam))

    return dict(alpha=alpha, sigma=sigma, lam=lam,
                dalpha=dalpha, dsigma=dsigma, dlam=dlam, lam_inv=lam_inv)


def _shaped(name: str, fn: Callable) -> Callable:
    """``fn`` with its result as a new float array of ``t``'s shape."""
    def shaped(t):
        out, value = np.empty(t.shape), fn(t)
        try:
            out[...] = value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"Custom {name}(t) must give a real value or "
                              f"an array of t's shape {t.shape}") from exc
        return out
    return shaped


def _custom_fns(params: dict) -> dict[str, Callable]:
    try:
        a, sg, da, dsg = (_shaped(k, params[k])
                          for k in ("alpha", "sigma", "dalpha", "dsigma"))
    except KeyError as exc:
        raise ConfigError(
            "Custom schedule needs callables alpha, sigma, dalpha, dsigma"
        ) from exc

    lam = params.get("lam") or (lambda t: 2.0 * (np.log(a(t)) - np.log(sg(t))))
    dlam = params.get("dlam") or (
        lambda t: 2.0 * (da(t) / a(t) - dsg(t) / sg(t))
    )
    return dict(alpha=a, sigma=sg, lam=_shaped("lam", lam), dalpha=da,
                dsigma=dsg, dlam=_shaped("dlam", dlam))


# name: (closure builder, default parameters, default window)
_FAMILIES = {
    "VP": (_vp_fns, {"beta_min": 0.1, "beta_d": 19.9}, (1e-3, 1.0)),
    "VE": (_ve_fns, {"sigma_min": 0.01, "sigma_max": 50.0}, (0.0, 1.0)),
    "iDDPM": (_iddpm_fns, {"s": 0.008}, (1e-3, 1.0 - 1e-3)),
    "FM_OT": (_fm_ot_fns, {}, (1e-3, 1.0 - 1e-3)),
}

_CANONICAL_NAMES = {name.lower(): name
                    for name in (*_FAMILIES, "Warped", "Custom")}
_CANONICAL_NAMES.update({"fm-ot": "FM_OT", "fmot": "FM_OT"})


class Schedule:
    """An immutable schedule: closed-form alpha, sigma, lambda on a window.

    Construct through :func:`make_schedule` (or :func:`snrdiff.snr_space.time_warp`
    for warped schedules).  All evaluation methods accept scalars or arrays
    and reject times outside ``[t_min, t_max]``.
    """

    def __init__(self, name: str, params: dict, t_min: float, t_max: float,
                 fns: dict[str, Callable]):
        self.name = name
        self.params = params
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self._fns = fns
        self._validate()

    def _validate(self) -> None:
        if not (0.0 <= self.t_min < self.t_max <= 1.0):
            raise ConfigError(
                f"invalid window [{self.t_min}, {self.t_max}]: "
                "need 0 <= t_min < t_max <= 1"
            )
        grid = np.linspace(self.t_min, self.t_max, _VALIDATION_GRID)
        with np.errstate(all="ignore"):
            a = self._fns["alpha"](grid)
            s = self._fns["sigma"](grid)
            l = self._fns["lam"](grid)
            dl = self._fns["dlam"](grid)
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(s))
                and np.all(np.isfinite(l))):
            raise ConfigError(
                f"{self.name}: alpha/sigma/lambda not finite on "
                f"[{self.t_min}, {self.t_max}] (lambda diverges at a window "
                "edge; clip the window)"
            )
        if not (np.all(a > 0.0) and np.all(s > 0.0)):
            raise ConfigError(
                f"{self.name}: alpha and sigma must be positive on the window"
            )
        if not np.all(np.diff(l) < 0.0):
            raise ConfigError(
                f"{self.name}: lambda is not strictly decreasing on the window"
            )
        if not np.all(np.isfinite(dl)) or not np.all(dl < 0.0):
            raise ConfigError(f"{self.name}: dlambda/dt must be negative")

    def _check_t(self, t) -> np.ndarray:
        """``t`` as a float array, or a ValueError if any time lies outside
        the window (NaN passes).  A 0-d time is compared as a float: the
        two ``np.any`` calls would cost most of a scalar evaluation.  This
        is the only conversion of a time; the closures take its result."""
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_min - _WINDOW_ATOL, self.t_max + _WINDOW_ATOL
        if t.ndim == 0:
            v = float(t)
            outside = v < lo or v > hi
        else:
            outside = np.any(t < lo) or np.any(t > hi)
        if outside:
            raise ValueError(
                f"t outside schedule window [{self.t_min}, {self.t_max}]"
            )
        return t

    def alpha(self, t):
        return self._fns["alpha"](self._check_t(t))

    def sigma(self, t):
        return self._fns["sigma"](self._check_t(t))

    def lam(self, t):
        return self._fns["lam"](self._check_t(t))

    def dalpha_dt(self, t):
        return self._fns["dalpha"](self._check_t(t))

    def dsigma_dt(self, t):
        return self._fns["dsigma"](self._check_t(t))

    def dlambda_dt(self, t):
        return self._fns["dlam"](self._check_t(t))

    def lambda_range(self) -> tuple[float, float]:
        """(lambda(t_max), lambda(t_min)) — the attainable range, low first."""
        return float(self.lam(self.t_max)), float(self.lam(self.t_min))

    def to_dict(self) -> dict:
        if self.name not in _FAMILIES:
            raise ConfigError(
                f"{self.name} schedules hold function handles and cannot be "
                "serialized"
            )
        return {
            "name": self.name,
            "params": dict(self.params),
            "t_min": self.t_min,
            "t_max": self.t_max,
        }

    def __repr__(self) -> str:
        return (f"Schedule({self.name}, params={self.params}, "
                f"window=[{self.t_min}, {self.t_max}])")


def canonical_name(name: str) -> str:
    key = str(name).lower()
    if key not in _CANONICAL_NAMES:
        raise ConfigError(
            f"unknown schedule family {name!r}; "
            f"expected one of {sorted(set(_CANONICAL_NAMES.values()))}"
        )
    return _CANONICAL_NAMES[key]


def make_schedule(name: str, params: dict | None = None,
                  t_min: float | None = None,
                  t_max: float | None = None) -> Schedule:
    """Build a schedule from a family name, parameters, and window.

    Omitted parameters and window bounds fall back to the family defaults.
    Raises :class:`ConfigError` for unknown families, missing or unexpected
    parameters, and windows on which the schedule is singular or lambda is
    not strictly decreasing (e.g. VP with t_min = 0).
    """
    name = canonical_name(name)
    if name == "Warped":
        raise ConfigError("build warped schedules with snr_space.time_warp")
    if params is not None and not isinstance(params, dict):
        raise ConfigError(f"{name} params must be an object, got {params!r}")
    params = dict(params or {})

    if name == "Custom":
        fns = _custom_fns(params)
        if t_min is None or t_max is None:
            raise ConfigError("Custom schedules require an explicit window")
    else:
        build, defaults, (default_lo, default_hi) = _FAMILIES[name]
        merged = dict(defaults)
        unknown = set(params) - set(merged)
        if unknown:
            raise ConfigError(f"{name}: unexpected parameters {sorted(unknown)}")
        merged.update({k: finite_real(f"{name} param {k}", v)
                       for k, v in params.items()})
        params = merged
        fns = build(params)
        t_min = default_lo if t_min is None else finite_real("t_min", t_min)
        t_max = default_hi if t_max is None else finite_real("t_max", t_max)

    return Schedule(name, params, t_min, t_max, fns)


def schedule_from_dict(spec: dict) -> Schedule:
    """Inverse of :meth:`Schedule.to_dict` (named families only)."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("schedule spec must be an object with a 'name'")
    if canonical_name(spec["name"]) == "Custom":
        raise ConfigError("Custom schedules take callables, which a JSON "
                          "spec cannot hold")
    return make_schedule(
        spec["name"],
        spec.get("params"),
        spec.get("t_min"),
        spec.get("t_max"),
    )
