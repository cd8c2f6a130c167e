"""The four benchmark workloads: config generation, CLI argv, output checks.

Each workload draws its JSON config from the workload seed with the
benchmark's own numpy generator, so the program only ever sees the
generated inputs.  Checks read the files a CLI invocation wrote and
return a list of problems (empty when the output is correct); they use
numpy and the config alone, never the program under test, except where
a docstring says otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Multiples of the sampling standard error allowed for moment errors, plus
# an absolute allowance for the bias of a 100-step sampler.  Over seeds 0-19
# (0-11 for sample_wide) of the seed code the largest errors were 0.31 of the
# mean bound, a relative covariance error of 0.12 and a Gaussian-fit KL of
# 4.3e-3 (sample_wide, uniform_t); the sampler with a flipped eps-hat sign
# misses the bounds by orders of magnitude.
MOMENT_SIGMAS = 6.0
MEAN_BIAS_ALLOW = 0.05
COV_BIAS_ALLOW = 0.15
KL_ALLOW = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[np.random.Generator], dict]
    argv: Callable[[str, str], list[str]]
    outputs: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]
    # once per run, untimed: extra(cfg, argv, out, same_output) -> problems,
    # where same_output(argv) runs the CLI and compares its files with out
    extra: Callable[..., list[str]] | None = None


def _seed(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**31 - 1))


def _single_gaussian_1d(gen: np.random.Generator) -> dict:
    return {"weights": [1.0],
            "means": [[float(gen.normal(0.0, 1.0))]],
            "covs": [[[float(gen.uniform(0.25, 2.0))]]]}


def _weights(gen: np.random.Generator, k: int) -> list[float]:
    w = gen.dirichlet(np.full(k, 4.0))
    w[-1] = 1.0 - w[:-1].sum()
    return [float(v) for v in w]


def mixture_moments(gmm: dict) -> tuple[np.ndarray, np.ndarray]:
    """Analytic mean and covariance of a config's mixture."""
    w = np.asarray(gmm["weights"], dtype=float)
    mu = np.asarray(gmm["means"], dtype=float)
    covs = []
    for c in gmm["covs"]:
        c = np.asarray(c, dtype=float)
        covs.append(np.diag(c) if c.ndim == 1 else c)
    covs = np.asarray(covs)
    mean = w @ mu
    centered = mu - mean
    cov = (np.einsum("k,kij->ij", w, covs)
           + np.einsum("k,ki,kj->ij", w, centered, centered))
    return mean, cov


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], np.empty((0, 0))
    body = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    return rows[0], body.reshape(len(rows) - 1, len(rows[0]))


def _check_samples(out: Path, cfg: dict, n: int) -> tuple[list[str], dict]:
    """Row count, finiteness and moment errors of a ``sample`` run."""
    problems = []
    header, body = _read_csv(out / "samples.csv")
    gmm = cfg["gmm"]
    d = len(gmm["means"][0])
    if header != ["sample_id"] + [f"x_{j}" for j in range(d)]:
        return [f"samples.csv header {header}"], {}
    if body.shape[0] != n:
        return [f"samples.csv has {body.shape[0]} rows, expected {n}"], {}
    if not np.array_equal(body[:, 0], np.arange(n)):
        problems.append("samples.csv sample ids are not 0..n-1")
    x = body[:, 1:]
    if not np.all(np.isfinite(x)):
        return problems + ["samples.csv holds non-finite values"], {}

    report = json.loads((out / "report.json").read_text())
    mean, cov = mixture_moments(gmm)
    mean_err = float(np.linalg.norm(x.mean(axis=0) - mean))
    emp_cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    cov_err = float(np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov))
    if report.get("n") != n:
        problems.append(f"report.json n={report.get('n')}, expected {n}")
    for key, own in (("mean_error_l2", mean_err),
                     ("cov_frobenius_error", cov_err)):
        got = report.get(key)
        if not isinstance(got, float) or not math.isclose(
                got, own, rel_tol=1e-6, abs_tol=1e-12):
            problems.append(f"report.json {key}={got} but samples give {own}")
    tr = float(np.trace(cov))
    fro = float(np.linalg.norm(cov))
    mean_bound = MOMENT_SIGMAS * math.sqrt(tr / n) + MEAN_BIAS_ALLOW
    cov_bound = (MOMENT_SIGMAS * math.sqrt(tr * tr + fro * fro) / (fro * math.sqrt(n))
                 + COV_BIAS_ALLOW)
    if not mean_err <= mean_bound:
        problems.append(f"mean error {mean_err:.4g} exceeds {mean_bound:.4g}")
    if not cov_err <= cov_bound:
        problems.append(f"cov error {cov_err:.4g} exceeds {cov_bound:.4g}")
    ed = report.get("energy_distance")
    if not (isinstance(ed, float) and math.isfinite(ed) and ed >= 0.0):
        problems.append(f"report.json energy_distance={ed}")
    return problems, report


# ---------------------------------------------------------------- mixture_sample

MIX_N = 2000


def _mixture_config(gen: np.random.Generator) -> dict:
    k, d = 8, 16
    return {
        "schedule": {"name": "VP"},
        "gmm": {"weights": _weights(gen, k),
                "means": gen.normal(0.0, 2.0, (k, d)).tolist(),
                "covs": gen.uniform(0.25, 1.5, (k, d)).tolist()},
        "sampler": {"kind": "generalized", "rho": 1.0, "gamma": 1.0,
                    "delta": 1.0, "steps": 100, "grid_kind": "uniform_lambda",
                    "seed": _seed(gen)},
    }


def _check_mixture_sample(out: Path, cfg: dict) -> list[str]:
    return _check_samples(out, cfg, MIX_N)[0]


# ---------------------------------------------------------------- sweep_scalar

SWEEP_N = 256
SWEEP_GAMMAS = "0.5:1.5:5"
SWEEP_DELTAS = "0.8:1.2:5"
SWEEP_CELLS = 25
SWEEP_HEADER = ["gamma", "delta", "rho", "mean_error_l2",
                "cov_frobenius_error", "energy_distance"]


def _sweep_config(gen: np.random.Generator) -> dict:
    return {
        "schedule": {"name": "iDDPM"},
        "gmm": _single_gaussian_1d(gen),
        "sampler": {"steps": 100, "grid_kind": "uniform_lambda",
                    "seed": _seed(gen)},
    }


def _check_sweep(out: Path, cfg: dict) -> list[str]:
    header, body = _read_csv(out / "sweep.csv")
    if header != SWEEP_HEADER:
        return [f"sweep.csv header {header}"]
    if body.shape[0] != SWEEP_CELLS:
        return [f"sweep.csv has {body.shape[0]} rows, expected {SWEEP_CELLS}"]
    if not np.all(np.isfinite(body)):
        return ["sweep.csv holds non-finite values"]
    problems = []
    if np.any(body[:, 3:] < 0.0):
        problems.append("sweep.csv holds negative errors")
    best = json.loads((out / "sweep_best.json").read_text())
    expected = dict(zip(SWEEP_HEADER, body[int(np.argmin(body[:, 5]))]))
    if set(best) != set(expected) or any(
            float(best[k]) != float(v) for k, v in expected.items()):
        problems.append(f"sweep_best.json {best} is not the row with the "
                        f"smallest energy distance {expected}")
    return problems


# ---------------------------------------------------------------- info_mixture

INFO_LAMBDAS = "-6:6:97"
INFO_POINTS = 97
INFO_MC_N = 20000
INFO_STDERRS = 4.0


def _info_config(gen: np.random.Generator) -> dict:
    covs = []
    for _ in range(2):
        a = gen.normal(0.0, 0.7, (2, 2))
        covs.append((a @ a.T + 0.3 * np.eye(2)).tolist())
    return {
        "schedule": {"name": "FM_OT"},
        "gmm": {"weights": _weights(gen, 2),
                "means": gen.normal(0.0, 2.0, (2, 2)).tolist(),
                "covs": covs},
        "sampler": {"seed": _seed(gen)},
    }


def _check_info(out: Path, cfg: dict) -> list[str]:
    header, body = _read_csv(out / "info.csv")
    if header != ["lambda", "mmse", "dmi_dlambda"]:
        return [f"info.csv header {header}"]
    if body.shape[0] != INFO_POINTS:
        return [f"info.csv has {body.shape[0]} rows, expected {INFO_POINTS}"]
    if not np.all(np.isfinite(body)):
        return ["info.csv holds non-finite values"]
    if not np.allclose(body[:, 0], np.linspace(-6.0, 6.0, INFO_POINTS),
                       rtol=0.0, atol=1e-12):
        return ["info.csv lambda column is not the requested grid"]
    return []


def _info_extra(cfg: dict, argv: list[str], out: Path, same_output) -> list[str]:
    """mmse lies in (0, tr Cov] and does not rise with lambda, both up to
    its Monte Carlo stderr.

    The CSV holds no stderr, so this calls the library's ``mmse_mc`` with
    the run's seed; its estimates must also equal the CSV's exactly.
    """
    from snrdiff.gmm import gmm_from_dict
    from snrdiff.infotheory import mmse_mc
    from snrdiff.schedule import schedule_from_dict

    _, body = _read_csv(out / "info.csv")
    gmm = gmm_from_dict(cfg["gmm"])
    sched = schedule_from_dict(cfg["schedule"])
    est = [mmse_mc(gmm, sched, float(lam), INFO_MC_N, cfg["sampler"]["seed"])
           for lam in body[:, 0]]
    mmse = np.array([e.value for e in est])
    stderr = np.array([e.stderr for e in est])
    if not np.array_equal(mmse, body[:, 1]):
        return ["info.csv mmse differs from mmse_mc at the same seed"]
    problems = []
    tr = float(np.trace(mixture_moments(cfg["gmm"])[1]))
    if not (np.all(mmse > 0.0)
            and np.all(mmse <= tr + INFO_STDERRS * stderr)):
        problems.append(f"mmse outside (0, tr Cov = {tr:.4g}] by more than "
                        f"{INFO_STDERRS:g} stderr")
    rise = np.diff(mmse) - np.maximum(stderr[:-1], stderr[1:])
    bad = np.flatnonzero(rise > 0.0)
    if bad.size:
        i = int(bad[0])
        problems.append(f"mmse rises from {mmse[i]:.6g} to {mmse[i + 1]:.6g} "
                        f"at row {i + 1}, beyond its MC stderr")
    return problems


# ---------------------------------------------------------------- sample_wide

WIDE_N = 10000
WIDE_THREADS = 2


def _wide_config(gen: np.random.Generator) -> dict:
    return {
        "schedule": {"name": "VP"},
        "gmm": _single_gaussian_1d(gen),
        "sampler": {"steps": 100, "grid_kind": "uniform_t",
                    "seed": _seed(gen)},
    }


def _check_wide(out: Path, cfg: dict) -> list[str]:
    problems, report = _check_samples(out, cfg, WIDE_N)
    if report:
        kl = report.get("gaussian_kl")
        bound = 20.0 / WIDE_N + KL_ALLOW
        if not (isinstance(kl, float) and 0.0 <= kl <= bound):
            problems.append(f"gaussian_kl={kl} outside [0, {bound:.4g}]")
    return problems


def _wide_extra(cfg: dict, argv: list[str], out: Path, same_output) -> list[str]:
    """--threads 1 must write the same bytes as --threads 2."""
    one = list(argv)
    one[one.index("--threads") + 1] = "1"
    return [] if same_output(one) else [
        "--threads 1 output differs from --threads 2"]


def _common(cfg_path: str, out: str) -> list[str]:
    return ["--config", cfg_path, "--out", out]


WORKLOADS = {w.name: w for w in (
    Workload(
        "mixture_sample",
        "sample, K=8 D=16 diagonal mixture, n=2000: the GMM oracle score "
        "(Cholesky per component per step) dominates",
        _mixture_config,
        lambda c, o: ["sample", *_common(c, o), "-n", str(MIX_N),
                      "--threads", "1"],
        ("samples.csv", "report.json"),
        _check_mixture_sample,
    ),
    Workload(
        "sweep_scalar",
        "sweep, iDDPM 1-D Gaussian, 5x5 (gamma, delta) cells: scalar schedule "
        "calls and lambda->t bisection in grid building dominate",
        _sweep_config,
        lambda c, o: ["sweep", *_common(c, o), "-n", str(SWEEP_N),
                      "--gammas", SWEEP_GAMMAS, "--deltas", SWEEP_DELTAS,
                      "--rhos", "1", "--threads", "1"],
        ("sweep.csv", "sweep_best.json"),
        _check_sweep,
    ),
    Workload(
        "info_mixture",
        "info, FM_OT 2-D full-covariance 2-mixture, 97 lambdas, mc-n 20000: "
        "batched posterior means and data draws dominate",
        _info_config,
        lambda c, o: ["info", *_common(c, o), f"--lambdas={INFO_LAMBDAS}",
                      "--mc-n", str(INFO_MC_N), "--threads", "1"],
        ("info.csv",),
        _check_info,
        _info_extra,
    ),
    Workload(
        "sample_wide",
        "sample, VP 1-D Gaussian, n=10000 uniform_t on 2 threads: O(n^2) "
        "energy distance and wide row_normals dominate",
        _wide_config,
        lambda c, o: ["sample", *_common(c, o), "-n", str(WIDE_N),
                      "--threads", str(WIDE_THREADS)],
        ("samples.csv", "report.json"),
        _check_wide,
        _wide_extra,
    ),
)}
