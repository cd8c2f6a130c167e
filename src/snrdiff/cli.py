"""Command-line interface.

Subcommands: ``schedules``, ``sample``, ``sweep``, ``info``, ``snrspace``,
``verify``.  Every command is a pure function of its arguments, config
file, and seed: reruns produce byte-identical files.  Each CSV is a float
table in 17 significant digits; ids and step numbers print as integers.

``--threads`` splits the rows of the one sampling pass of ``sample`` and
of ``sweep`` (all of whose cells share that pass); outputs do not change.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or arguments, including an output directory that cannot be created or
written (IO error), 3 numerical failure.

A command builds the text of every output file before writing any, writes
each to a temp file beside its target and renames them into place only
when all are written, so a failure leaves no partial output behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import uuid
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError
from .gmm import GmmSpec, gmm_from_dict, oracle_score_model, sample_data
from .infotheory import (
    dmi_dlambda,
    kong_point,
    mi_gaussian_closed,
    mmse_gaussian,
    mmse_mc,
)
from .metrics import energy_distance, gaussian_kl_fit, moment_report
from .samplers import SamplerConfig, sample, sampler_config_from_dict
from .schedule import Schedule, eval_schedule, make_schedule, schedule_from_dict
from .snr_space import t_of_lambda, tilde_eval
from .verify import run_verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _csv_text(header: list[str], table) -> str:
    """CSV of ``table`` (a 2-D array or equal rows), each value a float in
    17 significant digits: an integer below 2**53 prints as ``str`` gives."""
    row = ",".join(["%.17g"] * len(header))
    lines = [row % tuple(r) for r in np.asarray(table, dtype=float).tolist()]
    return "\n".join([",".join(header), *lines]) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file of ``files`` (name -> text) into ``out_dir``, or
    none: each goes to a temp file there first, and the renames start only
    once all are written and no target is a directory."""
    temps = []
    path = out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            path = out_dir / name
            if path.is_dir():
                raise IsADirectoryError(f"{path} is a directory")
            # not mkstemp: "x" keeps the umask mode a plain open would give
            tmp = out_dir / f".{name}.{uuid.uuid4().hex}.tmp"
            with open(tmp, "x", newline="\n") as fh:
                temps.append((tmp, path))
                fh.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in temps:
            tmp.unlink(missing_ok=True)
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _resolve_schedule(args, cfg: dict) -> Schedule:
    if getattr(args, "schedule", None):
        return make_schedule(args.schedule)
    if "schedule" in cfg:
        return schedule_from_dict(cfg["schedule"])
    raise ConfigError("no schedule given (use --schedule or a config file)")


def _resolve_gmm(cfg: dict) -> GmmSpec:
    if "gmm" not in cfg:
        raise ConfigError("config file must define a 'gmm' distribution")
    return gmm_from_dict(cfg["gmm"])


def _resolve_sampler(args, cfg: dict) -> SamplerConfig:
    spec = dict(cfg.get("sampler", {}))
    if args.seed is not None:
        spec["seed"] = args.seed
    if "seed" not in spec:
        raise ConfigError("a seed is required (config 'sampler.seed' or --seed)")
    return sampler_config_from_dict(spec)


def _threads(args) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get("SNRDIFF_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"bad SNRDIFF_THREADS value {env!r}") from exc
    return 1


def _parse_grid(text: str, what: str) -> list[float]:
    """Parse 'lo:hi:count' (inclusive linspace) or a comma list of values;
    the grid must hold at least one value."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            values = [float(v) for v in
                      np.linspace(float(lo), float(hi), int(count))]
        else:
            values = [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} grid {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} grid {text!r} holds no values")
    return values


def _grid_size(args) -> int:
    if args.grid < 1:
        raise ConfigError(f"--grid must be >= 1, got {args.grid}")
    return args.grid


def cmd_schedules(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    p = eval_schedule(sched, np.linspace(sched.t_min, sched.t_max,
                                         _grid_size(args)))
    table = np.column_stack([p.t, p.alpha, p.sigma, p.lam, p.dalpha_dt,
                             p.dlambda_dt])
    out = Path(args.out) / "schedules.csv"
    _write_outputs(out.parent, {out.name: _csv_text(
        ["t", "alpha", "sigma", "lambda", "dalpha_dt", "dlambda_dt"], table)})
    print(f"wrote {out}")
    return EXIT_OK


def _quality_report(x, gmm, seed):
    report = moment_report(x, gmm)
    reference = sample_data(gmm, x.shape[0], seed)
    report.energy_distance = energy_distance(x, reference)
    if gmm.n_components == 1:
        report.gaussian_kl = gaussian_kl_fit(x, gmm.means[0], gmm.covs[0])
    return report


def _sample_count(args) -> int:
    if args.n < 2:
        raise ConfigError(f"-n must be >= 2 for the quality report, got {args.n}")
    return args.n


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    sampler_cfg = _resolve_sampler(args, cfg)
    threads = _threads(args)
    n = _sample_count(args)

    result = sample(sched, oracle_score_model(gmm, sched), sampler_cfg, n=n,
                    d=gmm.dim, threads=threads,
                    return_trajectories=args.trajectories)
    x, trajs = result if args.trajectories else (result, None)
    report = _quality_report(x, gmm, sampler_cfg.seed)

    files = {
        "samples.csv": _csv_text(
            ["sample_id"] + [f"x_{j}" for j in range(gmm.dim)],
            np.column_stack([np.arange(n), x])),
        "report.json": _json_text(report.to_dict()),
    }
    if trajs is not None:
        steps = np.arange(len(trajs[0].times))
        files["trajectories.csv"] = _csv_text(
            ["sample_id", "step", "t"] + [f"z_{j}" for j in range(gmm.dim)],
            np.concatenate([np.column_stack([np.full(len(steps), i), steps,
                                             tr.times, tr.states])
                            for i, tr in enumerate(trajs)]))
    out_dir = Path(args.out)
    _write_outputs(out_dir, files)
    print(f"wrote {out_dir / 'samples.csv'} and {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    base = _resolve_sampler(args, cfg)
    threads = _threads(args)
    n = _sample_count(args)
    gammas = _parse_grid(args.gammas, "gamma")
    deltas = _parse_grid(args.deltas, "delta")
    rhos = _parse_grid(args.rhos, "rho")

    cells = [replace(base, kind="generalized", rho=r, gamma=g, delta=d)
             for g in gammas for d in deltas for r in rhos]
    xs = sample(sched, oracle_score_model(gmm, sched), cells, n=n, d=gmm.dim,
                threads=threads)
    reference = sample_data(gmm, n, base.seed)
    reports = [moment_report(x, gmm) for x in xs]
    table = np.column_stack([
        [c.gamma for c in cells], [c.delta for c in cells],
        [c.rho for c in cells], [r.mean_error_l2 for r in reports],
        [r.cov_frobenius_error for r in reports],
        [energy_distance(x, reference) for x in xs]])

    out_dir = Path(args.out)
    header = ["gamma", "delta", "rho", "mean_error_l2",
              "cov_frobenius_error", "energy_distance"]
    best = table[np.argmin(table[:, 5])].tolist()
    _write_outputs(out_dir, {
        "sweep.csv": _csv_text(header, table),
        "sweep_best.json": _json_text(dict(zip(header, best))),
    })
    print(f"wrote {out_dir / 'sweep.csv'} ({len(cells)} cells); "
          f"best energy distance {best[5]:.6g} at gamma={best[0]:g}, "
          f"delta={best[1]:g}, rho={best[2]:g}")
    return EXIT_OK


def cmd_info(args) -> int:
    cfg = _load_config(args.config)
    gmm = _resolve_gmm(cfg)
    seed = args.seed if args.seed is not None else cfg.get("sampler", {}).get("seed")
    lams = _parse_grid(args.lambdas, "lambda")
    single = gmm.n_components == 1
    if not single and seed is None:
        raise ConfigError("mixtures need a seed for Monte Carlo estimates")

    if args.kong:
        if not single:
            raise ConfigError("--kong needs a single-Gaussian gmm "
                              "(closed forms only)")
        if min(lams) <= 0.0:
            raise ConfigError("--kong needs a lambda grid with lambda > 0")
        points = kong_point(np.array(lams))
    else:
        sched = _resolve_schedule(args, cfg)
        points = tilde_eval(sched, np.array(lams))

    if single:
        mmse = mmse_gaussian(gmm.covs[0], points)
    else:
        mmse = mmse_mc(gmm, sched, points.lam, args.mc_n, seed).value
    columns = {"lambda": points.lam, "mmse": mmse,
               "dmi_dlambda": dmi_dlambda(points, gmm.dim, mmse)}
    if single:
        columns["mi_closed"] = mi_gaussian_closed(gmm.covs[0], points)
    out = Path(args.out) / "info.csv"
    _write_outputs(out.parent, {out.name: _csv_text(
        list(columns), np.column_stack(list(columns.values())))})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_snrspace(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    lams = np.linspace(*sched.lambda_range(), _grid_size(args))
    t = t_of_lambda(sched, lams)
    table = np.column_stack([lams, sched.alpha(t), sched.sigma(t)])
    out = Path(args.out) / "snrspace.csv"
    _write_outputs(out.parent, {out.name: _csv_text(
        ["lambda", "tilde_alpha", "tilde_sigma"], table)})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verify(args.level)
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snrdiff",
        description="Signal-to-noise diffusion schedules, samplers, and "
                    "information curves with closed-form oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, schedule_flag=True):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int,
                       help="worker threads (default: SNRDIFF_THREADS or 1)")
        if schedule_flag:
            p.add_argument("--schedule",
                           help="built-in schedule name (overrides config)")

    p = sub.add_parser("schedules", help="dump schedule curves to CSV")
    common(p)
    p.add_argument("--grid", type=int, default=100)
    p.set_defaults(func=cmd_schedules)

    p = sub.add_parser("sample", help="run a backward pass and report quality")
    common(p)
    p.add_argument("-n", type=int, default=1000, help="number of samples")
    p.add_argument("--trajectories", action="store_true",
                   help="also dump full trajectories")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="grid-sweep (gamma, delta, rho)")
    common(p)
    p.add_argument("-n", type=int, default=1000)
    p.add_argument("--gammas", default="0.5:1.5:11",
                   help="'lo:hi:count' or comma list")
    p.add_argument("--deltas", default="0.8:1.2:5")
    p.add_argument("--rhos", default="1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("info", help="information curve over lambda")
    common(p)
    p.add_argument("--lambdas", default="-6:6:49",
                   help="'lo:hi:count' or comma list")
    p.add_argument("--mc-n", type=int, default=4000,
                   help="Monte Carlo draws for mixture MMSE")
    p.add_argument("--kong", action="store_true",
                   help="use the square-root channel instead of a schedule")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("snrspace", help="dump lambda-space curves to CSV")
    common(p)
    p.add_argument("--grid", type=int, default=100)
    p.set_defaults(func=cmd_snrspace)

    p = sub.add_parser("verify", help="run the invariant check suite")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
