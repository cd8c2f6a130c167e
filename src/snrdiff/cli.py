"""Command-line interface.

Subcommands: ``schedules``, ``sample``, ``sweep``, ``info``, ``snrspace``,
``verify``.  Every command is a pure function of its arguments, config
file, and seed: reruns produce byte-identical files.  Each CSV is a float
table in 17 significant digits; ids and step numbers print as integers.

``sample`` runs one config as a one-cell pass and ``sweep`` runs all its
cells in one pass.  ``--threads`` (default 1) goes straight to
:func:`~snrdiff.samplers.sample`, which decides how many worker threads the
pass splits its rows across; a small pass runs on one.  Neither the outputs
nor a numerical failure's message depend on it.  Only ``sample`` and
``sweep`` use it; ``info``, ``schedules`` and ``snrspace`` ignore it.
``sample --trajectories`` writes ``trajectories.csv``, one row per (sample,
grid node), from the pass's (steps + 1, n, d) state array.  Both score
their cells in one :func:`~snrdiff.metrics.quality_reports` pass.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or arguments, including an output directory that cannot be created or
written (IO error), 3 numerical failure.  The quality report needs
``-n`` >= 2, and ``-n`` above the dimension for a one-component target's
Gaussian-fit KL; both are checked before sampling (2).  ``-n``, a
mixture's ``--mc-n``, ``--grid`` and the count of a ``lo:hi:count`` grid
may not exceed the rows numpy can index in an array of 8-byte values,
2**60 - 1 on a 64-bit build, nor may the steps + 1 nodes of a sampler's
time grid, or the substeps + 1 of an ``exact_reference`` step; all are
checked before any draw (2).  A count under that cap whose arrays do not
fit in memory exits 2 with one ``config error: out of memory:`` line.  A target mean or covariance
that is not finite, a zero target covariance, or one that is singular
for that KL leaves the report undefined (3); ``sample`` and
``sweep`` check this before sampling too.  A quality value that still
comes out non-finite (samples near 1e160 overflow the moment errors)
exits 3 naming the metric.  ``info`` exits 3 when a mixture's Monte Carlo
MMSE is not finite at some lambda, naming the lambda, its t and the first
non-finite row.  Every such failure is detected explicitly, so commands
run with numpy's floating-point warnings silenced (in ``sample``'s worker
threads too): a failing run prints its one ``numerical failure:`` line.

A command builds the text of every output file before writing any, writes
each to a temp file beside its target and renames them into place only
when all are written, so a failure leaves no partial output behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys
import uuid
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, integer
from .gmm import GmmSpec, gmm_from_dict, oracle_score_model, sample_data
from .infotheory import (
    dmi_dlambda,
    kong_point,
    mi_gaussian_closed,
    mmse_gaussian,
    mmse_mc,
)
# energy_distance stays bound here: bench/selftest.py traces it by this name
from .metrics import (check_target, energy_distance,  # noqa: F401
                      quality_reports)
from .samplers import (SamplerConfig, generalized_cells, sample,
                       sampler_config_from_dict)
from .schedule import Schedule, eval_schedule, make_schedule, schedule_from_dict
from .snr_space import t_of_lambda, tilde_eval

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
    if args.schedule:
        return make_schedule(args.schedule)
    if "schedule" in cfg:
        return schedule_from_dict(cfg["schedule"])
    raise ConfigError("no schedule given (use --schedule or a config file)")


def _resolve_gmm(cfg: dict) -> GmmSpec:
    if "gmm" not in cfg:
        raise ConfigError("config file must define a 'gmm' distribution")
    return gmm_from_dict(cfg["gmm"])


def _sampler_section(cfg: dict) -> dict:
    spec = cfg.get("sampler", {})
    if not isinstance(spec, dict):
        raise ConfigError("config 'sampler' must be a JSON object")
    return spec


def _resolve_sampler(args, cfg: dict) -> SamplerConfig:
    spec = dict(_sampler_section(cfg))
    if args.seed is not None:
        spec["seed"] = args.seed
    if "seed" not in spec:
        raise ConfigError("a seed is required (config 'sampler.seed' or --seed)")
    config = sampler_config_from_dict(spec)
    # the time grid holds steps + 1 nodes, and exact_reference splits each
    # of its intervals at substeps + 1
    _row_count("sampler steps", config.steps, 1)
    if config.kind == "exact_reference":
        _row_count("sampler substeps", config.substeps, 1)
    return config


def _parse_grid(text: str, what: str) -> list[float]:
    """Parse 'lo:hi:count' (inclusive linspace) or a comma list of values;
    the grid must hold at least one value, and a count passes _row_count."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            count = _row_count(f"{what} grid count", int(count))
            values = [float(v) for v in
                      np.linspace(float(lo), float(hi), count)]
        else:
            values = [float(v) for v in text.split(",") if v]
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} grid {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} grid {text!r} holds no values")
    return values


def _grid_size(args) -> int:
    if args.grid < 1:
        raise ConfigError(f"--grid must be >= 1, got {args.grid}")
    return _row_count("--grid", args.grid)


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


def _check_quality(metrics: dict, where: str = "") -> None:
    """Raise NumericalError naming the first quality metric that is not
    finite; ``None`` (a KL that was not computed) passes."""
    for name, value in metrics.items():
        if value is not None and not np.isfinite(value):
            raise NumericalError(
                f"quality metric {name} is not finite ({value}){where}")


def _quality_report(x, gmm, seed, target):
    """The report of samples x: the one-cell quality pass, with the
    Gaussian-fit KL when gmm has one component.  ``target`` is gmm's
    (mean, cov), which the caller has checked, for the KL too."""
    kl = (gmm.means[0], gmm.covs[0]) if gmm.n_components == 1 else None
    report, = quality_reports(x[None], *target,
                              sample_data(gmm, x.shape[0], seed), kl)
    _check_quality(report.to_dict())
    return report


# numpy indexes an array's bytes with np.intp, and every run builds at least
# one array of 8-byte values per row, so no run can take more rows than this
_MAX_ROWS = np.iinfo(np.intp).max // 8


def _row_count(option: str, n: int, extra: int = 0) -> int:
    """``n``, or a ConfigError naming ``option`` if an array of n + extra
    rows would exceed _MAX_ROWS."""
    if n + extra > _MAX_ROWS:
        raise ConfigError(f"{option} must be at most {_MAX_ROWS - extra}, "
                          f"got {n}: numpy cannot index more rows of 8-byte "
                          "values")
    return n


def _sample_count(args) -> int:
    if args.n < 2:
        raise ConfigError(f"-n must be >= 2 for the quality report, got {args.n}")
    return _row_count("-n", args.n)


def _check_width(n: int, per_row: int) -> None:
    """ConfigError naming ``-n`` unless n rows of ``per_row`` 8-byte values
    fit numpy's index; called before any draw.

    ``per_row`` is that of the first array ``samplers.sample`` builds: the
    trajectory states (one row of d per node) or the cells' final states.
    Every later array with more values a row (noise words, the reference
    draw's factors, the trajectories table) is built only after that one
    fit in memory, and memory bounds n far below this check.
    """
    if n * per_row > _MAX_ROWS:
        raise ConfigError(f"-n must be at most {_MAX_ROWS // per_row} for "
                          f"this run, got {n}: its sampled states hold "
                          f"{per_row} 8-byte values per row, and numpy "
                          f"cannot index more than {_MAX_ROWS}")


def cmd_sample(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    sampler_cfg = _resolve_sampler(args, cfg)
    n = _sample_count(args)
    _check_width(n, gmm.dim * (sampler_cfg.steps + 1 if args.trajectories
                               else 1))
    single = gmm.n_components == 1
    if single and n <= gmm.dim:
        raise ConfigError(f"-n must exceed the dimension {gmm.dim} for the "
                          f"Gaussian-fit KL, got {n}")
    target = gmm.mean(), gmm.cov()
    check_target(*target, kl=single)

    result = sample(sched, oracle_score_model(gmm, sched), sampler_cfg, n=n,
                    d=gmm.dim, threads=args.threads,
                    return_trajectories=args.trajectories)
    x, times, states = result if args.trajectories else (result, None, None)
    report = _quality_report(x, gmm, sampler_cfg.seed, target)

    files = {
        "samples.csv": _csv_text(
            ["sample_id"] + [f"x_{j}" for j in range(gmm.dim)],
            np.column_stack([np.arange(n), x])),
        "report.json": _json_text(report.to_dict()),
    }
    if states is not None:
        nodes = len(times)
        files["trajectories.csv"] = _csv_text(
            ["sample_id", "step", "t"] + [f"z_{j}" for j in range(gmm.dim)],
            np.column_stack([np.repeat(np.arange(n), nodes),
                             np.tile(np.arange(nodes), n), np.tile(times, n),
                             states.transpose(1, 0, 2).reshape(-1, gmm.dim)]))
    out_dir = Path(args.out)
    _write_outputs(out_dir, files)
    print(f"wrote {out_dir / 'samples.csv'} and {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    base = _resolve_sampler(args, cfg)
    n = _sample_count(args)
    gammas = _parse_grid(args.gammas, "gamma")
    deltas = _parse_grid(args.deltas, "delta")
    rhos = _parse_grid(args.rhos, "rho")
    _check_width(n, gmm.dim * len(gammas) * len(deltas) * len(rhos))
    target = gmm.mean(), gmm.cov()
    check_target(*target)

    cells = generalized_cells(base, gammas, deltas, rhos)
    xs = sample(sched, oracle_score_model(gmm, sched), cells, n=n, d=gmm.dim,
                threads=args.threads)
    reports = quality_reports(xs, *target, sample_data(gmm, n, base.seed))
    table = np.array([[c.gamma, c.delta, c.rho, r.mean_error_l2,
                       r.cov_frobenius_error, r.energy_distance]
                      for c, r in zip(cells, reports)])

    out_dir = Path(args.out)
    header = ["gamma", "delta", "rho", "mean_error_l2",
              "cov_frobenius_error", "energy_distance"]
    for g, d, r, *metrics in table.tolist():
        _check_quality(dict(zip(header[3:], metrics)),
                       f" at gamma={g:g}, delta={d:g}, rho={r:g}")
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
    spec = _sampler_section(cfg)
    seed = args.seed if args.seed is not None else spec.get("seed")
    lams = _parse_grid(args.lambdas, "lambda")
    single = gmm.n_components == 1
    if not single:
        if seed is None:
            raise ConfigError("mixtures need a seed for Monte Carlo estimates")
        seed = integer("seed", seed)
        mc_n = _row_count("--mc-n", args.mc_n)

    if args.kong:
        if not single:
            raise ConfigError("--kong needs a single-Gaussian gmm "
                              "(closed forms only)")
        if not all(0.0 < lam < np.inf for lam in lams):
            raise ConfigError("--kong needs a lambda grid of finite lambda > 0")
        points = kong_point(np.array(lams))
    else:
        sched = _resolve_schedule(args, cfg)
        lam = np.array(lams)
        t = t_of_lambda(sched, lam)
        points = tilde_eval(sched, lam, t=t)

    if single:
        mmse = mmse_gaussian(gmm.covs[0], points)
    else:
        mmse = mmse_mc(gmm, sched, points.lam, mc_n, seed, t=t).value
    columns = {"lambda": points.lam, "mmse": mmse,
               "dmi_dlambda": dmi_dlambda(points, mmse)}
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
    from .verify import run_verify  # only this command needs the suite

    results = run_verify(args.level)
    failed = [r for r in results if not r.ok]
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a help formatter for every add_argument, and each one
    # asks the terminal for its width; ask once, and give every parser a
    # formatter of the width argparse derives from it
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="snrdiff",
        description="Signal-to-noise diffusion schedules, samplers, and "
                    "information curves with closed-form oracles.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True,
        parser_class=functools.partial(argparse.ArgumentParser,
                                       formatter_class=formatter))

    def common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="most worker threads for sample and sweep; a "
                            "small pass runs on one, and neither outputs "
                            "nor failure messages change (default: 1)")
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
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
