"""Command-line interface.

Subcommands: ``schedules``, ``sample``, ``sweep``, ``info``, ``snrspace``,
``verify``.  Every command is a pure function of its arguments, config
file, and seed: reruns produce byte-identical files, whatever the BLAS
thread count (``OPENBLAS_NUM_THREADS``).  Each CSV value is
Python's ``'%.17g' % v`` text; ids and step numbers print through ``%d``,
the same text below 2**53.  A table of 512 values or more is formatted in
numpy (:mod:`snrdiff.csvtext`): finite |v| in [1e-3, 2**52), and ids in
[0, 2**53), print from their digits in exact integer arithmetic, and every
other value (zero, tiny, huge, inf, nan) through ``'%.17g' % v`` itself,
so the bytes are the same.

``sample`` runs one config as a one-cell pass and ``sweep`` runs all its
cells in one pass.  ``--threads`` (default 1) goes straight to
:func:`~snrdiff.samplers.sample`, which decides how many worker threads the
pass splits its rows across; a small pass runs on one.  A one-worker pass
that injects at least 4096 noise values a step gives a spare thread its
step noise to draw ahead.  Neither the outputs nor a numerical failure's
message depend on it.  Only ``sample`` and
``sweep`` use it; ``info``, ``schedules`` and ``snrspace`` ignore it.
``sample --trajectories`` writes ``trajectories.csv``, one row per (sample,
grid node), from the pass's (steps + 1, n, d) state array.  Both score
their cells in one :func:`~snrdiff.metrics.quality_reports` pass.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
or arguments, including an output directory that cannot be created or
written (IO error), 3 numerical failure.  Every count a user gives
obeys one size rule, checked before any allocation (2): it is at least its
least value, and the first array it sizes holds at most 2**60 - 65 8-byte
values on a 64-bit build, the largest count ``np.linspace`` accepts (it
counts in float64), which is within numpy's index.  The counts are a
``--grid`` and the count of a ``lo:hi:count`` grid (at least 1), a
sampler's ``steps`` and an ``exact_reference`` step's ``substeps``, each
sizing a grid of one node more, ``-n`` (at least 2, for the quality
report), whose states hold d values a row for each cell, or for each time
grid node with ``--trajectories``, and a mixture's ``--mc-n`` (at least
100).  ``--threads`` of ``sample`` and ``sweep`` is at least 1 too, but it
sizes no array, so it has no cap.  ``-n`` must also exceed the dimension
for a one-component target's Gaussian-fit KL (2).  A count under the cap
whose arrays do not fit in memory exits 2 with one ``config error: out of
memory`` line.  A target
mean or covariance that is not finite, a zero target covariance, or one
that is singular for that KL leaves the report undefined (3); ``sample``
and ``sweep`` check this before sampling too.  A quality value that still
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
import dataclasses
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
from .samplers import SamplerConfig, sample, sampler_config_from_dict
from .schedule import Schedule, eval_schedule, make_schedule, schedule_from_dict
from .snr_space import t_of_lambda, tilde_eval

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


# a table of fewer values prints row by row; below this, numpy's per-call
# cost exceeds the formatting
_CSV_SMALL = 512


def _csv_text(header: list[str], table, int_columns: int = 0) -> str:
    """CSV of ``table`` (a 2-D array or equal rows), each value a float
    printed as Python's ``'%.17g' % v``: an integer below 2**53 prints as
    ``str`` gives.  The first ``int_columns`` columns hold integers below
    2**53 and print through ``%d``, the same text.

    A table of _CSV_SMALL values or more is formatted in numpy by
    :mod:`snrdiff.csvtext`, the same bytes: finite |v| in [1e-3, 2**52),
    and integer columns in [0, 2**53), print from their digits in exact
    integer arithmetic, and any other value (zero, tiny, huge, inf, nan)
    through ``'%.17g' % v`` (``'%d' % v``) itself.
    """
    table = np.asarray(table, dtype=float)
    if table.size < _CSV_SMALL:
        row = ",".join(["%d"] * int_columns
                       + ["%.17g"] * (len(header) - int_columns))
        lines = [row % tuple(r) for r in table.tolist()]
        return "\n".join([",".join(header), *lines]) + "\n"
    # imported here: a command that writes only small tables never compiles
    # or loads the formatter
    from .csvtext import csv_rows

    return (",".join(header) + "\n"
            + csv_rows(table.reshape(-1, len(header)), int_columns))


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
    _count("sampler steps", config.steps, extra=1)
    if config.kind == "exact_reference":
        _count("sampler substeps", config.substeps, extra=1)
    return config


def _parse_grid(text: str, what: str) -> list[float]:
    """Parse 'lo:hi:count' (inclusive linspace) or a comma list of values;
    the grid must hold at least one value, and its count obeys _count."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            count = _count(f"{what} grid count", int(count))
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


def cmd_schedules(args) -> int:
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    p = eval_schedule(sched, np.linspace(sched.t_min, sched.t_max,
                                         _count("--grid", args.grid)))
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


# numpy indexes an array's bytes with np.intp, and np.linspace counts its
# values in float64: the largest count whose float does not pass the index of
# 8-byte values (2**60 - 65 on a 64-bit build, as 2**60 - 64 rounds up to
# 2**60), so any array of this many 8-byte values can be asked for
_MAX_COUNT = next(k for k in range(np.iinfo(np.intp).max // 8, 0, -1)
                  if float(k) <= np.iinfo(np.intp).max // 8)


def _count(option: str, n: int, least: int = 1, width: int = 1,
           extra: int = 0) -> int:
    """``n``, or a ConfigError naming ``option`` unless n >= ``least`` and
    (n + ``extra``) * ``width`` <= _MAX_COUNT; called before any allocation.

    ``(n + extra) * width`` is the number of values in the first array the
    count sizes: ``extra`` adds a time grid's end node, and ``width`` is
    the values a row, as in the (cells, n, d) states ``samplers.sample``
    builds first.  Every later array with more values a row (noise words,
    the reference draw's factors, the trajectories table) is built only
    after that one fit in memory, and memory bounds n far below this cap.
    """
    if n < least:
        raise ConfigError(f"{option} must be >= {least}, got {n}")
    limit = _MAX_COUNT // width - extra
    if n > limit:
        raise ConfigError(f"{option} must be at most {limit}, got {n}: the "
                          "array it sizes would exceed numpy's limit of "
                          f"{_MAX_COUNT} 8-byte values")
    return n


def _threads(args) -> int:
    """``--threads``, or a ConfigError unless it is at least 1; it sizes no
    array, so _count's cap does not apply."""
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    return args.threads


def cmd_sample(args) -> int:
    threads = _threads(args)
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    sampler_cfg = _resolve_sampler(args, cfg)
    n = _count("-n", args.n, least=2,
               width=gmm.dim * (sampler_cfg.steps + 1 if args.trajectories
                                else 1))
    single = gmm.n_components == 1
    if single and n <= gmm.dim:
        raise ConfigError(f"-n must exceed the dimension {gmm.dim} for the "
                          f"Gaussian-fit KL, got {n}")
    target = gmm.mean(), gmm.cov()
    check_target(*target, kl=single)

    result = sample(sched, oracle_score_model(gmm), sampler_cfg, n=n,
                    d=gmm.dim, threads=threads,
                    return_trajectories=args.trajectories)
    x, times, states = result if args.trajectories else (result, None, None)
    report = _quality_report(x, gmm, sampler_cfg.seed, target)

    files = {
        "samples.csv": _csv_text(
            ["sample_id"] + [f"x_{j}" for j in range(gmm.dim)],
            np.column_stack([np.arange(n), x]), 1),
        "report.json": _json_text(report.to_dict()),
    }
    if states is not None:
        nodes = len(times)
        files["trajectories.csv"] = _csv_text(
            ["sample_id", "step", "t"] + [f"z_{j}" for j in range(gmm.dim)],
            np.column_stack([np.repeat(np.arange(n), nodes),
                             np.tile(np.arange(nodes), n), np.tile(times, n),
                             states.transpose(1, 0, 2).reshape(-1, gmm.dim)]),
            2)
    out_dir = Path(args.out)
    _write_outputs(out_dir, files)
    print(f"wrote {out_dir / 'samples.csv'} and {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    threads = _threads(args)
    cfg = _load_config(args.config)
    sched = _resolve_schedule(args, cfg)
    gmm = _resolve_gmm(cfg)
    base = _resolve_sampler(args, cfg)
    gammas = _parse_grid(args.gammas, "gamma")
    deltas = _parse_grid(args.deltas, "delta")
    rhos = _parse_grid(args.rhos, "rho")
    n = _count("-n", args.n, least=2,
               width=gmm.dim * len(gammas) * len(deltas) * len(rhos))
    target = gmm.mean(), gmm.cov()
    check_target(*target)

    cells = [dataclasses.replace(base, kind="generalized", rho=rho,
                                 gamma=gamma, delta=delta)
             for gamma in gammas for delta in deltas for rho in rhos]
    xs = sample(sched, oracle_score_model(gmm), cells, n=n, d=gmm.dim,
                threads=threads)
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
        mc_n = _count("--mc-n", args.mc_n, least=100)

    if args.kong:
        if not single:
            raise ConfigError("--kong needs a single-Gaussian gmm "
                              "(closed forms only)")
        if not all(0.0 < lam < np.inf for lam in lams):
            raise ConfigError("--kong needs a lambda grid of finite lambda > 0")
        points = kong_point(np.array(lams))
    else:
        sched = _resolve_schedule(args, cfg)
        points = tilde_eval(sched, np.array(lams))

    if single:
        mmse = mmse_gaussian(gmm.covs[0], points)
    else:
        mmse = mmse_mc(gmm, sched, points.lam, mc_n, seed).value
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
    lams = np.linspace(*sched.lambda_range(), _count("--grid", args.grid))
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
                       help="most threads for sample and sweep: workers "
                            "split a large pass's rows, or a spare thread "
                            "draws a one-worker pass's step noise ahead; "
                            "neither outputs nor failure messages change "
                            "(default: 1)")
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
        # a MemoryError from Python objects, not numpy, carries no text
        detail = f": {exc}" if str(exc) else ""
        print(f"config error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
