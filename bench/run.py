"""snrdiff benchmark: closed-loop CLI invocations, timed and checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  One caller runs ``snrdiff.cli.main`` in-process, one invocation
after another, on a JSON config generated from ``--seed``.  Every
invocation's output files must be byte-identical to the first one's, and
that first output passes the workload's checks (see workloads.py); checks
run outside the timed region.  One warm-up invocation is discarded.

``--trace 0`` prints the end-to-end metrics: mean wall time of one
invocation, set-up time and peak RSS of fresh interpreters, and the share
of invocations that succeeded.  Both times are rescaled to a reference
host speed (see hostref.py); the raw ones go to the report.  ``--trace 1``
alternates untraced and traced invocations (see tracing.py), then runs the
layer probes, and prints the per-layer metrics.  The last stdout line is one JSON object;
a fuller report, with the environment block, goes to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
TMP_DIR = ROOT / ".bench_tmp"

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_CHILDREN = 5
MIN_TIMED = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_rate": "ratio"}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith("share"):
        return "ratio"
    return "count"


class Bench:
    """One workload on one seed: config, output dir, invocation bookkeeping.

    An invocation succeeds when it exits 0 and writes the same bytes as
    the first (warm-up) invocation, and that first output passes the
    workload's checks.
    """

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.cfg = workload.make_config(_generator(seed))
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1))
        self.out = work / "out"
        self.argv = workload.argv(str(self.config_path), str(self.out))
        self.digests: list[str | None] = []
        self.reference: str | None = None
        self.reference_ok = False
        self.child_attempts = 0
        self.child_failures = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.digests) + self.child_attempts

    @property
    def failed(self) -> int:
        good = self.reference if self.reference_ok else None
        return (sum(d is None or d != good for d in self.digests)
                + self.child_failures)

    def invoke(self, argv=None, out=None) -> tuple[float, str | None]:
        """Run one CLI invocation; returns (seconds, digest of its outputs).

        The digest is None, and a problem is recorded, if the invocation
        raised, exited non-zero or left an output file missing.
        """
        argv = self.argv if argv is None else argv
        out = self.out if out is None else out
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crashing invocation is a failed attempt
                rc, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        digest = None
        if rc != 0:
            self.problems.append(f"exit {rc}: {error or sink.getvalue()}")
        else:
            h = hashlib.sha256()
            missing = [n for n in self.workload.outputs
                       if not (out / n).is_file()]
            for name in self.workload.outputs:
                if name not in missing:
                    h.update((out / name).read_bytes())
            if missing:
                self.problems.append(f"missing outputs {missing}")
            else:
                digest = h.hexdigest()
        if self.reference is not None and digest not in (None, self.reference):
            self.problems.append("output bytes differ from the first invocation")
        self.digests.append(digest)
        return seconds, digest

    def warm_up_and_check(self) -> None:
        """Discarded warm-up invocation; its output is the checked reference."""
        _, self.reference = self.invoke()
        if self.reference is None:
            return
        found = list(self.workload.check(self.out, self.cfg))
        if not found and self.workload.extra is not None:
            scratch = self.work / "extra"

            def same_output(argv) -> bool:
                argv = [str(scratch) if a == str(self.out) else a for a in argv]
                return self.invoke(argv, scratch)[1] == self.reference

            found += self.workload.extra(self.cfg, self.argv, self.out,
                                         same_output)
        self.problems += [f"check: {p}" for p in found]
        self.reference_ok = not found

    def timed(self, seconds: float, between=None) -> tuple[list[float], list[float]]:
        """Timed invocations for ``seconds`` (at least MIN_TIMED).

        Returns their wall times and the host reference times (hostref.py)
        taken before each invocation and after the last one.  ``between``
        runs after each timed invocation, untimed.
        """
        from hostref import reference_seconds

        walls, refs = [], [reference_seconds()]
        start = time.perf_counter()
        elapsed = 0.0
        # stop before an iteration that would probably end past the budget
        while len(walls) < MIN_TIMED or elapsed * (1 + 1 / len(walls)) <= seconds:
            walls.append(self.invoke()[0])
            refs.append(reference_seconds())
            if between is not None:
                between(len(walls))
            elapsed = time.perf_counter() - start
        return walls, refs

    def fresh_interpreters(self) -> tuple[list[float], list[float],
                                          float | None]:
        """Set-up seconds of SETUP_CHILDREN fresh interpreters, each with
        its host reference time; the first also runs the workload and
        gives its peak RSS in MB."""
        setups, refs, rss = [], [], None
        out = self.work / "child"
        for i in range(SETUP_CHILDREN):
            cmd = [sys.executable, str(BENCH / "child.py"), str(SRC),
                   str(self.config_path)]
            if i == 0:
                argv = [str(out) if a == str(self.out) else a for a in self.argv]
                cmd.append(json.dumps(argv))
            self.child_attempts += 1
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S, cwd=ROOT)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (subprocess.TimeoutExpired, json.JSONDecodeError,
                    IndexError) as exc:
                self.child_failures += 1
                self.problems.append(f"fresh interpreter failed: {exc!r}")
                continue
            if proc.returncode != 0 or result.get("rc", 0) != 0:
                self.child_failures += 1
                self.problems.append(
                    f"fresh interpreter exit {proc.returncode}/"
                    f"{result.get('rc')}: {proc.stderr[-2000:]}")
                continue
            setups.append(result["setup_s"])
            refs.append(result["ref_s"])
            if i == 0:
                rss = result["peak_rss_mb"]
        return setups, refs, rss


def _generator(seed: int):
    import numpy as np

    return np.random.default_rng([seed, 0x5EED])


def _hygiene() -> None:
    """Pin BLAS to one thread and drop SNRDIFF_THREADS, before numpy loads."""
    os.environ.pop("SNRDIFF_THREADS", None)
    os.environ.update(BLAS_THREADS)


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1")
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    status = _git("status", "--porcelain")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREADS},
        "snrdiff_threads_env": os.environ.get("SNRDIFF_THREADS"),
        "git_rev": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def _import_program():
    """Import snrdiff from this checkout's src/, or exit 2."""
    if not (SRC / "snrdiff" / "__init__.py").is_file():
        print(f"no snrdiff sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import snrdiff
    from snrdiff import cli

    if Path(snrdiff.__file__).resolve().parent != SRC / "snrdiff":
        print(f"imported snrdiff from {snrdiff.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return snrdiff, cli


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """{metric: (value, unit)} for --trace 0, and the raw samples."""
    from hostref import normalize

    setups, setup_refs, rss = bench.fresh_interpreters()
    bench.warm_up_and_check()
    walls, refs = bench.timed(seconds)
    # Total wall time over the total of the mean references on either side
    # of each invocation: with 5-15 invocations a run, this spread less
    # across seeds than the median of per-invocation ratios.
    around = [(before + after) / 2 for before, after in zip(refs, refs[1:])]
    values = {"wall_s": normalize(sum(walls), sum(around)),
              "ok_rate": (bench.attempted - bench.failed) / bench.attempted}
    if setups:
        values["setup_s"] = statistics.median(
            map(normalize, setups, setup_refs))
    if rss is not None:
        values["peak_rss_mb"] = rss
    metrics = {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()
               if k in values}
    return metrics, {"raw_wall_s": walls, "ref_s": refs,
                     "raw_setup_s": setups, "setup_ref_s": setup_refs}


def measure_layers(bench: Bench, snrdiff, seconds: float, seed: int,
                   spans_path: Path) -> tuple[dict, dict]:
    """{metric: (value, unit)} for --trace 1, and the raw samples."""
    from probes import run_probes
    from tracing import Tracer, layer_metrics, median_metrics

    bench.warm_up_and_check()
    tracer = Tracer(snrdiff)
    traced = []

    def traced_invocation(k: int) -> None:
        tracer.run_id = k
        with tracer:
            traced.append(bench.invoke()[0])

    untraced, _ = bench.timed(seconds, between=traced_invocation)
    spans = tracer.spans()
    per_run = [layer_metrics(spans[spans[:, 6] == k], tracer.names)
               for k in range(1, len(traced) + 1)]
    values = median_metrics(per_run)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    tracer.write(spans_path)
    metrics = {k: (v, per_layer_unit(k)) for k, v in values.items()}
    metrics.update(run_probes(seed))
    return metrics, {"untraced_wall_s": untraced, "traced_wall_s": traced,
                     "per_invocation": per_run}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    snrdiff, cli = _import_program()
    workload = WORKLOADS[args.workload]
    TMP_DIR.mkdir(exist_ok=True)
    work = TMP_DIR / f"{workload.name}-{os.getpid()}"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        bench = Bench(cli, workload, args.seed, work)
        if args.trace:
            metrics, detail = measure_layers(
                bench, snrdiff, args.seconds, args.seed,
                OUT_DIR / f"{workload.name}.spans.tsv.gz")
        else:
            metrics, detail = measure_end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"workload": workload.name, "why": workload.why, "seed": args.seed,
         "seconds": args.seconds, "trace": args.trace, "argv": bench.argv,
         "config": bench.cfg, "env": environment(), "result": result,
         "problems": bench.problems, "samples": detail}, indent=1))
    for problem in bench.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for key, value in detail.items():
        if key.endswith("_s"):
            print(f"{key}: n={len(value)} median={statistics.median(value):.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    _hygiene()
    sys.exit(main())
