"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout.  Checks that:

* with ``samplers._MUTATE_FLIP_EPS_BRACKET`` set, the ``mixture_sample``
  output check fails and every invocation counts as failed;
* on every workload, a traced invocation writes the same bytes as an
  untraced one, worker-thread spans hang under ``samplers.sample``, and
  removing the tracer restores every patched function, method and class;
* the metric names and units the benchmark prints are exactly those in
  BENCHMARK.json.

It also prints each workload's largest layers as a share of the traced
wall time.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []

# Layers whose busy times do not nest inside one another.
LAYER_TIMES = ("gmm.exact_score.s", "gmm.posterior_mean.s", "gmm.sample_data.s",
               "samplers.make_time_grid.s", "samplers.step.self_s",
               "rng.row_normals.s", "metrics.energy_distance.s",
               "metrics.moment_report.s", "cli.self_s")
# Functions imported by name into another module, so patching only their
# defining module would miss these calls.
BY_NAME_IMPORTS = (("cli", "sample"), ("cli", "energy_distance"),
                   ("cli", "mmse_mc"), ("cli", "sample_data"),
                   ("samplers", "t_of_lambda"), ("infotheory", "t_of_lambda"),
                   ("infotheory", "posterior_mean"),
                   ("infotheory", "sample_data"))


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_mutation(cli, samplers, workloads, work) -> None:
    samplers._MUTATE_FLIP_EPS_BRACKET = True
    try:
        bench = run.Bench(cli, workloads.WORKLOADS["mixture_sample"], 0, work)
        bench.warm_up_and_check()
        bench.timed(0.0)
    finally:
        samplers._MUTATE_FLIP_EPS_BRACKET = False
    expect(not bench.reference_ok and any("check:" in p for p in bench.problems),
           "mutated sampler fails the mixture_sample check")
    expect(bench.failed == bench.attempted > 0,
           f"mutated sampler: {bench.failed}/{bench.attempted} invocations failed")


def _bindings(snrdiff) -> dict:
    """Every attribute of every loaded snrdiff module, and of Schedule."""
    snap = {}
    for key, mod in list(sys.modules.items()):
        if mod is not None and (key == "snrdiff" or key.startswith("snrdiff.")):
            for attr, obj in vars(mod).items():
                snap[(key, attr)] = obj
    for attr, obj in vars(snrdiff.schedule.Schedule).items():
        snap[("Schedule", attr)] = obj
    return snap


def check_tracing(snrdiff, cli, workloads, work) -> list:
    from tracing import Tracer, layer_metrics

    before = _bindings(snrdiff)
    names = None
    for workload in workloads.WORKLOADS.values():
        bench = run.Bench(cli, workload, 0, work / workload.name)
        _, plain = bench.invoke()
        tracer = Tracer(snrdiff)
        tracer.run_id = 1
        with tracer:
            unpatched = [f"{m}.{a}" for m, a in BY_NAME_IMPORTS
                         if not hasattr(getattr(getattr(snrdiff, m), a),
                                        "__wrapped__")]
            wall, traced = bench.invoke()
        expect(plain is not None and plain == traced,
               f"{workload.name}: traced output is byte-identical")
        expect(not unpatched, f"{workload.name}: by-name imports patched"
               + (f", except {unpatched}" if unpatched else ""))
        after = _bindings(snrdiff)
        expect(after.keys() == before.keys()
               and all(after[k] is v for k, v in before.items()),
               f"{workload.name}: every original binding restored")

        spans = tracer.spans()
        span_names = tracer.names
        by_id = {int(r[0]): r for r in spans}
        roots = [span_names[int(r[2])] for r in spans if int(r[1]) == 0]
        expect(roots == ["cli.main"], f"{workload.name}: one root span, cli.main")
        if workload.name == "sample_wide":
            workers = [r for r in spans
                       if span_names[int(r[2])] == "rng.row_normals"]
            parents = {span_names[int(by_id[int(r[1])][2])] for r in workers}
            expect(parents == {"samplers.sample"},
                   f"sample_wide: worker spans hang under {parents}")

        metrics = layer_metrics(spans, span_names)
        shares = sorted(((metrics[k] / wall, k) for k in LAYER_TIMES),
                        reverse=True)[:3]
        print(f"     {workload.name} largest layers: " + ", ".join(
            f"{k} {share:.0%}" for share, k in shares))
        names = set(metrics)
    return sorted(names)


def check_declared_metrics(layer_names: list, workloads) -> None:
    from probes import run_probes

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END_UNITS,
           "end_to_end metrics match BENCHMARK.json")
    probes = run_probes(0)
    emitted = {k: run.per_layer_unit(k) for k in layer_names}
    emitted["trace.overhead_s"] = "s"
    emitted.update({k: unit for k, (_, unit) in probes.items()})
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == emitted, "per_layer metrics match BENCHMARK.json"
           + ("" if declared == emitted else
              f": missing {sorted(set(emitted) - set(declared))}, "
              f"extra {sorted(set(declared) - set(emitted))}"))
    expect(sorted(w["name"] for w in spec["workloads"])
           == sorted(workloads.WORKLOADS),
           "workloads match BENCHMARK.json")


def main() -> int:
    import workloads

    snrdiff, cli = run._import_program()
    from snrdiff import samplers

    run.TMP_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_DIR))
    try:
        check_mutation(cli, samplers, workloads, work / "mutation")
        names = check_tracing(snrdiff, cli, workloads, work)
        check_declared_metrics(names, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    run._hygiene()
    sys.exit(main())
