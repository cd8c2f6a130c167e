"""Span tracing from outside the program, by patching its public functions.

:class:`Tracer` wraps every public module-level function of the traced
``snrdiff`` modules, and every public method of ``Schedule``, in a
wrapper that records one span per call: id, parent id, name, start, end,
a work count and the CLI invocation (run id) it belongs to.  A function
imported by name into another module is patched at each binding site, so
``cli.sample`` and ``samplers.sample`` both record.  ``ThreadPoolExecutor``
in ``samplers`` and ``cli`` is replaced by a subclass that hands the
submitting span to the worker thread as its parent.

Spans go to a per-thread ``array('d')`` buffer (one ``extend`` per call,
no lock on the hot path; buffers are registered under a lock).  Nothing
is written until :meth:`Tracer.write` runs at the end of the benchmark.
:func:`layer_metrics` turns one invocation's spans into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import statistics
import sys
import threading
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

TRACED_MODULES = ("cli", "schedule", "snr_space", "samplers", "gmm", "rng",
                  "metrics", "infotheory")
POOL_SITES = ("samplers", "cli")
FIELDS = ("span_id", "parent_id", "name", "start", "end", "work", "run_id")

STEP_NAMES = frozenset({"samplers.step_generalized", "samplers.step_kingma",
                        "samplers.step_non_markovian",
                        "samplers.step_euler_backward"})
SCORE_NAMES = frozenset({"gmm.exact_score"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _oracle_rows(args, kwargs) -> int:
    gmm, z = _arg(args, kwargs, 0, "gmm"), _arg(args, kwargs, 3, "z")
    return int(np.size(z)) // gmm.dim


def _energy_pairs(args, kwargs) -> int:
    n, m = _rows(_arg(args, kwargs, 0, "a")), _rows(_arg(args, kwargs, 1, "b"))
    return n * m + n * n + m * m


def _row_draws(args, kwargs) -> int:
    start = _arg(args, kwargs, 3, "row_start")
    stop = _arg(args, kwargs, 4, "row_stop")
    return (int(stop) - int(start)) * int(_arg(args, kwargs, 5, "width"))


def _schedule_size(args, kwargs) -> int:
    # 1 for a scalar time, the array size otherwise; 0 for lambda_range()
    if len(args) > 1:
        return int(np.size(args[1]))
    return int(np.size(kwargs["t"])) if "t" in kwargs else 0


# Work counted per span: rows for the oracle, draws for row_normals,
# distances computed for energy_distance, input size for Schedule methods.
WORK = {
    "gmm.exact_score": _oracle_rows,
    "gmm.posterior_mean": _oracle_rows,
    "metrics.energy_distance": _energy_pairs,
    "rng.row_normals": _row_draws,
}


class Tracer:
    """Patches the program on :meth:`install` and restores it on :meth:`remove`."""

    def __init__(self, package):
        self._package = package
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[array] = []
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = 0

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.buf
        except AttributeError:
            local.stack, local.buf = [], array("d")
            with self._lock:
                self._buffers.append(local.buf)
            return local.stack, local.buf

    def current(self) -> int:
        stack, _ = self._state()
        return stack[-1] if stack else 0

    def adopt(self, parent: int, fn, *args, **kwargs):
        """Run fn in a worker thread with ``parent`` as its root span."""
        stack, _ = self._state()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _wrap(self, name: str, fn, work=None):
        code = len(self._names)
        self._names.append(name)
        ids, state, clock = self._ids, self._state, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, buf = state()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.extend((sid, parent, code, start, end,
                            work(args, kwargs) if work else 0, tracer.run_id))

        return traced

    # -- patching ----------------------------------------------------------

    def _modules(self) -> list:
        prefix = self._package.__name__
        return [m for key, m in sorted(sys.modules.items())
                if m is not None and (key == prefix or key.startswith(prefix + "."))]

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        pkg = self._package.__name__
        modules = self._modules()
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(name, obj, WORK.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(mod, attr, wrappers[id(obj)])

        schedule_cls = sys.modules[f"{pkg}.schedule"].Schedule
        for attr, obj in list(vars(schedule_cls).items()):
            if inspect.isfunction(obj) and not attr.startswith("_"):
                self._set(schedule_cls, attr,
                          self._wrap(f"Schedule.{attr}", obj, _schedule_size))

        tracer = self

        class AdoptingPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn,
                                      *args, **kwargs)

        for short in POOL_SITES:
            mod = sys.modules[f"{pkg}.{short}"]
            if getattr(mod, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._set(mod, "ThreadPoolExecutor", AdoptingPool)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as an (N, 7) array in FIELDS order."""
        with self._lock:
            parts = [np.frombuffer(b, dtype=float).reshape(-1, 7)
                     for b in self._buffers if len(b)]
        if not parts:
            return np.empty((0, 7))
        out = np.concatenate(parts)
        return out[np.argsort(out[:, 0], kind="stable")]

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def write(self, path: Path) -> int:
        """Write every span as gzipped TSV; returns the span count."""
        spans = self.spans()
        names = self._names
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(FIELDS) + "\n")
            for sid, parent, code, start, end, work, run in spans.tolist():
                fh.write(f"{int(sid)}\t{int(parent)}\t{names[int(code)]}\t"
                         f"{start!r}\t{end!r}\t{int(work)}\t{int(run)}\n")
        return len(spans)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _self_time(spans, children, owner, child) -> float:
    """Summed duration of outermost ``owner`` spans minus the time covered
    by their first-level descendants that satisfy ``child``."""
    total = 0.0
    for sid, sp in spans.items():
        if not owner(sp[0]) or owner(spans.get(sp[1], ("",))[0]):
            continue
        found, todo = [], list(children.get(sid, ()))
        while todo:
            c = todo.pop()
            if child(spans[c][0]):
                found.append(spans[c][2:4])
            else:
                todo.extend(children.get(c, ()))
        total += sp[3] - sp[2] - _covered(found, sp[2], sp[3])
    return total


def layer_metrics(rows: np.ndarray, names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation's spans."""
    spans = {int(r[0]): (names[int(r[2])], int(r[1]), r[3], r[4], int(r[5]))
             for r in rows}
    children: dict[int, list[int]] = {}
    for sid, sp in spans.items():
        children.setdefault(sp[1], []).append(sid)

    def stats(pred):
        calls, work, busy = 0, 0, 0.0
        for sp in spans.values():
            if pred(sp[0]):
                calls += 1
                work += sp[4]
                if not pred(spans.get(sp[1], ("",))[0]):
                    busy += sp[3] - sp[2]
        return calls, work, busy

    def named(name):
        return stats(lambda n: n == name)

    out: dict[str, float] = {}
    c, w, s = named("gmm.exact_score")
    out.update({"gmm.exact_score.calls": c, "gmm.exact_score.rows": w,
                "gmm.exact_score.s": s,
                "gmm.exact_score.us_per_row": 1e6 * s / w if w else 0.0})
    c, w, s = named("gmm.posterior_mean")
    out.update({"gmm.posterior_mean.calls": c, "gmm.posterior_mean.rows": w,
                "gmm.posterior_mean.s": s,
                "gmm.sample_data.s": named("gmm.sample_data")[2]})
    c, _, s = named("snr_space.t_of_lambda")
    out.update({"snr_space.t_of_lambda.calls": c, "snr_space.t_of_lambda.s": s,
                "samplers.make_time_grid.s": named("samplers.make_time_grid")[2]})
    c, _, s = stats(lambda n: n.startswith("Schedule."))
    scalar = sum(1 for sp in spans.values()
                 if sp[0].startswith("Schedule.") and sp[4] == 1)
    out.update({"schedule.calls": c, "schedule.scalar_calls": scalar,
                "schedule.scalar_share": scalar / c if c else 0.0,
                "schedule.s": s})
    c, _, s = named("samplers.sample")
    out.update({"samplers.sample.calls": c, "samplers.sample.s": s,
                "samplers.step.calls": stats(lambda n: n in STEP_NAMES)[0],
                "samplers.step.self_s": _self_time(
                    spans, children, lambda n: n in STEP_NAMES,
                    lambda n: n in SCORE_NAMES)})
    c, w, s = named("rng.row_normals")
    out.update({"rng.row_normals.calls": c, "rng.row_normals.draws": w,
                "rng.row_normals.s": s})
    _, w, s = named("metrics.energy_distance")
    out.update({"metrics.energy_distance.s": s,
                "metrics.energy_distance.pairs": w,
                "metrics.moment_report.s": named("metrics.moment_report")[2]})
    c, _, s = named("infotheory.mmse_mc")
    out.update({"infotheory.mmse_mc.calls": c, "infotheory.mmse_mc.s": s})
    out["cli.self_s"] = _self_time(spans, children,
                                   lambda n: n.startswith("cli."),
                                   lambda n: not n.startswith("cli."))
    out["trace.spans"] = len(spans)
    return out


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced invocations."""
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
