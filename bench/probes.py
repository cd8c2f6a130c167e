"""Layer probes: the single-layer rows of the ROADMAP baseline table.

Each probe times one call (or a short loop of calls) of one library
function on fixed-size inputs drawn from the workload seed, repeats it,
and reports the median per-call time.  The multi-second rows of the table
are covered by the workloads themselves.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _median_per_call(fn, calls: int, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - start) / calls)
    return statistics.median(times)


def run_probes(seed: int) -> dict[str, tuple[float, str]]:
    """Median per-call time of each probe as {name: (value, unit)}."""
    from snrdiff.dynamics import forward_coeffs
    from snrdiff.gmm import GmmSpec, exact_score, single_gaussian
    from snrdiff.metrics import energy_distance
    from snrdiff.rng import row_normals
    from snrdiff.samplers import make_time_grid
    from snrdiff.schedule import make_schedule
    from snrdiff.snr_space import equivalence_check, t_of_lambda

    gen = np.random.default_rng(seed)
    vp = make_schedule("VP")
    unit = single_gaussian([0.0], [[1.0]])
    k, d = 8, 16
    w = gen.dirichlet(np.full(k, 4.0))
    wide = GmmSpec(w / w.sum(), gen.normal(0.0, 2.0, (k, d)),
                   np.stack([np.diag(v) for v in gen.uniform(0.25, 1.5, (k, d))]))
    z1 = gen.standard_normal((10_000, 1))
    z16 = gen.standard_normal((10_000, d))
    a2, b2 = gen.standard_normal((4000, 2)), gen.standard_normal((4000, 2))

    us, ms = 1e6, 1e3
    probes = {
        "probe.schedule.vp_alpha": (lambda: vp.alpha(0.5), 2000, 5, us, "us"),
        "probe.dynamics.forward_coeffs": (
            lambda: forward_coeffs(vp, 0.5), 500, 5, us, "us"),
        "probe.snr_space.t_of_lambda": (
            lambda: t_of_lambda(vp, 0.0), 20, 5, ms, "ms"),
        "probe.samplers.uniform_lambda_grid_200": (
            lambda: make_time_grid(vp, "uniform_lambda", 200, vp.t_max,
                                   vp.t_min), 1, 5, ms, "ms"),
        "probe.gmm.exact_score_k1_d1_n10k": (
            lambda: exact_score(unit, vp, 0.5, z1), 1, 9, ms, "ms"),
        "probe.gmm.exact_score_k8_d16_n10k": (
            lambda: exact_score(wide, vp, 0.5, z16), 1, 7, ms, "ms"),
        "probe.rng.row_normals_10k_x16": (
            lambda: row_normals(seed, 2, 0, 0, 10_000, 16), 1, 9, ms, "ms"),
        "probe.metrics.energy_distance_4k_d2": (
            lambda: energy_distance(a2, b2), 1, 3, ms, "ms"),
        "probe.snr_space.equivalence_check_vp": (
            lambda: equivalence_check(vp, vp), 1, 3, ms, "ms"),
    }
    return {name: (scale * _median_per_call(fn, calls, repeats), unit_name)
            for name, (fn, calls, repeats, scale, unit_name) in probes.items()}
