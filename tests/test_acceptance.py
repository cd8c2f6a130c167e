"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers (run with ``pytest -s`` to see them
on success).

Tests 01-10 and 12 assert the invariant checks of ``snrdiff.verify``,
which ``snrdiff verify --level full`` also runs.  Their tolerances, grids,
sample counts and seeds live there, in one place, and are fixed, not tuned
per run; no unit test repeats one.  The fast checks that no test here
names are asserted by
``tests/test_cli.py::TestVerifyCommand::test_fast_level_passes``, and
``test_every_check_is_asserted`` fails if any other check is left without
an ``_accept`` call, or if a check is missing from ``verify.FULL_CHECKS``.
These tests show that each check passes on the package as it is;
``tests/test_verify_power.py`` shows that each one fails on the defects it
is listed for.
"""

import ast
import json
from pathlib import Path

import numpy as np

from snrdiff import verify
from snrdiff.cli import main as cli_main


def _report(num, detail):
    print(f"ACCEPTANCE {num:02d} PASS - {detail}")


def _accept(num, *checks):
    results = [check() for check in checks]
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"
    _report(num, "; ".join(r.detail for r in results))


def test_01_schedule_identities():
    _accept(1, verify.check_schedule_identities)


def test_02_chapman_kolmogorov():
    _accept(2, verify.check_chapman_kolmogorov)


def test_03_forward_sde_kernel_consistency():
    _accept(3, verify.check_forward_marginals)


def test_forward_check_work_is_bounded(monkeypatch):
    # the check's cost as work, not wall time: at most 1e8 path-steps
    # (steps x n_paths) over all its simulations; each runs one step here
    real = verify.euler_maruyama_forward
    work = []

    def counted(schedule, z0, steps, seed, n_paths=1, **kwargs):
        work.append(steps * n_paths)
        return real(schedule, z0, 1, seed, n_paths=n_paths, **kwargs)

    monkeypatch.setattr(verify, "euler_maruyama_forward", counted)
    verify.check_forward_marginals()
    assert work and sum(work) <= 1e8


def test_04_asymptotic_recovery():
    _accept(4, verify.check_asymptotic_recovery)


def test_05_special_case_reductions():
    _accept(5, verify.check_kingma_reduction,
            verify.check_deterministic_reduction)


def test_06_order_of_accuracy():
    _accept(6, verify.check_order_of_accuracy)


def test_07_end_to_end_deterministic_sampling():
    _accept(7, verify.check_end_to_end_deterministic)


def test_08_non_markovian_correctness():
    _accept(8, verify.check_non_markovian_affine)


def test_09_schedule_equivalence():
    _accept(9, verify.check_schedule_equivalence)


def test_10_information_derivatives():
    _accept(10, verify.check_info_derivatives)


def test_11_sweep_harness(tmp_path, split_pools):
    config = {
        "schedule": {"name": "VP"},
        "gmm": {
            "weights": [0.5, 0.5],
            "means": [[-1.0, 0.0], [1.0, 0.5]],
            "covs": [[[0.3, 0.0], [0.0, 0.3]], [[0.3, 0.0], [0.0, 0.3]]],
        },
        "sampler": {"kind": "generalized", "rho": 1.0, "steps": 16,
                    "seed": 11},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    args = ["sweep", "--config", str(cfg_path), "-n", "200",
            "--gammas", "0.5:1.5:11", "--deltas", "0.8:1.2:5", "--rhos", "1"]
    assert cli_main(args + ["--threads", "1",
                            "--out", str(tmp_path / "t1")]) == 0
    assert cli_main(args + ["--threads", "3",
                            "--out", str(tmp_path / "t3")]) == 0
    bytes_t1 = (tmp_path / "t1" / "sweep.csv").read_bytes()
    assert bytes_t1 == (tmp_path / "t3" / "sweep.csv").read_bytes()
    assert split_pools == [3]

    rows = bytes_t1.decode().strip().split("\n")
    header = rows[0].split(",")
    assert len(rows) - 1 == 55
    cell = next(r.split(",") for r in rows[1:]
                if r.startswith("1,1,1,"))

    config["sampler"]["kind"] = "kingma"
    cfg2 = tmp_path / "kingma.json"
    cfg2.write_text(json.dumps(config))
    assert cli_main(["sample", "--config", str(cfg2), "-n", "200",
                     "--out", str(tmp_path / "km")]) == 0
    report = json.loads((tmp_path / "km" / "report.json").read_text())
    got = dict(zip(header, map(float, cell)))
    np.testing.assert_allclose(got["mean_error_l2"],
                               report["mean_error_l2"], rtol=1e-12)
    np.testing.assert_allclose(got["cov_frobenius_error"],
                               report["cov_frobenius_error"], rtol=1e-12)
    np.testing.assert_allclose(got["energy_distance"],
                               report["energy_distance"], rtol=1e-12)
    _report(11, "55-cell sweep byte-reproducible across thread counts; "
                "(gamma=1, delta=1) cell matches standalone run")


def test_12_monte_carlo_estimators():
    _accept(12, verify.check_mc_estimators)


def test_every_check_is_asserted():
    # each check that --level fast does not run must be passed to an
    # _accept call here
    tree = ast.parse(Path(__file__).read_text())
    accepted = {getattr(arg, "attr", None) for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_accept"
                for arg in node.args[1:]}
    checks = [name for name in vars(verify) if name.startswith("check_")]
    assert set(checks) == {check.__name__ for check in verify.FULL_CHECKS}
    unasserted = [name for name in checks if name not in accepted
                  and getattr(verify, name) not in verify.FAST_CHECKS]
    assert not unasserted
