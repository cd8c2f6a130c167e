import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import snrdiff
from snrdiff import samplers
from snrdiff.cli import _csv_text, main

UNIT_CONFIG = {
    "schedule": {"name": "VP"},
    "gmm": {"weights": [1.0], "means": [[0.0]], "covs": [[[1.0]]]},
    "sampler": {"kind": "generalized", "rho": 0.0, "gamma": 0.0,
                "steps": 24, "seed": 7},
}

GMM2D_CONFIG = {
    "schedule": {"name": "VP"},
    "gmm": {
        "weights": [0.5, 0.5],
        "means": [[-1.0, 0.0], [1.0, 0.5]],
        "covs": [[[0.3, 0.0], [0.0, 0.3]], [[0.3, 0.0], [0.0, 0.3]]],
    },
    "sampler": {"kind": "generalized", "rho": 1.0, "steps": 12, "seed": 5},
}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def per_value_csv_text(header, rows):
    """The per-value formatter ``_csv_text`` replaced: ints through ``str``,
    floats with 17 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") if isinstance(v, float)
                       else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e300, -1e300, float("inf"), float("-inf"), float("nan")]


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(st.lists(
    st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
    min_size=cols, max_size=cols), max_size=12)))
@example([EDGE_FLOATS])
def test_csv_text_matches_per_value_floats(rows):
    header = [f"c{j}" for j in range(len(rows[0]) if rows else 1)]
    expected = per_value_csv_text(header, rows)
    assert _csv_text(header, rows) == expected
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    assert _csv_text(header, table) == expected


@given(st.lists(st.tuples(st.integers(-2**53, 2**53), st.integers(0, 2**53),
                          st.floats()), max_size=12))
@example([(2**53, 2**53 - 1, 0.1), (0, 1, -0.0), (-2**53, 10**15, 1e300)])
def test_csv_text_writes_integer_columns_as_str(rows):
    header = ["sample_id", "step", "x"]
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    assert _csv_text(header, table) == per_value_csv_text(header, rows)


class TestSchedulesCommand:
    def test_row_count_and_monotone_lambda(self, tmp_path):
        rc = main(["schedules", "--schedule", "VP", "--grid", "100",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "schedules.csv")
        assert header == ["t", "alpha", "sigma", "lambda", "dalpha_dt",
                          "dlambda_dt"]
        assert len(rows) == 100
        lams = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(lams[:-1], lams[1:]))

    def test_rerun_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["schedules", "--schedule", "iDDPM", "--out", str(a_dir)])
        main(["schedules", "--schedule", "iDDPM", "--out", str(b_dir)])
        assert (a_dir / "schedules.csv").read_bytes() \
            == (b_dir / "schedules.csv").read_bytes()

    def test_unknown_schedule_exits_2(self, tmp_path):
        rc = main(["schedules", "--schedule", "bogus", "--out", str(tmp_path)])
        assert rc == 2


class TestSampleCommand:
    def test_writes_samples_and_report(self, tmp_path):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        rc = main(["sample", "--config", cfg, "-n", "400",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "samples.csv")
        assert header == ["sample_id", "x_0"]
        assert len(rows) == 400
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) >= {"mean_error_l2", "cov_frobenius_error",
                               "energy_distance", "gaussian_kl", "n"}
        assert report["gaussian_kl"] is not None

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "-n", "200", "--out", str(a_dir)])
        main(["sample", "--config", cfg, "-n", "200", "--out", str(b_dir)])
        assert (a_dir / "samples.csv").read_bytes() \
            == (b_dir / "samples.csv").read_bytes()
        assert (a_dir / "report.json").read_bytes() \
            == (b_dir / "report.json").read_bytes()

    def test_prior_only_run(self, tmp_path):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        cfg_data["sampler"]["t_start"] = 1.0
        cfg_data["sampler"]["t_end"] = 1.0
        cfg = write_config(tmp_path, cfg_data)
        rc = main(["sample", "--config", cfg, "-n", "2000",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "samples.csv")
        x = np.array([float(r[1]) for r in rows])
        assert abs(x.std() - 1.0) < 0.08  # sigma(1) for VP is ~1

    def test_trajectories_flag(self, tmp_path):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        rc = main(["sample", "--config", cfg, "-n", "3", "--trajectories",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "trajectories.csv")
        assert header == ["sample_id", "step", "t", "z_0"]
        assert len(rows) == 3 * 25

    def test_trajectories_match_records_at_any_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["sample", "--config", cfg, "-n", "9",
                         "--trajectories", "--threads", threads,
                         "--out", str(out)]) == 0
            texts.append((out / "trajectories.csv").read_text())
        assert texts[0] == texts[1]

        sched = snrdiff.schedule_from_dict(GMM2D_CONFIG["schedule"])
        gmm = snrdiff.gmm_from_dict(GMM2D_CONFIG["gmm"])
        _, trajs = snrdiff.sample(
            sched, snrdiff.oracle_score_model(gmm, sched),
            snrdiff.sampler_config_from_dict(GMM2D_CONFIG["sampler"]), n=9,
            d=2, return_trajectories=True)
        # slices of one (steps + 1, n, d) array: disjoint, so np.shares_memory
        # of two records is False, but each shares memory with that base
        base = trajs[0].states.base
        assert base.shape == (13, 9, 2)
        assert all(tr.states.base is base and np.shares_memory(tr.states, base)
                   for tr in trajs)
        rows = ((i, k, float(t), *map(float, tr.states[k]))
                for i, tr in enumerate(trajs) for k, t in enumerate(tr.times))
        assert texts[0] == per_value_csv_text(
            ["sample_id", "step", "t", "z_0", "z_1"], rows)

    def test_missing_gmm_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"schedule": {"name": "VP"},
                                      "sampler": {"seed": 1}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_seed_exits_2(self, tmp_path):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        del cfg_data["sampler"]["seed"]
        cfg = write_config(tmp_path, cfg_data)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_samples_exits_2_and_writes_nothing(self, tmp_path, n):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        out = tmp_path / "out"
        rc = main(["sample", "--config", cfg, "-n", n, "--out", str(out)])
        assert rc == 2
        assert not out.exists() or not any(out.iterdir())

    def test_non_integer_steps_exits_2(self, tmp_path):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        cfg_data["sampler"]["steps"] = 10.5
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("update", [{"rho": "abc"}, {"t_start": 5.0}])
    def test_bad_sampler_value_exits_2_and_writes_nothing(self, tmp_path,
                                                          capsys, update):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        cfg_data["sampler"].update(update)
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {next(iter(update))}" in capsys.readouterr().err

    @pytest.mark.parametrize("section,update,named", [
        ("gmm", {"means": [[float("nan")]]}, "mixture means"),
        ("gmm", {"covs": [[[float("inf")]]]}, "mixture covs"),
        ("schedule", {"params": {"beta_min": "abc"}}, "VP param beta_min"),
        ("gmm", {"means": [["abc"]]}, "gmm means"),
        ("gmm", {"weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]],
                 "covs": [[[1.0]], [[1.0]]]}, "gmm means"),
    ])
    def test_bad_mixture_or_schedule_exits_2_and_writes_nothing(
            self, tmp_path, capsys, section, update, named):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        cfg_data[section].update(update)
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"config error: {named}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_exits_3(self, tmp_path):
        cfg_data = json.loads(json.dumps(UNIT_CONFIG))
        cfg_data["sampler"].update({"gamma": 500.0, "steps": 8})
        cfg = write_config(tmp_path, cfg_data)
        rc = main(["sample", "--config", cfg, "-n", "16",
                   "--out", str(tmp_path)])
        assert rc == 3


class TestSweepCommand:
    def test_rows_and_best(self, tmp_path):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        rc = main(["sweep", "--config", cfg, "-n", "128",
                   "--gammas", "0.9,1.0", "--deltas", "1.0,1.1",
                   "--rhos", "1", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header[:3] == ["gamma", "delta", "rho"]
        assert len(rows) == 4
        best = json.loads((tmp_path / "sweep_best.json").read_text())
        assert set(best) == set(header)

    def test_kingma_cell_matches_standalone(self, tmp_path):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        main(["sweep", "--config", cfg, "-n", "256", "--gammas", "1",
              "--deltas", "1", "--rhos", "1", "--out", str(tmp_path / "sw")])
        _, rows = read_rows(tmp_path / "sw" / "sweep.csv")
        sweep_metrics = [float(v) for v in rows[0][3:]]

        cfg_data = json.loads(json.dumps(GMM2D_CONFIG))
        cfg_data["sampler"].update({"kind": "kingma"})
        cfg2 = write_config(tmp_path, cfg_data, "kingma.json")
        main(["sample", "--config", cfg2, "-n", "256",
              "--out", str(tmp_path / "km")])
        report = json.loads((tmp_path / "km" / "report.json").read_text())
        np.testing.assert_allclose(
            sweep_metrics[:2],
            [report["mean_error_l2"], report["cov_frobenius_error"]],
            rtol=1e-12,
        )

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        for label, threads in (("t1", "1"), ("t3", "3")):
            main(["sweep", "--config", cfg, "-n", "64",
                  "--gammas", "0.8,1.2", "--deltas", "0.9,1.1",
                  "--rhos", "1", "--threads", threads,
                  "--out", str(tmp_path / label)])
        assert (tmp_path / "t1" / "sweep.csv").read_bytes() \
            == (tmp_path / "t3" / "sweep.csv").read_bytes()

    def test_threads_env_var(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        monkeypatch.setenv("SNRDIFF_THREADS", "2")
        rc = main(["sweep", "--config", cfg, "-n", "32", "--gammas", "1",
                   "--deltas", "1", "--rhos", "1",
                   "--out", str(tmp_path / "env")])
        assert rc == 0


class TestInfoCommand:
    def test_single_gaussian_curve(self, tmp_path):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        rc = main(["info", "--config", cfg, "--lambdas=-4:4:17",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "info.csv")
        assert header == ["lambda", "mmse", "dmi_dlambda", "mi_closed"]
        mi = [float(r[3]) for r in rows]
        assert all(b > a for a, b in zip(mi[:-1], mi[1:]))
        mmse = [float(r[1]) for r in rows]
        assert all(0.0 <= m <= 1.0 for m in mmse)

    def test_sqrt_channel_rows(self, tmp_path):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        rc = main(["info", "--config", cfg, "--kong",
                   "--lambdas", "0.5:8:16", "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "info.csv")
        for r in rows:
            mmse, dmi = float(r[1]), float(r[2])
            assert abs(dmi - 0.5 * mmse) <= 1e-9

    def test_lambda_outside_range_exits_2_and_writes_nothing(self, tmp_path,
                                                             capsys):
        cfg = write_config(tmp_path, UNIT_CONFIG)
        out = tmp_path / "out"
        rc = main(["info", "--config", cfg, "--lambdas", "0,50",
                   "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "lambda=50.0 outside attainable range" in capsys.readouterr().err

    def test_too_few_mc_draws_exits_2_and_writes_nothing(self, tmp_path,
                                                          capsys):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        out = tmp_path / "out"
        rc = main(["info", "--config", cfg, "--lambdas=-2:2:5",
                   "--mc-n", "10", "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert "n must be >= 100" in capsys.readouterr().err

    def test_mixture_needs_seed(self, tmp_path):
        cfg_data = json.loads(json.dumps(GMM2D_CONFIG))
        del cfg_data["sampler"]
        cfg = write_config(tmp_path, cfg_data)
        assert main(["info", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_mixture_mc_curve(self, tmp_path):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        rc = main(["info", "--config", cfg, "--lambdas=-2:2:5",
                   "--mc-n", "500", "--out", str(tmp_path)])
        assert rc == 0
        header, _ = read_rows(tmp_path / "info.csv")
        assert header == ["lambda", "mmse", "dmi_dlambda"]


@pytest.mark.parametrize("argv", [
    ["schedules", "--grid", "-1"],
    ["sweep", "--gammas", ","],
    ["sweep", "--deltas", "1:2:0"],
    ["info", "--lambdas", ""],
    ["snrspace", "--grid", "-1"],
])
def test_empty_or_negative_grid_exits_2_and_writes_nothing(tmp_path, capsys,
                                                          argv):
    cfg = write_config(tmp_path, UNIT_CONFIG)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error: " in capsys.readouterr().err


@pytest.mark.parametrize("flag,message", [
    ("--gammas=-1", "gamma = -1 is excluded for the generalized step"),
    ("--gammas=nan", "gamma must be a finite real number, got nan"),
    ("--rhos=inf", "rho must be a finite real number, got inf"),
    ("--deltas=nan", "delta must be a finite real number, got nan"),
])
def test_bad_sweep_cell_exits_2_and_writes_nothing(tmp_path, capsys, flag,
                                                   message):
    cfg = write_config(tmp_path, UNIT_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "-n", "8", flag,
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


def test_uncreatable_out_dir_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, UNIT_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = main(["sample", "--config", cfg, "-n", "8",
               "--out", str(blocker / "out")])
    assert rc == 2
    assert "cannot write" in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("argv,blocked", [
    (["sample", "-n", "8"], "report.json"),
    (["sample", "-n", "8", "--trajectories"], "trajectories.csv"),
    (["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"], "sweep_best.json"),
])
def test_failed_later_file_leaves_no_output(tmp_path, capsys, argv, blocked):
    cfg = write_config(tmp_path, UNIT_CONFIG)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert f"cannot write {out / blocked}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [blocked]


class TestSnrspaceCommand:
    def test_curve(self, tmp_path):
        rc = main(["snrspace", "--schedule", "FM_OT", "--grid", "64",
                   "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "snrspace.csv")
        assert header == ["lambda", "tilde_alpha", "tilde_sigma"]
        assert len(rows) == 64
        for r in rows:
            lam, a, s = map(float, r)
            np.testing.assert_allclose(s, a * np.exp(-lam / 2), rtol=1e-9)


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        rc = main(["verify", "--level", "fast"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(samplers, "_MUTATE_FLIP_EPS_BRACKET", True)
        assert main(["verify", "--level", "fast"]) == 1
        assert "FAIL kingma_reduction" in capsys.readouterr().out


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        # the child imports the same snrdiff as this test, installed or not
        src = str(Path(snrdiff.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "snrdiff.cli", "schedules",
             "--schedule", "VE", "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert (tmp_path / "schedules.csv").exists()
