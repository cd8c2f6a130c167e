"""Which modules a fresh interpreter loads.

scipy is imported where it is used (``ndtri`` in ``rng.row_normals``,
``cdist`` for the D > 1 energy distance, ``logsumexp`` in
``gmm.log_marginal_density``), so importing the package and running the
commands that need none of them load no scipy module.  Likewise the check
suite ``snrdiff.verify`` is imported by the ``verify`` command alone, and
the numpy CSV formatter ``snrdiff.csvtext`` by a command writing a table
large enough to need it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import snrdiff

MIXTURE_CONFIG = {
    "schedule": {"name": "FM_OT"},
    "gmm": {"weights": [0.4, 0.6], "means": [[-1.0, 0.5], [1.0, 0.0]],
            "covs": [[[0.3, 0.1], [0.1, 0.2]], [[0.2, 0.0], [0.0, 0.4]]]},
    "sampler": {"seed": 3},
}
SCALAR_CONFIG = {
    "schedule": {"name": "VP"},
    "gmm": {"weights": [1.0], "means": [[0.5]], "covs": [[[0.7]]]},
    "sampler": {"steps": 10, "seed": 3},
}

# the script prints the modules loaded after running its body
PROBE = """
import json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(body: str) -> list[str]:
    src = str(Path(snrdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded_scipy_modules(body: str) -> list[str]:
    return [m for m in loaded_modules(body)
            if m == "scipy" or m.startswith("scipy.")]


def cli_body(tmp_path, argv, cfg=None) -> str:
    if cfg is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    argv = argv + ["--out", str(tmp_path / "out")]
    return ("from snrdiff.cli import main\n"
            f"assert main({argv!r}) == 0")


def test_import_loads_no_scipy():
    assert loaded_scipy_modules("import snrdiff, snrdiff.cli") == []


def test_cli_import_leaves_the_check_suite_out():
    assert "snrdiff.verify" not in loaded_modules("import snrdiff.cli")


def test_only_a_large_table_loads_the_csv_formatter(tmp_path):
    # 49 lambdas of 3 values print row by row; 100 schedule rows of 6 in numpy
    assert "snrdiff.csvtext" not in loaded_modules(cli_body(
        tmp_path, ["info", "--lambdas=-3:3:49", "--mc-n", "200"],
        MIXTURE_CONFIG))
    assert "snrdiff.csvtext" in loaded_modules(cli_body(
        tmp_path, ["schedules", "--schedule", "VP"]))


@pytest.mark.parametrize("argv,cfg", [
    (["info", "--lambdas=-3:3:7", "--mc-n", "200"], MIXTURE_CONFIG),
    (["schedules", "--schedule", "iDDPM"], None),
    (["snrspace", "--schedule", "VE"], None),
], ids=["info_mixture", "schedules", "snrspace"])
def test_commands_without_scipy_work_load_none(tmp_path, argv, cfg):
    assert loaded_scipy_modules(cli_body(tmp_path, argv, cfg)) == []


def test_scalar_sample_loads_no_spatial(tmp_path):
    loaded = loaded_scipy_modules(
        cli_body(tmp_path, ["sample", "-n", "50"], SCALAR_CONFIG))
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.spatial")]
