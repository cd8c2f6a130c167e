import argparse
import contextlib
import copy
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import traceback
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import snrdiff
from snrdiff import (cli, csvtext, energy_distance, gaussian_kl_fit,
                     gmm_from_dict, make_schedule, metrics, moment_report,
                     oracle_score_model, rng,
                     sample, sample_data, sampler_config_from_dict, samplers,
                     snr_space, verify)
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

GAUSS2D_CONFIG = {
    "schedule": {"name": "VP"},
    "gmm": {"weights": [1.0], "means": [[0.0, 0.0]], "covs": [[1.0, 2.0]]},
    "sampler": {"kind": "generalized", "rho": 1.0, "steps": 12, "seed": 5},
}

# runs the quality report or the generalized table cannot serve, each with
# the exit code and the one stderr line it must end in
EXACT_REFERENCE_GAMMA_MINUS_ONE = {
    **UNIT_CONFIG, "sampler": {"kind": "exact_reference", "gamma": -1.0,
                               "steps": 3, "substeps": 2, "seed": 7}}
SINGULAR_GAUSS2D = {**GAUSS2D_CONFIG, "gmm": {
    "weights": [1.0], "means": [[0.0, 0.0]],
    "covs": [[[1.0, 1.0], [1.0, 1.0]]]}}
ZERO_COV = {**UNIT_CONFIG, "gmm": {"weights": [1.0], "means": [[0.3]],
                                   "covs": [[[0.0]]]}}
# finite parameters, but the mixture covariance overflows and every MC
# squared error is NaN
HUGE_MEAN = {"schedule": {"name": "VP"}, "gmm": {
    "weights": [0.5, 0.5], "means": [[1e200, 0.0], [0.0, 0.0]],
    "covs": [[1.0, 1.0], [1.0, 1.0]]}, "sampler": {"seed": 3}}
HUGE_MEAN_RUNS = [["info", "--lambdas=-2:2:3", "--mc-n", "200"],
                  ["sample", "-n", "8"],
                  ["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"]]
# a finite target that samples exactly, but whose samples near 1e160
# overflow the moment errors
HUGE_ONE_MEAN = {"schedule": {"name": "VP"}, "gmm": {
    "weights": [1.0], "means": [[1e160]], "covs": [[1.0]]},
    "sampler": {"seed": 3}}
HUGE_ONE_MEAN_RUNS = [["sample", "-n", "50"],
                      ["sweep", "-n", "50", "--gammas", "1", "--deltas", "1"]]
# a scorable target whose quadratic form overflows mid-run, inside the
# sampler's worker threads when there are several
OVERFLOWING_MIXTURE = {"schedule": {"name": "VP"}, "gmm": {
    "weights": [0.5, 0.5], "means": [[1.3e154], [-1.3e154]],
    "covs": [[1e-6], [1e-6]]}, "sampler": {"seed": 3, "steps": 8}}
MIXTURE_1D = {**UNIT_CONFIG, "gmm": {"weights": [0.5, 0.5],
                                     "means": [[-1.0], [1.0]],
                                     "covs": [[[0.3]], [[0.3]]]}}
# a D = 16 mixture, the shape of the benchmark's mixture_sample
MIXTURE_16D = {**UNIT_CONFIG, "gmm": {"weights": [0.5, 0.5],
                                      "means": [[-1.0] * 16, [1.0] * 16],
                                      "covs": [[0.5] * 16, [1.0] * 16]}}
# row counts too large for any array numpy can index: past the size cap, or
# under it but past the first array of the run on n rows (sweep's 55 default
# cells on MIXTURE_1D, 16 values a row on MIXTURE_16D, 25 trajectory nodes
# on MIXTURE_1D)
OVERSIZED_RUNS = [["sample", "-n", "100000000000000000000"],
                  ["info", "--mc-n", "100000000000000000000"],
                  ["sweep", "-n", "144115188075855872"],
                  ["sample", "-n", "576460752303423488"],
                  ["sample", "-n", "72057594037927936", "--trajectories"]]
# grid counts: past the size cap, or under it but holding 728 TiB of values,
# which no allocation serves
OVERSIZED_GRIDS = [["schedules", "--schedule", "VP", "--grid", str(10**14)],
                   ["schedules", "--schedule", "VP", "--grid", str(10**21)],
                   ["snrspace", "--schedule", "VP", "--grid", str(10**21)],
                   ["sweep", "-n", "8", f"--gammas=0.5:1.5:{10**14}"],
                   ["sweep", "-n", "8", f"--deltas=0.5:1.5:{10**21}"],
                   ["info", f"--lambdas=-1:1:{10**14}"]]
# sampler configs whose time grid numpy cannot index: steps + 1 nodes, or
# substeps + 1 per interval on exact_reference
OVERSIZED_STEPS = {**UNIT_CONFIG, "sampler": {**UNIT_CONFIG["sampler"],
                                              "steps": 10**21}}
OVERSIZED_SUBSTEPS = {**UNIT_CONFIG, "sampler": {
    "kind": "exact_reference", "steps": 3, "substeps": 10**21, "seed": 7}}
# node counts under numpy's index that np.linspace, counting in float64,
# rounds up to 2**60 values: 2**60 - 1 as a grid, and steps + 1 nodes one
# short of it
ROUNDED_UP_GRID = ["schedules", "--schedule", "VP", "--grid",
                   "1152921504606846975"]
ROUNDED_UP_STEPS = {**UNIT_CONFIG, "sampler": {**UNIT_CONFIG["sampler"],
                                               "steps": 1152921504606846974}}
OUT_OF_MEMORY = ("config error: out of memory: Unable to allocate 728. TiB "
                 "for an array with shape (100000000000000,) and data type "
                 "float64")
# the reason every count past the size rule's cap gives
PAST_LIMIT = (": the array it sizes would exceed numpy's limit of "
              "1152921504606846911 8-byte values")
# mixtures whose means are not a (K, D) array with K, D >= 1
THREE_AXIS_MEANS = {**UNIT_CONFIG, "gmm": {"weights": [1.0],
                                           "means": [[[0.0]]],
                                           "covs": [[[1.0]]]}}
ZERO_DIM_MIXTURE = {**UNIT_CONFIG, "gmm": {"weights": [1.0], "means": [[]],
                                           "covs": [[]]}}
UNSERVED_RUNS = [
    (EXACT_REFERENCE_GAMMA_MINUS_ONE, ["sample", "-n", "8"], 2,
     "config error: gamma = -1 is excluded for the generalized step"),
    (GAUSS2D_CONFIG, ["sample", "-n", "2"], 2,
     "config error: -n must exceed the dimension 2 for the Gaussian-fit KL, "
     "got 2"),
    (SINGULAR_GAUSS2D, ["sample", "-n", "8"], 3,
     "numerical failure: target covariance must be positive definite"),
    (ZERO_COV, ["sample", "-n", "8"], 3,
     "numerical failure: target covariance is zero: no relative covariance "
     "error"),
    (ZERO_COV, ["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"], 3,
     "numerical failure: target covariance is zero: no relative covariance "
     "error"),
    (HUGE_MEAN, HUGE_MEAN_RUNS[0], 3,
     "numerical failure: Monte Carlo MMSE is not finite at lambda=-2.0 "
     "(t=0.45734578720875707): row 0 has squared error nan"),
    (HUGE_MEAN, HUGE_MEAN_RUNS[1], 3,
     "numerical failure: target covariance is not finite"),
    (HUGE_MEAN, HUGE_MEAN_RUNS[2], 3,
     "numerical failure: target covariance is not finite"),
    (HUGE_ONE_MEAN, HUGE_ONE_MEAN_RUNS[0], 3,
     "numerical failure: quality metric mean_error_l2 is not finite (inf)"),
    (HUGE_ONE_MEAN, HUGE_ONE_MEAN_RUNS[1], 3,
     "numerical failure: quality metric mean_error_l2 is not finite (inf) "
     "at gamma=1, delta=1, rho=1"),
    (OVERFLOWING_MIXTURE, ["sample", "-n", "16"], 3,
     "numerical failure: non-finite state at step 5 "
     "(t=0.11188097290315374 -> s=0.031686417908586915): row 0 holds nan"),
    (THREE_AXIS_MEANS, ["sample", "-n", "8"], 2,
     "config error: means must be a (K, D) array with K, D >= 1, got shape "
     "(1, 1, 1)"),
    (THREE_AXIS_MEANS, ["info"], 2,
     "config error: means must be a (K, D) array with K, D >= 1, got shape "
     "(1, 1, 1)"),
    (ZERO_DIM_MIXTURE, ["sample", "-n", "8"], 2,
     "config error: means must be a (K, D) array with K, D >= 1, got shape "
     "(1, 0)"),
    (ZERO_DIM_MIXTURE, ["info"], 2,
     "config error: means must be a (K, D) array with K, D >= 1, got shape "
     "(1, 0)"),
    (MIXTURE_1D, OVERSIZED_RUNS[0], 2,
     "config error: -n must be at most 1152921504606846911, got "
     "100000000000000000000" + PAST_LIMIT),
    (MIXTURE_1D, OVERSIZED_RUNS[1], 2,
     "config error: --mc-n must be at most 1152921504606846911, got "
     "100000000000000000000" + PAST_LIMIT),
    (MIXTURE_1D, OVERSIZED_RUNS[2], 2,
     "config error: -n must be at most 20962209174669943, got "
     "144115188075855872" + PAST_LIMIT),
    (MIXTURE_16D, OVERSIZED_RUNS[3], 2,
     "config error: -n must be at most 72057594037927931, got "
     "576460752303423488" + PAST_LIMIT),
    (MIXTURE_1D, OVERSIZED_RUNS[4], 2,
     "config error: -n must be at most 46116860184273876, got "
     "72057594037927936" + PAST_LIMIT),
    (UNIT_CONFIG, OVERSIZED_GRIDS[0], 2, OUT_OF_MEMORY),
    (UNIT_CONFIG, OVERSIZED_GRIDS[1], 2,
     "config error: --grid must be at most 1152921504606846911, got "
     "1000000000000000000000" + PAST_LIMIT),
    (UNIT_CONFIG, OVERSIZED_GRIDS[2], 2,
     "config error: --grid must be at most 1152921504606846911, got "
     "1000000000000000000000" + PAST_LIMIT),
    (UNIT_CONFIG, OVERSIZED_GRIDS[3], 2, OUT_OF_MEMORY),
    (UNIT_CONFIG, OVERSIZED_GRIDS[4], 2,
     "config error: delta grid count must be at most 1152921504606846911, "
     "got 1000000000000000000000" + PAST_LIMIT),
    (UNIT_CONFIG, OVERSIZED_GRIDS[5], 2, OUT_OF_MEMORY),
    (OVERSIZED_STEPS, ["sample", "-n", "8"], 2,
     "config error: sampler steps must be at most 1152921504606846910, got "
     "1000000000000000000000" + PAST_LIMIT),
    (OVERSIZED_SUBSTEPS, ["sample", "-n", "8"], 2,
     "config error: sampler substeps must be at most 1152921504606846910, "
     "got 1000000000000000000000" + PAST_LIMIT),
    (UNIT_CONFIG, ROUNDED_UP_GRID, 2,
     "config error: --grid must be at most 1152921504606846911, got "
     "1152921504606846975" + PAST_LIMIT),
    (ROUNDED_UP_STEPS, ["sample", "-n", "8"], 2,
     "config error: sampler steps must be at most 1152921504606846910, got "
     "1152921504606846974" + PAST_LIMIT),
    (UNIT_CONFIG, ["sample", "-n", "8", "--threads", "0"], 2,
     "config error: --threads must be >= 1, got 0"),
    (UNIT_CONFIG, ["sample", "-n", "8", "--threads", "-3"], 2,
     "config error: --threads must be >= 1, got -3"),
    (UNIT_CONFIG, ["sweep", "-n", "8", "--threads", "0"], 2,
     "config error: --threads must be >= 1, got 0"),
    (UNIT_CONFIG, ["sweep", "-n", "8", "--threads", "-3"], 2,
     "config error: --threads must be >= 1, got -3"),
]
UNSERVED_IDS = ["exact_reference_gamma_minus_one", "n_not_above_dim",
                "singular_target", "zero_cov_sample", "zero_cov_sweep",
                "huge_mean_info", "huge_mean_sample", "huge_mean_sweep",
                "huge_one_mean_sample", "huge_one_mean_sweep",
                "overflowing_mixture", "three_axis_means_sample",
                "three_axis_means_info", "zero_dim_mixture_sample",
                "zero_dim_mixture_info", "oversized_n_sample",
                "oversized_mc_n_info", "oversized_cells_sweep",
                "oversized_d16_sample",
                "oversized_trajectories_sample", "out_of_memory_schedules",
                "oversized_grid_schedules", "oversized_grid_snrspace",
                "out_of_memory_sweep_gammas", "oversized_sweep_deltas",
                "out_of_memory_info_lambdas", "oversized_steps_sample",
                "oversized_substeps_sample", "rounded_up_grid_schedules",
                "rounded_up_steps_sample", "zero_threads_sample",
                "negative_threads_sample", "zero_threads_sweep",
                "negative_threads_sweep"]
# the runs whose target the quality report cannot score
UNSCORABLE_TARGETS = [
    (SINGULAR_GAUSS2D, ["sample", "-n", "8"]),
    (ZERO_COV, ["sample", "-n", "8"]),
    (ZERO_COV, ["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"]),
    (HUGE_MEAN, HUGE_MEAN_RUNS[1]), (HUGE_MEAN, HUGE_MEAN_RUNS[2])]


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_columns(path):
    """The columns of a CSV file as float arrays: each value is '%.17g'
    text, which reads back to its float exactly."""
    _, rows = read_rows(path)
    return np.array([[float(v) for v in row] for row in rows]).T


def assert_same_bits(got, want):
    assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def per_value_csv_text(header, rows):
    """The per-value formatter ``_csv_text`` replaced: ints through ``str``,
    floats with 17 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(format(float(v), ".17g") if isinstance(v, float)
                       else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def per_row_csv_text(header, table, int_columns=0):
    """The per-row formatter ``csvtext`` replaced for tables of
    ``cli._CSV_SMALL`` values or more: one ``%`` format per row."""
    row = ",".join(["%d"] * int_columns
                   + ["%.17g"] * (len(header) - int_columns))
    lines = [row % tuple(r) for r in np.asarray(table, dtype=float).tolist()]
    return "\n".join([",".join(header), *lines]) + "\n"


@contextlib.contextmanager
def numpy_csv(block=None):
    """Let ``_csv_text`` format every table in numpy, ``block`` values at a
    time (by default csvtext's own block)."""
    with mock.patch.object(cli, "_CSV_SMALL", 0), \
            mock.patch.object(csvtext, "_BLOCK", block or csvtext._BLOCK):
        yield


def assert_csv_exact(header, table, int_columns=0, expected=None):
    """``_csv_text`` writes ``expected`` (by default the per-row text) both
    by its own size rule and formatted in numpy."""
    if expected is None:
        expected = per_row_csv_text(header, table, int_columns)
    assert _csv_text(header, table, int_columns) == expected
    with numpy_csv():
        assert _csv_text(header, table, int_columns) == expected


def float_of_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def bits_of_float(x):
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def neighbours(x, k=40):
    """The k floats on each side of a positive finite x, and x."""
    return [float_of_bits(bits_of_float(x) + i) for i in range(-k, k + 1)]


def scaled_to_17_digits(x):
    """x times the power of ten that puts its 17 significant digits before
    the point, exactly."""
    exponent = int(f"{x:.16e}".split("e")[1])
    return Fraction(x) * Fraction(10) ** (16 - exponent)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               1e300, -1e300, float("inf"), float("-inf"), float("nan")]
# x = t / 2**(17 - X) with t odd and t * 5**(17 - X) an 18-digit integer
# ending in 5: a double exactly half-way at 17 digits, in each decade X of
# the numpy formatter's range, on either parity of the 17th digit
HALF_WAY = [t / 2.0**(17 - e) for e in range(-3, 16)
            for t0 in [-(-10**17 // 5**(17 - e)) | 1]
            for t in range(t0, min(t0 + 80, 2**53), 2)]
FLOAT_FAMILIES = {
    # the 40 floats on each side of each power of ten, 1e-4 to 1e16
    "powers_of_ten": [x for k in range(-4, 17)
                      for x in neighbours(float(f"1e{k}"))],
    # 17 nines and more: the largest values below each next power of ten
    "nines": [float(f"9.99999999999999{j:02d}e{k}") for k in range(-4, 17)
              for j in range(100)],
    "half_way": HALF_WAY,
    # the numpy formatter's range [1e-3, 2**52), each binade's first float
    "range_edges": [*neighbours(1e-3), *neighbours(2.0**52),
                    *(2.0**k for k in range(-12, 54))],
    "zeros_subnormals_inf_nan": [0.0, 5e-324, 1e-320, 2.2250738585072009e-308,
                                 2.2250738585072014e-308, float("inf"),
                                 float("nan")],
}


def test_half_way_family_holds_ties():
    scaled = [scaled_to_17_digits(x) for x in HALF_WAY]
    assert scaled_to_17_digits(0.1).denominator != 2
    assert all(v.denominator == 2 for v in scaled)
    # half to even rounds both ways: down from an even floor, up from an
    # odd one
    assert {v.numerator // 2 % 2 for v in scaled} == {0, 1}


@pytest.mark.parametrize("family", FLOAT_FAMILIES)
@pytest.mark.parametrize("cols", [1, 3])
def test_csv_text_is_percent_17g_of_edge_families(family, cols):
    values = FLOAT_FAMILIES[family]
    values = values + [-x for x in values]
    values += [0.5] * (-len(values) % cols)
    table = np.array(values).reshape(-1, cols)
    header = [f"c{j}" for j in range(cols)]
    expected = per_value_csv_text(header, table.tolist())
    assert_csv_exact(header, table, expected=expected)


RAW_FLOATS = st.integers(0, 2**64 - 1).map(float_of_bits)
# raw bit patterns land in [1e-3, 2**52) only 3% of the time
FAST_FLOATS = st.builds(lambda bits, sign: float_of_bits(bits | sign << 63),
                        st.integers(bits_of_float(1e-3),
                                    bits_of_float(2.0**52) - 1),
                        st.integers(0, 1))


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(st.lists(
    RAW_FLOATS | FAST_FLOATS, min_size=cols, max_size=cols), min_size=1,
    max_size=40)))
def test_csv_text_is_percent_17g_of_raw_bit_patterns(rows):
    header = [f"c{j}" for j in range(len(rows[0]))]
    assert_csv_exact(header, rows, expected=per_value_csv_text(header, rows))


@given(st.integers(1, 6).flatmap(lambda cols: st.lists(st.lists(
    st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS)),
    min_size=cols, max_size=cols), max_size=12)))
@example([EDGE_FLOATS])
def test_csv_text_matches_per_value_floats(rows):
    header = [f"c{j}" for j in range(len(rows[0]) if rows else 1)]
    expected = per_value_csv_text(header, rows)
    assert_csv_exact(header, rows, expected=expected)
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    assert_csv_exact(header, table, expected=expected)


@given(st.lists(st.tuples(st.integers(-2**53, 2**53), st.integers(0, 2**53),
                          st.floats()), max_size=12))
@example([(2**53, 2**53 - 1, 0.1), (0, 1, -0.0), (-2**53, 10**15, 1e300)])
def test_csv_text_writes_integer_columns_as_str(rows):
    header = ["sample_id", "step", "x"]
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    assert_csv_exact(header, table,
                     expected=per_value_csv_text(header, rows))


@pytest.mark.parametrize("int_columns", [1, 2])
def test_csv_text_integer_columns_keep_the_float_text(int_columns):
    # ids and steps below 2**53: %d writes what %.17g does
    ids = [0, 1, 9, 10, 99, 100, 10**15, 2**53 - 1]
    table = np.column_stack([ids, ids[::-1], [0.1, -0.0, 1e300, 5e-324,
                                              0.5, 1.5, 2.0, -3.25]])
    header = ["sample_id", "step", "x"]
    text = _csv_text(header, table, int_columns)
    assert_csv_exact(header, table, int_columns, text)
    assert_csv_exact(header, table, 0, text)
    assert text.splitlines()[1:] == [
        f"{a},{b},{x}" for a, b, x in zip(ids, ids[::-1],
                                           ["0.10000000000000001", "-0",
                                            "1.0000000000000001e+300",
                                            "4.9406564584124654e-324",
                                            "0.5", "1.5", "2", "-3.25"])]


@pytest.mark.parametrize("table", [
    np.empty((0, 3)), [], np.array([[1.0, -2.5, 1e-7]]), [[3, 0.25, -1]],
    [[0, 1.0, 2.0], [2**53 - 1, 3, 4.5]]], ids=[
    "no_rows", "no_rows_list", "one_row", "one_row_list", "list_of_rows"])
@pytest.mark.parametrize("int_columns", [0, 1])
def test_csv_text_table_shapes(table, int_columns):
    header = ["sample_id", "a", "b"]
    assert_csv_exact(header, table, int_columns)
    if not len(table):
        assert _csv_text(header, table, int_columns) == "sample_id,a,b\n"


@pytest.mark.parametrize("rows", [15, 16, 17])
@pytest.mark.parametrize("int_columns", [0, 2])
def test_csv_text_rows_around_a_block_multiple(rows, int_columns):
    # blocks of 8 rows of 3 values: one below, at and one above two blocks
    gen = np.random.default_rng(rows)
    table = gen.standard_normal((rows, 3)) * 10.0 ** gen.integers(-5, 18,
                                                                  (rows, 3))
    table[:, :int_columns] = gen.integers(0, 2**53, (rows, int_columns))
    table[3, -1] = 0.0
    with numpy_csv(block=24):
        assert _csv_text(["a", "b", "c"], table, int_columns) == \
            per_row_csv_text(["a", "b", "c"], table, int_columns)


@pytest.mark.parametrize("block", [7, 64])
def test_trajectories_bytes_across_row_blocks(tmp_path, monkeypatch, block):
    # a D = 2 mixture: 30 samples of 13 nodes, 390 rows of 5 values
    argv = ["sample", "--config", write_config(tmp_path, GMM2D_CONFIG),
            "-n", "30", "--trajectories"]
    with mock.patch.object(cli, "_csv_text", per_row_csv_text):
        assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
    with numpy_csv(block):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    for name in ("samples.csv", "trajectories.csv"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "ref" / name).read_bytes()
    assert len((tmp_path / "out" / "trajectories.csv").read_text()
               .splitlines()) == 391


@pytest.mark.parametrize("rows,cols", [(10000, 2), (2000, 17)])
def test_csv_text_peaks_no_higher_than_per_row(rows, cols):
    # the samples.csv of sample_wide, and of a D = 16 mixture
    gen = np.random.default_rng(0)
    table = np.column_stack([np.arange(rows),
                             gen.normal(1.0, 3.0, (rows, cols - 1))])
    header = [f"c{j}" for j in range(cols)]
    peaks = []
    for csv_text in (per_row_csv_text, _csv_text):
        tracemalloc.start()
        try:
            csv_text(header, table, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


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

    def test_columns_are_the_schedule_methods(self, tmp_path, any_schedule):
        s = any_schedule
        assert main(["schedules", "--schedule", s.name, "--grid", "257",
                     "--out", str(tmp_path)]) == 0
        t, *columns = read_columns(tmp_path / "schedules.csv")
        assert_same_bits(t, np.linspace(s.t_min, s.t_max, 257))
        for got, method in zip(columns, (s.alpha, s.sigma, s.lam,
                                         s.dalpha_dt, s.dlambda_dt),
                               strict=True):
            assert_same_bits(got, method(t))


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

    def test_trajectories_match_records_at_any_thread_count(self, tmp_path,
                                                           split_pools):
        sched = snrdiff.schedule_from_dict(GMM2D_CONFIG["schedule"])
        gmm = snrdiff.gmm_from_dict(GMM2D_CONFIG["gmm"])
        for kind in ("generalized", "exact_reference"):
            cfg_data = copy.deepcopy(GMM2D_CONFIG)
            cfg_data["sampler"].update(kind=kind, substeps=3)
            cfg = write_config(tmp_path, cfg_data)
            texts = []
            for threads in ("1", "2"):
                out = tmp_path / f"{kind}{threads}"
                assert main(["sample", "--config", cfg, "-n", "9",
                             "--trajectories", "--threads", threads,
                             "--out", str(out)]) == 0
                texts.append((out / "trajectories.csv").read_text())
            assert texts[0] == texts[1]

            spec = snrdiff.sampler_config_from_dict(cfg_data["sampler"])
            x, times, states = snrdiff.sample(
                sched, snrdiff.oracle_score_model(gmm), spec, n=9,
                d=2, return_trajectories=True)
            np.testing.assert_array_equal(times, snrdiff.make_time_grid(
                sched, spec.grid_kind, 12, sched.t_max, sched.t_min))
            # grid nodes only, also for exact_reference's sub-steps
            assert states.shape == (13, 9, 2)
            assert np.array_equal(states[-1], x)
            prior = rng.row_normals(5, rng.PURPOSE_PRIOR, 0, 0, 9, 2)
            assert np.array_equal(states[0],
                                  float(sched.sigma(sched.t_max)) * prior)
            rows = ((i, k, float(t), *map(float, states[k, i]))
                    for i in range(9) for k, t in enumerate(times))
            assert texts[0] == per_value_csv_text(
                ["sample_id", "step", "t", "z_0", "z_1"], rows)
        assert split_pools == [2, 2]

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
        ("schedule", {"params": True}, "VP params must be an object"),
        ("schedule", {"name": "custom", "t_min": 0.1, "t_max": 0.9,
                      "params": dict.fromkeys(["alpha", "sigma", "dalpha",
                                               "dsigma"], 1)},
         "Custom schedules take callables"),
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

    def test_thread_count_does_not_change_bytes(self, tmp_path, split_pools):
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        for label, threads in (("t1", "1"), ("t3", "3")):
            main(["sweep", "--config", cfg, "-n", "64",
                  "--gammas", "0.8,1.2", "--deltas", "0.9,1.1",
                  "--rhos", "1", "--threads", threads,
                  "--out", str(tmp_path / label)])
        assert (tmp_path / "t1" / "sweep.csv").read_bytes() \
            == (tmp_path / "t3" / "sweep.csv").read_bytes()
        assert split_pools == [3]

    def test_threads_come_only_from_the_flag(self, tmp_path, monkeypatch,
                                             split_pools):
        # no environment variable stands in for --threads, which defaults to 1
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        monkeypatch.setenv("SNRDIFF_THREADS", "2")
        rc = main(["sweep", "--config", cfg, "-n", "32", "--gammas", "1",
                   "--deltas", "1", "--rhos", "1",
                   "--out", str(tmp_path / "env")])
        assert rc == 0
        assert split_pools == []


    @pytest.mark.parametrize("cfg", [UNIT_CONFIG, GMM2D_CONFIG],
                             ids=["gauss_1d", "mixture_2d"])
    def test_rows_are_the_public_metrics_of_each_cell(self, tmp_path, cfg):
        # the target moments, checked once, and each cell's samples, put in
        # canonical order once, give the public calls' bits per cell
        gammas, deltas = [0.5, 1.0, 1.5], [0.9, 1.1]
        main(["sweep", "--config", write_config(tmp_path, cfg), "-n", "48",
              "--gammas", "0.5,1.0,1.5", "--deltas", "0.9,1.1",
              "--out", str(tmp_path)])
        _, rows = read_rows(tmp_path / "sweep.csv")
        sched = make_schedule(cfg["schedule"]["name"])
        gmm = gmm_from_dict(cfg["gmm"])
        base = sampler_config_from_dict(cfg["sampler"])
        cells = [replace(base, kind="generalized", rho=1.0, gamma=g, delta=d)
                 for g in gammas for d in deltas]
        xs = sample(sched, oracle_score_model(gmm), cells, n=48,
                    d=gmm.dim)
        reference = sample_data(gmm, 48, base.seed)
        assert len(rows) == len(cells)
        for row, cell, x in zip(rows, cells, xs):
            report = moment_report(x, gmm)
            assert [float(v) for v in row] == [
                cell.gamma, cell.delta, cell.rho, report.mean_error_l2,
                report.cov_frobenius_error, energy_distance(x, reference)]

    def test_reference_self_term_is_summed_once(self, tmp_path, monkeypatch):
        self_sums = []
        pair_sum = metrics._pairwise_distance_sum

        def recording(a, b=None):
            if b is None:
                self_sums.append(a.copy())
            return pair_sum(a, b)

        monkeypatch.setattr(metrics, "_pairwise_distance_sum", recording)
        assert main(["sweep", "--config", write_config(tmp_path, GMM2D_CONFIG),
                     "-n", "40", "--gammas", "0.5,1,1.5", "--deltas", "1",
                     "--out", str(tmp_path)]) == 0
        base = sampler_config_from_dict(GMM2D_CONFIG["sampler"])
        reference = metrics._canonical(sample_data(
            gmm_from_dict(GMM2D_CONFIG["gmm"]), 40, base.seed))
        # one self-term per cell, and the reference's once for the pass
        assert len(self_sums) == 4
        assert sum(np.array_equal(x, reference) for x in self_sums) == 1


@pytest.mark.parametrize("cfg", [UNIT_CONFIG, GMM2D_CONFIG],
                         ids=["gauss_1d", "mixture_2d"])
def test_quality_report_is_the_public_metrics(cfg):
    gmm = gmm_from_dict(cfg["gmm"])
    x = sample_data(gmm, 64, 11)[::-1] * 1.1
    report = cli._quality_report(x, gmm, 5, (gmm.mean(), gmm.cov()))
    want = moment_report(x, gmm)
    want.energy_distance = energy_distance(x, sample_data(gmm, 64, 5))
    if gmm.n_components == 1:
        want.gaussian_kl = gaussian_kl_fit(x, gmm.means[0], gmm.covs[0])
    assert (report.gaussian_kl is None) == (gmm.n_components > 1)
    assert report.to_dict() == want.to_dict()


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

    @pytest.mark.parametrize("lambdas", ["0,1", "nan", "1,nan", "1e400"])
    def test_kong_lambda_not_finite_and_positive_exits_2(self, tmp_path,
                                                        lambdas):
        out = tmp_path / "out"
        rc, err = run_cli(["info", "--config", write_config(tmp_path,
                                                            UNIT_CONFIG),
                           "--kong", f"--lambdas={lambdas}",
                           "--out", str(out)])
        assert (rc, err) == (2, "config error: --kong needs a lambda grid "
                                "of finite lambda > 0\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("seed", ["abc", 1.5, True])
    def test_mixture_bad_config_seed_exits_2_and_writes_nothing(
            self, tmp_path, capsys, seed):
        cfg_data = json.loads(json.dumps(GMM2D_CONFIG))
        cfg_data["sampler"]["seed"] = seed
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        assert main(["info", "--config", cfg, "--lambdas=-2:2:5",
                     "--mc-n", "200", "--out", str(out)]) == 2
        assert not out.exists()
        assert (capsys.readouterr().err
                == f"config error: seed must be an integer, got {seed!r}\n")

    def test_mixture_inverts_lambda_grid_as_arrays(self, tmp_path,
                                                   monkeypatch):
        original, calls = snr_space.t_of_lambda, []

        def counted(schedule, lam):
            calls.append(np.shape(lam))
            return original(schedule, lam)

        for name, mod in list(sys.modules.items()):
            if (name.partition(".")[0] == "snrdiff"
                    and getattr(mod, "t_of_lambda", None) is original):
                monkeypatch.setattr(mod, "t_of_lambda", counted)
        cfg = write_config(tmp_path, GMM2D_CONFIG)
        assert main(["info", "--config", cfg, "--lambdas=-2:2:5",
                     "--mc-n", "500", "--out", str(tmp_path)]) == 0
        # tilde_eval and mmse_mc each invert the whole grid in one call
        assert calls == [(5,), (5,)]

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


@pytest.mark.parametrize("argv", [
    ["sample", "-n", "8"],
    ["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"],
    ["info", "--lambdas=-2:2:5", "--mc-n", "200"],
])
def test_non_object_sampler_section_exits_2_and_writes_nothing(
        tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {**GMM2D_CONFIG, "sampler": [1, 2]})
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert (capsys.readouterr().err
            == "config error: config 'sampler' must be a JSON object\n")


# cells are built gamma slowest and rho fastest, and each checks rho, then
# gamma, then delta: the first bad field of the first bad cell is reported
@pytest.mark.parametrize("flag,message", [
    ("--gammas=-1", "gamma = -1 is excluded for the generalized step"),
    ("--gammas=nan", "gamma must be a finite real number, got nan"),
    ("--rhos=inf", "rho must be a finite real number, got inf"),
    ("--deltas=nan", "delta must be a finite real number, got nan"),
    ("--gammas=nan --rhos=inf", "rho must be a finite real number, got inf"),
    ("--gammas=1,nan --rhos=inf", "rho must be a finite real number, got inf"),
    ("--gammas=nan,1 --deltas=1,nan",
     "gamma must be a finite real number, got nan"),
    ("--gammas=1,nan --deltas=nan",
     "delta must be a finite real number, got nan"),
    ("--gammas=-1 --rhos=inf", "rho must be a finite real number, got inf"),
])
def test_bad_sweep_cell_exits_2_and_writes_nothing(tmp_path, capsys, flag,
                                                   message):
    cfg = write_config(tmp_path, UNIT_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "-n", "8", *flag.split(),
                 "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("cfg,argv,code,message", UNSERVED_RUNS,
                         ids=UNSERVED_IDS)
def test_unserved_run_exits_cleanly_and_writes_nothing(tmp_path, cfg, argv,
                                                       code, message):
    out = tmp_path / "out"
    rc, err = run_cli(argv + ["--config", write_config(tmp_path, cfg),
                              "--out", str(out)])
    assert (rc, err) == (code, message + "\n")
    assert not out.exists()


def run_process(argv, code=None) -> subprocess.CompletedProcess:
    """``python -m snrdiff.cli argv``, or ``python -c code argv``, in a child
    importing this snrdiff, installed or not."""
    src = str(Path(snrdiff.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    entry = ["-m", "snrdiff.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


# the CLI in a child whose sample splits any pass of two or more rows, as the
# split_pools fixture does in-process; it prints "pool <workers>" for each
# pool it starts
SPLITTING_CLI = """
import sys
from concurrent.futures import ThreadPoolExecutor
from snrdiff import cli, samplers

class Pool(ThreadPoolExecutor):
    def __init__(self, max_workers):
        print("pool", max_workers)
        super().__init__(max_workers)

samplers._GRAIN, samplers._usable_cores = 1, lambda: 64
samplers.ThreadPoolExecutor = Pool
sys.exit(cli.main(sys.argv[1:]))
"""

# the CLI in a child, once for each argv of the JSON list in argv[1]
CLI_RUNS = """
import json, sys
from snrdiff import cli
sys.exit(max([cli.main(argv) for argv in json.loads(sys.argv[1])]))
"""
# the benchmark's sample_wide config at seed 3: VP, a 1-D Gaussian
WIDE_1D = {"schedule": {"name": "VP"},
           "gmm": {"weights": [1.0], "means": [[-1.0016738269173946]],
                   "covs": [[[0.6267938025311057]]]},
           "sampler": {"steps": 100, "grid_kind": "uniform_t",
                       "seed": 1325560711}}


def test_outputs_do_not_depend_on_blas_threads(tmp_path, monkeypatch):
    # OpenBLAS splits a long reduction across its threads, so a sum over
    # the rows through BLAS (np.cov, a dot) would move bits with its count
    config = write_config(tmp_path, WIDE_1D)
    outputs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / blas_threads
        runs = [["sample", "--config", config, "--out", str(out / "sample"),
                 "-n", "50000", "--threads", "1"],
                ["sweep", "--config", config, "--out", str(out / "sweep"),
                 "-n", "20000", "--gammas", "0.5,1,1.5", "--deltas", "1",
                 "--rhos", "1"]]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        proc = run_process([json.dumps(runs)], CLI_RUNS)
        assert proc.returncode == 0, proc.stderr
        outputs.append({path.relative_to(out).as_posix(): path.read_bytes()
                        for path in out.rglob("*") if path.is_file()})
    one, two = outputs
    assert sorted(one) == sorted(two) == [
        "sample/report.json", "sample/samples.csv",
        "sweep/sweep.csv", "sweep/sweep_best.json"]
    assert [name for name in one if one[name] != two[name]] == []


# numpy's floating-point warnings would print to a process's stderr ahead of
# the failure line, from the main thread or from sample's worker threads
OVERFLOW_RUNS = {name: run for run, name in zip(UNSERVED_RUNS, UNSERVED_IDS)
                 if name.startswith(("huge", "overflowing"))}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("cfg,argv,code,message", OVERFLOW_RUNS.values(),
                         ids=OVERFLOW_RUNS.keys())
def test_numerical_failure_is_one_stderr_line(tmp_path, cfg, argv, code,
                                              message, threads):
    out = tmp_path / "out"
    proc = run_process(argv + ["--config", write_config(tmp_path, cfg),
                               "--out", str(out), "--threads", threads],
                       SPLITTING_CLI)
    assert (proc.returncode, proc.stderr) == (code, message + "\n")
    assert not out.exists()
    # the huge-mean target is rejected before sampling; the others sample,
    # and at two threads in two workers
    pools = ["pool 2"] if threads == "2" and cfg is not HUGE_MEAN else []
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("pool")] == pools


@pytest.mark.parametrize("cfg,argv", UNSCORABLE_TARGETS,
                         ids=["singular_target", "zero_cov_sample",
                              "zero_cov_sweep", "huge_mean_sample",
                              "huge_mean_sweep"])
def test_unscorable_target_exits_3_before_sampling(tmp_path, monkeypatch, cfg,
                                                   argv):
    calls = []
    monkeypatch.setattr(cli, "sample", lambda *a, **k: calls.append(a))
    rc, _ = run_cli(argv + ["--config", write_config(tmp_path, cfg),
                            "--out", str(tmp_path / "out")])
    assert (rc, calls) == (3, [])


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

    def test_columns_are_the_schedule_at_t_of_lambda(self, tmp_path,
                                                     any_schedule):
        s = any_schedule
        assert main(["snrspace", "--schedule", s.name, "--grid", "257",
                     "--out", str(tmp_path)]) == 0
        lams, alpha, sigma = read_columns(tmp_path / "snrspace.csv")
        assert_same_bits(lams, np.linspace(*s.lambda_range(), 257))
        t = snr_space.t_of_lambda(s, lams)
        assert_same_bits(alpha, s.alpha(t))
        assert_same_bits(sigma, s.sigma(t))


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        # the tier-1 assertion of the fast checks that no acceptance test
        # runs; test_acceptance.py::test_every_check_is_asserted relies on it
        rc = main(["verify", "--level", "fast"])
        *lines, summary = capsys.readouterr().out.splitlines()
        n = len(verify.FAST_CHECKS)
        assert rc == 0
        assert [line.split(":")[0] for line in lines] == [
            f"PASS {check.__name__.removeprefix('check_')}"
            for check in verify.FAST_CHECKS]
        assert summary == f"{n}/{n} checks passed"

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(samplers, "_MUTATE_FLIP_EPS_BRACKET", True)
        assert main(["verify", "--level", "fast"]) == 1
        assert "FAIL kingma_reduction" in capsys.readouterr().out


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        proc = run_process(["schedules", "--schedule", "VE",
                            "--out", str(tmp_path)])
        assert proc.returncode == 0
        assert (tmp_path / "schedules.csv").exists()


# -- the exit-code contract under fuzzed configs and flags --------------------

# steps, substeps and sizes stay small, or are past any memory: the contract
# is about what is rejected, not about how large a run may be.  10**14 rows
# of 8-byte values (728 TiB) fail to allocate at once, and 10**21 is past
# numpy's index; never draw a count that could really allocate gigabytes.
# Each fault source is drawn valid three times in four, so that most runs get
# past config parsing and reach the sampling and reporting paths; two of the
# base configs sample into a numerical failure (exit 3).
HUGE_SIZES = [10**14, 10**21]
SMALL_JUNK = st.sampled_from([
    None, True, False, 0, -1, 1, 3, 0.5, -0.5, 1e308, float("nan"),
    float("inf"), "", "abc", "VP", [], [[]], [1, 2], [[1.0]], [[[0.0]]], {},
    {"a": 1},
]).map(copy.deepcopy)
JUNK = SMALL_JUNK | st.just(2**70)


def mostly(valid, invalid):
    """A value of ``valid`` three draws in four, else one of ``invalid``."""
    return st.sampled_from([valid, valid, valid, invalid]).flatmap(
        st.sampled_from)


def sizes(valid, small):
    """A size option's values: mostly ``valid`` ones, else ``small`` invalid
    ones or the two huge ones."""
    return mostly(valid, [*small, *HUGE_SIZES])


FIELDS = {
    "schedule": st.sampled_from(["name", "params", "t_min", "t_max", "bogus"]),
    "gmm": st.sampled_from(["weights", "means", "covs", "dim", "bogus"]),
    "sampler": st.sampled_from(["kind", "rho", "gamma", "delta", "eta",
                                "steps", "substeps", "seed", "grid_kind",
                                "t_start", "t_end", "bogus"]),
}
VALUES = {
    "name": st.sampled_from(["VP", "VE", "iDDPM", "FM_OT", "custom",
                             "warped"]) | JUNK,
    "params": st.dictionaries(st.sampled_from(["beta_min", "beta_d", "s",
                                               "sigma_min", "sigma_max",
                                               "alpha", "sigma", "dalpha",
                                               "dsigma"]),
                              JUNK | st.floats(-2, 60), max_size=2) | JUNK,
    "kind": st.sampled_from(["generalized", "kingma", "non_markovian",
                             "euler_backward", "exact_reference"]) | JUNK,
    "grid_kind": st.sampled_from(["uniform_t", "uniform_lambda"]) | JUNK,
    **dict.fromkeys(["rho", "gamma", "delta", "eta", "t_start", "t_end",
                     "t_min", "t_max"], st.floats(-2, 3) | JUNK),
    "steps": sizes([1, 2, 3], [-1, 0]) | SMALL_JUNK,
    "substeps": sizes([1, 2, 3], [-1, 0]) | SMALL_JUNK,
}
GRIDS = mostly(["1", "0.5,1", "0:2:3", "-2:2:3", "0", "0,50"],
               ["", ",", "abc", "1:2:0", "1:2", "-1", "nan", "1e400",
                *(f"-2:2:{n}" for n in HUGE_SIZES)])


@st.composite
def fuzzed_config(draw):
    cfg = json.loads(json.dumps(draw(st.sampled_from([
        UNIT_CONFIG, GMM2D_CONFIG, GAUSS2D_CONFIG, HUGE_ONE_MEAN,
        OVERFLOWING_MIXTURE]))))
    cfg["sampler"]["steps"] = 3
    for _ in range(draw(mostly([0], [1, 2, 3]))):
        section = draw(st.sampled_from(sorted(FIELDS)))
        action = draw(st.sampled_from(["set", "set", "drop", "replace"]))
        if action == "replace":
            cfg[section] = draw(JUNK)
        elif action == "drop":
            cfg.pop(section, None)
        elif isinstance(cfg.get(section), dict):
            field = draw(FIELDS[section])
            cfg[section][field] = draw(VALUES.get(field, JUNK | st.floats()))
    return cfg


@st.composite
def fuzzed_flags(draw):
    command = draw(st.sampled_from(["sample", "sweep", "info", "schedules",
                                    "snrspace"]))
    flags = [command]
    if command in ("schedules", "snrspace"):
        flags += ["--grid", str(draw(sizes([1, 3, 50], [-1, 0])))]
    if command in ("sample", "sweep"):
        flags += ["-n", str(draw(sizes([3, 5, 9], [-1, 0, 1, 2])))]
    if command == "sample" and draw(st.booleans()):
        flags.append("--trajectories")
    if command == "sweep":
        for flag in ("--gammas", "--deltas", "--rhos"):
            flags.append(f"{flag}={draw(GRIDS)}")
    if command == "info":
        flags += [f"--lambdas={draw(GRIDS)}",
                  "--mc-n", str(draw(sizes([100, 150], [-1, 0, 99])))]
        if draw(st.booleans()):
            flags.append("--kong")
    # schedules and snrspace draw nothing and take neither --threads nor --seed
    seeded = command not in ("schedules", "snrspace")
    if seeded and draw(st.booleans()):
        flags += ["--threads", str(draw(st.sampled_from([-1, 0, 1, 2])))]
    if seeded and draw(st.booleans()):
        flags += ["--seed", str(draw(st.sampled_from([-5, 0, 3, 2**70])))]
    if draw(st.booleans()):
        flags += ["--schedule", draw(mostly(["VP", "FM_OT"], ["bogus"]))]
    return flags


def run_cli(argv) -> tuple[int, str]:
    """``main(argv)`` as a process would run it: (exit code, stderr).  An
    exception escaping ``main`` is what a process prints as a traceback;
    warnings are recorded, not raised, as they are outside pytest."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects a flag
            rc = exc.code
        except Exception:
            traceback.print_exc(file=err)
            rc = 1
    return rc, err.getvalue()


def assert_finite_outputs(out: Path) -> None:
    """Every number in the files of ``out`` is finite; only report.json's
    ``gaussian_kl`` may be null."""
    for path in out.iterdir():
        if path.suffix == ".csv":
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.isfinite(table).all(), path.name
            continue

        def reject(constant):
            raise AssertionError(f"{path.name} holds {constant}")

        for key, value in json.loads(path.read_text(),
                                     parse_constant=reject).items():
            assert isinstance(value, (int, float)) and np.isfinite(value) \
                or (value is None and key == "gaussian_kl"), (path.name, key)


@settings(max_examples=200)
@given(fuzzed_config(), fuzzed_flags())
@example(EXACT_REFERENCE_GAMMA_MINUS_ONE, ["sample", "-n", "8"])
@example(GAUSS2D_CONFIG, ["sample", "-n", "2"])
@example(SINGULAR_GAUSS2D, ["sample", "-n", "8"])
@example(ZERO_COV, ["sample", "-n", "8"])
@example(ZERO_COV, ["sweep", "-n", "8", "--gammas", "1", "--deltas", "1"])
@example(HUGE_MEAN, HUGE_MEAN_RUNS[0])
@example(HUGE_MEAN, HUGE_MEAN_RUNS[1])
@example(HUGE_MEAN, HUGE_MEAN_RUNS[2])
@example(HUGE_ONE_MEAN, HUGE_ONE_MEAN_RUNS[0])
@example(HUGE_ONE_MEAN, HUGE_ONE_MEAN_RUNS[1])
@example(THREE_AXIS_MEANS, ["sample", "-n", "8"])
@example(THREE_AXIS_MEANS, ["info"])
@example(ZERO_DIM_MIXTURE, ["sample", "-n", "8"])
@example(ZERO_DIM_MIXTURE, ["info"])
@example(UNIT_CONFIG, ["info", "--lambdas=1,nan", "--kong"])
@example(UNIT_CONFIG, ["info", "--lambdas=1e400"])
@example(MIXTURE_1D, OVERSIZED_RUNS[0])
@example(MIXTURE_1D, OVERSIZED_RUNS[1])
@example(MIXTURE_1D, OVERSIZED_RUNS[2])
@example(MIXTURE_16D, OVERSIZED_RUNS[3])
@example(MIXTURE_1D, OVERSIZED_RUNS[4])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[0])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[1])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[2])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[3])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[4])
@example(UNIT_CONFIG, OVERSIZED_GRIDS[5])
@example(OVERSIZED_STEPS, ["sample", "-n", "8"])
@example(OVERSIZED_SUBSTEPS, ["sample", "-n", "8"])
@example(UNIT_CONFIG, ROUNDED_UP_GRID)
@example(ROUNDED_UP_STEPS, ["sample", "-n", "8"])
def test_fuzzed_runs_keep_the_exit_code_contract(cfg, flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        rc, err = run_cli(flags + ["--config", str(path), "--out", str(out)])
        assert "Traceback" not in err, err
        assert rc in (0, 2, 3), err
        if rc != 0:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert not out.exists() or not any(out.iterdir())
        else:
            assert_finite_outputs(out)


@st.composite
def huge_size_runs(draw):
    """(config, flags): a valid run that must allocate a huge count given
    through one of the six size options."""
    size = draw(st.sampled_from(HUGE_SIZES))
    option = draw(st.sampled_from(["--grid", "count", "steps", "substeps",
                                   "-n", "--mc-n"]))
    mixtures = [GMM2D_CONFIG, MIXTURE_1D]
    cfg = copy.deepcopy(draw(st.sampled_from(
        mixtures if option == "--mc-n" else [UNIT_CONFIG, *mixtures])))
    one_cell = ["--gammas", "1", "--deltas", "1"]
    if option == "--grid":
        flags = [draw(st.sampled_from(["schedules", "snrspace"])), "--grid",
                 str(size)]
    elif option == "count":
        flag = draw(st.sampled_from(["--gammas", "--deltas", "--rhos",
                                     "--lambdas"]))
        flags = (["info"] if flag == "--lambdas" else ["sweep", "-n", "8"])
        flags.append(f"{flag}=0:1:{size}")
    elif option == "--mc-n":
        flags = ["info", "--mc-n", str(size)]
    else:
        # sweep runs generalized cells, so only sample reaches substeps
        command = draw(st.sampled_from(
            ["sample"] if option == "substeps" else ["sample", "sweep"]))
        flags = [command, "-n", "8"] + (one_cell if command == "sweep"
                                        else [])
        if option == "-n":
            flags[2] = str(size)
        else:
            cfg["sampler"][option] = size
            if option == "substeps":
                cfg["sampler"]["kind"] = "exact_reference"
    if flags[0] == "sample" and draw(st.booleans()):
        flags.append("--trajectories")
    if option == "--grid":  # schedules and snrspace take no --threads
        return cfg, flags
    return cfg, flags + ["--threads", str(draw(st.sampled_from([1, 2])))]


@settings(max_examples=60)
@given(huge_size_runs())
def test_huge_size_exits_2_with_one_line(run):
    cfg, flags = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        rc, err = run_cli(flags + ["--config", str(path), "--out", str(out)])
        assert rc == 2, err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_node_cap_is_the_largest_count_linspace_accepts():
    # at the cap numpy only fails to allocate (exit 2 through the
    # MemoryError line); one past it, np.linspace rounds the count up to
    # more values than numpy can index
    with pytest.raises(MemoryError):
        np.linspace(0.0, 1.0, cli._MAX_COUNT)
    with pytest.raises(ValueError, match="array is too big"):
        np.linspace(0.0, 1.0, cli._MAX_COUNT + 1)
    assert cli._MAX_COUNT <= np.iinfo(np.intp).max // 8


# (keywords, limit): the largest count the size rule passes is the largest n
# with (n + extra) * width <= 2**60 - 65; least, width and extra default to
# 1, 1 and 0
COUNT_RULES = [({}, 1152921504606846911),
               ({"least": 2}, 1152921504606846911),
               ({"least": 100}, 1152921504606846911),
               ({"extra": 1}, 1152921504606846910),
               ({"least": 2, "width": 55}, 20962209174669943),
               ({"least": 2, "width": 25}, 46116860184273876),
               ({"width": 16, "extra": 1}, 72057594037927930)]


@pytest.mark.parametrize("keywords,limit", COUNT_RULES)
def test_count_passes_least_to_limit(keywords, limit):
    least, width, extra = (keywords.get(k, v) for k, v in
                           (("least", 1), ("width", 1), ("extra", 0)))
    assert (limit + extra) * width <= cli._MAX_COUNT
    assert (limit + 1 + extra) * width > cli._MAX_COUNT
    for n in (least, limit):
        assert cli._count("opt", n, **keywords) == n
    with pytest.raises(snrdiff.ConfigError) as low:
        cli._count("opt", least - 1, **keywords)
    assert str(low.value) == f"opt must be >= {least}, got {least - 1}"
    with pytest.raises(snrdiff.ConfigError) as high:
        cli._count("opt", limit + 1, **keywords)
    assert str(high.value) == (f"opt must be at most {limit}, got {limit + 1}"
                               + PAST_LIMIT)


# runs given the size rule's limit + 1 for each of the six size options, -n
# at three widths: (config, flags, option, limit)
CAP = 1152921504606846911
LIMIT_RUNS = [
    (UNIT_CONFIG, ["schedules", "--grid", str(CAP + 1)], "--grid", CAP),
    (UNIT_CONFIG, ["snrspace", "--grid", str(CAP + 1)], "--grid", CAP),
    (UNIT_CONFIG, ["sweep", "-n", "8", f"--rhos=0:1:{CAP + 1}"],
     "rho grid count", CAP),
    (UNIT_CONFIG, ["info", f"--lambdas=-1:1:{CAP + 1}"], "lambda grid count",
     CAP),
    ({**UNIT_CONFIG, "sampler": {**UNIT_CONFIG["sampler"], "steps": CAP}},
     ["sample", "-n", "8"], "sampler steps", CAP - 1),
    ({**UNIT_CONFIG, "sampler": {"kind": "exact_reference", "steps": 3,
                                 "substeps": CAP, "seed": 7}},
     ["sample", "-n", "8"], "sampler substeps", CAP - 1),
    (UNIT_CONFIG, ["sample", "-n", str(CAP + 1)], "-n", CAP),
    (MIXTURE_16D, ["sample", "-n", str(CAP // 400 + 1), "--trajectories"],
     "-n", CAP // 400),
    (MIXTURE_1D, ["sweep", "-n", str(CAP // 55 + 1)], "-n", CAP // 55),
    (MIXTURE_1D, ["info", "--mc-n", str(CAP + 1)], "--mc-n", CAP),
]


@pytest.mark.parametrize("cfg,flags,option,limit", LIMIT_RUNS)
def test_limit_plus_one_exits_2_before_allocating(tmp_path, cfg, flags,
                                                  option, limit):
    out = tmp_path / "out"
    rc, err = run_cli(flags + ["--config", write_config(tmp_path, cfg),
                               "--out", str(out)])
    assert (rc, err) == (2, f"config error: {option} must be at most {limit}, "
                            f"got {limit + 1}{PAST_LIMIT}\n")
    assert not out.exists()


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 8.00 EiB"),
     "config error: out of memory: Unable to allocate 8.00 EiB\n"),
    # Python objects, not a numpy array, running out of memory
    (MemoryError(), "config error: out of memory\n"),
])
def test_memory_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys,
                                            exc, line):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_schedules", exhausted)
    assert main(["schedules", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == line


# -- the argument parser -------------------------------------------------------

def all_parsers(parser):
    """The top parser and every subcommand's, by command ("" for the top)."""
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    return {"": parser, **sub.choices}


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_is_argparse_default_help(monkeypatch, capsys, columns):
    monkeypatch.setenv("COLUMNS", columns)
    for command, parser in all_parsers(cli.build_parser()).items():
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"] if command else ["--help"])
        assert exit_.value.code == 0
        got = capsys.readouterr().out
        # argparse's own formatter asks the terminal on every use
        parser.formatter_class = argparse.HelpFormatter
        assert got == parser.format_help(), command


@pytest.mark.parametrize("command", ["schedules", "snrspace"])
@pytest.mark.parametrize("flag", ["--seed", "--threads"])
def test_commands_that_draw_nothing_reject_seed_and_threads(tmp_path, capsys,
                                                             command, flag):
    with pytest.raises(SystemExit) as exit_:
        main([command, flag, "1", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["sample", "sweep", "info"])
def test_drawing_commands_take_seed_and_threads_in_place(command):
    parser = all_parsers(cli.build_parser())[command]
    args = parser.parse_args(["--seed", "3", "--threads", "2"])
    assert (args.seed, args.threads) == (3, 2)
    assert [a.option_strings[0] for a in parser._actions[:6]] == [
        "-h", "--config", "--seed", "--out", "--threads", "--schedule"]


def test_build_parser_asks_the_terminal_once(monkeypatch):
    calls = []
    size = shutil.get_terminal_size

    def counted(*args):
        calls.append(args)
        return size(*args)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    cli.build_parser()
    assert len(calls) <= 1
