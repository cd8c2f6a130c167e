"""The names the benchmark under ``bench/`` takes from ``snrdiff``.

The benchmark is kept fixed, so a change that removes or renames a name it
uses would otherwise show only when the benchmark runs.  These tests read
``bench/*.py`` as source and import nothing from there.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def parsed(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text(), filename=name)


def assigned(tree: ast.Module, target: str) -> ast.expr:
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == target for t in node.targets))


def snrdiff_imports():
    """(file, module, name) of every ``from snrdiff... import name`` and
    (file, module, None) of every ``import snrdiff...``."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(parsed(path.name)):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "snrdiff":
                yield from ((path.name, node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, a.name, None) for a in node.names
                            if a.name.split(".")[0] == "snrdiff")


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` finds an attribute or a
    submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


IMPORTS = list(snrdiff_imports())


def test_bench_imports_something():
    assert any(name for _, _, name in IMPORTS)


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{f}:{m}" + (f".{n}" if n else "")
                              for f, m, n in IMPORTS])
def test_bench_import_resolves(where, module, name):
    if name is None:
        importlib.import_module(module)
    else:
        assert resolves(module, name), f"{where}: from {module} import {name}"


def test_selftest_bindings_exist():
    pairs = ast.literal_eval(assigned(parsed("selftest.py"), "BY_NAME_IMPORTS"))
    missing = [f"{m}.{a}" for m, a in pairs
               if not hasattr(importlib.import_module(f"snrdiff.{m}"), a)]
    assert not missing
    samplers = importlib.import_module("snrdiff.samplers")
    assert samplers._MUTATE_FLIP_EPS_BRACKET is False


def test_tracer_step_names_exist():
    # the tracer counts calls of these as samplers.step.calls
    call = assigned(parsed("tracing.py"), "STEP_NAMES")
    names = ast.literal_eval(call.args[0])
    missing = [n for n in names if not hasattr(
        importlib.import_module(f"snrdiff.{n.split('.')[0]}"), n.split(".")[1])]
    assert names and not missing


def counter_reads():
    """(span name, function, index, name) of every ``_arg(args, kwargs,
    index, name)`` a counter of tracing.py's ``WORK`` makes."""
    tree = parsed("tracing.py")
    counters = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}
    work = assigned(tree, "WORK")
    for key, value in zip(work.keys, work.values):
        for node in ast.walk(counters[value.id]):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "_arg":
                index, name = (ast.literal_eval(a) for a in node.args[2:])
                yield key.value, value.id, index, name


READS = list(counter_reads())


def test_tracer_counters_read_arguments():
    assert {span for span, *_ in READS} == {
        "gmm.exact_score", "gmm.posterior_mean", "metrics.energy_distance",
        "rng.row_normals"}


@pytest.mark.parametrize("span,counter,index,name", READS,
                         ids=[f"{s}:{n}" for s, _, _, n in READS])
def test_tracer_counter_reads_the_named_parameter(span, counter, index, name):
    # a counter reads an argument by position, or by name when it was
    # passed by keyword: both must name the same parameter, or the bench's
    # work counts go wrong without an error
    module, attr = span.split(".")
    params = list(inspect.signature(getattr(
        importlib.import_module(f"snrdiff.{module}"), attr)).parameters)
    assert params[index] == name, (counter, params)
