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


def snrdiff_calls():
    """(file, line, module, attribute, positional count, keyword names,
    unpacks) of every call in ``bench/*.py`` to a name imported from
    ``snrdiff``, or to an attribute of an imported ``snrdiff`` module such
    as ``cli.main``; ``unpacks`` is set for a ``*args`` or ``**kwargs``."""
    for path in sorted(BENCH.glob("*.py")):
        tree = parsed(path.name)
        # local name -> (module, attribute), and local name -> module name
        names, modules = {}, {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "snrdiff":
                for a in node.names:
                    local = a.asname or a.name
                    found = getattr(importlib.import_module(node.module),
                                    a.name, None)
                    if found is None or inspect.ismodule(found):
                        modules[local] = f"{node.module}.{a.name}"
                    else:
                        names[local] = (node.module, a.name)
            elif isinstance(node, ast.Import):
                modules.update((a.asname or a.name.split(".")[0],
                                a.name if a.asname else a.name.split(".")[0])
                               for a in node.names
                               if a.name.split(".")[0] == "snrdiff")
        for node in ast.walk(tree):
            f = getattr(node, "func", None)
            if isinstance(f, ast.Name) and f.id in names:
                module, attr = names[f.id]
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                    and f.value.id in modules:
                module, attr = modules[f.value.id], f.attr
            else:
                continue
            yield (path.name, node.lineno, module, attr, len(node.args),
                   [k.arg for k in node.keywords],
                   any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))


CALLS = list(snrdiff_calls())


def test_bench_calls_something():
    callees = {f"{m}.{a}" for _, _, m, a, *_ in CALLS}
    assert {"snrdiff.cli.main", "snrdiff.infotheory.mmse_mc"} <= callees


@pytest.mark.parametrize("where,line,module,attr,n_args,keywords,unpacks",
                         CALLS, ids=[f"{f}:{n}:{m}.{a}"
                                     for f, n, m, a, *_ in CALLS])
def test_bench_call_binds(where, line, module, attr, n_args, keywords,
                          unpacks):
    # the benchmark calls these with the argument counts and keyword names
    # read here, so a changed signature fails here and not in the benchmark
    assert not unpacks, f"{where}:{line}: cannot check an unpacked call"
    fn = getattr(importlib.import_module(module), attr)
    inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))


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
