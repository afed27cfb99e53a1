import argparse
import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oscillab
from oscillab import analysis, cli, interval

PACKAGE = Path(oscillab.__file__).parent


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from oscillab import *", namespace)
    for name in oscillab.__all__:
        assert namespace[name] is getattr(oscillab, name)


def test_no_longdouble_in_package():
    # np.longdouble is float64 on some platforms; exact phases use integers
    named = [p.name for p in sorted(PACKAGE.rglob("*.py")) if "longdouble" in p.read_text()]
    assert named == []


def test_readme_layout_lists_every_module():
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = readme.split("```\nsrc/oscillab/\n", 1)[1].split("```", 1)[0]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    modules = [p.name for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__")]
    assert sorted(listed) == sorted(modules)


def saves_state_at_powers_of_two(loop: ast.For) -> bool:
    """Whether ``loop`` assigns twice its counter, as Brent's first-repeat check does."""
    counters = {node.id for node in ast.walk(loop.target) if isinstance(node, ast.Name)}
    for node in ast.walk(loop):
        if not isinstance(node, ast.Assign):
            continue
        for value in node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]:
            if (
                isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Mult, ast.LShift))
                and {type(value.left), type(value.right)} == {ast.Name, ast.Constant}
                and any(getattr(side, "id", None) in counters for side in (value.left, value.right))
            ):
                return True
    return False


def test_first_repeat_loop_only_in_flows():
    # flows.cycle_walk is the one first-repeat walk; a block kernel calls it
    walks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.For) and saves_state_at_powers_of_two(node)
    ]
    assert [walk.split(":")[0] for walk in walks] == ["flows.py"], walks


def test_one_block_size_in_package():
    # the observable stream and the weight builders share sequences' chunk
    assigned = [
        path.name
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id == "_BLOCK"
    ]
    assert assigned == ["sequences.py"]


def test_one_flow_stepping_loop():
    # Flow.block is a flow's one orbit: only flows._points steps a flow
    # built without one
    loads = [
        (path.name, getattr(statement, "name", None))
        for path in (PACKAGE / "flows.py", PACKAGE / "analysis.py")
        for statement in ast.parse(path.read_text()).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "step"
        and isinstance(node.ctx, ast.Load)
    ]
    assert loads == [("flows.py", "_points")]


def test_one_sieve_for_the_arithmetic_weights():
    # mobius, liouville and their streamed weights all read the one
    # segmented sieve
    callers = sorted(
        statement.name
        for statement in ast.parse((PACKAGE / "sequences.py").read_text()).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_prime_sieve"
    )
    assert callers == ["_mobius_segments"]


def test_src_holds_what_its_callers_reach():
    # a top-level name that no other src statement loads, that is not in
    # __all__ and that no bench script names is reached only from tests;
    # cmd_* are loaded by name in cli.main
    defined, loaded = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for statement in ast.parse(path.read_text()).body:
            own = getattr(statement, "name", None)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append(own)
            for node in ast.walk(statement):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(getattr(node, "ctx", None), ast.Load) and name != own:
                    loaded.add(name)
    bench = " ".join(p.read_text() for p in (PACKAGE.parents[1] / "bench").glob("*.py"))
    unreached = sorted(
        name
        for name in defined
        if name not in loaded
        and name not in oscillab.__all__
        and not name.startswith("cmd_")
        and not re.search(rf"\b{name}\b", bench)
    )
    assert unreached == [
        "basin_probe",  # the quadratic family's mean-attraction probe (the Feigenbaum case)
        "load_denjoy",  # reads back the Denjoy gap table that `oscillab denjoy` writes
        "symbolic_lambda_orbit",  # the symbolic iteration the README advertises
    ]


@pytest.mark.parametrize(
    "function, parameters",
    [
        (analysis.mls_bad_density, ["flow", "x", "y", "eps", "n_steps"]),
        (analysis.shadow_periodic, ["flow", "x", "eps", "horizon"]),
        (interval.basin_probe, ["t", "x", "n_steps"]),
        (
            analysis.hooked_disjointness,
            ["weights", "flow", "observable", "start", "support_atoms", "checkpoints"],
        ),
    ],
)
def test_probes_take_no_setting_that_no_caller_sets(function, parameters):
    # a value that every caller leaves at its default is a constant
    assert list(inspect.signature(function).parameters) == parameters


def test_cli_reports_failures_only_in_main():
    # cli.main is the one error boundary; cmd_run's one try records each
    # failing experiment in the manifest and runs the rest
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    tries = {
        node.name: sum(isinstance(inner, ast.Try) for inner in ast.walk(node))
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    assert tries.pop("cmd_run") <= 1
    assert tries and not any(tries.values()), tries


def test_subcommands_name_their_cmd_functions():
    # cli.main runs subcommand a-b as cmd_a_b, looked up by name at call time
    actions = cli.build_parser()._actions
    (subparsers,) = (action for action in actions if isinstance(action, argparse._SubParsersAction))
    commands = sorted("cmd_" + name.replace("-", "_") for name in subparsers.choices)
    assert commands == sorted(name for name in vars(cli) if name.startswith("cmd_"))


def test_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = sorted(imported - set(sys.stdlib_module_names))
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())
    declared = sorted(re.match(r"[\w.-]+", dep)[0] for dep in pyproject["project"]["dependencies"])
    assert third_party == declared


def run_fresh(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports this package."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    code = "import sys, oscillab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert run_fresh(code) == "[]"


def test_cli_import_loads_no_numpy_ma():
    code = "import sys, oscillab.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))"
    assert run_fresh(code) == "[]"


LATE_NUMPY_IMPORTS = """
import sys
from importlib import resources
from oscillab import cli, sequences

loaded = set(sys.modules)
for entry in sorted(resources.files("oscillab").joinpath("configs").iterdir()):
    if entry.name.endswith(".cfg"):
        for cfg in cli.parse_config(str(entry)):
            cli.run_experiment(cfg, sys.argv[1])
weights = sequences.mobius_sequence(1000)
sequences.zero_set_scan(weights)
sequences.cesaro_mean(weights, 0.25)
sequences.quadratic_rational_spectrum(1, 12)
print(sorted(m for m in sys.modules if m.startswith("numpy.") and m not in loaded))
"""


def test_calls_import_no_numpy_submodule(tmp_path):
    # a numpy submodule first reached inside a call would be timed with it
    assert run_fresh(LATE_NUMPY_IMPORTS, str(tmp_path)) == "[]"


PARSER_BUILDS = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__

def count(parser, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(parser, *args, **kwargs)

argparse.ArgumentParser.__init__ = count
from oscillab import cli

at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()):
    for _ in range(5):
        assert cli.main(["list"]) == 0
print(at_import, built.count("oscillab"), len(built) == len(set(built)))
"""


def test_main_builds_the_parser_once_per_process():
    # none at import, which is set-up time, and then one shared by every call
    assert run_fresh(PARSER_BUILDS) == "0 1 True"
