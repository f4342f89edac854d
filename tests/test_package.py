"""What a bare package import and the CLI load at start-up, and what the
package imports."""

import ast
import glob
import json
import os
import runpy
import subprocess
import sys

import mfonline
from mfonline.datastream import DT, N_STEPS
from mfonline.equilibrium import MU_ROOT_TOL, RHO_TOL
from mfonline.stats import paired_tests
from test_tracer import SMALL_CONFIG

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mfonline.__file__)))
PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


def test_readme_library_quick_start_runs():
    # the README's one Python block, run as a reader would paste it
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        readme = fh.read()
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    [line] = _fresh_interpreter(code)
    mse_online, mse_offline = map(float, line.split())
    assert mse_online > 0 and mse_offline > 0


def test_cli_start_up_leaves_scipy_unloaded():
    code = ("import sys, mfonline\n"
            "print(sorted(m for m in sys.modules if m.startswith('mfonline.')))\n"
            "import mfonline.cli, mfonline.experiments\n"
            "print(mfonline.cli.__file__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    bare, module_file, loaded = _fresh_interpreter(code)
    assert bare == "[]"  # a bare package import loads no submodule
    assert module_file.startswith(SRC + os.sep)
    assert loaded == "[]"


def test_static_regret_sweep_leaves_scipy_unloaded(tmp_path):
    # the hindsight solve imports no scipy.optimize, whose import alone
    # costs about half a second
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    argv = ["regret-sweep", "--static", "--scenario", "periodic", "--trials", "2",
            "--config", str(config), "--out", str(tmp_path / "out")]
    code = ("import sys, mfonline.cli\n"
            f"rc = mfonline.cli.main({argv!r})\n"
            "print(rc)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    rc, loaded = _fresh_interpreter(code)[-2:]
    assert (rc, loaded) == ("0", "[]")


A = [1.0, 2.5, 0.3, 4.0, 2.2, 1.1, 0.7]
B = [0.5, 2.0, 0.9, 3.0, 1.0, 1.4, 0.1]


def test_paired_tests_loads_scipy_special_at_six_pairs():
    # fewer than 6 pairs are rejected before scipy.special is needed
    code = ("import sys\n"
            "from mfonline.stats import paired_tests\n"
            "try:\n"
            "    paired_tests([1.0] * 5, [0.0] * 5)\n"
            "except ValueError:\n"
            "    pass\n"
            "print('scipy.special' in sys.modules)\n"
            f"r = paired_tests({A}, {B})\n"
            "print('scipy.special' in sys.modules)\n"
            "print(repr(r))\n")
    before, after, result = _fresh_interpreter(code)
    assert (before, after) == ("False", "True")
    assert result == repr(paired_tests(A, B))


def _package_trees():
    """{file name: parsed module} of every module of the package."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(os.path.dirname(mfonline.__file__), "*.py"))):
        with open(path) as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read())
    return trees


def test_every_imported_name_is_read():
    # an import that nothing reads is a leftover of a deleted call
    unused = []
    for module, tree in _package_trees().items():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}:{line} {name}"
                   for name, line in sorted(imported.items()) if name not in read]
    assert unused == []


def test_every_defined_name_is_read():
    # a top-level function or class that nothing in the package reads, by
    # name or as an attribute, is kept for the tests alone
    trees = _package_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = [f"{module}:{node.lineno} {node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]
    assert unread == []


def test_every_setting_is_read():
    # a Settings field that no code reads as an attribute is a knob that no
    # run turns; Settings.__post_init__, which checks every field, does not
    # count as a reader
    trees = _package_trees()
    settings = next(node for node in trees["config.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "Settings")
    checks = next(node for node in settings.body
                  if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
    skipped = {id(node) for node in ast.walk(checks)}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in skipped}
    fields = [node.target.id for node in settings.body if isinstance(node, ast.AnnAssign)]
    assert fields and [name for name in fields if name not in read] == []


def test_no_setting_comes_from_the_environment():
    # a setting's only sources are its default, the config file and its
    # flag, so no module reads os.environ or calls os.getenv
    reads = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in reads
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{module}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{module}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in reads]
    assert found == []


def _perfbench(name):
    """The namespace of perfbench/<name>.py, run from its source: runpy
    writes no bytecode for it, and the modules it imports from perfbench/
    are loaded with bytecode writing off and dropped afterwards."""
    path, dont_write = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, PERFBENCH)
    sys.dont_write_bytecode = True
    try:
        return runpy.run_path(os.path.join(PERFBENCH, name + ".py"))
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
        for module in ("gate", "tracer"):
            sys.modules.pop(module, None)


def test_benchmark_gate_restates_the_solver_tolerances_and_horizon():
    # perfbench/gate.py derives every regret tolerance from these three
    # values; it is read from its source
    gate = _perfbench("gate")
    assert gate["MU_ROOT_TOL"] == MU_ROOT_TOL
    assert gate["RHO_TOL"] == RHO_TOL
    assert gate["HORIZON"] == N_STEPS * DT


def test_benchmark_workloads_pass_the_gate_at_seed_one(tmp_path):
    # each workload of BENCHMARK.json at CLI seed 1, gated against the
    # stored reference as perfbench/run.py gates it: an output that moved
    # beyond the gate's tolerance fails here before it fails the benchmark
    with open(os.path.join(os.path.dirname(SRC), "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    run = _perfbench("run")
    check, reference = run["gate"].check, run["load_reference"]()
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = {}
    for name in names:
        spec = run["WORKLOADS"][name]
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "mfonline.cli", *spec["args"], "--seed", "1",
                               "--out", str(out), "--experiment", "bench"],
                              env=env, capture_output=True, timeout=300)
        result = check(spec, str(out / "bench"), proc.returncode, reference[name]["1"])
        assert result["attempted"] > 0
        if result["failed"]:
            failed[name] = result["problems"]
    assert failed == {}
