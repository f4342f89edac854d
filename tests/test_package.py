"""What a bare package import and the CLI load at start-up, and what the
package imports."""

import ast
import glob
import os
import subprocess
import sys

import mfonline
from mfonline.stats import paired_tests
from test_tracer import SMALL_CONFIG

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mfonline.__file__)))


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


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


def test_every_imported_name_is_read():
    # an import that nothing reads is a leftover of a deleted call
    unused = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(mfonline.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{os.path.basename(path)}:{line} {name}"
                   for name, line in sorted(imported.items()) if name not in read]
    assert unused == []
