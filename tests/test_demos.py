"""Smoke test of the demo scripts: each runs to completion against ./src.

Demo 02 runs eight offline fits, so it is left to be run by hand.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", [
    "01_data_streams.py", "03_equilibrium_solvers.py", "04_regret_dynamics.py",
    "05_theory_constants.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
