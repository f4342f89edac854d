"""The benchmark's tracer still wraps the package's layer boundaries.

perfbench/tracer.py replaces functions by name (``fit_offline``,
``solve_rho_star``, ...) and reads some of their arguments by position
(``fit_offline``'s config is its second).  A rename or a reordered
signature makes the traced run fail; these tiny runs catch that here.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_CONFIG = """
data.n_steps = 60
onpgd.n = 8
is.n = 600
offline.iters = 30
regret.stride = 20
"""


@pytest.mark.parametrize("args, counts", [
    (["oos-compare", "--scenario", "periodic", "--trials", "2"],
     # one fit per trial, and iters + 1 losses and iters gradients per fit
     {"offline.fit": 2, "offline.batch_loss": 62, "offline.batch_loss_grad": 60}),
    (["regret-sweep", "--static", "--scenario", "periodic", "--trials", "2"],
     {"regret.regret_run": 2, "equilibrium.rho_star": 2}),
], ids=["oos-compare", "regret-sweep-static"])
def test_traced_run_exits_zero(tmp_path, args, counts):
    config = tmp_path / "small.cfg"
    config.write_text(SMALL_CONFIG)
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), str(spans), "--",
         *args, "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(spans) as fh:
        dump = json.load(fh)
    assert dump["rc"] == 0
    assert {name: dump["counts"].get(name) for name in counts} == counts
