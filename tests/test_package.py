"""The package namespace: lazy exports and what the CLI imports at start-up."""

import os
import subprocess
import sys
import types

import pytest

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
    code = ("import sys, mfonline.cli, mfonline.experiments\n"
            "print(mfonline.cli.__file__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    module_file, loaded = _fresh_interpreter(code)
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


# the package's public names: every submodule but cli and experiments,
# and the main entry points of each
EXPORTS = """
    BoundSpec NonlinearTruthModel OfflineFitConfig OnpgdConfig
    OuParams PairedTestResult QuadratureGrid RegretBundle
    RegretSeries RhoStarSolution Settings StatsSummary TheoryConstants Trajectory
    WeightedMeasure activations batch_loss batch_loss_grad build_settings
    compare_oos compute_constants config cost_u cost_u_unreg cumulative_regret datastream
    draw_prior_samples equilibrium euler_ou_path fit_offline forward gen_nonlinear
    gen_periodic init_ensemble instantaneous_regret load_config measures network offline
    onpgd oos_mse paired_tests parse_config predict quadrature_free_energy regret
    regret_run response_second_moment run_online second_moment seeding solve_mu_star
    solve_mu_star_quadrature solve_rho_star stats substream summarize theory
    verify_dym_formula verify_gap_decomposition
""".split()


def test_every_exported_name_resolves_and_is_listed():
    assert mfonline.__all__ == EXPORTS
    listed = dir(mfonline)
    for name in mfonline.__all__:
        value = getattr(mfonline, name)
        assert name in listed
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"mfonline.{name}"
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    from mfonline.onpgd import run_online

    assert mfonline.run_online is run_online


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        mfonline.no_such_name
    assert not hasattr(mfonline, "cli_main")
