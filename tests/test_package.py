"""The package namespace: lazy exports and what the CLI imports at start-up."""

import os
import subprocess
import sys
import types

import pytest

import mfonline

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mfonline.__file__)))


def test_cli_start_up_leaves_scipy_stats_and_optimize_unloaded():
    code = ("import sys, mfonline.cli, mfonline.experiments\n"
            "print(mfonline.cli.__file__)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'stats'], ['scipy', 'optimize'])))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    module_file, loaded = proc.stdout.splitlines()
    assert module_file.startswith(SRC + os.sep)
    assert loaded == "[]"


# the package's public names: every submodule but cli and experiments,
# and the main entry points of each
EXPORTS = """
    BoundSpec IsSolverConfig NonlinearConfig NonlinearTruthModel OfflineFitConfig OnpgdConfig
    OuParams PairedTestResult ParticleEnsemble PeriodicConfig QuadratureGrid RegretBundle
    RegretSeries RhoStarSolution Settings StatsSummary TheoryConstants Trajectory
    WeightedMeasure batch_loss batch_loss_grad build_settings check_empirical_moment_bound
    compare_oos compute_constants config cost_u cost_u_unreg cumulative_regret datastream
    draw_prior_samples equilibrium euler_ou_path fit_offline forward gen_nonlinear
    gen_periodic init_ensemble instantaneous_regret load_config measures network offline
    onpgd oos_mse paired_tests parse_config phi_hat predict quadrature_free_energy regret
    regret_run response_second_moment run_online second_moment seeding solve_mu_star
    solve_mu_star_quadrature solve_rho_star stats step substream summarize theory
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
