"""Online learning of mean-field two-layer networks on diffusion streams.

Simulation and analysis toolkit: streaming data generators, online noisy
particle gradient descent, equilibrium and hindsight benchmark solvers,
regret estimation, an offline full-batch baseline, closed-form constants
from the convergence analysis, and paired significance tests.

The names below are imported from their submodule on first access
(PEP 562), so ``import mfonline.cli`` loads only what the CLI uses.
"""

import importlib

# public name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {
    **dict.fromkeys(
        ("config", "Settings", "build_settings", "load_config", "parse_config"), "config"),
    **dict.fromkeys(
        ("datastream", "NonlinearTruthModel", "OuParams", "Trajectory", "euler_ou_path",
         "gen_nonlinear", "gen_periodic", "response_second_moment"), "datastream"),
    **dict.fromkeys(
        ("equilibrium", "QuadratureGrid", "RhoStarSolution", "WeightedMeasure",
         "draw_prior_samples", "quadrature_free_energy", "solve_mu_star",
         "solve_mu_star_quadrature", "solve_rho_star", "verify_dym_formula",
         "verify_gap_decomposition"), "equilibrium"),
    **dict.fromkeys(
        ("measures", "cost_u", "cost_u_unreg", "oos_mse", "predict", "second_moment"),
        "measures"),
    **dict.fromkeys(("network", "activations", "forward"), "network"),
    **dict.fromkeys(
        ("offline", "OfflineFitConfig", "batch_loss", "batch_loss_grad", "compare_oos",
         "fit_offline"), "offline"),
    **dict.fromkeys(
        ("onpgd", "OnpgdConfig", "init_ensemble", "run_online"), "onpgd"),
    **dict.fromkeys(
        ("regret", "RegretBundle", "RegretSeries", "cumulative_regret", "instantaneous_regret",
         "regret_run"), "regret"),
    **dict.fromkeys(("seeding", "substream"), "seeding"),
    **dict.fromkeys(
        ("stats", "PairedTestResult", "StatsSummary", "paired_tests", "summarize"), "stats"),
    **dict.fromkeys(
        ("theory", "BoundSpec", "TheoryConstants", "compute_constants"), "theory"),
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
