"""Online learning of mean-field two-layer networks on diffusion streams.

Simulation and analysis toolkit: streaming data generators, online noisy
particle gradient descent, equilibrium and hindsight benchmark solvers,
regret estimation, an offline full-batch baseline, closed-form constants
from the convergence analysis, and paired significance tests.
"""

from .datastream import (
    NonlinearConfig,
    NonlinearTruthModel,
    OuParams,
    PeriodicConfig,
    Trajectory,
    euler_ou_path,
    gen_nonlinear,
    gen_periodic,
    response_second_moment,
)
from .equilibrium import (
    IsSolverConfig,
    QuadratureGrid,
    RhoStarSolution,
    draw_prior_samples,
    phi_hat,
    quadrature_free_energy,
    solve_mu_star,
    solve_mu_star_quadrature,
    solve_rho_star,
    verify_dym_formula,
    verify_gap_decomposition,
)
from .config import Settings, build_settings, load_config, parse_config
from .measures import WeightedMeasure, cost_u, cost_u_unreg, oos_mse, predict, second_moment
from .network import forward
from .offline import OfflineFitConfig, batch_loss, batch_loss_grad, compare_oos, fit_offline
from .onpgd import OnpgdConfig, ParticleEnsemble, init_ensemble, run_online, step
from .regret import RegretBundle, RegretSeries, cumulative_regret, instantaneous_regret, regret_run
from .seeding import substream
from .stats import PairedTestResult, StatsSummary, paired_tests, summarize
from .theory import BoundSpec, TheoryConstants, check_empirical_moment_bound, compute_constants

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
