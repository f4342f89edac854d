"""Regret of the online particle learner against benchmark measures.

Instantaneous regret at an evaluation time is the cost gap
U(ensemble, z) - U(benchmark, z); cumulative regret integrates it over the
horizon by the trapezoid rule on the evaluation subgrid.  Each cost is
priced from the measure's two moments (m, q), so the benchmarks enter only
through the moments their solvers report.  Two benchmarks:

* dynamic: the instantaneous equilibrium re-solved at each evaluation
  point's data (fresh prior samples per point, seeded by the point index);
* static: one hindsight measure solved from the whole training trajectory.

Both are Gibbs measures of the learner's own free energy, so their prior
N(0, (beta / lam) I_d) is taken from the learner's config.

Each gap comes in a regularized (penalty included on both sides) and an
unregularized variant.  Evaluation prices the pre-update ensemble moments
that the online pass records, on the subgrid {1, stride, 2 stride, ..., K},
so the first point is the untrained ensemble and cumulative regret starts
at zero there.
"""

from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    ConvergenceError,
    draw_prior_samples,
    solve_mu_star,
    solve_rho_star,
)
from .measures import cost_u, cost_u_unreg, oos_mse
from .onpgd import run_online
from .seeding import substream

N_IS = 20000  # prior network samples per benchmark solve, the is.n default
VARIANTS = ("regularized", "unregularized")
BENCHMARKS = ("dynamic", "static")


@dataclass
class RegretSeries:
    """Instantaneous and cumulative regret on an evaluation subgrid; its
    key in RegretBundle.series names the benchmark and the variant."""

    times: np.ndarray
    instantaneous: np.ndarray
    cumulative: np.ndarray


def instantaneous_regret(learner, bench, y, lam) -> tuple:
    """Cost gaps U(learner, z) - U(benchmark, z) at a point with response y,
    regularized and unregularized, from the two measures' (m, q) moments."""
    (m, q), (m_b, q_b) = learner, bench
    return (cost_u(m, q, y, lam) - cost_u(m_b, q_b, y, lam),
            cost_u_unreg(m, y) - cost_u_unreg(m_b, y))


def cumulative_regret(times, instantaneous) -> np.ndarray:
    """Running trapezoid integral of the instantaneous series; starts at 0."""
    times = np.asarray(times, dtype=float)
    vals = np.asarray(instantaneous, dtype=float)
    if times.shape != vals.shape or times.ndim != 1:
        raise ValueError("times and values must be matching vectors")
    if times.size and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    out = np.zeros_like(vals)
    if vals.size > 1:
        steps = np.diff(times) * 0.5 * (vals[1:] + vals[:-1])
        out[1:] = np.cumsum(steps)
    return out


def eval_indices(n_steps: int, stride: int) -> list:
    """Evaluation subgrid {1, stride, 2 stride, ...} plus the final step."""
    if stride < 1 or stride > n_steps:
        raise ValueError("stride must be in 1..K")
    ks = {1, n_steps}
    ks.update(range(stride, n_steps + 1, stride))
    return sorted(ks)


@dataclass
class RegretBundle:
    """All regret series for one training run, keyed (benchmark, variant),
    and the run's out-of-sample MSE on its test trajectory.  Every series
    shares the evaluation times dt * k on the subgrid, and the dynamic
    benchmark's ESS follows them."""

    series: dict
    mse: float
    rho_star: object  # the hindsight RhoStarSolution; None unless include_static
    mu_star_ess: list


def regret_run(train, test, onpgd_config, eval_stride: int, seed, *, n_is: int,
               include_static=False) -> RegretBundle:
    """Train online on ``train``, measure regret on the subgrid, and score
    the pre-update predictions on ``test``.

    seed is an integer; the learner and each benchmark draw from their
    own named substream of it.  Both benchmarks reweight n_is network
    samples (a, w, b) of the prior N(0, (beta / lam) I_d) of ``onpgd_config``.
    Dynamic benchmark: fresh prior samples are drawn per evaluation point
    from a substream keyed by the point's ordinal, so threading over trials
    or points cannot change results; each point is solved to MU_ROOT_TOL.
    Static benchmark (include_static) solves the hindsight measure once from
    its own substream.  Only the benchmarks solved get series.
    """
    lam = onpgd_config.lam
    beta = onpgd_config.beta
    prior_var = onpgd_config.prior_var()
    ks = eval_indices(train.n_steps, eval_stride)
    result = run_online(train, onpgd_config, substream(seed, "onpgd"), predict_xs=test.x)

    dim = train.x_dim + 2
    times = train.dt * np.asarray(ks, dtype=float)
    benchmarks = BENCHMARKS if include_static else ("dynamic",)
    inst = {(b, v): np.empty(len(ks)) for b in benchmarks for v in VARIANTS}
    mu_ess = []

    static_solution = None
    if include_static:
        rng = substream(seed, "static-benchmark")
        samples = draw_prior_samples(n_is, dim, prior_var, rng)
        try:
            static_solution = solve_rho_star(train, samples, beta)
        except ConvergenceError as exc:
            raise ConvergenceError(f"hindsight solve failed: {exc}",
                                   residual_trace=exc.residual_trace) from exc

    for j, k in enumerate(ks):
        y = float(train.y[k - 1])
        z = (train.x[k - 1], y)
        # the online pass recorded the pre-update moments at step k
        learner = (float(result.train_pred[k - 1]), float(result.train_q[k - 1]))
        rng = substream(seed, "dynamic-benchmark", j)
        samples = draw_prior_samples(n_is, dim, prior_var, rng)
        try:
            _, mu_hat = solve_mu_star(samples, z, beta)
        except ConvergenceError as exc:
            raise ConvergenceError(f"benchmark solve failed at subgrid index {j} (step {k}): {exc}") from exc
        mu_ess.append(mu_hat.ess())
        benches = [("dynamic", (mu_hat.m, mu_hat.q))]
        if include_static:
            rho = static_solution.measure
            benches.append(("static", (rho.m[k - 1], rho.q)))
        for b, moments in benches:
            inst[(b, "regularized")][j], inst[(b, "unregularized")][j] = \
                instantaneous_regret(learner, moments, y, lam)

    series = {key: RegretSeries(times=times, instantaneous=vals,
                                cumulative=cumulative_regret(times, vals))
              for key, vals in inst.items()}
    return RegretBundle(series=series, mse=oos_mse(result.extra_pred, test),
                        rho_star=static_solution, mu_star_ess=mu_ess)
