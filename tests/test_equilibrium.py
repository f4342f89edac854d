import numpy as np
import pytest

from mfonline.datastream import NonlinearConfig, PeriodicConfig, Trajectory, gen_nonlinear, gen_periodic
from mfonline.equilibrium import (
    BracketError,
    ConvergenceError,
    GridTooNarrowError,
    IsSolverConfig,
    QuadratureGrid,
    _bisect_fixed_point,
    default_sigma_fn,
    draw_prior_samples,
    importance_weights,
    phi_hat,
    quadrature_free_energy,
    solve_mu_star,
    solve_mu_star_quadrature,
    solve_rho_star,
    verify_dym_formula,
    verify_gap_decomposition,
)
from mfonline.seeding import substream
from rho_oracle import damped_rho_star

GRID = QuadratureGrid(lo=-8.0, hi=8.0, n_points=2001)


def test_importance_weights_normalized():
    w = importance_weights([0.3, -1.2, 2.0, 0.0])
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.all(w > 0)


def test_importance_weights_huge_exponents_stable():
    # max-shift must prevent overflow for exponents around +-1e5
    w = importance_weights([1e5, 1e5])
    assert np.allclose(w, [0.5, 0.5])
    w = importance_weights([-1e5, 0.0, -1e5])
    assert abs(w[1] - 1.0) < 1e-14


def test_draw_prior_samples_moments():
    rng = substream(5, "prior")
    s = draw_prior_samples(100_000, 3, 0.2, rng)
    assert s.shape == (100_000, 3)
    assert np.all(np.abs(s.var(axis=0) - 0.2) < 0.2 * 0.02)
    assert np.all(np.abs(s.mean(axis=0)) < 0.01)


def test_default_sigma_fn_dims():
    th1 = np.array([[0.5], [-1.0]])
    vals = default_sigma_fn(2.0, th1)
    assert np.allclose(vals, np.tanh(2.0 * th1[:, 0]))

    th5 = substream(1, "t").standard_normal((4, 5))
    x = np.array([0.1, -0.2, 0.3])
    vals = default_sigma_fn(x, th5)
    assert vals.shape == (4,)

    with pytest.raises(ValueError):
        default_sigma_fn(1.0, np.ones((3, 2)))


def test_phi_hat_constant_sigma():
    # sigma == c for every sample makes the reweighted mean exactly c
    samples = np.zeros((50, 1))
    val = phi_hat(0.7, samples, (1.0, 0.2), beta=0.1,
                  sigma_fn=lambda x, s: np.full(len(s), 0.4))
    assert abs(val - 0.4) < 1e-14


def test_phi_hat_monotone_pairs():
    rng = substream(7, "pairs")
    samples = draw_prior_samples(5000, 1, 0.2, rng)
    z = (1.0, 0.3)
    for _ in range(200):
        m1, m2 = np.sort(rng.uniform(-1.5, 1.5, size=2))
        if m1 == m2:
            continue
        v1 = phi_hat(m1, samples, z, beta=0.02)
        v2 = phi_hat(m2, samples, z, beta=0.02)
        assert v2 <= v1 + 1e-12


def test_bisect_expansion():
    # root of 10 - m - m = 0 at m=5 lies far outside the seed bracket [0, 1]
    root = _bisect_fixed_point(lambda m: 10.0 - m, 0.0, 1.0, 1e-12, max_expansions=10)
    assert abs(root - 5.0) < 1e-10


def test_bisect_bracket_error():
    with pytest.raises(BracketError):
        _bisect_fixed_point(lambda m: 10.0 - m, 0.0, 1.0, 1e-12, max_expansions=0)


def test_solve_mu_star_fixed_point_residual():
    rng = substream(11, "mu")
    cfg = IsSolverConfig(prior_var=0.2, n_is=20000)
    samples = draw_prior_samples(cfg.n_is, 1, cfg.prior_var, rng)
    z = (1.2, 0.4)
    m_star, measure = solve_mu_star(samples, z, beta=0.02, config=cfg)
    # the returned measure reproduces the fixed point
    svals = np.tanh(1.2 * samples[:, 0])
    assert abs(float(measure.weights @ svals) - m_star) <= cfg.root_tol
    assert abs(measure.weights.sum() - 1.0) < 1e-12


def test_mu_star_quadrature_symmetry():
    # the tilted density maps theta -> -theta under y -> -y at x fixed
    m_pos, _ = solve_mu_star_quadrature((1.0, 0.5), 0.02, 0.1, GRID)
    m_neg, _ = solve_mu_star_quadrature((1.0, -0.5), 0.02, 0.1, GRID)
    assert abs(m_pos + m_neg) < 1e-9
    m_zero, _ = solve_mu_star_quadrature((1.0, 0.0), 0.02, 0.1, GRID)
    assert abs(m_zero) < 1e-10


def test_is_vs_quadrature_single_instance():
    z = (1.0, 0.3)
    beta, lam = 0.02, 0.1
    m_quad, _ = solve_mu_star_quadrature(z, beta, lam, GRID)
    cfg = IsSolverConfig(prior_var=beta / lam, n_is=100_000)
    samples = draw_prior_samples(cfg.n_is, 1, cfg.prior_var, substream(3, "cross"))
    m_is, _ = solve_mu_star(samples, z, beta, cfg)
    assert abs(m_is - m_quad) <= 3e-3


def test_grid_refinement_stability():
    z = (0.8, 0.25)
    g1 = QuadratureGrid(-8.0, 8.0, 2001)
    g2 = QuadratureGrid(-8.0, 8.0, 4001)
    m1, _ = solve_mu_star_quadrature(z, 0.02, 0.1, g1)
    m2, _ = solve_mu_star_quadrature(z, 0.02, 0.1, g2)
    assert abs(m1 - m2) < 1e-9


def test_grid_too_narrow():
    with pytest.raises(GridTooNarrowError):
        solve_mu_star_quadrature((1.0, 0.3), 0.02, 0.1, QuadratureGrid(-0.5, 0.5, 201))


def test_is_solver_config_validation():
    for bad in (dict(prior_var=0.0), dict(prior_var=np.nan), dict(prior_var=0.2, n_is=1),
                dict(prior_var=0.2, root_tol=0.0), dict(prior_var=0.2, root_tol=np.nan)):
        with pytest.raises(ValueError):
            IsSolverConfig(**bad)


def test_quadrature_grid_validation():
    with pytest.raises(ValueError):
        QuadratureGrid(1.0, -1.0, 201)
    with pytest.raises(ValueError):
        QuadratureGrid(-1.0, 1.0, 200)  # even
    with pytest.raises(ValueError):
        QuadratureGrid(-1.0, 1.0, 1)


def test_free_energy_uniform_density():
    # uniform 0.5 on [-1, 1] at x=0, lam=0: F = beta * log(1/2) exactly
    grid = QuadratureGrid(-1.0, 1.0, 2001)
    density = np.full(grid.n_points, 0.5)
    beta = 0.37
    f = quadrature_free_energy(density, (0.0, 0.9), beta, 0.0, grid)
    assert abs(f - beta * np.log(0.5)) < 1e-12


def test_free_energy_gaussian_entropy():
    # entropy integral of N(0, s^2) is -log(sqrt(2 pi e) s)
    s = 0.3
    grid = QuadratureGrid(-2.4, 2.4, 4001)
    q = np.exp(-grid.thetas**2 / (2 * s * s))
    density = q / grid.integrate(q)
    beta = 1.0
    f = quadrature_free_energy(density, (0.0, 0.0), beta, 0.0, grid)
    target = -0.5 * np.log(2 * np.pi * np.e * s * s)
    assert abs(f - target) < 1e-6


def test_free_energy_validation():
    grid = QuadratureGrid(-1.0, 1.0, 201)
    with pytest.raises(ValueError, match="nonnegative"):
        quadrature_free_energy(np.full(201, -0.5), (0.0, 0.0), 0.1, 0.1, grid)
    with pytest.raises(ValueError, match="normalized"):
        quadrature_free_energy(np.full(201, 2.0), (0.0, 0.0), 0.1, 0.1, grid)


def _perturbed_density(grid, z, beta, lam, rng):
    _, mu = solve_mu_star_quadrature(z, beta, lam, grid)
    bump = 0.3 * np.tanh(rng.normal() * grid.thetas) + 0.2 * np.sin(grid.thetas * rng.uniform(0.5, 2.0))
    rho = mu * np.exp(bump)
    return rho / grid.integrate(rho)


def test_gap_decomposition_cases():
    rng = substream(21, "gap")
    for z in ((1.0, 0.4), (0.6, -0.25)):
        rho = _perturbed_density(GRID, z, 0.02, 0.1, rng)
        rep = verify_gap_decomposition(rho, z, 0.02, 0.1, GRID)
        assert rep.abs_diff < 1e-6
        assert rep.lhs >= -1e-9  # mu* is the minimizer


def test_gap_decomposition_needs_positive_density():
    rho = np.zeros(GRID.n_points)
    rho[GRID.n_points // 2] = 1.0 / GRID.h
    with pytest.raises(ValueError, match="positive"):
        verify_gap_decomposition(rho, (1.0, 0.2), 0.02, 0.1, GRID)


def test_dym_formula():
    rep = verify_dym_formula((1.0, 0.3), 0.02, 0.1, GRID)
    assert rep.abs_diff < 1e-4


def test_rho_star_trivial_fixed_point():
    # antithetic 1-d samples make the uniform-weight prediction exactly 0,
    # so u = 0 is an exact fixed point when y = 0
    rng = substream(2, "anti")
    half = draw_prior_samples(500, 1, 0.2, rng)
    samples = np.vstack([half, -half])
    K = 5
    traj = Trajectory(dt=0.1, x=rng.normal(size=(K, 1)), y=np.zeros(K))
    sol = solve_rho_star(traj, samples, beta=0.5)
    assert sol.n_iters == 1
    assert np.allclose(sol.u, 0.0)
    assert sol.residual <= 1e-12


def test_rho_star_matches_mu_star_on_one_point():
    # with K=1 the hindsight tilt equals the instantaneous tilt, so the
    # solved prediction must agree with the scalar fixed point
    rng = substream(9, "k1")
    samples = draw_prior_samples(20000, 1, 0.5, rng)
    traj = Trajectory(dt=0.3, x=np.array([[1.1]]), y=np.array([0.4]))
    beta = 0.5
    sol = solve_rho_star(traj, samples, beta, tol=1e-10)
    cfg = IsSolverConfig(prior_var=0.5, n_is=20000, root_tol=1e-10)
    m_star, _ = solve_mu_star(samples, (traj.x[0], traj.y[0]), beta, cfg)
    assert abs(sol.u[0] - m_star) < 1e-8


def test_rho_star_converges_on_nonlinear_window():
    train, _ = gen_nonlinear(NonlinearConfig(n_steps=60), seed=14)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
    sol = solve_rho_star(train, samples, beta=0.02, max_iters=500)
    assert sol.residual <= 1e-6
    assert sol.n_iters <= 200
    # residual trace is recorded and ends at the reported residual
    assert sol.residual_trace[-1] == sol.residual


def test_rho_star_convergence_error_carries_trace():
    rng = substream(4, "short")
    samples = draw_prior_samples(1000, 1, 0.2, rng)
    traj = Trajectory(dt=0.1, x=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    with pytest.raises(ConvergenceError) as exc:
        solve_rho_star(traj, samples, beta=0.02, max_iters=1)
    assert len(exc.value.residual_trace) == 1


def test_rho_star_max_iters_counts_residual_checks():
    train, _ = gen_periodic(PeriodicConfig(n_steps=60), seed=3)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
    for max_iters in (2, 5):
        with pytest.raises(ConvergenceError) as exc:
            solve_rho_star(train, samples, beta=0.005, tol=1e-10, max_iters=max_iters)
        assert len(exc.value.residual_trace) == max_iters


def test_rho_star_argument_validation():
    rng = substream(4, "d")
    samples = draw_prior_samples(10, 1, 0.2, rng)
    traj = Trajectory(dt=0.1, x=np.ones((2, 1)), y=np.zeros(2))

    def never(x, samples):
        raise AssertionError("the neuron matrix was built before validation")

    for kwargs in ({"tol": 0.0}, {"tol": -1e-6}, {"max_iters": 0}, {"max_iters": -3}):
        with pytest.raises(ValueError):
            solve_rho_star(traj, samples, beta=0.1, sigma_fn=never, **kwargs)


def assert_matches_oracle(traj, samples, beta):
    sol = solve_rho_star(traj, samples, beta, tol=1e-10)
    u_ref, _, halvings = damped_rho_star(traj, samples, beta, tol=1e-10, max_iters=2000)
    assert np.max(np.abs(sol.u - u_ref)) <= 1e-8
    assert sol.residual <= 1e-10
    assert sol.n_iters == len(sol.residual_trace)
    assert sol.residual_trace[-1] == sol.residual
    return halvings


def test_rho_star_matches_oracle_on_nonlinear_window():
    train, _ = gen_nonlinear(NonlinearConfig(n_steps=60), seed=14)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
    assert_matches_oracle(train, samples, beta=0.02)


@pytest.mark.parametrize("n_steps,seed", [(40, 3), (60, 14), (100, 3)])
def test_rho_star_matches_oracle_where_fixed_step_backtracks(n_steps, seed):
    # at beta = 0.005 the tilt is strong: the damped step 0.5 overshoots and
    # the oracle halves it many times, while L-BFGS needs no fixed step.
    # Near tol = 1e-10 the decrease of H per step is also below the rounding
    # of H itself, so a line search on H alone can stall before tol.
    train, _ = gen_periodic(PeriodicConfig(n_steps=n_steps), seed=seed)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(seed, "p"))
    assert assert_matches_oracle(train, samples, beta=0.005) > 0


def test_rho_star_reaches_tol_where_the_oracle_stalls():
    # the damped oracle stalls short of 1e-10 on this window (its Armijo
    # test cannot resolve H there), so the residual, which certifies the
    # unique fixed point of the strictly convex merit, is the check
    train, _ = gen_periodic(PeriodicConfig(n_steps=60), seed=3)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
    sol = solve_rho_star(train, samples, beta=0.005, tol=1e-10)
    assert sol.residual <= 1e-10
    assert sol.n_iters == len(sol.residual_trace) <= 50
