import numpy as np
import pytest

import mfonline.equilibrium as equilibrium
from mfonline.datastream import Trajectory, gen_nonlinear, gen_periodic
from mfonline.equilibrium import (
    MU_ROOT_TOL,
    VERIFY_ROOT_TOL,
    ConvergenceError,
    GridTooNarrowError,
    QuadratureGrid,
    _lbfgs,
    _newton_fixed_point,
    _tanh_1d,
    _tilted_map,
    draw_prior_samples,
    importance_weights,
    quadrature_free_energy,
    solve_mu_star,
    solve_mu_star_quadrature,
    solve_rho_star,
    toy_rows,
    verify_dym_formula,
    verify_gap_decomposition,
)
from mfonline.network import activations, forward
from mfonline.seeding import substream
from measure_oracle import weighted_predict, weighted_second_moment
from mu_oracle import bisect_fixed_point, oracle_mu_star
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


def _lse_cases():
    rng = substream(17, "lse")
    return {
        "one": rng.normal(size=1),
        "two": rng.normal(size=2),
        "n20000": 40.0 * rng.normal(size=20000),
        "two_tied_maxima": np.array([0.3, 1.7, -2.0, 1.7, 0.9]),
        "all_equal": np.full(7, -0.25),
        "plus_minus_1e5": np.array([1e5, -1e5, 1e5 - 3.0, -1e5 + 1.0]),
        "minus_inf_entries": np.array([-np.inf, 0.4, -np.inf, -1.2]),
    }


def _assert_softmax_close(w, e):
    """w against the softmax of e in np.longdouble: each weight within
    2 eps (1 + |e_i - max e|) relative.  exp turns the rounding of the
    shift e_i - max e, at most eps/2 |e_i - max e|, into that relative
    error, and exp, the sum of positive terms and the division add a few
    eps/2 more; measured worst 0.69 eps (1 + |e_i - max e|) on the
    ``_lse_cases`` inputs.  The sum is within n eps of 1."""
    e_ld = np.asarray(e, dtype=np.longdouble)
    ref = np.exp(e_ld - e_ld.max())
    ref /= ref.sum()
    eps = np.finfo(float).eps
    pos = ref > 0
    assert np.all(w[~pos] == 0.0)
    tol = 2.0 * eps * (1.0 + np.abs(e[pos] - e.max())) * ref[pos]
    assert np.all(np.abs(w[pos] - ref[pos]) <= tol)
    assert abs(w.sum() - 1.0) <= w.size * eps


@pytest.mark.parametrize("bad", [[0.5, np.nan, -1.0], [0.5, np.inf, -1.0], [-np.inf, -np.inf]],
                         ids=["nan", "inf", "all_minus_inf"])
def test_importance_weights_rejects_a_non_finite_maximum(bad):
    with pytest.raises(ValueError, match="finite maximum"):
        importance_weights(np.array(bad))


@pytest.mark.parametrize("case", sorted(_lse_cases()))
def test_importance_weights_match_long_double_softmax(case):
    # held to a long-double softmax within the bound of _assert_softmax_close
    e = _lse_cases()[case]
    before = e.copy()
    _assert_softmax_close(importance_weights(e), e)
    assert np.array_equal(e, before)  # the input is left as it was


def _is_case(beta):
    samples = draw_prior_samples(20000, 5, beta / 0.1, substream(23, "mu", str(beta)))
    return samples, (np.array([0.3, -0.2, 0.5]), 0.8)


@pytest.mark.parametrize("beta", [0.005, 0.02, 0.2])
def test_solve_mu_star_within_two_root_tol_of_scipy_oracle(beta):
    # m* within 2 root_tol of the scipy-normalized solve (g' <= -1, so two
    # points with |g| <= root_tol lie within 2 root_tol of each other), and
    # the weights are the softmax of the exponents at m*
    samples, z = _is_case(beta)
    m_star, measure = solve_mu_star(samples, z, beta)
    m_ref, _ = oracle_mu_star(samples, z, beta, MU_ROOT_TOL)
    assert abs(m_star - m_ref) <= 2 * MU_ROOT_TOL
    svals = forward(samples, z[0])[0]
    _assert_softmax_close(measure.weights, -(2.0 / beta) * (m_star - z[1]) * svals)


def _bits(v):
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("beta", [0.005, 0.02, 0.2])
def test_solve_mu_star_moments_bitwise_equal_to_weighted_oracle(beta):
    samples, z = _is_case(beta)
    _, measure = solve_mu_star(samples, z, beta)
    assert _bits(measure.m) == _bits(weighted_predict(samples, measure.weights, z[0]))
    assert _bits(measure.q) == _bits(weighted_second_moment(samples, measure.weights))


def test_solve_rho_star_moments_match_weighted_oracle():
    train, _ = gen_periodic(3, n_steps=40)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
    sol = solve_rho_star(train, samples, beta=0.02)
    w = sol.measure.weights
    # m is S @ w, one matrix-vector product, against one dot per point: the
    # same 2000 products summed in another order, so each differs by a few
    # eps sum_i w_i |sigma_i| (measured 2.4, or 4 ulps of m)
    ref = np.array([weighted_predict(samples, w, x) for x in train.x])
    abs_sums = np.array([np.abs(forward(samples, x)[0]) @ w for x in train.x])
    assert np.all(np.abs(sol.measure.m - ref) <= 8.0 * np.finfo(float).eps * abs_sums)
    assert _bits(sol.measure.q) == _bits(weighted_second_moment(samples, w))
    # the measure's predictions are the fixed point u within the solve's tol
    assert np.max(np.abs(sol.measure.m - sol.u)) <= 1e-6 + 1e-12


def test_draw_prior_samples_bitwise_equal_to_scaled_normals():
    s = draw_prior_samples(20000, 5, 0.2, substream(5, "prior"))
    ref = np.sqrt(0.2) * substream(5, "prior").standard_normal((20000, 5))
    assert s.tobytes() == ref.tobytes()


def test_draw_prior_samples_moments():
    rng = substream(5, "prior")
    s = draw_prior_samples(100_000, 3, 0.2, rng)
    assert s.shape == (100_000, 3)
    assert np.all(np.abs(s.var(axis=0) - 0.2) < 0.2 * 0.02)
    assert np.all(np.abs(s.mean(axis=0)) < 0.01)


@pytest.mark.parametrize("x", [1.3, -0.7, 0.0])
def test_toy_rows_through_forward_equal_the_toy_neuron_bitwise(x):
    # the network neuron at (a, w, b) = (a, theta, 0) is a tanh(theta x); the
    # bias adds +0, which turns a zero product of sign - into +0 and changes
    # no other bit
    thetas = np.concatenate([substream(1, "toy").normal(0.0, 2.0, size=200), [0.0, -0.0]])
    ref = _tanh_1d(x, thetas) + 0.0
    rows = toy_rows(thetas[:, None])
    assert _bits(rows[:, 1]) == _bits(thetas) and not rows[:, 2].any()
    assert _bits(forward(rows, [x])[0]) == _bits(ref)
    assert _bits(forward(toy_rows(thetas[:, None], 0.5), [x])[0]) == _bits(0.5 * ref)


@pytest.mark.parametrize("d", [1, 2])
def test_solve_mu_star_rejects_samples_that_are_not_network_rows(d):
    # a 1-d covariate takes rows (a, w, b) of width 3; the kernel says so
    samples = draw_prior_samples(50, d, 0.2, substream(1, "width"))
    with pytest.raises(ValueError, match=r"thetas must be \(N, n\+2\)"):
        solve_mu_star(samples, (1.0, 0.3), 0.02)


def test_tilted_map_constant_sigma():
    # sigma == c for every sample makes the reweighted mean exactly c
    svals = np.full(50, 0.4)
    val = _tilted_map(0.7, svals, svals * svals, 0.2, 0.1)[0]
    assert abs(val - 0.4) < 1e-14


def test_tilted_map_monotone_pairs():
    # the fixed-point map Phi(m), the reweighted mean prediction at tilt
    # level m, is nonincreasing in m
    rng = substream(7, "pairs")
    samples = toy_rows(draw_prior_samples(5000, 1, 0.2, rng))
    x, y = 1.0, 0.3
    svals = forward(samples, [x])[0]
    for _ in range(200):
        m1, m2 = np.sort(rng.uniform(-1.5, 1.5, size=2))
        if m1 == m2:
            continue
        v1 = _tilted_map(m1, svals, svals * svals, y, 0.02)[0]
        v2 = _tilted_map(m2, svals, svals * svals, y, 0.02)[0]
        assert v2 <= v1 + 1e-12


def test_newton_rejects_a_non_finite_map():
    with pytest.raises(ConvergenceError, match=r"not finite at m = 0\.0"):
        _newton_fixed_point(lambda m: (float("nan"), -1.0, None), -2.0, 2.0, 0.0, 1e-10)


def test_newton_bisects_where_a_step_leaves_the_bracket():
    # Phi drops by 2 within about 1e-3 of m = 0.4 and is flat elsewhere.
    # From -1.9 the Newton step of 2.9 is longer than half the first
    # bracket's width, so the midpoint mid of (-1.9, 2) is taken; Newton
    # then goes to 1.0, whose step to -1.0 leaves the bracket (mid, 1):
    # its midpoint is taken instead
    calls = []

    def phi(m):
        calls.append(m)
        u = 1000.0 * (m - 0.4)
        t = np.tanh(u)
        return -t, -1000.0 * (1.0 - t * t), None

    m, _ = _newton_fixed_point(phi, -2.0, 2.0, -1.9, 1e-12)
    assert abs(-np.tanh(1000.0 * (m - 0.4)) - m) <= 1e-12
    mid = 0.5 * (-1.9 + 2.0)
    assert calls[:4] == [-1.9, mid, 1.0, 0.5 * (mid + 1.0)]
    with pytest.raises(ConvergenceError, match="after 2 evaluations"):
        _newton_fixed_point(phi, -2.0, 2.0, -1.9, 1e-12, max_iters=2)


@pytest.mark.parametrize("beta, stall", [(0.005, False), (0.02, False), (0.2, False), (0.02, True)],
                         ids=["0.005", "0.02", "0.2", "stall"])
def test_solve_mu_star_matches_bisection_in_fewer_evaluations(beta, stall, monkeypatch):
    # g' <= -1, so two points with |g| <= root_tol lie within 2 root_tol.
    # In the stall case, Newton steps without the step-halving guard bounce
    # between about 0.866 and 0.997, shrink the bracket by about 1e-4 each,
    # and the solve raised ConvergenceError after 100 evaluations
    if stall:
        samples, z = draw_prior_samples(20000, 3, 0.2, substream(37, "stall")), (np.array([1.5]), 1.0)
    else:
        samples, z = _is_case(beta)
    svals = forward(samples, z[0])[0]
    m_bisect, n_bisect = bisect_fixed_point(
        lambda m: float(importance_weights(-(2.0 / beta) * (m - z[1]) * svals) @ svals),
        float(svals.min()) - 1.0, float(svals.max()) + 1.0, MU_ROOT_TOL)

    calls = []
    real = equilibrium._tilted_map
    monkeypatch.setattr(equilibrium, "_tilted_map", lambda *a: calls.append(a[0]) or real(*a))
    m_newton, measure = solve_mu_star(samples, z, beta)
    assert abs(m_newton - m_bisect) <= 2 * MU_ROOT_TOL
    assert abs(float(measure.weights @ svals) - m_newton) <= MU_ROOT_TOL
    assert calls[-1] == m_newton  # the weights are those of the last evaluation
    assert len(calls) < n_bisect


@pytest.mark.parametrize("beta", [0.005, 0.02, 0.2])
def test_solve_mu_star_quadrature_matches_bisection(beta, monkeypatch):
    z, lam = (1.1, 0.35), 0.1
    grid = QuadratureGrid(-12.0, 12.0, 4001)
    th = grid.thetas
    s = np.tanh(z[0] * th)

    def phi(m):
        logq = -lam * th**2 / (2.0 * beta) - (2.0 / beta) * (m - z[1]) * s
        q = np.exp(logq - logq.max())
        return grid.integrate(s * q) / grid.integrate(q)

    m_bisect, n_bisect = bisect_fixed_point(phi, float(s.min()) - 1.0, float(s.max()) + 1.0,
                                            MU_ROOT_TOL)

    # the tilt levels the solve evaluates, and its passes over the neuron values
    levels, neuron_passes = [], []
    real_density, real_tanh = equilibrium._log_tilted_density, equilibrium._tanh_1d

    def counted_density(*args):
        s_grid, log_q = real_density(*args)
        return s_grid, lambda m: levels.append(m) or log_q(m)

    monkeypatch.setattr(equilibrium, "_log_tilted_density", counted_density)
    monkeypatch.setattr(equilibrium, "_tanh_1d",
                        lambda *a: neuron_passes.append(a) or real_tanh(*a))
    m_newton, density = solve_mu_star_quadrature(z, beta, lam, grid)
    assert abs(m_newton - m_bisect) <= 2 * MU_ROOT_TOL
    assert abs(grid.integrate(s * density) - m_newton) <= MU_ROOT_TOL
    assert len(levels) < n_bisect
    assert len(neuron_passes) == 1  # once per solve, not once per tilt level


def test_solve_mu_star_fixed_point_residual():
    rng = substream(11, "mu")
    thetas = draw_prior_samples(20000, 1, 0.2, rng)
    z = (1.2, 0.4)
    m_star, measure = solve_mu_star(toy_rows(thetas), z, beta=0.02)
    # the returned measure reproduces the fixed point
    svals = np.tanh(1.2 * thetas[:, 0])
    assert abs(float(measure.weights @ svals) - m_star) <= MU_ROOT_TOL
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
    samples = toy_rows(draw_prior_samples(100_000, 1, beta / lam, substream(3, "cross")))
    m_is, _ = solve_mu_star(samples, z, beta)
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


def test_quadrature_grid_validation():
    for lo, hi in ((1.0, -1.0), (np.nan, 1.0), (-1.0, np.nan)):
        with pytest.raises(ValueError, match="lo < hi"):
            QuadratureGrid(lo, hi, 201)
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


def _perturbed_density(grid, mu, rng):
    bump = 0.3 * np.tanh(rng.normal() * grid.thetas) + 0.2 * np.sin(grid.thetas * rng.uniform(0.5, 2.0))
    rho = mu * np.exp(bump)
    return rho / grid.integrate(rho)


def test_gap_decomposition_cases():
    rng = substream(21, "gap")
    for z in ((1.0, 0.4), (0.6, -0.25)):
        mu_star = solve_mu_star_quadrature(z, 0.02, 0.1, GRID, VERIFY_ROOT_TOL)
        rho = _perturbed_density(GRID, mu_star[1], rng)
        rep = verify_gap_decomposition(rho, mu_star, z, 0.02, 0.1, GRID)
        assert rep.abs_diff < 1e-6
        assert rep.lhs >= -1e-9  # mu* is the minimizer
        # the identity holds at the minimizer alone: mu* of another response fails it
        other = solve_mu_star_quadrature((z[0], z[1] + 0.1), 0.02, 0.1, GRID, VERIFY_ROOT_TOL)
        assert verify_gap_decomposition(rho, other, z, 0.02, 0.1, GRID).abs_diff > 1e-4


def test_gap_decomposition_needs_positive_density():
    rho = np.zeros(GRID.n_points)
    rho[GRID.n_points // 2] = 1.0 / GRID.h
    z = (1.0, 0.2)
    mu_star = solve_mu_star_quadrature(z, 0.02, 0.1, GRID, VERIFY_ROOT_TOL)
    with pytest.raises(ValueError, match="positive"):
        verify_gap_decomposition(rho, mu_star, z, 0.02, 0.1, GRID)


def test_dym_formula():
    rep = verify_dym_formula((1.0, 0.3), 0.02, 0.1, GRID)
    assert rep.abs_diff < 1e-4


def _line_of(grad):
    """``line`` for _lbfgs from a gradient alone: each trial evaluates it."""
    def line(x, d):
        return (lambda t: float(d @ grad(x + t * d))), (lambda t: (grad(x + t * d), None))
    return line


def test_lbfgs_reaches_the_minimizer_of_a_quadratic():
    # H(x) = x.A x / 2 - b.x with A = diag + rank one, so A >= I and
    # |x - x*|_2 <= |A x - b|_2 <= sqrt(n) max|A x - b|
    rng = substream(31, "quadratic")
    n = 40
    v = rng.normal(size=n)
    A = np.diag(rng.uniform(1.0, 100.0, size=n)) + np.outer(v, v)
    b = rng.normal(size=n)
    tol = 1e-10
    x, aux, trace, n_evals = _lbfgs(lambda x: (A @ x - b, x.copy()), _line_of(lambda x: A @ x - b),
                                    np.zeros(n), tol, 500)
    assert np.max(np.abs(x - np.linalg.solve(A, b))) <= np.sqrt(n) * tol
    assert trace[-1] == np.max(np.abs(A @ x - b)) <= tol
    assert np.array_equal(aux, x)  # the caller's aux is the one at the solution
    assert 1 < len(trace) <= n_evals


def _raise_on_first_step(bad, line_of):
    # finite at x0 only: what the line for the first step reads is not
    grad = lambda x: x - 1.0 if not x.any() else np.full_like(x, bad)
    with pytest.raises(ConvergenceError, match="not finite") as exc:
        _lbfgs(lambda x: (grad(x), None), line_of(grad), np.zeros(3), 1e-8, 100)
    assert exc.value.residual_trace == [1.0]
    return str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lbfgs_non_finite_gradient_raises_with_the_trace(bad):
    # the first trial is accepted and its step's gradient is not finite
    def line_of(grad):
        return lambda x, d: ((lambda t: 0.0), (lambda t: (grad(x + t * d), None)))

    assert "gradient not finite" in _raise_on_first_step(bad, line_of)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lbfgs_non_finite_slope_raises_with_the_trace(bad):
    assert "slope not finite" in _raise_on_first_step(bad, _line_of)


@pytest.mark.parametrize("grad", [
    lambda x: np.where(x < 0.3, -1.0, 1.0),  # a kink at 0.3: the slope is always +-1
    lambda x: np.ones_like(x),  # unbounded below: t doubles without end
], ids=["kink", "unbounded"])
def test_lbfgs_line_search_that_exhausts_its_bracket_raises(grad):
    with pytest.raises(ConvergenceError, match="line search exhausted its bracket") as exc:
        _lbfgs(lambda x: (grad(x), None), _line_of(grad), np.zeros(1), 1e-8, 100)
    assert exc.value.residual_trace == [1.0]


class _PassCounter(np.ndarray):
    """An array view that counts the matrix products it takes part in."""

    passes = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _PassCounter.passes += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _PassCounter) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("n_steps,seed", [(40, 3), (60, 14), (100, 3)])
def test_rho_star_line_search_trials_make_no_pass_over_the_matrix(monkeypatch, n_steps, seed):
    # two passes over S at u = 0, two per iteration (the line's direction
    # and the accepted step) and two for the certificate, however many
    # trials the line searches take; each trial is one softmax
    train, _ = gen_periodic(seed, n_steps=n_steps)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(seed, "p"))
    real_matrix, real_weights = equilibrium._neuron_matrix, equilibrium.importance_weights
    softmaxes = []

    def counted_weights(e):
        softmaxes.append(e)
        return real_weights(e)

    monkeypatch.setattr(equilibrium, "_neuron_matrix",
                        lambda *args: real_matrix(*args).view(_PassCounter))
    monkeypatch.setattr(equilibrium, "importance_weights", counted_weights)
    _PassCounter.passes = 0
    sol = solve_rho_star(train, samples, beta=0.005, tol=1e-10)
    assert sol.residual <= 1e-10
    assert _PassCounter.passes == 2 * sol.n_iters + 2
    assert sol.n_evals == sol.n_iters + 1
    trials = len(softmaxes) - 2  # one softmax each at u = 0 and for the certificate
    assert trials > sol.n_iters - 1  # some trials were rejected


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("window", ["periodic", "nonlinear"])
def test_rho_star_residual_is_certified_from_u(window, tol):
    # the reported residual and measure are those of exponents recomputed
    # from the returned u, not of the running update E + t D
    if window == "periodic":
        train, _ = gen_periodic(3, n_steps=60)
        samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
        beta = 0.005
    else:
        train, _ = gen_nonlinear(14, n_steps=60)
        samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
        beta = 0.02
    sol = solve_rho_star(train, samples, beta, tol=tol)
    S = activations(samples, train.x) * samples[:, 0]
    w = importance_weights((-2.0 / (beta * train.n_steps)) * ((sol.u - train.y) @ S))
    m = S @ w
    assert sol.residual == np.max(np.abs(sol.u - m)) <= tol
    assert np.array_equal(sol.measure.m, m)
    assert np.array_equal(sol.measure.weights, w)


@pytest.mark.parametrize("n_steps", [1, 57])
def test_neuron_matrix_in_blocks_is_bitwise_equal_to_one_build(n_steps):
    # 57 = 7 * 8 + 1: the last row joins the block before it, since a
    # single-row block would take activations' single-covariate product
    train, _ = gen_nonlinear(14, n_steps=n_steps)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
    S = equilibrium._neuron_matrix(samples, train.x)
    assert _bits(S) == _bits(activations(samples, train.x) * samples[:, 0])


def test_rho_star_trivial_fixed_point():
    # samples antithetic in the amplitude a make the uniform-weight
    # prediction 0, so u = 0 is an exact fixed point when y = 0
    rng = substream(2, "anti")
    half = draw_prior_samples(500, 3, 0.2, rng)
    flipped = half.copy()
    flipped[:, 0] *= -1.0
    samples = np.vstack([half, flipped])
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
    samples = draw_prior_samples(20000, 3, 0.5, rng)
    traj = Trajectory(dt=0.3, x=np.array([[1.1]]), y=np.array([0.4]))
    beta = 0.5
    sol = solve_rho_star(traj, samples, beta, tol=1e-10)
    m_star, _ = solve_mu_star(samples, (traj.x[0], traj.y[0]), beta)
    assert abs(sol.u[0] - m_star) < 1e-8


def test_rho_star_converges_on_nonlinear_window():
    train, _ = gen_nonlinear(14, n_steps=60)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
    sol = solve_rho_star(train, samples, beta=0.02, max_iters=500)
    assert sol.residual <= 1e-6
    assert sol.n_iters <= 200
    # residual trace is recorded and ends at the reported residual
    assert sol.residual_trace[-1] == sol.residual


def test_rho_star_convergence_error_carries_trace():
    rng = substream(4, "short")
    samples = draw_prior_samples(1000, 3, 0.2, rng)
    traj = Trajectory(dt=0.1, x=rng.normal(size=(10, 1)), y=rng.normal(size=10))
    with pytest.raises(ConvergenceError) as exc:
        solve_rho_star(traj, samples, beta=0.02, max_iters=1)
    assert len(exc.value.residual_trace) == 1


def test_rho_star_max_iters_counts_residual_checks():
    train, _ = gen_periodic(3, n_steps=60)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
    for max_iters in (2, 5):
        with pytest.raises(ConvergenceError) as exc:
            solve_rho_star(train, samples, beta=0.005, tol=1e-10, max_iters=max_iters)
        assert len(exc.value.residual_trace) == max_iters


def test_rho_star_argument_validation(monkeypatch):
    rng = substream(4, "d")
    samples = draw_prior_samples(10, 3, 0.2, rng)
    traj = Trajectory(dt=0.1, x=np.ones((2, 1)), y=np.zeros(2))

    def never(*args, **kwargs):
        raise AssertionError("the neuron matrix was built before validation")

    monkeypatch.setattr(equilibrium, "activations", never)
    for kwargs in ({"tol": 0.0}, {"tol": -1e-6}, {"max_iters": 0}, {"max_iters": -3}):
        with pytest.raises(ValueError):
            solve_rho_star(traj, samples, beta=0.1, **kwargs)


def assert_matches_oracle(traj, samples, beta):
    sol = solve_rho_star(traj, samples, beta, tol=1e-10)
    u_ref, _, halvings = damped_rho_star(traj, samples, beta, tol=1e-10, max_iters=2000)
    assert np.max(np.abs(sol.u - u_ref)) <= 1e-8
    assert sol.residual <= 1e-10
    assert sol.n_iters == len(sol.residual_trace)
    assert sol.residual_trace[-1] == sol.residual
    return sol, halvings


def test_rho_star_matches_oracle_on_nonlinear_window():
    train, _ = gen_nonlinear(14, n_steps=60)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.2, substream(14, "s"))
    assert_matches_oracle(train, samples, beta=0.02)


@pytest.mark.parametrize("n_steps,seed", [(40, 3), (60, 14), (100, 3)])
def test_rho_star_matches_oracle_where_fixed_step_backtracks(n_steps, seed):
    # at beta = 0.005 the tilt is strong: the damped step 0.5 overshoots and
    # the oracle halves it many times, while L-BFGS needs no fixed step.
    # Near tol = 1e-10 the decrease of H per step is also below the rounding
    # of H itself, so a line search on H alone can stall before tol.
    train, _ = gen_periodic(seed, n_steps=n_steps)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(seed, "p"))
    assert assert_matches_oracle(train, samples, beta=0.005)[1] > 0


def test_rho_star_matches_oracle_where_h_cannot_resolve_its_decrease():
    # on this window the Armijo decrease of H falls below the rounding of H
    # well before tol = 1e-10, so the oracle judges its late steps by the
    # fixed-point residual (a test on H alone cycles there and never
    # reaches tol); L-BFGS reads no value of H
    train, _ = gen_periodic(3, n_steps=60)
    samples = draw_prior_samples(2000, train.x_dim + 2, 0.05, substream(3, "p"))
    sol, _ = assert_matches_oracle(train, samples, beta=0.005)
    assert sol.n_iters <= 50
