"""Equilibrium and hindsight benchmark measures, plus identity verifiers.

Two Gibbs-type benchmarks are solved by importance sampling from the prior
N(0, prior_var I_d), where prior_var = beta / lam is fixed by the
learner's temperature and penalty:

* the instantaneous equilibrium for one data point z = (x, y).  Its mean
  prediction m* satisfies the scalar fixed point m = Phi(m) where Phi
  reweights prior samples by exp(-(2/beta) (m - y) sigma(x, theta)).  Its
  slope is Phi'(m) = -(2/beta) Var(sigma) under the tilted measure, so
  g(m) = Phi(m) - m has slope <= -1 and crosses zero exactly once, inside
  [min sigma - 1, max sigma + 1]; a Newton iteration on the exact slope,
  safeguarded by bisection as in ``rtsafe``, finds it.

* the hindsight measure for a whole trajectory, reweighting by the
  time-averaged tilt exp(-(2/(beta T)) sum_k (u_k - y_k) sigma(x_k, theta) dt)
  where u_k is the measure's own prediction at x_k; solved by L-BFGS on
  the gradient of a strongly convex merit H, the fixed-point residual.
  The exponents are affine in u, so the line search prices its trials
  on the exponent vector and not on the neuron matrix.

Both take network samples theta = (a, w, b) and the neuron a tanh(w.x + b)
of ``network``.  Each reports its measure as a ``WeightedMeasure``: the
weights and the two moments a cost needs, the prediction m (per data
point for the hindsight measure) and the second moment q = <rho, |theta|^2>.

Both normalize their weights with ``importance_weights``, a one-pass
numpy softmax that exponentiates each weight vector once.

A deterministic 1-d Simpson quadrature oracle solves the same equilibrium
for the toy neuron tanh(theta x), the network neuron at rows ``toy_rows``
(1, theta, 0), and backs the closed-form identity checks: the free-energy
gap decomposition, whose free energy prices U with ``measures.cost_u``, and
the equilibrium prediction's response derivative.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .measures import cost_u, sq_norms
from .network import activations, forward, unpack


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance; carries the trace."""

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = residual_trace or []


class GridTooNarrowError(ValueError):
    """Quadrature grid endpoints carry non-negligible density mass."""


@dataclass
class WeightedMeasure:
    """A benchmark measure as its importance weights over the prior samples
    and the two moments every cost needs: the prediction m (a float, or one
    per data point of a trajectory) and the second moment q = <rho, |theta|^2>."""

    weights: np.ndarray
    m: float | np.ndarray
    q: float

    def ess(self) -> float:
        """Effective sample size 1 / sum w_i^2."""
        return float(1.0 / np.sum(self.weights**2))


def draw_prior_samples(n: int, dim: int, prior_var: float, rng) -> np.ndarray:
    """n iid samples from N(0, prior_var I_dim), shape (n, dim)."""
    out = rng.standard_normal((n, dim))
    out *= np.sqrt(prior_var)
    return out


def importance_weights(exponents) -> np.ndarray:
    """Normalized weights exp(e - max e) / sum over the exponents e, in one
    pass with one exponential per entry.  Raises ValueError when the
    maximum is not finite (a NaN entry, +inf, or all -inf)."""
    exponents = np.asarray(exponents, dtype=float)
    e_max = exponents.max()
    if not np.isfinite(e_max):
        raise ValueError(f"importance weights need a finite maximum exponent, got {e_max!r}")
    w = exponents - e_max
    np.exp(w, out=w)
    w /= w.sum()
    return w


def _tilted_map(m, svals, sq, y, beta):
    """Fixed-point map at tilt level m: (Phi(m), Phi'(m), weights).

    Phi(m) is the reweighted mean prediction and Phi'(m) = -(2/beta)
    Var(sigma) its exact slope, both under the weights at m; sq holds
    svals**2, so the variance costs one dot product."""
    w = importance_weights(-(2.0 / beta) * (m - y) * svals)
    val = float(w @ svals)
    return val, -(2.0 / beta) * (float(w @ sq) - val * val), w


def _newton_fixed_point(phi, lo, hi, start, root_tol, max_iters=100):
    """Root of g(m) = Phi(m) - m by Newton's method safeguarded by a bracket.

    ``phi(m)`` returns (Phi(m), Phi'(m), aux) with Phi nonincreasing, so
    g' = Phi' - 1 <= -1.  The root must lie in [lo, hi]; the iteration
    starts at ``start`` (at the midpoint if that lies outside) and shrinks
    the bracket by the sign of g at every evaluation.  It takes the
    bracket's midpoint instead of a Newton step that would leave the
    bracket or that is longer than half the step before last: the guard of
    ``rtsafe`` (Press et al., Numerical Recipes, section 9.4), without
    which steps can bounce between the two ends of the bracket and shrink
    it by a sliver each.  Returns (m, aux) of the first evaluation with
    |g(m)| <= root_tol, or of the last one once the bracket has shrunk to
    a few ulps.  Raises ConvergenceError when g(m) is not finite or after
    max_iters evaluations.
    """
    m = start if lo < start < hi else 0.5 * (lo + hi)
    dx = dx_old = hi - lo  # the last step and the one before it
    for _ in range(max_iters):
        val, slope, aux = phi(m)
        g = val - m
        if not np.isfinite(g):
            raise ConvergenceError(f"fixed-point map not finite at m = {m!r}: Phi(m) = {val!r}")
        if abs(g) <= root_tol:
            return m, aux
        if g > 0:
            lo = m
        else:
            hi = m
        if hi - lo < 4.0 * np.finfo(float).eps * max(1.0, abs(m)):
            return m, aux
        step = m - g / (slope - 1.0)
        # a NaN step (from a NaN slope) fails the test and bisects too
        if lo < step < hi and 2.0 * abs(step - m) <= dx_old:
            dx_old, dx, m = dx, abs(step - m), step
        else:
            dx_old, dx, m = dx, 0.5 * (hi - lo), 0.5 * (lo + hi)
    raise ConvergenceError(f"Newton stalled after {max_iters} evaluations: bracket [{lo}, {hi}]")


MU_ROOT_TOL = 1e-10  # |Phi(m) - m| at which every mu* solve stops


def solve_mu_star(samples, z, beta):
    """Instantaneous equilibrium from network samples (n_is, n + 2) of the
    prior at one data point z with an n-dimensional covariate.

    Returns (m_star, measure): the fixed-point root and the measure at that
    tilt, whose prediction ``measure.m = Phi(m_star)`` reproduces m_star
    within MU_ROOT_TOL.
    """
    x, y = unpack(z)
    samples = np.asarray(samples, dtype=float)
    svals = forward(samples, x)[0]
    # Phi(m) is a weighted mean of svals, so g > 0 at lo and g < 0 at hi;
    # at m = y the tilt vanishes and the first Newton step is linear response
    lo = float(svals.min()) - 1.0
    hi = float(svals.max()) + 1.0
    sq = svals * svals
    m_star, w = _newton_fixed_point(lambda m: _tilted_map(m, svals, sq, y, beta),
                                    lo, hi, float(y), MU_ROOT_TOL)
    return m_star, WeightedMeasure(w, float(w @ svals), float(sq_norms(samples) @ w))


@dataclass
class RhoStarSolution:
    """Hindsight measure: the fixed point u along the trajectory, the
    measure at that tilt (``measure.m[k]`` is its prediction at x_k), and
    the L-BFGS diagnostics.

    ``residual_trace`` holds max_k |U(u)_k - u_k| at u = 0 and at every
    accepted iterate after it, so ``n_iters == len(residual_trace)`` and
    ``residual == residual_trace[-1]``.  ``n_evals`` counts residual
    evaluations: one per accepted step, one pass over S each, and the
    ones at u = 0 and for the certificate, two passes each; line-search
    trials make none.  A solve that is certified at once has
    ``n_evals == n_iters + 1``."""

    u: np.ndarray
    measure: WeightedMeasure
    residual: float
    n_iters: int
    n_evals: int
    residual_trace: list = field(default_factory=list)


# The line search accepts the first step whose slope along d is at most
# this fraction of the slope at t = 0 in magnitude: a near-exact search,
# since trials along the line are cheap for the hindsight merit.
CURVATURE = 0.01


def _lbfgs(grad, line, x0, tol, max_iters):
    """Minimize a strongly convex function by L-BFGS from its gradient alone.

    ``grad(x)`` returns (g, aux): the gradient at x and what the caller
    wants back at the solution.  ``line(x, d)`` returns two callables on
    the line x + t d: ``slope(t)``, the slope d.g(x + t d), and ``step(t)``,
    called once with the accepted t (the last one given to ``slope``), which
    returns (g, aux) at x + t d.  Directions come from the two-loop
    recursion over the last 10 pairs (s, y) of steps and gradient changes
    (Nocedal & Wright, Numerical Optimization, algorithm 7.4).  The line
    search reads only the slope: from t = 1 it doubles t until a trial
    passes the minimum along d, then bisects, and it takes the first t with
    |slope| <= CURVATURE |slope(0)| (the strong-Wolfe curvature test, which
    keeps s.y > 0).  No function value is computed.

    ``max_iters`` counts residual checks max |g| <= tol, the one at x0 and
    one per accepted step.  A gradient from ``step`` that passes the check
    is certified by ``grad`` at the same x, and the recomputed residual
    replaces it in the trace.  Returns (x, aux, trace, n_evals): the
    residual at x0 and at each accepted iterate, and the number of
    ``grad`` and ``step`` calls.  Raises ConvergenceError, carrying the
    trace, when a gradient or a slope is not finite, when a line search
    takes 60 trials, or when the residual is still above tol after
    max_iters checks.
    """
    trace = []
    n_evals = 0

    def check(what, value):
        if not np.all(np.isfinite(value)):
            raise ConvergenceError(f"L-BFGS: {what} not finite after {len(trace)} residual checks",
                                   residual_trace=trace)

    def evaluate(fn, arg):
        nonlocal n_evals
        n_evals += 1
        g, aux = fn(arg)
        check("gradient", g)
        return g, aux

    x = np.array(x0, dtype=float)
    g, aux = evaluate(grad, x)
    certified = True
    pairs = deque(maxlen=10)  # (s, y, 1 / s.y); 10 is scipy's default maxcor
    while True:
        trace.append(float(np.max(np.abs(g))))
        if trace[-1] <= tol and not certified:
            g, aux = evaluate(grad, x)
            certified = True
            trace[-1] = float(np.max(np.abs(g)))
        if trace[-1] <= tol:
            return x, aux, trace, n_evals
        if len(trace) >= max_iters:
            raise ConvergenceError(
                f"L-BFGS: residual {trace[-1]:.3e} > tol {tol} after {len(trace)} residual checks",
                residual_trace=trace)
        d = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * float(s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= float(s @ y) / float(y @ y)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            d += (alpha - rho * float(y @ d)) * s
        slope0 = float(d @ g)
        slope_at, step = line(x, d)
        lo, hi, t = 0.0, np.inf, 1.0
        for _ in range(60):  # doublings to 2**59, or bisections to below an ulp
            slope = slope_at(t)
            check("slope", slope)
            if abs(slope) <= -CURVATURE * slope0:
                break
            if slope < 0:
                lo = t
            else:
                hi = t
            t = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
        else:
            raise ConvergenceError(f"L-BFGS line search exhausted its bracket [{lo}, {hi}] "
                                   "after 60 trials", residual_trace=trace)
        g_new, aux = evaluate(step, t)
        certified = False
        s, y = t * d, g_new - g
        pairs.append((s, y, 1.0 / float(s @ y)))
        x, g = x + s, g_new


def _neuron_matrix(samples, X):
    """Neuron values S[k, i] = a_i tanh(w_i . x_k + b_i), shape (K, n_is).

    Built in blocks of 8 rows, so that each block stays in cache through
    the product, the bias, the tanh and the amplitude.  No block has a
    single row: BLAS takes a matrix-vector product for one row, whose bits
    differ from that row's in a batch at n >= 3, so a last single row
    joins the block before it.
    """
    K = X.shape[0]
    S = np.empty((K, samples.shape[0]))
    a = np.ascontiguousarray(samples[:, 0])
    starts = list(range(0, K, 8))
    if len(starts) > 1 and K - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [K]):
        block = S[lo:hi]
        activations(samples, X[lo:hi], out=block)
        block *= a
    return S


RHO_TOL = 1e-6  # max_k |U(u)_k - u_k| at which a rho* solve stops by default


def solve_rho_star(traj, samples, beta, tol=RHO_TOL, max_iters=500) -> RhoStarSolution:
    """Hindsight benchmark over a whole trajectory by gradient-only L-BFGS.

    ``samples`` are network parameters, shape (n_is, n + 2) for the
    trajectory's covariate dimension n.  The tilt integral uses one
    rectangle of width dt per data point, and T = K dt, so the per-sample
    exponent is E_i(u) = -(2 / (beta K)) sum_k (u_k - y_k) S_ki with the
    neuron values S_ki = sigma(x_k, theta_i).  The fixed point u = U(u) of
    the reweighted predictions U(u) = S w(u), w = softmax(E(u)), is the
    minimizer of the strictly convex merit
        H(u) = |u|^2 / 2 + (beta K / 2) logsumexp_i(E_i(u)),
    whose gradient is exactly u - U(u) and whose Hessian
    I + (2/(beta K)) Cov_w(S) is at least I.  ``_lbfgs`` runs from u = 0 on
    that gradient alone until the fixed-point residual
    max_k |U(u)_k - u_k| falls to tol.

    E is affine in u, so along a search direction d it is E + t D with
    D = coef (d @ S): one pass over S per iteration.  A line-search trial
    is one softmax of E + t D and its slope d.u + t |d|^2 - (d @ S).w(t),
    with no pass over S; the accepted step costs one more pass, S @ w.  An
    iteration thus costs two passes.  The residual at u = 0 and the one
    that certifies the result come from exponents recomputed from u, two
    passes each.  ``max_iters`` counts residual checks, the one at u = 0
    and one per accepted step; ``measure.m`` is U(u) from the certifying
    evaluation.  Raises ConvergenceError, carrying the residual trace, when
    the residual is still above tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    samples = np.asarray(samples, dtype=float)
    K = traj.n_steps
    # row k holds the network neurons (d = n + 2) at x_k
    S = _neuron_matrix(samples, traj.x)
    coef = -2.0 / (beta * K)
    E = None  # the exponents at the current iterate

    def residual_at(u, w):
        preds = S @ w
        return u - preds, (w, preds)

    def residual_map(u):
        nonlocal E
        E = coef * ((u - traj.y) @ S)
        return residual_at(u, importance_weights(E))

    def line(u, d):
        dS = d @ S
        D = coef * dS
        du, dd = float(d @ u), float(d @ d)
        w = None  # the weights of the last trial, the one step accepts

        def slope(t):
            nonlocal w
            w = importance_weights(E + t * D)
            return du + t * dd - float(dS @ w)

        def step(t):
            nonlocal E
            E = E + t * D
            return residual_at(u + t * d, w)

        return slope, step

    u, (w, preds), trace, n_evals = _lbfgs(residual_map, line, np.zeros(K), tol, max_iters)
    measure = WeightedMeasure(w, preds, float(sq_norms(samples) @ w))
    return RhoStarSolution(u=u, measure=measure, residual=trace[-1], n_iters=len(trace),
                           n_evals=n_evals, residual_trace=trace)


# ---------------------------------------------------------------------------
# 1-d Simpson quadrature oracle (single-parameter neurons tanh(theta x))
# ---------------------------------------------------------------------------


def _tanh_1d(x, thetas):
    """Single-parameter neuron tanh(x * theta) at a scalar covariate x."""
    return np.tanh(float(np.asarray(x).reshape(())) * thetas)


def toy_rows(thetas, amplitude=1.0) -> np.ndarray:
    """Network rows (amplitude, theta, 0) of toy parameters (n, 1): ``forward``
    gives amplitude * tanh(theta x) on them, to the last bit but a zero's sign."""
    return np.hstack((np.full_like(thetas, amplitude), thetas, np.zeros_like(thetas)))


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform 1-d grid for composite Simpson; n_points must be odd >= 3."""

    lo: float
    hi: float
    n_points: int = 2001

    def __post_init__(self):
        if not self.hi > self.lo:  # NaN fails too
            raise ValueError("need lo < hi")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError("composite Simpson needs an odd n_points >= 3")

    @property
    def thetas(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_points)

    @property
    def h(self) -> float:
        return (self.hi - self.lo) / (self.n_points - 1)

    def integrate(self, vals) -> float:
        """Composite Simpson rule over the grid."""
        vals = np.asarray(vals, dtype=float)
        if vals.shape != (self.n_points,):
            raise ValueError("values must match the grid")
        w = np.ones(self.n_points)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return float((self.h / 3.0) * (w @ vals))


def _log_tilted_density(grid, z, beta, lam):
    """(s, log_q): the toy neuron values s = tanh(th x) on the grid, and the
    unnormalized log density log_q(m) = -lam th^2 / (2 beta) - (2/beta)(m - y) s
    at tilt level m, whose neuron values and prior term are computed once."""
    x, y = unpack(z)
    th = grid.thetas
    s = _tanh_1d(x, th)
    prior = -lam * th**2 / (2.0 * beta)
    return s, lambda m: prior - (2.0 / beta) * (m - y) * s


VERIFY_ROOT_TOL = 1e-12  # |Phi(m) - m| of the quadrature solves the identity checks use
DYM_FD_STEP = 1e-4  # half-width in y of verify_dym_formula's central difference


def solve_mu_star_quadrature(z, beta, lam, grid: QuadratureGrid, root_tol=MU_ROOT_TOL):
    """Deterministic equilibrium solve on a 1-d grid.

    Returns (m_star, density) with the density Simpson-normalized on the
    grid.  Raises GridTooNarrowError when the endpoint density exceeds
    1e-12 of the peak, which would invalidate the integrals.
    """
    s, log_q = _log_tilted_density(grid, z, beta, lam)
    ss = s * s

    def phi(m):
        logq = log_q(m)
        q = np.exp(logq - logq.max())
        mass = grid.integrate(q)
        val = grid.integrate(s * q) / mass
        return val, -(2.0 / beta) * (grid.integrate(ss * q) / mass - val * val), q

    m_star, q = _newton_fixed_point(phi, float(s.min()) - 1.0, float(s.max()) + 1.0,
                                    unpack(z)[1], root_tol)
    if q[0] > 1e-12 or q[-1] > 1e-12:
        raise GridTooNarrowError(
            f"endpoint density {max(q[0], q[-1]):.2e} of peak exceeds 1e-12; widen the grid"
        )
    return m_star, q / grid.integrate(q)


def quadrature_free_energy(density, z, beta, lam, grid: QuadratureGrid) -> float:
    """F(rho) = U + beta int rho log rho, with U = ``cost_u`` at the
    moments m = <rho, s> and q = <rho, th^2> of the toy neuron.

    density must be nonnegative and Simpson-normalized on the grid within
    1e-8; the entropy integrand uses 0 log 0 = 0.
    """
    density = np.asarray(density, dtype=float)
    x, y = unpack(z)
    if np.any(density < -1e-12):
        raise ValueError("density must be nonnegative")
    total = grid.integrate(density)
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"density not normalized: integral {total!r}")
    th = grid.thetas
    m = grid.integrate(_tanh_1d(x, th) * density)
    moment = grid.integrate(th**2 * density)
    pos = density > 0
    ent_vals = np.zeros_like(density)
    ent_vals[pos] = density[pos] * np.log(density[pos])
    return cost_u(m, moment, y, lam) + beta * grid.integrate(ent_vals)


@dataclass
class GapReport:
    lhs: float
    rhs: float
    abs_diff: float


def verify_gap_decomposition(density, mu_star, z, beta, lam, grid: QuadratureGrid) -> GapReport:
    """Check F(rho) - F(mu*) = (m_rho - m*)^2 + beta KL(rho || mu*).

    rho is a strictly positive normalized density on the grid and mu_star
    the pair (m*, density) that ``solve_mu_star_quadrature`` returns for
    z, beta, lam and grid; the identity holds at the minimizer of F alone,
    so a wrong pair fails the check.  Both sides are computed by Simpson
    quadrature with log-space KL for stability.
    """
    density = np.asarray(density, dtype=float)
    if np.any(density <= 0):
        raise ValueError("gap decomposition needs a strictly positive density")
    m_star, mu_density = mu_star

    f_rho = quadrature_free_energy(density, z, beta, lam, grid)
    f_mu = quadrature_free_energy(mu_density, z, beta, lam, grid)
    lhs = f_rho - f_mu

    s, log_q = _log_tilted_density(grid, z, beta, lam)
    m_rho = grid.integrate(s * density)

    logq = log_q(m_star)
    shift = logq.max()
    log_mu = logq - (np.log(grid.integrate(np.exp(logq - shift))) + shift)
    kl = grid.integrate(density * (np.log(density) - log_mu))
    rhs = (m_rho - m_star) ** 2 + beta * kl
    return GapReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


@dataclass
class DyReport:
    analytic: float
    finite_diff: float
    abs_diff: float


def verify_dym_formula(z, beta, lam, grid: QuadratureGrid) -> DyReport:
    """Check d m* / d y = 2 Var(sigma) / (beta + 2 Var(sigma)) at mu*.

    The variance is computed under the quadrature equilibrium at z; the
    derivative is compared against a central difference in y.
    """
    x, y = unpack(z)
    m_star, density = solve_mu_star_quadrature(z, beta, lam, grid, VERIFY_ROOT_TOL)
    var = grid.integrate(_tanh_1d(x, grid.thetas) ** 2 * density) - m_star**2
    analytic = 2.0 * var / (beta + 2.0 * var)

    m_plus, _ = solve_mu_star_quadrature((x, y + DYM_FD_STEP), beta, lam, grid, VERIFY_ROOT_TOL)
    m_minus, _ = solve_mu_star_quadrature((x, y - DYM_FD_STEP), beta, lam, grid, VERIFY_ROOT_TOL)
    fd = (m_plus - m_minus) / (2.0 * DYM_FD_STEP)
    return DyReport(analytic=analytic, finite_diff=fd, abs_diff=abs(analytic - fd))
