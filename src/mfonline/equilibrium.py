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

Each solver reports its measure as a ``WeightedMeasure``: the weights and
the two moments a cost needs, the prediction m (per data point for the
hindsight measure) and the second moment q = <rho, |theta|^2>, so the
samples never leave the solver.

Both normalize their weights with ``_logsumexp``, a numpy log-sum-exp
that takes the same steps as ``scipy.special.logsumexp`` and so gives the
same bits, without scipy's array-API dispatch on every root-finder step
or the import of ``scipy.special``.

A deterministic 1-d Simpson quadrature oracle solves the same equilibrium
for single-parameter neurons sigma(x, theta) = tanh(theta x) and backs the
closed-form identity checks: the free-energy gap decomposition and the
equilibrium prediction's response derivative.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .measures import sq_norms
from .network import forward, unpack


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


def _tanh_1d(x, thetas):
    """Single-parameter neuron tanh(x * theta) at a scalar covariate x."""
    return np.tanh(float(np.asarray(x).reshape(())) * thetas)


def default_sigma_fn(x, samples) -> np.ndarray:
    """Neuron values for samples (n, d): full tanh network when d >= 3,
    the single-parameter neuron tanh(theta * x) when d == 1."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be (n, d)")
    if samples.shape[1] == 1:
        return _tanh_1d(x, samples[:, 0])
    if samples.shape[1] >= 3:
        return forward(samples, np.atleast_1d(x))[0]
    raise ValueError("d == 2 has no default neuron; pass sigma_fn explicitly")


def _logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-d float array, bitwise equal to scipy's.

    The max-split form of Blanchard, Higham & Higham (IMA J. Numer. Anal.
    2021), step for step as ``scipy.special.logsumexp``: the m entries
    equal to the maximum leave the sum, the rest is shifted by the maximum,
    and the result is log1p(s / m) + log(m) + max.  Raises ValueError when
    the maximum is not finite (a NaN entry, +inf, or all -inf), where
    scipy would return NaN or an infinity.
    """
    a_max = a.max()
    if not np.isfinite(a_max):
        raise ValueError(f"log-sum-exp needs a finite maximum, got {a_max!r}")
    mask = a == a_max
    m = np.float64(np.count_nonzero(mask))
    t = a - a_max
    t[mask] = -np.inf
    np.exp(t, out=t)
    return np.log1p(t.sum() / m) + np.log(m) + a_max


def importance_weights(exponents) -> np.ndarray:
    """Normalized weights exp(exponents) / sum, max-shifted for stability."""
    exponents = np.asarray(exponents, dtype=float)
    w = exponents - _logsumexp(exponents)
    return np.exp(w, out=w)


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


def solve_mu_star(samples, z, beta, root_tol=1e-10, sigma_fn=None):
    """Instantaneous equilibrium from prior samples at one data point.

    Returns (m_star, measure): the fixed-point root and the measure at that
    tilt, whose prediction ``measure.m = Phi(m_star)`` reproduces m_star
    within root_tol.
    """
    x, y = unpack(z)
    samples = np.asarray(samples, dtype=float)
    svals = (sigma_fn or default_sigma_fn)(x, samples)
    # Phi(m) is a weighted mean of svals, so g > 0 at lo and g < 0 at hi;
    # at m = y the tilt vanishes and the first Newton step is linear response
    lo = float(svals.min()) - 1.0
    hi = float(svals.max()) + 1.0
    sq = svals * svals
    m_star, w = _newton_fixed_point(lambda m: _tilted_map(m, svals, sq, y, beta),
                                    lo, hi, float(y), root_tol)
    return m_star, WeightedMeasure(w, float(w @ svals), float(sq_norms(samples) @ w))


@dataclass
class RhoStarSolution:
    """Hindsight measure: the fixed point u along the trajectory, the
    measure at that tilt (``measure.m[k]`` is its prediction at x_k), and
    the L-BFGS diagnostics.

    ``residual_trace`` holds max_k |U(u)_k - u_k| at u = 0 and at every
    accepted iterate after it, so ``n_iters == len(residual_trace)`` and
    ``residual == residual_trace[-1]``.  ``n_evals`` counts residual
    evaluations, line-search trials included: two passes over S each."""

    u: np.ndarray
    measure: WeightedMeasure
    residual: float
    n_iters: int
    n_evals: int
    residual_trace: list = field(default_factory=list)


def _lbfgs(grad, x0, tol, max_iters):
    """Minimize a strongly convex function by L-BFGS from its gradient alone.

    ``grad(x)`` returns (g, aux), the gradient at x and what the caller
    wants back at the solution.  Directions come from the two-loop
    recursion over the last 10 pairs (s, y) of steps and gradient changes
    (Nocedal & Wright, Numerical Optimization, algorithm 7.4).  The line
    search reads only the slope d.g(x + t d): from t = 1 it doubles t until
    a trial passes the minimum along d, then bisects, and it takes the
    first t with |slope| <= 0.9 |d.g(x)| (the strong-Wolfe curvature test,
    which keeps s.y > 0).  No function value is computed.

    ``max_iters`` counts residual checks max |g| <= tol, the one at x0 and
    one per accepted step.  Returns (x, aux, trace, n_evals): the residual
    at x0 and at each accepted iterate, and the number of ``grad`` calls.
    Raises ConvergenceError, carrying the trace, when a gradient is not
    finite, when a line search takes 60 evaluations, or when the
    residual is still above tol after max_iters checks.
    """
    trace = []
    n_evals = 0

    def evaluate(x):
        nonlocal n_evals
        n_evals += 1
        g, aux = grad(x)
        if not np.all(np.isfinite(g)):
            raise ConvergenceError(f"L-BFGS: gradient not finite after {len(trace)} residual checks",
                                   residual_trace=trace)
        return g, aux

    x = np.array(x0, dtype=float)
    g, aux = evaluate(x)
    pairs = deque(maxlen=10)  # (s, y, 1 / s.y); 10 is scipy's default maxcor
    while True:
        trace.append(float(np.max(np.abs(g))))
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
        lo, hi, t = 0.0, np.inf, 1.0
        for _ in range(60):  # doublings to 2**59, or bisections to below an ulp
            g_new, aux_new = evaluate(x + t * d)
            slope = float(d @ g_new)
            if abs(slope) <= -0.9 * slope0:
                break
            if slope < 0:
                lo = t
            else:
                hi = t
            t = 2.0 * t if hi == np.inf else 0.5 * (lo + hi)
        else:
            raise ConvergenceError(f"L-BFGS line search exhausted its bracket [{lo}, {hi}] "
                                   "after 60 evaluations", residual_trace=trace)
        s, y = t * d, g_new - g
        pairs.append((s, y, 1.0 / float(s @ y)))
        x, g, aux = x + s, g_new, aux_new


def solve_rho_star(traj, samples, beta, tol=1e-6, max_iters=500) -> RhoStarSolution:
    """Hindsight benchmark over a whole trajectory by gradient-only L-BFGS.

    ``samples`` are network parameters, shape (n_is, n + 2) for the
    trajectory's covariate dimension n.  The tilt integral uses one rectangle of width dt per data point, and
    T = K dt, so the per-sample exponent is -(2 / (beta K)) sum_k
    (u_k - y_k) sigma(x_k, theta_i).  The fixed point u = U(u) of the
    reweighted predictions is the minimizer of the strictly convex merit
        H(u) = |u|^2 / 2 + (beta K / 2) logsumexp_i(-(2/(beta K)) S_i (u - y)),
    whose gradient is exactly u - U(u) and whose Hessian
    I + (2/(beta K)) Cov_w(S) is at least I.  ``_lbfgs`` runs from u = 0 on
    that gradient alone until the fixed-point residual
    max_k |U(u)_k - u_k| falls to tol.  ``max_iters`` counts residual
    checks, the one at u = 0 and one per accepted step.  Raises
    ConvergenceError, carrying the residual trace, when the residual is
    still above tol.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    samples = np.asarray(samples, dtype=float)
    K = traj.n_steps
    # row k holds the network neurons (d = n + 2) at x_k, written in place;
    # one matrix-matrix forward over all x_k can differ in the last bit
    S = np.empty((K, samples.shape[0]))
    buf = np.empty(samples.shape[0])
    for k in range(K):
        forward(samples, traj.x[k], out=(S[k], buf))
    coef = -2.0 / (beta * K)

    def residual_map(u):
        w = importance_weights(coef * ((u - traj.y) @ S))
        return u - S @ w, w

    u, w, trace, n_evals = _lbfgs(residual_map, np.zeros(K), tol, max_iters)
    # one dot per row: the bits of each point's own prediction, which S @ w
    # can miss in the last place
    preds = np.array([row @ w for row in S])
    measure = WeightedMeasure(w, preds, float(sq_norms(samples) @ w))
    return RhoStarSolution(u=u, measure=measure, residual=trace[-1], n_iters=len(trace),
                           n_evals=n_evals, residual_trace=trace)


# ---------------------------------------------------------------------------
# 1-d Simpson quadrature oracle (single-parameter neurons tanh(theta x))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform 1-d grid for composite Simpson; n_points must be odd >= 3."""

    lo: float
    hi: float
    n_points: int = 2001

    def __post_init__(self):
        if self.hi <= self.lo:
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


def _log_tilted_density(grid, z, beta, lam, m):
    """Unnormalized log density -lam th^2 / (2 beta) - (2/beta)(m - y) s(th)."""
    x, y = unpack(z)
    th = grid.thetas
    s = _tanh_1d(x, th)
    return -lam * th**2 / (2.0 * beta) - (2.0 / beta) * (m - y) * s, s


def solve_mu_star_quadrature(z, beta, lam, grid: QuadratureGrid, root_tol=1e-10):
    """Deterministic equilibrium solve on a 1-d grid.

    Returns (m_star, density) with the density Simpson-normalized on the
    grid.  Raises GridTooNarrowError when the endpoint density exceeds
    1e-12 of the peak, which would invalidate the integrals.
    """

    def phi(m):
        logq, s = _log_tilted_density(grid, z, beta, lam, m)
        q = np.exp(logq - logq.max())
        mass = grid.integrate(q)
        val = grid.integrate(s * q) / mass
        return val, -(2.0 / beta) * (grid.integrate(s * s * q) / mass - val * val), q

    x, y = unpack(z)
    s_end = _tanh_1d(x, grid.thetas)
    lo = float(s_end.min()) - 1.0
    hi = float(s_end.max()) + 1.0
    m_star, q = _newton_fixed_point(phi, lo, hi, float(y), root_tol)
    if q[0] > 1e-12 or q[-1] > 1e-12:
        raise GridTooNarrowError(
            f"endpoint density {max(q[0], q[-1]):.2e} of peak exceeds 1e-12; widen the grid"
        )
    density = q / grid.integrate(q)
    return m_star, density


def quadrature_free_energy(density, z, beta, lam, grid: QuadratureGrid) -> float:
    """F(rho) = m^2 - 2 y m + (lam/2) <rho, th^2> + beta int rho log rho.

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
    s = _tanh_1d(x, th)
    m = grid.integrate(s * density)
    moment = grid.integrate(th**2 * density)
    pos = density > 0
    ent_vals = np.zeros_like(density)
    ent_vals[pos] = density[pos] * np.log(density[pos])
    entropy_int = grid.integrate(ent_vals)
    return m * m - 2.0 * y * m + 0.5 * lam * moment + beta * entropy_int


@dataclass
class GapReport:
    lhs: float
    rhs: float
    abs_diff: float
    m_rho: float
    m_star: float


def verify_gap_decomposition(density, z, beta, lam, grid: QuadratureGrid) -> GapReport:
    """Check F(rho) - F(mu*) = (m_rho - m*)^2 + beta KL(rho || mu*).

    rho is a strictly positive normalized density on the grid.  Both sides
    are computed by Simpson quadrature with log-space KL for stability.
    """
    density = np.asarray(density, dtype=float)
    if np.any(density <= 0):
        raise ValueError("gap decomposition needs a strictly positive density")
    m_star, mu_density = solve_mu_star_quadrature(z, beta, lam, grid, root_tol=1e-12)

    f_rho = quadrature_free_energy(density, z, beta, lam, grid)
    f_mu = quadrature_free_energy(mu_density, z, beta, lam, grid)
    lhs = f_rho - f_mu

    x, y = unpack(z)
    s = _tanh_1d(x, grid.thetas)
    m_rho = grid.integrate(s * density)

    logq, _ = _log_tilted_density(grid, z, beta, lam, m_star)
    shift = logq.max()
    log_z = np.log(grid.integrate(np.exp(logq - shift))) + shift
    log_mu = logq - log_z
    kl = grid.integrate(density * (np.log(density) - log_mu))
    rhs = (m_rho - m_star) ** 2 + beta * kl
    return GapReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs), m_rho=m_rho, m_star=m_star)


@dataclass
class DyReport:
    analytic: float
    finite_diff: float
    abs_diff: float


def verify_dym_formula(z, beta, lam, grid: QuadratureGrid, fd_step=1e-4) -> DyReport:
    """Check d m* / d y = 2 Var(sigma) / (beta + 2 Var(sigma)) at mu*.

    The variance is computed under the quadrature equilibrium at z; the
    derivative is compared against a central difference in y.
    """
    x, y = unpack(z)
    m_star, density = solve_mu_star_quadrature(z, beta, lam, grid, root_tol=1e-12)
    s = _tanh_1d(x, grid.thetas)
    var = grid.integrate(s**2 * density) - m_star**2
    analytic = 2.0 * var / (beta + 2.0 * var)

    m_plus, _ = solve_mu_star_quadrature((x, y + fd_step), beta, lam, grid, root_tol=1e-12)
    m_minus, _ = solve_mu_star_quadrature((x, y - fd_step), beta, lam, grid, root_tol=1e-12)
    fd = (m_plus - m_minus) / (2.0 * fd_step)
    return DyReport(analytic=analytic, finite_diff=fd, abs_diff=abs(analytic - fd))
