"""Equilibrium and hindsight benchmark measures, plus identity verifiers.

Two Gibbs-type benchmarks are solved by importance sampling from the prior
N(0, prior_var I_d), where prior_var = beta / lam is fixed by the
learner's temperature and penalty:

* the instantaneous equilibrium for one data point z = (x, y).  Its mean
  prediction m* satisfies the scalar fixed point m = Phi(m) where Phi
  reweights prior samples by exp(-(2/beta) (m - y) sigma(x, theta)).  Its
  slope is Phi'(m) = -(2/beta) Var(sigma) under the tilted measure, so
  g(m) = Phi(m) - m has slope <= -1 and crosses zero exactly once, inside
  [min sigma - 1, max sigma + 1]; a safeguarded Newton iteration on the
  exact slope finds it.

* the hindsight measure for a whole trajectory, reweighting by the
  time-averaged tilt exp(-(2/(beta T)) sum_k (u_k - y_k) sigma(x_k, theta) dt)
  where u_k is the measure's own prediction at x_k; solved by L-BFGS on
  the convex merit H whose gradient is the fixed-point residual.

Both normalize their weights with ``_logsumexp``, a numpy log-sum-exp
that takes the same steps as ``scipy.special.logsumexp`` and so gives the
same bits, without scipy's array-API dispatch on every root-finder step
or the import of ``scipy.special``.

A deterministic 1-d Simpson quadrature oracle solves the same equilibrium
for single-parameter neurons sigma(x, theta) = tanh(theta x) and backs the
closed-form identity checks: the free-energy gap decomposition and the
equilibrium prediction's response derivative.
"""

from dataclasses import dataclass, field

import numpy as np

from .measures import WeightedMeasure
from .network import forward, unpack


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach tolerance; carries the trace."""

    def __init__(self, message, residual_trace=None):
        super().__init__(message)
        self.residual_trace = residual_trace or []


class GridTooNarrowError(ValueError):
    """Quadrature grid endpoints carry non-negligible density mass."""


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
    starts at ``start`` (at the midpoint if that lies outside), shrinks the
    bracket by the sign of g at every evaluation, and takes the bracket's
    midpoint whenever a Newton step would leave it.  Returns (m, aux) of
    the first evaluation with |g(m)| <= root_tol, or of the last one once
    the bracket has shrunk to a few ulps.  Raises ConvergenceError when
    g(m) is not finite or after max_iters evaluations.
    """
    m = start if lo < start < hi else 0.5 * (lo + hi)
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
        m = step if lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceError(f"Newton stalled after {max_iters} evaluations: bracket [{lo}, {hi}]")


def solve_mu_star(samples, z, beta, root_tol=1e-10, sigma_fn=None):
    """Instantaneous equilibrium from prior samples at one data point.

    Returns (m_star, measure): the fixed-point prediction and the weighted
    sample measure at that tilt.  Post: the measure's reweighted mean
    prediction reproduces m_star within root_tol.
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
    return m_star, WeightedMeasure(samples=samples, weights=w)


@dataclass
class RhoStarSolution:
    """Hindsight measure: predictions u along the trajectory, the weighted
    sample measure, and the L-BFGS diagnostics on the convex merit H.

    ``residual_trace`` holds max_k |U(u)_k - u_k| at u = 0 and at every
    accepted iterate after it, so ``n_iters == len(residual_trace)`` and
    ``residual == residual_trace[-1]``."""

    u: np.ndarray
    measure: object
    residual: float
    n_iters: int
    residual_trace: list = field(default_factory=list)


class _HindsightMerit:
    """Merit H(u) - H(a) of the hindsight fixed point and its gradient u - U(u).

    The anchor a is the start of the current L-BFGS run.  Near a the merit
    is evaluated as (|u|^2 - |a|^2) / 2 + (beta K / 2) log1p(sum_i w_i(a)
    expm1(d_i)), with d the change of the exponents from a, so that it
    resolves the small decreases of the final steps; logsumexp of the whole
    exponent rounds them away once residuals near 1e-9.  The last
    evaluation is kept, because L-BFGS asks again at each accepted iterate.
    """

    def __init__(self, S, y, beta):
        K = S.shape[0]
        self.S = S
        self.coef = -2.0 / (beta * K)
        self.scale = 0.5 * beta * K
        u = np.zeros(K)
        expo = self.coef * ((u - y) @ S)
        self._keep(u, 0.0, expo, float(_logsumexp(expo)))
        self.anchor_at(u)

    def _keep(self, u, h, expo, lse):
        """Record the evaluation at u: merit h, exponents, their logsumexp."""
        self.u, self.h, self.expo, self.lse = u.copy(), h, expo, lse
        self.grad = u - self.S @ np.exp(expo - lse)

    def anchor_at(self, u):
        """Measure the merit from u; H(u) becomes 0, its gradient is unchanged."""
        self(u)
        self.anchor = (self.u, self.expo, self.lse, np.exp(self.expo - self.lse))
        self.h = 0.0

    def __call__(self, u):
        if not np.array_equal(u, self.u):
            a, expo_a, lse_a, w_a = self.anchor
            d = self.coef * ((u - a) @ self.S)
            expo = expo_a + d
            # near a, expm1 cannot overflow and log1p(s) is well conditioned
            s = float(w_a @ np.expm1(d)) if d.max() < 1.0 else np.inf
            if -0.5 < s < 1.0:
                gain = float(np.log1p(s))
            else:
                gain = float(_logsumexp(expo)) - lse_a
            h = 0.5 * float((u - a) @ (u + a)) + self.scale * gain
            self._keep(u, h, expo, lse_a + gain)
        return self.h, self.grad.copy()

    def residual(self, u):
        """Fixed-point residual max_k |U(u)_k - u_k| = max_k |grad H(u)_k|."""
        return float(np.max(np.abs(self(u)[1])))


def solve_rho_star(traj, samples, beta, tol=1e-6, max_iters=500,
                   sigma_fn=None) -> RhoStarSolution:
    """Hindsight benchmark over a whole trajectory by L-BFGS on the convex merit H.

    The tilt integral uses one rectangle of width dt per data point, and
    T = K dt, so the per-sample exponent is -(2 / (beta K)) sum_k
    (u_k - y_k) sigma(x_k, theta_i).  The fixed point u = U(u) of the
    reweighted predictions is the minimizer of the strictly convex merit
        H(u) = |u|^2 / 2 + (beta K / 2) logsumexp_i(-(2/(beta K)) S_i (u - y)),
    whose gradient is exactly u - U(u).  L-BFGS (scipy's L-BFGS-B without
    bounds) runs from u = 0 until the fixed-point residual
    max_k |U(u)_k - u_k| = max_k |grad H(u)_k| falls to tol; a flat merit
    never stops it.  If a run stops above tol because its line search can
    no longer tell merit values apart, a fresh run starts from the last
    iterate with the merit measured from there (``_HindsightMerit``).
    ``max_iters`` counts residual checks, the one at u = 0 and one per
    accepted step, so at most max_iters - 1 steps are taken.  Raises
    ConvergenceError, carrying the residual trace, when the residual is
    still above tol.
    """
    # imported here: scipy.optimize takes about 0.3 s to import, and only
    # the hindsight benchmark needs it
    from scipy.optimize import minimize

    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    samples = np.asarray(samples, dtype=float)
    K = traj.n_steps
    fn = sigma_fn or default_sigma_fn
    S = np.empty((K, samples.shape[0]))
    for k in range(K):
        S[k] = fn(traj.x[k], samples)
    merit = _HindsightMerit(S, traj.y, beta)

    u = np.zeros(K)
    trace = [merit.residual(u)]
    message = "no step taken"
    while trace[-1] > tol and len(trace) < max_iters:
        merit.anchor_at(u)
        res = minimize(
            merit, u, jac=True, method="L-BFGS-B",
            callback=lambda intermediate_result: trace.append(merit.residual(intermediate_result.x)),
            options={"gtol": tol, "ftol": 0.0, "maxiter": max_iters - len(trace)},
        )
        message = res.message
        if np.array_equal(res.x, u):
            break
        u = res.x
    residual = merit.residual(u)
    if residual > tol:
        raise ConvergenceError(
            f"hindsight L-BFGS: residual {residual:.3e} > tol {tol} "
            f"after {len(trace)} residual checks ({message})",
            residual_trace=trace,
        )
    measure = WeightedMeasure(samples=samples, weights=importance_weights(merit.expo))
    return RhoStarSolution(
        u=u, measure=measure, residual=residual, n_iters=len(trace), residual_trace=trace
    )


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
