"""Reference equilibrium map for the tests, normalized by scipy's logsumexp.

``tilted_map`` is the fixed-point map of ``mfonline.equilibrium`` with
the weights normalized by ``scipy.special.logsumexp`` instead of the
package's one-pass softmax: exp(e - logsumexp(e)) for the exponents
e = -(2/beta)(m - y) sigma.  It returns their mean prediction, its slope
-(2/beta) Var(sigma) and the weights.  ``oracle_mu_star`` drives the
package's own Newton root finder with it, so the two solves differ only
in how the weights are normalized, and their roots lie within 2 root_tol
of each other.
"""

import numpy as np
from scipy.special import logsumexp

from mfonline.equilibrium import _newton_fixed_point
from mfonline.network import forward


def tilted_map(m, svals, sq, y, beta):
    """(mean prediction, its slope in m, weights) at tilt level m."""
    e = -(2.0 / beta) * (m - y) * svals
    w = np.exp(e - logsumexp(e))
    val = float(w @ svals)
    return val, -(2.0 / beta) * (float(w @ sq) - val * val), w


def oracle_mu_star(samples, z, beta, root_tol):
    """(m_star, weights) by Newton on the scipy-normalized map."""
    x, y = z
    svals = forward(samples, np.atleast_1d(x))[0]
    sq = svals * svals
    lo, hi = float(svals.min()) - 1.0, float(svals.max()) + 1.0
    return _newton_fixed_point(lambda m: tilted_map(m, svals, sq, y, beta),
                               lo, hi, float(y), root_tol)


def bisect_fixed_point(phi, lo, hi, root_tol, max_iters=300):
    """(m, evaluations): the package's former solver, bisection of [lo, hi].

    ``phi(m)`` returns Phi(m) alone.  The ends are evaluated first, then
    midpoints, until |Phi(m) - m| <= root_tol or the bracket has shrunk
    to a few ulps."""
    g_lo, g_hi = phi(lo) - lo, phi(hi) - hi
    evals = 2
    assert g_lo >= 0 >= g_hi, "the fixed point must lie in [lo, hi]"
    if abs(g_lo) <= root_tol:
        return lo, evals
    if abs(g_hi) <= root_tol:
        return hi, evals
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        g_mid = phi(mid) - mid
        evals += 1
        if abs(g_mid) <= root_tol:
            return mid, evals
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            return mid, evals
    raise AssertionError(f"bisection stalled: interval [{lo}, {hi}]")
