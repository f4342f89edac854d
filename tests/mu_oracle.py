"""Reference equilibrium map for the tests, normalized by scipy's logsumexp.

``phi_from_vals`` is the fixed-point map of ``mfonline.equilibrium`` as it
reads with ``scipy.special.logsumexp``: the weights are
exp(e - logsumexp(e)) for the exponents e = -(2/beta)(m - y) sigma, and
the map returns their mean prediction.  ``oracle_mu_star`` bisects it with
the package's own bisection, so a solve that differs from it in any bit
points at the log-sum-exp.
"""

import numpy as np
from scipy.special import logsumexp

from mfonline.equilibrium import _bisect_fixed_point, default_sigma_fn


def phi_from_vals(m, svals, y, beta):
    """(mean prediction, weights) at tilt level m."""
    e = -(2.0 / beta) * (m - y) * svals
    w = np.exp(e - logsumexp(e))
    return float(w @ svals), w


def oracle_mu_star(samples, z, beta, root_tol):
    """(m_star, weights) by bisection on the scipy-normalized map."""
    x, y = z
    svals = default_sigma_fn(x, samples)
    lo, hi = float(svals.min()) - 1.0, float(svals.max()) + 1.0
    m_star = _bisect_fixed_point(lambda m: phi_from_vals(m, svals, y, beta)[0],
                                 lo, hi, root_tol, max_expansions=60)
    return m_star, phi_from_vals(m_star, svals, y, beta)[1]
