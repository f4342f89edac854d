"""Reference hindsight solver for the tests: damped fixed-point iteration.

Iterates u <- u + delta (U(u) - u) from u = 0, where U(u) is the vector of
reweighted predictions along the trajectory.  The step is gradient descent
with step delta on the strictly convex merit
    H(u) = |u|^2 / 2 + (beta K / 2) logsumexp_i(-(2/(beta K)) S_i (u - y)),
whose gradient is u - U(u).  A fixed delta can cycle when the tilt is
strong, so delta starts at 0.5 each iteration and halves until H
decreases by the Armijo amount.  Near a small tol that amount falls below
the rounding of H itself, where a test on H passes steps that leave H
unchanged to the last bit and let the iteration cycle; there a step is
taken when it lowers the fixed-point residual |U(u) - u|, which a short
enough gradient step on a strictly convex merit does.  It shares no
code with ``mfonline.equilibrium.solve_rho_star`` beyond the neuron
values, so the L-BFGS solver is checked against an independent iteration.
"""

import numpy as np
from scipy.special import logsumexp

from mfonline.network import forward


def damped_rho_star(traj, samples, beta, tol=1e-6, max_iters=500):
    """Return (u, n_iters, n_halvings) with max_k |U(u)_k - u_k| <= tol.

    n_halvings counts the step halvings over the whole run; it is 0 when
    the fixed step 0.5 always passed its test.  Raises RuntimeError after
    max_iters residual checks.
    """
    samples = np.asarray(samples, dtype=float)
    K = traj.n_steps
    S = np.empty((samples.shape[0], K))
    for k in range(K):
        S[:, k] = forward(samples, traj.x[k])[0]
    coef = -2.0 / (beta * K)
    scale = 0.5 * beta * K

    def merit_and_map(u):
        """(H(u), U(u), the rounding of H(u): a few ulps of its terms)."""
        expo = coef * (S @ (u - traj.y))
        lse = float(logsumexp(expo))
        h = 0.5 * float(u @ u) + scale * lse
        w = np.exp(expo - lse)
        return h, S.T @ w, 16 * np.finfo(float).eps * (0.5 * float(u @ u) + scale * abs(lse))

    u = np.zeros(K)
    h, u_map, h_round = merit_and_map(u)
    halvings = 0
    for it in range(1, max_iters + 1):
        r = u_map - u
        if float(np.max(np.abs(r))) <= tol:
            return u, it, halvings
        gg = float(r @ r)
        delta = 0.5
        for _ in range(60):
            u_new = u + delta * r
            h_new, map_new, round_new = merit_and_map(u_new)
            r_new = map_new - u_new
            if 1e-4 * delta * gg > h_round + round_new:  # H resolves the Armijo amount
                if h_new <= h - 1e-4 * delta * gg:
                    break
            elif float(r_new @ r_new) < gg:
                break
            delta *= 0.5
            halvings += 1
        u = u_new
        h, u_map, h_round = h_new, map_new, round_new
    raise RuntimeError(f"damped iteration did not reach tol {tol} in {max_iters} iterations")
