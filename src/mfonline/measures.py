"""Ensemble moments and the instantaneous cost functional.

An ensemble of particles, an (N, d) array, is the empirical measure of
the learner.  The cost of a measure rho at a data point z = (x, y)
depends on rho only through two moments, its prediction
m = <rho, sigma(x, .)> and its second moment q = <rho, |theta|^2>:

    U(rho, z) = m^2 - 2 y m + (lam / 2) q

which differs from the squared prediction error (m - y)^2 + penalty by the
measure-independent constant y^2; cost_u_unreg drops the penalty term.
The benchmark solvers in ``equilibrium`` report their measures' (m, q)
directly, so every cost is priced from numbers.
"""

import numpy as np

from .network import forward


def predict(thetas, x) -> float:
    """Network prediction m = <rho, sigma(x, .)> of an ensemble (N, d)."""
    return float(forward(thetas, x)[0].mean())


def sq_norms(thetas) -> np.ndarray:
    """Row squared norms |theta_i|^2 of an (n, d) array.

    The squared columns are added left to right: for d < 8 the bits of
    np.sum(thetas**2, axis=1), at a fifth of its cost for tall arrays."""
    sq = thetas[:, 0] * thetas[:, 0]
    for j in range(1, thetas.shape[1]):
        sq += thetas[:, j] * thetas[:, j]
    return sq


def second_moment(thetas) -> float:
    """q = <rho, |theta|^2> of an ensemble (N, d): the dot product of the
    flattened array with itself, over N."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("ensemble must be a 2-d array (N, d)")
    return float(np.vdot(thetas, thetas) / thetas.shape[0])


def cost_u(m, q, y, lam: float) -> float:
    """Regularized instantaneous cost U = m^2 - 2 y m + (lam / 2) q."""
    return m * m - 2.0 * y * m + 0.5 * lam * q


def cost_u_unreg(m, y) -> float:
    """Cost without the L2 penalty: m^2 - 2 y m."""
    return m * m - 2.0 * y * m


def oos_mse(predictions, test) -> float:
    """Mean squared error of per-step predictions (length K) on a test trajectory."""
    preds = np.asarray(predictions, dtype=float)
    if preds.shape != (test.n_steps,):
        raise ValueError(f"need {test.n_steps} predictions, got shape {preds.shape}")
    return float(np.mean((preds - test.y) ** 2))
