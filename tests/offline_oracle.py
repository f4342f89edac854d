"""Reference batch objective for the tests, in broadcast form.

``batch_loss`` and ``batch_loss_grad`` spell out the objective of
``mfonline.offline`` through the neuron values a_i tanh(u_ki): the mean
prediction is their row mean, and the residual r_k scales the (K, N)
derivative arrays elementwise before each sum over k.  The package folds
the 1/N and the residual into BLAS products instead, which sum in another
order, so the two agree to a few ulps, not bit for bit.
"""

import numpy as np

from mfonline.network import forward


def batch_loss(thetas, traj, lam):
    """(1/K) sum_k (m(x_k) - y_k)^2 + (lam / (2N)) sum_i |theta_i|^2."""
    thetas = np.asarray(thetas, dtype=float)
    vals, _ = forward(thetas, traj.x)
    m = vals.mean(axis=1)
    n = thetas.shape[0]
    penalty = 0.5 * lam / n * float(np.sum(thetas**2))
    return float(np.mean((m - traj.y) ** 2)) + penalty


def batch_loss_grad(thetas, traj, lam):
    """Gradient of batch_loss in the (N, d) particle array."""
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    K = traj.n_steps
    a = thetas[:, 0]
    vals, th = forward(thetas, traj.x)  # (K, N)
    r = vals.mean(axis=1) - traj.y  # (K,)
    p = r[:, None] * (1.0 - th * th)  # r * sech^2, (K, N)
    c = 2.0 / (K * n)

    grad = np.empty_like(thetas)
    grad[:, 0] = c * (r @ th)
    grad[:, 1:-1] = c * a[:, None] * (p.T @ traj.x)
    grad[:, -1] = c * a * p.sum(axis=0)
    grad += (lam / n) * thetas
    return grad
