"""Reference neuron for the tests: one flat parameter vector at a time.

theta = (a, w_1..w_n, b) maps x to a * tanh(sum_j w_j x_j + b).  The loops
spell the formula out term by term so that the batched kernel
``mfonline.network.forward`` and the hand-written updates are checked
against an independent implementation.
"""

import math

import numpy as np


def _pre_activation(x, theta):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.asarray(theta, dtype=float)
    if t.ndim != 1 or t.size != x.size + 2:
        raise ValueError(f"theta has length {t.size}, expected {x.size + 2}")
    u = 0.0
    for j in range(x.size):
        u += t[1 + j] * x[j]
    return x, t, u + t[-1]


def sigma(x, theta) -> float:
    """Neuron output a * tanh(w @ x + b) for one parameter vector."""
    _, t, u = _pre_activation(x, theta)
    return float(t[0] * math.tanh(u))


def grad_sigma(x, theta) -> np.ndarray:
    """Gradient of sigma in theta, flat order (a, w, b).

    With u = w @ x + b: d/da = tanh(u), d/dw_j = a sech^2(u) x_j,
    d/db = a sech^2(u).
    """
    x, t, u = _pre_activation(x, theta)
    th = math.tanh(u)
    sech2 = 1.0 - th * th
    g = np.empty(t.size)
    g[0] = th
    for j in range(x.size):
        g[1 + j] = t[0] * sech2 * x[j]
    g[-1] = t[0] * sech2
    return g
