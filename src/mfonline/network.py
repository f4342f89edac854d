"""The two-layer tanh neuron: the one neuron kernel of the package.

A neuron with parameter theta = (a, w, b) maps a covariate x to
``a * tanh(w @ x + b)``.  Parameters are flat vectors of length d = n + 2
in the order (a, w_1..w_n, b), stacked as rows of an (N, d) array.  The
network is the average of its neurons under a measure: ``measures.predict``
takes it for an ensemble, the benchmark solvers for their weighted samples.
"""

import numpy as np


def activations(thetas, X, out=None):
    """Activations tanh(X @ w.T + b) of an (N, d) parameter array.

    X is one covariate (n,) or a batch (K, n); the result has shape (N,)
    or (K, N).  Given out, a C-contiguous float64 array of that shape, the
    result is written into it and returned.
    """
    thetas = np.asarray(thetas, dtype=float)
    X = np.asarray(X, dtype=float)
    if thetas.ndim != 2 or X.ndim not in (1, 2) or thetas.shape[1] != X.shape[-1] + 2:
        raise ValueError("thetas must be (N, n+2) for covariate dimension n")
    th = np.dot(X, thetas[:, 1:-1].T, out=out)
    # a batch adds the bias from a contiguous copy, which the broadcast add
    # over its (K, N) rows reads about twice as fast as the strided column;
    # an elementwise add gives the same bits either way
    th += thetas[:, -1] if X.ndim == 1 else thetas[:, -1].copy()
    return np.tanh(th, out=th)


def forward(thetas, X):
    """Neuron values and activations of an (N, d) parameter array.

    Returns (a * t, t) with t = activations(thetas, X), each of shape (N,)
    or (K, N).
    """
    th = activations(thetas, X)
    return np.asarray(thetas)[:, 0] * th, th


def unpack(z):
    """A data point z = (x, y) as a covariate vector and a float response."""
    x, y = z
    return np.atleast_1d(np.asarray(x, dtype=float)), float(y)
