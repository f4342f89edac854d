"""The two-layer tanh neuron: the one neuron kernel of the package.

A neuron with parameter theta = (a, w, b) maps a covariate x to
``a * tanh(w @ x + b)``.  Parameters are flat vectors of length d = n + 2
in the order (a, w_1..w_n, b), stacked as rows of an (N, d) array.  The
network is the average of its neurons under an ensemble or a weighted
measure; ``measures.predict`` takes that average.
"""

import numpy as np


def forward(thetas, X, out=None):
    """Neuron values and activations of an (N, d) parameter array.

    X is one covariate (n,) or a batch (K, n).  Returns (a * tanh(u),
    tanh(u)) with u = X @ w.T + b, each of shape (N,) or (K, N).  Given
    out=(vals, th), two float arrays of that shape, the results are written
    into them and they are returned, so a loop allocates nothing per call.
    """
    thetas = np.asarray(thetas, dtype=float)
    X = np.asarray(X, dtype=float)
    if thetas.ndim != 2 or X.ndim not in (1, 2) or thetas.shape[1] != X.shape[-1] + 2:
        raise ValueError("thetas must be (N, n+2) for covariate dimension n")
    vals, th = out or (None, None)
    th = np.matmul(X, thetas[:, 1:-1].T, out=th)
    th += thetas[:, -1]
    np.tanh(th, out=th)
    vals = np.multiply(thetas[:, 0], th, out=vals)
    return vals, th


def unpack(z):
    """A data point z = (x, y) as a covariate vector and a float response."""
    x, y = z
    return np.atleast_1d(np.asarray(x, dtype=float)), float(y)
