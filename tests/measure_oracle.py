"""Reference predictions of ensembles and weighted sample measures for
the tests.

``predict`` is the prediction of an ensemble (N, d) at one covariate,
the mean of its neuron values, against which the learner's reported
predictions are checked.  A benchmark measure is a
set of prior samples (n, d) with probability weights.  The package never
forms these moments from samples: its solvers report them.  The weighted
forms below are the ones it used to evaluate through a
``(samples, weights)`` object, so a solver whose (m, q) differs from them
in any bit has changed a dot product.
"""

import numpy as np

from mfonline.network import forward


def predict(thetas, x) -> float:
    """Network prediction m = <rho, sigma(x, .)> of an ensemble (N, d)."""
    return float(forward(thetas, x)[0].mean())


def weighted_predict(samples, weights, x) -> float:
    """Prediction m = <rho, sigma(x, .)> = sum_i w_i sigma(x, theta_i)."""
    vals, _ = forward(samples, np.atleast_1d(np.asarray(x, dtype=float)))
    return float(vals @ weights)


def weighted_second_moment(samples, weights) -> float:
    """Second moment q = <rho, |theta|^2> = sum_i w_i |theta_i|^2."""
    return float(np.sum(samples**2, axis=1) @ weights)
