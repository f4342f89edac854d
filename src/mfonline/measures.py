"""Measures over parameter space and the instantaneous cost functional.

An ensemble of particles is the empirical measure (uniform weights); the
equilibrium solvers produce weighted sample measures.  The cost of a
measure rho at a data point z = (x, y) is

    U(rho, z) = m^2 - 2 y m + (lam / 2) <rho, |theta|^2>,   m = <rho, sigma(x, .)>

which differs from the squared prediction error (m - y)^2 + penalty by the
measure-independent constant y^2; cost_u_unreg drops the penalty term.
Entropy is not defined for sample measures and lives in the quadrature
code instead.
"""

from dataclasses import dataclass

import numpy as np

from .network import forward, unpack


@dataclass
class WeightedMeasure:
    """Sample measure: rows of samples (n, d) with probability weights."""

    samples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError("samples must be a 2-d array (n, d)")
        if self.weights.shape != (self.samples.shape[0],):
            raise ValueError("weights must be a vector matching the sample count")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")

    def ess(self) -> float:
        """Effective sample size 1 / sum w_i^2."""
        return float(1.0 / np.sum(self.weights**2))


def _samples_weights(measure):
    if isinstance(measure, WeightedMeasure):
        return measure.samples, measure.weights
    thetas = np.asarray(measure, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("ensemble must be a 2-d array (N, d)")
    return thetas, None


def predict(measure, x) -> float:
    """Network prediction m = <rho, sigma(x, .)> under an ensemble or measure."""
    thetas, weights = _samples_weights(measure)
    vals, _ = forward(thetas, x)
    if weights is None:
        return float(vals.sum() / vals.size)  # the bits of vals.mean(), at half its call cost
    return float(vals @ weights)


def second_moment(measure) -> float:
    """<rho, |theta|^2> for an ensemble array or weighted measure."""
    thetas, weights = _samples_weights(measure)
    # squared columns added left to right: for d < 8 the bits of
    # np.sum(thetas**2, axis=1), at a fifth of its cost for tall thetas
    sq = thetas[:, 0] * thetas[:, 0]
    for j in range(1, thetas.shape[1]):
        sq += thetas[:, j] * thetas[:, j]
    if weights is None:
        return float(sq.mean())
    return float(sq @ weights)


def cost_u(measure, z, lam: float) -> float:
    """Regularized instantaneous cost U(rho, z); see module docstring."""
    x, y = unpack(z)
    m = predict(measure, x)
    return m * m - 2.0 * y * m + 0.5 * lam * second_moment(measure)


def cost_u_unreg(measure, z) -> float:
    """Cost without the L2 penalty: m^2 - 2 y m."""
    x, y = unpack(z)
    m = predict(measure, x)
    return m * m - 2.0 * y * m


def oos_mse(predictions, test) -> float:
    """Mean squared error of per-step predictions (length K) on a test trajectory."""
    preds = np.asarray(predictions, dtype=float)
    if preds.shape != (test.n_steps,):
        raise ValueError(f"need {test.n_steps} predictions, got shape {preds.shape}")
    return float(np.mean((preds - test.y) ** 2))
