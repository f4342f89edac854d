"""Offline benchmark learner: full-batch particle gradient descent.

The offline learner sees the whole training trajectory at once and fits a
static network by gradient descent on the batch objective

    L(theta_1..N) = (1/K) sum_k (m(x_k) - y_k)^2 + (lam / (2N)) sum_i |theta_i|^2

with m(x) the N-particle mean prediction.  Plain gradient descent,
theta <- theta - LEARNING_RATE * dL/dtheta.  The particle count N, the
penalty lam and the init come from the online learner's OnpgdConfig, so
both learners fit the same network; OfflineFitConfig holds only the
iteration count of the batch descent.  No noise is injected; the fit is a
deterministic function of the init draw and the data.
"""

from dataclasses import dataclass

import numpy as np

from .measures import oos_mse, second_moment
from .network import activations, forward
from .onpgd import OnpgdConfig, init_ensemble, run_online
from .seeding import substream


LEARNING_RATE = 0.05  # the batch descent's step


class DivergenceError(RuntimeError):
    """Batch loss left the finite range during descent."""


@dataclass(frozen=True)
class OfflineFitConfig:
    iters: int = 2000

    def __post_init__(self):
        if not self.iters >= 1:
            raise ValueError("need at least one iteration")


def batch_loss(thetas, traj, lam: float, th=None) -> float:
    """The batch objective L; see module docstring.

    th is activations(thetas, traj.x), if the caller has it already.
    """
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0]
    th = activations(thetas, traj.x) if th is None else th  # (K, N)
    m = th @ thetas[:, 0] / n
    return float(np.mean((m - traj.y) ** 2)) + 0.5 * lam * second_moment(thetas)


def batch_loss_grad(thetas, traj, lam: float, th=None) -> np.ndarray:
    """Exact Euclidean gradient of batch_loss in the (N, d) particle array.

    th is activations(thetas, traj.x), if the caller has it already; it is
    overwritten with the gradient's (K, N) sech^2 intermediates.  Every
    reduction over the K data points is a BLAS matrix-vector or
    matrix-matrix product.
    """
    thetas = np.asarray(thetas, dtype=float)
    n, d = thetas.shape
    K = traj.n_steps
    a = thetas[:, 0]
    th = activations(thetas, traj.x) if th is None else th  # (K, N)
    r = th @ a / n - traj.y  # (K,)
    rx = np.empty((K, d - 1))  # r * (x, 1), the right factor of the w and b rows
    np.multiply(r[:, None], traj.x, out=rx[:, :-1])
    rx[:, -1] = r
    c = 2.0 / (K * n)

    grad = np.empty_like(thetas)
    grad[:, 0] = c * (r @ th)
    sech2 = np.square(th, out=th)  # th is not read again
    np.subtract(1.0, sech2, out=sech2)
    grad[:, 1:] = c * a[:, None] * (sech2.T @ rx)
    grad += (lam / n) * thetas
    return grad


def fit_offline(traj, config: OfflineFitConfig, learner: OnpgdConfig, rng):
    """Full-batch descent of the learner's N-particle network with its
    penalty learner.lam, from init_ensemble(learner, ...) drawn from the
    Generator rng; returns (thetas, loss_trace, grad_max).

    loss_trace[j] is the loss before iteration j (length iters + 1, so the
    last entry is the final loss).  grad_max is max |grad| of the gradient
    of the last iteration, at the parameters before its step.  Divergence
    (non-finite or loss above 1e6) raises DivergenceError naming the
    iteration, iters for the final loss.  Each of the iters + 1 passes
    computes the activations once, shared by the loss and the gradient,
    into one (K, N) buffer allocated once per call.
    """
    thetas = init_ensemble(learner, traj.x_dim + 2, rng)
    th = np.empty((traj.n_steps, learner.n_particles))

    trace = np.empty(config.iters + 1)
    for j in range(config.iters + 1):
        activations(thetas, traj.x, out=th)
        loss = batch_loss(thetas, traj, learner.lam, th)
        trace[j] = loss
        if not np.isfinite(loss) or loss > 1e6:
            raise DivergenceError(f"batch loss {loss!r} at iteration {j}")
        if j < config.iters:
            grad = batch_loss_grad(thetas, traj, learner.lam, th)
            thetas = thetas - LEARNING_RATE * grad
    return thetas, trace, float(np.abs(grad).max())


@dataclass
class OosComparison:
    """Paired out-of-sample MSEs of the two learners on one data draw."""

    mse_online: float
    mse_offline: float
    offline_loss_trace: np.ndarray
    offline_grad_max: float  # max |grad| of the fit's last step, before that step


def compare_oos(train, test, onpgd_config: OnpgdConfig, offline_config: OfflineFitConfig,
                seed) -> OosComparison:
    """Train both learners on the same train data, evaluate both on test.

    Both fit the network of onpgd_config (particle count, penalty, init
    law).  The online learner's prediction at test step k uses its
    pre-update state; the offline learner predicts with its final static
    parameters at every step.
    """
    result = run_online(train, onpgd_config, substream(seed, "onpgd"), predict_xs=test.x)
    mse_online = oos_mse(result.extra_pred, test)

    thetas, trace, grad_max = fit_offline(train, offline_config, onpgd_config,
                                          substream(seed, "offline"))
    vals, _ = forward(thetas, test.x)
    mse_offline = oos_mse(vals.mean(axis=1), test)
    return OosComparison(
        mse_online=mse_online,
        mse_offline=mse_offline,
        offline_loss_trace=trace,
        offline_grad_max=grad_max,
    )
