"""Offline benchmark learner: full-batch particle gradient descent.

The offline learner sees the whole training trajectory at once and fits a
static network by gradient descent on the batch objective

    L(theta_1..N) = (1/K) sum_k (m(x_k) - y_k)^2 + (lam / (2N)) sum_i |theta_i|^2

with m(x) the N-particle mean prediction.  Plain gradient descent,
theta <- theta - lr * dL/dtheta.  The particle count N, the penalty lam
and the init come from the online learner's OnpgdConfig, so both learners
fit the same network; OfflineFitConfig holds only the settings of the
batch descent.  No noise is injected; the fit is a deterministic function
of the init draw and the data.
"""

from dataclasses import dataclass

import numpy as np

from .measures import oos_mse
from .network import forward
from .onpgd import OnpgdConfig, init_ensemble, run_online
from .seeding import substream


class DivergenceError(RuntimeError):
    """Batch loss left the finite range during descent."""


@dataclass(frozen=True)
class OfflineFitConfig:
    iters: int = 2000
    learning_rate: float = 0.05

    def __post_init__(self):
        if not self.iters >= 1:
            raise ValueError("need at least one iteration")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")


def batch_loss(thetas, traj, lam: float, fwd=None) -> float:
    """The batch objective L; see module docstring.

    fwd is forward(thetas, traj.x), if the caller has it already.
    """
    thetas = np.asarray(thetas, dtype=float)
    vals, _ = forward(thetas, traj.x) if fwd is None else fwd
    m = vals.mean(axis=1)
    n = thetas.shape[0]
    penalty = 0.5 * lam / n * float(np.sum(thetas**2))
    return float(np.mean((m - traj.y) ** 2)) + penalty


def batch_loss_grad(thetas, traj, lam: float, fwd=None) -> np.ndarray:
    """Exact Euclidean gradient of batch_loss in the (N, d) particle array.

    fwd is forward(thetas, traj.x), if the caller has it already; its vals
    array is overwritten with the gradient's (K, N) intermediates.
    """
    thetas = np.asarray(thetas, dtype=float)
    n, d = thetas.shape
    K = traj.n_steps
    a = thetas[:, 0]
    vals, th = forward(thetas, traj.x) if fwd is None else fwd  # (K, N)
    r = vals.mean(axis=1) - traj.y  # (K,)
    p = np.multiply(th, th, out=vals)  # vals is not read again
    np.subtract(1.0, p, out=p)  # sech2
    c = 2.0 / (K * n)

    grad = np.empty_like(thetas)
    grad[:, 0] = c * (r @ th)
    np.multiply(r[:, None], p, out=p)  # p = r * sech2, (K, N)
    grad[:, 1:-1] = c * a[:, None] * (p.T @ traj.x)
    grad[:, -1] = c * a * p.sum(axis=0)
    grad += (lam / n) * thetas
    return grad


def fit_offline(traj, config: OfflineFitConfig, learner: OnpgdConfig, rng):
    """Full-batch descent of the learner's N-particle network with its
    penalty learner.lam, from init_ensemble(learner, ...) drawn from the
    Generator rng; returns (thetas, loss_trace).

    loss_trace[j] is the loss before iteration j (length iters + 1, so the
    last entry is the final loss).  Divergence (non-finite or loss above
    1e6) raises DivergenceError naming the iteration.  Each iteration runs
    one forward pass, shared by the loss and the gradient, into (K, N)
    buffers allocated once per call.
    """
    thetas = init_ensemble(learner, traj.x_dim + 2, rng)
    shape = (traj.n_steps, learner.n_particles)
    buffers = (np.empty(shape), np.empty(shape))

    trace = np.empty(config.iters + 1)
    for j in range(config.iters):
        fwd = forward(thetas, traj.x, out=buffers)
        loss = batch_loss(thetas, traj, learner.lam, fwd)
        trace[j] = loss
        if not np.isfinite(loss) or loss > 1e6:
            raise DivergenceError(f"batch loss {loss!r} at iteration {j}")
        grad = batch_loss_grad(thetas, traj, learner.lam, fwd)
        thetas = thetas - config.learning_rate * grad
    loss = batch_loss(thetas, traj, learner.lam, forward(thetas, traj.x, out=buffers))
    trace[-1] = loss
    if not np.isfinite(loss) or loss > 1e6:
        raise DivergenceError(f"batch loss {loss!r} at final iteration")
    return thetas, trace


def loss_trace_to_csv(trace, path):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["iter", "loss"])
        for j, v in enumerate(trace):
            w.writerow([j, repr(float(v))])


@dataclass
class OosComparison:
    """Paired out-of-sample MSEs of the two learners on one data draw."""

    mse_online: float
    mse_offline: float
    online_train_pred: np.ndarray
    offline_loss_trace: np.ndarray


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

    thetas, trace = fit_offline(train, offline_config, onpgd_config, substream(seed, "offline"))
    vals, _ = forward(thetas, test.x)
    mse_offline = oos_mse(vals.mean(axis=1), test)
    return OosComparison(
        mse_online=mse_online,
        mse_offline=mse_offline,
        online_train_pred=result.train_pred,
        offline_loss_trace=trace,
    )
