"""Offline benchmark learner: full-batch particle gradient descent.

The offline learner sees the whole training trajectory at once and fits a
static network by gradient descent on the batch objective

    L(theta_1..N) = (1/K) sum_k (m(x_k) - y_k)^2 + (lam / (2N)) sum_i |theta_i|^2

with m(x) the N-particle mean prediction.  Plain gradient descent,
theta <- theta - lr * dL/dtheta, from the same Gibbs init as the online
learner.  No noise is injected; the fit is a deterministic function of the
init draw and the data.
"""

from dataclasses import dataclass

import numpy as np

from .measures import oos_mse
from .network import forward
from .onpgd import OnpgdConfig, run_online
from .seeding import substream


class DivergenceError(RuntimeError):
    """Batch loss left the finite range during descent."""


@dataclass(frozen=True)
class OfflineFitConfig:
    n_particles: int = 80
    lam: float = 0.1
    iters: int = 2000
    learning_rate: float = 0.05
    init_sd: float | None = None  # default sqrt(beta/lam) with beta below
    beta: float = 0.02  # only sets the init scale; no noise is injected

    def __post_init__(self):
        if not (self.n_particles >= 1 and self.iters >= 1):
            raise ValueError("need at least one particle and one iteration")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be positive")

    def initial_sd(self) -> float:
        if self.init_sd is not None:
            return self.init_sd
        if self.lam <= 0:
            raise ValueError("lam = 0 has no Gibbs prior; give init_sd explicitly")
        return float(np.sqrt(self.beta / self.lam))


def batch_loss(thetas, traj, lam: float) -> float:
    """The batch objective L; see module docstring."""
    thetas = np.asarray(thetas, dtype=float)
    vals, _ = forward(thetas, traj.x)
    m = vals.mean(axis=1)
    n = thetas.shape[0]
    penalty = 0.5 * lam / n * float(np.sum(thetas**2))
    return float(np.mean((m - traj.y) ** 2)) + penalty


def batch_loss_grad(thetas, traj, lam: float) -> np.ndarray:
    """Exact Euclidean gradient of batch_loss in the (N, d) particle array."""
    thetas = np.asarray(thetas, dtype=float)
    n, d = thetas.shape
    K = traj.n_steps
    a = thetas[:, 0]
    vals, th = forward(thetas, traj.x)  # (K, N)
    r = vals.mean(axis=1) - traj.y  # (K,)
    sech2 = 1.0 - th * th
    c = 2.0 / (K * n)

    grad = np.empty_like(thetas)
    grad[:, 0] = c * (r @ th)
    p = r[:, None] * sech2  # (K, N)
    grad[:, 1:-1] = c * a[:, None] * (p.T @ traj.x)
    grad[:, -1] = c * a * p.sum(axis=0)
    grad += (lam / n) * thetas
    return grad


def fit_offline(traj, config: OfflineFitConfig, seed):
    """Full-batch descent from the Gibbs init; returns (thetas, loss_trace).

    loss_trace[j] is the loss before iteration j (length iters + 1, so the
    last entry is the final loss).  Divergence (non-finite or loss above
    1e6) raises DivergenceError naming the iteration.
    """
    dim = traj.x_dim + 2
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, "offline-init")
    thetas = config.initial_sd() * rng.standard_normal((config.n_particles, dim))

    trace = np.empty(config.iters + 1)
    for j in range(config.iters):
        loss = batch_loss(thetas, traj, config.lam)
        trace[j] = loss
        if not np.isfinite(loss) or loss > 1e6:
            raise DivergenceError(f"batch loss {loss!r} at iteration {j}")
        thetas = thetas - config.learning_rate * batch_loss_grad(thetas, traj, config.lam)
    loss = batch_loss(thetas, traj, config.lam)
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

    The online learner's prediction at test step k uses its pre-update
    state; the offline learner predicts with its final static parameters
    at every step.
    """
    result = run_online(train, onpgd_config, substream(seed, "onpgd"), predict_xs=test.x)
    mse_online = oos_mse(result.extra_pred, test)

    thetas, trace = fit_offline(train, offline_config, substream(seed, "offline"))
    vals, _ = forward(thetas, test.x)
    mse_offline = oos_mse(vals.mean(axis=1), test)
    return OosComparison(
        mse_online=mse_online,
        mse_offline=mse_offline,
        online_train_pred=result.train_pred,
        offline_loss_trace=trace,
    )
