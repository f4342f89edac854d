"""Online noisy particle gradient descent on a streaming trajectory.

N particles follow the Euler discretization of an interacting Langevin
system driven by the data stream.  At step k with data (x, y) and particle
mean prediction m, each particle moves by

    theta' = theta + (-lam * theta - 2 (m - y) grad_sigma(x, theta)) * dt
             + sqrt(2 * beta * dt) * xi,      xi ~ N(0, I_d)

With self_interaction on (default), m is the full ensemble mean; off, each
particle sees the leave-one-out mean of the others.  Particles start from
N(0, init_sd^2 I_d), unit sd by default, or from the Gibbs prior
N(0, (beta / lam) I_d) at init_sd=None.  The step dt is the stream's own.

Convention: the state at data index k is the pre-update ensemble (k = 1 is
the initial draw), and the update at step k consumes z_k.  The recorded
moments and predictions follow the same predict-then-update indexing.
"""

from dataclasses import dataclass

import numpy as np

from .measures import predict, second_moment
from .network import forward


class BlowUpError(RuntimeError):
    """A particle coordinate left the finite range during training."""


@dataclass(frozen=True)
class OnpgdConfig:
    n_particles: int = 80
    lam: float = 0.1  # L2 penalty lambda
    beta: float = 0.02  # entropy / noise temperature
    self_interaction: bool = True
    init_sd: float | None = 1.0  # None: sqrt(beta / lam), the Gibbs prior's sd

    def __post_init__(self):
        if not self.n_particles >= 1:
            raise ValueError("need at least one particle")
        if not self.self_interaction and self.n_particles < 2:
            raise ValueError("n_particles (onpgd.n or an entry of sweep.n) must be >= 2 when "
                             "self_interaction (onpgd.self_interaction) is false: the "
                             f"leave-one-out mean needs two particles, got {self.n_particles!r}")
        self._require(lambda v: v >= 0, "nonnegative")
        if self.init_sd is None:
            self.prior_var()  # the Gibbs init
        elif not 0 < self.init_sd < np.inf:  # NaN fails too
            raise ValueError(f"init_sd (onpgd.init_sd) must be positive and finite, "
                             f"got {self.init_sd!r}")

    def _require(self, ok, what):
        """Raise ValueError naming beta or lam, whichever ok rejects first;
        NaN fails every comparison, so it is rejected too."""
        for name, key in (("beta", "onpgd.beta"), ("lam", "onpgd.lambda")):
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} ({key}) must be {what}, got {value!r}")

    def prior_var(self) -> float:
        """Variance beta / lam of the Gibbs prior N(0, (beta / lam) I_d) of
        the benchmarks; raises ValueError unless beta > 0 and lam > 0."""
        self._require(lambda v: v > 0, "positive for the Gibbs prior N(0, beta / lam)")
        return self.beta / self.lam

    def initial_sd(self) -> float:
        if self.init_sd is not None:
            return self.init_sd
        return float(np.sqrt(self.prior_var()))


def init_ensemble(config: OnpgdConfig, dim: int, rng) -> np.ndarray:
    """Draw config.n_particles particles iid from N(0, initial_sd^2 I_dim)
    as an (N, dim) array; the online and the offline learner both start
    here."""
    if dim < 3:
        raise ValueError("flat neuron dimension is n + 2 >= 3")
    return config.initial_sd() * rng.standard_normal((config.n_particles, dim))


def _advance(thetas, x, y, config, dt, noise, step_index):
    """One vectorized Euler step dt driven by noise, an (N, d) standard
    normal block; returns (new thetas, mean prediction).

    Raises BlowUpError naming step_index if the new state is not finite.
    """
    vals, th = forward(thetas, x)
    mean = vals.sum() / vals.size  # the bits of vals.mean(), at half its call cost
    # the interaction force's factor -2 (m - y), negated here so that the
    # drift is a sum; x - y and x + (-y) are the same IEEE operation
    if config.self_interaction:
        err = -2.0 * (mean - y)
    else:
        n = thetas.shape[0]
        err = (-2.0 * ((n * mean - vals) / (n - 1) - y))[:, None]

    grad = np.empty_like(thetas)
    grad[:, 0] = th
    asech2 = grad[:, -1]
    np.multiply(th, th, out=asech2)
    np.subtract(1.0, asech2, out=asech2)
    asech2 *= thetas[:, 0]
    np.multiply(asech2[:, None], x, out=grad[:, 1:-1])
    grad *= err

    # new = thetas + (-lam thetas + err grad) dt + sqrt(2 beta dt) noise,
    # accumulated in place in the result array
    new = -config.lam * thetas
    new += grad
    new *= dt
    new += thetas
    new += np.sqrt(2.0 * config.beta * dt) * noise
    if not np.isfinite(new).all():
        bad = np.argwhere(~np.isfinite(new))[0]
        raise BlowUpError(
            f"non-finite particle state at step {step_index}, "
            f"particle {bad[0]}, coordinate {bad[1]}"
        )
    return new, float(mean)


@dataclass
class OnlineRunResult:
    """Outputs of one training pass.

    train_pred[k-1] and train_q[k-1] are the two moments (m, q) of the
    pre-update ensemble at step k: its full-mean prediction at the train
    covariate x_k and its second moment.  extra_pred[k-1] is its prediction
    at predict_xs[k-1] (a test path's covariates).
    """

    train_pred: np.ndarray
    train_q: np.ndarray
    extra_pred: np.ndarray


def run_online(traj, config: OnpgdConfig, rng, predict_xs) -> OnlineRunResult:
    """Train on a trajectory at its step traj.dt, recording the ensemble's
    moments and predictions at every step.

    The Generator rng draws the initial ensemble and then one (N, d) noise
    block per step.  predict_xs must be a (K, n) covariate array, evaluated
    with the pre-update state each step.
    """
    K = traj.n_steps
    thetas = init_ensemble(config, traj.x_dim + 2, rng)

    predict_xs = np.asarray(predict_xs, dtype=float)
    if predict_xs.shape != (K, traj.x_dim):
        raise ValueError("predict_xs must be (K, n) matching the trajectory")

    train_pred = np.empty(K)
    train_q = np.empty(K)
    extra_pred = np.empty(K)

    for k in range(1, K + 1):
        train_q[k - 1] = second_moment(thetas)
        extra_pred[k - 1] = predict(thetas, predict_xs[k - 1])
        thetas, train_pred[k - 1] = _advance(thetas, traj.x[k - 1], traj.y[k - 1], config,
                                             traj.dt, rng.standard_normal(thetas.shape), k)

    return OnlineRunResult(train_pred=train_pred, train_q=train_q, extra_pred=extra_pred)
