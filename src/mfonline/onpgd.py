"""Online noisy particle gradient descent on a streaming trajectory.

N particles follow the Euler discretization of an interacting Langevin
system driven by the data stream.  At step k with data (x, y) and particle
mean prediction m, each particle moves by

    theta' = theta + (-lam * theta - 2 (m - y) grad_sigma(x, theta)) * dt
             + sqrt(2 * beta * dt) * xi,      xi ~ N(0, I_d)

where m is the full ensemble mean.  Particles start from N(0, init_sd^2 I_d),
unit sd by default, or from the Gibbs prior N(0, (beta / lam) I_d) at
init_sd=None.  The step dt is the stream's own.

Convention: the state at data index k is the pre-update ensemble (k = 1 is
the initial draw), and the update at step k consumes z_k.  The recorded
moments and predictions follow the same predict-then-update indexing.
"""

import math
from dataclasses import dataclass

import numpy as np

from .measures import second_moment
from .network import activations


class BlowUpError(RuntimeError):
    """A particle coordinate left the finite range during training."""


@dataclass(frozen=True)
class OnpgdConfig:
    n_particles: int = 80
    lam: float = 0.1  # L2 penalty lambda
    beta: float = 0.02  # entropy / noise temperature
    init_sd: float | None = 1.0  # None: sqrt(beta / lam), the Gibbs prior's sd

    def __post_init__(self):
        if not self.n_particles >= 1:
            raise ValueError("need at least one particle")
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


def _draw_kicks(rng, config, dt, out):
    """Fill out, a C-contiguous (..., N, d) array, with the noise terms
    sqrt(2 beta dt) xi of as many Euler steps, xi standard normal: the
    normals of one (N, d) draw per step, in order.  Returns out."""
    rng.standard_normal(out=out)
    out *= np.sqrt(2.0 * config.beta * dt)
    return out


def _advance(thetas, xs, y, config, dt, kick, step_index, out):
    """One vectorized Euler step dt of the ensemble thetas into out, an
    (N, d) array, on the data point (xs[1], y), driven by kick, the step's
    noise term from _draw_kicks.  xs pairs a scored covariate with the
    train covariate.  Returns the pre-update ensemble's mean predictions
    at the two and second_moment(out).

    Raises BlowUpError naming step_index if the new state is not finite.
    """
    N = len(thetas)
    th = np.empty((2, N))
    # one activations call per row: a (2, n) batch is one BLAS matrix
    # product, whose bits differ from a single covariate's at n >= 3
    activations(thetas, xs[0], out=th[0])
    activations(thetas, xs[1], out=th[1])
    sums = np.add.reduce(thetas[:, 0] * th, axis=1)
    mean = sums[1] / N

    # the interaction force as rows (d, N), so that each product runs along
    # a contiguous row; times the force's factor -2 (m - y), negated here so
    # that the drift is a sum; x - y and x + (-y) are the same IEEE operation
    t = th[1]
    force = np.empty(out.shape[::-1])
    force[0] = t
    asech2 = force[-1]
    np.multiply(t, t, out=asech2)
    np.subtract(1.0, asech2, out=asech2)
    asech2 *= thetas[:, 0]
    np.multiply(xs[1][:, None], asech2, out=force[1:-1])
    force *= -2.0 * (mean - y)

    # out = thetas + (-lam thetas + force) dt + kick, accumulated in place
    np.multiply(thetas, -config.lam, out=out)
    out += force.T
    out *= dt
    out += thetas
    out += kick
    # the sum of squares is finite whenever every entry is, so the entrywise
    # test runs only when it is not, and a sum that merely overflows passes
    q = second_moment(out)
    if not math.isfinite(q) and not np.isfinite(out).all():
        bad = np.argwhere(~np.isfinite(out))[0]
        raise BlowUpError(
            f"non-finite particle state at step {step_index}, "
            f"particle {bad[0]}, coordinate {bad[1]}"
        )
    return sums[0] / N, mean, q


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


# run_online draws the noise of as many steps at once as fit in this many
# floats (0.4 MB), and of one step at least
NOISE_BLOCK_FLOATS = 50_000


def run_online(traj, config: OnpgdConfig, rng, predict_xs) -> OnlineRunResult:
    """Train on a trajectory at its step traj.dt, recording the ensemble's
    moments and predictions at every step.

    The Generator rng draws the initial ensemble and then one (N, d) noise
    block per step, NOISE_BLOCK_FLOATS // (N d) steps' blocks at a time.
    predict_xs must be a (K, n) covariate array, evaluated with the
    pre-update state each step.
    """
    K = traj.n_steps
    thetas = init_ensemble(config, traj.x_dim + 2, rng)

    predict_xs = np.asarray(predict_xs, dtype=float)
    if predict_xs.shape != (K, traj.x_dim):
        raise ValueError("predict_xs must be (K, n) matching the trajectory")

    train_pred = np.empty(K)
    train_q = np.empty(K)
    extra_pred = np.empty(K)

    nxt = np.empty_like(thetas)
    q = second_moment(thetas)
    block = min(K, max(1, NOISE_BLOCK_FLOATS // thetas.size))
    kicks = np.empty((block,) + thetas.shape)
    for lo in range(0, K, block):
        hi = min(lo + block, K)
        _draw_kicks(rng, config, traj.dt, kicks[:hi - lo])
        for k in range(lo + 1, hi + 1):
            train_q[k - 1] = q
            extra_pred[k - 1], train_pred[k - 1], q = _advance(
                thetas, (predict_xs[k - 1], traj.x[k - 1]), traj.y[k - 1], config, traj.dt,
                kicks[k - 1 - lo], k, nxt)
            thetas, nxt = nxt, thetas

    return OnlineRunResult(train_pred=train_pred, train_q=train_q, extra_pred=extra_pred)
