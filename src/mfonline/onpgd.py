"""Online noisy particle gradient descent on a streaming trajectory.

N particles follow the Euler discretization of an interacting Langevin
system driven by the data stream.  At step k with data (x, y) and particle
mean prediction m, each particle moves by

    theta' = theta + (-lam * theta - 2 (m - y) grad_sigma(x, theta)) * dt
             + sqrt(2 * beta * dt) * xi,      xi ~ N(0, I_d)

With self_interaction on (default), m is the full ensemble mean; off, each
particle sees the leave-one-out mean of the others.  Particles start from
the Gibbs prior N(0, (beta / lam) I_d) unless an explicit init_sd is given.

Convention: the state at data index k is the pre-update ensemble (k = 1 is
the initial draw), and the update at step k consumes z_k.  Snapshots and
recorded predictions follow the same predict-then-update indexing.
"""

from dataclasses import dataclass

import numpy as np

from .measures import predict
from .network import forward, unpack
from .seeding import substream


class BlowUpError(RuntimeError):
    """A particle coordinate left the finite range during training."""


@dataclass(frozen=True)
class OnpgdConfig:
    n_particles: int = 80
    lam: float = 0.1  # L2 penalty lambda
    beta: float = 0.02  # entropy / noise temperature
    dt: float = 0.02
    self_interaction: bool = True
    init_sd: float | None = None  # default sqrt(beta / lam)

    def __post_init__(self):
        if not self.n_particles >= 1:
            raise ValueError("need at least one particle")
        if not self.self_interaction and self.n_particles < 2:
            raise ValueError("leave-one-out mean needs at least two particles")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (self.beta >= 0 and self.lam >= 0):
            raise ValueError("beta and lam must be nonnegative")
        if self.init_sd is None and self.lam == 0:
            raise ValueError("lam = 0 has no Gibbs prior; give init_sd explicitly")

    def initial_sd(self) -> float:
        if self.init_sd is not None:
            return self.init_sd
        return float(np.sqrt(self.beta / self.lam))


@dataclass
class ParticleEnsemble:
    """Particle states (N, d) plus the number of update steps taken."""

    thetas: np.ndarray
    steps_taken: int = 0

    def __post_init__(self):
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.thetas.ndim != 2:
            raise ValueError("thetas must be (N, d)")

    @property
    def n_particles(self) -> int:
        return self.thetas.shape[0]

    @property
    def dim(self) -> int:
        return self.thetas.shape[1]


def init_ensemble(config: OnpgdConfig, dim: int, rng_or_seed) -> ParticleEnsemble:
    """Draw N particles iid from N(0, initial_sd^2 I_dim)."""
    if dim < 3:
        raise ValueError("flat neuron dimension is n + 2 >= 3")
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, np.random.Generator)
        else np.random.default_rng(rng_or_seed)
    )
    thetas = config.initial_sd() * rng.standard_normal((config.n_particles, dim))
    return ParticleEnsemble(thetas=thetas, steps_taken=0)


def _advance(thetas, x, y, config, noise, step_index):
    """One vectorized Euler update; returns (new thetas, mean prediction).

    Raises BlowUpError naming step_index if the new state is not finite.
    """
    vals, th = forward(thetas, x)
    a = thetas[:, 0]
    mean = vals.mean()
    if config.self_interaction:
        err = (mean - y) * np.ones_like(vals)
    else:
        n = thetas.shape[0]
        err = (n * mean - vals) / (n - 1) - y

    sech2 = 1.0 - th * th
    asech2 = a * sech2
    grad = np.empty_like(thetas)
    grad[:, 0] = th
    grad[:, 1:-1] = asech2[:, None] * x[None, :]
    grad[:, -1] = asech2

    drift = -config.lam * thetas - 2.0 * err[:, None] * grad
    new = thetas + drift * config.dt
    if noise is not None:
        new = new + np.sqrt(2.0 * config.beta * config.dt) * noise
    if not np.all(np.isfinite(new)):
        bad = np.argwhere(~np.isfinite(new))[0]
        raise BlowUpError(
            f"non-finite particle state at step {step_index}, "
            f"particle {bad[0]}, coordinate {bad[1]}"
        )
    return new, float(mean)


def step(ensemble: ParticleEnsemble, z, config: OnpgdConfig, rng=None, noise=None) -> ParticleEnsemble:
    """One Euler update consuming data point z = (x, y); returns a new ensemble.

    Noise is drawn from rng as a single (N, d) block unless supplied
    explicitly, which makes permutation and hand-step checks exact.
    """
    x, y = unpack(z)
    thetas = ensemble.thetas
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != thetas.shape:
            raise ValueError("noise must have shape (N, d)")
    elif config.beta > 0:
        if rng is None:
            raise ValueError("rng required when beta > 0 and noise not supplied")
        noise = rng.standard_normal(thetas.shape)
    steps_taken = ensemble.steps_taken + 1
    new, _ = _advance(thetas, x, y, config, noise, steps_taken)
    return ParticleEnsemble(thetas=new, steps_taken=steps_taken)


@dataclass
class OnlineRunResult:
    """Outputs of one training pass.

    snapshots: list of (k, thetas) pre-update states at the requested
    indices.  train_pred[k-1] is the pre-update full-mean prediction at the
    train covariate x_k; extra_pred the same at the supplied covariates
    (e.g. a test path).  final is the ensemble after all K steps.
    """

    snapshots: list
    train_pred: np.ndarray
    extra_pred: np.ndarray | None
    final: ParticleEnsemble


def run_online(traj, config: OnpgdConfig, seed, snapshot_at=(), predict_xs=None) -> OnlineRunResult:
    """Train on a trajectory, recording predictions and optional snapshots.

    seed feeds two substreams ("init", "noise"); an explicit Generator is
    also accepted and then serves both.  snapshot_at lists the data indices
    (1..K) whose pre-update states are kept.  predict_xs, when given, must
    be a (K, n) covariate array evaluated with the pre-update state each step.
    """
    K = traj.n_steps
    dim = traj.x_dim + 2
    if isinstance(seed, np.random.Generator):
        rng_init = rng_noise = seed
    else:
        rng_init = substream(seed, "init")
        rng_noise = substream(seed, "noise")
    ens = init_ensemble(config, dim, rng_init)

    want = set(snapshot_at)
    if predict_xs is not None:
        predict_xs = np.asarray(predict_xs, dtype=float)
        if predict_xs.shape != (K, traj.x_dim):
            raise ValueError("predict_xs must be (K, n) matching the trajectory")

    snapshots = []
    train_pred = np.empty(K)
    extra_pred = np.empty(K) if predict_xs is not None else None

    thetas = ens.thetas
    for k in range(1, K + 1):
        if k in want:
            snapshots.append((k, thetas.copy()))
        if extra_pred is not None:
            extra_pred[k - 1] = predict(thetas, predict_xs[k - 1])
        noise = rng_noise.standard_normal(thetas.shape) if config.beta > 0 else None
        thetas, train_pred[k - 1] = _advance(thetas, traj.x[k - 1], traj.y[k - 1], config, noise, k)

    final = ParticleEnsemble(thetas=thetas, steps_taken=K)
    return OnlineRunResult(
        snapshots=snapshots, train_pred=train_pred, extra_pred=extra_pred, final=final
    )
