"""Synthetic diffusion data streams with drifting conditional laws.

Two scenario generators produce paired train/test trajectories observed on
a uniform grid t_k = k*dt, k = 1..K:

* periodic: scalar OU covariate, response sin(h t) * x plus an OU noise
  channel.  The regression function oscillates in time.
* nonlinear: 3-d OU covariate, response is a wide random tanh network whose
  neuron parameters themselves follow OU paths around frozen anchors, plus
  an OU noise channel.  One truth model is shared by train and test.

All randomness is drawn from named substreams of a master seed (train-x,
train-xi, test-x, test-xi, phi-init, phi-path), so outputs are identical no
matter how calls are scheduled.  Covariates start from the stationary law
of their OU process; observation noise starts at zero.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .network import forward
from .seeding import substream


@dataclass(frozen=True)
class OuParams:
    """Ornstein-Uhlenbeck coefficients: dX = -rate (X - mean) dt + vol dW.

    mean may be a scalar or an array broadcastable to the state shape.
    """

    rate: float
    mean: object = 0.0
    vol: float = 1.0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")
        if self.vol < 0:
            raise ValueError("vol must be nonnegative")

    def stationary_sd(self) -> float:
        if self.rate <= 0:
            raise ValueError("stationary law needs rate > 0")
        return self.vol / np.sqrt(2.0 * self.rate)


def euler_ou_path(params: OuParams, x0, n_steps: int, dt: float, rng) -> np.ndarray:
    """Euler chain x_{k+1} = x_k - rate (x_k - mean) dt + vol sqrt(dt) xi_k.

    Returns the states after each step, shape (n_steps,) + shape(x0); x0
    itself is not included.  Noise increments are iid standard normal.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.array(x0, dtype=float, copy=True)
    out = np.empty((n_steps,) + x.shape)
    scale = params.vol * np.sqrt(dt)
    noise = rng.standard_normal((n_steps,) + x.shape)
    for k in range(n_steps):
        x = x - params.rate * (x - params.mean) * dt + scale * noise[k]
        out[k] = x
    return out


@dataclass
class Trajectory:
    """Observed stream on the grid t_k = k*dt: covariates x (K, n),
    responses y (K,), and the noiseless truth channel when known."""

    dt: float
    x: np.ndarray
    y: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.y = np.asarray(self.y, dtype=float)
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of steps")
        if self.truth is not None and self.truth.shape[0] != self.y.shape[0]:
            raise ValueError("truth must align with y")

    @property
    def n_steps(self) -> int:
        return self.x.shape[0]

    @property
    def x_dim(self) -> int:
        return self.x.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.n_steps + 1)

    def to_csv(self, path):
        cols = ["k", "t"] + [f"x{j + 1}" for j in range(self.x_dim)] + ["y", "truth"]
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for k in range(self.n_steps):
                row = [k + 1, repr(float((k + 1) * self.dt))]
                row += [repr(float(v)) for v in self.x[k]]
                row.append(repr(float(self.y[k])))
                row.append("" if self.truth is None else repr(float(self.truth[k])))
                w.writerow(row)

    @staticmethod
    def from_csv(path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        n = sum(1 for c in header if c.startswith("x"))
        ks = np.array([float(r[0]) for r in body])
        ts = np.array([float(r[1]) for r in body])
        dt = ts[0] / ks[0]
        x = np.array([[float(v) for v in r[2 : 2 + n]] for r in body])
        y = np.array([float(r[2 + n]) for r in body])
        truth_raw = [r[3 + n] for r in body]
        truth = None if any(v == "" for v in truth_raw) else np.array([float(v) for v in truth_raw])
        return Trajectory(dt=dt, x=x, y=y, truth=truth)


def response_second_moment(traj: Trajectory) -> float:
    """Time-averaged squared response (1/K) sum_k y_k^2."""
    return float(np.mean(traj.y**2))


@dataclass(frozen=True)
class PeriodicConfig:
    dt: float = 0.02
    n_steps: int = 1000
    h: float = 0.3  # angular frequency of the regression coefficient
    x_ou: OuParams = field(default_factory=lambda: OuParams(rate=0.5, mean=0.0, vol=1.0))
    noise_ou: OuParams = field(default_factory=lambda: OuParams(rate=1.5, mean=0.0, vol=0.25))


@dataclass(frozen=True)
class NonlinearConfig:
    dt: float = 0.02
    n_steps: int = 1000
    x_dim: int = 3
    x_ou: OuParams = field(default_factory=lambda: OuParams(rate=0.7, mean=0.0, vol=0.7))
    noise_ou: OuParams = field(default_factory=lambda: OuParams(rate=5.0, mean=0.0, vol=0.2))
    n_neurons: int = 100  # width of the drifting truth network
    amplitude: float = 2.5  # numerator of the 2.5/M sum scaling
    phi_rate: float = 0.6
    phi_vol: float = 0.9
    phi_init_sd: float = 0.8


@dataclass
class NonlinearTruthModel:
    """Drifting truth f_t(x) = scale * sum_m sigma(x, phi_t^m).

    phi holds the parameter paths, shape (K, M, d); phi_bar the OU anchors.
    scale is the 2.5/M factor applied to the neuron sum.
    """

    scale: float
    phi_bar: np.ndarray
    phi: np.ndarray

    def evaluate(self, k_idx: int, x) -> float:
        """Truth value at grid index k_idx (0-based) and covariate x."""
        vals, _ = forward(self.phi[k_idx], x)
        return float(self.scale * vals.sum())

    def evaluate_path(self, xs: np.ndarray) -> np.ndarray:
        """Truth values along a covariate path xs of shape (K, n)."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[0] != self.phi.shape[0]:
            raise ValueError("covariate path length must match phi path")
        u = np.einsum("kmj,kj->km", self.phi[:, :, 1:-1], xs) + self.phi[:, :, -1]
        vals = self.phi[:, :, 0] * np.tanh(u)
        return self.scale * vals.sum(axis=1)


def _covariate_path(ou: OuParams, dim, n_steps, dt, rng) -> np.ndarray:
    sd = ou.stationary_sd()
    x0 = ou.mean + sd * rng.standard_normal(dim)
    return euler_ou_path(ou, x0, n_steps, dt, rng)


def gen_periodic(config: PeriodicConfig, seed: int):
    """Periodic scenario: returns (train, test) trajectories.

    Response y_k = sin(h t_k) x_k + xi_k with OU covariate and OU noise;
    the truth channel holds sin(h t_k) x_k.  Train and test use independent
    covariate and noise paths but the same deterministic coefficient.
    """
    K, dt = config.n_steps, config.dt
    coeff = np.sin(config.h * dt * np.arange(1, K + 1))

    def one(x_label, xi_label):
        xs = _covariate_path(config.x_ou, (), K, dt, substream(seed, x_label))
        xi = euler_ou_path(config.noise_ou, 0.0, K, dt, substream(seed, xi_label))
        truth = coeff * xs
        return Trajectory(dt=dt, x=xs[:, None], y=truth + xi, truth=truth)

    return one("train-x", "train-xi"), one("test-x", "test-xi")


def gen_nonlinear(config: NonlinearConfig, seed: int, return_truth_model=False):
    """Nonlinear scenario: returns (train, test) trajectories.

    One truth model per call: M neurons with OU parameter paths around
    anchors drawn once from N(0, phi_init_sd^2).  Train and test share the
    truth model and differ only in covariate and noise paths.
    """
    K, dt = config.n_steps, config.dt
    d = config.x_dim + 2
    M = config.n_neurons

    rng_init = substream(seed, "phi-init")
    phi_bar = config.phi_init_sd * rng_init.standard_normal((M, d))
    phi0 = config.phi_init_sd * rng_init.standard_normal((M, d))
    phi_ou = OuParams(rate=config.phi_rate, mean=phi_bar, vol=config.phi_vol)
    phi = euler_ou_path(phi_ou, phi0, K, dt, substream(seed, "phi-path"))
    model = NonlinearTruthModel(scale=config.amplitude / M, phi_bar=phi_bar, phi=phi)

    def one(x_label, xi_label):
        xs = _covariate_path(config.x_ou, config.x_dim, K, dt, substream(seed, x_label))
        xi = euler_ou_path(config.noise_ou, 0.0, K, dt, substream(seed, xi_label))
        truth = model.evaluate_path(xs)
        return Trajectory(dt=dt, x=xs, y=truth + xi, truth=truth)

    train, test = one("train-x", "train-xi"), one("test-x", "test-xi")
    if return_truth_model:
        return train, test, model
    return train, test
