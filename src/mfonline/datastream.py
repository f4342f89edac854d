"""Synthetic diffusion data streams with drifting conditional laws.

Two scenario generators produce paired train/test trajectories observed on
a uniform grid t_k = k*dt, k = 1..K:

* periodic: scalar OU covariate, response sin(h t) * x plus an OU noise
  channel.  The regression function oscillates in time.
* nonlinear: 3-d OU covariate, response is a wide random tanh network whose
  neuron parameters themselves follow OU paths around frozen anchors, plus
  an OU noise channel.  One drifting network is shared by train and test.

All randomness is drawn from named substreams of a master seed (train-x,
train-xi, test-x, test-xi, phi-init, phi-path), so outputs are identical no
matter how calls are scheduled.  Covariates start from the stationary law
of their OU process; observation noise starts at zero.

Both scenarios are fixed models: their coefficients are the module
constants below, and a generator takes only the seed, the horizon n_steps
and the step dt, which default to N_STEPS and DT.
"""

from dataclasses import dataclass

import numpy as np

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


def response_second_moment(traj: Trajectory) -> float:
    """Time-averaged squared response (1/K) sum_k y_k^2."""
    return float(np.mean(traj.y**2))


N_STEPS, DT = 1000, 0.02  # both scenarios' default horizon K and grid step
# periodic scenario
PERIODIC_H = 0.3  # angular frequency of the regression coefficient
PERIODIC_X_OU = OuParams(rate=0.5, mean=0.0, vol=1.0)
PERIODIC_NOISE_OU = OuParams(rate=1.5, mean=0.0, vol=0.25)
# nonlinear scenario; PHI_* drive the truth network's parameter paths
NONLINEAR_X_DIM = 3
NONLINEAR_X_OU = OuParams(rate=0.7, mean=0.0, vol=0.7)
NONLINEAR_NOISE_OU = OuParams(rate=5.0, mean=0.0, vol=0.2)
NONLINEAR_N_NEURONS = 100  # width of the drifting truth network
NONLINEAR_AMPLITUDE = 2.5  # numerator of the 2.5/M sum scaling
PHI_RATE = 0.6
PHI_VOL = 0.9
PHI_INIT_SD = 0.8


def _stream_pair(seed, x_ou, x_shape, noise_ou, n_steps, dt, truth_fn):
    """Train and test trajectories with independent covariate and noise
    paths from the seed's train-x/train-xi and test-x/test-xi substreams;
    truth_fn maps a covariate path to its truth channel."""
    pair = []
    for part in ("train", "test"):
        rng = substream(seed, f"{part}-x")
        x0 = x_ou.mean + x_ou.stationary_sd() * rng.standard_normal(x_shape)
        xs = euler_ou_path(x_ou, x0, n_steps, dt, rng)
        xi = euler_ou_path(noise_ou, 0.0, n_steps, dt, substream(seed, f"{part}-xi"))
        truth = truth_fn(xs)
        pair.append(Trajectory(dt=dt, x=xs, y=truth + xi, truth=truth))
    return tuple(pair)


def gen_periodic(seed: int, n_steps: int = N_STEPS, dt: float = DT):
    """Periodic scenario: returns (train, test) trajectories.

    Response y_k = sin(h t_k) x_k + xi_k, h = PERIODIC_H, with OU covariate
    and OU noise; the truth channel holds sin(h t_k) x_k.  Train and test
    use independent covariate and noise paths but the same deterministic
    coefficient.
    """
    coeff = np.sin(PERIODIC_H * dt * np.arange(1, n_steps + 1))
    return _stream_pair(seed, PERIODIC_X_OU, (), PERIODIC_NOISE_OU, n_steps, dt,
                        lambda xs: coeff * xs)


def gen_nonlinear(seed: int, n_steps: int = N_STEPS, dt: float = DT):
    """Nonlinear scenario: returns (train, test) trajectories.

    One truth network per call, f_k(x) = (NONLINEAR_AMPLITUDE / M) sum_m
    sigma(x, phi_k^m): the parameters of its M neurons follow OU paths around
    anchors drawn once from N(0, PHI_INIT_SD^2).  Train and test share it
    and differ only in covariate and noise paths.
    """
    M, d = NONLINEAR_N_NEURONS, NONLINEAR_X_DIM + 2

    rng_init = substream(seed, "phi-init")
    phi_bar = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi0 = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi_ou = OuParams(rate=PHI_RATE, mean=phi_bar, vol=PHI_VOL)
    phi = euler_ou_path(phi_ou, phi0, n_steps, dt, substream(seed, "phi-path"))  # (K, M, d)

    def truth(xs):
        u = np.einsum("kmj,kj->km", phi[:, :, 1:-1], xs) + phi[:, :, -1]
        vals = phi[:, :, 0] * np.tanh(u)
        return NONLINEAR_AMPLITUDE / M * vals.sum(axis=1)

    return _stream_pair(seed, NONLINEAR_X_OU, NONLINEAR_X_DIM, NONLINEAR_NOISE_OU,
                        n_steps, dt, truth)
