"""Synthetic diffusion data streams with drifting conditional laws.

Two scenario generators produce paired train/test trajectories observed on
the uniform grid t_k = k*DT, k = 1..K:

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
constants below, and a generator takes only the seed and the horizon
n_steps, which defaults to N_STEPS.
"""

from dataclasses import dataclass, replace

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
        if not self.rate >= 0:
            raise ValueError("rate must be nonnegative")
        if not self.vol >= 0:
            raise ValueError("vol must be nonnegative")

    def stationary_sd(self) -> float:
        if self.rate <= 0:
            raise ValueError("stationary law needs rate > 0")
        return self.vol / np.sqrt(2.0 * self.rate)


def euler_ou_blocks(channels, n_steps: int):
    """Step Euler OU chains together at the grid step DT, PHI_BLOCK steps
    at a time.

    channels is a sequence of (params, x0, rng).  A channel starts at x0,
    a scalar or an array, and draws its standard normals from its own
    Generator rng, one (b,) + shape(x0) array per block of b steps: the
    normals of one (n_steps,) + shape(x0) draw.  The coordinates of all
    channels form one flat state, and each step is the chain
    x' = x - rate (x - mean) DT + vol sqrt(DT) xi with every channel's
    (rate, mean, vol) spread over its coordinates, so a channel's bits do
    not depend on the channels stepped with it.

    Yields (lo, hi, states) per block, states holding one view per
    channel, of shape (hi - lo,) + shape(x0): the states after steps
    lo + 1 .. hi; x0 itself is not included.  The next block overwrites
    them.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    shapes, cols, x, rate, mean = [], [], [], [], []
    start = 0
    for params, x0, _ in channels:
        x0 = np.asarray(x0, dtype=float)
        shapes.append(x0.shape)
        cols.append(slice(start, start + x0.size))
        start += x0.size
        x.append(x0.ravel())
        rate.append(np.full(x0.size, params.rate))
        mean.append(np.broadcast_to(params.mean, x0.shape).ravel())
    x, rate, mean = (np.concatenate(v) for v in (x, rate, mean))
    block = min(PHI_BLOCK, n_steps)
    states, kicks = np.empty((block, x.size)), np.empty((block, x.size))
    for lo in range(0, n_steps, block):
        b = min(block, n_steps - lo)
        for (params, _, rng), shape, col in zip(channels, shapes, cols):
            np.multiply(rng.standard_normal((b,) + shape).reshape(b, -1), params.vol * np.sqrt(DT),
                        out=kicks[:b, col])
        prev = x
        for row, kick in zip(states[:b], kicks[:b]):
            # x - (rate (x - mean)) DT + kick, in that order
            np.subtract(prev, mean, out=row)
            row *= rate
            row *= DT
            np.subtract(prev, row, out=row)
            row += kick
            prev = row
        x[:] = prev
        yield lo, lo + b, [states[:b, col].reshape((b,) + shape)
                           for shape, col in zip(shapes, cols)]


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
        if not self.dt > 0:
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


N_STEPS, DT = 1000, 0.02  # both scenarios' default horizon K and their one grid step
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
PHI_OU = OuParams(rate=PHI_RATE, vol=PHI_VOL)  # its mean is each draw's anchors
PHI_INIT_SD = 0.8
# A draw steps all of its OU channels together (euler_ou_blocks) and prices
# the truth in blocks of PHI_BLOCK steps, so it holds one (PHI_BLOCK, M, d)
# block of the truth network's parameter path and its normals (about
# 0.4 MB each at M*d = 500) rather than the whole (K, M, d) path, and its
# memory does not grow with n_steps.
PHI_BLOCK = 100


def _stream_pair(seed, x_ou, x_shape, noise_ou, n_steps, truth, extra):
    """Train and test trajectories with independent covariate and noise
    paths from the seed's train-x/train-xi and test-x/test-xi substreams,
    stepped together with the extra (params, x0, rng) channels.

    truth(lo, hi, xs, *extra_states) prices a trajectory's truth channel
    over steps lo + 1 .. hi from its covariates xs there and the extra
    channels' states over the same steps.
    """
    channels = []
    for part in ("train", "test"):
        rng = substream(seed, f"{part}-x")
        x0 = x_ou.mean + x_ou.stationary_sd() * rng.standard_normal(x_shape)
        channels += [(x_ou, x0, rng), (noise_ou, 0.0, substream(seed, f"{part}-xi"))]
    xs = [np.empty((n_steps,) + x_shape) for _ in range(2)]
    xis, truths = ([np.empty(n_steps) for _ in range(2)] for _ in range(2))
    for lo, hi, states in euler_ou_blocks(channels + extra, n_steps):
        for j, (x, xi, f) in enumerate(zip(xs, xis, truths)):
            x[lo:hi], xi[lo:hi] = states[2 * j], states[2 * j + 1]
            f[lo:hi] = truth(lo, hi, x[lo:hi], *states[4:])
    return tuple(Trajectory(dt=DT, x=x, y=truth + xi, truth=truth)
                 for x, xi, truth in zip(xs, xis, truths))


def gen_periodic(seed: int, n_steps: int = N_STEPS):
    """Periodic scenario: returns (train, test) trajectories.

    Response y_k = sin(h t_k) x_k + xi_k, h = PERIODIC_H, with OU covariate
    and OU noise; the truth channel holds sin(h t_k) x_k.  Train and test
    use independent covariate and noise paths but the same deterministic
    coefficient.
    """
    coeff = np.sin(PERIODIC_H * DT * np.arange(1, n_steps + 1))
    return _stream_pair(seed, PERIODIC_X_OU, (), PERIODIC_NOISE_OU, n_steps,
                        lambda lo, hi, xs: coeff[lo:hi] * xs, [])


def gen_nonlinear(seed: int, n_steps: int = N_STEPS):
    """Nonlinear scenario: returns (train, test) trajectories.

    One truth network per call, f_k(x) = (NONLINEAR_AMPLITUDE / M) sum_m
    sigma(x, phi_k^m): the parameters of its M neurons follow OU paths around
    anchors drawn once from N(0, PHI_INIT_SD^2).  Train and test share it
    and differ only in covariate and noise paths.  The parameter path is
    one more channel of the draw, stepped from the one phi-path stream, and
    each block of it prices both trajectories, so its bits are those of one
    whole (K, M, d) draw.
    """
    M, d = NONLINEAR_N_NEURONS, NONLINEAR_X_DIM + 2

    rng_init = substream(seed, "phi-init")
    phi_bar = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi0 = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi_path = (replace(PHI_OU, mean=phi_bar), phi0, substream(seed, "phi-path"))

    def truth(lo, hi, xs, phi):  # phi: (hi - lo, M, d)
        u = np.einsum("kmj,kj->km", phi[:, :, 1:-1], xs) + phi[:, :, -1]
        vals = phi[:, :, 0] * np.tanh(u)
        return NONLINEAR_AMPLITUDE / M * vals.sum(axis=1)

    return _stream_pair(seed, NONLINEAR_X_OU, (NONLINEAR_X_DIM,), NONLINEAR_NOISE_OU,
                        n_steps, truth, [phi_path])

