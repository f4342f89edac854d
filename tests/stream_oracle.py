"""Reference streams for the tests: one channel at a time, each whole path at once.

``euler_ou_path`` steps one OU channel over its whole horizon from one
draw of all its normals, as ``mfonline.datastream`` did before it stepped
every channel of a draw together in blocks.  ``whole_path_periodic`` and
``whole_path_nonlinear`` build each scenario from it: the truth network's
(K, M, d) parameter path is one whole draw, and each trajectory's truth is
priced over the whole path.  They read the same substreams and do the same
arithmetic step by step, so the scenarios must agree with them bit for bit.
"""

import numpy as np

from mfonline.datastream import (
    NONLINEAR_AMPLITUDE,
    NONLINEAR_N_NEURONS,
    NONLINEAR_NOISE_OU,
    NONLINEAR_X_DIM,
    NONLINEAR_X_OU,
    PERIODIC_H,
    PERIODIC_NOISE_OU,
    PERIODIC_X_OU,
    PHI_INIT_SD,
    PHI_RATE,
    PHI_VOL,
    OuParams,
)
from mfonline.seeding import substream


def euler_ou_path(params, x0, n_steps, dt, rng):
    """Euler chain x_{k+1} = x_k - rate (x_k - mean) dt + vol sqrt(dt) xi_k
    from one (n_steps,) + shape(x0) draw of iid standard normals.

    Returns the states after each step, shape (n_steps,) + shape(x0); x0
    itself is not included.
    """
    x = np.array(x0, dtype=float, copy=True)
    out = np.empty((n_steps,) + x.shape)
    scale = params.vol * np.sqrt(dt)
    noise = rng.standard_normal((n_steps,) + x.shape)
    for k in range(n_steps):
        x = x - params.rate * (x - params.mean) * dt + scale * noise[k]
        out[k] = x
    return out


def _pair(seed, x_ou, x_shape, noise_ou, n_steps, dt, truth):
    """[(x, y, truth) of train, (x, y, truth) of test], truth mapping a
    covariate path to its truth channel."""
    out = []
    for part in ("train", "test"):
        rng = substream(seed, f"{part}-x")
        x0 = x_ou.mean + x_ou.stationary_sd() * rng.standard_normal(x_shape)
        xs = euler_ou_path(x_ou, x0, n_steps, dt, rng)
        xi = euler_ou_path(noise_ou, 0.0, n_steps, dt, substream(seed, f"{part}-xi"))
        f = truth(xs)
        out.append((xs, f + xi, f))
    return out


def whole_path_periodic(seed, n_steps, dt):
    """[(x, y, truth) of train, (x, y, truth) of test] for the periodic
    scenario at this seed, horizon and step."""
    coeff = np.sin(PERIODIC_H * dt * np.arange(1, n_steps + 1))
    return _pair(seed, PERIODIC_X_OU, (), PERIODIC_NOISE_OU, n_steps, dt,
                 lambda xs: coeff * xs)


def whole_path_nonlinear(seed, n_steps, dt):
    """[(x, y, truth) of train, (x, y, truth) of test] for the nonlinear
    scenario at this seed, horizon and step."""
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

    return _pair(seed, NONLINEAR_X_OU, NONLINEAR_X_DIM, NONLINEAR_NOISE_OU, n_steps, dt, truth)
