"""Reference nonlinear stream for the tests: the whole parameter path at once.

``whole_path_nonlinear`` draws the truth network's (K, M, d) parameter
path and its (K, M, d) normals in one call and prices each trajectory's
truth over the whole path, as ``mfonline.datastream.gen_nonlinear`` did
before it stepped the path in blocks.  It reads the same substreams and
does the same arithmetic step by step, so the two must agree bit for bit.
"""

import numpy as np

from mfonline.datastream import (
    NONLINEAR_AMPLITUDE,
    NONLINEAR_N_NEURONS,
    NONLINEAR_NOISE_OU,
    NONLINEAR_X_DIM,
    NONLINEAR_X_OU,
    PHI_INIT_SD,
    PHI_RATE,
    PHI_VOL,
    OuParams,
    euler_ou_path,
)
from mfonline.seeding import substream


def whole_path_nonlinear(seed, n_steps, dt):
    """[(x, y, truth) of train, (x, y, truth) of test] for the nonlinear
    scenario at this seed, horizon and step."""
    M, d = NONLINEAR_N_NEURONS, NONLINEAR_X_DIM + 2

    rng_init = substream(seed, "phi-init")
    phi_bar = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi0 = PHI_INIT_SD * rng_init.standard_normal((M, d))
    phi_ou = OuParams(rate=PHI_RATE, mean=phi_bar, vol=PHI_VOL)
    phi = euler_ou_path(phi_ou, phi0, n_steps, dt, substream(seed, "phi-path"))  # (K, M, d)

    out = []
    for part in ("train", "test"):
        rng = substream(seed, f"{part}-x")
        x0 = NONLINEAR_X_OU.mean + NONLINEAR_X_OU.stationary_sd() * rng.standard_normal(
            NONLINEAR_X_DIM)
        xs = euler_ou_path(NONLINEAR_X_OU, x0, n_steps, dt, rng)
        xi = euler_ou_path(NONLINEAR_NOISE_OU, 0.0, n_steps, dt, substream(seed, f"{part}-xi"))
        u = np.einsum("kmj,kj->km", phi[:, :, 1:-1], xs) + phi[:, :, -1]
        vals = phi[:, :, 0] * np.tanh(u)
        truth = NONLINEAR_AMPLITUDE / M * vals.sum(axis=1)
        out.append((xs, truth + xi, truth))
    return out
