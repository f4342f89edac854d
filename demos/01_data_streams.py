"""Tour of the two streaming environments.

Both scenarios emit (x_k, y_k) pairs on the grid t_k = k*DT from a slow
Ornstein-Uhlenbeck drift: the periodic scenario modulates a sine response,
the nonlinear one warps a random feature map.  Each is a fixed model whose
coefficients, and the grid step DT, are constants of mfonline.datastream;
a stream is rebuilt from one integer seed (and optionally its horizon
n_steps).
"""

import os
import tempfile

import numpy as np

from mfonline.config import Settings
from mfonline.datastream import gen_nonlinear, gen_periodic
from mfonline.experiments import run_generate

SEED = 20260817

for name, gen in (("periodic", gen_periodic), ("nonlinear", gen_nonlinear)):
    train, test = gen(SEED)
    y = train.y
    # lag-1 autocorrelation of the response; the OU drift makes it high
    ac = float(np.corrcoef(y[:-1], y[1:])[0, 1])
    # one stream's time average scatters widely (slow drift); the
    # across-seed average concentrates
    many = np.mean([np.mean(gen(SEED + k)[0].y ** 2) for k in range(20)])
    print(f"{name:10s} K={train.n_steps} dt={train.dt} x-dim={train.x.shape[1]}")
    print(f"{'':10s} mean y^2 = {np.mean(y**2):.5f} (this seed), "
          f"{many:.5f} (20-seed average)   lag-1 autocorr = {ac:.3f}")
    print(f"{'':10s} train/test share the x process? "
          f"{np.array_equal(train.x, test.x)} (independent streams)")

# the same seed always rebuilds the same stream, bit for bit
a, _ = gen_periodic(SEED)
b, _ = gen_periodic(SEED)
print("replay bit-identical:", np.array_equal(a.y, b.y))

# `mfonline generate` writes each trial's pair as CSV, one row per step
with tempfile.TemporaryDirectory() as tmp:
    run_generate(Settings(scenario="periodic", trials=1, out=tmp))
    path = os.path.join(tmp, "periodic-data", "periodic", "trial000", "train.csv")
    with open(path) as fh:
        header = fh.readline().strip()
        rows = sum(1 for _ in fh)
    print(f"wrote {rows} rows to a CSV with header {header}")
