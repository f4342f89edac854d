"""Regret of the tracking ensemble against the moving equilibrium.

At a thinned subgrid of steps the ensemble's free-energy cost is compared
with the per-step equilibrium benchmark; the running trapezoid integral of
that gap is the cumulative regret.  The streams are the nonlinear
scenario's fixed model at its default horizon (1000 steps of dt 0.02),
drawn from the same data seeds as `mfonline regret-sweep --seed 1`.  Two
stories, three seeds each, at a reduced particle and sample count:

* heavier weight decay (lambda 0.4 vs 0.1) raises cumulative regret, and
  the split is driven by the penalty term, not the fit term;
* the particle init matters: starting from the lambda-coupled prior
  N(0, beta/lambda) instead of a unit Gaussian flips that ordering,
  because at lambda = 0.4 the particles then start with second moment
  beta/lambda = 0.05 and the penalty gap runs negative.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from mfonline.config import Settings
from mfonline.experiments import generate_pair
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import regret_run
from mfonline.seeding import substream

TRIALS = 3
STRIDE = 200
N_IS = 5000
DATA = Settings(seed=1, scenario="nonlinear")


def cum_regret(lam, init_sd, trial):
    train, _ = generate_pair(DATA, trial)
    cfg = OnpgdConfig(n_particles=40, lam=lam, beta=0.02, init_sd=init_sd)
    seed = int(substream(1, "demo-regret", f"{lam}-{init_sd}", trial).integers(2**63))
    b = regret_run(train, cfg, STRIDE, seed, n_is=N_IS)
    return b.get("dynamic", "regularized").cumulative[-1]


for init_sd, label in ((1.0, "unit init"), (None, "prior-coupled init")):
    with ThreadPoolExecutor(8) as pool:
        tasks = [(lam, trial) for lam in (0.1, 0.4) for trial in range(TRIALS)]
        vals = list(pool.map(lambda a: cum_regret(a[0], init_sd, a[1]), tasks))
    lo = float(np.mean(vals[:TRIALS]))
    hi = float(np.mean(vals[TRIALS:]))
    print(f"{label:20s} cumulative regret at T: lambda=0.1 {lo:+.3f}  "
          f"lambda=0.4 {hi:+.3f}  ratio {hi / lo:.2f}")

print()
print("one full-resolution series (unit init, lambda=0.1, first seed):")
train, _ = generate_pair(DATA, 0)
b = regret_run(train, OnpgdConfig(n_particles=40), 100,
               int(substream(1, "demo-series").integers(2**63)), n_is=N_IS)
reg = b.get("dynamic", "regularized")
for k, inst, cum in zip(b.eval_ks, reg.instantaneous, reg.cumulative):
    t = k * train.dt
    print(f"  t = {t:5.1f}   instantaneous {inst:+.4f}   cumulative {cum:+.4f}")
