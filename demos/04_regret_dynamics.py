"""Regret of the tracking ensemble against the moving equilibrium.

At a thinned subgrid of steps the ensemble's free-energy cost is compared
with the per-step equilibrium benchmark; the running trapezoid integral of
that gap is the cumulative regret.  The streams are the nonlinear
scenario's fixed model at its default horizon (1000 steps of dt 0.02).
Each init is one `run_regret_sweep` call over lambda 0.1 and 0.4, so the
numbers printed are those of `mfonline regret-sweep --seed 1 --trials 3
--stride 200 --sweep-lambda 0.1,0.4` with `onpgd.n = 40` and `is.n =
5000` (and `onpgd.init_sd = gibbs` for the second init).  Two stories,
three seeds each, at a reduced particle and sample count:

* heavier weight decay (lambda 0.4 vs 0.1) raises cumulative regret, and
  the split is driven by the penalty term, not the fit term;
* the particle init matters: starting from the lambda-coupled prior
  N(0, beta/lambda) instead of a unit Gaussian flips that ordering,
  because at lambda = 0.4 the particles then start with second moment
  beta/lambda = 0.05 and the penalty gap runs negative.
"""

import tempfile

from mfonline.config import Settings
from mfonline.datastream import gen_nonlinear
from mfonline.experiments import run_regret_sweep
from mfonline.onpgd import OnpgdConfig
from mfonline.regret import regret_run

TRIALS = 3
N_IS = 5000

with tempfile.TemporaryDirectory() as out:
    for init_sd, label in ((1.0, "unit init"), ("gibbs", "prior-coupled init")):
        report = run_regret_sweep(Settings(
            seed=1, scenario="nonlinear", trials=TRIALS, threads=8, out=out,
            experiment=f"init-{init_sd}", n_particles=40, n_is=N_IS, eval_stride=200,
            init_sd=init_sd, sweep_lam=[0.1, 0.4]))
        lo, hi = (c["cumulative_T_dynamic_regularized"]["mean"] for c in report["cells"])
        print(f"{label:20s} cumulative regret at T: lambda=0.1 {lo:+.3f}  "
              f"lambda=0.4 {hi:+.3f}  ratio {hi / lo:.2f}")

print()
print("one full-resolution series (unit init, lambda=0.1, data seed 1):")
train, test = gen_nonlinear(1)
b = regret_run(train, test, OnpgdConfig(n_particles=40), 100, seed=1, n_is=N_IS)
reg = b.series[("dynamic", "regularized")]
for t, inst, cum in zip(reg.times, reg.instantaneous, reg.cumulative):
    print(f"  t = {t:5.1f}   instantaneous {inst:+.4f}   cumulative {cum:+.4f}")
