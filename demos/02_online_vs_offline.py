"""Online particle tracking against a frozen batch fit, out of sample.

The online learner sees each observation once, in order; the offline
learner gets the full training window and descends the batch objective.
Both fit the network of one OnpgdConfig (particle count, penalty and
init); OfflineFitConfig only sets the batch descent.  Each scenario is
one `run_oos_compare` call, so the numbers printed are those of
`mfonline oos-compare --seed 1 --trials 4 --scenario <name>`.  On
drifting data the one-pass tracker generalizes better.  Four paired
trials per scenario keep this quick; the full 30-trial comparison lives
in the test suite and behind `mfonline oos-compare`.
"""

import tempfile

from mfonline.config import Settings
from mfonline.experiments import run_oos_compare

TRIALS = 4

with tempfile.TemporaryDirectory() as out:
    for scenario in ("periodic", "nonlinear"):
        report = run_oos_compare(Settings(seed=1, scenario=scenario, trials=TRIALS,
                                          threads=TRIALS, out=out))
        print(f"{scenario}: test MSE per trial")
        for r in report["per_trial"]:
            a, b = r["mse_online"], r["mse_offline"]
            tag = "online wins" if a < b else "offline wins"
            print(f"  trial {r['trial']}: online {a:.4f}  offline {b:.4f}   {tag}")
        means = {k: report["panel_a"][k]["mean"] for k in ("online", "offline")}
        print(f"  means: online {means['online']:.4f}  offline {means['offline']:.4f}")
