"""Online particle tracking against a frozen batch fit, out of sample.

The online learner sees each observation once, in order; the offline
learner gets the full training window and descends the batch objective.
Both fit the network of one OnpgdConfig (particle count, penalty and
init); OfflineFitConfig only sets the batch descent.  Each trial's
streams are a scenario's fixed model drawn from the trial's data seed,
the same streams as `mfonline oos-compare --seed 1`.  On drifting data
the one-pass tracker generalizes better.  Four paired trials per
scenario keep this quick; the full 30-trial comparison lives in the test
suite and behind `mfonline oos-compare`.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from mfonline.datastream import gen_nonlinear, gen_periodic
from mfonline.offline import OfflineFitConfig, compare_oos
from mfonline.onpgd import OnpgdConfig
from mfonline.seeding import substream

TRIALS = 4
onpgd = OnpgdConfig()
offline = OfflineFitConfig()


def one(args):
    scenario, trial = args
    gen = gen_periodic if scenario == "periodic" else gen_nonlinear
    train, test = gen(int(substream(1, "data", trial).integers(2**63)))
    run_seed = int(substream(1, "demo-oos", scenario, trial).integers(2**63))
    r = compare_oos(train, test, onpgd, offline, run_seed)
    return r.mse_online, r.mse_offline


for scenario in ("periodic", "nonlinear"):
    with ThreadPoolExecutor(8) as pool:
        rows = list(pool.map(one, [(scenario, t) for t in range(TRIALS)]))
    online = np.array([r[0] for r in rows])
    off = np.array([r[1] for r in rows])
    print(f"{scenario}: test MSE per trial")
    for t, (a, b) in enumerate(rows):
        tag = "online wins" if a < b else "offline wins"
        print(f"  trial {t}: online {a:.4f}  offline {b:.4f}   {tag}")
    print(f"  means: online {online.mean():.4f}  offline {off.mean():.4f}")
