"""Online learning of mean-field two-layer networks on diffusion streams.

Simulation and analysis toolkit: streaming data generators, online noisy
particle gradient descent, equilibrium and hindsight benchmark solvers,
regret estimation, an offline full-batch baseline, closed-form constants
from the convergence analysis, and paired significance tests.

Import each name from its submodule (``from mfonline.onpgd import
run_online``); ``import mfonline`` itself loads none of them.
"""

__version__ = "0.1.0"
