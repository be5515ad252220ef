"""Data-driven predictive control with causality-enforced predictors.

The package builds multistep predictors directly from recorded
input/output data via an LQ factorization of stacked Hankel matrices,
optionally restricts them to block-causal structure, and wraps them in
receding-horizon controllers solved by an in-house box-constrained ADMM
QP solver.  A benchmark harness reproduces the accompanying simulation
studies from plain config files.
"""

import os

# The factorizations and QP solves here are small and dense, and a second
# OpenBLAS thread only spins on them: `ddpc benchmark --config lti_fig1
# --seeds 2` on a 2-core VM took the same wall time with 2 threads as with
# 1 (19.3-19.8 s against 18.8-20.1 s) but 28.6-29.2 s of CPU time against
# 18.8-20.0 s.  numpy and scipy each load their own OpenBLAS, which reads
# the variable once, when it is loaded; this must therefore come before
# either is imported.  An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import (  # noqa: E402
    bench, controllers, errors, lq, predictor, qp, sim, trajectory)
from .bench import *  # noqa: E402,F403
from .controllers import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .lq import *  # noqa: E402,F403
from .predictor import *  # noqa: E402,F403
from .qp import *  # noqa: E402,F403
from .sim import *  # noqa: E402,F403
from .trajectory import *  # noqa: E402,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (trajectory, lq, predictor, qp, sim, controllers, bench,
                   errors)
    for name in module.__all__
]
