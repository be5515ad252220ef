#!/usr/bin/env python3
"""All variants collapse to the same closed loop on noise-free data.

With no innovation noise the identified multi-step predictors are exact, so
the least-squares, soft-constrained, and causal controllers all solve the
same control problem, and the model-based controller built from the true
state-space matrices agrees with them.  The script runs every controller
from the bundled LTI benchmark config at sigma_e = 0 and compares costs.
"""

import os

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc

# J values that agree to round-off differ by about 1e-15 relative, and by a
# different amount after any change that moves one of them by an ulp; the
# demo prints only whether the spread is below this floor, so its output
# stays the same under such changes and still shows a real disagreement.
SPREAD_FLOOR = 1e-9


def main():
    cfg = ddpc.load_config(ddpc.bundled_config_path("lti_fig1"))
    costs = {}
    for name in cfg.controllers:
        rollout, _ = ddpc.run_single(cfg, name, seed=0, n_d=600, sigma_e=0.0)
        costs[name] = rollout.J
        print(f"{name:<14s} J = {rollout.J:.12f}")

    values = np.array(list(costs.values()))
    spread = (values.max() - values.min()) / values.min()
    verdict = "yes" if spread < SPREAD_FLOOR else f"no ({spread:.2e})"
    print(f"relative spread across controllers below {SPREAD_FLOOR:.0e}: "
          f"{verdict}")


if __name__ == "__main__":
    main()
