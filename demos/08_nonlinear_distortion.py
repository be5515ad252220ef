#!/usr/bin/env python3
"""Closed-loop cost as the plant is made progressively nonlinear.

The benchmark wraps the linear plant in a smooth input distortion whose
strength eps interpolates from the identity (eps = 0) to a saturating
nonlinearity (eps = 1).  Identification data comes from the distorted
plant, so every predictor is a linear approximation whose mismatch grows
with eps.  The script runs the bundled nonlinear benchmark noise-free at
several distortion levels and reports the median cost per controller.
"""

import os

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc


def main():
    cfg = ddpc.load_config(ddpc.bundled_config_path("nonlinear_fig2"))
    eps_grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    seeds = range(5)

    medians = {name: [] for name in cfg.controllers}
    for eps in eps_grid:
        for name in cfg.controllers:
            costs = [ddpc.run_single(cfg, name, seed, sigma_e=0.0,
                                     eps=eps)[0].J for seed in seeds]
            medians[name].append(float(np.median(costs)))

    header = "eps".ljust(6) + "".join(n.rjust(14) for n in cfg.controllers)
    print("median J over 5 seeds, noise-free data:")
    print(header)
    for i, eps in enumerate(eps_grid):
        row = f"{eps:<6}" + "".join(
            f"{medians[name][i]:>14.4f}" for name in cfg.controllers)
        print(row)

    causal = np.array(medians["causal_gamma"])[:4]  # up to eps = 0.75
    print(f"\ncausal cost nondecreasing through eps = 0.75: "
          f"{bool(np.all(np.diff(causal) >= -1e-12))}")
    others = [n for n in cfg.controllers if n != "causal_gamma"]
    wins = all(medians["causal_gamma"][i] <= min(medians[n][i] for n in others)
               for i, eps in enumerate(eps_grid) if eps > 0)
    print(f"causal variant cheapest at every eps > 0: {wins}")


if __name__ == "__main__":
    main()
