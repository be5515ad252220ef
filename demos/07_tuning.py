#!/usr/bin/env python3
"""Tune regularization weights on validation seeds, then evaluate.

The regularized variants carry penalty weights that trade fidelity to the
identified predictor against shrinkage of the latent degrees of freedom.
The tuner scores each grid point by mean closed-loop cost over dedicated
validation seeds (offset far from the evaluation seeds) and keeps the best.
The script tunes both regularized variants from the bundled high-noise
config and compares tuned costs against the unregularized causal variant.
"""

import argparse
import os
from dataclasses import replace

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc


def mean_cost(cfg, name, seeds):
    costs = []
    for seed in seeds:
        rollout, _ = ddpc.run_single(cfg, name, seed)
        costs.append(rollout.J)
    return float(np.mean(costs))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=10,
                    help="grid points for the one-parameter search")
    ap.add_argument("--test-seeds", type=int, default=10,
                    help="evaluation seeds after tuning")
    args = ap.parse_args()

    cfg = ddpc.load_config(ddpc.bundled_config_path("table1"))
    cfg = replace(cfg, grid_points=args.points, grid_points_2d=4,
                  tune_seeds=3)
    print(f"base point: N_d={cfg.n_d}, sigma_e={cfg.sigma_e}, "
          f"validation seeds start at {cfg.tune_seed_offset}")

    for name in cfg.tune_controllers:
        best = ddpc.tune(cfg, name)
        shown = ", ".join(f"{k}={v:.4g}" for k, v in sorted(best.items()))
        print(f"tuned {name}: {shown}")
        cfg = cfg.with_controller_params(name, **best)

    seeds = range(args.test_seeds)
    print(f"\nmean J over {args.test_seeds} evaluation seeds:")
    for name in cfg.controllers:
        print(f"  {name:<18s} {mean_cost(cfg, name, seeds):.4f}")


if __name__ == "__main__":
    main()
