#!/usr/bin/env python3
"""Run a reduced Monte-Carlo sweep and normalize costs against a baseline.

Loads the bundled LTI benchmark config, shrinks the sweep grid to two noise
levels and a handful of seeds so the demo finishes in seconds, runs every
controller on paired noise realizations, and writes records.csv plus
normalized.csv.  Repeating the sweep reproduces the records byte for byte.
"""

import argparse
import os
from dataclasses import replace
from pathlib import Path

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import ddpc


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="seeds per cell")
    ap.add_argument("--out", default="out_demo", help="output directory")
    args = ap.parse_args()

    cfg = ddpc.load_config(ddpc.bundled_config_path("lti_fig1"))
    cfg = replace(cfg, sweep_n_d=(200,), sweep_sigma_e=(0.1, 0.3),
                  seeds=args.seeds, out_dir=args.out)

    records = ddpc.run_sweep(cfg)
    print(f"{len(records)} runs "
          f"({len(cfg.controllers)} controllers x 2 noise levels x "
          f"{args.seeds} seeds)")

    # Paired design: for a fixed (N_d, sigma_e, seed) every controller sees
    # the same identification dataset.
    by_seed = {}
    for r in records:
        by_seed.setdefault((r.N_d, r.sigma_e, r.seed), set()).add(r.dataset_hash)
    paired = all(len(h) == 1 for h in by_seed.values())
    print(f"identical dataset hash across controllers per seed: {paired}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ddpc.write_records(records, out / "records.csv")
    rows = ddpc.normalize_costs(records, baseline=cfg.baseline)
    ddpc.write_normalized(rows, out / "normalized.csv")
    print(f"wrote {out / 'records.csv'} and {out / 'normalized.csv'}")

    print(f"\nmean J / mean J({cfg.baseline}):")
    for sigma in cfg.sweep_sigma_e:
        print(f"  sigma_e = {sigma}")
        for row in rows:
            if row["sigma_e"] == sigma:
                print(f"    {row['controller']:<14s} {row['ratio']:.4f}")

    # Bitwise reproducibility of the whole sweep.
    again = ddpc.run_sweep(cfg)
    ddpc.write_records(again, out / "records_repeat.csv")
    same = (out / "records.csv").read_bytes() == \
        (out / "records_repeat.csv").read_bytes()
    print(f"\nrepeat run byte-identical: {same}")


if __name__ == "__main__":
    main()
