"""Command-line front end: factorize, control, benchmark, tune.

Exit codes: 0 success, 1 usage or config errors, 2 data or rank errors,
3 solver failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench
from .controllers import VARIANTS
from .errors import (
    ConfigError,
    DepthExceedsLength,
    DimensionMismatch,
    Diverged,
    RankDeficient,
    ZeroVariance,
)
from .lq import factorize, save_lq_blocks
from .qp import QpStatus
from .trajectory import HorizonSpec, partition, read_trajectory_csv

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SOLVER = 3

_DATA_ERRORS = (RankDeficient, DepthExceedsLength, ZeroVariance,
                DimensionMismatch)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ddpc",
                     description="Data-driven predictive control toolkit.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_fac = sub.add_parser("factorize",
                           help="LQ-factorize a trajectory CSV")
    p_fac.add_argument("trajectory", help="trajectory CSV (t,u*,y* columns)")
    p_fac.add_argument("--lp", type=int, required=True, help="past horizon")
    p_fac.add_argument("--lf", type=int, required=True, help="future horizon")
    p_fac.add_argument("--dump", metavar="FILE",
                       help="write the factor blocks to a binary file")
    p_fac.set_defaults(func=_cmd_factorize)

    p_ctl = sub.add_parser("control", help="single closed-loop run")
    p_ctl.add_argument("--config", required=True, help="experiment config")
    p_ctl.add_argument("--controller", required=True,
                       help="controller variant name")
    p_ctl.add_argument("--seed", type=int, default=0)
    p_ctl.add_argument("--out", metavar="FILE",
                       help="per-step CSV (default under the config out dir)")
    p_ctl.set_defaults(func=_cmd_control)

    p_ben = sub.add_parser("benchmark", help="full Monte-Carlo sweep")
    p_ben.add_argument("--config", required=True, help="experiment config")
    p_ben.add_argument("--out", metavar="DIR",
                       help="output directory (default from the config)")
    p_ben.add_argument("--workers", type=int, default=1)
    p_ben.add_argument("--seeds", type=int,
                       help="override the seed count from the config")
    p_ben.set_defaults(func=_cmd_benchmark)

    p_tun = sub.add_parser("tune", help="grid-search regularization weights")
    p_tun.add_argument("--config", required=True, help="experiment config")
    p_tun.add_argument("--controller",
                       help="tune one controller instead of the config list")
    p_tun.set_defaults(func=_cmd_tune)
    return parser


def _cmd_factorize(args) -> int:
    traj = read_trajectory_csv(args.trajectory)
    part = partition(traj, HorizonSpec(args.lp, args.lf))
    blocks = factorize(part)
    resid = float(np.linalg.norm(blocks.L33))
    print(f"m={blocks.m} p={blocks.p} L_p={blocks.L_p} L_f={blocks.L_f} "
          f"columns={blocks.M}")
    print(f"past block nonsingular: {blocks.past_is_nonsingular()}")
    print(f"residual block norm: {resid:.6e}")
    if args.dump:
        save_lq_blocks(blocks, args.dump)
        print(f"wrote {args.dump}")
    return EXIT_OK


def _cmd_control(args) -> int:
    cfg = bench.load_config(args.config)
    if args.controller not in VARIANTS:
        raise ConfigError(
            f"unknown controller {args.controller!r}; choose from "
            f"{', '.join(VARIANTS)}")
    rollout, _ = bench.run_single(cfg, args.controller, args.seed)
    out = Path(args.out) if args.out else (
        Path(cfg.out_dir) / f"control_{args.controller}_seed{args.seed}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    bench.write_rollout_csv(rollout, out)
    print(f"J={rollout.J:.10g} J_y={rollout.J_y:.10g} "
          f"J_u={rollout.J_u:.10g} status={rollout.status.value}")
    print(f"wrote {out}")
    if rollout.status is not QpStatus.SOLVED:
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg = bench.load_config(args.config)
    seeds = range(args.seeds) if args.seeds is not None else None
    records = bench.run_sweep(cfg, workers=args.workers, seeds=seeds)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records_path = out_dir / "records.csv"
    bench.write_records(records, records_path)
    print(f"wrote {records_path} ({len(records)} records)")
    if cfg.baseline:
        rows = bench.normalize_costs(records, cfg.baseline)
        normalized_path = out_dir / "normalized.csv"
        bench.write_normalized(rows, normalized_path)
        print(f"wrote {normalized_path} ({len(rows)} rows)")
    n_bad = sum(r.status != "solved" for r in records)
    if n_bad:
        print(f"{n_bad} runs did not report a clean solve", file=sys.stderr)
    return EXIT_OK


def _cmd_tune(args) -> int:
    cfg = bench.load_config(args.config)
    names = (args.controller,) if args.controller else cfg.tune_controllers
    if not names:
        raise ConfigError("no controllers to tune: give --controller or a "
                          "[tune] controllers list")
    for name in names:
        best = bench.tune(cfg, name)
        for param in sorted(best):
            print(f"{name}.{param} = {best[param]:.10g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ddpc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"ddpc: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"ddpc: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Diverged as exc:
        print(f"ddpc: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"ddpc: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
