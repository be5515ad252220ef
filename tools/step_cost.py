#!/usr/bin/env python3
"""Median cost of one controller step on table1, split by how the QP
solver answered it: the ``qp_path`` of its ``StepResult``.

Usage, from the root of the repository::

    python3 tools/step_cost.py --n-d 200 --seed 0 --repeat 20
    python3 tools/step_cost.py --base <commit> --pairs 10 --repeat 20

Every variant runs the table1 rollout of ``ddpc.run_single`` at
``--seed`` and ``--n-d`` (with the penalties perfbench gives ``gamma``
and ``projreg_g``), with one BLAS thread, ``--repeat`` times, timing
every ``controller.step`` call and, in the same calls, the ``solve`` it
makes (the solve alone; its timer adds well under a microsecond to the
step's time).  The table gives, per variant, the steps of one rollout on
each path, the median microseconds of a step on each path, and the
quartiles of a record step over all repetitions (so that a
few-microsecond change can be read against the spread) and the median
of its solve.  A second table splits the miss steps by path and by the
number of active sets their solve factored (``<path>_sets<n>``): the
steps of one rollout, the step and solve medians, and the solve median
divided by ``n``, the microseconds per set.  The last line is the same as
JSON, with the machine.

With ``--base <commit>``, the commit is unpacked with ``git archive``
(``tools/bench_pair.py``'s ``unpack``) and this script, copied into it,
runs in fresh processes on it and on the working tree in ``--pairs``
alternating pairs, the side that goes first alternating from pair to
pair.  One run's step medians are noisy, but both sides of a pair run
back to back.  The table gives, per variant and path, the median over
the pairs of each side's step median, and the number of pairs in which
the working tree's was lower, and the same per miss group, with each
side's median solve per set; its last line is the same as JSON.  A path
that a side never takes, or a base whose steps carry no ``qp_path``,
gives ``-``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read when numpy loads OpenBLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ddpc  # noqa: E402
from ddpc import bench  # noqa: E402
from bench_pair import unpack  # noqa: E402


@contextmanager
def timing(steps: list, solves: list):
    """Append the seconds of each ``controller.step`` call, and of the
    ``solve`` it makes, of every controller ``run_single`` builds."""
    build = bench.make_controller

    def make_controller(spec, **handles):
        ctrl = build(spec, **handles)
        timed(ctrl.solver, "solve", solves)
        timed(ctrl, "step", steps)
        return ctrl

    bench.make_controller = make_controller
    try:
        yield
    finally:
        bench.make_controller = build


def timed(obj, name: str, times: list) -> None:
    """Wrap the method ``name`` of ``obj`` to append each call's seconds."""
    method = getattr(obj, name)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        out = method(*args, **kwargs)
        times.append(clock() - start)
        return out

    setattr(obj, name, wrapper)


PATHS = ("record", "set", "corrected", "admm")


def loop_times(cfg, variant, seed, n_d, repeat):
    """Per rollout, the seconds of each ``controller.step`` call and of
    the solver call inside it, over ``repeat`` rollouts, and each step's
    ``qp_path`` (None where a ``StepResult`` has none)."""
    steps, solves = [], []
    for _ in range(repeat):
        steps.append([])
        solves.append([])
        with timing(steps[-1], solves[-1]):
            rollout, _ = bench.run_single(cfg, variant, seed, n_d=n_d)
    # the rollouts are deterministic: every repetition takes these paths
    paths = [getattr(s, "qp_path", None) for s in rollout.steps]
    sets = [getattr(s, "qp_sets", None) for s in rollout.steps]
    return steps, solves, paths, sets


def picked_us(runs, paths, want) -> list[float]:
    """The microseconds of every step (or solve) whose entry of ``paths``
    is ``want``."""
    return [1e6 * t for times in runs
            for t, path in zip(times, paths, strict=True) if path == want]


def median_us(runs, paths, want) -> float | None:
    picked = picked_us(runs, paths, want)
    return statistics.median(picked) if picked else None


def miss_split(paths, sets) -> dict[str, tuple[str, int]]:
    """Each miss step's ``<path>_sets<n>`` name by its ``(qp_path,
    qp_sets)``, in the order ``PATHS`` and then ``n``: the groups whose
    step medians show a saving per set factored.  Empty for steps that
    carry no ``qp_sets``."""
    found = {(path, n) for path, n in zip(paths, sets)
             if path not in (None, "record") and n is not None}
    return {f"{path}_sets{n}": (path, n) for path, n in sorted(
        found, key=lambda pair: (PATHS.index(pair[0]), pair[1]))}


def quartiles_us(runs, paths, want: str) -> list[float] | None:
    """The first and third quartiles, as ``[q1, q3]``."""
    picked = picked_us(runs, paths, want)
    if len(picked) < 2:
        return picked * 2 or None
    q1, _, q3 = statistics.quantiles(picked, n=4)
    return [q1, q3]


def cell(value: float | None, width: int) -> str:
    return f"{value:{width}.1f}" if value is not None else f"{'-':>{width}}"


def machine() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            model = next(line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor() or platform.machine()
    return (f"{model}, {os.cpu_count()} cores, Python "
            f"{platform.python_version()}, numpy {np.__version__}, scipy "
            f"{scipy.__version__}, OPENBLAS_NUM_THREADS=1")


def compared(row, runs, variant, name, pairs) -> str:
    """Put both sides' medians over the pairs of the runs' ``<name>_step_us``
    and the pairs in which the change is faster into ``row``; return their
    table cells."""
    b, c = ([run[variant].get(f"{name}_step_us") for run in runs[side]]
            for side in ("base", "change"))
    some = None not in b + c  # every run of both sides took it
    faster = sum(y < x for x, y in zip(b, c)) if some else None
    row.update({f"base_{name}_step_us": statistics.median(b) if some else None,
                f"change_{name}_step_us": statistics.median(c) if some
                else None, f"{name}_faster_pairs": faster})
    return (f"{cell(row[f'base_{name}_step_us'], 9)} "
            f"{cell(row[f'change_{name}_step_us'], 9)} "
            + (f"{faster:>3}/{pairs:<3}" if some else f"{'-':>7}"))


def per_set(row, runs, variant, name) -> str:
    """Put each side's median over the pairs of the runs' solve medians of
    the miss group ``name`` (``<path>_sets<n>``), divided by ``n``, into
    ``row``; return their table cells."""
    n = int(name.rsplit("_sets", 1)[1])
    cells = []
    for side in ("base", "change"):
        solves = [run[variant].get(f"{name}_solve_us") for run in runs[side]]
        value = (statistics.median(solves) / n if n and None not in solves
                 else None)
        row[f"{side}_{name}_us_per_set"] = value
        cells.append(cell(value, 9))
    return " ".join(cells)


def paired(args) -> None:
    """Per-path step medians of the base commit and of the working tree,
    from alternating fresh-process runs of this script on each."""
    cmd = ["--n-d", str(args.n_d), "--seed", str(args.seed),
           "--repeat", str(args.repeat)]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        unpack(args.base, base)
        shutil.copy(__file__, base / "tools" / "step_cost.py")
        trees = {"base": base, "change": ROOT}
        runs = {side: [] for side in trees}
        for i in range(args.pairs):
            for side in (("base", "change") if i % 2 == 0
                         else ("change", "base")):
                tree = trees[side]
                out = subprocess.run(
                    [sys.executable, str(tree / "tools" / "step_cost.py"),
                     *cmd], cwd=tree, check=True, capture_output=True,
                    text=True).stdout
                runs[side].append(
                    json.loads(out.strip().splitlines()[-1])["variants"])
    print(f"# {machine()}")
    print(f"# table1, n_d {args.n_d}, seed {args.seed}, {args.pairs} pairs "
          f"of {args.repeat} rollouts per side; base {args.base}; median "
          "over the pairs of each run's median step us per path")
    print(f"{'':<18}" + "".join(f" {path + ' step':^27}" for path in PATHS))
    print(f"{'variant':<18}" + f" {'base':>9} {'change':>9} {'faster':>7}"
          * len(PATHS))
    rows = {}
    for variant in ddpc.VARIANTS:
        row = rows[variant] = {}
        print(f"{variant:<18}" + "".join(
            " " + compared(row, runs, variant, kind, args.pairs)
            for kind in PATHS))
    print(f"{'variant':<18} {'miss path/sets':<16} {'steps':>5} {'base':>9} "
          f"{'change':>9} {'faster':>7} {'base/set':>9} {'chg/set':>9}")
    for variant in ddpc.VARIANTS:
        row = rows[variant]
        groups = {name: None for run in runs["base"] + runs["change"]
                  for name in run[variant].get("miss_groups", [])}
        for name in groups:
            steps = row[f"{name}_steps"] = runs["change"][0][variant].get(
                f"{name}_steps")
            print(f"{variant:<18} {name:<16} "
                  f"{steps if steps is not None else '-':>5} "
                  + compared(row, runs, variant, name, args.pairs) + " "
                  + per_set(row, runs, variant, name))
    print(json.dumps({"machine": machine(), "base": args.base,
                      "n_d": args.n_d, "seed": args.seed,
                      "repeat": args.repeat, "pairs": args.pairs,
                      "variants": rows}))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n-d", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=20)
    ap.add_argument("--base", help="commit to pair the working tree with")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating pairs of runs with --base")
    args = ap.parse_args()
    if args.repeat < 1 or args.n_d < 1 or args.pairs < 1:
        ap.error("--repeat, --n-d and --pairs must be >= 1")
    if args.base:
        paired(args)
        return
    cfg = ddpc.load_config(bench.bundled_config_path("table1"))
    # as perfbench's rollout_variants: gamma needs a penalty table1 does
    # not set, and projreg_g takes reg_gamma's
    cfg = (cfg.with_controller_params("gamma", mu=1e3)
           .with_controller_params(
               "projreg_g", mu=cfg.controller_params["reg_gamma"]["mu"]))
    print(f"# {machine()}")
    print(f"# table1, n_d {args.n_d}, seed {args.seed}, {args.repeat} "
          "rollouts per loop; median us")
    print(f"{'variant':<18} {'steps':>5}"
          + "".join(f" {path:>9}" for path in PATHS)
          + "".join(f" {path + ' us':>12}" for path in PATHS)
          + f" {'record [q1, q3]':>16} {'record solve':>12}")
    rows, split = {}, []
    for variant in ddpc.VARIANTS:
        steps, solves, paths, sets = loop_times(cfg, variant, args.seed,
                                                args.n_d, args.repeat)
        row = rows[variant] = {"steps": len(paths)}
        for path in PATHS:
            row[f"{path}_steps"] = paths.count(path)
            row[f"{path}_step_us"] = median_us(steps, paths, path)
        quartiles = row["record_step_quartiles_us"] = quartiles_us(
            steps, paths, "record")
        row["record_solve_us"] = median_us(solves, paths, "record")
        groups = miss_split(paths, sets)
        row["miss_groups"] = list(groups)
        pairs = list(zip(paths, sets))
        for name, group in groups.items():
            row[f"{name}_steps"] = pairs.count(group)
            row[f"{name}_step_us"] = median_us(steps, pairs, group)
            solve = row[f"{name}_solve_us"] = median_us(solves, pairs, group)
            row[f"{name}_us_per_set"] = solve / group[1] if group[1] else None
            split.append(f"{variant:<18} {name:<16} "
                         f"{row[f'{name}_steps']:>5} "
                         f"{cell(row[f'{name}_step_us'], 9)} "
                         f"{cell(solve, 9)} "
                         f"{cell(row[f'{name}_us_per_set'], 9)}")
        cells = [f"{row[f'{path}_steps']:>9}" for path in PATHS]
        cells += [cell(row[f"{path}_step_us"], 12) for path in PATHS]
        cells.append(f"[{quartiles[0]:6.1f}, {quartiles[1]:6.1f}]"
                     if quartiles else f"{'-':>16}")
        cells.append(cell(row["record_solve_us"], 12))
        print(f"{variant:<18} {row['steps']:>5} " + " ".join(cells))
    print(f"{'variant':<18} {'miss path/sets':<16} {'steps':>5} "
          f"{'step us':>9} {'solve us':>9} {'us/set':>9}")
    print(*split, sep="\n")
    print(json.dumps({"machine": machine(), "n_d": args.n_d,
                      "seed": args.seed, "repeat": args.repeat,
                      "variants": rows}))


if __name__ == "__main__":
    main()
