#!/usr/bin/env python3
"""Median cost of one controller step on table1, split by how the QP
solver answered it: from its set record (a hit) or not (a miss), and
the misses by whether they built a set record.

Usage, from the root of the repository::

    python3 tools/step_cost.py --n-d 200 --seed 0 --repeat 20
    python3 tools/step_cost.py --base <commit> --pairs 10 --repeat 20

Every variant runs the table1 rollout of ``ddpc.run_single`` at
``--seed`` and ``--n-d`` (with the penalties perfbench gives ``gamma``
and ``projreg_g``), with one BLAS thread: once to mark each step as a
hit, a miss or a miss that builds a record, by wrapping the solver's
``_from_record`` and ``_record`` methods, then ``--repeat`` times to time
every ``controller.step`` call and, in the same calls, the ``solve`` it
makes (the solve alone; its timer adds well under a microsecond to the
step's time).  The rollouts are deterministic, so the marks hold in every
repetition.  The table gives, per variant, the steps, hits and record
builds of one rollout and the median microseconds of a hit step (with its
quartiles over all repetitions, so that a few-microsecond change can be
read against the spread), of its solve, of a miss step that builds no
record and of one that builds a record; its last line is the same as
JSON, with the machine.

With ``--base <commit>``, the commit is unpacked with ``git archive``
(``tools/bench_pair.py``'s ``unpack``) and this script, copied into it,
runs in fresh processes on it and on the working tree in ``--pairs``
alternating pairs, the side that goes first alternating from pair to
pair.  One run's step medians are noisy, but both sides of a pair run
back to back.  The table gives, per variant and for hit and miss steps
alike, the median over the pairs of each side's step median, and the
number of pairs in which the working tree's was lower; its last line is
the same as JSON.  A base whose script marks no record builds gives
``-`` for them.
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
def each_controller(hook):
    """Call ``hook(ctrl)`` on every controller ``run_single`` builds."""
    build = bench.make_controller

    def make_controller(spec, **handles):
        ctrl = build(spec, **handles)
        hook(ctrl)
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


HIT, MISS, BUILD = "hit", "miss", "build"


def step_marks(cfg, variant: str, seed: int, n_d: int) -> list[str]:
    """Per step of one rollout, how the solver answered it: ``HIT`` from
    the set record, ``BUILD`` by a miss that built a record, else
    ``MISS``."""
    marks: list[str] = []

    def hook(ctrl):
        step, solver = ctrl.step, ctrl.solver
        from_record, record = solver._from_record, solver._record

        def marking_from_record(*args):
            out = from_record(*args)
            if out is not None:
                marks[-1] = HIT
            return out

        def marking_record(*args):
            out = record(*args)
            if out is not None:
                marks[-1] = BUILD
            return out

        def marking_step(*args):
            marks.append(MISS)
            return step(*args)

        solver._from_record = marking_from_record
        solver._record = marking_record
        ctrl.step = marking_step

    with each_controller(hook):
        bench.run_single(cfg, variant, seed, n_d=n_d)
    return marks


def loop_times(cfg, variant, seed, n_d, repeat):
    """Per rollout, the seconds of each ``controller.step`` call and of
    the solver call inside it, over ``repeat`` rollouts."""
    steps, solves = [], []
    for _ in range(repeat):
        steps.append([])
        solves.append([])

        def hook(ctrl):
            timed(ctrl.solver, "solve", solves[-1])
            timed(ctrl, "step", steps[-1])

        with each_controller(hook):
            bench.run_single(cfg, variant, seed, n_d=n_d)
    return steps, solves


def picked_us(runs, marks, want: str) -> list[float]:
    """The microseconds of every step (or solve) whose mark is ``want``."""
    return [1e6 * t for times in runs
            for t, mark in zip(times, marks, strict=True) if mark == want]


def median_us(runs, marks, want: str) -> float | None:
    picked = picked_us(runs, marks, want)
    return statistics.median(picked) if picked else None


def quartiles_us(runs, marks, want: str) -> list[float] | None:
    """The first and third quartiles, as ``[q1, q3]``."""
    picked = picked_us(runs, marks, want)
    if not picked:
        return None
    if len(picked) == 1:
        return picked * 2
    q1, _, q3 = statistics.quantiles(picked, n=4)
    return [q1, q3]


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


def paired(args) -> None:
    """Hit-step, miss-step and build-step medians of the base commit and
    of the working tree, from alternating fresh-process runs of this
    script on each."""
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
          "over the pairs of each run's median hit-step, miss-step and "
          "build-step us")
    print(f"{'':<18} {'hit step':^27} {'miss step':^27} {'build step':^27}")
    print(f"{'variant':<18}" + f" {'base':>9} {'change':>9} {'faster':>7}"
          * 3)
    rows = {}
    for variant in ddpc.VARIANTS:
        row = rows[variant] = {}
        cells = []
        for kind in (HIT, MISS, BUILD):
            name = f"{kind}_step_us"
            b, c = ([run[variant].get(name) for run in runs[side]]
                    for side in trees)
            if None in b or None in c:  # a side with no step of the kind
                row.update({f"base_{name}": None, f"change_{name}": None,
                            f"{kind}_faster_pairs": None})
                cells.append(f" {'-':>9} {'-':>9} {'-':>7}")
                continue
            row.update({f"base_{name}": statistics.median(b),
                        f"change_{name}": statistics.median(c),
                        f"{kind}_faster_pairs": sum(
                            y < x for x, y in zip(b, c))})
            cells.append(f" {row[f'base_{name}']:9.1f} "
                         f"{row[f'change_{name}']:9.1f} "
                         f"{row[f'{kind}_faster_pairs']:>3}/{args.pairs:<3}")
        print(f"{variant:<18}" + "".join(cells))
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
    print(f"{'variant':<18} {'steps':>5} {'hits':>5} {'builds':>6} "
          f"{'hit step':>9} {'[q1, q3]':>16} {'hit solve':>9} "
          f"{'miss step':>9} {'build step':>10}")
    rows = {}
    for variant in ddpc.VARIANTS:
        marks = step_marks(cfg, variant, args.seed, args.n_d)
        steps, solves = loop_times(cfg, variant, args.seed, args.n_d,
                                   args.repeat)
        row = {"steps": len(marks), "hits": marks.count(HIT),
               "builds": marks.count(BUILD),
               "hit_step_us": median_us(steps, marks, HIT),
               "hit_step_quartiles_us": quartiles_us(steps, marks, HIT),
               "hit_solve_us": median_us(solves, marks, HIT),
               "miss_step_us": median_us(steps, marks, MISS),
               "build_step_us": median_us(steps, marks, BUILD)}
        rows[variant] = row
        quartiles = row["hit_step_quartiles_us"]
        cells = [f"{v:9.1f}" if v is not None else f"{'-':>9}"
                 for v in (row["hit_step_us"], row["hit_solve_us"],
                           row["miss_step_us"])]
        cells.insert(1, f"[{quartiles[0]:6.1f}, {quartiles[1]:6.1f}]"
                     if quartiles else f"{'-':>16}")
        build = row["build_step_us"]
        cells.append(f"{build:10.1f}" if build is not None else f"{'-':>10}")
        print(f"{variant:<18} {row['steps']:>5} {row['hits']:>5} "
              f"{row['builds']:>6} " + " ".join(cells))
    print(json.dumps({"machine": machine(), "n_d": args.n_d,
                      "seed": args.seed, "repeat": args.repeat,
                      "variants": rows}))


if __name__ == "__main__":
    main()
