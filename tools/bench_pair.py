#!/usr/bin/env python3
"""Run perfbench on a base commit and on the working tree in alternating
pairs; write BENCH_<tag>.json.

Usage, from the root of the repository::

    python3 tools/bench_pair.py --base <commit> --tag <topic> \
        --workloads mc_table1 rollout_variants --pairs 10 --trace 0 \
        --seconds 30 --seed 0

The base commit is unpacked with ``git archive`` into a temporary
directory; the change side is the working tree as it stands.  Each pair
runs ``perfbench/run.py`` once per side, one process at a time; the side
that goes first alternates from pair to pair, and the first pair of each
workload alternates from workload to workload.

The JSON keeps, per workload, seed and trace setting, every pair's runs
(each with every metric perfbench printed, the ``correct``/``attempted``/
``failed`` fields and the machine record) and, per metric, a summary: the
per-pair values of each side, their medians and quartiles, the relative
change of the medians, and, for the metrics ``BENCHMARK.json`` gives a
direction, the number of pairs in which the change is better.  An
existing file of the same tag is extended: runs of another workload, seed
or trace setting are added, and a run of the same ones is replaced.  Each
run keeps the command that made it, and ``commands`` lists the commands
of the runs the file holds, so a command whose runs were all replaced
drops out.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def unpack(commit: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree: Path, workload: str, args) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited "
                         f"{done.returncode}:\n{done.stderr}")
    env = next(json.loads(line)["env"] for line in lines
               if line.startswith('{"env"'))
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    return {"env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "units": units}


def directions() -> dict[str, str]:
    """``better`` ("lower" or "higher") of each metric BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def spread(values: list[float]) -> dict:
    """Median and quartiles of one side's per-pair values."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' spreads, the relative change of the medians
    and, where a direction is known, the pairs in which the change is
    better."""
    out = {}
    names = [n for n in pairs[0]["base"]["metrics"]
             if all(n in p[side]["metrics"] for p in pairs
                    for side in ("base", "change"))]
    for name in names:
        b = [p["base"]["metrics"][name] for p in pairs]
        c = [p["change"]["metrics"][name] for p in pairs]
        entry = {"unit": pairs[0]["base"]["units"][name],
                 "base": spread(b), "change": spread(c)}
        bm, cm = entry["base"]["median"], entry["change"]["median"]
        entry["change_rel"] = cm / bm - 1.0 if bm else None
        if name in better:
            sign = 1.0 if better[name] == "higher" else -1.0
            entry["better"] = better[name]
            entry["change_better_pairs"] = sum(
                sign * (y - x) > 0.0 for x, y in zip(b, c))
        entry["pairs"] = len(pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit")
    parser.add_argument("--tag", required=True, help="BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=1,
                        help="alternating pairs of runs per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    base = git("rev-parse", "--short", args.base)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    change = f"{head} + working tree" if dirty else head
    path = ROOT / f"BENCH_{args.tag}.json"
    out = {"base": base, "change": change, "commands": [], "runs": {}}
    if path.exists():
        kept = json.loads(path.read_text())
        if kept.get("base") == base and "runs" in kept:
            out = kept
            out["change"] = change
    command = " ".join(["python3", "tools/bench_pair.py",
                        *(argv if argv is not None else sys.argv[1:])])
    better = directions()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        unpack(args.base, base_tree)
        for i, workload in enumerate(args.workloads):
            pairs = []
            for j in range(args.pairs):
                sides = [("base", base_tree), ("change", ROOT)]
                if (i + j) % 2:
                    sides.reverse()
                runs = {name: run_side(tree, workload, args)
                        for name, tree in sides}
                pairs.append({"order": [name for name, _ in sides], **runs})
                print(f"{workload}: pair {j + 1}/{args.pairs} done",
                      file=sys.stderr)
            key = f"{workload} seed={args.seed} trace={args.trace}"
            out["runs"][key] = {"workload": workload, "seed": args.seed,
                                "trace": args.trace,
                                "seconds": args.seconds,
                                "command": command,
                                "summary": summarize(pairs, better),
                                "pairs": pairs}
            # the runs of a file written before runs kept their command
            # name none
            out["commands"] = [c for c in dict.fromkeys(
                run.get("command") for run in out["runs"].values()) if c]
            # written after every workload, so a cut run keeps what it has
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(out, fh, indent=1, sort_keys=True)
                fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
