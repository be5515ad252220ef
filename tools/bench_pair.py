#!/usr/bin/env python3
"""Run perfbench on a base commit and on the working tree; write BENCH_<tag>.json.

Usage, from the root of the repository::

    python3 tools/bench_pair.py --base <commit> --tag <topic> \
        --workloads mc_table1 rollout_variants --trace 1 --seconds 30

The base commit is unpacked with ``git archive`` into a temporary
directory; the change side is the working tree as it stands.  Each
workload runs ``perfbench/run.py`` once per side, one process at a time,
and the side that goes first alternates from workload to workload.  The
JSON keeps, per workload and side, every metric perfbench printed, the
``correct``/``attempted``/``failed`` fields, and the machine record, and
lists the change of each metric relative to the base.
"""

from __future__ import annotations

import argparse
import io
import json
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit")
    parser.add_argument("--tag", required=True, help="BENCH_<tag>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    base = git("rev-parse", "--short", args.base)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out = {"command": " ".join(["python3", "tools/bench_pair.py",
                                *(argv if argv is not None
                                  else sys.argv[1:])]),
           "base": base,
           "change": f"{head} + working tree" if dirty else head,
           "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        unpack(args.base, base_tree)
        for i, workload in enumerate(args.workloads):
            sides = [("base", base_tree), ("change", ROOT)]
            if i % 2:
                sides.reverse()
            runs = {name: run_side(tree, workload, args)
                    for name, tree in sides}
            b, c = runs["base"]["metrics"], runs["change"]["metrics"]
            out["workloads"][workload] = {
                "order": [name for name, _ in sides],
                **runs,
                "change_rel": {name: (c[name] / b[name] - 1.0
                                      if b[name] else None)
                               for name in b if name in c},
            }
            print(f"{workload}: done", file=sys.stderr)
    path = ROOT / f"BENCH_{args.tag}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
