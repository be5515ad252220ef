#!/usr/bin/env python3
"""Check that the working tree reproduces a base commit's outputs byte for byte.

Usage, from the root of the repository::

    python3 tools/identity_pair.py --base <commit>

The base commit is unpacked with ``git archive`` (as ``tools/bench_pair.py``
does); the change side is the working tree as it stands.  Each side runs
with ``PYTHONPATH`` at its own ``src`` and one BLAS thread, in a scratch
directory of its own, and these artifacts are compared:

* ``ddpc benchmark --config {table1,lti_fig1,nonlinear_fig2} --seeds 5
  --workers 2`` and ``--config closedloop --workers 2``: the exit code,
  ``records.csv`` and ``normalized.csv``;
* ``ddpc control --config table1 --controller <v>`` for every variant:
  the exit code, stdout and the per-step CSV;
* a digest of ``run_single`` for every variant at table1 seeds 0-2, with
  ``gamma.mu = 1e3`` and ``projreg_g.mu = reg_gamma.mu``: J, J_y, J_u and
  every step's ``u_f``/``y_f`` bytes, ``qp_iterations``, ``qp_status``,
  ``primal_res`` and ``dual_res``.

One verdict line is printed per artifact; the exit code is 1 if any
artifact differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pair import ROOT, git, unpack

BENCHMARKS = (("table1", "5"), ("lti_fig1", "5"), ("nonlinear_fig2", "5"),
              ("closedloop", None))
DIGEST_SEEDS = 3

# Runs in each tree; prints {"<variant>/<seed>": sha256} as JSON.
DIGEST_CODE = f"""
import hashlib, json, pickle
import numpy as np
import ddpc

cfg = ddpc.load_config("table1")
cfg = cfg.with_controller_params("gamma", mu=1e3).with_controller_params(
    "projreg_g", mu=cfg.controller_params["reg_gamma"]["mu"])
out = {{}}
for variant in ddpc.VARIANTS:
    for seed in range({DIGEST_SEEDS}):
        try:
            rollout, _ = ddpc.run_single(cfg, variant, seed)
        except ddpc.Diverged as exc:
            out[f"{{variant}}/{{seed}}"] = "diverged: " + str(exc)
            continue
        steps = [(np.asarray(s.u_f).tobytes(), np.asarray(s.y_f).tobytes(),
                  s.qp_iterations, s.qp_status.value, s.primal_res,
                  s.dual_res) for s in rollout.steps]
        blob = pickle.dumps((rollout.J, rollout.J_y, rollout.J_u, steps),
                            protocol=4)
        out[f"{{variant}}/{{seed}}"] = hashlib.sha256(blob).hexdigest()
print(json.dumps(out, sort_keys=True))
"""


def _run(tree: Path, work: Path, args: list[str]):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def collect(tree: Path, work: Path) -> dict:
    """Every compared artifact of one side, keyed by its verdict label."""
    work.mkdir()
    out: dict = {}
    for name, seeds in BENCHMARKS:
        dest = f"bench_{name}"
        cmd = ["-m", "ddpc", "benchmark", "--config", name, "--out", dest,
               "--workers", "2"] + (["--seeds", seeds] if seeds else [])
        done = _run(tree, work, cmd)
        out[f"benchmark {name}: exit code"] = done.returncode
        for artifact in ("records.csv", "normalized.csv"):
            out[f"benchmark {name}: {artifact}"] = _read(work / dest
                                                        / artifact)
    variants = _run(tree, work, [
        "-c", "import ddpc; print(*ddpc.VARIANTS)"]).stdout.split()
    for variant in variants:
        csv_name = f"control_{variant}.csv"
        done = _run(tree, work, ["-m", "ddpc", "control", "--config",
                                 "table1", "--controller", variant,
                                 "--out", csv_name])
        out[f"control {variant}: exit code"] = done.returncode
        out[f"control {variant}: stdout"] = done.stdout
        out[f"control {variant}: csv"] = _read(work / csv_name)
    done = _run(tree, work, ["-c", DIGEST_CODE])
    if done.returncode != 0:
        raise SystemExit(f"run_single digest failed in {tree}:\n"
                         f"{done.stderr}")
    for key, digest in json.loads(done.stdout).items():
        out[f"run_single {key}"] = digest
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit")
    args = parser.parse_args(argv)

    base = git("rev-parse", "--short", args.base)
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "tree"
        unpack(args.base, base_tree)
        before = collect(base_tree, Path(tmp) / "base")
        after = collect(ROOT, Path(tmp) / "change")
    n_diff = 0
    for label in sorted(before.keys() | after.keys()):
        if label not in before or label not in after:
            verdict = "MISSING on one side"
        elif before[label] == after[label]:
            verdict = "same" if before[label] is not None else \
                "same (absent on both sides)"
        else:
            verdict = "DIFFERS"
        n_diff += not verdict.startswith("same")
        print(f"{label}: {verdict}")
    print(f"{len(before | after) - n_diff} same, {n_diff} different "
          f"(base {base})")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
