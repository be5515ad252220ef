#!/usr/bin/env python3
"""Check that the working tree reproduces a base commit's outputs.

Usage, from the root of the repository::

    python3 tools/identity_pair.py --base <commit> [--rtol <r>]

The base commit is unpacked with ``git archive`` (as ``tools/bench_pair.py``
does); the change side is the working tree as it stands.  Each side runs
with ``PYTHONPATH`` at its own ``src`` and one BLAS thread, in a scratch
directory of its own, and these artifacts are compared:

* ``ddpc benchmark --config {table1,lti_fig1,nonlinear_fig2} --seeds 5
  --workers 2`` and ``--config closedloop --workers 2``: the exit code,
  ``records.csv`` and ``normalized.csv``;
* ``ddpc control --config <table1 with mu> --controller <v>`` for every
  variant, on a copy of table1 that adds ``gamma.mu = 1e3`` and
  ``projreg_g.mu = reg_gamma.mu`` (as ``run_single`` below) so that every
  variant runs: the exit code, stdout and the per-step CSV;
* ``ddpc tune --config table1`` over its full grids (about 25 s on one
  core): the exit code and stdout, the tuned weights;
* ``run_single`` for every variant at table1 seeds 0-2, with
  ``gamma.mu = 1e3`` and ``projreg_g.mu = reg_gamma.mu``: J, J_y, J_u and
  every step's ``u_f``/``y_f``, ``qp_iterations``, ``qp_status``,
  ``primal_res`` and ``dual_res``;
* every script in ``demos/``, each in a directory of its own: the exit
  code, stdout and every file it writes there (demo 03's
  ``rollout_demo.csv``, demo 06's CSVs);
* the identification of an n_d = 5000 record on the table1 and
  nonlinear_fig2 plants, seeds 0-2, each record drawn as perfbench's
  identify_long draws it (``collect_open_loop``, ``partition``,
  ``factorize``, ``fit_spc`` and ``fit_causal``): the input and output
  record (longer than any record that reaches ``records.csv``), the six
  LQ blocks and both predictors' gains.

By default every artifact must be byte-identical, and ``run_single`` and
the identifications are compared through sha256 digests: one per
``run_single`` field group (``J``, ``plans``, ``qp_status``,
``qp_iterations``, ``primal_res`` and ``dual_res``) and one per
identification group (``record``, ``lq_blocks``, ``spc``, ``causal``),
so that a run that differs names the groups that differ, as in
``DIFFERS (dual_res)``.  With
``--rtol r``, both report raw values, and numbers may differ by a
relative ``r``: a numeric CSV column, a ``u_f``/``y_f`` record, one
array of an identification group or a J is within ``r`` when
``max|a - b| <= r * max(|a|, |b|)`` over it; a CSV that differs beyond
``r`` also names each row beyond it (by its controller, grid point and
seed, or by its step) with that row's worst deviation against its
columns' scale.  Exit codes, statuses and
every other text must still be equal.  The iteration counts
(``qp_iters``, ``qp_iterations``) and the solver residuals
(``primal_res``, ``dual_res``) are reported before -> after without
being gated, because a change of solver path changes them by design.
In either mode four lines before the last report, also ungated: how
many records and ``run_single`` steps ran ADMM at all (``qp_iters > 0``)
on each side, split by final status (a record's is the worst of its
steps); how many ``run_single`` steps each QP path answered
(``StepResult.qp_path``; ``-`` for a base whose steps carry no path)
with the total of their ``StepResult.qp_sets``, the active sets they
factored (``-`` for a base without the field); whether the per-step
``(qp_path, qp_sets)`` sequences of those steps are equal on both sides,
or else the first step that differs (as ``<variant>/<seed> step <t>``);
and the line total of ``src/ddpc/*.py`` on each side, as ``wc -l``
counts it, next to the number of names the package exports
(``len(ddpc.__all__)``), its count of public concepts.

One verdict line is printed per artifact; the exit code is 1 if any
artifact differs, else 0.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from bench_pair import ROOT, git, unpack

BENCHMARKS = (("table1", "5"), ("lti_fig1", "5"), ("nonlinear_fig2", "5"),
              ("closedloop", None))
DIGEST_SEEDS = 3
IDENTIFY_N_D = 5000
UNGATED_COLUMNS = ("qp_iters",)
# the columns that name a CSV row where it deviates beyond --rtol: a
# record's controller, grid point and seed, a per-step log's step
ROW_KEYS = ("controller", "N_d", "sigma_e", "eps", "seed", "t")
# the final statuses that the ADMM traffic line always names
ADMM_STATUSES = ("solved", "max_iter", "primal_infeasible")
# the QP paths that the path line always names
QP_PATHS = ("record", "set", "corrected", "admm")

# Runs in each tree; prints {"runs": {"<variant>/<seed>": {<field group>:
# sha256}}, "steps": <count>, "admm_statuses": [the status of each step
# with qp_iterations > 0], "paths": [each step's qp_path, or None],
# "sets": [each step's qp_sets, or None], "where": [each step's
# "<variant>/<seed> step <t>"]} as JSON, or with RAW set the values
# themselves in place of the digests.
DIGEST_CODE = """
import hashlib, json, pickle, sys
import numpy as np
import ddpc

RAW = {raw}
cfg = ddpc.load_config("table1")
cfg = cfg.with_controller_params("gamma", mu=1e3).with_controller_params(
    "projreg_g", mu=cfg.controller_params["reg_gamma"]["mu"])
out = {{}}
n_steps, admm, paths, sets, where = 0, [], [], [], []
for variant in ddpc.VARIANTS:
    for seed in range({seeds}):
        try:
            rollout, _ = ddpc.run_single(cfg, variant, seed)
        except ddpc.Diverged as exc:
            out[f"{{variant}}/{{seed}}"] = "diverged: " + str(exc)
            continue
        n_steps += len(rollout.steps)
        admm += [s.qp_status.value for s in rollout.steps
                 if s.qp_iterations > 0]
        paths += [getattr(s, "qp_path", None) for s in rollout.steps]
        sets += [getattr(s, "qp_sets", None) for s in rollout.steps]
        where += [f"{{variant}}/{{seed}} step {{t}}"
                  for t in range(len(rollout.steps))]
        s = rollout.steps
        run = dict(
            J=[rollout.J, rollout.J_y, rollout.J_u],
            u_f=[np.asarray(t.u_f).tolist() for t in s],
            y_f=[np.asarray(t.y_f).tolist() for t in s],
            qp_iterations=[t.qp_iterations for t in s],
            qp_status=[t.qp_status.value for t in s],
            primal_res=[t.primal_res for t in s],
            dual_res=[t.dual_res for t in s])
        if not RAW:
            # one digest per field group, the plans u_f and y_f in one
            run["plans"] = (run.pop("u_f"), run.pop("y_f"))
            run = {{name: hashlib.sha256(pickle.dumps(v, protocol=4))
                    .hexdigest() for name, v in run.items()}}
        out[f"{{variant}}/{{seed}}"] = run
json.dump(dict(runs=out, steps=n_steps, admm_statuses=admm, paths=paths,
               sets=sets, where=where), sys.stdout, sort_keys=True)
"""


# Runs in each tree; prints {"<config>/<seed>": {<group>: sha256}} as
# JSON, the record group hashed as bench.py's dataset_hash takes it
# (shape, inputs, outputs), or with RAW set each group's arrays themselves
# in place of the sha256.
IDENTIFY_CODE = """
import hashlib, json, sys
import numpy as np
import ddpc

RAW = {raw}
out = {{}}
for name in ("table1", "nonlinear_fig2"):
    cfg = ddpc.load_config(name)
    plant = cfg.plant()
    for seed in range({seeds}):
        rng = ddpc.rng_for(0x1D, seed)
        traj = ddpc.collect_open_loop(plant, cfg.excitation({n_d}, rng=rng),
                                      rng=rng)
        part = ddpc.partition(traj, cfg.horizon())
        blocks = ddpc.factorize(part)
        spc, causal = ddpc.fit_spc(part), ddpc.fit_causal(blocks)
        groups = dict(
            record=[np.int64([traj.m, traj.p, traj.n_samples]), traj.inputs,
                    traj.outputs],
            lq_blocks=[getattr(blocks, b) for b in
                       ("L11", "L21", "L22", "L31", "L32", "L33")],
            spc=[spc.K_p, spc.K_f], causal=[causal.K_p, causal.K_f])
        if RAW:
            out[f"{{name}}/{{seed}}"] = {{
                group: [a.tolist() for a in arrays]
                for group, arrays in groups.items()}}
            continue
        run = {{}}
        for group, arrays in groups.items():
            digest = hashlib.sha256()
            for a in arrays:
                digest.update(np.ascontiguousarray(a).tobytes())
            run[group] = digest.hexdigest()
        out[f"{{name}}/{{seed}}"] = run
json.dump(out, sys.stdout, sort_keys=True)
"""


def _run(tree: Path, work: Path, args: list[str]):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, text=True)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def _control_config(tree: Path, work: Path) -> Path:
    """Write table1 with the ``mu`` weights that ``gamma`` and ``projreg_g``
    need, the ones the ``run_single`` digest sets, into ``work``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read(tree / "src" / "ddpc" / "configs" / "table1.cfg",
                encoding="utf-8")
    params = parser["controllers"]
    params["gamma.mu"] = "1e3"
    params["projreg_g.mu"] = params["reg_gamma.mu"]
    path = work / "table1_control.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def collect(tree: Path, work: Path,
            raw: bool) -> tuple[dict, str, tuple[str, str], list]:
    """Every compared artifact of one side, keyed by its verdict label, how
    many records and ``run_single`` steps ran ADMM, how many
    ``run_single`` steps each QP path answered, with the active sets they
    factored in all, and each such step's ``(where, qp_path, qp_sets)``."""
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
    control_cfg = str(_control_config(tree, work))
    for variant in variants:
        csv_name = f"control_{variant}.csv"
        done = _run(tree, work, ["-m", "ddpc", "control", "--config",
                                 control_cfg, "--controller", variant,
                                 "--out", csv_name])
        out[f"control {variant}: exit code"] = done.returncode
        out[f"control {variant}: stdout"] = done.stdout
        out[f"control {variant}: csv"] = _read(work / csv_name)
    done = _run(tree, work, ["-m", "ddpc", "tune", "--config", "table1"])
    out["tune table1: exit code"] = done.returncode
    out["tune table1: stdout"] = done.stdout
    for script in sorted((tree / "demos").glob("*.py")):
        label, run_dir = f"demo {script.stem}", work / f"demo_{script.stem}"
        run_dir.mkdir()
        done = _run(tree, run_dir, [str(script)])
        out[f"{label}: exit code"] = done.returncode
        out[f"{label}: stdout"] = done.stdout
        for path in sorted(run_dir.rglob("*")):
            if path.is_file():
                out[f"{label}: {path.relative_to(run_dir)}"] = \
                    path.read_bytes()
    done = _run(tree, work, ["-c", DIGEST_CODE.format(raw=raw,
                                                      seeds=DIGEST_SEEDS)])
    if done.returncode != 0:
        raise SystemExit(f"run_single digest failed in {tree}:\n"
                         f"{done.stderr}")
    digest = json.loads(done.stdout)
    for key, value in digest["runs"].items():
        out[f"run_single {key}"] = value
    done = _run(tree, work, ["-c", IDENTIFY_CODE.format(
        raw=raw, seeds=DIGEST_SEEDS, n_d=IDENTIFY_N_D)])
    if done.returncode != 0:
        raise SystemExit(f"identification digest failed in {tree}:\n"
                         f"{done.stderr}")
    for key, value in json.loads(done.stdout).items():
        out[f"identify {key}"] = value
    rows = [row for name, _ in BENCHMARKS
            for row in csv.DictReader(io.StringIO(
                (out[f"benchmark {name}: records.csv"] or b"").decode()))]
    ran = [row["status"] for row in rows if float(row["qp_iters"]) > 0]
    admm = (f"records {_traffic(ran, len(rows))}, run_single steps "
            f"{_traffic(digest['admm_statuses'], digest['steps'])}")
    paths, sets = digest["paths"], digest["sets"]
    return out, admm, ("-" if None in paths else _split(paths, QP_PATHS),
                       "-" if None in sets else str(sum(sets))), list(
        zip(digest["where"], paths, sets))


def step_sequences(before: list, after: list) -> str:
    """Whether the per-step ``(qp_path, qp_sets)`` of both sides'
    ``run_single`` steps are equal, or the first step where they differ."""
    for (at_a, *a), (at_b, *b) in zip(before, after):
        if (at_a, a) != (at_b, b):
            at = at_a if at_a == at_b else f"{at_a} / {at_b}"
            return f"differ first at {at}: {tuple(a)} -> {tuple(b)}"
    if len(before) != len(after):
        return f"differ in length: {len(before)} -> {len(after)} steps"
    return f"equal over {len(before)} steps"


def _split(values: list[str], names: tuple[str, ...]) -> str:
    """``<name> <count>`` for each of ``names`` and each other value."""
    counts = collections.Counter(values)
    names = [*names, *sorted(counts.keys() - set(names))]
    return ", ".join(f"{name} {counts[name]}" for name in names)


def _traffic(statuses: list[str], total: int) -> str:
    """``<ran ADMM>/<total> (<count per final status>)``."""
    return f"{len(statuses)}/{total} ({_split(statuses, ADMM_STATUSES)})"


def line_total(tree: Path) -> int:
    """The newlines in ``src/ddpc/*.py`` of ``tree``: ``wc -l``'s total."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "ddpc").glob("*.py"))


def size(tree: Path, work: Path) -> str:
    """``tree``'s line total and the length of its ``ddpc.__all__``."""
    done = _run(tree, work, ["-c", "import ddpc; print(len(ddpc.__all__))"])
    if done.returncode != 0:
        raise SystemExit(f"import ddpc failed in {tree}:\n{done.stderr}")
    return f"{line_total(tree)} lines, {done.stdout.strip()} names"


# -- comparison within a relative tolerance ---------------------------------


def rel_devs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per entry, ``|a - b| / max(|a|, |b|)`` with the maximum over all
    finite entries; 0 where the entries are equal, inf where a differing
    entry is not finite."""
    differ = ~((a == b) | (np.isnan(a) & np.isnan(b)))
    devs = np.where(differ, math.inf, 0.0)
    finite = np.isfinite(a) & np.isfinite(b)
    both = differ & finite
    if both.any():
        scale = max(np.abs(a[finite]).max(), np.abs(b[finite]).max())
        devs[both] = np.abs(a[both] - b[both]) / scale
    return devs


def rel_dev(a, b) -> float:
    """``max|a - b| / max(|a|, |b|)``; non-finite entries must be equal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return math.inf
    return float(rel_devs(a, b).max(initial=0.0))


class Tally:
    """Worst deviation, text mismatches and ungated figures of one
    artifact, and the worst deviation of each named row."""

    def __init__(self):
        self.worst = 0.0
        self.mismatch: list[str] = []
        self.notes: list[str] = []
        self.rows: dict[str, float] = {}

    def numbers(self, a, b, rows=None) -> None:
        """Fold in the deviation of ``b`` from ``a``; with ``rows``, one
        name per entry, also each row's."""
        if rows is None:
            self.worst = max(self.worst, rel_dev(a, b))
            return
        devs = rel_devs(np.asarray(a, dtype=float),
                        np.asarray(b, dtype=float))
        self.worst = max(self.worst, float(devs.max(initial=0.0)))
        for row, dev in zip(rows, devs.tolist()):
            self.rows[row] = max(self.rows.get(row, 0.0), dev)

    def exact(self, what: str, a, b) -> None:
        if a != b:
            self.mismatch.append(what)

    def verdict(self, rtol: float) -> tuple[str, bool]:
        notes = "".join(f"; {n}" for n in self.notes)
        if self.mismatch:
            return (f"DIFFERS ({', '.join(self.mismatch[:3])} not equal"
                    f"{notes})", False)
        ok = self.worst <= rtol
        word = "within rtol" if ok else "DIFFERS beyond rtol"
        beyond = [f"{row} (rel {dev:.1e})"
                  for row, dev in self.rows.items() if dev > rtol]
        if beyond:
            notes += f"; rows beyond rtol: {'; '.join(beyond)}"
        return f"{word} (worst rel {self.worst:.2e}{notes})", ok


def _floats(cells) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def _compare_csv(a: bytes, b: bytes, tally: Tally) -> None:
    rows_a = list(csv.reader(io.StringIO(a.decode())))
    rows_b = list(csv.reader(io.StringIO(b.decode())))
    tally.exact("header", rows_a[:1], rows_b[:1])
    tally.exact("row count", len(rows_a), len(rows_b))
    if tally.mismatch:
        return
    header = rows_a[0]
    keys = [j for j, name in enumerate(header) if name in ROW_KEYS]
    names = [" ".join(f"{header[j]}={r[j]}" for j in keys) or f"row {i}"
             for i, r in enumerate(rows_a[1:], start=1)]
    for j, name in enumerate(header):
        col_a = [r[j] for r in rows_a[1:]]
        col_b = [r[j] for r in rows_b[1:]]
        num_a, num_b = _floats(col_a), _floats(col_b)
        if name in UNGATED_COLUMNS:
            tally.notes.append(f"{name} {sum(num_a or [0]):.0f} -> "
                               f"{sum(num_b or [0]):.0f}")
        elif num_a is None or num_b is None:
            tally.exact(name, col_a, col_b)
        else:
            tally.numbers(num_a, num_b, rows=names)


_TOKEN = re.compile(r"(\s+|=)")


def _compare_text(a: str, b: str, tally: Tally) -> None:
    tok_a, tok_b = _TOKEN.split(a), _TOKEN.split(b)
    tally.exact("token count", len(tok_a), len(tok_b))
    for x, y in zip(tok_a, tok_b):
        nums = _floats([x, y])
        if x != y and nums is not None:
            tally.numbers(nums[0], nums[1])
        else:
            tally.exact("text", x, y)


def _compare_run(a, b, tally: Tally) -> None:
    if isinstance(a, str) or isinstance(b, str):
        tally.exact("outcome", a, b)
        return
    tally.exact("qp_status", a["qp_status"], b["qp_status"])
    tally.exact("step count", len(a["u_f"]), len(b["u_f"]))
    if tally.mismatch:
        return
    tally.numbers(a["J"], b["J"])
    for name in ("u_f", "y_f"):
        for x, y in zip(a[name], b[name]):
            tally.numbers(x, y)
    tally.notes.append(f"qp_iterations {sum(a['qp_iterations'])} -> "
                       f"{sum(b['qp_iterations'])}")
    for name in ("primal_res", "dual_res"):
        tally.notes.append(f"max {name} {max(a[name], default=0.0):.1e} -> "
                           f"{max(b[name], default=0.0):.1e}")


def compare(label: str, a, b, rtol: float | None) -> tuple[str, bool]:
    """The verdict on one artifact and whether it passes."""
    if a == b:
        return ("same" if a is not None else
                "same (absent on both sides)"), True
    if rtol is None and isinstance(a, dict) and isinstance(b, dict):
        groups = [g for g in sorted(a.keys() | b.keys())
                  if a.get(g) != b.get(g)]
        return f"DIFFERS ({', '.join(groups)})", False
    if rtol is None or a is None or b is None or isinstance(a, int):
        return "DIFFERS", False
    tally = Tally()
    if label.startswith("run_single "):
        _compare_run(a, b, tally)
    elif label.startswith("identify "):
        tally.exact("groups", sorted(a), sorted(b))
        for group in a.keys() & b.keys():
            for x, y in zip(a[group], b[group]):
                tally.numbers(x, y)
    elif isinstance(a, bytes):
        _compare_csv(a, b, tally)
    else:
        _compare_text(a, b, tally)
    return tally.verdict(rtol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit")
    parser.add_argument("--rtol", type=float, default=None,
                        help="allowed relative deviation of numbers "
                             "(default: byte identity)")
    args = parser.parse_args(argv)

    base = git("rev-parse", "--short", args.base)
    raw = args.rtol is not None
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "tree"
        unpack(args.base, base_tree)
        before, admm_before, paths_before, steps_before = collect(
            base_tree, Path(tmp) / "base", raw)
        after, admm_after, paths_after, steps_after = collect(
            ROOT, Path(tmp) / "change", raw)
        sizes = (f"{size(base_tree, Path(tmp) / 'base')} -> "
                 f"{size(ROOT, Path(tmp) / 'change')}")
    n_diff = 0
    for label in sorted(before.keys() | after.keys()):
        if label not in before or label not in after:
            verdict, ok = "MISSING on one side", False
        else:
            verdict, ok = compare(label, before[label], after[label],
                                  args.rtol)
        n_diff += not ok
        print(f"{label}: {verdict}")
    print(f"ran ADMM (qp_iters > 0, not gated): {admm_before} -> "
          f"{admm_after}")
    print(f"QP paths of run_single steps (not gated): {paths_before[0]} -> "
          f"{paths_after[0]}; active sets factored: {paths_before[1]} -> "
          f"{paths_after[1]}")
    print(f"per-step (qp_path, qp_sets) of run_single steps (not gated): "
          f"{step_sequences(steps_before, steps_after)}")
    print(f"src/ddpc/*.py lines (wc -l) and ddpc.__all__ names, not gated: "
          f"{sizes}")
    mode = "byte identity" if args.rtol is None else f"rtol {args.rtol:g}"
    print(f"{len(before | after) - n_diff} pass, {n_diff} different "
          f"(base {base}, {mode})")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main())
