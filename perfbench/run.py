#!/usr/bin/env python3
"""Benchmark of ddpc: one workload per process, one BLAS thread.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mc_table1 --seed 0 --seconds 20 \
        --trace 0

``--workload all`` runs every workload, each in its own process.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans are also written to
``perfbench/out/``.  The last line of standard output is the result as one
JSON object; the line before it records the machine and the seed.  A failed
output check prints ``"correct": false`` and exits with code 1.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("mc_table1", "rollout_variants", "identify_long")
DEFAULT_SEED = 0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
SETUP_REPEATS = 9
SETUP_CODE = ("import time; start = time.perf_counter(); import ddpc; "
              "ddpc.load_config('table1'); "
              "print(repr(time.perf_counter() - start))")


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(probe) -> float:
    from speed import REF_S

    """Median time a fresh interpreter takes to import ddpc and load
    table1, as the interpreter measures it, calibrated by speed samples
    taken just before and after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                               env=env, check=True, timeout=120,
                               capture_output=True, text=True)
        probe.sample()
        spent = probe.ends[-2] - probe.starts[-2] + probe.ends[-1] \
            - probe.starts[-1]
        times.append(float(child.stdout) * 2 * REF_S / spent)
    return statistics.median(times)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "git_commit": commit, "seed": seed}


class Runner:
    """Runs passes of one workload and accumulates what they report.

    A speed sample is taken before the first pass and after every pass, and
    the workloads take more between requests; see ``speed.py``.
    """

    def __init__(self, workload, seed: int, seconds: float):
        from speed import SpeedProbe

        self.wl, self.seed, self.seconds = workload, seed, seconds
        self.probe = SpeedProbe()
        self.raw_ms: list[float] = []
        self.latencies: list[float] = []
        self.pass_rates: list[float] = []
        self.ok: list[bool] = []
        self.failed = 0
        self.summaries: list = []

    def _run(self, i: int, sampled: bool, around=None):
        """One pass bracketed by speed samples, inside the context manager
        ``around`` if given; returns it and its calibrated wall in
        seconds."""
        if not self.probe.starts:
            self.probe.sample()
        start = time.perf_counter()
        with around or contextlib.nullcontext():
            p = self.wl.run_pass(self.seed, i,
                                 self.probe if sampled else None)
        end = time.perf_counter()
        self.probe.sample()
        self.raw_ms += p.latencies_ms
        self.latencies += [ms * self.probe.factor(a, b)
                           for ms, (a, b) in zip(p.latencies_ms, p.windows)]
        self.ok += p.ok
        self.failed += p.failed
        calibrated = self.probe.calibrated(start, end)
        self.pass_rates.append(len(p.latencies_ms) / calibrated)
        return p, calibrated

    def _check(self, p, keep: bool) -> object:
        """Check a pass; keep its summary for the loss and the reference."""
        summary = self.wl.check(p.outputs)
        if keep:
            self.summaries.append(summary)
        return summary

    def _more(self, i: int, started: float) -> bool:
        """Start pass ``i`` only if it should end within the budget."""
        elapsed = time.perf_counter() - started
        return i < self.wl.min_passes or elapsed * (i + 1) / i <= self.seconds

    def plain(self) -> None:
        """Untraced passes."""
        started = time.perf_counter()
        i = 0
        while i == 0 or self._more(i, started):
            p, _ = self._run(i, sampled=True)
            self._check(p, i < self.wl.min_passes)
            i += 1

    def traced(self, tracer) -> list[float]:
        """Each pass untraced and traced on the same inputs, alternating
        which goes first; returns both calibrated walls.  Speed samples
        are taken only between passes, so that none falls into a span."""
        from spans import installed
        from workloads import CheckFailed

        @contextlib.contextmanager
        def traced_pass():
            with installed(tracer), tracer.span("bench.pass"):
                yield

        started = time.perf_counter()
        walls = [0.0, 0.0]
        i = 0
        while i == 0 or self._more(i, started):
            summaries = []
            for traced in ((False, True), (True, False))[i % 2]:
                p, calibrated = self._run(
                    i, sampled=False, around=traced_pass() if traced else None)
                walls[traced] += calibrated
                keep = not traced and i < self.wl.min_passes
                summaries.append(repr(self._check(p, keep)))
            if summaries[0] != summaries[1]:
                raise CheckFailed(f"pass {i}: tracing changed the outputs")
            i += 1
        return walls

    def check_reference(self) -> None:
        if self.seed == DEFAULT_SEED:
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)[self.wl.name]
            self.wl.check_reference(self.summaries, ref)

    def write_reference(self) -> None:
        ref = {}
        if REFERENCE.exists():
            with open(REFERENCE, encoding="utf-8") as fh:
                ref = json.load(fh)
        ref[self.wl.name] = self.wl.reference(self.summaries)
        with open(REFERENCE, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")


def end_to_end(runner: Runner, setup_s: float) -> dict:
    from speed import REF_S

    lat = runner.latencies
    print(f"speed kernel median {runner.probe.median_ms():.3f} ms "
          f"(reference {1e3 * REF_S:g} ms); uncalibrated request ms "
          f"p50 {_quantile(runner.raw_ms, 50):.3f} "
          f"p90 {_quantile(runner.raw_ms, 90):.3f} "
          f"over {len(lat)} requests")
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (statistics.median(runner.pass_rates), "1/s"),
        "request_ms_p50": (_quantile(lat, 50), "ms"),
        "request_ms_p90": (_quantile(lat, 90), "ms"),
        "ok_frac": (sum(runner.ok) / len(runner.ok), "frac"),
        "loss": (runner.wl.loss(runner.summaries), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(runner: Runner) -> dict:
    from spans import Tracer, layer_metrics, layer_self_seconds, self_times
    from workloads import CheckFailed

    tracer = Tracer()
    untraced_wall, traced_wall = runner.traced(tracer)
    spans = tracer.spans
    wall = sum(s[2] - s[1] for s in spans if s[3] < 0)
    accounted = sum(self_times(spans))
    if abs(accounted - wall) > 1e-9 * wall:
        raise CheckFailed(f"span self times sum to {accounted!r} s, traced "
                          f"wall is {wall!r} s")
    print(f"traced wall {wall:.3f} s over {len(spans)} spans; "
          f"self time by layer (sums to {accounted:.3f} s):")
    for layer, secs in sorted(layer_self_seconds(spans).items(),
                              key=lambda kv: -kv[1]):
        print(f"  {layer:12s} {secs:9.3f} s  {secs / wall:7.2%}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace_{runner.wl.name}_{runner.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "request",
                              "tag", "info"], "spans": spans}, fh)
    return layer_metrics(spans, wall, traced_wall / untraced_wall - 1.0)


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds",
                               str(args.seconds), "--trace", str(args.trace)])
        code = code or done.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "ddpc" / "__init__.py").is_file():
        print(f"ddpc sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != DEFAULT_SEED:
        parser.error("the reference is kept for the default seed only")
    # BLAS reads its thread count once, when numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import ddpc
    from workloads import WORKLOADS, CheckFailed

    runner = Runner(WORKLOADS[args.workload](ddpc.load_config("table1")),
                    args.seed, args.seconds)
    setup_s = 0.0 if args.trace else measure_setup(runner.probe)
    print(json.dumps({"env": environment(args.seed)}))
    try:
        if args.trace:
            metrics = per_layer(runner)
        else:
            runner.plain()
            metrics = end_to_end(runner, setup_s)
        if args.write_reference:
            runner.write_reference()
        runner.check_reference()
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(runner.ok),
                          "failed": runner.failed, "metrics": {}}))
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": True, "attempted": len(runner.ok), "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
