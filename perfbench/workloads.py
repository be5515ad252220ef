"""The three benchmark workloads, their output checks and their loss.

Each workload runs in passes.  Pass ``i`` at workload seed ``n`` draws its
Monte-Carlo seeds from ``[n * SEED_STRIDE, (n + 1) * SEED_STRIDE)``, so the
same seed gives the same inputs and different seeds do not overlap.  A pass
returns its request latencies and outputs; :meth:`check` verifies the
outputs and reduces them to a small summary from which the loss and the
stored reference are computed.

``probe``, when given, samples the machine speed between requests; each
latency comes with the window whose speed applies to it.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import ddpc
import ddpc.bench as bench_module
from speed import sampling_before

SEED_STRIDE = 1000
REF_RTOL = 1e-6
# Solved steps must meet eps_abs + eps_rel * scale for a problem scale up to
# this value; the solver's own stopping rule uses the actual scale.
RESIDUAL_SCALE = 1e3
_IDENTIFY_STREAM = 0x1D


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


@dataclass
class Pass:
    latencies_ms: list[float]
    windows: list[tuple[float, float]]
    ok: list[bool]
    failed: int
    outputs: object


class McTable1:
    """``run_sweep`` on the bundled table1 config, three seeds per call."""

    name = "mc_table1"
    min_passes = 1
    seeds_per_pass = 3

    def __init__(self, cfg):
        self.cfg = cfg

    def seeds(self, seed: int, i: int) -> range:
        first = seed * SEED_STRIDE + i * self.seeds_per_pass
        return range(first, first + self.seeds_per_pass)

    def run_pass(self, seed: int, i: int, probe=None) -> Pass:
        # speed samples before each unit's data and before each rollout
        with sampling_before(bench_module,
                             ("collect_open_loop", "make_controller"), probe):
            start = time.perf_counter()
            records = ddpc.run_sweep(self.cfg, workers=1,
                                     seeds=self.seeds(seed, i))
            end = time.perf_counter()
        done = [r for r in records if r.status != "diverged"]
        return Pass([r.wall_ms for r in done], [(start, end)] * len(done),
                    [r.status == "solved" for r in records],
                    len(records) - len(done), (self.seeds(seed, i), records))

    def check(self, outputs) -> list:
        seeds, records = outputs
        cfg = self.cfg
        expect = {(c, n, s) for c in cfg.controllers for n in cfg.sweep_n_d
                  for s in seeds}
        keys = [(r.controller, r.N_d, r.seed) for r in records]
        _require(len(keys) == len(expect) and set(keys) == expect,
                 "run_sweep did not return one record per unit and "
                 "controller")
        unit_hash: dict[tuple, str] = {}
        for r in records:
            _require(len(r.dataset_hash) == 16,
                     f"{r.controller}/{r.N_d}/{r.seed}: bad dataset_hash")
            _require(unit_hash.setdefault((r.N_d, r.seed), r.dataset_hash)
                     == r.dataset_hash,
                     f"controllers at N_d={r.N_d} seed={r.seed} saw "
                     "different datasets")
            if r.status == "diverged":
                continue
            _require(r.status in ("solved", "max_iter", "primal_infeasible",
                                  "dual_infeasible"),
                     f"unknown status {r.status!r}")
            _require(math.isfinite(r.J) and r.J_y >= 0.0 and r.J_u >= 0.0
                     and _close(r.J, r.J_y + r.J_u, 1e-12),
                     f"{r.controller}/{r.N_d}/{r.seed}: J != J_y + J_u")
        _require(len(set(unit_hash.values())) == len(unit_hash),
                 "two units share a dataset")
        return [(r.controller, r.N_d, r.seed, r.dataset_hash, r.J, r.J_y,
                 r.J_u, r.status) for r in records]

    def loss(self, summaries: list) -> float:
        records = [ddpc.RunRecord(controller=c, N_d=n, sigma_e=0.0, eps=0.0,
                                  seed=s, J=J, J_y=Jy, J_u=Ju, wall_ms=0.0,
                                  qp_iters=0, status=st, dataset_hash=h)
                   for summary in summaries
                   for c, n, s, h, J, Jy, Ju, st in summary
                   if st != "diverged"]
        rows = ddpc.normalize_costs(records, self.cfg.baseline)
        return float(np.mean([row["ratio"] for row in rows
                              if row["controller"] != self.cfg.baseline]))

    def reference(self, summaries: list) -> dict:
        return {f"{c}/{n}/{s}": [h, J, Jy, Ju]
                for summary in summaries
                for c, n, s, h, J, Jy, Ju, _ in summary}

    def check_reference(self, summaries: list, ref: dict) -> None:
        got = self.reference(summaries)
        _require(set(got) == set(ref), "reference covers other records")
        for key, (h, *costs) in ref.items():
            _require(got[key][0] == h, f"{key}: dataset_hash differs from "
                     "the reference")
            _require(all(_close(a, b, REF_RTOL)
                         for a, b in zip(got[key][1:], costs)),
                     f"{key}: J, J_y or J_u differs from the reference")


class RolloutVariants:
    """One ``run_single`` rollout per variant on the table1 plant, n_d=200.

    A request is one controller step, the latency an online user sees.
    """

    name = "rollout_variants"
    min_passes = 10

    def __init__(self, cfg):
        # gamma needs a penalty table1 does not set; projreg_g takes the
        # one of reg_gamma, with which it is equivalent.
        self.cfg = (cfg.with_controller_params("gamma", mu=1e3)
                    .with_controller_params(
                        "projreg_g", mu=cfg.controller_params["reg_gamma"]
                        ["mu"]))
        st = self.cfg.qp_settings()
        self.res_tol = st.eps_abs + st.eps_rel * RESIDUAL_SCALE

    def run_pass(self, seed: int, i: int, probe=None) -> Pass:
        s = seed * SEED_STRIDE + i
        p = Pass([], [], [], 0, (s, {}))
        for variant in ddpc.VARIANTS:
            if probe is not None:
                probe.sample()
            steps: list[tuple[float, bool]] = []
            start = time.perf_counter()
            try:
                with _timed_steps(steps):
                    rollout, _ = ddpc.run_single(self.cfg, variant, s)
            except ddpc.Diverged:
                p.ok += [False] * len(steps)
                p.failed += len(steps)
                continue
            end = time.perf_counter()
            p.latencies_ms += [ms for ms, _ in steps]
            p.windows += [(start, end)] * len(steps)
            p.ok += [solved for _, solved in steps]
            p.outputs[1][variant] = rollout
        return p

    def check(self, outputs) -> dict:
        s, rollouts = outputs
        cfg = self.cfg
        summary = {}
        for variant, ro in rollouts.items():
            where = f"{variant}/seed {s}"
            _require(len(ro.steps) == cfg.n_steps, f"{where}: step count")
            _require(math.isfinite(ro.J) and _close(ro.J, ro.J_y + ro.J_u,
                                                    1e-12),
                     f"{where}: J != J_y + J_u")
            for t, step in enumerate(ro.steps):
                if step.qp_status is not ddpc.QpStatus.SOLVED:
                    continue
                _require(step.primal_res <= self.res_tol
                         and step.dual_res <= self.res_tol,
                         f"{where} step {t}: solved with residuals "
                         f"{step.primal_res:.2e}/{step.dual_res:.2e}")
                u = step.u_applied
                _require(np.all(u >= cfg.u_min - self.res_tol)
                         and np.all(u <= cfg.u_max + self.res_tol),
                         f"{where} step {t}: applied input leaves its box")
            summary[variant] = (ro.J, ro.status.value)
        pair = [summary.get(v) for v in ("reg_gamma", "projreg_g")]
        if all(p is not None and p[1] == "solved" for p in pair):
            _require(_close(pair[0][0], pair[1][0], REF_RTOL),
                     f"seed {s}: projreg_g and reg_gamma disagree on J")
        return {"seed": s, "J": {v: j for v, (j, _) in summary.items()}}

    def loss(self, summaries: list) -> float:
        # Paired per seed: a ratio of sums would be dominated by the few
        # seeds whose noise makes every J large.
        base = self.cfg.baseline
        return float(np.mean([x["J"][v] / x["J"][base] for x in summaries
                              for v in ddpc.VARIANTS if v != base]))

    def reference(self, summaries: list) -> dict:
        return {f"{v}/{x['seed']}": j for x in summaries
                for v, j in x["J"].items()}

    def check_reference(self, summaries: list, ref: dict) -> None:
        got = self.reference(summaries)
        _require(set(got) == set(ref), "reference covers other rollouts")
        for key, J in ref.items():
            _require(_close(got[key], J, REF_RTOL),
                     f"{key}: J differs from the reference")


@contextmanager
def _timed_steps(steps: list):
    """Record (ms, solved) of every controller step ``run_single`` takes."""
    build = bench_module.make_controller

    def make_controller(spec, **handles):
        ctrl = build(spec, **handles)
        step = ctrl.step

        def timed(*args, **kwargs):
            start = time.perf_counter()
            out = step(*args, **kwargs)
            steps.append((1e3 * (time.perf_counter() - start),
                          out.qp_status is ddpc.QpStatus.SOLVED))
            return out
        ctrl.step = timed
        return ctrl

    bench_module.make_controller = make_controller
    try:
        yield
    finally:
        bench_module.make_controller = build


class IdentifyLong:
    """Raw record to both predictors at n_d=5000; no QP runs."""

    name = "identify_long"
    min_passes = 1
    records_per_pass = 4
    n_d = 5000

    def __init__(self, cfg):
        self.cfg = cfg

    def run_pass(self, seed: int, i: int, probe=None) -> Pass:
        cfg = self.cfg
        plant = cfg.plant()
        latencies, windows, fits = [], [], []
        for j in range(self.records_per_pass):
            s = seed * SEED_STRIDE + i * self.records_per_pass + j
            if probe is not None:
                probe.sample()
            start = time.perf_counter()
            rng = ddpc.rng_for(_IDENTIFY_STREAM, s)
            traj = ddpc.collect_open_loop(
                plant, cfg.excitation(self.n_d, rng=rng), rng=rng)
            part = ddpc.partition(traj, cfg.horizon())
            blocks = ddpc.factorize(part)
            split = ddpc.causal_split(blocks)
            causal = ddpc.fit_causal(blocks)
            spc = ddpc.fit_spc(part)
            end = time.perf_counter()
            latencies.append(1e3 * (end - start))
            windows.append((start, end))
            fits.append((s, part, blocks, split, causal, spc))
        return Pass(latencies, windows, [True] * len(fits), 0, fits)

    def check(self, outputs) -> list:
        residuals = []
        for s, part, b, split, causal, spc in outputs:
            S = np.vstack([part.Z_p, part.U_f, part.Y_f])
            d1, d2, d3 = b.dim_past, b.dim_u, b.dim_y
            L = np.zeros((d1 + d2 + d3, d1 + d2 + d3))
            L[:d1, :d1] = b.L11
            L[d1:d1 + d2, :d1 + d2] = np.hstack([b.L21, b.L22])
            L[d1 + d2:] = np.hstack([b.L31, b.L32, b.L33])
            G = S @ S.T
            _require(np.abs(L @ L.T - G).max() <= 1e-10 * np.abs(G).max(),
                     "L L^T differs from S S^T of the stacked Hankel matrix")
            _require(np.all(np.diag(L) >= 0.0), "L has a negative diagonal")
            _require(np.array_equal(split.causal + split.noncausal, b.L32),
                     "causal split does not add up to L32")
            mask = ddpc.causal_block_mask(b.p, b.m, b.L_f)
            _require(np.all(causal.K_f[~mask] == 0.0) and causal.causal,
                     "fit_causal has gains outside the causal block mask")
            _require(spc.K_f.shape == causal.K_f.shape
                     and np.isfinite(spc.K_f).all(), "fit_spc gain is broken")
            residuals.append((s, ddpc.fit_residual(part, causal)
                              / np.linalg.norm(part.Y_f)))
        return residuals

    def loss(self, summaries: list) -> float:
        return float(np.mean([r for summary in summaries
                              for _, r in summary]))

    def reference(self, summaries: list) -> dict:
        return {str(s): r for summary in summaries for s, r in summary}

    def check_reference(self, summaries: list, ref: dict) -> None:
        got = self.reference(summaries)
        _require(set(got) == set(ref), "reference covers other records")
        for key, r in ref.items():
            _require(_close(got[key], r, REF_RTOL),
                     f"record {key}: fit residual differs from the "
                     "reference")


WORKLOADS = {w.name: w for w in (McTable1, RolloutVariants, IdentifyLong)}
