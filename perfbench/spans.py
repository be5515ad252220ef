"""In-memory spans around the public calls into each layer of ``ddpc``.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span, request id, a tag and a small result summary.  Spans nest by
the call stack of the single benchmark thread.  :func:`installed` swaps the
traced wrappers into the ``ddpc`` namespaces for the duration of a block and
restores the originals afterwards, so the package itself is never edited.

The request id increments at every dataset collection: in ``run_sweep`` it
names one (grid point, seed) unit with its data preparation and its
rollouts; in the other workloads it names one request.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import ddpc
import ddpc.bench as bench_module

# span fields
NAME, START, END, PARENT, RID, TAG, INFO = range(7)

# (span name, public function name, result summary)
_FUNCTIONS = (
    ("sim.collect", "collect_open_loop", lambda traj: traj.n_samples),
    ("trajectory.partition", "partition", None),
    ("lq.factorize", "factorize",
     lambda b: (b.M, b.dim_past + b.dim_u + b.dim_y)),
    ("lq.causal_split", "causal_split", None),
    ("predictor.fit_spc", "fit_spc", None),
    ("predictor.fit_causal", "fit_causal", None),
    ("controllers.rollout", "run_receding_horizon", None),
    ("bench.run_sweep", "run_sweep", None),
)


class Tracer:
    """Collects spans of one thread in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rid = -1

    def begin(self, name: str, tag=None) -> int:
        if name == "sim.collect":
            self.rid += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.rid,
                           tag, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, fn, name: str, info=None, tag=None):
        """Return ``fn`` recording a span per call; ``info`` summarizes it."""
        def traced(*args, **kwargs):
            idx = self.begin(name, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if info is not None:
                self.spans[idx][INFO] = info(out)
            return out
        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route the public layer calls of ``ddpc`` through ``tracer``."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    for span_name, fn_name, info in _FUNCTIONS:
        traced = tracer.wrap(getattr(ddpc, fn_name), span_name, info)
        for module in (ddpc, bench_module):
            if hasattr(module, fn_name):
                patch(module, fn_name, traced)

    build = tracer.wrap(ddpc.make_controller, "controllers.build")

    def make_controller(spec, **handles):
        ctrl = build(spec, **handles)
        ctrl.step = tracer.wrap(ctrl.step, "controllers.step",
                                tag=spec.variant)
        return ctrl

    patch(ddpc, "make_controller", make_controller)
    patch(bench_module, "make_controller", make_controller)
    solver = ddpc.BoxQpSolver
    patch(solver, "__init__", tracer.wrap(solver.__init__, "qp.init"))
    patch(solver, "solve", tracer.wrap(
        solver.solve, "qp.solve",
        info=lambda sol: (sol.iterations, sol.status.value)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_self_seconds(spans: list[list]) -> dict[str, float]:
    """Self time per layer, the layer being the span name up to its dot."""
    out: dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[list], traced_wall: float,
                  overhead: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as ``(value, unit)``.

    Per-call figures are means over the spans of that name; a layer with no
    span in the workload reports 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def mean_ms(name):
        d = [spans[i][END] - spans[i][START] for i in by_name.get(name, ())]
        return 1e3 * sum(d) / len(d) if d else 0.0

    def self_s(name):
        return sum(own[i] for i in by_name.get(name, ()))

    solves = by_name.get("qp.solve", [])
    iters = sum(spans[i][INFO][0] for i in solves)
    steps = by_name.get("controllers.step", [])
    step_ms = [1e3 * (spans[i][END] - spans[i][START]) for i in steps]
    collect_samples = sum(spans[i][INFO] for i in by_name.get("sim.collect",
                                                              ()))
    flops = sum(2.0 * spans[i][INFO][0] * spans[i][INFO][1] ** 2
                for i in by_name.get("lq.factorize", ()))
    bench_self = self_s("bench.pass") + self_s("bench.run_sweep")
    m = {
        "qp.solves": (len(solves), "count"),
        "qp.iters_per_solve": (iters / len(solves) if solves else 0.0,
                               "count"),
        "qp.us_per_iter": (1e6 * self_s("qp.solve") / iters if iters else 0.0,
                           "us"),
        "qp.solve_ms": (mean_ms("qp.solve"), "ms"),
        "qp.solver_init_ms": (mean_ms("qp.init"), "ms"),
        "qp.share": ((self_s("qp.solve") + self_s("qp.init")) / traced_wall,
                     "frac"),
    }
    for status in ddpc.QpStatus:
        m[f"qp.status.{status.value}"] = (
            sum(1 for i in solves if spans[i][INFO][1] == status.value),
            "count")
    m["controllers.steps"] = (len(steps), "count")
    m["controllers.step_ms_p50"] = (
        _percentile(step_ms, 50) if len(step_ms) > 1 else 0.0, "ms")
    m["controllers.step_ms_p99"] = (
        _percentile(step_ms, 99) if len(step_ms) > 1 else 0.0, "ms")
    m["controllers.step_self_ms"] = (
        1e3 * self_s("controllers.step") / len(steps) if steps else 0.0, "ms")
    rollouts = by_name.get("controllers.rollout", [])
    m["controllers.rollout_self_ms"] = (
        1e3 * self_s("controllers.rollout") / len(rollouts) if rollouts
        else 0.0, "ms")
    m["controllers.build_ms"] = (mean_ms("controllers.build"), "ms")
    for variant in ddpc.VARIANTS:
        d = [step_ms[k] for k, i in enumerate(steps)
             if spans[i][TAG] == variant]
        m[f"controllers.step_ms.{variant}"] = (
            sum(d) / len(d) if d else 0.0, "ms")
    m["sim.collect_ms"] = (mean_ms("sim.collect"), "ms")
    m["sim.collect_us_per_sample"] = (
        1e6 * self_s("sim.collect") / collect_samples if collect_samples
        else 0.0, "us")
    m["trajectory.partition_ms"] = (mean_ms("trajectory.partition"), "ms")
    m["lq.factorize_ms"] = (mean_ms("lq.factorize"), "ms")
    m["lq.factorize_gflops"] = (
        flops / self_s("lq.factorize") / 1e9 if flops else 0.0,
        "GFLOP/s")
    m["lq.causal_split_ms"] = (mean_ms("lq.causal_split"), "ms")
    m["predictor.fit_spc_ms"] = (mean_ms("predictor.fit_spc"), "ms")
    m["predictor.fit_causal_ms"] = (mean_ms("predictor.fit_causal"), "ms")
    m["bench.self_share"] = (bench_self / traced_wall, "frac")
    m["trace_overhead_frac"] = (overhead, "frac")
    return m
