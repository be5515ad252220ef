"""Monte-Carlo benchmark harness driven by plain config files.

An experiment config describes the plant, the excitation used for data
collection, horizons, cost, constraints, the controller roster and the
sweep grid.  Every run is a pure function of the config and the seed:
datasets and closed-loop innovation streams are derived from
counter-based generators keyed on the grid point and seed, never on the
controller, so that controllers at the same grid point face identical
data and disturbances (paired comparison).
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np

from .controllers import (
    VARIANT_TABLE,
    BoxConstraints,
    ControllerSpec,
    CostSpec,
    RolloutResult,
    make_controller,
    run_receding_horizon,
)
from .errors import ConfigError, Diverged, MissingBaseline
from .lq import factorize
from .qp import QpSettings
from .sim import (
    LinearFeedbackController,
    NonlinearWrapper,
    StateSpaceModel,
    collect_closed_loop,
    collect_open_loop,
    multisine,
    random_steps,
    rng_for,
    sine_reference,
    square_wave,
)
from .trajectory import HorizonSpec, Trajectory, partition

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "load_config",
    "bundled_config_path",
    "run_sweep",
    "run_single",
    "tune",
    "select_best",
    "normalize_costs",
    "write_records",
    "write_normalized",
    "write_rollout_csv",
    "RECORD_FIELDS",
]

RECORD_FIELDS = ("controller", "N_d", "sigma_e", "eps", "seed", "J", "J_y",
                 "J_u", "wall_ms", "qp_iters", "status", "dataset_hash")

# Stream tags keeping dataset and closed-loop noise independent.
_DATA_STREAM = 0x0DA7A
_LOOP_STREAM = 0xC105ED


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split())
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from None


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    try:
        return np.array([[float(tok) for tok in r.split()] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"bad matrix {text!r}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description; see the bundled configs for examples."""

    # plant
    plant_kind: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    sigma_e: float
    eps: float
    # excitation for data collection
    excitation_kind: str
    excitation_period: int
    excitation_amplitude: float
    excitation_hold: int
    excitation_n_freqs: int
    setpoint_levels: tuple[float, ...]
    setpoint_period: int
    feedback: LinearFeedbackController | None
    # horizons / cost / constraints / reference
    L_p: int
    L_f: int
    q_weight: float
    r_weight: float
    u_min: float
    u_max: float
    y_min: float
    y_max: float
    ref_period: float
    ref_amplitude: float
    # run / sweep
    n_steps: int
    n_d: int
    seeds: int
    warmup: str
    controllers: tuple[str, ...]
    controller_params: dict
    sweep_n_d: tuple[int, ...]
    sweep_sigma_e: tuple[float, ...]
    sweep_eps: tuple[float, ...]
    baseline: str
    # tuning
    tune_controllers: tuple[str, ...]
    grid_min: float
    grid_max: float
    grid_points: int
    grid_points_2d: int
    tune_seeds: int
    tune_seed_offset: int
    # solver / output
    eps_abs: float
    eps_rel: float
    max_iter: int
    out_dir: str
    deterministic_timing: bool

    # -- derived handles ---------------------------------------------------

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    def base_model(self, sigma_e: float | None = None) -> StateSpaceModel:
        return StateSpaceModel(self.A, self.B, self.C, self.D, self.K,
                               sigma_e=self.sigma_e if sigma_e is None
                               else sigma_e)

    def plant(self, sigma_e: float | None = None, eps: float | None = None):
        model = self.base_model(sigma_e)
        eps = self.eps if eps is None else eps
        if self.plant_kind == "nonlinear" and eps > 0.0:
            return NonlinearWrapper(model, eps)
        if self.plant_kind == "nonlinear":
            return NonlinearWrapper(model, 0.0)
        return model

    def horizon(self) -> HorizonSpec:
        return HorizonSpec(self.L_p, self.L_f)

    def cost(self) -> CostSpec:
        return CostSpec(self.q_weight * np.eye(self.p),
                        self.r_weight * np.eye(self.m), self.L_f)

    def boxes(self) -> BoxConstraints:
        return BoxConstraints(np.full(self.m, self.u_min),
                              np.full(self.m, self.u_max),
                              np.full(self.p, self.y_min),
                              np.full(self.p, self.y_max))

    def qp_settings(self) -> QpSettings:
        return QpSettings(eps_abs=self.eps_abs, eps_rel=self.eps_rel,
                          max_iter=self.max_iter)

    def excitation(self, n_d: int,
                   rng: np.random.Generator | None = None) -> np.ndarray:
        if self.excitation_kind == "steps":
            if rng is None:
                raise ValueError("steps excitation needs a generator")
            return random_steps(rng, self.excitation_amplitude,
                                self.excitation_hold, n_d, m=self.m)
        if self.excitation_kind == "multisine":
            return multisine(self.excitation_amplitude,
                             self.excitation_n_freqs, n_d, m=self.m)
        wave = square_wave(self.excitation_period,
                           self.excitation_amplitude, n_d)
        return np.tile(wave, (self.m, 1))

    def setpoints(self, n_d: int) -> np.ndarray:
        period = self.setpoint_period
        levels = np.asarray(self.setpoint_levels, dtype=float)
        idx = (np.arange(n_d) // period) % len(levels)
        return np.tile(levels[idx], (self.p, 1))

    def reference(self, length: int) -> np.ndarray:
        return sine_reference(self.ref_period, self.ref_amplitude, length,
                              p=self.p)

    def controller_spec(self, name: str) -> ControllerSpec:
        params = self.controller_params.get(name, {})
        return ControllerSpec(variant=name, cost=self.cost(),
                              boxes=self.boxes(),
                              mu=params.get("mu"), lam=params.get("lam"),
                              gamma3_zero=bool(params.get("gamma3_zero",
                                                          False)))

    def with_controller_params(self, name: str, **kv) -> "ExperimentConfig":
        params = {k: dict(v) for k, v in self.controller_params.items()}
        params.setdefault(name, {}).update(kv)
        return replace(self, controller_params=params)


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (`.cfg` optional)."""
    if not name.endswith(".cfg"):
        name = name + ".cfg"
    path = resources.files("ddpc").joinpath("configs", name)
    with resources.as_file(path) as concrete:
        return Path(str(concrete))


def load_config(path) -> ExperimentConfig:
    """Parse an experiment config file.

    Raises:
        ConfigError: On missing sections/keys or malformed values.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(path)
    if not path.exists():
        candidate = None
        try:
            candidate = bundled_config_path(path.name)
        except (FileNotFoundError, ModuleNotFoundError):
            candidate = None
        if candidate is not None and candidate.exists():
            path = candidate
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    def need(section: str, key: str) -> str:
        try:
            return parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            raise ConfigError(f"{path}: missing [{section}] {key}") from None

    def opt(section: str, key: str, default: str) -> str:
        try:
            return parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            return default

    plant_kind = need("plant", "kind").strip()
    if plant_kind not in ("lti", "nonlinear"):
        raise ConfigError(f"{path}: plant kind must be lti or nonlinear")
    A = _parse_matrix(need("plant", "a"))
    B = _parse_matrix(need("plant", "b"))
    C = _parse_matrix(need("plant", "c"))
    D = _parse_matrix(need("plant", "d"))
    K = _parse_matrix(need("plant", "k"))

    excitation_kind = opt("excitation", "kind", "square").strip()
    if excitation_kind not in ("square", "steps", "multisine", "closedloop"):
        raise ConfigError(f"{path}: excitation kind must be square, steps, "
                          "multisine or closedloop")
    feedback = None
    if excitation_kind == "closedloop":
        feedback = LinearFeedbackController(
            _parse_matrix(need("excitation", "fb_a")),
            _parse_matrix(need("excitation", "fb_b")),
            _parse_matrix(need("excitation", "fb_c")),
            _parse_matrix(need("excitation", "fb_d")))

    controllers = tuple(need("controllers", "list").split())
    params: dict[str, dict] = {}
    if parser.has_section("controllers"):
        for key, value in parser.items("controllers"):
            if key == "list":
                continue
            if "." not in key:
                raise ConfigError(
                    f"{path}: controller parameter {key!r} must look like "
                    "name.param")
            name, param = key.split(".", 1)
            params.setdefault(name, {})[param] = float(value)

    cfg = ExperimentConfig(
        plant_kind=plant_kind,
        A=A, B=B, C=C, D=D, K=K,
        sigma_e=float(opt("plant", "sigma_e", "0.0")),
        eps=float(opt("plant", "eps", "0.0")),
        excitation_kind=excitation_kind,
        excitation_period=int(opt("excitation", "period", "200")),
        excitation_amplitude=float(opt("excitation", "amplitude", "3")),
        excitation_hold=int(opt("excitation", "hold", "10")),
        excitation_n_freqs=int(opt("excitation", "n_freqs", "25")),
        setpoint_levels=_parse_floats(opt("excitation", "setpoint_levels",
                                          "-1 1")),
        setpoint_period=int(opt("excitation", "setpoint_period", "100")),
        feedback=feedback,
        L_p=int(need("horizons", "l_p")),
        L_f=int(need("horizons", "l_f")),
        q_weight=float(opt("cost", "q", "1")),
        r_weight=float(opt("cost", "r", "1")),
        u_min=float(opt("constraints", "u_min", "-inf")),
        u_max=float(opt("constraints", "u_max", "inf")),
        y_min=float(opt("constraints", "y_min", "-inf")),
        y_max=float(opt("constraints", "y_max", "inf")),
        ref_period=float(opt("reference", "period", "60")),
        ref_amplitude=float(opt("reference", "amplitude", "1")),
        n_steps=int(need("run", "n_steps")),
        n_d=int(need("run", "n_d")),
        seeds=int(opt("run", "seeds", "100")),
        warmup=opt("run", "warmup", "excitation").strip(),
        controllers=controllers,
        controller_params=params,
        sweep_n_d=tuple(int(v) for v in
                        _parse_floats(opt("sweep", "n_d", ""))) or None,
        sweep_sigma_e=_parse_floats(opt("sweep", "sigma_e", "")) or None,
        sweep_eps=_parse_floats(opt("sweep", "eps", "")) or None,
        baseline=opt("sweep", "baseline", "").strip(),
        tune_controllers=tuple(opt("tune", "controllers", "").split()),
        grid_min=float(opt("tune", "grid_min", "1e-5")),
        grid_max=float(opt("tune", "grid_max", "1e5")),
        grid_points=int(opt("tune", "grid_points", "100")),
        grid_points_2d=int(opt("tune", "grid_points_2d", "10")),
        tune_seeds=int(opt("tune", "seeds", "5")),
        tune_seed_offset=int(opt("tune", "seed_offset", "100000")),
        eps_abs=float(opt("qp", "eps_abs", "1e-8")),
        eps_rel=float(opt("qp", "eps_rel", "1e-8")),
        max_iter=int(opt("qp", "max_iter", "50000")),
        out_dir=opt("output", "dir", "out"),
        deterministic_timing=opt("output", "deterministic_timing",
                                 "true").strip().lower() in ("1", "true",
                                                             "yes", "on"),
    )
    # fall back to the base point when no sweep grid is given
    object.__setattr__(cfg, "sweep_n_d", cfg.sweep_n_d or (cfg.n_d,))
    object.__setattr__(cfg, "sweep_sigma_e",
                       cfg.sweep_sigma_e or (cfg.sigma_e,))
    object.__setattr__(cfg, "sweep_eps", cfg.sweep_eps or (cfg.eps,))
    if cfg.warmup not in ("zero", "excitation"):
        raise ConfigError(f"{path}: warmup must be zero or excitation")
    for name in cfg.controllers:
        cfg.controller_spec(name)  # validates names and parameters
    return cfg


@dataclass(frozen=True)
class RunRecord:
    """One closed-loop run of one controller at one grid point."""

    controller: str
    N_d: int
    sigma_e: float
    eps: float
    seed: int
    J: float
    J_y: float
    J_u: float
    wall_ms: float
    qp_iters: int
    status: str
    dataset_hash: str


def _dataset_hash(traj: Trajectory) -> str:
    digest = hashlib.sha256()
    digest.update(np.int64([traj.m, traj.p, traj.n_samples]).tobytes())
    digest.update(np.ascontiguousarray(traj.inputs).tobytes())
    digest.update(np.ascontiguousarray(traj.outputs).tobytes())
    return digest.hexdigest()[:16]


def _collect_dataset(cfg: ExperimentConfig, n_d: int, sigma_e: float,
                     eps: float, seed: int) -> Trajectory:
    plant = cfg.plant(sigma_e=sigma_e, eps=eps)
    rng = rng_for(_DATA_STREAM, seed, n_d, int(round(sigma_e * 1e9)),
                  int(round(eps * 1e9)))
    if cfg.excitation_kind == "closedloop":
        return collect_closed_loop(plant, cfg.feedback, cfg.setpoints(n_d),
                                   rng=rng)
    return collect_open_loop(plant, cfg.excitation(n_d, rng=rng), rng=rng)


def run_single(cfg: ExperimentConfig, controller_name: str, seed: int,
               n_d: int | None = None, sigma_e: float | None = None,
               eps: float | None = None) -> tuple[RolloutResult, Trajectory]:
    """One closed-loop rollout; returns the result and the dataset used."""
    n_d = cfg.n_d if n_d is None else n_d
    sigma_e = cfg.sigma_e if sigma_e is None else sigma_e
    eps = cfg.eps if eps is None else eps
    spec = cfg.controller_spec(controller_name)
    traj = _collect_dataset(cfg, n_d, sigma_e, eps, seed)
    handles = _handles(cfg, partition(traj, cfg.horizon()), sigma_e,
                       (controller_name,))
    rollout = _rollout(cfg, spec, traj, handles, n_d, sigma_e, eps, seed)
    return rollout, traj


def _handles(cfg, part, sigma_e, names) -> dict:
    """The data handles the named controllers are built from."""
    wanted = {VARIANT_TABLE[name].handles[0] for name in names}
    return {"part": part,
            "blocks": factorize(part) if "blocks" in wanted else None,
            "model": cfg.base_model(sigma_e) if "model" in wanted else None}


def _rollout(cfg, spec, traj, handles, n_d, sigma_e, eps, seed):
    ctrl = make_controller(spec, L_p=cfg.L_p, qp_settings=cfg.qp_settings(),
                           **handles)
    plant = cfg.plant(sigma_e=sigma_e, eps=eps)
    ref = cfg.reference(cfg.n_steps + cfg.L_f)
    warm = traj.inputs[:, -cfg.L_p:] if cfg.warmup == "excitation" else None
    rng = rng_for(_LOOP_STREAM, seed, n_d, int(round(sigma_e * 1e9)),
                  int(round(eps * 1e9)))
    return run_receding_horizon(plant, ctrl, ref, cfg.n_steps, rng=rng,
                                warmup_inputs=warm)


def _run_unit(args) -> list[RunRecord]:
    cfg, n_d, sigma_e, eps, seed = args
    try:
        traj = _collect_dataset(cfg, n_d, sigma_e, eps, seed)
    except Diverged:
        # an unstable collection loop fails every controller at this unit
        return [RunRecord(controller=name, N_d=n_d, sigma_e=sigma_e,
                          eps=eps, seed=seed, J=float("inf"),
                          J_y=float("inf"), J_u=float("inf"), wall_ms=0.0,
                          qp_iters=0, status="diverged", dataset_hash="")
                for name in cfg.controllers]
    ds_hash = _dataset_hash(traj)
    handles = _handles(cfg, partition(traj, cfg.horizon()), sigma_e,
                       cfg.controllers)
    records = []
    for name in cfg.controllers:
        start = time.perf_counter()
        try:
            rollout = _rollout(cfg, cfg.controller_spec(name), traj,
                               handles, n_d, sigma_e, eps, seed)
            wall_ms = 1e3 * (time.perf_counter() - start)
            rec = RunRecord(controller=name, N_d=n_d, sigma_e=sigma_e,
                            eps=eps, seed=seed, J=rollout.J, J_y=rollout.J_y,
                            J_u=rollout.J_u, wall_ms=wall_ms,
                            qp_iters=rollout.qp_iterations,
                            status=rollout.status.value,
                            dataset_hash=ds_hash)
        except Diverged:
            wall_ms = 1e3 * (time.perf_counter() - start)
            rec = RunRecord(controller=name, N_d=n_d, sigma_e=sigma_e,
                            eps=eps, seed=seed, J=float("inf"),
                            J_y=float("inf"), J_u=float("inf"),
                            wall_ms=wall_ms, qp_iters=0, status="diverged",
                            dataset_hash=ds_hash)
        records.append(rec)
    return records


def run_sweep(cfg: ExperimentConfig, workers: int = 1,
              seeds: range | None = None) -> list[RunRecord]:
    """Run every controller over the full grid.

    Args:
        cfg: Parsed experiment description.
        workers: Process count; records are identical for any value.
        seeds: Overrides ``range(cfg.seeds)``.

    Returns:
        Records sorted by (controller, N_d, sigma_e, eps, seed).
    """
    seeds = range(cfg.seeds) if seeds is None else seeds
    units = [(cfg, n_d, sig, eps, seed)
             for n_d, sig, eps in product(cfg.sweep_n_d, cfg.sweep_sigma_e,
                                          cfg.sweep_eps)
             for seed in seeds]
    records: list[RunRecord] = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_run_unit, units, chunksize=1):
                records.extend(chunk)
    else:
        for unit in units:
            records.extend(_run_unit(unit))
    records.sort(key=lambda r: (r.controller, r.N_d, r.sigma_e, r.eps,
                                r.seed))
    return records


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------


def select_best(candidates: list[tuple], scores: list[float]) -> tuple:
    """Smallest score wins; exact ties go to the later (larger) candidate.

    ``candidates`` must be sorted ascending in the regularization weights.
    """
    if not candidates or len(candidates) != len(scores):
        raise ValueError("candidates and scores must be equal-length")
    best_idx = 0
    for i in range(1, len(candidates)):
        if scores[i] <= scores[best_idx]:
            best_idx = i
    return candidates[best_idx]


def _tune_objective(cfg: ExperimentConfig, name: str, params: dict,
                    n_d: int, sigma_e: float, eps: float) -> float:
    trial = cfg.with_controller_params(name, **params)
    total = 0.0
    for i in range(cfg.tune_seeds):
        seed = cfg.tune_seed_offset + i
        try:
            rollout, _ = run_single(trial, name, seed, n_d=n_d,
                                    sigma_e=sigma_e, eps=eps)
            total += rollout.J
        except Diverged:
            return float("inf")
    return total / max(cfg.tune_seeds, 1)


def tune(cfg: ExperimentConfig, controller: str,
         n_d: int | None = None, sigma_e: float | None = None,
         eps: float | None = None) -> dict:
    """Grid-search regularization weights for one controller.

    The penalties are those the variant needs (``VARIANT_TABLE``).  One
    penalty is searched over ``grid_points`` log-spaced values in
    ``[grid_min, grid_max]``; two (``lam``, ``mu``) over the product grid
    with ``grid_points_2d`` points per axis.  The mean closed-loop cost
    over the validation seed set is minimized, with exact ties resolved
    toward larger regularization.
    """
    n_d = cfg.n_d if n_d is None else n_d
    sigma_e = cfg.sigma_e if sigma_e is None else sigma_e
    eps = cfg.eps if eps is None else eps
    needs = VARIANT_TABLE.get(controller)
    if needs is None or not needs.penalties:
        raise ValueError(f"controller {controller!r} has nothing to tune")
    names = needs.penalties
    points = cfg.grid_points if len(names) == 1 else cfg.grid_points_2d
    axis = [float(v) for v in np.geomspace(cfg.grid_min, cfg.grid_max,
                                           points)]
    candidates = [dict(zip(names, values))
                  for values in product(axis, repeat=len(names))]
    scores = [_tune_objective(cfg, controller, cand, n_d, sigma_e, eps)
              for cand in candidates]
    keys = [tuple(sorted(c.items())) for c in candidates]
    best_key = select_best(keys, scores)
    return dict(best_key)


# ---------------------------------------------------------------------------
# aggregation and artifacts
# ---------------------------------------------------------------------------


def normalize_costs(records: list[RunRecord], baseline: str) -> list[dict]:
    """Mean cost per (grid point, controller) relative to the baseline.

    Raises:
        MissingBaseline: If a grid point has no baseline runs.
    """
    grid_points = sorted({(r.N_d, r.sigma_e, r.eps) for r in records})
    rows = []
    for point in grid_points:
        here = [r for r in records
                if (r.N_d, r.sigma_e, r.eps) == point]
        by_controller: dict[str, list[float]] = {}
        for r in here:
            by_controller.setdefault(r.controller, []).append(r.J)
        if baseline not in by_controller:
            raise MissingBaseline(
                f"no runs of baseline {baseline!r} at grid point {point}")
        base_mean = float(np.mean(by_controller[baseline]))
        for name in sorted(by_controller):
            mean_j = float(np.mean(by_controller[name]))
            rows.append({
                "controller": name,
                "N_d": point[0],
                "sigma_e": point[1],
                "eps": point[2],
                "J_mean": mean_j,
                "ratio": mean_j / base_mean if base_mean > 0
                else float("nan"),
            })
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_records(records: list[RunRecord], path,
                  deterministic_timing: bool = True) -> None:
    """Write records.csv; timing is zeroed when byte-stable output is on."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            wall = 0.0 if deterministic_timing else r.wall_ms
            writer.writerow([r.controller, r.N_d, _fmt(r.sigma_e),
                             _fmt(r.eps), r.seed, _fmt(r.J), _fmt(r.J_y),
                             _fmt(r.J_u), _fmt(wall), r.qp_iters, r.status,
                             r.dataset_hash])


def write_normalized(rows: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["controller", "N_d", "sigma_e", "eps", "J_mean",
                         "ratio"])
        for row in rows:
            writer.writerow([row["controller"], row["N_d"],
                             _fmt(row["sigma_e"]), _fmt(row["eps"]),
                             _fmt(row["J_mean"]), _fmt(row["ratio"])])


def write_rollout_csv(rollout: RolloutResult, path,
                      q_step: np.ndarray | None = None,
                      r_step: np.ndarray | None = None) -> None:
    """Per-step closed-loop log with cumulative cost and QP diagnostics.

    With the weights of the rollout's cost the final ``J_cum`` equals
    ``rollout.J``; by default identity weights are used.
    """
    traj = rollout.trajectory
    m, p = traj.m, traj.p
    q_step = np.eye(p) if q_step is None else np.asarray(q_step, dtype=float)
    r_step = np.eye(m) if r_step is None else np.asarray(r_step, dtype=float)
    header = (["t"] + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(p)]
              + [f"r{i + 1}" for i in range(p)]
              + ["J_cum", "qp_iters", "qp_status"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        j_cum = 0.0
        for t in range(traj.n_samples):
            u = traj.inputs[:, t]
            err = traj.outputs[:, t] - rollout.reference[:, t]
            j_cum += float(err @ q_step @ err + u @ r_step @ u)
            writer.writerow([t + 1]
                            + [_fmt(v) for v in u]
                            + [_fmt(v) for v in traj.outputs[:, t]]
                            + [_fmt(v) for v in rollout.reference[:, t]]
                            + [_fmt(j_cum), rollout.steps[t].qp_iterations,
                               rollout.steps[t].qp_status.value])
