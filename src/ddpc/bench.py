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
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
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
    _cost_sums,
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

# Stream tags keeping dataset and closed-loop noise independent.
_DATA_STREAM = 0x0DA7A
_LOOP_STREAM = 0xC105ED

# -- value parsers: each one is the rule of the keys it reads ---------------


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";") if r.strip()]
    return np.array([[float(tok) for tok in r.split()] for r in rows])


def _int_from(least: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}, got {value}")
        return value
    return parse


def _float_where(ok, rule: str):
    def parse(text: str) -> float:
        value = float(text)
        if not ok(value):
            raise ValueError(f"{rule}, got {value:g}")
        return value
    return parse


def _one_of(*words: str):
    def parse(text: str) -> str:
        word = text.strip()
        if word not in words:
            raise ValueError(f"must be one of {', '.join(words)}, "
                             f"got {word!r}")
        return word
    return parse


def _list_of(parse, nonempty: bool = False, distinct: bool = False):
    def parse_list(text: str) -> tuple:
        values = tuple(parse(tok) for tok in text.split())
        if nonempty and not values:
            raise ValueError("must list at least one value")
        if distinct:
            twice = [v for i, v in enumerate(values) if v in values[:i]]
            if twice:
                raise ValueError(f"lists {twice[0]!r} more than once")
        return values
    return parse_list


_COUNT = _int_from(1)
_UNIT = _float_where(lambda v: 0.0 <= v <= 1.0, "must be in [0, 1]")
_NONNEGATIVE = _float_where(lambda v: 0.0 <= v < math.inf,
                            "must be finite and >= 0")
_POSITIVE = _float_where(lambda v: 0.0 < v < math.inf,
                         "must be finite and > 0")
_FINITE = _float_where(math.isfinite, "must be finite")
_BOUND = _float_where(lambda v: not math.isnan(v), "must not be nan")
_FLAG = _float_where(lambda v: v in (0.0, 1.0), "must be 0 or 1")

# The variants that ``tune`` has penalties to search for.
_TUNABLE = _one_of(*(name for name, needs in VARIANT_TABLE.items()
                     if needs.penalties))

# The per-variant settings a [controllers] section may give (name.param),
# each with its rule.
_CONTROLLER_PARAMS = {"mu": float, "lam": float, "gamma3_zero": _FLAG}


def _key(section: str, key: str, parse, default: str | None = None):
    """The field filled by ``[section] key``; ``default=None`` is required."""
    return field(metadata={"config": (section, key, parse, default)})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Parsed experiment description; see the bundled configs for examples.

    Every field but ``feedback`` and ``controller_params`` declares the
    config key that fills it, its parser (which is also its rule) and its
    default, through ``_key``; ``load_config`` reads these declarations.
    """

    # plant
    plant_kind: str = _key("plant", "kind", _one_of("lti", "nonlinear"))
    A: np.ndarray = _key("plant", "a", _parse_matrix)
    B: np.ndarray = _key("plant", "b", _parse_matrix)
    C: np.ndarray = _key("plant", "c", _parse_matrix)
    D: np.ndarray = _key("plant", "d", _parse_matrix)
    K: np.ndarray = _key("plant", "k", _parse_matrix)
    sigma_e: float = _key("plant", "sigma_e", _NONNEGATIVE, "0.0")
    eps: float = _key("plant", "eps", _UNIT, "0.0")
    # excitation for data collection
    excitation_kind: str = _key(
        "excitation", "kind",
        _one_of("square", "steps", "multisine", "closedloop"), "square")
    excitation_period: int = _key("excitation", "period", _int_from(2),
                                  "200")
    excitation_amplitude: float = _key("excitation", "amplitude", _FINITE,
                                        "3")
    excitation_hold: int = _key("excitation", "hold", _COUNT, "10")
    excitation_n_freqs: int = _key("excitation", "n_freqs", _COUNT, "25")
    setpoint_levels: tuple[float, ...] = _key(
        "excitation", "setpoint_levels", _list_of(_FINITE, nonempty=True),
        "-1 1")
    setpoint_period: int = _key("excitation", "setpoint_period", _COUNT,
                                "100")
    feedback: LinearFeedbackController | None
    # horizons / cost / constraints / reference
    L_p: int = _key("horizons", "l_p", _COUNT)
    L_f: int = _key("horizons", "l_f", _COUNT)
    q_weight: float = _key("cost", "q", _NONNEGATIVE, "1")
    r_weight: float = _key("cost", "r", _POSITIVE, "1")
    u_min: float = _key("constraints", "u_min", _BOUND, "-inf")
    u_max: float = _key("constraints", "u_max", _BOUND, "inf")
    y_min: float = _key("constraints", "y_min", _BOUND, "-inf")
    y_max: float = _key("constraints", "y_max", _BOUND, "inf")
    ref_period: float = _key("reference", "period", _POSITIVE, "60")
    ref_amplitude: float = _key("reference", "amplitude", _FINITE, "1")
    # run / sweep
    n_steps: int = _key("run", "n_steps", _COUNT)
    n_d: int = _key("run", "n_d", _COUNT)
    seeds: int = _key("run", "seeds", _COUNT, "100")
    warmup: str = _key("run", "warmup", _one_of("zero", "excitation"),
                       "excitation")
    controllers: tuple[str, ...] = _key(
        "controllers", "list",
        _list_of(_one_of(*VARIANT_TABLE), nonempty=True, distinct=True))
    controller_params: dict
    sweep_n_d: tuple[int, ...] = _key("sweep", "n_d", _list_of(_COUNT), "")
    sweep_sigma_e: tuple[float, ...] = _key("sweep", "sigma_e",
                                            _list_of(_NONNEGATIVE), "")
    sweep_eps: tuple[float, ...] = _key("sweep", "eps", _list_of(_UNIT), "")
    baseline: str = _key("sweep", "baseline", str.strip, "")
    # tuning
    tune_controllers: tuple[str, ...] = _key("tune", "controllers",
                                             _list_of(_TUNABLE), "")
    grid_min: float = _key("tune", "grid_min", _POSITIVE, "1e-5")
    grid_max: float = _key("tune", "grid_max", _POSITIVE, "1e5")
    grid_points: int = _key("tune", "grid_points", _COUNT, "100")
    grid_points_2d: int = _key("tune", "grid_points_2d", _COUNT, "10")
    tune_seeds: int = _key("tune", "seeds", _COUNT, "5")
    tune_seed_offset: int = _key("tune", "seed_offset", _int_from(0),
                                 "100000")
    # output
    out_dir: str = _key("output", "dir", str, "out")

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
        if self.plant_kind == "nonlinear":
            return NonlinearWrapper(model, self.eps if eps is None else eps)
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
        """The QP solver's tolerances and iteration cap, read-only."""
        return QpSettings()

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

    ``path`` is a config file or the name of a bundled config; anything
    that is not a file is looked up among the bundled configs by name.

    Raises:
        ConfigError: On a missing file, a directory with no bundled config
            of its name, missing sections/keys, malformed values or values
            outside their key's rule (see ``ExperimentConfig``), or a
            section or key that is not read (a typo such as ``u_mni``
            would otherwise drop the setting silently); controller
            parameters must name a known variant and one of its
            penalties (``VARIANT_TABLE``), or ``gamma3_zero`` where it
            has a residual coordinate; ``[controllers] list`` names at
            least one variant and none twice, ``[sweep] baseline`` one
            of them, and ``[tune] controllers`` only variants with
            penalties.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    path = Path(path)
    if not path.is_file():
        # a bare name falls back to the bundled config, also when a
        # directory of that name (say, a benchmark's output) is in the way
        candidate = None
        try:
            candidate = bundled_config_path(path.name)
        except (FileNotFoundError, ModuleNotFoundError):
            candidate = None
        if candidate is not None and candidate.is_file():
            path = candidate
        elif path.is_dir():
            raise ConfigError(f"config path is a directory: {path}")
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    read: set[tuple[str, str]] = set()  # every (section, key) asked for

    def parsed(section: str, key: str, convert, default: str | None = None):
        read.add((section, key))
        try:
            text = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is None:
                raise ConfigError(
                    f"{path}: missing [{section}] {key}") from None
            text = default
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None

    values = {f.name: parsed(*f.metadata["config"])
              for f in fields(ExperimentConfig) if "config" in f.metadata}
    values["feedback"] = None
    if values["excitation_kind"] == "closedloop":
        values["feedback"] = LinearFeedbackController(
            *(parsed("excitation", key, _parse_matrix)
              for key in ("fb_a", "fb_b", "fb_c", "fb_d")))
    params: dict[str, dict] = {}
    if parser.has_section("controllers"):
        for key in parser["controllers"]:
            if key == "list":
                continue
            if "." not in key:
                raise ConfigError(
                    f"{path}: controller parameter {key!r} must look like "
                    "name.param")
            name, param = key.split(".", 1)
            if name not in VARIANT_TABLE:
                raise ConfigError(f"{path}: controller parameter {key!r} "
                                  f"names an unknown variant {name!r}")
            needs = VARIANT_TABLE[name]
            takes = needs.penalties + ("gamma3_zero",) * needs.hard_zero
            if param not in takes:
                raise ConfigError(
                    f"{path}: controller parameter {key!r}: variant {name!r} "
                    f"takes {' or '.join(takes) or 'no parameter'}")
            params.setdefault(name, {})[param] = parsed(
                "controllers", key, _CONTROLLER_PARAMS[param])
    values["controller_params"] = params

    sections = {section for section, _ in read}
    if parser.defaults():
        raise ConfigError(
            f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in read:
                raise ConfigError(
                    f"{path}: unknown or unused key {key!r} in [{section}]")
    # fall back to the base point when no sweep grid is given
    for sweep, base in (("sweep_n_d", "n_d"), ("sweep_sigma_e", "sigma_e"),
                        ("sweep_eps", "eps")):
        values[sweep] = values[sweep] or (values[base],)
    cfg = ExperimentConfig(**values)
    if cfg.grid_max < cfg.grid_min:
        raise ConfigError(f"{path}: [tune] grid_max: must be >= grid_min, "
                          f"got {cfg.grid_max:g}")
    for name in cfg.controllers:
        try:
            cfg.controller_spec(name)  # validates names and parameters
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if cfg.baseline and cfg.baseline not in cfg.controllers:
        raise ConfigError(f"{path}: [sweep] baseline: must be in "
                          f"[controllers] list, got {cfg.baseline!r}")
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


RECORD_FIELDS = tuple(f.name for f in fields(RunRecord))


def _dataset_hash(traj: Trajectory) -> str:
    digest = hashlib.sha256()
    digest.update(np.int64([traj.m, traj.p, traj.n_samples]).tobytes())
    digest.update(np.ascontiguousarray(traj.inputs).tobytes())
    digest.update(np.ascontiguousarray(traj.outputs).tobytes())
    return digest.hexdigest()[:16]


def _stream(tag: int, n_d: int, sigma_e: float, eps: float,
            seed: int) -> np.random.Generator:
    """The generator of one stream at one grid point and seed.

    The key holds the grid point and the seed, never the controller, so
    every controller at a grid point sees the same draws.
    """
    return rng_for(tag, seed, n_d, int(round(sigma_e * 1e9)),
                   int(round(eps * 1e9)))


def _collect_dataset(cfg: ExperimentConfig, plant, point: tuple) -> Trajectory:
    """The dataset of ``point = (n_d, sigma_e, eps, seed)`` from ``plant``."""
    rng = _stream(_DATA_STREAM, *point)
    n_d = point[0]
    if cfg.excitation_kind == "closedloop":
        return collect_closed_loop(plant, cfg.feedback, cfg.setpoints(n_d),
                                   rng=rng)
    return collect_open_loop(plant, cfg.excitation(n_d, rng=rng), rng=rng)


def _reference(cfg: ExperimentConfig) -> np.ndarray:
    """The setpoint schedule of every rollout of ``cfg``; read-only, since
    one array serves them all."""
    ref = cfg.reference(cfg.n_steps + cfg.L_f)
    ref.flags.writeable = False
    return ref


def run_single(cfg: ExperimentConfig, controller_name: str, seed: int,
               n_d: int | None = None, sigma_e: float | None = None,
               eps: float | None = None) -> tuple[RolloutResult, Trajectory]:
    """One closed-loop rollout; returns the result and the dataset used."""
    n_d = cfg.n_d if n_d is None else n_d
    sigma_e = cfg.sigma_e if sigma_e is None else sigma_e
    eps = cfg.eps if eps is None else eps
    spec = cfg.controller_spec(controller_name)
    point = (n_d, sigma_e, eps, seed)
    plant = cfg.plant(sigma_e=sigma_e, eps=eps)
    traj = _collect_dataset(cfg, plant, point)
    handles = _handles(cfg, partition(traj, cfg.horizon()), sigma_e,
                       (controller_name,))
    rollout = _rollout(cfg, spec, _reference(cfg), plant, traj, handles,
                       point)
    return rollout, traj


def _handles(cfg, part, sigma_e, names) -> dict:
    """The data handles the named controllers are built from."""
    wanted = {VARIANT_TABLE[name].handles[0] for name in names}
    return {"part": part,
            "blocks": factorize(part) if "blocks" in wanted else None,
            "model": cfg.base_model(sigma_e) if "model" in wanted else None}


def _rollout(cfg, spec, ref, plant, traj, handles, point):
    """Build the controller of ``spec`` and run it on ``plant`` under the
    loop stream of ``point = (n_d, sigma_e, eps, seed)``."""
    ctrl = make_controller(spec, L_p=cfg.L_p, **handles)
    warm = traj.inputs[:, -cfg.L_p:] if cfg.warmup == "excitation" else None
    rng = _stream(_LOOP_STREAM, *point)
    return run_receding_horizon(plant, ctrl, ref, cfg.n_steps, rng=rng,
                                warmup_inputs=warm)


def _run_unit(args) -> list[RunRecord]:
    """Every controller at one grid point and seed.

    The specs and the reference come with the unit, built once per sweep;
    the plant, the dataset and its handles are built here once per unit.
    Each rollout's timer covers its controller build and its run.
    """
    cfg, specs, ref, *point = args
    n_d, sigma_e, eps, seed = point
    grid = dict(N_d=n_d, sigma_e=sigma_e, eps=eps, seed=seed)
    diverged = dict(J=float("inf"), J_y=float("inf"), J_u=float("inf"),
                    qp_iters=0, status="diverged")
    plant = cfg.plant(sigma_e=sigma_e, eps=eps)
    try:
        traj = _collect_dataset(cfg, plant, point)
    except Diverged:
        # an unstable collection loop fails every controller at this unit
        return [RunRecord(controller=name, **grid, **diverged,
                          wall_ms=0.0, dataset_hash="")
                for name in specs]
    ds_hash = _dataset_hash(traj)
    handles = _handles(cfg, partition(traj, cfg.horizon()), sigma_e, specs)
    records = []
    for name, spec in specs.items():
        start = time.perf_counter()
        try:
            rollout = _rollout(cfg, spec, ref, plant, traj, handles, point)
            outcome = dict(J=rollout.J, J_y=rollout.J_y, J_u=rollout.J_u,
                           qp_iters=rollout.qp_iterations,
                           status=rollout.status.value)
        except Diverged:
            outcome = diverged
        wall_ms = 1e3 * (time.perf_counter() - start)
        records.append(RunRecord(controller=name, **grid, **outcome,
                                 wall_ms=wall_ms, dataset_hash=ds_hash))
    return records


def run_sweep(cfg: ExperimentConfig, workers: int = 1,
              seeds: range | None = None) -> list[RunRecord]:
    """Run every controller over the full grid.

    Each controller's spec and the reference are built once per sweep,
    before any data are collected, and travel with every unit, so a
    worker process builds neither; each unit builds its plant once.

    Args:
        cfg: Parsed experiment description.
        workers: Process count; records are identical for any value.
        seeds: Overrides ``range(cfg.seeds)``.

    Returns:
        Records sorted by (controller, N_d, sigma_e, eps, seed).

    Raises:
        ValueError: If ``workers`` is below 1, or if a controller's
            penalties are invalid (before any data are collected).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    seeds = range(cfg.seeds) if seeds is None else seeds
    specs = {name: cfg.controller_spec(name) for name in cfg.controllers}
    ref = _reference(cfg)
    units = [(cfg, specs, ref, n_d, sig, eps, seed)
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

    Raises:
        Diverged: If no candidate was scored, naming the controller.
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
    specs = [cfg.with_controller_params(controller, **cand)
             .controller_spec(controller) for cand in candidates]
    ref = _reference(cfg)
    plant = cfg.plant(sigma_e=sigma_e, eps=eps)
    # each validation seed's dataset and factor serve every candidate; a
    # divergence, in the collection or in a rollout, scores inf
    totals = [0.0] * len(candidates)
    diverged, first = set(), None
    for seed in range(cfg.tune_seed_offset,
                      cfg.tune_seed_offset + cfg.tune_seeds):
        point = (n_d, sigma_e, eps, seed)
        try:
            traj = _collect_dataset(cfg, plant, point)
        except Diverged as exc:
            diverged.update(range(len(candidates)))
            first = first or f"collection at seed {seed}: {exc}"
            break
        handles = _handles(cfg, partition(traj, cfg.horizon()), sigma_e,
                           (controller,))
        for i, spec in enumerate(specs):
            if i in diverged:
                continue
            try:
                totals[i] += _rollout(cfg, spec, ref, plant, traj, handles,
                                      point).J
            except Diverged as exc:
                diverged.add(i)
                first = first or f"rollout at seed {seed}: {exc}"
    if len(diverged) == len(candidates):
        raise Diverged(f"tune {controller}: every candidate diverged, so "
                       f"none was scored (first: {first})")
    scores = [float("inf") if i in diverged else total / cfg.tune_seeds
              for i, total in enumerate(totals)]
    keys = [tuple(sorted(c.items())) for c in candidates]
    best_key = select_best(keys, scores)
    return dict(best_key)


# ---------------------------------------------------------------------------
# aggregation and artifacts
# ---------------------------------------------------------------------------


def normalize_costs(records: list[RunRecord], baseline: str) -> list[dict]:
    """Mean cost per (grid point, controller) relative to the baseline.

    The ratio is ``nan`` unless the baseline's mean cost is positive and
    finite: a baseline that diverged at some seed has an infinite mean,
    against which every controller would read a perfect ratio of 0.

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
                "ratio": mean_j / base_mean if 0 < base_mean < np.inf
                else float("nan"),
            })
    return rows


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_records(records: list[RunRecord], path) -> None:
    """Write records.csv, byte-stable across reruns and worker counts.

    The ``wall_ms`` column is always ``0.0``: wall times differ from run
    to run, and timings are measured by ``perfbench/`` instead.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow([_fmt(0.0 if name == "wall_ms"
                                  else getattr(r, name))
                             for name in RECORD_FIELDS])


def write_normalized(rows: list[dict], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["controller", "N_d", "sigma_e", "eps", "J_mean",
                         "ratio"])
        for row in rows:
            writer.writerow([row["controller"], row["N_d"],
                             _fmt(row["sigma_e"]), _fmt(row["eps"]),
                             _fmt(row["J_mean"]), _fmt(row["ratio"])])


def write_rollout_csv(rollout: RolloutResult, path) -> None:
    """Per-step closed-loop log with cumulative cost and QP diagnostics.

    ``J_cum`` at step ``t`` is the running sum of the output cost plus
    that of the input cost, under the weights of the rollout's own cost:
    the sums :func:`~ddpc.controllers.run_receding_horizon` takes ``J_y``
    and ``J_u`` from, so the last ``J_cum`` equals ``rollout.J`` bit for
    bit.
    """
    traj = rollout.trajectory
    m, p = traj.m, traj.p
    J_y, J_u = _cost_sums(traj, rollout.reference, rollout.cost)
    header = (["t"] + [f"u{i + 1}" for i in range(m)]
              + [f"y{i + 1}" for i in range(p)]
              + [f"r{i + 1}" for i in range(p)]
              + ["J_cum", "qp_iters", "qp_status"])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, j_cum in enumerate((J_y + J_u).tolist()):
            u = traj.inputs[:, t]
            writer.writerow([t + 1]
                            + [_fmt(v) for v in u]
                            + [_fmt(v) for v in traj.outputs[:, t]]
                            + [_fmt(v) for v in rollout.reference[:, t]]
                            + [_fmt(j_cum), rollout.steps[t].qp_iterations,
                               rollout.steps[t].qp_status.value])
