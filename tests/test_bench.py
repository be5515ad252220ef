"""Config parsing, the Monte-Carlo sweep, tuning, and CSV artifacts.

Covers:
  * parsing of the bundled configs, defaults, inline comments, and every
    documented failure mode of ``load_config``.
  * paired sweeps: identical datasets across controllers at a grid
    point, canonical record ordering, the cost decomposition, and
    worker-count invariance; every rollout builds through
    ``bench.make_controller`` and every unit collects through
    ``bench.collect_open_loop``, the names perfbench wraps; an invalid
    penalty raises before any data are collected.
  * noise-free collapse: on exact data every variant closes the loop
    identically (the fast version of the acceptance check).
  * divergence containment: an explosive grid point yields ``inf``-cost
    records instead of aborting the sweep.
  * cost normalization against a baseline and the missing-baseline error.
  * grid-search tuning and its tie-breaking rule.
  * byte-stable ``records.csv`` / ``normalized.csv`` / rollout logs, and
    a rollout log's last ``J_cum`` equal to the rollout's ``J`` bit for
    bit, for every variant and for a 2-input, 2-output plant.
  * the share of table1 steps that the QP solver's set record answers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_model, seeded

from ddpc import (
    VARIANTS,
    BoxConstraints,
    ConfigError,
    ControllerSpec,
    CostSpec,
    Diverged,
    HorizonSpec,
    MissingBaseline,
    RECORD_FIELDS,
    RunRecord,
    bench,
    bundled_config_path,
    collect_open_loop,
    load_config,
    make_controller,
    normalize_costs,
    partition,
    run_receding_horizon,
    run_single,
    run_sweep,
    select_best,
    tune,
    write_normalized,
    write_records,
    write_rollout_csv,
)

BUNDLED = ("lti_fig1", "nonlinear_fig2", "table1", "closedloop")


def _small(name="lti_fig1", **over):
    """Load a bundled config and shrink it so sweeps finish in ~a second."""
    cfg = load_config(bundled_config_path(name))
    base = dict(L_p=4, L_f=5, n_steps=12, n_d=150, seeds=2,
                controllers=("spc", "causal_gamma"))
    base.update(over)
    cfg = replace(cfg, **base)
    # collapse the bundled sweep grid to the (possibly overridden) base point
    return replace(cfg, sweep_n_d=(cfg.n_d,), sweep_sigma_e=(cfg.sigma_e,),
                   sweep_eps=(cfg.eps,))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_parse(name):
    cfg = load_config(bundled_config_path(name))
    assert cfg.A.shape == (2, 2)
    assert cfg.m == 1 and cfg.p == 1
    assert cfg.L_p == 15 and cfg.L_f == 30
    for ctrl in cfg.controllers:
        cfg.controller_spec(ctrl)  # resolvable with the stored parameters


def test_bundled_lookup_accepts_bare_names():
    by_name = load_config("closedloop")
    by_path = load_config(bundled_config_path("closedloop.cfg"))
    np.testing.assert_array_equal(by_name.A, by_path.A)
    assert by_name.controllers == by_path.controllers
    assert by_name.n_d == by_path.n_d
    assert by_name.excitation_kind == "closedloop"
    assert by_name.feedback is not None


def test_bare_name_skips_directory_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table1").mkdir()
    by_name = load_config("table1")
    by_path = load_config(bundled_config_path("table1.cfg"))
    np.testing.assert_array_equal(by_name.A, by_path.A)
    assert by_name.controllers == by_path.controllers
    assert by_name.n_d == by_path.n_d
    (tmp_path / "mine").mkdir()
    with pytest.raises(ConfigError, match="directory"):
        load_config("mine")


def test_sweep_grid_defaults_to_base_point(tmp_path):
    text = """
[plant]
kind = lti
a = 0.5
b = 1
c = 1
d = 0
k = 0

[horizons]
l_p = 2
l_f = 3

[run]
n_steps = 5
n_d = 60

[controllers]
list = spc
"""
    path = tmp_path / "mini.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.sweep_n_d == (60,)
    assert cfg.sweep_sigma_e == (0.0,)
    assert cfg.sweep_eps == (0.0,)
    assert cfg.seeds == 100
    assert cfg.warmup == "excitation"
    assert cfg.excitation_kind == "square"
    assert not np.isfinite(cfg.u_min)


def test_inline_comments_are_stripped(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("""
[plant]
kind = lti        # plant family
a = 0.5
b = 1
c = 1
d = 0
k = 0

[horizons]
l_p = 2   # past window
l_f = 3

[run]
n_steps = 5
n_d = 60

[controllers]
list = spc
""")
    cfg = load_config(path)
    assert cfg.plant_kind == "lti"
    assert cfg.L_p == 2


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def _write_cfg(tmp_path, **edits):
    base = {
        "plant": "kind = lti\na = 0.5\nb = 1\nc = 1\nd = 0\nk = 0",
        "horizons": "l_p = 2\nl_f = 3",
        "run": "n_steps = 5\nn_d = 60",
        "controllers": "list = spc",
    }
    base.update(edits)
    text = "\n".join(f"[{sec}]\n{body}\n" for sec, body in base.items())
    path = tmp_path / "cfg.cfg"
    path.write_text(text)
    return path


def test_malformed_configs_raise(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path, run="n_d = 60"))  # n_steps gone
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path,
                               plant="kind = fancy\na = 0.5\nb = 1\n"
                                     "c = 1\nd = 0\nk = 0"))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path,
                               plant="kind = lti\na = zero\nb = 1\n"
                                     "c = 1\nd = 0\nk = 0"))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path,
                               controllers="list = spc\nmu = 0.1"))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path,
                               run="n_steps = 5\nn_d = 60\nwarmup = maybe"))
    with pytest.raises(ConfigError):
        load_config(_write_cfg(tmp_path,
                               excitation="kind = closedloop"))
    with pytest.raises(ValueError):
        load_config(_write_cfg(tmp_path, controllers="list = mystery"))


@pytest.mark.parametrize("edits,culprit", [
    ({"constraint": "u_min = -1"}, "[constraint]"),
    ({"constraints": "u_mni = -1"}, "'u_mni'"),
    ({"controllers": "list = spc\nreg_gamma.mux = 0.1"}, "'reg_gamma.mux'"),
    ({"output": "deterministic_timing = true"}, "'deterministic_timing'"),
    ({"qp": "max_iter = 10"}, "[qp]"),
    ({"controllers": "list = spc\nmystery.mu = 1"}, "'mystery'"),
    # a penalty that the variant does not read, listed or not
    ({"controllers": "list = spc\ncausal_gamma.lam = nan"},
     "'causal_gamma.lam'"),
    ({"controllers": "list = spc\nreg_gamma.lam = 3"}, "'reg_gamma.lam'"),
    ({"controllers": "list = spc\nspc.mu = 1"}, "'spc.mu'"),
    ({"controllers": "list = spc\nprojreg_g.gamma3_zero = 1"},
     "'projreg_g.gamma3_zero'"),
], ids=["section-typo", "key-typo", "param-typo", "dropped-timing-switch",
        "dropped-qp-section", "unknown-variant", "lam-of-causal-gamma",
        "lam-of-reg-gamma", "mu-of-spc", "gamma3-zero-of-projreg-g"])
def test_unread_sections_and_keys_rejected(tmp_path, edits, culprit):
    with pytest.raises(ConfigError) as info:
        load_config(_write_cfg(tmp_path, **edits))
    assert culprit in str(info.value)


@pytest.mark.parametrize("edits,where", [
    ({"controllers": "list = gamma\ngamma.gamma3_zero = true"},
     "[controllers] gamma.gamma3_zero"),
    ({"run": "n_steps = five\nn_d = 60"}, "[run] n_steps"),
    ({"constraints": "u_min = low"}, "[constraints] u_min"),
    ({"sweep": "n_d = 60 many"}, "[sweep] n_d"),
    ({"plant": "kind = lti\na = zero\nb = 1\nc = 1\nd = 0\nk = 0"},
     "[plant] a"),
    ({"sweep": "n_d = 150.7"}, "[sweep] n_d"),
    ({"sweep": "n_d = inf"}, "[sweep] n_d"),
    ({"sweep": "n_d = nan"}, "[sweep] n_d"),
    ({"run": "n_steps = 5\nn_d = 60\nseeds = -3"}, "[run] seeds"),
    ({"run": "n_steps = 0\nn_d = 60"}, "[run] n_steps"),
    ({"horizons": "l_p = 0\nl_f = 3"}, "[horizons] l_p"),
    ({"excitation": "period = 1"}, "[excitation] period"),
    ({"reference": "period = 0"}, "[reference] period"),
    ({"reference": "period = inf"}, "[reference] period"),
    ({"cost": "q = nan"}, "[cost] q"),
    ({"cost": "q = -1"}, "[cost] q"),
    ({"cost": "r = 0"}, "[cost] r"),
    ({"cost": "r = inf"}, "[cost] r"),
    ({"excitation": "amplitude = inf"}, "[excitation] amplitude"),
    ({"reference": "amplitude = nan"}, "[reference] amplitude"),
    ({"constraints": "u_min = nan"}, "[constraints] u_min"),
    ({"constraints": "u_max = nan"}, "[constraints] u_max"),
    ({"constraints": "y_min = nan"}, "[constraints] y_min"),
    ({"constraints": "y_max = nan"}, "[constraints] y_max"),
    ({"plant": "kind = lti\na = 0.5\nb = 1\nc = 1\nd = 0\nk = 0\n"
               "sigma_e = inf"}, "[plant] sigma_e"),
    ({"excitation": "setpoint_levels = nan 1"},
     "[excitation] setpoint_levels"),
    ({"controllers": "list = gamma\ngamma.gamma3_zero = 0.5"},
     "[controllers] gamma.gamma3_zero"),
    ({"controllers": "list = gamma\ngamma.gamma3_zero = nan"},
     "[controllers] gamma.gamma3_zero"),
    ({"excitation": "setpoint_levels ="}, "[excitation] setpoint_levels"),
    ({"controllers": "list = causal_gamma", "sweep": "baseline = spc"},
     "[sweep] baseline"),
    ({"controllers": "list ="}, "[controllers] list"),
    ({"controllers": "list = spc mystery"}, "[controllers] list"),
    ({"controllers": "list = causal_gamma reg_causal_gamma causal_gamma"},
     "[controllers] list"),
    ({"tune": "controllers = reg_causal_gama"}, "[tune] controllers"),
    ({"tune": "controllers = reg_gamma causal_gamma"}, "[tune] controllers"),
], ids=["controller-param", "int-key", "float-key", "float-list", "matrix",
        "sweep-n-d-fraction", "sweep-n-d-inf", "sweep-n-d-nan",
        "negative-seeds", "no-steps", "no-past-window", "period-below-2",
        "ref-period-zero", "ref-period-inf", "q-nan", "q-negative",
        "r-zero", "r-inf", "excitation-amplitude-inf",
        "ref-amplitude-nan", "u-min-nan", "u-max-nan", "y-min-nan",
        "y-max-nan", "sigma-e-inf", "setpoint-levels-nan",
        "gamma3-zero-half", "gamma3-zero-nan", "setpoint-levels-empty",
        "baseline-not-listed", "controllers-list-empty",
        "controllers-list-unknown", "controllers-list-repeated",
        "tune-controller-misspelled", "tune-controller-without-penalties"])
def test_malformed_values_name_file_section_and_key(tmp_path, edits, where):
    path = _write_cfg(tmp_path, **edits)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: {where}: ")


@pytest.mark.parametrize("section,body", [
    ("plant", "kind = lti\na = 0.5\nb = 1\nc = 1\nd = 0\nk = 0\neps = 1.5"),
    ("plant", "kind = nonlinear\na = 0.5\nb = 1\nc = 1\nd = 0\nk = 0\n"
              "eps = -0.3"),
    ("plant", "kind = lti\na = 0.5\nb = 1\nc = 1\nd = 0\nk = 0\n"
              "sigma_e = -0.1"),
    ("sweep", "eps = 0 -0.3"),
    ("sweep", "eps = 0.5 nan"),
    ("sweep", "sigma_e = 0.1 -0.2"),
], ids=["plant-eps-above-1", "nonlinear-eps-negative", "plant-sigma-negative",
        "sweep-eps-negative", "sweep-eps-nan", "sweep-sigma-negative"])
def test_out_of_range_noise_and_distortion_rejected_at_load(tmp_path,
                                                           section, body):
    with pytest.raises(ConfigError, match="eps|sigma_e"):
        load_config(_write_cfg(tmp_path, **{section: body}))


@pytest.mark.parametrize("section,body,named", [
    ("constraints", "u_min = inf\nu_max = inf", "u_lower"),
    ("constraints", "y_min = -inf\ny_max = -inf", "y_upper"),
    ("controllers", "list = reg_gamma\nreg_gamma.mu = nan",
     "'reg_gamma' needs a finite mu"),
    ("controllers", "list = reg_causal_gamma\nreg_causal_gamma.mu = inf\n"
                    "reg_causal_gamma.lam = 1", "'reg_causal_gamma' needs a "
                                                "finite mu"),
], ids=["u-box-closed-at-inf", "y-box-closed-at-neg-inf", "mu-nan",
        "mu-inf"])
def test_unsatisfiable_box_and_non_finite_weight_rejected_at_load(
        tmp_path, section, body, named):
    path = _write_cfg(tmp_path, **{section: body})
    with pytest.raises(ConfigError, match=named) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("body,key", [
    ("seeds = 0", "seeds"),
    ("grid_points = 0", "grid_points"),
    ("grid_points_2d = -1", "grid_points_2d"),
    ("grid_min = 0", "grid_min"),
    ("grid_min = 10\ngrid_max = 1", "grid_max"),
], ids=["no-seeds", "no-points", "no-points-2d", "zero-grid-min",
        "grid-max-below-min"])
def test_empty_or_degenerate_tune_grid_rejected_at_load(tmp_path, body,
                                                        key):
    # with no seeds every candidate scored 0 and the grid corner won; a
    # zero grid_min failed inside numpy without naming the key
    path = _write_cfg(tmp_path, tune=body)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}: [tune] {key}: ")


def test_nonlinear_plant_passes_eps_override_through():
    cfg = load_config("nonlinear_fig2")
    assert cfg.plant(eps=0.0).eps == 0.0
    assert cfg.plant(eps=0.75).eps == 0.75
    with pytest.raises(ValueError):
        cfg.plant(eps=-0.3)


def test_controller_params_parsed_and_applied():
    cfg = load_config("table1")
    assert cfg.controller_params["reg_gamma"]["mu"] == pytest.approx(0.1)
    spec = cfg.controller_spec("reg_causal_gamma")
    assert spec.mu == pytest.approx(0.1)
    assert spec.lam == pytest.approx(0.1)
    changed = cfg.with_controller_params("reg_gamma", mu=7.0)
    assert changed.controller_spec("reg_gamma").mu == pytest.approx(7.0)
    assert cfg.controller_spec("reg_gamma").mu == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_one_unit_shape_and_order():
    cfg = _small(seeds=2)
    records = run_sweep(cfg)
    assert len(records) == 2 * 2  # controllers x seeds
    keys = [(r.controller, r.N_d, r.sigma_e, r.eps, r.seed) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.status == "solved"
        assert r.J == pytest.approx(r.J_y + r.J_u, abs=1e-12)
        assert np.isfinite(r.J)
        assert len(r.dataset_hash) == 16


def test_sweep_pairs_datasets_across_controllers():
    records = run_sweep(_small(seeds=2))
    by_seed = {}
    for r in records:
        by_seed.setdefault(r.seed, []).append(r)
    for seed, recs in by_seed.items():
        hashes = {r.dataset_hash for r in recs}
        assert len(hashes) == 1  # same data for every controller
    seeds_hashes = {recs[0].dataset_hash for recs in by_seed.values()}
    assert len(seeds_hashes) == 2  # but different across seeds


def test_sweep_noise_free_costs_collapse():
    cfg = _small(seeds=1, sigma_e=0.0,
                 controllers=("spc", "causal_gamma", "gamma", "kf_mpc"))
    records = run_sweep(cfg)
    costs = {r.controller: r.J for r in records}
    assert len(costs) == 4
    spread = max(costs.values()) - min(costs.values())
    assert spread <= 1e-6 * max(costs.values())


def test_sweep_worker_count_does_not_change_records():
    cfg = _small(seeds=2)
    serial = run_sweep(cfg, workers=1)
    parallel = run_sweep(cfg, workers=2)
    strip = lambda r: replace(r, wall_ms=0.0)
    assert [strip(r) for r in serial] == [strip(r) for r in parallel]


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_worker_count_below_one(workers):
    # it used to run serially, as if one worker had been asked for
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_sweep(_small(seeds=1), workers=workers)


def test_sweep_survives_diverging_grid_point():
    """A violently distorted plant blows up during data collection; the
    affected unit reports infinite costs and the rest of the grid is
    unaffected."""
    cfg = _small("nonlinear_fig2", seeds=1,
                 excitation_amplitude=60.0,  # far outside the stable region
                 y_min=float("-inf"), y_max=float("inf"),
                 controllers=("spc", "causal_gamma"))
    cfg = replace(cfg, sweep_eps=(0.0, 1.0), sweep_sigma_e=(0.0,))
    records = run_sweep(cfg)
    assert len(records) == 4
    good = [r for r in records if r.eps == 0.0]
    bad = [r for r in records if r.eps == 1.0]
    assert all(np.isfinite(r.J) and r.status == "solved" for r in good)
    assert all(np.isinf(r.J) and r.status == "diverged" for r in bad)
    assert all(r.dataset_hash == "" for r in bad)


def test_run_single_matches_sweep_record():
    cfg = _small(seeds=1)
    rollout, traj = run_single(cfg, "causal_gamma", seed=0)
    record = [r for r in run_sweep(cfg) if r.controller == "causal_gamma"][0]
    assert record.J == pytest.approx(rollout.J, abs=1e-12)
    assert record.qp_iters == rollout.qp_iterations
    assert traj.n_samples == cfg.n_d


def test_sweep_and_single_build_and_collect_through_the_module_names(
        monkeypatch):
    """perfbench wraps ``bench.make_controller`` and
    ``bench.collect_open_loop`` by assigning the module names: every
    rollout builds through the name once and every unit collects once."""
    calls = dict.fromkeys(("make_controller", "collect_open_loop"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(bench, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(bench, name, counted)
    cfg = _small(seeds=3)  # 2 controllers x 3 seeds at one grid point
    run_sweep(cfg)
    assert calls == {"make_controller": 6, "collect_open_loop": 3}
    run_single(cfg, "causal_gamma", seed=0)
    assert calls == {"make_controller": 7, "collect_open_loop": 4}


def test_sweep_rejects_a_missing_penalty_before_collecting(monkeypatch):
    cfg = load_config("table1")
    params = {name: dict(kv) for name, kv in cfg.controller_params.items()}
    del params["reg_gamma"]["mu"]
    cfg = replace(cfg, controller_params=params)
    collected = []
    monkeypatch.setattr(bench, "collect_open_loop",
                        lambda *args, **kwargs: collected.append(args))
    with pytest.raises(ValueError, match=r"^variant 'reg_gamma' needs a "
                                         r"finite mu >= 0, got None$"):
        run_sweep(cfg, seeds=range(1))
    assert collected == []


@pytest.mark.parametrize("variant,least", [("reg_gamma", 55),
                                           ("causal_gamma", 40)])
def test_table1_steps_are_answered_by_the_set_record(variant, least):
    """On table1 at n_d 200 and seed 0 most steps repeat the last step's
    active set, and the solver answers them from its set record (58 and
    53 of 60 steps when this test was written).  A change that sends such
    steps through the LU instead fails here."""
    cfg = load_config(bundled_config_path("table1"))
    rollout, _ = run_single(cfg, variant, seed=0, n_d=200)
    assert len(rollout.steps) == 60 and rollout.status.value == "solved"
    assert sum(s.qp_path == "record" for s in rollout.steps) >= least


# ---------------------------------------------------------------------------
# normalization and tuning
# ---------------------------------------------------------------------------


def _record(controller, J, seed=0, n_d=100, sigma=0.1, eps=0.0):
    return RunRecord(controller=controller, N_d=n_d, sigma_e=sigma, eps=eps,
                     seed=seed, J=J, J_y=J, J_u=0.0, wall_ms=1.0,
                     qp_iters=10, status="solved", dataset_hash="abc")


def test_normalize_costs_against_baseline():
    records = [_record("base", 1.0, seed=0), _record("base", 3.0, seed=1),
               _record("other", 3.0, seed=0), _record("other", 5.0, seed=1),
               _record("base", 4.0, n_d=200), _record("other", 2.0, n_d=200)]
    rows = normalize_costs(records, "base")
    assert len(rows) == 4
    first = {r["controller"]: r for r in rows if r["N_d"] == 100}
    assert first["base"]["ratio"] == pytest.approx(1.0)
    assert first["other"]["ratio"] == pytest.approx(2.0)  # mean 4 over mean 2
    second = {r["controller"]: r for r in rows if r["N_d"] == 200}
    assert second["other"]["ratio"] == pytest.approx(0.5)


def test_normalize_costs_ratio_is_nan_against_diverged_baseline():
    """A baseline that diverged at one seed has an infinite mean cost; the
    ratios against it are undefined, not a perfect 0."""
    records = [_record("base", 1.0, seed=0), _record("base", np.inf, seed=1),
               _record("other", 3.0, seed=0), _record("other", 5.0, seed=1)]
    rows = {r["controller"]: r for r in normalize_costs(records, "base")}
    assert rows["base"]["J_mean"] == np.inf
    assert np.isnan(rows["other"]["ratio"])
    assert np.isnan(rows["base"]["ratio"])


def test_normalize_costs_requires_baseline_runs():
    with pytest.raises(MissingBaseline):
        normalize_costs([_record("other", 1.0)], "base")


def test_select_best_breaks_ties_toward_larger():
    assert select_best([(1,), (2,), (3,)], [5.0, 4.0, 4.0]) == (3,)
    assert select_best([(1,), (2,), (3,)], [1.0, 4.0, 4.0]) == (1,)
    with pytest.raises(ValueError):
        select_best([(1,)], [1.0, 2.0])
    with pytest.raises(ValueError):
        select_best([], [])


def test_tune_searches_grid_and_returns_best():
    cfg = _small(controllers=("reg_gamma",), seeds=1)
    cfg = replace(cfg, grid_points=3, grid_min=1e-3, grid_max=1e3,
                  tune_seeds=1)
    best = tune(cfg, "reg_gamma")
    axis = np.geomspace(1e-3, 1e3, 3)
    assert set(best) == {"mu"}
    assert any(np.isclose(best["mu"], v) for v in axis)
    # the winner is at least as good as both alternatives
    def score(mu):
        trial = cfg.with_controller_params("reg_gamma", mu=mu)
        rollout, _ = run_single(trial, "reg_gamma",
                                seed=cfg.tune_seed_offset)
        return rollout.J
    best_score = score(best["mu"])
    assert all(best_score <= score(v) + 1e-12 for v in axis)


def test_tune_two_parameter_grid():
    cfg = _small(controllers=("reg_causal_gamma",), seeds=1)
    cfg = replace(cfg, grid_points_2d=2, grid_min=1e-2, grid_max=1e2,
                  tune_seeds=1)
    best = tune(cfg, "reg_causal_gamma")
    assert set(best) == {"lam", "mu"}


def test_tune_collects_each_validation_seed_once(monkeypatch):
    # every candidate is scored on the same dataset, so it is built once
    # per seed, not once per candidate and seed
    cfg = replace(_small(controllers=("reg_gamma",)), grid_points=3,
                  grid_min=1e-3, grid_max=1e3, tune_seeds=1)
    calls = []
    collect = bench.collect_open_loop

    def counting(*args, **kwargs):
        calls.append(1)
        return collect(*args, **kwargs)

    monkeypatch.setattr(bench, "collect_open_loop", counting)
    tune(cfg, "reg_gamma")
    assert len(calls) == 1


def test_tune_raises_when_no_candidate_is_scored():
    """A plant whose collection diverges gives every candidate an infinite
    score; tune names the controller instead of returning the last
    candidate of the grid."""
    cfg = replace(_small("table1", controllers=("reg_gamma",)),
                  plant_kind="nonlinear", eps=1.0, excitation_amplitude=30.0,
                  grid_points=3, grid_min=1e-3, grid_max=1e3, tune_seeds=2)
    with pytest.raises(Diverged, match=r"^tune reg_gamma: .*collection"):
        tune(cfg, "reg_gamma")


def test_tune_rejects_unregularized_controllers():
    with pytest.raises(ValueError):
        tune(_small(), "spc")


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_write_records_layout_and_byte_stability(tmp_path):
    records = run_sweep(_small(seeds=1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_records(records, p1)
    write_records(records, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().splitlines()
    assert lines[0] == ("controller,N_d,sigma_e,eps,seed,J,J_y,J_u,wall_ms,"
                        "qp_iters,status,dataset_hash")
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert len(lines) == 1 + len(records)
    # the wall column is always zero
    wall_col = RECORD_FIELDS.index("wall_ms")
    assert all(ln.split(",")[wall_col] == "0.0" for ln in lines[1:])


def test_write_records_roundtrips_floats(tmp_path):
    records = [_record("x", J=1.0 / 3.0)]
    path = tmp_path / "r.csv"
    write_records(records, path)
    row = path.read_text().strip().splitlines()[1].split(",")
    assert float(row[RECORD_FIELDS.index("J")]) == 1.0 / 3.0


def test_write_normalized_layout(tmp_path):
    rows = normalize_costs([_record("base", 2.0), _record("other", 3.0)],
                           "base")
    path = tmp_path / "n.csv"
    write_normalized(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "controller,N_d,sigma_e,eps,J_mean,ratio"
    assert len(lines) == 3


def test_write_rollout_csv_cumulative_cost_matches(tmp_path):
    cfg = _small(seeds=1)
    rollout, _ = run_single(cfg, "causal_gamma", seed=0)
    path = tmp_path / "roll.csv"
    write_rollout_csv(rollout, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,u1,y1,r1,J_cum,qp_iters,qp_status"
    assert len(lines) == 1 + cfg.n_steps
    last = lines[-1].split(",")
    assert float(last[4]) == pytest.approx(rollout.J, abs=1e-9)
    assert lines[1].split(",")[0] == "1"


def _last_j_cum(rollout, path) -> float:
    write_rollout_csv(rollout, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(rollout.steps)
    return float(lines[-1].split(",")[lines[0].split(",").index("J_cum")])


@pytest.mark.parametrize("variant", VARIANTS)
def test_write_rollout_csv_last_cost_is_rollout_cost(tmp_path, variant):
    """The log's ``J_cum`` is the running sum of the same stage costs that
    ``J`` sums, so its last value is ``rollout.J`` exactly, at table1 seed
    0 (with ``gamma.mu`` and ``projreg_g.mu`` set so that every variant
    runs)."""
    cfg = load_config("table1")
    cfg = cfg.with_controller_params("gamma", mu=1e3).with_controller_params(
        "projreg_g", mu=cfg.controller_params["reg_gamma"]["mu"])
    rollout, _ = run_single(cfg, variant, seed=0)
    assert _last_j_cum(rollout, tmp_path / "roll.csv") == rollout.J


def test_write_rollout_csv_last_cost_is_rollout_cost_mimo(tmp_path):
    """A 2-input, 2-output rollout under a coupled output weight: the last
    ``J_cum`` is ``J`` exactly, and ``J`` is the per-move stage cost summed
    to round-off."""
    plant = random_model(seeded(160), n=3, m=2, p=2, sigma_e=0.1)
    cost = CostSpec(q_step=[[1.0, 0.3], [0.3, 0.5]],
                    r_step=0.05 * np.eye(2), L_f=4)
    boxes = BoxConstraints(u_lower=[-0.5, -0.5], u_upper=[0.5, 0.5],
                           y_lower=[-np.inf] * 2, y_upper=[np.inf] * 2)
    spec = ControllerSpec(variant="reg_causal_gamma", cost=cost,
                          boxes=boxes, mu=1.0, lam=1.0)
    rng = seeded(161)
    traj = collect_open_loop(plant, rng.uniform(-1.0, 1.0, (2, 200)),
                             rng=rng)
    ctrl = make_controller(spec, part=partition(traj, HorizonSpec(3, 4)))
    reference = seeded(162).uniform(-1.0, 1.0, (2, 25))
    rollout = run_receding_horizon(plant, ctrl, reference, 25,
                                   rng=seeded(163))
    path = tmp_path / "roll.csv"
    assert _last_j_cum(rollout, path) == rollout.J
    assert path.read_text().splitlines()[0] == (
        "t,u1,u2,y1,y2,r1,r2,J_cum,qp_iters,qp_status")
    u, y = rollout.trajectory.inputs, rollout.trajectory.outputs
    err = y - reference
    stage = [e @ cost.q_step @ e + v @ cost.r_step @ v
             for e, v in zip(err.T, u.T)]
    assert rollout.J == pytest.approx(sum(stage), rel=1e-13)
