"""Config parsing, the Monte-Carlo sweep, tuning, and CSV artifacts.

Covers:
  * parsing of the bundled configs, defaults, inline comments, and every
    documented failure mode of ``load_config``.
  * paired sweeps: identical datasets across controllers at a grid
    point, canonical record ordering, the cost decomposition, and
    worker-count invariance.
  * noise-free collapse: on exact data every variant closes the loop
    identically (the fast version of the acceptance check).
  * divergence containment: an explosive grid point yields ``inf``-cost
    records instead of aborting the sweep.
  * cost normalization against a baseline and the missing-baseline error.
  * grid-search tuning and its tie-breaking rule.
  * byte-stable ``records.csv`` / ``normalized.csv`` / rollout logs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ddpc import (
    ConfigError,
    MissingBaseline,
    RECORD_FIELDS,
    RunRecord,
    bundled_config_path,
    load_config,
    normalize_costs,
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
], ids=["section-typo", "key-typo", "param-typo", "dropped-timing-switch",
        "dropped-qp-section", "unknown-variant"])
def test_unread_sections_and_keys_rejected(tmp_path, edits, culprit):
    with pytest.raises(ConfigError) as info:
        load_config(_write_cfg(tmp_path, **edits))
    assert culprit in str(info.value)


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
