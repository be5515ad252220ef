"""Acceptance gate: the eleven criteria the package must meet.

Each test evaluates one criterion end-to-end with pinned tolerances,
records a verdict, and asserts it; at the end of the session a one-line
PASS/FAIL summary per criterion is printed to the terminal.  Criteria:

   1. closed-form causal fit equals the brute-force row-wise fit.
   2. large-penalty latent program equals the direct predictor program,
      with box constraints verified active.
   3. latent-coordinate program equals the raw-coordinate projection
      program at matched penalty weights.
   4. causal latent program equals the causal predictor program.
   5. residual ordering of causal vs unrestricted fits, with the exact
      free-parameter gap of the causal structure.
   6. noise-free closed-loop identity across all variants and the
      model-based oracle.
   7. small-data advantage of the causal controller (paired medians).
   8. nonlinear distortion trend: causal wins at every distortion level
      and costs are nondecreasing in the distortion.
   9. tuned regularization study: ordering of clean paired mean costs
      and the normalized cost level at the largest dataset size.
  10. QP solver agreement with an active-set oracle plus independent
      KKT certification.
  11. byte-identical records.csv when any bundled config is rerun.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from conftest import full_factor, random_model, seeded
from oracles import (
    kkt_residuals,
    lq_orthonormal_rows,
    rowwise_causal_fit,
    solve_qp_active_set,
)

from ddpc import (
    BoxConstraints,
    ControllerSpec,
    CostSpec,
    HorizonSpec,
    QpProblem,
    bundled_config_path,
    causal_block_mask,
    causal_split,
    collect_open_loop,
    factorize,
    fit_causal,
    fit_residual,
    fit_spc,
    load_config,
    make_controller,
    partition,
    run_single,
    run_sweep,
    solve,
    tune,
    write_records,
)

# Verdicts are printed by the pytest_terminal_summary hook in conftest.py
# so one PASS/FAIL line per criterion always reaches the terminal.
_VERDICTS: list[tuple[int, str, bool, str]] = []


def _record(num: int, name: str, ok: bool, detail: str = "") -> None:
    _VERDICTS.append((num, name, ok, detail))


def _white_dataset(rng, m, p, L_p, L_f, sigma=0.25, extra=120):
    """A randomized model and noisy dataset sized for the horizons."""
    model = random_model(rng, n=3, m=m, p=p, sigma_e=sigma)
    rows = (m + p) * L_p + (m + p) * L_f
    n_d = rows + (L_p + L_f) + extra
    traj = collect_open_loop(model, rng.standard_normal((m, n_d)), rng=rng)
    return partition(traj, HorizonSpec(L_p, L_f))


def _soft_gamma(cfg, mu=1e10):
    """Replace the bundled hard-zero gamma parameters with a soft penalty."""
    cfg = cfg.with_controller_params("gamma", mu=mu)
    params = {k: dict(v) for k, v in cfg.controller_params.items()}
    params["gamma"].pop("gamma3_zero", None)
    return replace(cfg, controller_params=params)


# ---------------------------------------------------------------------------


def test_criterion_01_causal_fit_equals_bruteforce():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = seeded(201, k)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        L_p = int(rng.integers(3, 16))
        L_f = int(rng.integers(3, 31))
        part = _white_dataset(rng, m, p, L_p, L_f)
        closed = fit_causal(factorize(part))
        K_p, K_f = rowwise_causal_fit(part.Y_f, part.Z_p, part.U_f, m, p,
                                      L_f)
        for a, b in ((closed.K_p, K_p), (closed.K_f, K_f)):
            rel = np.linalg.norm(a - b) / max(1.0, np.linalg.norm(b))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _record(1, "causal fit equals brute force (50 datasets)", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8, f"worst relative error {worst:.2e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_penalty_limit_matches_direct_program():
    t0 = time.perf_counter()
    worst = 0.0
    actives = 0
    for k in range(20):
        rng = seeded(202, k)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        L_p = int(rng.integers(3, 7))
        L_f = int(rng.integers(3, 8))
        part = _white_dataset(rng, m, p, L_p, L_f)
        blocks = factorize(part)
        z_p = part.Z_p[:, 3]
        cap = 0.3
        boxes = BoxConstraints([-cap] * m, [cap] * m,
                               [-np.inf] * p, [np.inf] * p)
        ref = np.tile(2.0 * np.sin(np.arange(1, L_f + 1) / 2.0), p)
        cost = CostSpec(np.eye(p), 0.05 * np.eye(m), L_f)
        res_s = make_controller(ControllerSpec(variant="spc", cost=cost,
                                               boxes=boxes),
                                part=part).step(z_p, ref)
        res_g = make_controller(ControllerSpec(variant="gamma", cost=cost,
                                               boxes=boxes, mu=1e10),
                                blocks=blocks).step(z_p, ref)
        actives += bool(np.any(np.abs(np.abs(res_s.u_f) - cap) < 1e-6))
        worst = max(worst, np.abs(res_s.u_f - res_g.u_f).max(),
                    np.abs(res_s.y_f - res_g.y_f).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and actives == 20 and elapsed < 30.0
    _record(2, "large-mu latent program equals direct (20 problems)", ok,
            f"worst {worst:.2e}, active {actives}/20, {elapsed:.1f}s")
    assert actives == 20, "constructed box constraints were not active"
    assert worst <= 1e-4, f"worst deviation {worst:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_03_latent_equals_raw_coordinates():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(1, 1, 4, 5, 240), (2, 2, 4, 4, 280)]
    for idx, (m, p, L_p, L_f, n_d) in enumerate(cases):
        rng = seeded(203, idx)
        model = random_model(rng, n=3, m=m, p=p, sigma_e=0.25)
        traj = collect_open_loop(model, rng.standard_normal((m, n_d)),
                                 rng=rng)
        part = partition(traj, HorizonSpec(L_p, L_f))
        assert part.M <= 300
        blocks = factorize(part)
        z_p = part.Z_p[:, 5]
        ref = np.tile(np.sin(np.arange(1, L_f + 1) / 2.0), p)
        cost = CostSpec(np.eye(p), 0.05 * np.eye(m), L_f)
        boxes = BoxConstraints.unbounded(m, p)
        for mu in (0.1, 1.0, 10.0):
            res_g = make_controller(ControllerSpec(variant="gamma",
                                                   cost=cost, boxes=boxes,
                                                   mu=mu),
                                    blocks=blocks).step(z_p, ref)
            res_p = make_controller(ControllerSpec(variant="projreg_g",
                                                   cost=cost, boxes=boxes,
                                                   mu=mu),
                                    part=part).step(z_p, ref)
            worst = max(worst, np.abs(res_g.u_f - res_p.u_f).max(),
                        np.abs(res_g.y_f - res_p.y_f).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 60.0
    _record(3, "latent equals raw-coordinate program (mu grid)", ok,
            f"worst {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5, f"worst deviation {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_04_causal_pair_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        rng = seeded(204, k)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        L_p = int(rng.integers(3, 7))
        L_f = int(rng.integers(3, 8))
        part = _white_dataset(rng, m, p, L_p, L_f)
        blocks = factorize(part)
        z_p = part.Z_p[:, 3]
        ref = np.tile(np.sin(np.arange(1, L_f + 1) / 2.0), p)
        cost = CostSpec(np.eye(p), 0.05 * np.eye(m), L_f)
        boxes = BoxConstraints([-0.5] * m, [0.5] * m,
                               [-np.inf] * p, [np.inf] * p)
        res_g = make_controller(ControllerSpec(variant="causal_gamma",
                                               cost=cost, boxes=boxes),
                                blocks=blocks).step(z_p, ref)
        res_s = make_controller(ControllerSpec(variant="causal_spc",
                                               cost=cost, boxes=boxes),
                                blocks=blocks).step(z_p, ref)
        worst = max(worst, np.abs(res_g.u_f - res_s.u_f).max(),
                    np.abs(res_g.y_f - res_s.y_f).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _record(4, "causal latent equals causal direct (20 problems)", ok,
            f"worst {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6, f"worst deviation {worst:.2e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_05_residual_ordering_and_parameter_gap():
    t0 = time.perf_counter()
    ok_order = True
    ok_norm = True
    ok_equal = True
    ok_gap = True
    for k in range(50):
        rng = seeded(205, k)
        m = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        L_p = int(rng.integers(3, 8))
        L_f = int(rng.integers(3, 9))
        part = _white_dataset(rng, m, p, L_p, L_f)
        blocks = factorize(part)
        # the unrestricted fit can only fit better than the causal one
        r_full = fit_residual(part, fit_spc(part))
        r_causal = fit_residual(part, fit_causal(blocks))
        ok_order &= r_full <= r_causal + 1e-9
        # energy of the non-causal block only adds to the residual; the
        # orthonormal rows come from an independent QR of the stack
        split = causal_split(blocks)
        d1, d2 = blocks.dim_past, blocks.dim_u
        Q = lq_orthonormal_rows(full_factor(blocks),
                                np.vstack([part.Z_p, part.U_f, part.Y_f]))
        Q2, Q3 = Q[d1:d1 + d2], Q[d1 + d2:]
        lhs = np.linalg.norm(split.noncausal @ Q2 + blocks.L33 @ Q3) ** 2
        rhs = np.linalg.norm(blocks.L33 @ Q3) ** 2
        ok_norm &= lhs >= rhs - 1e-9
        zeroed = np.linalg.norm(np.zeros_like(split.noncausal) @ Q2
                                + blocks.L33 @ Q3) ** 2
        ok_equal &= abs(zeroed - rhs) <= 1e-12
        # exact count of structurally removed parameters
        mask = causal_block_mask(p, m, L_f)
        gap = mask.size - int(mask.sum())
        ok_gap &= gap == p * m * L_f * (L_f - 1) // 2
    elapsed = time.perf_counter() - t0
    ok = ok_order and ok_norm and ok_equal and ok_gap
    _record(5, "residual ordering and parameter gap (50 datasets)", ok,
            f"order={ok_order} norm={ok_norm} equal={ok_equal} "
            f"gap={ok_gap}, {elapsed:.1f}s")
    assert ok_order and ok_norm and ok_equal and ok_gap


def test_criterion_06_noise_free_identity():
    t0 = time.perf_counter()
    cfg = _soft_gamma(load_config("lti_fig1"))
    J = {}
    for name in ("spc", "causal_spc", "gamma", "causal_gamma", "kf_mpc"):
        rollout, _ = run_single(cfg, name, seed=0, n_d=600, sigma_e=0.0)
        J[name] = rollout.J
    dd = [J[n] for n in ("spc", "causal_spc", "gamma", "causal_gamma")]
    spread = (max(dd) - min(dd)) / max(dd)
    vs_kf = max(abs(j - J["kf_mpc"]) / J["kf_mpc"] for j in dd)
    elapsed = time.perf_counter() - t0
    ok = spread <= 1e-6 and vs_kf <= 1e-4 and elapsed < 60.0
    _record(6, "noise-free closed-loop identity (all variants)", ok,
            f"spread {spread:.2e}, vs oracle {vs_kf:.2e}, {elapsed:.1f}s")
    assert spread <= 1e-6, f"variant spread {spread:.2e}"
    assert vs_kf <= 1e-4, f"gap to model-based oracle {vs_kf:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_07_small_data_causal_advantage():
    t0 = time.perf_counter()
    cfg = _soft_gamma(load_config("lti_fig1"))
    J_causal, J_gamma = [], []
    for seed in range(50):
        r_c, _ = run_single(cfg, "causal_gamma", seed, n_d=200, sigma_e=0.3)
        r_g, _ = run_single(cfg, "gamma", seed, n_d=200, sigma_e=0.3)
        J_causal.append(r_c.J)
        J_gamma.append(r_g.J)
    med_c = float(np.median(J_causal))
    med_g = float(np.median(J_gamma))
    elapsed = time.perf_counter() - t0
    ok = med_c < med_g and elapsed < 600.0
    _record(7, "small-data causal advantage (50 paired seeds)", ok,
            f"medians {med_c:.4f} vs {med_g:.4f}, {elapsed:.1f}s")
    assert med_c < med_g, f"medians {med_c:.4f} vs {med_g:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_08_nonlinear_distortion_trend():
    t0 = time.perf_counter()
    cfg = _soft_gamma(load_config("nonlinear_fig2"))
    eps_grid = (0.25, 0.5, 0.75)
    medians = {}
    for name in ("causal_gamma", "gamma"):
        medians[name] = []
        for eps in eps_grid:
            J = [run_single(cfg, name, seed, n_d=200, sigma_e=0.0,
                            eps=eps)[0].J for seed in range(5)]
            medians[name].append(float(np.median(J)))
    causal_wins = all(c < g for c, g in zip(medians["causal_gamma"],
                                            medians["gamma"]))
    nondecreasing = all(
        all(v[i] <= v[i + 1] + 1e-12 for i in range(len(v) - 1))
        for v in medians.values())
    elapsed = time.perf_counter() - t0
    ok = causal_wins and nondecreasing and elapsed < 300.0
    _record(8, "nonlinear distortion trend (3 levels, 5 seeds)", ok,
            f"causal {medians['causal_gamma']}, "
            f"gamma {medians['gamma']}, {elapsed:.1f}s")
    assert causal_wins, f"medians {medians}"
    assert nondecreasing, f"medians {medians}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_09_tuned_regularization_study():
    t0 = time.perf_counter()
    base = load_config("table1")
    # reduced grids: 12 log-spaced penalty values, 5x5 for the pair
    base = replace(base, grid_points=12, grid_points_2d=5, tune_seeds=5)

    def evaluate(n_d, seeds, names_cfgs):
        J = {key: [] for key, _, _ in names_cfgs}
        clean = []
        for seed in range(seeds):
            solved = True
            for key, cfg, name in names_cfgs:
                rollout, _ = run_single(cfg, name, seed, n_d=n_d)
                J[key].append(rollout.J)
                solved &= rollout.status.value == "solved"
            clean.append(solved)
        mask = np.array(clean)
        means = {k: float(np.array(v)[mask].mean()) for k, v in J.items()}
        return means, int(mask.sum())

    # ordering at the smallest dataset size, 100 paired seeds
    tuned_rc = tune(base, "reg_causal_gamma", n_d=200)
    tuned_rg = tune(base, "reg_gamma", n_d=200)
    cfg_rc = base.with_controller_params("reg_causal_gamma", **tuned_rc)
    cfg_rg = base.with_controller_params("reg_gamma", **tuned_rg)
    cfg_g = _soft_gamma(base)
    roster = [("rc", cfg_rc, "reg_causal_gamma"),
              ("c", base, "causal_gamma"),
              ("rg", cfg_rg, "reg_gamma"),
              ("g", cfg_g, "gamma")]
    means, n_clean = evaluate(200, 100, roster)
    ordering = (means["rc"] <= means["c"]
                and means["c"] <= means["rg"]
                and means["c"] <= means["g"])

    # normalized cost level at the largest dataset size, 50 paired seeds
    tuned_rc6 = tune(base, "reg_causal_gamma", n_d=600)
    cfg_rc6 = base.with_controller_params("reg_causal_gamma", **tuned_rc6)
    means6, n_clean6 = evaluate(600, 50, [
        ("rc", cfg_rc6, "reg_causal_gamma"),
        ("c", base, "causal_gamma")])
    ratio = means6["c"] / means6["rc"]
    level_ok = abs(ratio - 1.0214) <= 0.15

    elapsed = time.perf_counter() - t0
    ok = (ordering and level_ok and n_clean >= 50 and n_clean6 >= 40
          and elapsed < 1800.0)
    _record(9, "tuned regularization ordering and level", ok,
            f"means rc={means['rc']:.4f} c={means['c']:.4f} "
            f"rg={means['rg']:.4f} g={means['g']:.4f} "
            f"(clean {n_clean}/100), ratio {ratio:.4f} "
            f"(clean {n_clean6}/50), {elapsed:.0f}s")
    assert n_clean >= 50, f"only {n_clean} clean paired seeds"
    assert ordering, f"mean ordering violated: {means}"
    assert level_ok, f"normalized cost {ratio:.4f} not within 1.0214±0.15"
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"


def test_criterion_10_qp_oracle_agreement():
    t0 = time.perf_counter()
    worst_x = 0.0
    worst_kkt = 0.0
    for k in range(100):
        rng = seeded(210, k)
        n = int(rng.integers(2, 31))
        n_rows = int(rng.integers(n, 61))
        L = rng.standard_normal((n, n))
        P = L @ L.T + 0.5 * np.eye(n)
        q = rng.standard_normal(n)
        A = rng.standard_normal((n_rows, n))
        x_feas = rng.standard_normal(n)
        slack = rng.uniform(0.05, 1.0, n_rows)
        base = A @ x_feas
        lower = base - slack
        upper = base + rng.uniform(0.05, 1.0, n_rows)
        prob = QpProblem(P=P, q=q, A=A, lower=lower, upper=upper)
        sol = solve(prob)
        assert sol.status.value == "solved"
        x_ref, y_ref = solve_qp_active_set(P, q, A, lower, upper,
                                           x_feasible=x_feas)
        ref_kkt = max(kkt_residuals(P, q, A, lower, upper, x_ref, y_ref))
        assert ref_kkt <= 1e-8, "oracle failed its own certificate"
        worst_x = max(worst_x, np.abs(sol.x - x_ref).max())
        worst_kkt = max(worst_kkt,
                        max(kkt_residuals(P, q, A, lower, upper,
                                          sol.x, sol.y)))
    elapsed = time.perf_counter() - t0
    ok = worst_x <= 1e-6 and worst_kkt <= 1e-7 and elapsed < 60.0
    _record(10, "qp oracle agreement and kkt certificates (100)", ok,
            f"worst dx {worst_x:.2e}, worst kkt {worst_kkt:.2e}, "
            f"{elapsed:.1f}s")
    assert worst_x <= 1e-6, f"worst solution gap {worst_x:.2e}"
    assert worst_kkt <= 1e-7, f"worst KKT residual {worst_kkt:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_11_bundled_configs_byte_identical(tmp_path):
    t0 = time.perf_counter()
    stable = True
    details = []
    for name in ("closedloop", "lti_fig1", "nonlinear_fig2", "table1"):
        cfg = load_config(bundled_config_path(name))
        # full bundled seed count where cheap, a single seed on the grids
        seeds = None if name == "closedloop" else range(1)
        blobs = []
        for _ in range(2):
            records = run_sweep(cfg, seeds=seeds)
            path = tmp_path / f"{name}_records.csv"
            write_records(records, path)
            blobs.append(path.read_bytes())
        same = blobs[0] == blobs[1]
        stable &= same
        details.append(f"{name}:{'ok' if same else 'DIFFERS'}")
    elapsed = time.perf_counter() - t0
    _record(11, "bundled configs rerun byte-identical", stable,
            ", ".join(details) + f", {elapsed:.0f}s")
    assert stable, ", ".join(details)
