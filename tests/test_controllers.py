"""Predictive-control variants, condensed QPs, and the receding loop.

Every controller is built by ``make_controller`` and exercised through
its ``step`` and ``condense`` methods.  Covers:
  * validation of cost, box, and controller specifications, and of the
    per-step inputs (length and finiteness of ``z_p`` and ``r_f``).
  * decision-space dimensions and PSD-ness of each variant's condensed
    QP, plus consistency between ``condense`` and ``step``.
  * analytic unconstrained solutions for the predictor-based variants
    and the model-based controller.
  * pairwise equivalences: latent-coordinate vs predictor forms, the
    large-penalty limits, the raw-coordinate cross-check program, and
    the degenerate-split reduction (small fast instances here; the full
    tolerance-pinned versions live in the acceptance suite).
  * Kalman predictor matrices against a loop oracle and exact state
    recovery by the innovation-form update.
  * receding-horizon mechanics: cost decomposition, applied inputs,
    reference padding, warm-up handling, determinism, divergence, and
    aggregated QP status.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import demo_model, make_blocks, make_partition, seeded
from oracles import multistep_matrices

from ddpc import (
    BoxConstraints,
    ControllerSpec,
    CostSpec,
    DimensionMismatch,
    Diverged,
    HorizonSpec,
    QpSettings,
    QpStatus,
    StateSpaceModel,
    VARIANTS,
    factorize,
    kf_predictor_matrices,
    kf_update,
    make_controller,
    partition,
    run_receding_horizon,
    sine_reference,
    square_wave,
    step_lti,
)
from ddpc.lq import causal_split


L_P, L_F = 4, 5


def _cost(r_weight=0.05, L_f=L_F, ref=None):
    return CostSpec(q_step=np.eye(1), r_step=r_weight * np.eye(1),
                    L_f=L_f, r=ref)


def _boxes(u=2.0, y=np.inf):
    return BoxConstraints(u_lower=[-u], u_upper=[u],
                          y_lower=[-y], y_upper=[y])


def _spec(variant, mu=None, lam=None, gamma3_zero=False, u_box=2.0,
          y_box=np.inf, ref=None):
    return ControllerSpec(variant=variant, cost=_cost(ref=ref),
                          boxes=_boxes(u_box, y_box), mu=mu, lam=lam,
                          gamma3_zero=gamma3_zero)


def _noisy_blocks(tag=0, sigma=0.2, n_d=200):
    return make_blocks(demo_model(sigma_e=sigma), n_d, L_P, L_F,
                       seeded(130, tag))


def _sample_zp(tag=0, sigma=0.2):
    part = make_partition(demo_model(sigma_e=sigma), 60, L_P, L_F,
                          seeded(131, tag))
    return part.Z_p[:, 7]


# ---------------------------------------------------------------------------
# specification validation
# ---------------------------------------------------------------------------


def test_cost_spec_weight_checks():
    with pytest.raises(ValueError):
        CostSpec(q_step=-np.eye(1), r_step=np.eye(1), L_f=3)
    with pytest.raises(ValueError):
        CostSpec(q_step=np.eye(1), r_step=np.zeros((1, 1)), L_f=3)
    with pytest.raises(DimensionMismatch):
        CostSpec(q_step=np.eye(1), r_step=np.eye(1), L_f=3, r=np.zeros(4))
    cost = CostSpec(q_step=2.0 * np.eye(2), r_step=np.eye(1), L_f=3)
    assert cost.Q.shape == (6, 6)
    np.testing.assert_array_equal(cost.Q[2:4, 2:4], 2.0 * np.eye(2))
    np.testing.assert_array_equal(cost.default_reference(), np.zeros(6))


def test_box_constraints_checks():
    with pytest.raises(ValueError):
        BoxConstraints(u_lower=[1.0], u_upper=[-1.0],
                       y_lower=[-1.0], y_upper=[1.0])
    with pytest.raises(ValueError):
        BoxConstraints(u_lower=[np.nan], u_upper=[1.0],
                       y_lower=[-1.0], y_upper=[1.0])
    free = BoxConstraints.unbounded(2, 1)
    assert not free.u_bounded() and not free.y_bounded()
    lo, hi = _boxes(0.5).u_tiled(4)
    np.testing.assert_array_equal(lo, -0.5 * np.ones(4))
    np.testing.assert_array_equal(hi, 0.5 * np.ones(4))


def test_controller_spec_penalty_requirements():
    with pytest.raises(ValueError):
        _spec("unknown_variant")
    with pytest.raises(ValueError):
        _spec("gamma")                    # mu missing
    with pytest.raises(ValueError):
        _spec("reg_causal_gamma", mu=1.0)  # lam missing
    _spec("gamma", gamma3_zero=True)       # hard variant waives mu
    _spec("reg_gamma", gamma3_zero=True)
    _spec("gamma", mu=0.5)
    _spec("reg_causal_gamma", mu=0.5, lam=0.5)
    with pytest.raises(ValueError):
        _spec("gamma", mu=-1.0)
    # only gamma / reg_gamma have a residual coordinate to drop
    for variant in ("spc", "causal_spc", "causal_gamma", "kf_mpc"):
        with pytest.raises(ValueError):
            _spec(variant, gamma3_zero=True)
    with pytest.raises(ValueError):
        _spec("projreg_g", mu=0.5, gamma3_zero=True)
    with pytest.raises(ValueError):
        _spec("reg_causal_gamma", mu=0.5, lam=0.5, gamma3_zero=True)
    with pytest.raises(ValueError):
        _spec("reg_causal_gamma", lam=0.5, gamma3_zero=True)


def test_make_controller_handle_requirements():
    with pytest.raises(ValueError):
        make_controller(_spec("kf_mpc"))
    with pytest.raises(ValueError):
        make_controller(_spec("projreg_g", mu=1.0))
    with pytest.raises(ValueError):
        make_controller(_spec("spc"))


def test_make_controller_accepts_partition_for_latent_variants():
    part = make_partition(demo_model(sigma_e=0.2), 200, L_P, L_F,
                          seeded(132))
    blocks = factorize(part)
    z = _sample_zp()
    via_part = make_controller(_spec("causal_gamma"), part=part).step(z)
    via_blocks = make_controller(_spec("causal_gamma"),
                                 blocks=blocks).step(z)
    np.testing.assert_allclose(via_part.u_f, via_blocks.u_f, atol=1e-9)


def _any_controller(variant):
    """A controller of any variant, given every handle it might need."""
    model = demo_model(sigma_e=0.2)
    part = make_partition(model, 120, L_P, L_F, seeded(143))
    return make_controller(_spec(variant, mu=1.0, lam=1.0), part=part,
                           blocks=factorize(part), model=model, L_p=L_P)


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_wrong_length_reference(variant):
    ctrl = _any_controller(variant)
    with pytest.raises(DimensionMismatch):
        ctrl.step(_sample_zp(), np.zeros(L_F + 1))
    with pytest.raises(DimensionMismatch):
        ctrl.condense(_sample_zp(), np.zeros(L_F - 1))


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_non_finite_input_before_solving(variant):
    """NaN or inf in the window or the reference raises a ValueError that
    names the argument, before any arithmetic could warn about it."""
    ctrl = _any_controller(variant)
    for bad in (np.nan, np.inf):
        z = _sample_zp()
        z[1] = bad
        r = np.zeros(L_F)
        r[2] = -bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="r_f"):
                ctrl.step(_sample_zp(), r)
            if variant == "kf_mpc":  # the filter state replaces z_p
                assert ctrl.step(z).qp_status == QpStatus.SOLVED
            else:
                with pytest.raises(ValueError, match="z_p"):
                    ctrl.step(z)


# ---------------------------------------------------------------------------
# condensed QP structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant,mu,lam,g3,expect_dim", [
    ("spc", None, None, False, L_F),
    ("causal_spc", None, None, False, L_F),
    ("causal_gamma", None, None, False, L_F),
    ("gamma", 1.0, None, False, 2 * L_F),
    ("gamma", None, None, True, L_F),
    ("reg_gamma", 1.0, None, False, 2 * L_F),
    ("reg_causal_gamma", 1.0, 1.0, False, 3 * L_F),
])
def test_decision_dimensions(variant, mu, lam, g3, expect_dim):
    blocks = _noisy_blocks()
    prob = make_controller(_spec(variant, mu=mu, lam=lam, gamma3_zero=g3),
                           blocks=blocks).condense(_sample_zp())
    assert prob.P.shape == (expect_dim, expect_dim)
    assert float(np.linalg.eigvalsh(prob.P).min()) >= -1e-9


def test_projreg_decision_dimension_is_column_count():
    part = make_partition(demo_model(sigma_e=0.2), 120, L_P, L_F,
                          seeded(133))
    prob = make_controller(_spec("projreg_g", mu=1.0),
                           part=part).condense(_sample_zp())
    assert prob.P.shape == (part.M, part.M)
    # consistency with the past window is enforced by equality rows
    d1 = part.Z_p.shape[0]
    np.testing.assert_array_equal(prob.lower[:d1], prob.upper[:d1])


def test_constraint_rows_follow_boxes():
    blocks = _noisy_blocks()
    both = make_controller(_spec("spc", u_box=1.0, y_box=2.0),
                           blocks=blocks).condense(_sample_zp())
    assert both.A.shape[0] == 2 * L_F
    u_only = make_controller(_spec("spc", u_box=1.0, y_box=np.inf),
                             blocks=blocks).condense(_sample_zp())
    assert u_only.A.shape[0] == L_F
    free = make_controller(_spec("spc", u_box=np.inf, y_box=np.inf),
                           blocks=blocks).condense(_sample_zp())
    assert free.A.shape[0] == 0


def test_condense_consistent_with_step():
    """Solving the materialized QP externally reproduces the step's plan
    (for the input-coordinate variants the decision is u_f itself)."""
    from ddpc import solve as qp_solve
    blocks = _noisy_blocks()
    z = _sample_zp()
    spec = _spec("spc", u_box=0.4)
    res = make_controller(spec, blocks=blocks).step(z)
    sol = qp_solve(make_controller(spec, blocks=blocks).condense(z))
    np.testing.assert_allclose(res.u_f, sol.x, atol=1e-7)


# ---------------------------------------------------------------------------
# analytic unconstrained solutions
# ---------------------------------------------------------------------------


def test_spc_zero_reference_zero_past_gives_zero():
    blocks = _noisy_blocks()
    res = make_controller(_spec("spc"), blocks=blocks).step(
        np.zeros(blocks.dim_past))
    np.testing.assert_allclose(res.u_f, 0.0, atol=1e-9)
    np.testing.assert_allclose(res.y_f, 0.0, atol=1e-9)
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    assert res.qp_status == QpStatus.SOLVED


def test_spc_unconstrained_matches_least_squares():
    from ddpc import fit_spc_from_blocks
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(10.0, 1.0, L_F)[0]
    spec = _spec("spc", u_box=np.inf, ref=ref)
    res = make_controller(spec, blocks=blocks).step(z)
    pred = fit_spc_from_blocks(blocks)
    Q, R = spec.cost.Q, spec.cost.R
    lhs = pred.K_f.T @ Q @ pred.K_f + R
    rhs = -pred.K_f.T @ Q @ (pred.K_p @ z - ref)
    u_ref = np.linalg.solve(lhs, rhs)
    np.testing.assert_allclose(res.u_f, u_ref, atol=1e-6)
    np.testing.assert_allclose(res.y_f, pred.K_p @ z + pred.K_f @ u_ref,
                               atol=1e-6)


def test_kf_mpc_unconstrained_matches_least_squares():
    model = demo_model(sigma_e=0.2)
    x_hat = np.array([0.4, -0.2])
    ref = sine_reference(10.0, 1.0, L_F)[0]
    spec = _spec("kf_mpc", u_box=np.inf, ref=ref)
    ctrl = make_controller(spec, model=model)
    ctrl.x_hat = x_hat
    res = ctrl.step()
    Gamma, H = kf_predictor_matrices(model, L_F)
    Q, R = spec.cost.Q, spec.cost.R
    u_ref = np.linalg.solve(H.T @ Q @ H + R,
                            -H.T @ Q @ (Gamma @ x_hat - ref))
    np.testing.assert_allclose(res.u_f, u_ref, atol=1e-6)


def test_active_box_clips_inputs():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = 2.0 * np.ones(L_F)
    spec = _spec("spc", u_box=0.3, ref=ref)
    res = make_controller(spec, blocks=blocks).step(z)
    assert res.qp_status == QpStatus.SOLVED
    assert np.abs(res.u_f).max() <= 0.3 + 1e-7
    assert np.any(np.abs(np.abs(res.u_f) - 0.3) < 1e-6)  # actually binding


# ---------------------------------------------------------------------------
# variant equivalences (small instances)
# ---------------------------------------------------------------------------


def test_gamma_large_mu_approaches_spc():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.5, L_F)[0]
    res_g = make_controller(_spec("gamma", mu=1e10, u_box=0.5, ref=ref),
                            blocks=blocks).step(z)
    res_s = make_controller(_spec("spc", u_box=0.5, ref=ref),
                            blocks=blocks).step(z)
    assert np.any(np.abs(np.abs(res_g.u_f) - 0.5) < 1e-5)  # box active
    np.testing.assert_allclose(res_g.u_f, res_s.u_f, atol=1e-4)
    np.testing.assert_allclose(res_g.y_f, res_s.y_f, atol=1e-4)


def test_gamma_hard_zero_matches_large_mu():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    hard = make_controller(_spec("gamma", gamma3_zero=True, ref=ref),
                           blocks=blocks).step(z)
    soft = make_controller(_spec("gamma", mu=1e12, ref=ref),
                           blocks=blocks).step(z)
    np.testing.assert_allclose(hard.u_f, soft.u_f, atol=1e-5)


def test_causal_gamma_matches_causal_spc():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    res_g = make_controller(_spec("causal_gamma", u_box=0.5, ref=ref),
                            blocks=blocks).step(z)
    res_s = make_controller(_spec("causal_spc", u_box=0.5, ref=ref),
                            blocks=blocks).step(z)
    np.testing.assert_allclose(res_g.u_f, res_s.u_f, atol=1e-6)
    np.testing.assert_allclose(res_g.y_f, res_s.y_f, atol=1e-6)


def test_gamma_matches_raw_coordinate_program():
    model = demo_model(sigma_e=0.2)
    part = make_partition(model, 120, L_P, L_F, seeded(134))
    blocks = factorize(part)
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    for mu in (0.1, 1.0, 10.0):
        res_g = make_controller(_spec("gamma", mu=mu, ref=ref),
                                blocks=blocks).step(z)
        res_p = make_controller(_spec("projreg_g", mu=mu, ref=ref),
                                part=part).step(z)
        np.testing.assert_allclose(res_g.u_f, res_p.u_f, atol=1e-5)
        np.testing.assert_allclose(res_g.y_f, res_p.y_f, atol=1e-5)


def test_reg_causal_with_degenerate_split_reduces_to_gamma():
    """Folding the whole output map into the causal slot (empty non-causal
    part) makes the doubly regularized program coincide with the plain
    latent-coordinate program at the same mu."""
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    # L32 replaced by its causal part: the split of these blocks has an
    # empty non-causal part
    degenerate = replace(blocks, L32=causal_split(blocks).causal)
    res_rc = make_controller(_spec("reg_causal_gamma", mu=1.0, lam=0.5,
                                   ref=ref), blocks=degenerate).step(z)
    res_g = make_controller(_spec("gamma", mu=1.0, ref=ref),
                            blocks=degenerate).step(z)
    np.testing.assert_allclose(res_rc.u_f, res_g.u_f, atol=1e-6)


def test_reg_causal_large_penalties_approach_causal_gamma():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    res_rc = make_controller(_spec("reg_causal_gamma", mu=1e10, lam=1e10,
                                   ref=ref), blocks=blocks).step(z)
    res_c = make_controller(_spec("causal_gamma", ref=ref),
                            blocks=blocks).step(z)
    np.testing.assert_allclose(res_rc.u_f, res_c.u_f, atol=1e-4)


# ---------------------------------------------------------------------------
# Kalman predictor pieces
# ---------------------------------------------------------------------------


def test_kf_predictor_matrices_match_loop_oracle():
    from conftest import random_model
    model = random_model(seeded(135), n=3, m=2, p=2)
    Gamma, H = kf_predictor_matrices(model, 6)
    G_ref, H_ref = multistep_matrices(model.A, model.B, model.C, model.D, 6)
    np.testing.assert_allclose(Gamma, G_ref, atol=1e-12)
    np.testing.assert_allclose(H, H_ref, atol=1e-12)


def test_kf_predictor_matches_simulation():
    model = demo_model(sigma_e=0.0)
    rng = seeded(136)
    x0 = rng.standard_normal(2)
    u_f = rng.standard_normal(6)
    Gamma, H = kf_predictor_matrices(model, 6)
    y_pred = Gamma @ x0 + H @ u_f
    x = x0.copy()
    for t in range(6):
        x, y_t = step_lti(model, x, u_f[t:t + 1], np.zeros(1))
        assert y_pred[t] == pytest.approx(y_t[0], abs=1e-12)


def test_kf_update_recovers_innovations():
    """Starting from the true initial state, the innovation-form update
    reproduces the simulator state exactly, so the filtered innovations
    equal the injected ones."""
    model = demo_model(sigma_e=0.3)
    rng = seeded(137)
    E = 0.3 * rng.standard_normal((1, 40))
    U = rng.standard_normal((1, 40))
    x = np.zeros(2)
    x_hat = np.zeros(2)
    for t in range(40):
        x_next, y = step_lti(model, x, U[:, t], E[:, t])
        innov = y - model.C @ x_hat - model.D @ U[:, t]
        assert innov[0] == pytest.approx(E[0, t], abs=1e-10)
        x_hat = kf_update(model, x_hat, U[:, t], y)
        x = x_next
        np.testing.assert_allclose(x_hat, x, atol=1e-10)


# ---------------------------------------------------------------------------
# receding-horizon loop
# ---------------------------------------------------------------------------


def _rollout(controller_spec, n_steps=30, sigma=0.1, tag=0, plant=None,
             **kwargs):
    model = plant if plant is not None else demo_model(sigma_e=sigma)
    blocks = _noisy_blocks(tag=tag, sigma=max(sigma, 0.05))
    ctrl = make_controller(controller_spec, blocks=blocks)
    ref = sine_reference(20.0, 1.0, n_steps)
    return run_receding_horizon(model, ctrl, ref, n_steps,
                                rng=seeded(138, tag), **kwargs)


def test_rollout_cost_decomposition():
    res = _rollout(_spec("causal_gamma", u_box=2.0))
    assert res.J == pytest.approx(res.J_y + res.J_u, abs=1e-12)
    # recompute from the logged trajectory
    err = res.trajectory.outputs - res.reference
    J_y = float((err * err).sum())
    J_u = 0.05 * float((res.trajectory.inputs ** 2).sum())
    assert res.J_y == pytest.approx(J_y, abs=1e-9)
    assert res.J_u == pytest.approx(J_u, abs=1e-9)


def test_rollout_applies_first_input_of_each_plan():
    res = _rollout(_spec("spc", u_box=2.0), n_steps=12)
    for t, step in enumerate(res.steps):
        assert step.u_applied[0] == pytest.approx(step.u_f[0])
        assert res.trajectory.inputs[0, t] == step.u_applied[0]


def test_rollout_reference_padding_matches_manual_extension():
    n_steps = 25
    model = demo_model(sigma_e=0.1)
    blocks = _noisy_blocks()
    ref_short = sine_reference(20.0, 1.0, n_steps)
    ref_long = np.hstack([ref_short,
                          np.repeat(ref_short[:, -1:], L_F, axis=1)])
    a = run_receding_horizon(model, make_controller(_spec("spc"),
                                                    blocks=blocks),
                             ref_short, n_steps, rng=seeded(139))
    b = run_receding_horizon(model, make_controller(_spec("spc"),
                                                    blocks=blocks),
                             ref_long, n_steps, rng=seeded(139))
    np.testing.assert_array_equal(a.trajectory.outputs, b.trajectory.outputs)


def test_rollout_warmup_inputs_change_initial_window():
    spec = _spec("causal_gamma", u_box=2.0)
    blocks = _noisy_blocks()
    model = demo_model(sigma_e=0.0)
    ref = np.zeros((1, 10))
    quiet = run_receding_horizon(model, make_controller(spec, blocks=blocks),
                                 ref, 10)
    kicked = run_receding_horizon(model, make_controller(spec, blocks=blocks),
                                  ref, 10,
                                  warmup_inputs=np.ones((1, L_P)))
    # zero reference from rest stays at rest; a warm-up kick does not
    np.testing.assert_allclose(quiet.trajectory.outputs, 0.0, atol=1e-9)
    assert np.abs(kicked.trajectory.outputs).max() > 1e-3


def test_rollout_warmup_shape_validation():
    spec = _spec("spc")
    blocks = _noisy_blocks()
    with pytest.raises(DimensionMismatch):
        run_receding_horizon(demo_model(), make_controller(spec,
                                                           blocks=blocks),
                             np.zeros((1, 10)), 10,
                             warmup_inputs=np.ones((1, L_P + 1)))


def test_rollout_bitwise_determinism():
    a = _rollout(_spec("gamma", mu=10.0, u_box=1.0), tag=3)
    b = _rollout(_spec("gamma", mu=10.0, u_box=1.0), tag=3)
    np.testing.assert_array_equal(a.trajectory.outputs,
                                  b.trajectory.outputs)
    np.testing.assert_array_equal(a.trajectory.inputs, b.trajectory.inputs)
    assert a.J == b.J


def test_rollout_status_aggregates_worst_step():
    blocks = _noisy_blocks()
    starved = make_controller(_spec("spc", u_box=1.0), blocks=blocks,
                              qp_settings=QpSettings(max_iter=2))
    res = run_receding_horizon(demo_model(sigma_e=0.1), starved,
                               sine_reference(20.0, 1.0, 10), 10,
                               rng=seeded(140))
    assert res.status == QpStatus.MAX_ITER
    assert res.qp_iterations == sum(s.qp_iterations for s in res.steps)


def test_rollout_model_mismatch_diverges():
    """An internal model with the input sign flipped turns feedback into
    positive feedback; the loop must trip the divergence guard."""
    model = demo_model(sigma_e=0.1)
    wrong = StateSpaceModel(A=model.A, B=-model.B, C=model.C, D=-model.D,
                            K=model.K, sigma_e=model.sigma_e)
    ctrl = make_controller(_spec("kf_mpc", u_box=np.inf), model=wrong,
                           L_p=L_P)
    with pytest.raises(Diverged):
        run_receding_horizon(model, ctrl, sine_reference(20.0, 1.0, 200),
                             200, rng=seeded(141))


def test_kf_controller_tracks_well_noise_free():
    """Steady-state offset is the usual input-penalty trade-off and
    shrinks as the input weight goes to zero."""
    model = demo_model(sigma_e=0.0)
    ref = np.ones((1, 40))
    errs = []
    for r_weight in (0.05, 1e-4):
        spec = ControllerSpec(variant="kf_mpc",
                              cost=_cost(r_weight=r_weight),
                              boxes=_boxes(2.0))
        ctrl = make_controller(spec, model=model, L_p=2)
        res = run_receding_horizon(model, ctrl, ref, 40)
        errs.append(np.abs(res.trajectory.outputs[0, 10:] - 1.0).max())
    assert errs[0] < 0.05
    assert errs[1] < 1e-3
    assert errs[1] < errs[0]


def test_data_driven_controller_tracks_square_reference():
    spec = _spec("causal_gamma", u_box=2.0)
    blocks = make_blocks(demo_model(sigma_e=0.05), 300, L_P, L_F,
                         seeded(142))
    model = demo_model(sigma_e=0.0)
    ref = square_wave(30, 1.0, 60)[None, :]
    res = run_receding_horizon(model, make_controller(spec, blocks=blocks),
                               ref, 60)
    err = res.trajectory.outputs - ref[:, :60]
    assert np.sqrt((err ** 2).mean()) < 0.4
