"""Predictive-control variants, condensed QPs, and the receding loop.

Every controller is built by ``make_controller`` and exercised through
its ``step`` and ``condense`` methods.  Covers:
  * validation of cost, box, and controller specifications (the cost's
    horizon weights formed once, read-only), and of the
    per-step inputs (length and finiteness of ``z_p`` and ``r_f``, and a
    window whose data overflow, rejected alike by ``step`` and
    ``condense``).
  * decision-space dimensions and PSD-ness of each variant's condensed
    QP, plus consistency between ``condense`` and ``step``, also for the
    results a rollout stored once it has returned.
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
    aggregated QP status; a step assigned on the instance called once per
    move; inputs rejected before the warm-up; the windows
    of the preallocated loop equal list-built ones, and a rollout equals
    a per-step loop over ``step_model`` (bitwise for a wrapped plant).
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    demo_model,
    make_blocks,
    make_partition,
    random_model,
    seeded,
)
from oracles import kkt_residuals, multistep_matrices

from ddpc import bench
from ddpc import qp as qp_module
from ddpc import (
    DIVERGENCE_LIMIT,
    BoxConstraints,
    ControllerSpec,
    CostSpec,
    DimensionMismatch,
    Diverged,
    HorizonSpec,
    NonlinearWrapper,
    QpSettings,
    QpStatus,
    StateSpaceModel,
    VARIANTS,
    bundled_config_path,
    factorize,
    fit_spc,
    kf_predictor_matrices,
    kf_update,
    load_config,
    make_controller,
    partition,
    solve as qp_solve,
    run_receding_horizon,
    sine_reference,
    square_wave,
    stack_window,
    step_lti,
    step_model,
)
from ddpc.lq import causal_split


L_P, L_F = 4, 5


def _cost(r_weight=0.05, L_f=L_F):
    return CostSpec(q_step=np.eye(1), r_step=r_weight * np.eye(1), L_f=L_f)


def _boxes(u=2.0, y=np.inf):
    return BoxConstraints(u_lower=[-u], u_upper=[u],
                          y_lower=[-y], y_upper=[y])


def _spec(variant, mu=None, lam=None, gamma3_zero=False, u_box=2.0,
          y_box=np.inf):
    return ControllerSpec(variant=variant, cost=_cost(),
                          boxes=_boxes(u_box, y_box), mu=mu, lam=lam,
                          gamma3_zero=gamma3_zero)


def _noisy_part(tag=0, sigma=0.2, n_d=200):
    return make_partition(demo_model(sigma_e=sigma), n_d, L_P, L_F,
                          seeded(130, tag))


def _noisy_blocks(tag=0, sigma=0.2, n_d=200):
    return factorize(_noisy_part(tag, sigma, n_d))


def _sample_zp(tag=0, sigma=0.2):
    part = make_partition(demo_model(sigma_e=sigma), 60, L_P, L_F,
                          seeded(131, tag))
    return part.Z_p[:, 7].copy()   # callers write into it


# ---------------------------------------------------------------------------
# specification validation
# ---------------------------------------------------------------------------


def test_cost_spec_weight_checks():
    with pytest.raises(ValueError):
        CostSpec(q_step=-np.eye(1), r_step=np.eye(1), L_f=3)
    with pytest.raises(ValueError):
        CostSpec(q_step=np.eye(1), r_step=np.zeros((1, 1)), L_f=3)
    cost = CostSpec(q_step=2.0 * np.eye(2), r_step=np.eye(1), L_f=3)
    assert cost.Q.shape == (6, 6)
    np.testing.assert_array_equal(cost.Q[2:4, 2:4], 2.0 * np.eye(2))


def test_cost_spec_horizon_weights_are_formed_once_and_read_only():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    r = 0.3 * np.eye(1)
    cost = CostSpec(q_step=q, r_step=r, L_f=3)
    np.testing.assert_array_equal(cost.Q, np.kron(np.eye(3), q))
    np.testing.assert_array_equal(cost.R, np.kron(np.eye(3), r))
    assert cost.Q is cost.Q and cost.R is cost.R
    for weight in (cost.Q, cost.R, cost.q_step, cost.r_step):
        assert not weight.flags.writeable
    q[0, 0] = 5.0  # the spec holds its own copies
    assert cost.q_step[0, 0] == 2.0 and cost.Q[2, 2] == 2.0
    # a pickled spec (as sent to a sweep worker) stays read-only
    back = pickle.loads(pickle.dumps(cost))
    np.testing.assert_array_equal(back.Q, cost.Q)
    assert not back.Q.flags.writeable and back.L_f == 3


def test_box_constraints_checks():
    with pytest.raises(ValueError):
        BoxConstraints(u_lower=[1.0], u_upper=[-1.0],
                       y_lower=[-1.0], y_upper=[1.0])
    with pytest.raises(ValueError):
        BoxConstraints(u_lower=[np.nan], u_upper=[1.0],
                       y_lower=[-1.0], y_upper=[1.0])
    free = BoxConstraints.unbounded(2, 1)
    for lo, hi in (free.u_tiled(3), free.y_tiled(3)):
        assert (lo == -np.inf).all() and (hi == np.inf).all()
    lo, hi = _boxes(0.5).u_tiled(4)
    np.testing.assert_array_equal(lo, -0.5 * np.ones(4))
    np.testing.assert_array_equal(hi, 0.5 * np.ones(4))


@pytest.mark.parametrize("field", ["u_lower", "u_upper", "y_lower",
                                   "y_upper"])
def test_box_side_at_the_wrong_infinity_rejected(field):
    """A lower bound of +inf or an upper bound of -inf admits no value; it
    must not be mistaken for an open side and dropped."""
    sides = dict(u_lower=[-1.0], u_upper=[1.0], y_lower=[-1.0],
                 y_upper=[1.0])
    closed = np.inf if field.endswith("_lower") else -np.inf
    # both sides of the box at that infinity, so lower <= upper still holds
    sides[field[0] + "_lower"] = sides[field[0] + "_upper"] = [closed]
    with pytest.raises(ValueError, match=field):
        BoxConstraints(**sides)


@pytest.mark.parametrize("variant,weights", [
    ("gamma", dict(mu=np.inf)),
    ("reg_gamma", dict(mu=np.nan)),
    ("reg_causal_gamma", dict(mu=np.inf, lam=1.0)),
    ("reg_causal_gamma", dict(mu=1.0, lam=np.nan)),
    ("projreg_g", dict(mu=-np.inf)),
], ids=["gamma-mu-inf", "reg_gamma-mu-nan", "reg_causal_gamma-mu-inf",
        "reg_causal_gamma-lam-nan", "projreg_g-mu-neg-inf"])
def test_non_finite_penalty_weight_rejected(variant, weights):
    bad = next(k for k, v in weights.items() if not np.isfinite(v))
    with pytest.raises(ValueError, match=f"{variant}.*finite {bad}"):
        _spec(variant, **weights)


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
    with pytest.raises(ValueError, match="spc needs blocks or part"):
        make_controller(_spec("spc"))
    # spc is the causal fit with the mask off: the LQ blocks suffice
    ctrl = make_controller(_spec("spc"), blocks=_noisy_blocks())
    assert ctrl.step(_sample_zp()).qp_status == QpStatus.SOLVED


def test_make_controller_accepts_partition_for_latent_variants():
    part = make_partition(demo_model(sigma_e=0.2), 200, L_P, L_F,
                          seeded(132))
    blocks = factorize(part)
    z = _sample_zp()
    for variant in ("causal_gamma", "spc"):
        via_part = make_controller(_spec(variant), part=part).step(z)
        via_blocks = make_controller(_spec(variant), blocks=blocks).step(z)
        np.testing.assert_allclose(via_part.u_f, via_blocks.u_f, atol=1e-9)


def _any_controller(variant, u_box=2.0, y_box=np.inf):
    """A controller of any variant, given every handle it might need."""
    model = demo_model(sigma_e=0.2)
    part = make_partition(model, 120, L_P, L_F, seeded(143))
    return make_controller(_spec(variant, mu=1.0, lam=1.0, u_box=u_box,
                                 y_box=y_box),
                           part=part, blocks=factorize(part), model=model,
                           L_p=L_P)


def _cached_controller(variant):
    """``_any_controller`` after three equal steps, which repeat one active
    set: the last is answered by that set's record, and so would the
    next equal step be."""
    ctrl = _any_controller(variant)
    assert [ctrl.step(_sample_zp()) for _ in range(3)][-1].qp_path == "record"
    return ctrl


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_wrong_length_reference(variant):
    """Also with the map cached, and for the window as for the reference."""
    ctrl = _cached_controller(variant)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DimensionMismatch, match="r_f"):
            ctrl.step(_sample_zp(), np.zeros(L_F + 1))
        with pytest.raises(DimensionMismatch, match="r_f"):
            ctrl.condense(_sample_zp(), np.zeros(L_F - 1))
        if variant != "kf_mpc":  # the filter state replaces z_p
            with pytest.raises(DimensionMismatch, match="z_p"):
                ctrl.step(_sample_zp()[:-1])


@pytest.mark.parametrize("variant", VARIANTS)
def test_step_rejects_non_finite_input_before_solving(variant):
    """NaN or inf in the window or the reference raises a ValueError that
    names the argument, before any arithmetic could warn about it, also
    when the solver holds a map that the step's set would hit."""
    ctrl = _cached_controller(variant)
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


@pytest.mark.parametrize("variant", ["spc", "reg_gamma"])
def test_overflowing_window_raises_in_condense_as_in_step(variant):
    """A finite window so large that the data map's product overflows:
    ``condense`` goes through the solver's checked product, so it raises
    the ``ValueError`` that ``step`` raises, and neither warns first."""
    ctrl = _any_controller(variant)
    z = np.full(len(_sample_zp()), 1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (ctrl.step, ctrl.condense):
            with pytest.raises(ValueError, match=r"^theta is so large"):
                call(z)


def _solved_within_solver_tolerance(prob, x, y, st):
    """The KKT oracle's residuals within the solver's own stopping test."""
    stat, prim, comp = kkt_residuals(prob.P, prob.q, prob.A, prob.lower,
                                     prob.upper, x, y)
    Ax = prob.A @ x
    z = np.clip(Ax, prob.lower, prob.upper)
    tol_p = st.eps_abs + st.eps_rel * max(np.abs(Ax).max(initial=0.0),
                                          np.abs(z).max(initial=0.0))
    tol_d = st.eps_abs + st.eps_rel * max(
        np.abs(prob.P @ x).max(), np.abs(prob.A.T @ y).max(initial=0.0),
        np.abs(prob.q).max())
    return (stat <= tol_d and prim <= tol_p
            and comp <= tol_p * max(1.0, np.abs(y).max(initial=0.0)))


@pytest.mark.parametrize("variant", [*VARIANTS, "reg_gamma-unboxed"])
def test_steps_match_fresh_solves_of_their_condensed_qp(variant):
    """Each step, answered by the cached map or not, equals a fresh solve
    of the QP that ``condense`` materializes, warm-started from the
    previous step's dual.  ``kf_mpc`` observes between steps, so a step
    with a stale state offset would differ.  Then a rollout runs, and once
    it has returned, every ``StepResult`` it stored still holds what its
    step returned, as do the warm starts each step left, and each equals a
    fresh solve: no array a step returns or keeps is a buffer that a later
    step writes.  ``reg_gamma-unboxed`` has no boxes, so its rows
    ``Fu`` and ``Fy`` of ``A`` have infinite bounds."""
    boxed = not variant.endswith("-unboxed")
    variant = variant.removesuffix("-unboxed")
    ctrl = _any_controller(variant, u_box=0.1 if boxed else np.inf,
                           y_box=1.5 if boxed else np.inf)
    part = make_partition(demo_model(sigma_e=0.2), 40, L_P, L_F,
                          seeded(144))
    st = QpSettings()
    paths = []
    for t in range(10):
        z = part.Z_p[:, t // 3]  # windows repeat, and so do active sets
        r = np.full(L_F, 1.0 if t < 6 else -0.5)
        prob = ctrl.condense(z, r)
        y_prev = ctrl._warm_y
        res = ctrl.step(z, r)
        paths.append(res.qp_path)
        fresh = qp_solve(prob, y0=y_prev)
        assert res.qp_status == fresh.status
        np.testing.assert_allclose(ctrl._warm_x, fresh.x, rtol=0, atol=1e-9)
        if variant == "kf_mpc":  # the plan predicts from the current state
            np.testing.assert_allclose(
                res.y_f, ctrl.H @ res.u_f + ctrl.Gamma @ ctrl.x_hat,
                rtol=0, atol=1e-12)
        if res.qp_status == QpStatus.SOLVED:
            assert _solved_within_solver_tolerance(prob, ctrl._warm_x,
                                                   ctrl._warm_y, st)
        ctrl.observe(res.u_applied, part.Y_f[:1, t])
    # a record answers by the eighth step, so one is held for the last
    # three steps at least
    assert "record" in paths[:8]

    step = ctrl.step
    seen = []

    def recording(z_p, r_f):
        y_prev = None if ctrl._warm_y is None else ctrl._warm_y.copy()
        prob = ctrl.condense(z_p, r_f)
        res = step(z_p, r_f)
        held = (res.u_f.copy(), res.y_f.copy(), res.u_applied.copy(),
                res.qp_status, res.primal_res, res.dual_res)
        warm = (ctrl._warm_x, ctrl._warm_y)
        seen.append((prob, y_prev, res, held, warm,
                     [w.copy() for w in warm]))
        return res

    ctrl.step = recording
    reference = np.where(np.arange(12) < 6, 1.0, -0.5)[None, :]
    rollout = run_receding_horizon(demo_model(sigma_e=0.1), ctrl, reference,
                                   12, rng=seeded(146))
    assert [s[2] for s in seen] == rollout.steps
    for prob, y_prev, res, held, warm, warm_then in seen:
        u_f, y_f, u_applied, status, r_prim, r_dual = held
        assert np.array_equal(res.u_f, u_f) and np.array_equal(res.y_f, y_f)
        assert np.array_equal(res.u_applied, u_applied)
        assert (res.qp_status, res.primal_res,
                res.dual_res) == (status, r_prim, r_dual)
        for now, then in zip(warm, warm_then):
            assert np.array_equal(now, then)
        x, y = warm_then
        fresh = qp_solve(prob, y0=y_prev)
        assert status == fresh.status
        np.testing.assert_allclose(x, fresh.x, rtol=0, atol=1e-9)
        if status == QpStatus.SOLVED:
            assert _solved_within_solver_tolerance(prob, x, y, st)
            assert max(r_prim, r_dual) <= st.eps_abs + st.eps_rel * 1e3


@pytest.mark.parametrize("variant", VARIANTS)
def test_table1_step_results_survive_the_rollout(variant, monkeypatch):
    """A table1 rollout (seed 0, with the penalties that perfbench gives
    ``gamma`` and ``projreg_g``), whose steps miss and hit the solver's
    record: once it has returned, every ``StepResult`` still holds the
    ``u_f``, ``y_f`` and ``u_applied`` that its step returned, bit for
    bit, so no vector the solver writes in place is one of them."""
    cfg = load_config(bundled_config_path("table1"))
    cfg = (cfg.with_controller_params("gamma", mu=1e3)
           .with_controller_params(
               "projreg_g", mu=cfg.controller_params["reg_gamma"]["mu"]))
    build, held = bench.make_controller, []

    def make(spec, **handles):
        ctrl = build(spec, **handles)
        step = ctrl.step

        def copying(z_p, r_f):
            res = step(z_p, r_f)
            held.append((res, res.u_f.copy(), res.y_f.copy(),
                         res.u_applied.copy()))
            return res

        ctrl.step = copying
        return ctrl

    monkeypatch.setattr(bench, "make_controller", make)
    rollout, _ = bench.run_single(cfg, variant, 0)
    assert [h[0] for h in held] == rollout.steps
    paths = {s.qp_path for s in rollout.steps}
    assert "record" in paths and paths - {"record"}
    for res, *copies in held:
        for now, then in zip((res.u_f, res.y_f, res.u_applied), copies):
            assert now.tobytes() == then.tobytes()


def test_cached_set_that_stops_certifying_goes_to_the_corrections():
    """A reference jump drives the plan into an output bound that the
    cached set leaves free: the map's answer fails the test, the
    corrections start from it and find the new set, and the step matches
    a cold solve.
    ``reset`` and a finished rollout leave no map behind."""
    ctrl = make_controller(_spec("causal_gamma", u_box=2.0, y_box=1.0),
                           part=_noisy_part())
    z = _sample_zp()
    for _ in range(3):
        res = ctrl.step(z, np.zeros(L_F))
    assert (res.qp_path, res.qp_sets) == ("record", 0)
    r_jump = np.full(L_F, 3.0)
    res = ctrl.step(z, r_jump)
    prob = ctrl.condense(z, r_jump)
    cold = qp_solve(prob)
    assert res.qp_status == cold.status == QpStatus.SOLVED
    # corrected from the rejected record answer's own y and t: two sets,
    # with no second solve of the record's set
    assert (res.qp_path, res.qp_sets) == ("corrected", 2)
    np.testing.assert_allclose(ctrl._warm_x, cold.x, rtol=0, atol=1e-9)
    y_rows = slice(L_F, 2 * L_F)  # below the input rows
    assert np.isclose(prob.A[y_rows] @ cold.x, prob.upper[y_rows]).any()
    ctrl.reset()
    assert ctrl.solver._map is None
    rollout = run_receding_horizon(demo_model(sigma_e=0.1), ctrl,
                                   np.zeros((1, 12)), 12, rng=seeded(145))
    assert any(s.qp_path == "record" for s in rollout.steps)
    assert ctrl.solver._map is None


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
    part = _noisy_part()
    prob = make_controller(_spec(variant, mu=mu, lam=lam, gamma3_zero=g3),
                           part=part).condense(_sample_zp())
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
    """The rows are ``[Fu; Fy]`` whichever boxes are bounded.  An open
    box's rows carry ``-inf``/``+inf`` bounds, and no step, cold or warm,
    holds them at a bound: their multipliers stay zero, while a bounded
    input box is held."""
    part = _noisy_part()
    z = _sample_zp()
    for u_box, y_box in ((1.0, 2.0), (1.0, np.inf), (np.inf, np.inf)):
        ctrl = make_controller(_spec("spc", u_box=u_box, y_box=y_box),
                               part=part)
        prob = ctrl.condense(z)
        assert prob.A.shape[0] == 2 * L_F
        np.testing.assert_array_equal(prob.A, np.vstack([ctrl.Fu, ctrl.Fy]))
        for rows, box in ((slice(0, L_F), u_box), (slice(L_F, None), y_box)):
            open_rows = np.isinf(prob.lower[rows]) & np.isinf(prob.upper[rows])
            assert open_rows.all() == np.isinf(box) == open_rows.any()
        unbounded = np.isinf(prob.upper)
        for r in (0.0, 3.0, 3.0, -3.0):
            res = ctrl.step(z, np.full(L_F, r))
            assert res.qp_status == QpStatus.SOLVED
            assert (ctrl._warm_y[unbounded] == 0.0).all()
        assert (ctrl._warm_y[:L_F] != 0.0).any() == np.isfinite(u_box)


def test_condense_consistent_with_step():
    """Solving the materialized QP externally reproduces the step's plan
    (for the input-coordinate variants the decision is u_f itself)."""
    part = _noisy_part()
    z = _sample_zp()
    spec = _spec("spc", u_box=0.4)
    res = make_controller(spec, part=part).step(z)
    sol = qp_solve(make_controller(spec, part=part).condense(z))
    np.testing.assert_allclose(res.u_f, sol.x, atol=1e-7)


# ---------------------------------------------------------------------------
# analytic unconstrained solutions
# ---------------------------------------------------------------------------


def test_spc_zero_reference_zero_past_gives_zero():
    part = _noisy_part()
    res = make_controller(_spec("spc"), part=part).step(
        np.zeros(part.Z_p.shape[0]))
    np.testing.assert_allclose(res.u_f, 0.0, atol=1e-9)
    np.testing.assert_allclose(res.y_f, 0.0, atol=1e-9)
    assert res.qp_status == QpStatus.SOLVED


def test_spc_unconstrained_matches_least_squares():
    part = _noisy_part()
    z = _sample_zp()
    ref = sine_reference(10.0, 1.0, L_F)[0]
    spec = _spec("spc", u_box=np.inf)
    res = make_controller(spec, part=part).step(z, ref)
    pred = fit_spc(part)
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
    spec = _spec("kf_mpc", u_box=np.inf)
    ctrl = make_controller(spec, model=model)
    ctrl.x_hat = x_hat
    res = ctrl.step(r_f=ref)
    Gamma, H = kf_predictor_matrices(model, L_F)
    Q, R = spec.cost.Q, spec.cost.R
    u_ref = np.linalg.solve(H.T @ Q @ H + R,
                            -H.T @ Q @ (Gamma @ x_hat - ref))
    np.testing.assert_allclose(res.u_f, u_ref, atol=1e-6)


def test_active_box_clips_inputs():
    part = _noisy_part()
    z = _sample_zp()
    ref = 2.0 * np.ones(L_F)
    spec = _spec("spc", u_box=0.3)
    res = make_controller(spec, part=part).step(z, ref)
    assert res.qp_status == QpStatus.SOLVED
    assert np.abs(res.u_f).max() <= 0.3 + 1e-7
    assert np.any(np.abs(np.abs(res.u_f) - 0.3) < 1e-6)  # actually binding


# ---------------------------------------------------------------------------
# variant equivalences (small instances)
# ---------------------------------------------------------------------------


def test_gamma_large_mu_approaches_spc():
    part = _noisy_part()
    blocks = factorize(part)
    z = _sample_zp()
    ref = sine_reference(12.0, 1.5, L_F)[0]
    res_g = make_controller(_spec("gamma", mu=1e10, u_box=0.5),
                            blocks=blocks).step(z, ref)
    res_s = make_controller(_spec("spc", u_box=0.5),
                            part=part).step(z, ref)
    assert np.any(np.abs(np.abs(res_g.u_f) - 0.5) < 1e-5)  # box active
    np.testing.assert_allclose(res_g.u_f, res_s.u_f, atol=1e-4)
    np.testing.assert_allclose(res_g.y_f, res_s.y_f, atol=1e-4)


def test_gamma_hard_zero_matches_large_mu():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    hard = make_controller(_spec("gamma", gamma3_zero=True),
                           blocks=blocks).step(z, ref)
    soft = make_controller(_spec("gamma", mu=1e12),
                           blocks=blocks).step(z, ref)
    np.testing.assert_allclose(hard.u_f, soft.u_f, atol=1e-5)


def test_causal_gamma_matches_causal_spc():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    res_g = make_controller(_spec("causal_gamma", u_box=0.5),
                            blocks=blocks).step(z, ref)
    res_s = make_controller(_spec("causal_spc", u_box=0.5),
                            blocks=blocks).step(z, ref)
    np.testing.assert_allclose(res_g.u_f, res_s.u_f, atol=1e-6)
    np.testing.assert_allclose(res_g.y_f, res_s.y_f, atol=1e-6)


def test_gamma_matches_raw_coordinate_program():
    model = demo_model(sigma_e=0.2)
    part = make_partition(model, 120, L_P, L_F, seeded(134))
    blocks = factorize(part)
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    for mu in (0.1, 1.0, 10.0):
        res_g = make_controller(_spec("gamma", mu=mu),
                                blocks=blocks).step(z, ref)
        res_p = make_controller(_spec("projreg_g", mu=mu),
                                part=part).step(z, ref)
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
    res_rc = make_controller(_spec("reg_causal_gamma", mu=1.0, lam=0.5),
                             blocks=degenerate).step(z, ref)
    res_g = make_controller(_spec("gamma", mu=1.0),
                            blocks=degenerate).step(z, ref)
    np.testing.assert_allclose(res_rc.u_f, res_g.u_f, atol=1e-6)


def test_reg_causal_large_penalties_approach_causal_gamma():
    blocks = _noisy_blocks()
    z = _sample_zp()
    ref = sine_reference(12.0, 1.0, L_F)[0]
    res_rc = make_controller(_spec("reg_causal_gamma", mu=1e10, lam=1e10),
                             blocks=blocks).step(z, ref)
    res_c = make_controller(_spec("causal_gamma"),
                            blocks=blocks).step(z, ref)
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
    part = _noisy_part(tag=tag, sigma=max(sigma, 0.05))
    ctrl = make_controller(controller_spec, part=part)
    ref = sine_reference(20.0, 1.0, n_steps)
    return run_receding_horizon(model, ctrl, ref, n_steps,
                                rng=seeded(138, tag), **kwargs)


def test_rollout_calls_the_step_assigned_on_the_instance():
    """A step assigned on the controller instance, as a timing wrapper
    assigns it, is what the loop calls: once per move."""
    ctrl = make_controller(_spec("causal_gamma"), part=_noisy_part())
    step, calls = ctrl.step, []

    def counting(z_p, r_f):
        calls.append(len(z_p))
        return step(z_p, r_f)

    ctrl.step = counting
    n_steps = 17
    res = run_receding_horizon(demo_model(sigma_e=0.1), ctrl,
                               sine_reference(20.0, 1.0, n_steps), n_steps,
                               rng=seeded(138, 0))
    assert calls == [2 * L_P] * n_steps
    assert len(res.steps) == n_steps


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
    part = _noisy_part()
    ref_short = sine_reference(20.0, 1.0, n_steps)
    ref_long = np.hstack([ref_short,
                          np.repeat(ref_short[:, -1:], L_F, axis=1)])
    a = run_receding_horizon(model, make_controller(_spec("spc"), part=part),
                             ref_short, n_steps, rng=seeded(139))
    b = run_receding_horizon(model, make_controller(_spec("spc"), part=part),
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
    part = _noisy_part()
    with pytest.raises(DimensionMismatch):
        run_receding_horizon(demo_model(), make_controller(spec, part=part),
                             np.zeros((1, 10)), 10,
                             warmup_inputs=np.ones((1, L_P + 1)))


def test_rollout_bitwise_determinism():
    a = _rollout(_spec("gamma", mu=10.0, u_box=1.0), tag=3)
    b = _rollout(_spec("gamma", mu=10.0, u_box=1.0), tag=3)
    np.testing.assert_array_equal(a.trajectory.outputs,
                                  b.trajectory.outputs)
    np.testing.assert_array_equal(a.trajectory.inputs, b.trajectory.inputs)
    assert a.J == b.J


def test_rollout_status_aggregates_worst_step(monkeypatch):
    # An output box that no input in [-1, 1] can reach: no active set is
    # certified, so every step falls back to the starved ADMM.
    monkeypatch.setattr(qp_module, "_MAX_ITER", 2)
    part = _noisy_part()
    unreachable = BoxConstraints(u_lower=[-1.0], u_upper=[1.0],
                                 y_lower=[100.0], y_upper=[200.0])
    spec = ControllerSpec(variant="spc", cost=_cost(), boxes=unreachable)
    starved = make_controller(spec, part=part)
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


def _per_step_loop(plant, ctrl, reference, n_steps, rng=None,
                   warmup_inputs=None):
    """The receding-horizon loop over history lists, ``stack_window`` and
    ``step_model``, with the cost summed move by move.  Returns the
    applied inputs, the measured outputs, ``J_y`` and ``J_u``."""
    m, p, L_p, L_f = ctrl.m, ctrl.p, ctrl.L_p, ctrl.L_f
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    total = n_steps + L_f
    if ref.shape[1] < total:
        ref = np.hstack([ref, np.repeat(ref[:, -1:], total - ref.shape[1],
                                        axis=1)])
    warmup = (np.zeros((m, L_p)) if warmup_inputs is None
              else np.atleast_2d(warmup_inputs))
    if plant.sigma_e > 0.0 and rng is not None:
        innov = plant.sigma_e * rng.standard_normal((p, L_p + n_steps))
    else:
        innov = np.zeros((p, L_p + n_steps))

    def check(y, t):
        if not np.all(np.abs(y) < DIVERGENCE_LIMIT):
            raise Diverged(f"output magnitude exceeded {DIVERGENCE_LIMIT:g} "
                           f"at step {t}")

    ctrl.reset()
    x = np.zeros(plant.n)
    u_hist, y_hist = [], []
    for t in range(L_p):
        u_t = warmup[:, t]
        x, y_t = step_model(plant, x, u_t, innov[:, t])
        check(y_t, t - L_p)
        u_hist.append(u_t.copy())
        y_hist.append(y_t)
        ctrl.observe(u_t, y_t)
    us, ys, J_y, J_u = [], [], 0.0, 0.0
    for t in range(n_steps):
        z_p = (np.concatenate(u_hist[-L_p:] + y_hist[-L_p:]) if L_p > 0
               else np.zeros(0))
        res = ctrl.step(z_p, stack_window(ref[:, t:t + L_f]))
        u_t = res.u_applied
        x, y_t = step_model(plant, x, u_t, innov[:, L_p + t])
        check(y_t, t)
        ctrl.observe(u_t, y_t)
        u_hist.append(u_t)
        y_hist.append(y_t)
        err = y_t - ref[:, t]
        J_y += float(err @ ctrl.cost.q_step @ err)
        J_u += float(u_t @ ctrl.cost.r_step @ u_t)
        us.append(u_t)
        ys.append(y_t)
    ctrl.reset()
    return np.array(us).T, np.array(ys).T, J_y, J_u


def test_rollout_rejects_bad_inputs_before_the_warm_up():
    """A bad ``n_steps``, ``reference`` or ``warmup_inputs`` raises a
    ValueError that names it before the plant moves; a reference is read
    only as far as the look-ahead of the last move."""
    ctrl = make_controller(_spec("spc"), part=_noisy_part())
    observed = []
    ctrl.observe = lambda u, y: observed.append(u)
    plant = demo_model(sigma_e=0.1)
    ref = np.zeros((1, 10))
    for n_steps in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="n_steps"):
            run_receding_horizon(plant, ctrl, ref, n_steps, rng=seeded(146))
    for bad in (np.nan, np.inf):
        spoiled = ref.copy()
        spoiled[0, 9] = bad  # held as the look-ahead beyond the end
        with pytest.raises(ValueError, match="reference"):
            run_receding_horizon(plant, ctrl, spoiled, 10)
        warm = np.zeros((1, L_P))
        warm[0, 1] = bad
        with pytest.raises(ValueError, match="warmup_inputs"):
            run_receding_horizon(plant, ctrl, ref, 10, warmup_inputs=warm)
    with pytest.raises(DimensionMismatch, match="reference"):
        run_receding_horizon(plant, ctrl, np.zeros((2, 10)), 10)
    assert observed == []
    unread = np.zeros((1, 30))
    unread[0, 20:] = np.nan  # beyond n_steps + L_f
    res = run_receding_horizon(plant, ctrl, unread, 10)
    assert len(res.steps) == 10 and len(observed) == L_P + 10


def _mimo_case():
    plant = random_model(seeded(150), n=3, m=2, p=2, sigma_e=0.1)
    cost = CostSpec(q_step=np.eye(2), r_step=0.05 * np.eye(2), L_f=4)
    boxes = BoxConstraints(u_lower=[-0.5, -0.5], u_upper=[0.5, 0.5],
                           y_lower=[-np.inf] * 2, y_upper=[np.inf] * 2)
    spec = ControllerSpec(variant="reg_causal_gamma", cost=cost,
                          boxes=boxes, mu=1.0, lam=1.0)
    part = make_partition(plant, 200, 3, 4, seeded(151))
    return plant, make_controller(spec, part=part), seeded(153).uniform(
        -1.0, 1.0, (2, 3))


def _kf_case():
    plant = demo_model(sigma_e=0.1)
    return plant, make_controller(_spec("kf_mpc"), model=plant), None


@pytest.mark.parametrize("case", [_mimo_case, _kf_case],
                         ids=["mimo", "kf_mpc_without_L_p"])
def test_rollout_windows_equal_list_built_windows(case):
    """Each ``z_p`` and ``r_f`` the loop passes to ``step`` equals the
    window built from the lists of all observed inputs and outputs, and
    ``stack_window`` of the padded reference."""
    plant, ctrl, warm = case()
    L_p, L_f = ctrl.L_p, ctrl.L_f
    step, observe = ctrl.step, ctrl.observe
    windows, observed = [], []

    def recording_step(z_p, r_f):
        windows.append((z_p.copy(), r_f.copy()))
        return step(z_p, r_f)

    def recording_observe(u, y):
        observed.append((np.array(u), np.array(y)))
        observe(u, y)

    ctrl.step, ctrl.observe = recording_step, recording_observe
    n_steps = 15
    ref = sine_reference(9.0, 0.8, n_steps + 1, p=ctrl.p)
    res = run_receding_horizon(plant, ctrl, ref, n_steps, rng=seeded(152),
                               warmup_inputs=warm)
    padded = np.hstack([ref, np.repeat(ref[:, -1:], L_f - 1, axis=1)])
    assert len(windows) == n_steps and len(observed) == L_p + n_steps
    for t, (z_p, r_f) in enumerate(windows):
        past = observed[t:L_p + t]
        old = (np.concatenate([u for u, _ in past] + [y for _, y in past])
               if L_p > 0 else np.zeros(0))
        np.testing.assert_array_equal(z_p, old)
        np.testing.assert_array_equal(r_f, stack_window(padded[:, t:t + L_f]))
    np.testing.assert_array_equal(
        np.array([u for u, _ in observed[L_p:]]).T, res.trajectory.inputs)
    np.testing.assert_array_equal(
        np.array([y for _, y in observed[L_p:]]).T, res.trajectory.outputs)
    if warm is not None:
        np.testing.assert_array_equal(
            np.array([u for u, _ in observed[:L_p]]).T, warm)


@pytest.mark.parametrize("wrapped", [True, False],
                         ids=["nonlinear_wrapper", "lti"])
def test_rollout_equals_a_per_step_loop(wrapped):
    """A wrapped plant moves by ``step_model`` in both loops, so they agree
    bit for bit; an LTI plant moves by one stacked product, which agrees
    with ``step_model`` to round-off."""
    base = demo_model(sigma_e=0.1)
    plant = NonlinearWrapper(base, eps=0.3) if wrapped else base
    ref = square_wave(16, 1.0, 40)[None, :]
    warm = np.full((1, L_P), 0.3)
    runs = []
    for loop in (run_receding_horizon, _per_step_loop):
        ctrl = make_controller(_spec("causal_gamma", u_box=1.0),
                               part=_noisy_part())
        runs.append(loop(plant, ctrl, ref, 40, rng=seeded(147),
                         warmup_inputs=warm))
    res, (us, ys, J_y, J_u) = runs
    if wrapped:
        np.testing.assert_array_equal(res.trajectory.inputs, us)
        np.testing.assert_array_equal(res.trajectory.outputs, ys)
        assert (res.J_y, res.J_u) == (J_y, J_u)
    else:
        np.testing.assert_allclose(res.trajectory.inputs, us, rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(res.trajectory.outputs, ys, rtol=1e-9,
                                   atol=1e-12)
        assert res.J_y == pytest.approx(J_y, rel=1e-9)
        assert res.J_u == pytest.approx(J_u, rel=1e-9)


def test_divergence_names_the_step_of_the_per_step_loop():
    """In the closed loop and in the warm-up (negative steps), the loop
    raises at the step the per-step loop does, with its message."""
    model = demo_model(sigma_e=0.1)
    wrong = StateSpaceModel(A=model.A, B=-model.B, C=model.C, D=-model.D,
                            K=model.K, sigma_e=model.sigma_e)
    unstable = StateSpaceModel(A=[[3.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                               K=[[0.0]])
    cases = [(model, dict(model=wrong, L_p=L_P), None),
             (unstable, dict(model=unstable, L_p=L_P),
              np.full((1, L_P), 1e5))]
    for plant, handles, warm in cases:
        messages = []
        for loop in (run_receding_horizon, _per_step_loop):
            ctrl = make_controller(_spec("kf_mpc", u_box=np.inf), **handles)
            with pytest.raises(Diverged) as caught:
                loop(plant, ctrl, sine_reference(20.0, 1.0, 200), 200,
                     rng=seeded(141), warmup_inputs=warm)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("output magnitude exceeded 1e+06 at")
    assert messages[0].endswith("at step -1")
