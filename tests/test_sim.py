"""Plant simulators, excitation signals, and data-collection loops.

Covers:
  * single-step updates of the innovation-form plant against hand
    arithmetic and a 100-step rollout against a loop-built oracle.
  * the static-nonlinearity wrapper: exact reduction to the linear core
    at eps = 0, the distortion formulas at eps = 1, equilibrium
    preservation, and output continuity in eps.
  * excitation generators: square wave layout, sine reference, random
    steps (hold structure, bounds), multisine (peak normalization,
    determinism, persistency at deep windows).
  * open-loop collection (noise-free determinism, innovation whiteness
    of the logged data, channel checks; bitwise equality with a
    per-sample ``step_model`` loop on the bundled plants at 600 and
    5000 samples, and of a zero-eps wrapper with its base; round-off
    agreement on a MIMO plant and, as a hypothesis property, with the
    ``lti_loop`` oracle on random stable plants; a one-sample record,
    divergence naming the loop's step without a floating-point warning,
    and a non-finite input named by channel and sample) and closed-loop
    collection (zero fixed point, the bundled PI loop, a 2x2
    multivariable feedback example, divergence detection, a non-finite
    setpoint named by channel and sample), and the per-move divergence
    test of one output row.
  * observer decay of the benchmark model over the past window.
  * keyed counter-based RNG streams.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import A2, B2, C2, D2, K2, demo_model, random_model, seeded
from oracles import lti_loop

from ddpc import (
    DimensionMismatch,
    Diverged,
    LinearFeedbackController,
    NonlinearWrapper,
    StateSpaceModel,
    build_hankel,
    collect_closed_loop,
    collect_open_loop,
    load_config,
    multisine,
    random_steps,
    rng_for,
    sine_reference,
    square_wave,
    step_lti,
    step_model,
    step_nonlinear,
)
from ddpc.sim import _check_sane

# a fixed number of derandomized examples, with no example database,
# keeps the property's tier-1 time well under 1 s
_PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                     deadline=None)


# ---------------------------------------------------------------------------
# step_lti
# ---------------------------------------------------------------------------


def test_step_from_rest_with_unit_input():
    model = demo_model()
    x_next, y = step_lti(model, np.zeros(2), np.array([1.0]), np.zeros(1))
    assert y[0] == pytest.approx(1.0)          # y = C*0 + D*1
    np.testing.assert_allclose(x_next, B2[:, 0])


def test_step_zero_everything():
    model = demo_model()
    x_next, y = step_lti(model, np.zeros(2), np.zeros(1), np.zeros(1))
    np.testing.assert_array_equal(x_next, np.zeros(2))
    np.testing.assert_array_equal(y, np.zeros(1))


def test_step_matches_hand_formula():
    model = demo_model()
    rng = seeded(100)
    x = rng.standard_normal(2)
    u = rng.standard_normal(1)
    e = rng.standard_normal(1)
    x_next, y = step_lti(model, x, u, e)
    np.testing.assert_allclose(y, C2 @ x + D2 @ u + e)
    np.testing.assert_allclose(x_next, A2 @ x + B2 @ u + K2 @ e)


def test_hundred_step_rollout_matches_loop_oracle():
    model = random_model(seeded(101), n=4, m=2, p=2, sigma_e=0.2)
    rng = seeded(102)
    U = rng.standard_normal((2, 100))
    E = 0.2 * rng.standard_normal((2, 100))
    x = np.zeros(4)
    Y = np.empty((2, 100))
    for t in range(100):
        x, Y[:, t] = step_lti(model, x, U[:, t], E[:, t])
    _, Y_ref = lti_loop(model.A, model.B, model.C, model.D, model.K,
                        np.zeros(4), U, E)
    np.testing.assert_array_equal(Y, Y_ref)


# ---------------------------------------------------------------------------
# step_nonlinear
# ---------------------------------------------------------------------------


def test_wrapper_reduces_to_linear_at_zero_eps():
    model = demo_model()
    wrapper = NonlinearWrapper(base=model, eps=0.0)
    rng = seeded(103)
    x = rng.standard_normal(2)
    u = rng.standard_normal(1)
    e = rng.standard_normal(1)
    np.testing.assert_array_equal(np.concatenate(step_nonlinear(wrapper, x, u, e)),
                                  np.concatenate(step_lti(model, x, u, e)))


def test_wrapper_distortion_formulas_at_full_eps():
    wrapper = NonlinearWrapper(base=demo_model(), eps=1.0)
    u = np.array([0.1])
    np.testing.assert_allclose(wrapper.input_map(u),
                               np.sin(0.1) + 2.0 * 0.1 ** 3)
    x = np.array([0.5, -2.0])
    np.testing.assert_allclose(wrapper.state_map(x),
                               [0.5 * 0.5 ** 3, 0.5 * (-2.0) ** 3])
    # with unit feedthrough and zero state, the output reads the
    # distorted input directly
    _, y = step_nonlinear(wrapper, np.zeros(2), u, np.zeros(1))
    assert y[0] == pytest.approx(np.sin(0.1) + 2e-3)


def test_wrapper_preserves_origin():
    wrapper = NonlinearWrapper(base=demo_model(), eps=0.7)
    x_next, y = step_nonlinear(wrapper, np.zeros(2), np.zeros(1), np.zeros(1))
    np.testing.assert_array_equal(x_next, np.zeros(2))
    np.testing.assert_array_equal(y, np.zeros(1))


def test_wrapper_eps_validation():
    with pytest.raises(ValueError):
        NonlinearWrapper(base=demo_model(), eps=-0.1)
    with pytest.raises(ValueError):
        NonlinearWrapper(base=demo_model(), eps=1.5)


def test_outputs_continuous_in_eps():
    """Small distortions perturb the open-loop response monotonically on a
    small eps grid (same input, no noise)."""
    model = demo_model(sigma_e=0.0)
    u = 0.5 * np.sin(2 * np.pi * np.arange(80) / 20.0)[None, :]
    y0 = collect_open_loop(NonlinearWrapper(model, 0.0), u).outputs
    devs = []
    for eps in (0.0, 0.05, 0.1):
        y = collect_open_loop(NonlinearWrapper(model, eps), u).outputs
        devs.append(float(np.abs(y - y0).max()))
    assert devs[0] == 0.0
    assert devs[0] < devs[1] < devs[2]
    assert devs[2] < 0.5   # still a small perturbation, not a regime change


# ---------------------------------------------------------------------------
# excitation signals
# ---------------------------------------------------------------------------


def test_square_wave_layout():
    np.testing.assert_array_equal(square_wave(4, 1.0, 6),
                                  [1.0, 1.0, -1.0, -1.0, 1.0, 1.0])


def test_square_wave_zero_mean_over_periods():
    sig = square_wave(10, 3.0, 200)
    assert sig.sum() == pytest.approx(0.0)
    assert set(np.unique(sig)) == {-3.0, 3.0}


def test_sine_reference_values_and_shape():
    ref = sine_reference(period=8.0, amplitude=2.0, length=16, p=3)
    assert ref.shape == (3, 16)
    np.testing.assert_allclose(ref[0, 1], 2.0 * np.sin(2 * np.pi * 2 / 8.0))
    np.testing.assert_array_equal(ref[0], ref[2])


def test_random_steps_structure():
    sig = random_steps(seeded(104), amplitude=1.5, hold=7, length=50, m=2)
    assert sig.shape == (2, 50)
    assert np.abs(sig).max() <= 1.5
    for seg in range(50 // 7):
        block = sig[:, seg * 7:(seg + 1) * 7]
        assert np.all(block == block[:, :1])   # constant within a hold
    again = random_steps(seeded(104), amplitude=1.5, hold=7, length=50, m=2)
    np.testing.assert_array_equal(sig, again)


def test_multisine_peak_and_determinism():
    sig = multisine(amplitude=2.5, n_freqs=15, length=300, m=2)
    assert sig.shape == (2, 300)
    assert np.abs(sig).max() == pytest.approx(2.5)
    np.testing.assert_array_equal(
        sig, multisine(amplitude=2.5, n_freqs=15, length=300, m=2))


def test_multisine_is_persistently_exciting_at_depth():
    sig = multisine(amplitude=1.0, n_freqs=25, length=200)
    # persistently exciting of order 40: the depth-40 Hankel matrix has
    # full row rank (singular values above a 1e-10 relative cutoff)
    H = build_hankel(sig, 40)
    sv = np.linalg.svd(H, compute_uv=False)
    assert H.shape[0] <= H.shape[1] and sv[-1] > 1e-10 * sv[0]


# ---------------------------------------------------------------------------
# collect_open_loop
# ---------------------------------------------------------------------------


def test_open_loop_noise_free_matches_oracle():
    model = demo_model(sigma_e=0.0)
    u = square_wave(20, 1.0, 60)[None, :]
    traj = collect_open_loop(model, u)
    _, Y = lti_loop(A2, B2, C2, D2, K2, np.zeros(2), u, np.zeros((1, 60)))
    np.testing.assert_allclose(traj.outputs, Y, atol=1e-12)
    np.testing.assert_array_equal(traj.inputs, u)


def test_open_loop_seeded_repeatability():
    model = demo_model(sigma_e=0.3)
    u = square_wave(20, 1.0, 80)
    t1 = collect_open_loop(model, u, rng=rng_for(9, 1))
    t2 = collect_open_loop(model, u, rng=rng_for(9, 1))
    np.testing.assert_array_equal(t1.outputs, t2.outputs)
    t3 = collect_open_loop(model, u, rng=rng_for(9, 2))
    assert np.abs(t1.outputs - t3.outputs).max() > 1e-3


def test_open_loop_sigma_override():
    model = demo_model(sigma_e=0.3)
    u = square_wave(20, 1.0, 40)
    silent = collect_open_loop(model, u, rng=rng_for(10), sigma_e=0.0)
    clean = collect_open_loop(demo_model(sigma_e=0.0), u)
    np.testing.assert_allclose(silent.outputs, clean.outputs, atol=1e-12)


def test_open_loop_channel_mismatch():
    with pytest.raises(DimensionMismatch):
        collect_open_loop(demo_model(), np.zeros((2, 30)))


def _step_loop(plant, u, e) -> tuple[np.ndarray, int | None]:
    """Per-sample reference: ``step_model`` from rest, stopping at the
    first output of magnitude 1e6 or more; returns the outputs and that
    step (None if there is none)."""
    x = np.zeros(plant.n)
    y = np.empty((plant.p, u.shape[1]))
    for t in range(u.shape[1]):
        x, y[:, t] = step_model(plant, x, u[:, t], e[:, t])
        if not np.all(np.abs(y[:, t]) < 1e6):
            return y, t
    return y, None


def _noise(plant, tag: int, n: int) -> np.ndarray:
    # the draw collect_open_loop makes from rng=seeded(tag)
    return plant.sigma_e * seeded(tag).standard_normal((plant.p, n))


@pytest.mark.parametrize("name,n_d,sigma_e", [
    pytest.param("table1", 600, 0.3, id="table1"),
    pytest.param("nonlinear_fig2", 600, 0.3, id="nonlinear_fig2"),
    pytest.param("table1", 5000, 0.3, id="table1-5000"),
    # at sigma_e 0.3 the cubic state map leaves its stable region within
    # 5000 samples; 0.05 is the config's largest swept level
    pytest.param("nonlinear_fig2", 5000, 0.05, id="nonlinear_fig2-5000"),
])
def test_open_loop_bitwise_equals_per_sample_loop(name, n_d, sigma_e):
    # the bundled plants have n = 2, so the product [A I I] row rounds as
    # A x + B u + K e, and every batched product is exact: inner
    # dimension 1, or one nonzero term (c = [0 1.4142]); 5000 is
    # identify_long's record length
    cfg = load_config(name)
    plant = cfg.plant(sigma_e=sigma_e)
    u = cfg.excitation(n_d, rng=seeded(111))
    traj = collect_open_loop(plant, u, rng=seeded(112))
    y, diverged_at = _step_loop(plant, np.atleast_2d(u),
                                _noise(plant, 112, n_d))
    assert diverged_at is None
    np.testing.assert_array_equal(traj.outputs, y)
    np.testing.assert_array_equal(traj.inputs, np.atleast_2d(u))


def test_open_loop_wrapper_at_zero_eps_equals_its_base():
    """The wrapper's loop and the linear loop collect the same bits when
    the distortion is the identity (the bundled plants share one core)."""
    base = load_config("table1").plant(sigma_e=0.3)
    u = seeded(118).standard_normal((1, 600))
    traj = collect_open_loop(base, u, rng=seeded(119))
    wrapped = collect_open_loop(NonlinearWrapper(base, eps=0.0), u,
                                rng=seeded(119))
    np.testing.assert_array_equal(wrapped.outputs, traj.outputs)


@_PROPERTY
@given(n=st.integers(1, 6), m=st.integers(1, 3), p=st.integers(1, 3),
       n_d=st.integers(1, 200), noisy=st.booleans(),
       seed=st.integers(0, 2**16))
def test_open_loop_agrees_with_the_loop_oracle(n, m, p, n_d, noisy, seed):
    """On random stable plants, the record agrees with ``lti_loop`` to
    round-off (bit for bit only where each product is exact)."""
    plant = random_model(rng_for(0x51, seed), n=n, m=m, p=p,
                         sigma_e=0.3 if noisy else 0.0)
    u = rng_for(0x52, seed).standard_normal((m, n_d))
    traj = collect_open_loop(plant, u, rng=rng_for(0x53, seed))
    E = plant.sigma_e * rng_for(0x53, seed).standard_normal((p, n_d))
    _, y = lti_loop(plant.A, plant.B, plant.C, plant.D, plant.K,
                    np.zeros(n), u, E)
    np.testing.assert_allclose(traj.outputs, y, rtol=1e-12,
                               atol=1e-12 * np.abs(y).max())


def test_open_loop_mimo_agrees_with_per_sample_loop():
    plant = random_model(seeded(113), n=4, m=2, p=2, sigma_e=0.2)
    u = seeded(114).standard_normal((2, 600))
    traj = collect_open_loop(plant, u, rng=seeded(115))
    y, _ = _step_loop(plant, u, _noise(plant, 115, 600))
    np.testing.assert_allclose(traj.outputs, y, rtol=1e-12,
                               atol=1e-12 * np.abs(y).max())


def test_open_loop_single_sample_record():
    plant = demo_model(sigma_e=0.3)
    traj = collect_open_loop(plant, np.array([[0.7]]), rng=seeded(116))
    _, y = step_model(plant, np.zeros(2), np.array([0.7]),
                      _noise(plant, 116, 1)[:, 0])
    assert traj.outputs.shape == (1, 1)
    np.testing.assert_array_equal(traj.outputs[:, 0], y)


def _unstable_lti():
    # growing rotation: the state overflows to +-inf and then nan
    return StateSpaceModel(A=[[1.5, 0.4], [-0.4, 1.5]], B=[[1.0], [0.0]],
                           C=[[0.0, 1.0]], D=[[0.0]], K=[[0.1], [0.1]],
                           sigma_e=0.1)


@pytest.mark.parametrize("plant,amplitude", [
    (_unstable_lti(), 1.0),
    (NonlinearWrapper(demo_model(sigma_e=0.1), eps=0.5), 60.0),
], ids=["unstable-lti", "nonlinear-large-input"])
def test_open_loop_divergence_names_the_loops_step(plant, amplitude):
    u = square_wave(50, amplitude, 2000)[None, :]
    _, step = _step_loop(plant, u, _noise(plant, 117, 2000))
    assert step is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Diverged, match=rf"at step {step}$"):
            collect_open_loop(plant, u, rng=seeded(117))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_open_loop_names_a_non_finite_input(bad):
    u = np.zeros((2, 40))
    u[1, 20] = bad
    u[0, 30] = np.nan
    plant = random_model(seeded(120), n=2, m=2, p=1, sigma_e=0.1)
    with pytest.raises(ValueError, match=rf"^excitation channel 1 is not "
                                         rf"finite at sample 20 \({bad}\)$"):
        collect_open_loop(plant, u, rng=seeded(121))


@pytest.mark.parametrize("row,diverged", [
    ([np.nan, 0.0], True), ([0.0, np.nan], True), ([0.0, -np.inf], True),
    ([0.0, -1e6], True), ([1e6, 0.0], True), ([-999999.9, 999999.9], False),
])
def test_divergence_test_of_one_row(row, diverged):
    """The per-move test fails a row if any entry, wherever it sits, is
    NaN or at least the limit in magnitude."""
    if diverged:
        with pytest.raises(Diverged, match=r"exceeded 1e\+06 at step -3$"):
            _check_sane(np.array(row), -3)
    else:
        _check_sane(np.array(row), -3)


def test_logged_innovations_are_white():
    """Re-filter the logged data with the exact model; the recovered
    innovations must be serially uncorrelated (3/sqrt(N) bands)."""
    model = demo_model(sigma_e=0.3)
    n = 2000
    u = random_steps(seeded(105), amplitude=1.0, hold=10, length=n)
    traj = collect_open_loop(model, u, rng=seeded(106))
    x_hat = np.zeros(2)
    e_hat = np.empty(n)
    for t in range(n):
        e = traj.outputs[:, t] - C2 @ x_hat - D2 @ traj.inputs[:, t]
        e_hat[t] = e[0]
        x_hat = A2 @ x_hat + B2 @ traj.inputs[:, t] + K2 @ e
    e_hat -= e_hat.mean()
    denom = float(e_hat @ e_hat)
    band = 3.0 / np.sqrt(n)
    for lag in range(1, 6):
        rho = float(e_hat[lag:] @ e_hat[:-lag]) / denom
        assert abs(rho) < band
    assert np.std(e_hat) == pytest.approx(0.3, rel=0.1)


# ---------------------------------------------------------------------------
# collect_closed_loop
# ---------------------------------------------------------------------------


def _pi_feedback() -> LinearFeedbackController:
    # discrete PI: integrator state advancing on the error
    return LinearFeedbackController(A_c=[[1.0]], B_c=[[1.0]],
                                    C_c=[[0.05]], D_c=[[0.3]])


def test_closed_loop_zero_setpoints_is_zero():
    model = demo_model(sigma_e=0.0)
    traj = collect_closed_loop(model, _pi_feedback(), np.zeros((1, 50)))
    np.testing.assert_array_equal(traj.inputs, np.zeros((1, 50)))
    np.testing.assert_array_equal(traj.outputs, np.zeros((1, 50)))


def test_closed_loop_tracks_and_stays_bounded():
    model = demo_model(sigma_e=0.1)
    levels = square_wave(100, 1.0, 400)[None, :]   # +1 then -1, 50 steps each
    traj = collect_closed_loop(model, _pi_feedback(), levels,
                               rng=seeded(107))
    assert np.abs(traj.outputs).max() < 5.0
    # the loop actually moves the plant toward both levels (late in each hold)
    assert traj.outputs[0, 30:50].mean() > 0.3
    assert traj.outputs[0, 80:100].mean() < -0.3


def test_closed_loop_two_by_two_feedback_steps():
    """A 2x2 multivariable error-feedback law loads and steps against a
    2-input/2-output plant without dimension errors."""
    fb = LinearFeedbackController(
        A_c=[[1.0, 0.0], [1.0, 0.0]],
        B_c=[[0.08, 0.0], [0.29, 0.0]],
        C_c=[[1.0, 0.0], [1.0, 0.0]],
        D_c=[[0.32, 0.0], [0.62, 0.0]],
    )
    # a mild twin-channel plant with small positive DC gain, so the
    # integral action through channel 1 stays stable
    plant = StateSpaceModel(A=[[0.2, 0.0], [0.0, 0.1]],
                            B=[[0.2, 0.0], [0.0, 0.2]],
                            C=[[0.5, 0.0], [0.0, 0.5]],
                            D=np.zeros((2, 2)), K=np.zeros((2, 2)),
                            sigma_e=0.05)
    setpoints = np.vstack([square_wave(40, 0.5, 120),
                           np.zeros(120)])
    traj = collect_closed_loop(plant, fb, setpoints, rng=seeded(109))
    assert traj.inputs.shape == (2, 120)
    assert traj.outputs.shape == (2, 120)
    assert np.isfinite(traj.outputs).all()


def test_closed_loop_unstable_diverges():
    """Positive feedback through the unit feedthrough gives |loop gain| > 1
    and must trip the divergence guard, not overflow silently."""
    model = demo_model(sigma_e=0.1)
    wrong_sign = LinearFeedbackController(A_c=[[0.0]], B_c=[[0.0]],
                                          C_c=[[0.0]], D_c=[[-3.0]])
    with pytest.raises(Diverged):
        collect_closed_loop(model, wrong_sign, np.zeros((1, 200)),
                            rng=seeded(110))


@pytest.mark.parametrize("gain", [np.nan, np.inf])
def test_closed_loop_non_finite_feedback_input_diverges_at_its_step(gain):
    """A feedback input that is not finite reaches its step's output
    through ``D u``, also where ``D`` is zero (0 * inf and 0 * NaN are
    NaN), so the divergence check stops the loop at that step: no record
    with a non-finite input is returned, whose inputs the record would
    have to test again."""
    plant = StateSpaceModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                            K=[[0.0]], sigma_e=0.0)
    fb = LinearFeedbackController(A_c=[[0.0]], B_c=[[0.0]], C_c=[[0.0]],
                                  D_c=[[gain]])
    r = np.ones((1, 10))
    with np.errstate(invalid="ignore"), pytest.raises(
            Diverged, match=r"at step 0$"):
        collect_closed_loop(plant, fb, r)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_loop_names_a_non_finite_setpoint(bad):
    r = np.ones((1, 40))
    r[0, 20] = bad
    with pytest.raises(ValueError, match=rf"^setpoints channel 0 is not "
                                         rf"finite at sample 20 \({bad}\)$"):
        collect_closed_loop(demo_model(sigma_e=0.1), _pi_feedback(), r,
                            rng=seeded(122))


def test_feedback_shape_validation():
    with pytest.raises(DimensionMismatch):
        LinearFeedbackController(A_c=[[1.0, 0.0]], B_c=[[1.0]],
                                 C_c=[[1.0]], D_c=[[1.0]])
    model = demo_model()
    fb_2in = LinearFeedbackController(A_c=[[1.0]], B_c=[[1.0]],
                                      C_c=[[0.1], [0.1]], D_c=[[0.3], [0.3]])
    with pytest.raises(DimensionMismatch):
        collect_closed_loop(model, fb_2in, np.zeros((1, 10)))


# ---------------------------------------------------------------------------
# model introspection
# ---------------------------------------------------------------------------


def test_observer_decay_decreases_with_depth():
    """``||(A - K C)^d||_2`` falls with the past window depth d, and the
    configs' L_p = 15 leaves little of the initial state in the predictor."""
    model = demo_model()
    F = model.A - model.K @ model.C
    decays = [np.linalg.norm(np.linalg.matrix_power(F, d), 2)
              for d in (5, 10, 15, 20)]
    assert all(a > b for a, b in zip(decays, decays[1:]))
    assert decays[2] < 0.05   # depth-15 past window pins the state well


def test_model_shape_validation():
    with pytest.raises(DimensionMismatch):
        StateSpaceModel(A=np.zeros((2, 3)), B=np.zeros((2, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((1, 1)),
                        K=np.zeros((2, 1)))
    with pytest.raises(DimensionMismatch):
        StateSpaceModel(A=np.eye(2), B=np.zeros((3, 1)),
                        C=np.zeros((1, 2)), D=np.zeros((1, 1)),
                        K=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        StateSpaceModel(A=np.eye(1), B=np.eye(1), C=np.eye(1), D=np.eye(1),
                        K=np.eye(1), sigma_e=-0.1)


@pytest.mark.parametrize("sigma_e", [np.nan, np.inf, -0.1],
                         ids=["nan", "inf", "negative"])
def test_bad_sigma_e_is_rejected_by_name(sigma_e):
    """In the model and in either collection's override, before any draw:
    a NaN deviation would otherwise be reported as a divergence."""
    with pytest.raises(ValueError, match="^sigma_e "):
        StateSpaceModel(A=np.eye(1), B=np.eye(1), C=np.eye(1), D=np.eye(1),
                        K=np.eye(1), sigma_e=sigma_e)
    model = demo_model(sigma_e=0.1)
    with pytest.raises(ValueError, match="^sigma_e "):
        collect_open_loop(model, np.ones(20), rng=rng_for(1),
                          sigma_e=sigma_e)
    with pytest.raises(ValueError, match="^sigma_e "):
        collect_closed_loop(model, _pi_feedback(), np.ones((1, 20)),
                            rng=rng_for(1), sigma_e=sigma_e)


# ---------------------------------------------------------------------------
# keyed RNG streams
# ---------------------------------------------------------------------------


def test_rng_streams_reproducible_and_distinct():
    a = rng_for(1, 2, 3).standard_normal(8)
    b = rng_for(1, 2, 3).standard_normal(8)
    c = rng_for(1, 2, 4).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-6


def test_rng_is_counter_based():
    gen = rng_for(5)
    assert isinstance(gen.bit_generator, np.random.Philox)
