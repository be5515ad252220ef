"""Least-squares and causal multi-step predictors.

Covers:
  * fit_spc against an explicit SVD-pseudoinverse oracle (also on
    noise-free records, where L11 is singular), the identity
    predictor on a dataset whose outputs equal its inputs, and exact
    held-out prediction on noise-free data.
  * fit_causal against the block-row brute-force fit, SISO and MIMO,
    and its exact block-triangular zero pattern.
  * collapse of causal and unconstrained fits on causally exact records.
  * the step-wise causality of the causal predictor under input
    perturbations.
  * fit_residual closed forms in terms of the LQ blocks, and the
    ordering (unconstrained fit is never worse on the training data).
  * shrinking non-causal content as the record grows.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import demo_model, noisy_dataset, random_model, seeded
from oracles import pinv_fit, rowwise_causal_fit

from ddpc import (
    DimensionMismatch,
    HorizonSpec,
    RankDeficient,
    Trajectory,
    causal_split,
    factorize,
    fit_causal,
    fit_residual,
    fit_spc,
    partition,
)
from ddpc.lq import causal_block_mask
from ddpc.predictor import Predictor


def _partition_for(model, n_d, L_p, L_f, rng, kind="steps"):
    return partition(noisy_dataset(model, n_d, rng, kind=kind),
                     HorizonSpec(L_p=L_p, L_f=L_f))


def _rowwise(part):
    """The causal gains fitted one output block row at a time."""
    return rowwise_causal_fit(part.Y_f, part.Z_p, part.U_f, part.m, part.p,
                              part.spec.L_f)


# ---------------------------------------------------------------------------
# fit_spc
# ---------------------------------------------------------------------------


def test_spc_matches_pinv_oracle():
    rng = seeded(57)
    u = rng.standard_normal((1, 150))
    parts = [
        _partition_for(random_model(seeded(50), n=3, m=2, p=2, sigma_e=0.2),
                       300, 4, 3, seeded(51)),
        # L11 is singular in the rest, so the block-row pinv branch runs:
        # noise-free records, SISO and MIMO with m != p, ...
        _partition_for(demo_model(sigma_e=0.0), 220, 8, 6, seeded(51, 1)),
        _partition_for(random_model(seeded(56), n=2, m=2, p=3, sigma_e=0.0),
                       260, 3, 4, seeded(51, 2)),
        # ... and one output copying the input beside a white one, whose
        # fit has non-causal gains
        partition(Trajectory(u, np.vstack([u, rng.standard_normal(150)])),
                  HorizonSpec(L_p=3, L_f=4)),
    ]
    for k, part in enumerate(parts):
        assert factorize(part).past_is_nonsingular() == (k == 0)
        pred = fit_spc(part)
        K_ref = pinv_fit(part.Y_f, part.Z_p, part.U_f)
        d1 = part.Z_p.shape[0]
        np.testing.assert_allclose(pred.K_p, K_ref[:, :d1], atol=1e-8)
        np.testing.assert_allclose(pred.K_f, K_ref[:, d1:], atol=1e-8)


def test_spc_identity_when_outputs_equal_inputs():
    rng = seeded(52)
    u = rng.standard_normal((1, 120))
    traj = Trajectory(u, u.copy())
    pred = fit_spc(partition(traj, HorizonSpec(L_p=3, L_f=4)))
    np.testing.assert_allclose(pred.K_f, np.eye(4), atol=1e-8)
    np.testing.assert_allclose(pred.K_p, 0.0, atol=1e-8)


def test_spc_noise_free_heldout_prediction():
    model = demo_model(sigma_e=0.0)
    part = _partition_for(model, 220, 8, 6, seeded(53))
    pred = fit_spc(part)
    fresh = _partition_for(model, 60, 8, 6, seeded(54))
    for j in (0, 7, fresh.M - 1):
        y_hat = pred.K_p @ fresh.Z_p[:, j] + pred.K_f @ fresh.U_f[:, j]
        np.testing.assert_allclose(y_hat, fresh.Y_f[:, j], atol=1e-8)


def test_spc_requires_excitation():
    model = demo_model(sigma_e=0.1)
    from ddpc import collect_open_loop
    traj = collect_open_loop(model, np.ones((1, 100)), rng=seeded(55))
    with pytest.raises(RankDeficient):
        fit_spc(partition(traj, HorizonSpec(L_p=3, L_f=3)))


# ---------------------------------------------------------------------------
# fit_causal
# ---------------------------------------------------------------------------


def test_causal_matches_bruteforce_siso():
    model = demo_model(sigma_e=0.2)
    part = _partition_for(model, 200, 4, 3, seeded(58))
    a = fit_causal(factorize(part))
    K_p, K_f = _rowwise(part)
    np.testing.assert_allclose(a.K_p, K_p, atol=1e-8)
    np.testing.assert_allclose(a.K_f, K_f, atol=1e-8)


def test_causal_matches_bruteforce_mimo():
    model = random_model(seeded(59), n=3, m=2, p=2, sigma_e=0.2)
    part = _partition_for(model, 320, 3, 4, seeded(60))
    a = fit_causal(factorize(part))
    K_p, K_f = _rowwise(part)
    np.testing.assert_allclose(a.K_p, K_p, atol=1e-8)
    np.testing.assert_allclose(a.K_f, K_f, atol=1e-8)


def test_causal_zero_pattern_is_exact():
    model = demo_model(sigma_e=0.25)
    pred = fit_causal(factorize(_partition_for(model, 180, 4, 5, seeded(63))))
    mask = causal_block_mask(pred.p, pred.m, pred.L_f)
    np.testing.assert_array_equal(pred.K_f[~mask], 0.0)


def test_causal_last_row_equals_full_regression():
    """The final output block row sees every input step, so its causal fit
    coincides with the unconstrained row."""
    model = demo_model(sigma_e=0.2)
    part = _partition_for(model, 200, 4, 3, seeded(64))
    causal = fit_causal(factorize(part))
    spc = fit_spc(part)
    p, L_f = part.p, part.spec.L_f
    rows = slice((L_f - 1) * p, L_f * p)
    np.testing.assert_allclose(causal.K_p[rows], spc.K_p[rows], atol=1e-8)
    np.testing.assert_allclose(causal.K_f[rows], spc.K_f[rows], atol=1e-8)


def test_causal_equals_spc_on_causally_exact_data():
    """Noise-free records have no non-causal content to exploit, so both
    fits predict identically (gains may differ only off the data manifold)."""
    model = demo_model(sigma_e=0.0)
    part = _partition_for(model, 220, 8, 5, seeded(65))
    blocks = factorize(part)
    causal = fit_causal(blocks)
    spc = fit_spc(part)
    fresh = _partition_for(model, 70, 8, 5, seeded(66))
    for j in (0, 11):
        z, u = fresh.Z_p[:, j], fresh.U_f[:, j]
        y_c = causal.K_p @ z + causal.K_f @ u
        y_s = spc.K_p @ z + spc.K_f @ u
        np.testing.assert_allclose(y_c, y_s, atol=1e-7)
        np.testing.assert_allclose(y_c, fresh.Y_f[:, j], atol=1e-7)


def test_causal_prediction_ignores_future_input_changes():
    """Perturbing the input at step j leaves predicted outputs before j
    bitwise unchanged for the causal predictor."""
    model = demo_model(sigma_e=0.2)
    pred = fit_causal(factorize(_partition_for(model, 200, 4, 5, seeded(69))))
    rng = seeded(70)
    z = rng.standard_normal(8)
    u = rng.standard_normal(5)
    base = pred.K_p @ z + pred.K_f @ u
    for j in range(5):
        bumped = u.copy()
        bumped[j] += 1.0
        out = pred.K_p @ z + pred.K_f @ bumped
        np.testing.assert_array_equal(out[:j], base[:j])
        assert abs(out[j] - base[j]) > 0.0  # direct feedthrough present


# ---------------------------------------------------------------------------
# fit_residual
# ---------------------------------------------------------------------------


def test_residual_spc_equals_l33_norm():
    model = demo_model(sigma_e=0.3)
    part = _partition_for(model, 200, 4, 4, seeded(71))
    blocks = factorize(part)
    r = fit_residual(part, fit_spc(part))
    assert r == pytest.approx(np.linalg.norm(blocks.L33, "fro"), rel=1e-8)


def test_residual_causal_closed_form():
    model = demo_model(sigma_e=0.3)
    part = _partition_for(model, 200, 4, 4, seeded(72))
    blocks = factorize(part)
    split = causal_split(blocks)
    r = fit_residual(part, fit_causal(blocks))
    expected = np.sqrt(np.linalg.norm(split.noncausal, "fro") ** 2
                       + np.linalg.norm(blocks.L33, "fro") ** 2)
    assert r == pytest.approx(expected, rel=1e-8)


def test_residual_ordering_over_seeds():
    model = demo_model(sigma_e=0.25)
    for tag in range(8):
        part = _partition_for(model, 180, 4, 4, seeded(73, tag))
        blocks = factorize(part)
        r_spc = fit_residual(part, fit_spc(part))
        r_causal = fit_residual(part, fit_causal(blocks))
        assert r_spc <= r_causal + 1e-12


def test_noncausal_content_shrinks_with_record_length():
    """The true system is causal, so the non-causal part of the
    unconstrained fit is a finite-sample artifact that fades as the
    record grows."""
    model = demo_model(sigma_e=0.3)
    fracs = []
    for n_d in (200, 800, 3200):
        per_seed = []
        for tag in range(7):
            part = _partition_for(model, n_d, 4, 4, seeded(74, n_d, tag),
                                  kind="white")
            pred = fit_spc(part)
            mask = causal_block_mask(pred.p, pred.m, pred.L_f)
            frac = (np.linalg.norm(pred.K_f[~mask])
                    / np.linalg.norm(pred.K_f))
            per_seed.append(frac)
        fracs.append(float(np.median(per_seed)))
    assert fracs[0] > fracs[1] > fracs[2]


def test_predictor_shape_validation():
    with pytest.raises(DimensionMismatch):
        Predictor(K_p=np.zeros((3, 5)), K_f=np.zeros((3, 3)), causal=False,
                  m=1, p=1, L_p=2, L_f=3)
