"""Properties of the LQ factor, its causal split and the predictors, drawn
by hypothesis over shapes and records.

Covers, for ``m`` and ``p`` in 1-3, ``L_p`` and ``L_f`` in 1-4 and plant
orders 1-3, on noisy records and on noise-free ones (whose past block
``L11`` is singular once ``p * L_p`` exceeds the plant's order):
  * the Gram identity ``L L' = S S'`` and a nonnegative diagonal;
  * the causal split adds up to ``L32`` exactly, on the loop-built mask;
  * the past map against ``[L21; L31] @`` the ``gamma1_of`` oracle;
  * ``fit_spc`` against ``pinv_fit`` and ``fit_causal`` against
    ``rowwise_causal_fit``.

The draws are derandomized and no example database is written, so the
suite runs the same examples on every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import full_factor, random_model, rng_for
from oracles import (causal_mask_by_loops, gamma1_of, pinv_fit,
                     rowwise_causal_fit)

from ddpc import (HorizonSpec, causal_split, collect_open_loop, factorize,
                  fit_causal, fit_spc, partition)

# a fixed number of examples per property and record kind keeps the suite
# near 1 s
_SETTINGS = settings(max_examples=15, derandomize=True, database=None,
                     deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])
_NOISY = pytest.mark.parametrize("sigma_e", [0.1, 0.0],
                                 ids=["noisy", "noise_free"])


@st.composite
def partitions(draw, sigma_e):
    """A partition of a white-input record of a random stable plant with
    innovations of size ``sigma_e``, with enough columns for every row of
    its stack."""
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    L_p, L_f = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    order = draw(st.integers(1, 3))
    rng = rng_for(0x9E0, draw(st.integers(0, 2**16)))
    plant = random_model(rng, n=order, m=m, p=p, sigma_e=sigma_e)
    rows = (m + p) * (L_p + L_f)
    n_d = 2 * rows + L_p + L_f
    traj = collect_open_loop(plant, rng.standard_normal((m, n_d)), rng=rng)
    return partition(traj, HorizonSpec(L_p=L_p, L_f=L_f))


def _scaled(a: np.ndarray) -> float:
    return max(float(np.abs(a).max()), 1e-300)


@_NOISY
@_SETTINGS
@given(data=st.data())
def test_factor_carries_the_gram_matrix(sigma_e, data):
    part = data.draw(partitions(sigma_e))
    L = full_factor(factorize(part))
    gram = part.stack @ part.stack.T
    assert np.abs(L @ L.T - gram).max() <= 1e-10 * _scaled(gram)
    assert (np.diag(L) >= 0.0).all()


@_NOISY
@_SETTINGS
@given(data=st.data())
def test_causal_split_adds_up_exactly(sigma_e, data):
    part = data.draw(partitions(sigma_e))
    blocks = factorize(part)
    split = causal_split(blocks)
    mask = causal_mask_by_loops(part.m, part.p, part.spec.L_f)
    np.testing.assert_array_equal(split.causal + split.noncausal, blocks.L32)
    np.testing.assert_array_equal(split.causal[mask], blocks.L32[mask])
    assert (split.causal[~mask] == 0.0).all()
    assert (split.noncausal[mask] == 0.0).all()


@_NOISY
@_SETTINGS
@given(data=st.data())
def test_past_map_applies_the_gamma1_oracle(sigma_e, data):
    part = data.draw(partitions(sigma_e))
    blocks = factorize(part)
    L_past = np.vstack([blocks.L21, blocks.L31])
    for j in (0, part.M // 2, part.M - 1):
        z = part.Z_p[:, j]
        expected = L_past @ gamma1_of(blocks, z)
        np.testing.assert_allclose(blocks.past_map @ z, expected, rtol=0,
                                   atol=1e-8 * _scaled(expected))


@_NOISY
@_SETTINGS
@given(data=st.data())
def test_predictors_match_the_regression_oracles(sigma_e, data):
    part = data.draw(partitions(sigma_e))
    blocks = factorize(part)
    K_ref = pinv_fit(part.Y_f, part.Z_p, part.U_f)
    spc = fit_spc(part)
    np.testing.assert_allclose(np.hstack([spc.K_p, spc.K_f]), K_ref, rtol=0,
                               atol=1e-8 * _scaled(K_ref))
    K_p, K_f = rowwise_causal_fit(part.Y_f, part.Z_p, part.U_f, part.m,
                                  part.p, part.spec.L_f)
    causal = fit_causal(blocks)
    K_causal = np.hstack([K_p, K_f])
    np.testing.assert_allclose(np.hstack([causal.K_p, causal.K_f]), K_causal,
                               rtol=0, atol=1e-8 * _scaled(K_causal))
