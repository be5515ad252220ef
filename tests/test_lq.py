"""LQ factorization, causal split, latent past solves, and binary dumps.

Covers:
  * the factor ``L`` against the data: the Gram identity ``L L' = S S'``
    and exact reconstruction ``L @ Q`` with an independently computed
    orthonormal ``Q`` (``factorize`` itself never forms ``Q``),
    lower-triangularity and the nonnegative-diagonal sign convention, on
    small and tall stacks (against numpy's ``R``), and a partition left
    bit-for-bit unchanged by either route.
  * the route rule: a noisy record is factored by the Cholesky factor of
    its Gram matrix, with no QR; a noise-free one with a singular ``L11``
    by the QR fallback; and a noise-free record whose Gram pivots sit
    near ``sqrt(eps)``, which ``potrf`` accepts, goes to the QR too (the
    shrunk case of the property suite run with the bound at 1e-8).
  * the fixed point: a stack that is already lower-triangular with an
    orthonormal right factor gives back its triangular part unchanged.
  * rank-deficiency errors for unexciting inputs and too-short records,
    and a ValueError naming non-finite entries of the stack, raised
    before the length check; finite entries whose squares overflow the
    Gram matrix take the QR.
  * one factor per partition: a second ``factorize`` (or ``fit_spc``)
    returns the first blocks without calling any factorization kernel;
    partition arrays, blocks and the past map are read-only, hand-built
    ones frozen copies; a stack whose rows disagree with ``(m, p, spec)``
    is refused.
  * causal_split worked examples, exact complementarity, the mask versus
    a loop-built oracle (the public mask a writable copy of the one the
    split reads), and the strict-upper parameter count
    ``p*m*L_f*(L_f-1)/2``.
  * the ``gamma1_of`` oracle's forward substitution and minimum-norm
    fallback, and the cached past map ``[L21; L31] inv(L11)`` against it.
  * residual ordering ``||L32' Q2 + L33 Q3||_F >= ||L33 Q3||_F``, with
    ``Q2``/``Q3`` from the independent ``Q``.
  * byte-exact save/load round-trips, format validation, and the error
    for dumps in the older ``LQB1`` format.
"""

from __future__ import annotations

import dataclasses
import pickle
import re
import struct

import numpy as np
import pytest

from conftest import (demo_model, full_factor, make_blocks, make_partition,
                      noisy_dataset, random_model, rng_for, seeded)
from oracles import (causal_mask_by_loops, gamma1_of, lq_orthonormal_rows,
                     pinv_fit)

from ddpc import (
    CausalSplit,
    DimensionMismatch,
    HankelPartition,
    HorizonSpec,
    LqBlocks,
    RankDeficient,
    causal_split,
    collect_open_loop,
    factorize,
    fit_spc,
    load_config,
    load_lq_blocks,
    partition,
    save_lq_blocks,
)
from ddpc import lq
from ddpc.lq import _QR_BLOCK, causal_block_mask


_L_NAMES = ("L11", "L21", "L22", "L31", "L32", "L33")


def _stacked(part) -> np.ndarray:
    return np.vstack([part.Z_p, part.U_f, part.Y_f])


def _residual_rows(part, blocks: LqBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``Q2``, ``Q3`` of an independently computed ``Q``."""
    Q = lq_orthonormal_rows(full_factor(blocks), _stacked(part))
    d1, d2 = blocks.dim_past, blocks.dim_u
    return Q[d1:d1 + d2], Q[d1 + d2:]


# ---------------------------------------------------------------------------
# factorize
# ---------------------------------------------------------------------------


def test_factorize_reconstructs_stack():
    model = demo_model()
    part = make_partition(model, 120, L_p=4, L_f=3, rng=seeded(20))
    blocks = factorize(part)
    L = full_factor(blocks)
    stack = _stacked(part)
    Q = lq_orthonormal_rows(L, stack)
    np.testing.assert_allclose(L @ Q, stack, atol=1e-10 * np.abs(stack).max())


def test_factorize_gram_identity():
    """``L L' = S S'``: the factor alone carries the data's Gram matrix."""
    part = make_partition(demo_model(), 150, L_p=3, L_f=4, rng=seeded(21))
    L = full_factor(factorize(part))
    stack = _stacked(part)
    gram = stack @ stack.T
    assert np.abs(L @ L.T - gram).max() <= 1e-10 * np.abs(gram).max()


def test_factorize_sign_convention_and_triangularity():
    blocks = make_blocks(demo_model(), 100, L_p=2, L_f=5, rng=seeded(22))
    L = full_factor(blocks)
    assert np.all(np.diag(L) >= 0.0)
    assert np.allclose(L, np.tril(L))
    # strictly-upper entries inside each diagonal block are exact zeros
    np.testing.assert_array_equal(blocks.L11, np.tril(blocks.L11))
    np.testing.assert_array_equal(blocks.L22, np.tril(blocks.L22))
    np.testing.assert_array_equal(blocks.L33, np.tril(blocks.L33))


def test_factorize_triangular_fixed_point():
    """A stack that is already L @ [I 0] gives back L unchanged."""
    rng = seeded(23)
    L0 = np.tril(rng.standard_normal((6, 6)))
    np.fill_diagonal(L0, np.abs(np.diag(L0)) + 1.0)
    S = np.hstack([L0, np.zeros((6, 2))])
    part = HankelPartition(stack=S, m=1, p=1, spec=HorizonSpec(L_p=1, L_f=2))
    blocks = factorize(part)
    np.testing.assert_allclose(full_factor(blocks), L0, atol=1e-12)


def test_factorize_rejects_non_finite_entries():
    """A NaN in a hand-built partition is named as such, not mistaken for
    an unexcited input."""
    part = make_partition(demo_model(), 140, L_p=3, L_f=3, rng=seeded(27))
    stack = part.stack.copy()
    stack[len(stack) - len(part.Y_f) + 1, 5] = np.nan   # Y_f[1, 5]
    bad = dataclasses.replace(part, stack=stack)
    with pytest.raises(ValueError, match="NaN") as info:
        factorize(bad)
    assert "L22" not in str(info.value)
    assert not isinstance(info.value, RankDeficient)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factorize_tests_entries_before_the_record_length(bad):
    """A non-finite entry (a NaN spreads through the Gram diagonal, and an
    infinity makes it infinite) raises the ValueError, also in a record
    too short to factor, whose RankDeficient comes after it."""
    traj = collect_open_loop(demo_model(), seeded(26).standard_normal(
        (1, 15)), rng=seeded(26))
    part = partition(traj, HorizonSpec(L_p=5, L_f=5))  # 20 rows, 6 columns
    stack = part.stack.copy()
    stack[3, 2] = bad
    with pytest.raises(ValueError, match="^Hankel partition has NaN or "
                       "infinite entries$"):
        factorize(dataclasses.replace(part, stack=stack))


def test_factorize_sends_a_finite_stack_whose_gram_overflows_to_qr(
        monkeypatch):
    """Entries of 1e200 are finite, but their squares overflow the Gram
    diagonal: the record is factored by the QR, and ``|L|`` is numpy's
    ``|R'|`` up to round-off."""
    part = _mimo_partition()
    big = dataclasses.replace(part, stack=1e200 * part.stack)
    calls = _counting_qr(monkeypatch)
    L = full_factor(factorize(big))
    assert calls == [_QR_BLOCK]
    assert np.isfinite(L).all() and np.all(np.diag(L) >= 0.0)
    R = np.linalg.qr(big.stack.T, mode="r")
    assert (np.abs(np.abs(L) - np.abs(R.T)).max()
            <= 1e-12 * np.abs(L).max())


def test_factorize_determinism():
    """Two partitions of one record are factored apart, to the same bits."""
    traj = noisy_dataset(demo_model(), 140, seeded(24))
    spec = HorizonSpec(L_p=5, L_f=5)
    b1 = factorize(partition(traj, spec))
    b2 = factorize(partition(traj, spec))
    assert b1 is not b2
    for name in _L_NAMES:
        np.testing.assert_array_equal(getattr(b1, name), getattr(b2, name))


def test_factorize_factors_a_partition_once(monkeypatch):
    """A second factorize of a partition, and the spc fit of it, get back
    the first call's blocks without calling a factorization kernel."""
    part = make_partition(demo_model(), 140, L_p=3, L_f=3, rng=seeded(24))
    blocks = factorize(part)
    for kernel in ("_SYRK", "_POTRF", "_GEQRT"):  # a second call would fail
        monkeypatch.setattr(lq, kernel, None)
    assert factorize(part) is blocks
    assert fit_spc(part).K_f.shape == (blocks.dim_y, blocks.dim_u)


def test_partition_and_blocks_are_read_only(tmp_path):
    """Writing to a partition's arrays or to a block raises, also after a
    pickle round trip or a load, and a hand-built partition or block set
    holds frozen copies of writable arrays, so the data under a shared
    factor cannot change."""
    part = make_partition(demo_model(), 140, L_p=3, L_f=3, rng=seeded(25))
    blocks = factorize(part)
    save_lq_blocks(blocks, tmp_path / "blocks.lqb")
    loaded = load_lq_blocks(tmp_path / "blocks.lqb")
    part_back, blocks_back = pickle.loads(pickle.dumps((part, blocks)))
    arrays = [p.stack for p in (part, part_back)]
    arrays += [part.Z_p, part.U_f, part.Y_f, blocks.past_map]
    arrays += [getattr(b, name) for b in (blocks, loaded, blocks_back)
               for name in _L_NAMES]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    np.testing.assert_array_equal(part_back.stack, part.stack)
    np.testing.assert_array_equal(blocks_back.L33, blocks.L33)
    S = part.stack.copy()
    hand = HankelPartition(stack=S, m=part.m, p=part.p, spec=part.spec)
    L32 = blocks.L32.copy()
    copied = dataclasses.replace(blocks, L32=L32)
    S[0, 0] += 1.0
    L32[0, 0] += 1.0
    assert hand.stack[0, 0] == part.stack[0, 0]
    assert copied.L32[0, 0] == blocks.L32[0, 0]
    assert not hand.stack.flags.writeable
    assert not copied.L32.flags.writeable


def test_partition_rows_must_match_its_shape():
    """A stack whose rows disagree with (m, p, spec) is refused when the
    partition is built, before factorize could cut it into wrong blocks:
    7 rows for m = p = 1, L_p = 1, L_f = 2 would give a 3 x 3 L33."""
    stack = seeded(26).standard_normal((7, 20))
    with pytest.raises(DimensionMismatch, match="6 rows"):
        HankelPartition(stack=stack, m=1, p=1, spec=HorizonSpec(1, 2))
    with pytest.raises(DimensionMismatch, match="6 rows"):
        HankelPartition(stack=stack[0], m=1, p=1, spec=HorizonSpec(1, 2))


def _table1_partition():
    cfg = load_config("table1")
    rng = seeded(28)
    traj = collect_open_loop(cfg.plant(), cfg.excitation(600, rng=rng),
                             rng=rng)
    return partition(traj, cfg.horizon())


def _mimo_partition():
    # 4 * (5 + 6) = 44 rows: several panels, the last one partial
    return make_partition(random_model(seeded(29), m=2, p=2), 300,
                          L_p=5, L_f=6, rng=seeded(30), kind="white")


def _square_partition():
    # n_d = 3L - 1 leaves exactly M = 2L = 40 columns for 40 rows
    return make_partition(demo_model(), 59, L_p=10, L_f=10, rng=seeded(31),
                          kind="white")


@pytest.mark.parametrize("make", [_table1_partition, _mimo_partition,
                                  _square_partition],
                         ids=["table1_90_rows", "mimo_44_rows",
                              "square_40_rows"])
def test_factorize_stacks_taller_than_one_panel(make):
    """Stacks taller than one panel of the QR fallback keep every property
    of the factor, and ``|L|`` is numpy's ``|R'|`` up to round-off."""
    part = make()
    stack = _stacked(part)
    assert stack.shape[0] > _QR_BLOCK
    if make is _square_partition:
        assert part.M == stack.shape[0]
    blocks = factorize(part)
    L = full_factor(blocks)
    gram = stack @ stack.T
    assert np.abs(L @ L.T - gram).max() <= 1e-10 * np.abs(gram).max()
    assert np.all(np.diag(L) >= 0.0)
    for name in ("L11", "L22", "L33"):
        block = getattr(blocks, name)
        np.testing.assert_array_equal(block, np.tril(block))
    R = np.linalg.qr(stack.T, mode="r")
    assert (np.abs(np.abs(L) - np.abs(R.T)).max()
            <= 1e-12 * np.abs(L).max())


def test_factorize_leaves_partition_untouched():
    """The Gram route reads the stack, and the QR fallback overwrites a
    copy of it (the second, noise-free stack takes the QR)."""
    for part in (_mimo_partition(), _noise_free_partition()):
        before = part.stack.tobytes()
        factorize(part)
        assert part.stack.tobytes() == before


def _noise_free_partition():
    # 24 rows: a singular L11 on a stack of two QR panels
    return make_partition(demo_model(sigma_e=0.0), 200, L_p=8, L_f=4,
                          rng=seeded(27))


def _counting_qr(monkeypatch) -> list:
    """Wrap the QR kernel so that each call is recorded."""
    calls = []
    geqrt = lq._GEQRT

    def counted(*args, **kwargs):
        calls.append(args[0])
        return geqrt(*args, **kwargs)

    monkeypatch.setattr(lq, "_GEQRT", counted)
    return calls


def test_factorize_takes_the_gram_route_on_a_noisy_record(monkeypatch):
    """A noisy table1 record is factored without the QR: the Cholesky
    factor of ``S S'``, with a positive diagonal."""
    part = _table1_partition()
    monkeypatch.setattr(lq, "_GEQRT", None)
    blocks = factorize(part)
    L = full_factor(blocks)
    gram = part.stack @ part.stack.T
    assert np.abs(L @ L.T - gram).max() <= 1e-10 * np.abs(gram).max()
    assert np.all(np.diag(L) > 0.0)
    assert blocks.past_is_nonsingular()


def test_factorize_falls_back_to_qr_for_a_singular_past(monkeypatch):
    """A noise-free record, whose ``L11`` is singular, ends on the QR
    path.  ``L L' = S S'`` holds, and ``|L|`` is numpy's ``|R'|`` in the
    columns before the first zero pivot: past it, the factor of a
    rank-deficient stack is not unique, and two QRs differ at O(1)."""
    part = _noise_free_partition()
    calls = _counting_qr(monkeypatch)
    blocks = factorize(part)
    assert calls == [_QR_BLOCK]
    assert not blocks.past_is_nonsingular()
    L = full_factor(blocks)
    gram = part.stack @ part.stack.T
    assert np.abs(L @ L.T - gram).max() <= 1e-10 * np.abs(gram).max()
    d = np.diag(L)
    rank = int(np.argmax(d <= lq._DIAG_RTOL * d.max()))
    assert 0 < rank < blocks.dim_past
    R = np.linalg.qr(part.stack.T, mode="r")
    assert (np.abs(np.abs(L[:, :rank]) - np.abs(R.T[:, :rank])).max()
            <= 1e-12 * np.abs(L).max())


def test_factorize_sends_sqrt_eps_gram_pivots_to_qr(monkeypatch):
    """The shrunk failing case of the LQ property suite run with the
    Gram bound at 1e-8: a noise-free record (m = 2, p = 1, L_p = 2,
    L_f = 1, a first-order plant) whose Gram matrix is singular, but
    whose Cholesky factorization succeeds with pivots about 2e-8 of the
    largest.  That factor gave an spc gain off by up to 1.8; the bound
    sends the record to the QR, and the gain matches the regression."""
    rng = rng_for(0x9E0, 1711)
    plant = random_model(rng, n=1, m=2, p=1, sigma_e=0.0)
    traj = collect_open_loop(plant, rng.standard_normal((2, 21)), rng=rng)
    part = partition(traj, HorizonSpec(L_p=2, L_f=1))
    calls = _counting_qr(monkeypatch)
    spc = fit_spc(part)
    assert len(calls) == 1
    assert not factorize(part).past_is_nonsingular()
    K_ref = pinv_fit(part.Y_f, part.Z_p, part.U_f)
    np.testing.assert_allclose(np.hstack([spc.K_p, spc.K_f]), K_ref,
                               rtol=0, atol=1e-8 * np.abs(K_ref).max())


def test_factorize_constant_input_rank_deficient():
    model = demo_model(sigma_e=0.1)
    traj = collect_open_loop(model, np.ones((1, 80)), rng=seeded(25))
    part = partition(traj, HorizonSpec(L_p=3, L_f=4))
    with pytest.raises(RankDeficient):
        factorize(part)


def test_factorize_short_record_rank_deficient():
    model = demo_model()
    # L = 10 -> 20 stacked rows, but only 15 - 10 + 1 = 6 columns
    traj = collect_open_loop(model, seeded(26).standard_normal((1, 15)),
                             rng=seeded(26))
    part = partition(traj, HorizonSpec(L_p=5, L_f=5))
    with pytest.raises(RankDeficient):
        factorize(part)


def test_past_block_singular_for_noise_free_data():
    """Deterministic records make L11 structurally singular (the joint
    past has rank m*L_p + n < (m+p)*L_p) while L22 stays healthy."""
    blocks = make_blocks(demo_model(sigma_e=0.0), 200, L_p=8, L_f=4,
                         rng=seeded(27))
    assert not blocks.past_is_nonsingular()
    noisy = make_blocks(demo_model(sigma_e=0.2), 200, L_p=8, L_f=4,
                        rng=seeded(27))
    assert noisy.past_is_nonsingular()


# ---------------------------------------------------------------------------
# causal_split
# ---------------------------------------------------------------------------


def _blocks_with_l32(L32: np.ndarray, m: int, p: int, L_f: int) -> LqBlocks:
    d3, d2 = L32.shape
    d1 = 2
    zeros = np.zeros
    return LqBlocks(L11=np.eye(d1), L21=zeros((d2, d1)), L22=np.eye(d2),
                    L31=zeros((d3, d1)), L32=L32, L33=np.eye(d3),
                    m=m, p=p, L_p=1, L_f=L_f, M=d1 + d2 + d3)


def test_causal_split_siso_example():
    blocks = _blocks_with_l32(np.array([[1.0, 9.0], [3.0, 4.0]]),
                              m=1, p=1, L_f=2)
    split = causal_split(blocks)
    np.testing.assert_array_equal(split.causal, [[1.0, 0.0], [3.0, 4.0]])
    np.testing.assert_array_equal(split.noncausal, [[0.0, 9.0], [0.0, 0.0]])


def test_causal_split_lower_triangular_is_fixed_point():
    rng = seeded(28)
    L32 = np.tril(rng.standard_normal((3, 3)))
    split = causal_split(_blocks_with_l32(L32, m=1, p=1, L_f=3))
    np.testing.assert_array_equal(split.causal, L32)
    np.testing.assert_array_equal(split.noncausal, np.zeros((3, 3)))


def test_causal_split_exact_complement():
    blocks = make_blocks(demo_model(), 160, L_p=4, L_f=6, rng=seeded(29))
    split = causal_split(blocks)
    np.testing.assert_array_equal(split.causal + split.noncausal, blocks.L32)
    # no overlap: wherever one is nonzero the other is exactly zero
    assert not np.any((split.causal != 0.0) & (split.noncausal != 0.0))


@pytest.mark.parametrize("m,p,L_f", [(1, 1, 4), (2, 1, 3), (1, 3, 3),
                                     (2, 2, 5)])
def test_causal_mask_matches_loop_oracle(m, p, L_f):
    np.testing.assert_array_equal(causal_block_mask(p, m, L_f),
                                  causal_mask_by_loops(m, p, L_f))


def test_causal_mask_is_a_fresh_writable_copy():
    """``causal_split`` reads one read-only mask per shape; the public
    mask is the caller's own array."""
    mask = causal_block_mask(1, 2, 3)
    assert mask.flags.writeable
    mask[:] = False
    np.testing.assert_array_equal(causal_block_mask(1, 2, 3),
                                  causal_mask_by_loops(2, 1, 3))
    blocks = make_blocks(demo_model(), 160, L_p=4, L_f=6, rng=seeded(29))
    split = causal_split(blocks)
    np.testing.assert_array_equal(
        split.causal,
        np.where(causal_mask_by_loops(1, 1, 6), blocks.L32, 0.0))


@pytest.mark.parametrize("m,p,L_f", [(1, 1, 5), (2, 3, 4)])
def test_causal_split_parameter_count(m, p, L_f):
    mask = causal_block_mask(p, m, L_f)
    n_free = int(mask.size - mask.sum())
    assert n_free == p * m * L_f * (L_f - 1) // 2


# ---------------------------------------------------------------------------
# the past coordinate: the gamma1_of oracle and the past map
# ---------------------------------------------------------------------------


def test_gamma1_zero_past():
    blocks = make_blocks(demo_model(), 120, L_p=3, L_f=3, rng=seeded(30))
    zero = np.zeros(blocks.dim_past)
    np.testing.assert_array_equal(gamma1_of(blocks, zero), zero)
    np.testing.assert_array_equal(blocks.past_map @ zero,
                                  np.zeros(blocks.dim_u + blocks.dim_y))


def test_gamma1_identity_past_block():
    L32 = np.zeros((2, 2))
    blocks = dataclasses.replace(   # L11 = I by fabrication
        _blocks_with_l32(L32, m=1, p=1, L_f=2),
        L21=[[0.5, -2.0], [1.5, 0.25]], L31=[[3.0, 0.0], [-1.0, 4.0]])
    z = np.array([0.3, -1.7])
    np.testing.assert_allclose(gamma1_of(blocks, z), z, atol=1e-15)
    np.testing.assert_array_equal(blocks.past_map,
                                  np.vstack([blocks.L21, blocks.L31]))


def test_gamma1_solves_triangular_system():
    blocks = make_blocks(demo_model(), 150, L_p=4, L_f=3, rng=seeded(31))
    rng = seeded(32)
    z = rng.standard_normal(blocks.dim_past)
    g1 = gamma1_of(blocks, z)
    assert np.linalg.norm(blocks.L11 @ g1 - z) < 1e-10 * np.linalg.norm(z)


def test_gamma1_minimum_norm_fallback():
    """With a singular past block the returned solution matches the
    pseudoinverse: least residual first, then least norm."""
    blocks = make_blocks(demo_model(sigma_e=0.0), 200, L_p=8, L_f=4,
                         rng=seeded(33))
    assert not blocks.past_is_nonsingular()
    # a consistent right-hand side: an actual past window from fresh data
    fresh = make_partition(demo_model(sigma_e=0.0), 60, L_p=8, L_f=4,
                           rng=seeded(34))
    z = fresh.Z_p[:, 5]
    g1 = gamma1_of(blocks, z)
    ref = np.linalg.pinv(blocks.L11, rcond=1e-10) @ z
    np.testing.assert_allclose(g1, ref, atol=1e-8)
    assert np.linalg.norm(blocks.L11 @ g1 - z) < 1e-6 * np.linalg.norm(z)


@pytest.mark.parametrize("sigma_e", [0.2, 0.0], ids=["noisy", "exact"])
def test_past_map_applies_gamma1(sigma_e):
    """``past_map @ z_p`` is ``[L21; L31] @ gamma1_of(z_p)`` (the oracle),
    by forward substitution or, for a singular ``L11``, the minimum-norm
    solve; it is formed once per blocks."""
    blocks = make_blocks(demo_model(sigma_e=sigma_e), 200, L_p=4, L_f=3,
                         rng=seeded(36))
    assert blocks.past_is_nonsingular() == (sigma_e > 0)
    z = make_partition(demo_model(sigma_e=sigma_e), 60, L_p=4, L_f=3,
                       rng=seeded(37)).Z_p[:, 5]
    expected = np.vstack([blocks.L21, blocks.L31]) @ gamma1_of(blocks, z)
    np.testing.assert_allclose(blocks.past_map @ z, expected,
                               atol=1e-8 * np.abs(expected).max())
    assert blocks.past_map is blocks.past_map


# ---------------------------------------------------------------------------
# residual ordering
# ---------------------------------------------------------------------------


def test_noncausal_residual_dominates_full_residual():
    """Zeroing the non-causal part can only increase the fit residual:
    ||L32' Q2 + L33 Q3||_F >= ||L33 Q3||_F, with the products formed
    explicitly rather than via orthonormality."""
    for tag in range(5):
        part = make_partition(demo_model(sigma_e=0.25), 150, L_p=4, L_f=5,
                              rng=seeded(36, tag))
        blocks = factorize(part)
        Q2, Q3 = _residual_rows(part, blocks)
        split = causal_split(blocks)
        with_nc = np.linalg.norm(split.noncausal @ Q2 + blocks.L33 @ Q3)
        without = np.linalg.norm(blocks.L33 @ Q3)
        assert with_nc >= without
        assert with_nc > without  # noisy data: strictly larger


def test_residual_equality_when_noncausal_vanishes():
    part = make_partition(demo_model(sigma_e=0.25), 150, L_p=4, L_f=5,
                          rng=seeded(37))
    blocks = factorize(part)
    Q2, Q3 = _residual_rows(part, blocks)
    zeroed = CausalSplit(causal=blocks.L32,
                         noncausal=np.zeros_like(blocks.L32))
    with_nc = np.linalg.norm(zeroed.noncausal @ Q2 + blocks.L33 @ Q3)
    assert with_nc == pytest.approx(np.linalg.norm(blocks.L33 @ Q3))


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_bitwise(tmp_path):
    blocks = make_blocks(demo_model(), 130, L_p=3, L_f=4, rng=seeded(38))
    path = tmp_path / "blocks.lqb"
    save_lq_blocks(blocks, path)
    back = load_lq_blocks(path)
    assert (back.m, back.p, back.L_p, back.L_f, back.M) == \
        (blocks.m, blocks.p, blocks.L_p, blocks.L_f, blocks.M)
    for name in _L_NAMES:
        np.testing.assert_array_equal(getattr(back, name),
                                      getattr(blocks, name))


def test_save_format_header(tmp_path):
    blocks = make_blocks(demo_model(), 110, L_p=2, L_f=3, rng=seeded(39))
    path = tmp_path / "blocks.lqb"
    save_lq_blocks(blocks, path)
    raw = path.read_bytes()
    assert raw[:4] == b"LQB2"
    m, p, L_p, L_f, M = struct.unpack_from("<5q", raw, 4)
    assert (m, p, L_p, L_f, M) == (1, 1, 2, 3, blocks.M)
    d1, d2, d3 = blocks.dim_past, blocks.dim_u, blocks.dim_y
    n_floats = d1 * d1 + d2 * d1 + d2 * d2 + d3 * d1 + d3 * d2 + d3 * d3
    assert len(raw) == 4 + 40 + 8 * n_floats


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.lqb"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_lq_blocks(path)


def test_load_rejects_old_format_with_rerun_hint(tmp_path):
    """A dump in the older LQB1 layout (L blocks followed by Q) is refused
    with a message naming the format and how to regenerate it."""
    blocks = make_blocks(demo_model(), 110, L_p=2, L_f=3, rng=seeded(41))
    path = tmp_path / "blocks.lqb"
    save_lq_blocks(blocks, path)
    raw = path.read_bytes()
    n_q = 8 * (blocks.dim_past + blocks.dim_u + blocks.dim_y) * blocks.M
    old = tmp_path / "old.lqb"
    old.write_bytes(b"LQB1" + raw[4:] + b"\x00" * n_q)
    with pytest.raises(ValueError, match="LQB1") as err:
        load_lq_blocks(old)
    assert "ddpc factorize --dump" in str(err.value)


def test_load_rejects_truncation_and_trailing(tmp_path):
    blocks = make_blocks(demo_model(), 110, L_p=2, L_f=3, rng=seeded(40))
    path = tmp_path / "blocks.lqb"
    save_lq_blocks(blocks, path)
    raw = path.read_bytes()
    (tmp_path / "short.lqb").write_bytes(raw[:-9])
    with pytest.raises(ValueError):
        load_lq_blocks(tmp_path / "short.lqb")
    (tmp_path / "long.lqb").write_bytes(raw + b"\x00")
    with pytest.raises(ValueError):
        load_lq_blocks(tmp_path / "long.lqb")


@pytest.mark.parametrize("over,named", [
    (dict(L_p=0), "L_p"), (dict(L_f=-1), "L_f"), (dict(m=0), "m"),
    (dict(m=-2), "m"), (dict(p=0), "p"), (dict(M=-5), "M"),
    (dict(M=9), "M"), (dict(m=10**6), "M"),
    (dict(m=10**6, L_f=10**6, M=10**13), "length"),
], ids=["L_p-0", "L_f-negative", "m-0", "m-negative", "p-0", "M-negative",
        "M-below-rows", "m-huge", "huge-blocks"])
def test_load_rejects_an_impossible_header(tmp_path, over, named):
    """A header field below 1, an ``M`` below the stack's row count
    ``(m+p)(L_p+L_f)`` (10 here), or dimensions whose blocks the file does
    not hold are refused before any block is read, with a ``ValueError``
    that names the path and the field."""
    blocks = make_blocks(demo_model(), 110, L_p=2, L_f=3, rng=seeded(42))
    path = tmp_path / "blocks.lqb"
    save_lq_blocks(blocks, path)
    raw = bytearray(path.read_bytes())
    header = dict(zip(("m", "p", "L_p", "L_f", "M"),
                      struct.unpack_from("<5q", raw, 4)))
    header.update(over)
    struct.pack_into("<5q", raw, 4, *header.values())
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*"
                                         rf"\b{named}\b"):
        load_lq_blocks(path)
