"""LQ factorization of the stacked Hankel matrix and its causal split.

The stacked matrix ``S = [Z_p; U_f; Y_f]`` is factored as ``L @ Q`` with
``L`` square lower-triangular and ``Q`` having orthonormal rows.  Only
``L`` is formed: its blocks carry everything the predictors and the
controllers need, and it is fixed by the data up to signs through the Gram
identity ``L @ L.T == S @ S.T``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient
from .trajectory import HankelPartition

__all__ = [
    "LqBlocks",
    "CausalSplit",
    "factorize",
    "causal_block_mask",
    "causal_split",
    "gamma1_of",
    "save_lq_blocks",
    "load_lq_blocks",
]

# Relative threshold on triangular diagonals below which a block is treated
# as singular.
_DIAG_RTOL = 1e-12
_PINV_RTOL = 1e-10

_MAGIC = b"LQB2"


@dataclass(frozen=True)
class LqBlocks:
    """Blocks of the lower-triangular LQ factor of one data record.

    Row blocks follow the stacking ``[Z_p; U_f; Y_f]``: sizes
    ``(m+p)*L_p``, ``m*L_f`` and ``p*L_f``.  ``L22`` is always nonsingular
    for data accepted by :func:`factorize`; ``L11`` is nonsingular for
    noise-perturbed data but may be singular when the record is exactly
    deterministic, in which case past-trajectory solves fall back to a
    minimum-norm solution (see :func:`gamma1_of`).  ``M`` is the number of
    Hankel columns the factor was computed from.
    """

    L11: np.ndarray
    L21: np.ndarray
    L22: np.ndarray
    L31: np.ndarray
    L32: np.ndarray
    L33: np.ndarray
    m: int
    p: int
    L_p: int
    L_f: int
    M: int

    @property
    def dim_past(self) -> int:
        return (self.m + self.p) * self.L_p

    @property
    def dim_u(self) -> int:
        return self.m * self.L_f

    @property
    def dim_y(self) -> int:
        return self.p * self.L_f

    def past_is_nonsingular(self) -> bool:
        """True when the past block solves by plain forward substitution."""
        return _diag_nonsingular(self.L11)


@dataclass(frozen=True)
class CausalSplit:
    """Block-lower-triangular part of ``L32`` and its complement.

    ``causal`` keeps the blocks of ``L32`` on and below the block diagonal
    of size ``p x m``; ``noncausal`` holds the strictly-upper blocks, so
    ``causal + noncausal == L32`` exactly.
    """

    causal: np.ndarray
    noncausal: np.ndarray


def _diag_nonsingular(tri: np.ndarray) -> bool:
    d = np.abs(np.diag(tri))
    if d.size == 0:
        return True
    return bool(d.min() > _DIAG_RTOL * d.max())


def factorize(part: HankelPartition) -> LqBlocks:
    """LQ-factorize the stacked Hankel matrix of a partition.

    ``L`` is the transpose of the triangular factor of a QR of the
    transposed stack, sign-normalized so its diagonal is nonnegative.  The
    orthonormal factor is never formed.

    Args:
        part: Past/future Hankel blocks of one trajectory.

    Returns:
        The `LqBlocks` handle (immutable; safe to share across controllers).

    Raises:
        RankDeficient: If the stack has more rows than columns, or if the
            future-input block ``L22`` is numerically singular.  Both
            conditions signal insufficient excitation for the horizons.
    """
    stack = np.vstack([part.Z_p, part.U_f, part.Y_f])
    n_rows, n_cols = stack.shape
    if n_cols < n_rows:
        raise RankDeficient(
            f"stacked Hankel matrix has {n_rows} rows but only {n_cols} "
            f"columns; record at least {n_rows + part.spec.L - 1} samples"
        )
    (r_t,) = scipy.linalg.qr(stack.T, mode="r")
    L = r_t[:n_rows].T.copy()
    # Fix the sign convention: nonnegative diagonal of L.
    L *= np.where(np.diag(L) < 0.0, -1.0, 1.0)[None, :]

    d1 = (part.m + part.p) * part.spec.L_p
    d2 = part.m * part.spec.L_f
    blocks = LqBlocks(
        L11=L[:d1, :d1],
        L21=L[d1:d1 + d2, :d1],
        L22=L[d1:d1 + d2, d1:d1 + d2],
        L31=L[d1 + d2:, :d1],
        L32=L[d1 + d2:, d1:d1 + d2],
        L33=L[d1 + d2:, d1 + d2:],
        m=part.m,
        p=part.p,
        L_p=part.spec.L_p,
        L_f=part.spec.L_f,
        M=n_cols,
    )
    if not _diag_nonsingular(blocks.L22):
        raise RankDeficient(
            "future-input block L22 is numerically singular; the input is "
            f"not persistently exciting over horizon L_f={part.spec.L_f}"
        )
    return blocks


def causal_block_mask(p: int, m: int, L_f: int) -> np.ndarray:
    """Boolean mask of the block-lower-triangular entries of ``L32``."""
    return np.kron(np.tril(np.ones((L_f, L_f))), np.ones((p, m))) > 0.5


def causal_split(blocks: LqBlocks) -> CausalSplit:
    """Split ``L32`` into its causal part and its non-causal complement.

    In the ``p x m`` block grid, entry block ``(i, j)`` is causal when
    ``j <= i``: the j-th future input may only influence outputs from step
    j onward.
    """
    mask = causal_block_mask(blocks.p, blocks.m, blocks.L_f)
    causal = np.where(mask, blocks.L32, 0.0)
    noncausal = blocks.L32 - causal
    return CausalSplit(causal=causal, noncausal=noncausal)


def gamma1_of(blocks: LqBlocks, z_p: np.ndarray) -> np.ndarray:
    """Latent past coordinates: solve ``L11 @ gamma1 = z_p``.

    Uses forward substitution when ``L11`` is nonsingular.  For exactly
    deterministic records ``L11`` is structurally singular; then the
    minimum-norm least-squares solution is returned, which is exact
    whenever ``z_p`` is a trajectory of the data-generating system.
    """
    z = np.asarray(z_p, dtype=float).reshape(-1)
    if z.shape[0] != blocks.dim_past:
        raise DimensionMismatch(
            f"z_p has length {z.shape[0]}, expected {blocks.dim_past}"
        )
    if blocks.past_is_nonsingular():
        return scipy.linalg.solve_triangular(blocks.L11, z, lower=True)
    gamma1, *_ = np.linalg.lstsq(blocks.L11, z, rcond=_PINV_RTOL)
    return gamma1


def save_lq_blocks(blocks: LqBlocks, path) -> None:
    """Dump the factorization to a little-endian binary file.

    Layout: 4-byte magic ``LQB2``, five little-endian int64 header fields
    ``(m, p, L_p, L_f, M)``, then the six blocks ``L11, L21, L22, L31,
    L32, L33`` as row-major float64.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<5q", blocks.m, blocks.p, blocks.L_p,
                             blocks.L_f, blocks.M))
        for block in (blocks.L11, blocks.L21, blocks.L22, blocks.L31,
                      blocks.L32, blocks.L33):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_lq_blocks(path) -> LqBlocks:
    """Read a file written by :func:`save_lq_blocks`."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == b"LQB1":
            raise ValueError(
                f"{path}: LQB1 dump from an older version (it also holds the "
                "orthonormal factor); re-run `ddpc factorize --dump`")
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an LQ block dump")
        m, p, L_p, L_f, M = struct.unpack("<5q", fh.read(40))
        d1 = (m + p) * L_p
        d2 = m * L_f
        d3 = p * L_f
        shapes = [
            (d1, d1), (d2, d1), (d2, d2), (d3, d1), (d3, d2), (d3, d3),
        ]
        arrays = []
        for shape in shapes:
            count = shape[0] * shape[1]
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise ValueError(f"{path}: truncated block of shape {shape}")
            arrays.append(np.frombuffer(buf, dtype="<f8").reshape(shape).copy())
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last block")
    return LqBlocks(*arrays, m=m, p=p, L_p=L_p, L_f=L_f, M=M)
