"""LQ factorization of the stacked Hankel matrix and its causal split.

The stacked matrix ``S = [Z_p; U_f; Y_f]`` is factored as ``L @ Q`` with
``L`` square lower-triangular and ``Q`` having orthonormal rows.  Only
``L`` is formed: its blocks carry everything the predictors and the
controllers need, and it is fixed by the data up to signs through the Gram
identity ``L @ L.T == S @ S.T``.  So ``factorize`` takes ``L`` as the
Cholesky factor of the Gram matrix ``S @ S.T``, and falls back to a QR of
the stack only where that factor is singular or too ill-conditioned to
trust (see :func:`factorize`).  A partition is factored once: its
``LqBlocks`` are kept on it, and every later ``factorize`` of it (through
``fit_spc`` or ``make_controller(part=)`` too) returns them.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .errors import RankDeficient
from .trajectory import HankelPartition

__all__ = [
    "LqBlocks",
    "CausalSplit",
    "factorize",
    "causal_block_mask",
    "causal_split",
    "save_lq_blocks",
    "load_lq_blocks",
]

# Relative threshold on triangular diagonals below which a block is treated
# as singular.
_DIAG_RTOL = 1e-12
# Relative singular-value cutoff of the minimum-norm fallbacks.
_PINV_RTOL = 1e-10

# Relative bound on the diagonal of the Gram route's Cholesky factor at or
# below which `factorize` runs the QR instead.  The Gram route's relative
# error grows like eps * kappa(L)^2, against eps * kappa(L) for the QR: a
# pivot d (relative to the largest) carries an error near eps / d^2, about
# 2e-8 at the bound.  The Cholesky factor of a singular Gram matrix keeps
# pivots near sqrt(eps) ~ 1e-8 rather than the eps-level ones of the QR, so
# the bound sits well above 1e-8, and every record whose QR factor
# `_DIAG_RTOL` would call singular goes to the QR.  The bundled noisy
# records read 0.02-0.12.
_GRAM_RTOL = 1e-4

_MAGIC = b"LQB2"
# Block size of the QR fallback in `factorize`, chosen once by timing: 16
# was the fastest on the table1 stack from n_d = 200 to 5000.
_QR_BLOCK = 16

_SYRK = get_blas_funcs("syrk", dtype=np.float64)
_POTRF = get_lapack_funcs("potrf", dtype=np.float64)
_GEQRT = get_lapack_funcs("geqrt", dtype=np.float64)

_BLOCK_NAMES = ("L11", "L21", "L22", "L31", "L32", "L33")


@dataclass(frozen=True, eq=False)
class LqBlocks:
    """Blocks of the lower-triangular LQ factor of one data record.

    Row blocks follow the stacking ``[Z_p; U_f; Y_f]``: sizes
    ``(m+p)*L_p``, ``m*L_f`` and ``p*L_f``.  ``L22`` is always nonsingular
    for data accepted by :func:`factorize`; ``L11`` is nonsingular for
    noise-perturbed data but may be singular when the record is exactly
    deterministic, in which case past-trajectory solves fall back to a
    minimum-norm solution (see :attr:`past_map`).  ``M`` is the number of
    Hankel columns the factor was computed from.

    The blocks are read-only, since one factor is shared by every
    predictor and controller built from it: a writable block passed in is
    copied and the copy frozen.
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

    def __post_init__(self):
        for name in _BLOCK_NAMES:
            block = np.asarray(getattr(self, name), dtype=float)
            if block.flags.writeable:
                block = block.copy()
                block.flags.writeable = False
            object.__setattr__(self, name, block)

    def __reduce__(self):
        # rebuilt from the blocks: a pickled array comes back writable
        return LqBlocks, (*(getattr(self, name) for name in _BLOCK_NAMES),
                          self.m, self.p, self.L_p, self.L_f, self.M)

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

    @functools.cached_property
    def past_map(self) -> np.ndarray:
        """The read-only past map ``B = [L21; L31] @ inv(L11)``, formed once.

        The first ``dim_u`` rows of ``B @ z_p`` are ``L21 @ gamma1`` and
        the last ``dim_y`` rows ``L31 @ gamma1``, for the past coordinate
        ``gamma1`` that solves ``L11 @ gamma1 = z_p``: by forward
        substitution, or, for a singular ``L11``, its minimum-norm
        pseudo-inverse, which is exact whenever ``z_p`` is a trajectory of
        the data-generating system.
        """
        L_past = np.vstack([self.L21, self.L31])
        if self.past_is_nonsingular():
            B = scipy.linalg.solve_triangular(self.L11, L_past.T, trans="T",
                                              lower=True).T
        else:
            B = L_past @ np.linalg.pinv(self.L11, rcond=_PINV_RTOL)
        B.flags.writeable = False
        return B


@dataclass(frozen=True, eq=False)
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
    """LQ-factorize the stacked Hankel matrix of a partition, once.

    ``L`` is the lower Cholesky factor of the Gram matrix ``S @ S.T``,
    whose diagonal is positive.  One rule sends a record to the QR
    instead: where the Gram matrix overflows, the Cholesky factorization
    fails, or the factor's smallest diagonal entry is at most
    ``_GRAM_RTOL`` times its largest, ``L`` is the transpose of the
    triangular factor of a QR of the transposed stack, sign-normalized so
    its diagonal is nonnegative.
    Exactly deterministic records, whose ``L11`` is singular, take the
    QR.  The orthonormal factor is never formed, and the stack is not
    copied except for the QR.  ``L`` is frozen, and the blocks are kept on
    the partition, so a later call on the same partition returns the same
    object without factoring again.

    Args:
        part: Past/future Hankel blocks of one trajectory.

    Returns:
        The `LqBlocks` handle (read-only; safe to share across
        controllers).

    Raises:
        ValueError: If the stack has a NaN or infinite entry.
        RankDeficient: If the stack has more rows than columns, or if the
            future-input block ``L22`` is numerically singular.  Both
            conditions signal insufficient excitation for the horizons.
    """
    if part._lq is not None:
        return part._lq
    # S S' by BLAS syrk on the Fortran-ordered view of the stack (its lower
    # triangle only).  Its diagonal, the rows' sums of squares, is finite
    # when every entry is; where it is not, the entries are tested, and
    # finite entries whose squares overflow take the QR.
    gram = _SYRK(1.0, part.stack.T, trans=1, lower=1)
    finite = np.isfinite(gram.diagonal()).all()
    if not finite and not np.isfinite(part.stack).all():
        raise ValueError("Hankel partition has NaN or infinite entries")
    n_rows, n_cols = part.stack.shape
    if n_cols < n_rows:
        raise RankDeficient(
            f"stacked Hankel matrix has {n_rows} rows but only {n_cols} "
            f"columns; record at least {n_rows + part.spec.L - 1} samples"
        )
    if finite:  # the lower Cholesky factor of S S', in place
        L, info = _POTRF(gram, lower=1, clean=1, overwrite_a=1)
        diag = np.diag(L)
    if not finite or info != 0 or diag.min() <= _GRAM_RTOL * diag.max():
        # LAPACK's geqrt (recursive panels, level-3 updates) in place on
        # the Fortran-ordered view of a copy of the stack; its block size is
        # the constant _QR_BLOCK, since the blocking sets the rounding of L
        r_t, _, info = _GEQRT(min(_QR_BLOCK, n_rows), part.stack.copy().T,
                              overwrite_a=True)
        if info != 0:
            raise ValueError(f"geqrt failed with info={info}")
        L = np.tril(r_t[:n_rows].T)
        # Fix the sign convention: nonnegative diagonal of L.
        L *= np.where(np.diag(L) < 0.0, -1.0, 1.0)[None, :]
    L.flags.writeable = False

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
    object.__setattr__(part, "_lq", blocks)
    return blocks


def causal_block_mask(p: int, m: int, L_f: int) -> np.ndarray:
    """Boolean mask of the block-lower-triangular entries of ``L32``."""
    return _causal_mask(p, m, L_f).copy()


@functools.lru_cache(maxsize=8)
def _causal_mask(p: int, m: int, L_f: int) -> np.ndarray:
    """The mask of one shape, formed once and read-only, since every
    split of that shape reads the same array."""
    mask = np.kron(np.tril(np.ones((L_f, L_f))), np.ones((p, m))) > 0.5
    mask.flags.writeable = False
    return mask


def causal_split(blocks: LqBlocks) -> CausalSplit:
    """Split ``L32`` into its causal part and its non-causal complement.

    In the ``p x m`` block grid, entry block ``(i, j)`` is causal when
    ``j <= i``: the j-th future input may only influence outputs from step
    j onward.
    """
    mask = _causal_mask(blocks.p, blocks.m, blocks.L_f)
    causal = np.where(mask, blocks.L32, 0.0)
    noncausal = blocks.L32 - causal
    return CausalSplit(causal=causal, noncausal=noncausal)


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
        for name in _BLOCK_NAMES:
            fh.write(np.ascontiguousarray(getattr(blocks, name),
                                          dtype="<f8").tobytes())


def load_lq_blocks(path) -> LqBlocks:
    """Read a file written by :func:`save_lq_blocks`.

    The header is checked before any block is read: ``m``, ``p``, ``L_p``
    and ``L_f`` are at least 1, ``M`` is at least ``(m+p)(L_p+L_f)`` (the
    bound :func:`factorize` enforces), and the file holds exactly the
    header and the blocks it names.  Each failure is a ``ValueError`` that
    names the path and the field.  The blocks are read-only views of the
    bytes read.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == b"LQB1":
            raise ValueError(
                f"{path}: LQB1 dump from an older version (it also holds the "
                "orthonormal factor); re-run `ddpc factorize --dump`")
        if magic != _MAGIC:
            raise ValueError(f"{path}: not an LQ block dump")
        header = fh.read(40)
        if len(header) != 40:
            raise ValueError(f"{path}: truncated header")
        m, p, L_p, L_f, M = struct.unpack("<5q", header)
        for name, value in (("m", m), ("p", p), ("L_p", L_p), ("L_f", L_f)):
            if value < 1:
                raise ValueError(f"{path}: header {name} = {value}, expected "
                                 ">= 1")
        n_rows = (m + p) * (L_p + L_f)
        if M < n_rows:
            raise ValueError(f"{path}: header M = {M}, expected >= "
                             f"(m+p)(L_p+L_f) = {n_rows}")
        d1, d2, d3 = (m + p) * L_p, m * L_f, p * L_f
        shapes = [(d1, d1), (d2, d1), (d2, d2), (d3, d1), (d3, d2), (d3, d3)]
        size = 4 + 40 + 8 * sum(rows * cols for rows, cols in shapes)
        actual = os.fstat(fh.fileno()).st_size
        if actual != size:
            raise ValueError(f"{path}: file length is {actual} bytes, but its "
                             f"header names {size}")
        # read-only views of the bytes read, as LqBlocks holds them
        arrays = [np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
                  .reshape(rows, cols) for rows, cols in shapes]
    return LqBlocks(*arrays, m=m, p=p, L_p=L_p, L_f=L_f, M=M)
