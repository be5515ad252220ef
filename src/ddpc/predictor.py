"""Multi-step output predictors identified from Hankel data.

Two families are provided: the unconstrained least-squares predictor,
which is generally non-causal because future inputs beyond step i may
enter the i-th predicted output, and the causal predictor obtained by
restricting each output block row to inputs up to its own step.  The
causal fit has a closed form in terms of the LQ blocks, equal to one
least-squares fit per output block row.  A predictor maps a past window
and an input plan to ``y_f = K_p @ z_p + K_f @ u_f``; :func:`fit_residual`
measures it on its training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient
from .lq import LqBlocks, causal_split
from .trajectory import HankelPartition

__all__ = [
    "Predictor",
    "fit_spc",
    "fit_causal",
    "fit_residual",
]

_PINV_RTOL = 1e-10


@dataclass(frozen=True)
class Predictor:
    """Affine multi-step predictor ``y_f = K_p @ z_p + K_f @ u_f``.

    Attributes:
        K_p: Gain on the stacked past window, shape ``(p*L_f, (m+p)*L_p)``.
        K_f: Gain on the stacked future inputs, shape ``(p*L_f, m*L_f)``.
        causal: True when ``K_f`` is block-lower-triangular by construction.
    """

    K_p: np.ndarray
    K_f: np.ndarray
    causal: bool
    m: int
    p: int
    L_p: int
    L_f: int

    def __post_init__(self):
        d1 = (self.m + self.p) * self.L_p
        d2 = self.m * self.L_f
        d3 = self.p * self.L_f
        if self.K_p.shape != (d3, d1) or self.K_f.shape != (d3, d2):
            raise DimensionMismatch(
                f"predictor gains have shapes {self.K_p.shape}/{self.K_f.shape}, "
                f"expected {(d3, d1)}/{(d3, d2)}"
            )


def _require_excited_inputs(part: HankelPartition) -> None:
    """The input Hankel over the full horizon must have full row rank."""
    H_u = np.vstack([part.U_p, part.U_f])
    sv = np.linalg.svd(H_u, compute_uv=False)
    if H_u.shape[0] > H_u.shape[1] or sv[-1] <= _PINV_RTOL * sv[0]:
        raise RankDeficient(
            f"input is not persistently exciting of order {part.spec.L}; "
            "the least-squares predictor is not identifiable"
        )


def fit_spc(part: HankelPartition) -> Predictor:
    """Fit the unconstrained (non-causal) least-squares predictor.

    Regresses ``Y_f`` on ``[Z_p; U_f]``; when the regressor is
    rank-deficient, as for exactly deterministic records, the minimum-norm
    solution is returned (SVD cutoff ``1e-10`` relative).

    Raises:
        RankDeficient: If the input signal fails persistency of excitation
            over the combined horizon.
    """
    _require_excited_inputs(part)
    regressor = np.vstack([part.Z_p, part.U_f])
    K_t, *_ = np.linalg.lstsq(regressor.T, part.Y_f.T, rcond=_PINV_RTOL)
    K = K_t.T
    d1 = part.Z_p.shape[0]
    return Predictor(K_p=K[:, :d1], K_f=K[:, d1:], causal=False,
                     m=part.m, p=part.p, L_p=part.spec.L_p, L_f=part.spec.L_f)


def _past_future_factor(blocks: LqBlocks) -> np.ndarray:
    """Assemble ``W = [[L11, 0], [L21, L22]]``."""
    d1, d2 = blocks.dim_past, blocks.dim_u
    W = np.zeros((d1 + d2, d1 + d2))
    W[:d1, :d1] = blocks.L11
    W[d1:, :d1] = blocks.L21
    W[d1:, d1:] = blocks.L22
    return W


def fit_causal(blocks: LqBlocks) -> Predictor:
    """Fit the causal predictor from the LQ blocks in closed form.

    The gain is ``[L31  LT(L32)] @ inv(W)`` where ``LT`` keeps the
    block-lower-triangular part of ``L32`` and ``W = [[L11, 0], [L21,
    L22]]``.  Row block i of the result coincides with the least-squares
    regression of the i-th future outputs on the past and on inputs up to
    step i only.  When ``L11`` is singular (deterministic records) the
    equivalent block-row form with pseudo-inverses is used instead.
    """
    split = causal_split(blocks)
    d1 = blocks.dim_past
    m, p, L_f = blocks.m, blocks.p, blocks.L_f
    if blocks.past_is_nonsingular():
        right = np.hstack([blocks.L31, split.causal])
        W = _past_future_factor(blocks)
        K = scipy.linalg.solve_triangular(W.T, right.T, lower=False).T
    else:
        K = np.zeros((p * L_f, d1 + m * L_f))
        for i in range(1, L_f + 1):
            rows = slice((i - 1) * p, i * p)
            cols = i * m
            W_i = np.zeros((d1 + cols, d1 + cols))
            W_i[:d1, :d1] = blocks.L11
            W_i[d1:, :d1] = blocks.L21[:cols]
            W_i[d1:, d1:] = blocks.L22[:cols, :cols]
            right_i = np.hstack([blocks.L31[rows], blocks.L32[rows, :cols]])
            K[rows, :d1 + cols] = right_i @ np.linalg.pinv(W_i, rcond=_PINV_RTOL)
    return Predictor(K_p=K[:, :d1], K_f=K[:, d1:], causal=True,
                     m=m, p=p, L_p=blocks.L_p, L_f=L_f)


def fit_residual(part: HankelPartition, pred: Predictor) -> float:
    """Frobenius norm of the one-shot fit residual on the training data."""
    resid = part.Y_f - pred.K_p @ part.Z_p - pred.K_f @ part.U_f
    return float(np.linalg.norm(resid, "fro"))
