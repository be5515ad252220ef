"""Multi-step output predictors identified from Hankel data.

Both predictors come from one formula on the LQ blocks, ``[L31  C] @
inv(W)`` with ``W = [[L11, 0], [L21, L22]]``.  With ``C = L32`` it is the
unconstrained least-squares predictor, which is generally non-causal
because future inputs beyond step i may enter the i-th predicted output.
With ``C`` the block-lower-triangular part of ``L32`` it is the causal
predictor, equal to one least-squares fit per output block row that sees
inputs up to its own step only.  A predictor maps a past window and an
input plan to ``y_f = K_p @ z_p + K_f @ u_f``; :func:`fit_residual`
measures it on its training data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch
from .lq import _PINV_RTOL, LqBlocks, causal_split, factorize
from .trajectory import HankelPartition

__all__ = [
    "Predictor",
    "fit_spc",
    "fit_causal",
    "fit_residual",
]


@dataclass(frozen=True, eq=False)
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
        d1, d2, d3 = ((self.m + self.p) * self.L_p, self.m * self.L_f,
                      self.p * self.L_f)
        if self.K_p.shape != (d3, d1) or self.K_f.shape != (d3, d2):
            raise DimensionMismatch(
                f"predictor gains have shapes {self.K_p.shape}/"
                f"{self.K_f.shape}, expected {(d3, d1)}/{(d3, d2)}")


def _fit(blocks: LqBlocks, causal: bool) -> Predictor:
    """The gain ``[L31  C] @ inv(W)``, ``C`` the causal part of ``L32``
    when ``causal`` is set and all of ``L32`` otherwise.

    When ``L11`` is singular (deterministic records) the equivalent
    block-row form with pseudo-inverses is used instead: row block i
    regresses on the past and on the first ``i*m`` future inputs when
    causal, on all of them when not.
    """
    d1 = blocks.dim_past
    m, p, L_f = blocks.m, blocks.p, blocks.L_f
    C = causal_split(blocks).causal if causal else blocks.L32
    right = np.hstack([blocks.L31, C])
    W = np.block([[blocks.L11, np.zeros((d1, m * L_f))],
                  [blocks.L21, blocks.L22]])
    if blocks.past_is_nonsingular():
        K = scipy.linalg.solve_triangular(W.T, right.T, lower=False).T
    else:
        K = np.zeros_like(right)
        for i in range(1, L_f + 1):
            rows = slice((i - 1) * p, i * p)
            n = d1 + (i * m if causal else m * L_f)
            K[rows, :n] = right[rows, :n] @ np.linalg.pinv(W[:n, :n],
                                                           rcond=_PINV_RTOL)
    return Predictor(K_p=K[:, :d1], K_f=K[:, d1:], causal=causal,
                     m=m, p=p, L_p=blocks.L_p, L_f=L_f)


def fit_spc(part: HankelPartition) -> Predictor:
    """Fit the unconstrained (non-causal) least-squares predictor.

    The mask-off LQ formula ``[L31  L32] @ inv(W)``, equal to regressing
    ``Y_f`` on ``[Z_p; U_f]``; for a singular ``L11`` (exactly
    deterministic records) it is the minimum-norm solution.  The blocks
    are the partition's one factor: after ``factorize(part)`` nothing is
    factored again.

    Raises:
        RankDeficient: From :func:`~ddpc.lq.factorize`, if the input fails
            persistency of excitation over the combined horizon.
    """
    return _fit(factorize(part), False)


def fit_causal(blocks: LqBlocks) -> Predictor:
    """Fit the causal predictor: the LQ formula with ``C`` the
    block-lower-triangular part of ``L32``.  Row block i of the gain is the
    least-squares regression of the i-th future outputs on the past and on
    inputs up to step i only.
    """
    return _fit(blocks, True)


def fit_residual(part: HankelPartition, pred: Predictor) -> float:
    """Frobenius norm of the one-shot fit residual on the training data."""
    resid = part.Y_f - pred.K_p @ part.Z_p - pred.K_f @ part.U_f
    return float(np.linalg.norm(resid, "fro"))
