"""Predictive controllers over Hankel data and the receding-horizon loop.

Every variant is one box-constrained QP in decisions ``v`` with
``u_f = Fu v + bu`` and ``y_f = Fy v + by``, a PSD penalty ``v' W v`` and
optional equality rows ``E v = e``; only the offsets follow the measured
past window.  The variants differ only in these maps and penalties:

``spc``
    Future inputs as decisions, outputs through the unconstrained
    least-squares predictor (``Fu = I``, ``Fy = K_f``).
``causal_spc``
    Same, with the causal predictor.
``gamma``
    Latent coordinates of the LQ factorization; the past component is
    fixed by the measured window and the residual coordinate carries a
    quadratic penalty ``mu`` (``mu -> inf`` recovers ``spc``; the hard
    variant with the residual coordinate removed is also available).
``causal_gamma``
    Only the future-input coordinate is kept and the non-causal block of
    the output map is discarded.
``reg_gamma``
    ``gamma`` with a finite, tuned ``mu``.
``reg_causal_gamma``
    Causal split with both the non-causal coordinate (penalty ``lam``)
    and the residual coordinate (penalty ``mu``) kept as shrunk decisions.
``projreg_g``
    The equivalent program in the raw combination coordinates with a
    projection penalty (``Fu = U_f``, ``Fy = Y_f``, ``W = mu * Pi``,
    ``E = Z_p``); kept as a cross-check oracle.
``kf_mpc``
    Model-based MPC with a Kalman predictor (``Fu = I``, ``Fy = H``,
    ``by = Gamma x_hat``); the oracle ceiling when the true system is known.

:func:`make_controller` builds every variant from the handle that
``VARIANT_TABLE`` lists for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .lq import LqBlocks, CausalSplit, causal_split, gamma1_of, factorize
from .predictor import (
    Predictor,
    fit_causal,
    fit_spc,
    fit_spc_from_blocks,
)
from .qp import BoxQpSolver, QpProblem, QpSettings, QpStatus
from .sim import StateSpaceModel, _check_sane, step_model
from .trajectory import HankelPartition, Trajectory, stack_window

__all__ = [
    "VARIANTS",
    "VARIANT_TABLE",
    "CostSpec",
    "BoxConstraints",
    "ControllerSpec",
    "StepResult",
    "RolloutResult",
    "make_controller",
    "kf_update",
    "kf_predictor_matrices",
    "run_receding_horizon",
]


class VariantNeeds(NamedTuple):
    """What a variant is built from and which penalty weights it needs."""

    handles: tuple[str, ...]         # make_controller keywords, best first
    penalties: tuple[str, ...] = ()  # spec weights that must be >= 0
    hard_zero: bool = False          # gamma3_zero may replace the mu weight


VARIANT_TABLE = {
    "spc": VariantNeeds(("part", "blocks")),
    "causal_spc": VariantNeeds(("blocks", "part")),
    "gamma": VariantNeeds(("blocks", "part"), ("mu",), hard_zero=True),
    "causal_gamma": VariantNeeds(("blocks", "part")),
    "reg_gamma": VariantNeeds(("blocks", "part"), ("mu",), hard_zero=True),
    "reg_causal_gamma": VariantNeeds(("blocks", "part"), ("lam", "mu")),
    "projreg_g": VariantNeeds(("part",), ("mu",)),
    "kf_mpc": VariantNeeds(("model",)),
}

VARIANTS = tuple(VARIANT_TABLE)

_STATUS_SEVERITY = {
    QpStatus.SOLVED: 0,
    QpStatus.MAX_ITER: 1,
    QpStatus.PRIMAL_INFEASIBLE: 2,
    QpStatus.DUAL_INFEASIBLE: 3,
}

_EIG_TOL = 1e-12


def _check_weight(name: str, mat: np.ndarray, positive: bool) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > _EIG_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    eig_min = float(np.linalg.eigvalsh(mat).min())
    if positive and eig_min <= _EIG_TOL * scale:
        raise ValueError(f"{name} must be positive definite "
                         f"(min eigenvalue {eig_min:.3e})")
    if not positive and eig_min < -_EIG_TOL * scale:
        raise ValueError(f"{name} must be positive semidefinite "
                         f"(min eigenvalue {eig_min:.3e})")
    return mat


@dataclass(frozen=True)
class CostSpec:
    """Tracking cost ``sum |y - r|^2_q + |u|^2_r`` over a horizon.

    ``q_step`` (PSD) and ``r_step`` (PD) are per-step weights; the
    horizon-wide block-diagonal matrices are exposed as ``Q`` and ``R``.
    ``r`` is the default stacked reference used when a step is solved
    outside a receding-horizon loop; it defaults to zero.
    """

    q_step: np.ndarray
    r_step: np.ndarray
    L_f: int
    r: np.ndarray | None = None

    def __post_init__(self):
        q = _check_weight("q_step", self.q_step, positive=False)
        rw = _check_weight("r_step", self.r_step, positive=True)
        if self.L_f < 1:
            raise ValueError(f"L_f must be >= 1, got {self.L_f}")
        object.__setattr__(self, "q_step", q)
        object.__setattr__(self, "r_step", rw)
        if self.r is not None:
            ref = np.asarray(self.r, dtype=float).reshape(-1)
            if ref.shape[0] != q.shape[0] * self.L_f:
                raise DimensionMismatch(
                    f"reference has length {ref.shape[0]}, expected "
                    f"{q.shape[0] * self.L_f}")
            object.__setattr__(self, "r", ref)

    @property
    def p(self) -> int:
        return self.q_step.shape[0]

    @property
    def m(self) -> int:
        return self.r_step.shape[0]

    @property
    def Q(self) -> np.ndarray:
        return np.kron(np.eye(self.L_f), self.q_step)

    @property
    def R(self) -> np.ndarray:
        return np.kron(np.eye(self.L_f), self.r_step)

    def default_reference(self) -> np.ndarray:
        if self.r is not None:
            return self.r
        return np.zeros(self.p * self.L_f)


@dataclass(frozen=True)
class BoxConstraints:
    """Per-step box bounds on inputs and predicted outputs; ``+-inf`` opens
    a side."""

    u_lower: np.ndarray
    u_upper: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray

    def __post_init__(self):
        for name in ("u_lower", "u_upper", "y_lower", "y_upper"):
            val = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if np.isnan(val).any():
                raise ValueError(f"{name} contains NaN")
            object.__setattr__(self, name, val)
        if self.u_lower.shape != self.u_upper.shape:
            raise DimensionMismatch("input bound lengths differ")
        if self.y_lower.shape != self.y_upper.shape:
            raise DimensionMismatch("output bound lengths differ")
        if np.any(self.u_lower > self.u_upper):
            raise ValueError("some input lower bound exceeds its upper bound")
        if np.any(self.y_lower > self.y_upper):
            raise ValueError("some output lower bound exceeds its upper bound")

    @classmethod
    def unbounded(cls, m: int, p: int) -> "BoxConstraints":
        inf = float("inf")
        return cls(np.full(m, -inf), np.full(m, inf),
                   np.full(p, -inf), np.full(p, inf))

    def u_bounded(self) -> bool:
        return bool(np.isfinite(self.u_lower).any()
                    or np.isfinite(self.u_upper).any())

    def y_bounded(self) -> bool:
        return bool(np.isfinite(self.y_lower).any()
                    or np.isfinite(self.y_upper).any())

    def u_tiled(self, L_f: int) -> tuple[np.ndarray, np.ndarray]:
        return np.tile(self.u_lower, L_f), np.tile(self.u_upper, L_f)

    def y_tiled(self, L_f: int) -> tuple[np.ndarray, np.ndarray]:
        return np.tile(self.y_lower, L_f), np.tile(self.y_upper, L_f)


@dataclass(frozen=True)
class ControllerSpec:
    """Variant identifier plus cost, constraints and penalty weights."""

    variant: str
    cost: CostSpec
    boxes: BoxConstraints
    mu: float | None = None
    lam: float | None = None
    gamma3_zero: bool = False

    def __post_init__(self):
        needs = VARIANT_TABLE.get(self.variant)
        if needs is None:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.gamma3_zero and not needs.hard_zero:
            raise ValueError(f"variant {self.variant!r} has no residual "
                             "coordinate for gamma3_zero to drop")
        for name in needs.penalties:
            if name == "mu" and self.gamma3_zero:
                continue  # the hard variant drops the mu-weighted coordinate
            value = getattr(self, name)
            if value is None or value < 0:
                raise ValueError(f"variant {self.variant!r} needs {name} >= 0")
        if self.cost.m != self.boxes.u_lower.shape[0]:
            raise DimensionMismatch("cost and boxes disagree on input count")
        if self.cost.p != self.boxes.y_lower.shape[0]:
            raise DimensionMismatch("cost and boxes disagree on output count")


@dataclass
class StepResult:
    """Outcome of one receding-horizon step."""

    u_f: np.ndarray
    y_f: np.ndarray
    u_applied: np.ndarray
    objective: float
    qp_iterations: int
    qp_status: QpStatus
    primal_res: float
    dual_res: float


@dataclass
class RolloutResult:
    """A closed-loop run: applied data, per-step solves and realized cost."""

    trajectory: Trajectory
    reference: np.ndarray
    steps: list
    J: float
    J_y: float
    J_u: float

    @property
    def qp_iterations(self) -> int:
        return int(sum(s.qp_iterations for s in self.steps))

    @property
    def status(self) -> QpStatus:
        return max((s.qp_status for s in self.steps),
                   key=lambda s: _STATUS_SEVERITY[s])


# ---------------------------------------------------------------------------
# the condensed controller
# ---------------------------------------------------------------------------

_EMPTY = np.zeros(0)


def _checked_vector(name: str, value, length: int) -> np.ndarray:
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape[0] != length:
        raise DimensionMismatch(
            f"{name} has length {vec.shape[0]}, expected {length}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} contains NaN or infinite entries")
    return vec


class _CondensedController:
    """The one receding-horizon QP: ``u_f = Fu v + bu``, ``y_f = Fy v + by``.

    The cost adds the PSD penalty ``v' W v`` to the tracking cost, and the
    constraint rows are ``[E; Fu; Fy]``: optional equality rows
    ``E v = e`` first, then the input and output boxes that are bounded.
    Subclasses supply the per-step offsets ``(bu, by, e)``.  P and the
    constraint rows are fixed, so the QP factorization and warm starts are
    reused across receding-horizon steps.
    """

    _reads_z_p = True  # kf_mpc tracks its state through observe() instead

    def __init__(self, spec: ControllerSpec, Fu: np.ndarray, Fy: np.ndarray,
                 W: np.ndarray, L_p: int, qp_settings: QpSettings | None,
                 E: np.ndarray | None = None):
        self.spec = spec
        self.cost = spec.cost
        self.m, self.p, self.L_f = spec.cost.m, spec.cost.p, spec.cost.L_f
        self.L_p = L_p
        self.Fu, self.Fy, self.W = Fu, Fy, W
        self._FyQ = Fy.T @ spec.cost.Q
        self._FuR = Fu.T @ spec.cost.R
        P = 2.0 * (self._FyQ @ Fy + self._FuR @ Fu + W)
        P = 0.5 * (P + P.T)
        rows = [np.zeros((0, P.shape[0])) if E is None else E]
        self._with_u_rows = spec.boxes.u_bounded()
        self._with_y_rows = spec.boxes.y_bounded()
        if self._with_u_rows:
            rows.append(Fu)
        if self._with_y_rows:
            rows.append(Fy)
        self.P, self.A = P, np.vstack(rows)
        self.solver = BoxQpSolver(self.P, self.A, qp_settings)
        self._zero_u, self._zero_y = np.zeros(len(Fu)), np.zeros(len(Fy))
        self._warm_x = None
        self._warm_y = None

    # subclass hook
    def _offsets(self, z_p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _qp_data(self, z_p, r_f):
        r_f = _checked_vector(
            "r_f", self.cost.default_reference() if r_f is None else r_f,
            self.p * self.L_f)
        if self._reads_z_p:
            z_p = _checked_vector("z_p", z_p, (self.m + self.p) * self.L_p)
        bu, by, e = self._offsets(z_p)
        q = 2.0 * (self._FyQ @ (by - r_f) + self._FuR @ bu)
        lo_parts, hi_parts = [e], [e]
        if self._with_u_rows:
            lo_u, hi_u = self.spec.boxes.u_tiled(self.L_f)
            lo_parts.append(lo_u - bu)
            hi_parts.append(hi_u - bu)
        if self._with_y_rows:
            lo_y, hi_y = self.spec.boxes.y_tiled(self.L_f)
            lo_parts.append(lo_y - by)
            hi_parts.append(hi_y - by)
        return (q, np.concatenate(lo_parts), np.concatenate(hi_parts), bu, by,
                r_f)

    def condense(self, z_p=None, r_f=None) -> QpProblem:
        """Materialize the per-step QP for inspection or external solving."""
        q, lo, hi, *_ = self._qp_data(z_p, r_f)
        return QpProblem(P=self.P, q=q, A=self.A, lower=lo, upper=hi)

    def step(self, z_p=None, r_f=None) -> StepResult:
        """Solve one step from the past window ``z_p`` (ignored by
        ``kf_mpc``) and the reference ``r_f`` (default: the cost's).

        Raises ``DimensionMismatch`` for a wrong length and ``ValueError``
        for a NaN or infinite entry in either."""
        q, lo, hi, bu, by, r_f = self._qp_data(z_p, r_f)
        sol = self.solver.solve(q, lo, hi, x0=self._warm_x, y0=self._warm_y)
        self._warm_x, self._warm_y = sol.x, sol.y
        v = sol.x
        u_f = self.Fu @ v + bu
        y_f = self.Fy @ v + by
        err = y_f - r_f
        obj = float(err @ self.cost.Q @ err + u_f @ self.cost.R @ u_f
                    + v @ self.W @ v)
        return StepResult(u_f=u_f, y_f=y_f, u_applied=u_f[: self.m],
                          objective=obj, qp_iterations=sol.iterations,
                          qp_status=sol.status, primal_res=sol.primal_res,
                          dual_res=sol.dual_res)

    def observe(self, u, y) -> None:
        """Closed-loop measurement hook; data-driven variants are static."""

    def reset(self) -> None:
        self._warm_x = None
        self._warm_y = None


class _PredictorController(_CondensedController):
    """spc / causal_spc: decisions are the future inputs themselves."""

    def __init__(self, spec, pred: Predictor, qp_settings):
        d2 = pred.m * pred.L_f
        super().__init__(spec, Fu=np.eye(d2), Fy=pred.K_f.copy(),
                         W=np.zeros((d2, d2)), L_p=pred.L_p,
                         qp_settings=qp_settings)
        self.predictor = pred

    def _offsets(self, z_p):
        return self._zero_u, self.predictor.K_p @ z_p, _EMPTY


class _GammaController(_CondensedController):
    """Latent-coordinate variants; offsets come from the past coordinate."""

    def __init__(self, spec, blocks: LqBlocks, split: CausalSplit | None,
                 qp_settings):
        self.blocks = blocks
        d2, d3 = blocks.dim_u, blocks.dim_y
        variant = spec.variant
        if variant in ("gamma", "reg_gamma"):
            if spec.gamma3_zero:
                Fu = np.hstack([blocks.L22])
                Fy = np.hstack([blocks.L32])
                reg = np.zeros(d2)
            else:
                Fu = np.hstack([blocks.L22, np.zeros((d2, d3))])
                Fy = np.hstack([blocks.L32, blocks.L33])
                reg = np.concatenate([np.zeros(d2), np.full(d3, spec.mu)])
        elif variant == "causal_gamma":
            split = split or causal_split(blocks)
            Fu = blocks.L22.copy()
            Fy = split.causal.copy()
            reg = np.zeros(d2)
        else:  # reg_causal_gamma
            split = split or causal_split(blocks)
            Fu = np.hstack([blocks.L22, np.zeros((d2, d2)),
                            np.zeros((d2, d3))])
            Fy = np.hstack([split.causal, split.noncausal, blocks.L33])
            reg = np.concatenate([np.zeros(d2), np.full(d2, spec.lam),
                                  np.full(d3, spec.mu)])
        super().__init__(spec, Fu=Fu, Fy=Fy, W=np.diag(reg), L_p=blocks.L_p,
                         qp_settings=qp_settings)

    def _offsets(self, z_p):
        gamma1 = gamma1_of(self.blocks, z_p)
        return self.blocks.L21 @ gamma1, self.blocks.L31 @ gamma1, _EMPTY


class _KfMpcController(_CondensedController):
    """Model-based MPC over a Kalman one-step-ahead predictor state.

    The decisions are the future inputs and ``y_f = H u_f + Gamma x_hat``.
    The state estimate ``x_hat`` starts at zero and is advanced by
    :func:`kf_update` from the closed-loop measurements fed through
    :meth:`observe`; the predictor over the horizon is exact for the
    declared model.
    """

    _reads_z_p = False

    def __init__(self, spec, model: StateSpaceModel, L_p: int, qp_settings):
        self.model = model
        self.Gamma, self.H = kf_predictor_matrices(model, spec.cost.L_f)
        d2 = model.m * spec.cost.L_f
        super().__init__(spec, Fu=np.eye(d2), Fy=self.H,
                         W=np.zeros((d2, d2)), L_p=L_p,
                         qp_settings=qp_settings)
        self.x_hat = np.zeros(model.n)

    def _offsets(self, z_p):
        return self._zero_u, self.Gamma @ self.x_hat, _EMPTY

    def observe(self, u, y) -> None:
        self.x_hat = kf_update(self.model, self.x_hat, u, y)

    def reset(self) -> None:
        super().reset()
        self.x_hat = np.zeros(self.model.n)


class _GSpaceController(_CondensedController):
    """Projection-regularized program in raw combination coordinates.

    The decision vector ``g`` multiplies the data columns directly
    (``u_f = U_f g``, ``y_f = Y_f g``); consistency with the past window is
    the equality row block ``Z_p g = z_p`` and the component orthogonal to
    the past/future-input row space carries the penalty ``mu``.  Solutions
    match the latent-coordinate program with the same ``mu``; the variant
    exists as a cross-check and is O(M^2) per solve.
    """

    def __init__(self, spec, part: HankelPartition, qp_settings):
        ZU = np.vstack([part.Z_p, part.U_f])
        proj = np.linalg.pinv(ZU, rcond=1e-10) @ ZU
        resid_proj = np.eye(part.M) - proj
        # symmetrize: pinv-based projector is symmetric up to round-off
        resid_proj = 0.5 * (resid_proj + resid_proj.T)
        super().__init__(spec, Fu=part.U_f, Fy=part.Y_f,
                         W=spec.mu * resid_proj, L_p=part.spec.L_p,
                         qp_settings=qp_settings, E=part.Z_p)

    def _offsets(self, z_p):
        return self._zero_u, self._zero_y, z_p


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def make_controller(spec: ControllerSpec, *,
                    blocks: LqBlocks | None = None,
                    part: HankelPartition | None = None,
                    split: CausalSplit | None = None,
                    model: StateSpaceModel | None = None,
                    L_p: int | None = None,
                    qp_settings: QpSettings | None = None):
    """Build the controller for ``spec.variant`` from a handle it accepts.

    ``spc`` accepts the raw partition or the LQ blocks; the latent variants
    need blocks (a partition is factorized on the fly); ``projreg_g`` needs
    the partition; ``kf_mpc`` needs the model and takes ``L_p`` as its
    warm-up window.  ``split`` overrides the causal split; unused handles
    are ignored.  ``step(z_p, r_f)`` solves a step and ``condense(z_p,
    r_f)`` materializes its QP.
    """
    variant = spec.variant
    given = {"blocks": blocks, "part": part, "model": model}
    accepted = VARIANT_TABLE[variant].handles
    if all(given[h] is None for h in accepted):
        raise ValueError(f"{variant} needs {' or '.join(accepted)}")
    if variant == "kf_mpc":
        return _KfMpcController(spec, model, L_p or 0, qp_settings)
    if variant == "projreg_g":
        return _GSpaceController(spec, part, qp_settings)
    if variant == "spc":
        pred = fit_spc(part) if part is not None \
            else fit_spc_from_blocks(blocks)
        return _PredictorController(spec, pred, qp_settings)
    if blocks is None:
        blocks = factorize(part)
    if variant == "causal_spc":
        return _PredictorController(spec, fit_causal(blocks), qp_settings)
    return _GammaController(spec, blocks, split, qp_settings)


def kf_update(model: StateSpaceModel, x_hat: np.ndarray, u: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """One innovation-form predictor update of the state estimate."""
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    innovation = y - model.C @ x_hat - model.D @ u
    return model.A @ x_hat + model.B @ u + model.K @ innovation


def kf_predictor_matrices(model: StateSpaceModel,
                          L_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked observability map and input-response Toeplitz blocks.

    Returns ``(Gamma, H)`` with ``y_f = Gamma x + H u_f`` for the
    noise-free response over ``L_f`` steps.
    """
    n, m, p = model.n, model.m, model.p
    Gamma = np.empty((p * L_f, n))
    powers = [np.eye(n)]
    for _ in range(L_f - 1):
        powers.append(model.A @ powers[-1])
    for i in range(L_f):
        Gamma[i * p:(i + 1) * p] = model.C @ powers[i]
    H = np.zeros((p * L_f, m * L_f))
    for i in range(L_f):
        H[i * p:(i + 1) * p, i * m:(i + 1) * m] = model.D
        for j in range(i):
            H[i * p:(i + 1) * p, j * m:(j + 1) * m] = \
                model.C @ powers[i - j - 1] @ model.B
    return Gamma, H


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


def run_receding_horizon(plant, controller, reference: np.ndarray,
                         n_steps: int,
                         rng: np.random.Generator | None = None,
                         warmup_inputs: np.ndarray | None = None
                         ) -> RolloutResult:
    """Drive the plant with a controller for ``n_steps`` moves.

    A warm-up phase of ``controller.L_p`` steps first runs the plant under
    ``warmup_inputs`` (zeros by default) so the measured past window is
    fully populated; the controller observes the warm-up data.  All
    innovations are drawn up-front from ``rng`` so that runs with the same
    generator state are paired across controllers.

    Args:
        plant: :class:`StateSpaceModel` or wrapper; starts at rest.
        controller: Any object from :func:`make_controller`.
        reference: Setpoint schedule, shape ``(p, >= n_steps)``; the last
            column is held for the look-ahead beyond its end.
        n_steps: Number of closed-loop moves.
        rng: Innovation stream; omit for a noise-free run.
        warmup_inputs: Optional ``(m, L_p)`` record applied before the
            first move.

    Raises:
        Diverged: If any output magnitude exceeds ``1e6``.
    """
    m, p = controller.m, controller.p
    L_p, L_f = controller.L_p, controller.L_f
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    if ref.shape[0] != p or ref.shape[1] < n_steps:
        raise DimensionMismatch(
            f"reference must be (p, >= n_steps), got {ref.shape}")
    total = n_steps + L_f
    if ref.shape[1] < total:
        ref = np.hstack([ref, np.repeat(ref[:, -1:],
                                        total - ref.shape[1], axis=1)])
    if warmup_inputs is None:
        warmup = np.zeros((m, L_p))
    else:
        warmup = np.atleast_2d(np.asarray(warmup_inputs, dtype=float))
        if warmup.shape != (m, L_p):
            raise DimensionMismatch(
                f"warmup_inputs must be (m, L_p) = {(m, L_p)}, "
                f"got {warmup.shape}")
    sigma = plant.sigma_e
    if sigma > 0.0 and rng is not None:
        innov = sigma * rng.standard_normal((p, L_p + n_steps))
    else:
        innov = np.zeros((p, L_p + n_steps))

    controller.reset()
    x = np.zeros(plant.n)
    u_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    for t in range(L_p):
        u_t = warmup[:, t]
        x, y_t = step_model(plant, x, u_t, innov[:, t])
        _check_sane(y_t, t - L_p)
        u_hist.append(u_t.copy())
        y_hist.append(y_t)
        controller.observe(u_t, y_t)

    q_step, r_step = controller.cost.q_step, controller.cost.r_step
    steps: list[StepResult] = []
    u_log = np.empty((m, n_steps))
    y_log = np.empty((p, n_steps))
    J_y = 0.0
    J_u = 0.0
    for t in range(n_steps):
        if L_p > 0:
            z_p = np.concatenate([
                np.concatenate(u_hist[-L_p:]),
                np.concatenate(y_hist[-L_p:]),
            ])
        else:
            z_p = np.zeros(0)
        r_f = stack_window(ref[:, t:t + L_f])
        res = controller.step(z_p, r_f)
        u_t = res.u_applied
        x, y_t = step_model(plant, x, u_t, innov[:, L_p + t])
        _check_sane(y_t, t)
        controller.observe(u_t, y_t)
        u_hist.append(np.asarray(u_t, dtype=float))
        y_hist.append(y_t)
        if L_p > 0:
            u_hist = u_hist[-L_p:]
            y_hist = y_hist[-L_p:]
        err = y_t - ref[:, t]
        J_y += float(err @ q_step @ err)
        J_u += float(u_t @ r_step @ u_t)
        u_log[:, t] = u_t
        y_log[:, t] = y_t
        steps.append(res)
    traj = Trajectory(u_log, y_log)
    return RolloutResult(trajectory=traj, reference=ref[:, :n_steps],
                         steps=steps, J=J_y + J_u, J_y=J_y, J_u=J_u)

