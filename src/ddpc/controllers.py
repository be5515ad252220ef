"""Predictive controllers over Hankel data and the receding-horizon loop.

Every variant is one box-constrained QP in decisions ``v`` with
``u_f = Fu v + bu`` and ``y_f = Fy v + by``, a PSD penalty ``v' W v`` and
optional equality rows ``E v = z_p``.  Only the offsets follow the
measured past window, and they are linear in it (in the state estimate
for ``kf_mpc``), so the step's data ``q`` and bounds are affine in
``theta = (z_p, r_f)``.  Each controller builds that data map once, and
its solver answers a step whose active set repeats with one cached affine
map in ``theta``.  The variants differ only in these maps and penalties:

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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .lq import LqBlocks, causal_split, factorize
from .predictor import Predictor, _fit
from .qp import (BoxQpSolver, QpProblem, QpStatus, _check_bounds,
                 _check_weight)
from .sim import (NonlinearWrapper, StateSpaceModel, _check_sane,
                  _innovations, step_model)
from .trajectory import HankelPartition, Trajectory

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
    causal: bool = False             # the output map keeps only causal L32


VARIANT_TABLE = {
    "spc": VariantNeeds(("blocks", "part")),
    "causal_spc": VariantNeeds(("blocks", "part"), causal=True),
    "gamma": VariantNeeds(("blocks", "part"), ("mu",), hard_zero=True),
    "causal_gamma": VariantNeeds(("blocks", "part"), causal=True),
    "reg_gamma": VariantNeeds(("blocks", "part"), ("mu",), hard_zero=True),
    "reg_causal_gamma": VariantNeeds(("blocks", "part"), ("lam", "mu"),
                                     causal=True),
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

@dataclass(frozen=True, eq=False)
class CostSpec:
    """Tracking cost ``sum |y - r|^2_q + |u|^2_r`` over a horizon.

    ``q_step`` (PSD) and ``r_step`` (PD) are per-step weights; the
    horizon-wide block-diagonal matrices ``Q = kron(I, q_step)`` and
    ``R = kron(I, r_step)`` are formed once, when the spec is made.  All
    four are read-only copies, since every controller built from the spec
    reads the same arrays.  The reference ``r`` is given per step
    (``step(z_p, r_f)``).
    """

    q_step: np.ndarray
    r_step: np.ndarray
    L_f: int
    Q: np.ndarray = field(init=False, repr=False)
    R: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = _check_weight("q_step", self.q_step, positive=False).copy()
        rw = _check_weight("r_step", self.r_step, positive=True).copy()
        if self.L_f < 1:
            raise ValueError(f"L_f must be >= 1, got {self.L_f}")
        eye = np.eye(self.L_f)
        for name, weight in (("q_step", q), ("r_step", rw),
                             ("Q", np.kron(eye, q)), ("R", np.kron(eye, rw))):
            weight.flags.writeable = False
            object.__setattr__(self, name, weight)

    def __reduce__(self):
        # rebuilt from the weights: a pickled array comes back writable
        return CostSpec, (self.q_step, self.r_step, self.L_f)

    @property
    def p(self) -> int:
        return self.q_step.shape[0]

    @property
    def m(self) -> int:
        return self.r_step.shape[0]


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Per-step box bounds on inputs and predicted outputs.

    A lower bound of ``-inf`` or an upper bound of ``+inf`` opens that
    side; a lower ``+inf`` or an upper ``-inf`` admits no value and is
    rejected.
    """

    u_lower: np.ndarray
    u_upper: np.ndarray
    y_lower: np.ndarray
    y_upper: np.ndarray

    def __post_init__(self):
        for name in ("u_lower", "u_upper", "y_lower", "y_upper"):
            val = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, val)
        if self.u_lower.shape != self.u_upper.shape:
            raise DimensionMismatch("input bound lengths differ")
        if self.y_lower.shape != self.y_upper.shape:
            raise DimensionMismatch("output bound lengths differ")
        _check_bounds(self.u_lower, self.u_upper, ("u_lower", "u_upper"))
        _check_bounds(self.y_lower, self.y_upper, ("y_lower", "y_upper"))

    @classmethod
    def unbounded(cls, m: int, p: int) -> "BoxConstraints":
        inf = float("inf")
        return cls(np.full(m, -inf), np.full(m, inf),
                   np.full(p, -inf), np.full(p, inf))

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
            if value is None or not (np.isfinite(value) and value >= 0):
                raise ValueError(f"variant {self.variant!r} needs a finite "
                                 f"{name} >= 0, got {value}")
        if self.cost.m != self.boxes.u_lower.shape[0]:
            raise DimensionMismatch("cost and boxes disagree on input count")
        if self.cost.p != self.boxes.y_lower.shape[0]:
            raise DimensionMismatch("cost and boxes disagree on output count")


@dataclass(eq=False)
class StepResult:
    """Outcome of one receding-horizon step.  ``qp_path`` and ``qp_sets``
    are the QP answer's ``path`` (``"record"``, ``"set"``, ``"corrected"``
    or ``"admm"``) and ``sets``, the active sets it factored
    (:class:`~ddpc.qp.QpSolution`)."""

    u_f: np.ndarray
    y_f: np.ndarray
    u_applied: np.ndarray
    qp_iterations: int
    qp_status: QpStatus
    primal_res: float
    dual_res: float
    qp_path: str
    qp_sets: int


@dataclass(eq=False)
class RolloutResult:
    """A closed-loop run: applied data, per-step solves and realized cost.

    ``cost`` is the cost of the controller that ran; ``J`` is measured
    with its per-step weights ``q_step`` and ``r_step``.
    """

    trajectory: Trajectory
    reference: np.ndarray
    steps: list
    J: float
    J_y: float
    J_u: float
    cost: CostSpec

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


def _sized_vector(name: str, value, length: int) -> np.ndarray:
    vec = np.asarray(value, dtype=float).reshape(-1)
    if vec.shape[0] != length:
        raise DimensionMismatch(
            f"{name} has length {vec.shape[0]}, expected {length}")
    return vec


class _CondensedController:
    """The one receding-horizon QP: ``u_f = Fu v + bu``, ``y_f = Fy v + by``.

    The cost adds the PSD penalty ``v' W v`` to the tracking cost, and the
    constraint rows are ``[E; Fu; Fy]``: optional equality rows
    ``E v = z_p`` first, then the input and output boxes.  An open side of
    a box is a row bound of ``-inf`` or ``+inf``, which no active set
    holds, so an open box's rows never enter one.  Subclasses supply the offset maps
    ``bu = Bu z`` and ``by = By z`` of the past ``z`` (the window ``z_p``,
    or the state estimate for ``kf_mpc``).  P and the constraint rows are
    fixed, so the QP factorization and warm starts are reused across
    receding-horizon steps.  So is the data map ``D``, built once: with
    ``theta = [z; r_f; 1]``, ``D @ theta`` stacks ``q`` and the shift of
    the row bounds from their constant parts.  The solver holds ``D``, ``P``
    and the rows, and answers a step whose active set repeats from its set
    record: one BLAS product gives ``v``, the multipliers, ``A v`` less
    the shift and the stationarity residual, tested finite with ``theta``
    (the step's one test of its input).  The boxes put ``Fu`` and ``Fy``
    into ``A`` with the shifts ``-bu`` and ``-by``, so the plans ``u_f =
    Fu v + bu`` and ``y_f = Fy v + by`` are the rows of ``A v`` less the
    shift, which the solver returns: a step reads its plans there alone.
    ``P`` is passed as formed; the solver symmetrizes it.
    """

    def __init__(self, spec: ControllerSpec, Fu: np.ndarray, Fy: np.ndarray,
                 W: np.ndarray, L_p: int, By: np.ndarray,
                 Bu: np.ndarray | None = None, E: np.ndarray | None = None):
        self.cost = spec.cost
        self.m, self.p, self.L_f = spec.cost.m, spec.cost.p, spec.cost.L_f
        self.L_p = L_p
        Q, R = spec.cost.Q, spec.cost.R
        P = 2.0 * (Fy.T @ Q @ Fy + Fu.T @ R @ Fu + W)
        n, dz, dy, n_u = P.shape[0], By.shape[1], len(Fy), len(Fu)
        if Bu is None:
            Bu = np.zeros((n_u, dz))
        n_e = 0 if E is None else len(E)
        A = np.vstack([np.zeros((0, n)) if E is None else E, Fu, Fy])
        k = len(A)
        D = np.zeros((n + k, dz + dy + 1))
        # e = z_p on the equality rows, and the boxes' shifts -bu and -by
        D[:, :dz] = np.vstack([2.0 * (Fy.T @ Q @ By + Fu.T @ R @ Bu),
                               np.eye(dz)[:n_e], -Bu, -By])
        D[:n, dz:dz + dy] = -2.0 * Fy.T @ Q
        bounds0 = np.hstack([np.zeros((2, n_e)), spec.boxes.u_tiled(self.L_f),
                             spec.boxes.y_tiled(self.L_f)])
        self.solver = BoxQpSolver(P, A, (D, *bounds0))
        # P, A and the maps are read back from the solver, which copies
        # them, so that a controller holds each once
        self.P, self.A = self.solver.P, self.solver.A
        self.Fu, self.Fy = self.A[n_e:n_e + n_u], self.A[n_e + n_u:]
        self._plans = slice(n_e, k)
        self._n_u = n_u
        self._r_f = slice(dz, dz + dy)
        self._zero_y = np.zeros(dy)
        self._one = np.ones(1)  # theta's trailing 1
        self._one.flags.writeable = False
        self._warm_x = None
        self._warm_y = None

    _past_name = "z_p"

    def _past(self, z_p) -> np.ndarray:
        """The past ``z`` that the offsets are maps of."""
        return _sized_vector("z_p", z_p, (self.m + self.p) * self.L_p)

    def _theta(self, z_p, r_f) -> np.ndarray:
        """``[z; r_f; 1]``, length-checked; the solver tests it finite."""
        r_f = _sized_vector("r_f", self._zero_y if r_f is None else r_f,
                            self.p * self.L_f)
        return np.concatenate((self._past(z_p), r_f, self._one))

    def _name_non_finite(self, theta) -> None:
        """Raise the error that names a non-finite part of ``theta``; the
        solver's own error stands for a finite ``theta``."""
        if not np.isfinite(theta).all():
            name = ("r_f" if not np.isfinite(theta[self._r_f]).all()
                    else self._past_name)
            raise ValueError(
                f"{name} contains NaN or infinite entries") from None

    def condense(self, z_p=None, r_f=None) -> QpProblem:
        """Materialize the per-step QP for inspection or external solving.

        Its data come from the solver's checked product, so input that
        :meth:`step` rejects raises the same error here."""
        theta = self._theta(z_p, r_f)
        _, lower0, upper0 = self.solver.data_map
        try:
            d = self.solver._data(theta)
        except ValueError:
            self._name_non_finite(theta)
            raise
        n, k = self.solver.n, self.solver.k
        shift = d[n:n + k]
        return QpProblem(P=self.P, q=d[:n], A=self.A, lower=lower0 + shift,
                         upper=upper0 + shift)

    def step(self, z_p=None, r_f=None) -> StepResult:
        """Solve one step from the past window ``z_p`` (ignored by
        ``kf_mpc``) and the reference ``r_f`` (default: zero).

        Raises ``DimensionMismatch`` for a wrong length and ``ValueError``
        for a NaN or infinite entry in either."""
        theta = self._theta(z_p, r_f)
        try:
            a = self.solver.solve(theta, x0=self._warm_x, y0=self._warm_y)
        except ValueError:
            self._name_non_finite(theta)
            raise
        self._warm_x, self._warm_y = a.x, a.y
        # a copy: a view would keep the solver's whole answer alive in
        # every StepResult
        plan = a.t[self._plans].copy()
        n_u = self._n_u
        # positional, in field order: nine keywords cost about 0.45 us a
        # step, 1.6% of a record step
        return StepResult(plan[:n_u], plan[n_u:], plan[:self.m],
                          a.iterations, a.status, a.primal_res, a.dual_res,
                          a.path, a.sets)

    def observe(self, u, y) -> None:
        """Closed-loop measurement hook; data-driven variants are static."""

    def reset(self) -> None:
        """Forget the warm starts and the solver's set record."""
        self._warm_x = None
        self._warm_y = None
        self.solver.reset()


class _PredictorController(_CondensedController):
    """spc / causal_spc: decisions are the future inputs themselves."""

    def __init__(self, spec, pred: Predictor):
        d2 = pred.m * pred.L_f
        super().__init__(spec, Fu=np.eye(d2), Fy=pred.K_f.copy(),
                         W=np.zeros((d2, d2)), L_p=pred.L_p, By=pred.K_p)


class _GammaController(_CondensedController):
    """Latent-coordinate variants; offsets come from the past coordinate.

    Decisions: the future-input coordinate (output map: causal part of
    ``L32`` or all of it), then the non-causal one if ``lam`` is weighed,
    then the residual one if ``mu`` is weighed and not dropped.  The
    offsets ``L21 gamma1`` and ``L31 gamma1`` of the past coordinate
    ``gamma1 = L11^-1 z_p`` (the minimum-norm one when ``L11`` is
    singular) are maps of ``z_p``: the rows of
    :attr:`~ddpc.lq.LqBlocks.past_map`.
    """

    def __init__(self, spec, blocks: LqBlocks):
        d2, d3 = blocks.dim_u, blocks.dim_y
        needs = VARIANT_TABLE[spec.variant]
        # only the causal variants read the split (lam weighs its
        # non-causal part)
        split = causal_split(blocks) if needs.causal else None
        Fu = [blocks.L22]
        Fy = [split.causal if needs.causal else blocks.L32]
        reg = [np.zeros(d2)]
        if "lam" in needs.penalties:
            Fu.append(np.zeros((d2, d2)))
            Fy.append(split.noncausal)
            reg.append(np.full(d2, spec.lam))
        if "mu" in needs.penalties and not spec.gamma3_zero:
            Fu.append(np.zeros((d2, d3)))
            Fy.append(blocks.L33)
            reg.append(np.full(d3, spec.mu))
        B = blocks.past_map
        super().__init__(spec, Fu=np.hstack(Fu), Fy=np.hstack(Fy),
                         W=np.diag(np.concatenate(reg)), L_p=blocks.L_p,
                         By=B[d2:], Bu=B[:d2])


class _KfMpcController(_CondensedController):
    """Model-based MPC over a Kalman one-step-ahead predictor state.

    The decisions are the future inputs and ``y_f = H u_f + Gamma x_hat``.
    The state estimate ``x_hat`` starts at zero and is advanced by
    :func:`kf_update` from the closed-loop measurements fed through
    :meth:`observe`; the predictor over the horizon is exact for the
    declared model.
    """

    _past_name = "x_hat"

    def __init__(self, spec, model: StateSpaceModel, L_p: int):
        self.model = model
        self.Gamma, self.H = kf_predictor_matrices(model, spec.cost.L_f)
        d2 = model.m * spec.cost.L_f
        super().__init__(spec, Fu=np.eye(d2), Fy=self.H,
                         W=np.zeros((d2, d2)), L_p=L_p, By=self.Gamma)
        self.x_hat = np.zeros(model.n)

    def _past(self, z_p) -> np.ndarray:
        return self.x_hat

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

    def __init__(self, spec, part: HankelPartition):
        ZU = np.vstack([part.Z_p, part.U_f])
        proj = np.linalg.pinv(ZU, rcond=1e-10) @ ZU
        resid_proj = np.eye(part.M) - proj
        # symmetrize: pinv-based projector is symmetric up to round-off
        resid_proj = 0.5 * (resid_proj + resid_proj.T)
        super().__init__(spec, Fu=part.U_f, Fy=part.Y_f,
                         W=spec.mu * resid_proj, L_p=part.spec.L_p,
                         By=np.zeros((len(part.Y_f), len(part.Z_p))),
                         E=part.Z_p)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def make_controller(spec: ControllerSpec, *,
                    blocks: LqBlocks | None = None,
                    part: HankelPartition | None = None,
                    model: StateSpaceModel | None = None,
                    L_p: int | None = None):
    """Build the controller for ``spec.variant`` from a handle it accepts.

    ``projreg_g`` needs the raw partition; the other data variants need
    the LQ blocks (:func:`factorize` factors a partition once and keeps
    its blocks on it); ``kf_mpc`` needs the model and takes ``L_p`` as its
    warm-up window.  Unused handles are ignored.  ``step(z_p, r_f)``
    solves a step and ``condense(z_p, r_f)`` materializes its QP.
    """
    variant = spec.variant
    given = {"blocks": blocks, "part": part, "model": model}
    needs = VARIANT_TABLE[variant]
    if all(given[h] is None for h in needs.handles):
        raise ValueError(f"{variant} needs {' or '.join(needs.handles)}")
    if variant == "kf_mpc":
        return _KfMpcController(spec, model, L_p or 0)
    if variant == "projreg_g":
        return _GSpaceController(spec, part)
    if blocks is None:
        blocks = factorize(part)
    if variant in ("spc", "causal_spc"):
        return _PredictorController(spec, _fit(blocks, needs.causal))
    return _GammaController(spec, blocks)


def kf_update(model: StateSpaceModel, x_hat: np.ndarray, u: np.ndarray,
              y: np.ndarray) -> np.ndarray:
    """One innovation-form predictor update of the state estimate."""
    x_hat, u, y = (np.asarray(v, dtype=float).reshape(-1)
                   for v in (x_hat, u, y))
    innovation = y - model.C @ x_hat - model.D @ u
    return model.A @ x_hat + model.B @ u + model.K @ innovation


def kf_predictor_matrices(model: StateSpaceModel,
                          L_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked observability map and input-response Toeplitz blocks.

    Returns ``(Gamma, H)`` with ``y_f = Gamma x + H u_f`` for the
    noise-free response over ``L_f`` steps.
    """
    n, m, p = model.n, model.m, model.p
    powers = [np.eye(n)]
    for _ in range(L_f - 1):
        powers.append(model.A @ powers[-1])
    Gamma = np.vstack([model.C @ power for power in powers])
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
    fully populated; the controller observes the warm-up data.  The
    controller is reset before the warm-up and again after the last move.
    All innovations are drawn up-front from ``rng`` so that runs with the same
    generator state are paired across controllers.

    The applied inputs and measured outputs go into two preallocated
    ``(L_p + n_steps, m|p)`` arrays, so each move's window ``z_p`` is one
    concatenation of two contiguous slices and ``r_f`` a contiguous view
    of the padded reference.  An LTI plant moves by one product of the
    stacked ``[[C, D], [A, B]]`` with ``[x; u]`` plus the move's
    ``[e; K e]``, with ``K e`` formed for the whole rollout up front; a
    :class:`NonlinearWrapper` moves by :func:`step_model`.  The stacked
    matrix, the innovations and the padded reference are built once per
    rollout, and a move tests its output row for divergence by one float
    comparison per output.  Every move calls ``controller.step`` once,
    read from the instance, so a wrapper assigned there sees every step,
    and the realized cost is summed after the last move, in the order of
    the moves.

    Args:
        plant: :class:`StateSpaceModel` or wrapper; starts at rest.
        controller: Any object from :func:`make_controller`.
        reference: Setpoint schedule, shape ``(p, >= n_steps)``; the last
            column is held for the look-ahead beyond its end.
        n_steps: Number of closed-loop moves, at least 1.
        rng: Innovation stream; omit for a noise-free run.
        warmup_inputs: Optional ``(m, L_p)`` record applied before the
            first move.

    Raises:
        ValueError: Before the warm-up, on ``n_steps`` below 1 or not an
            integer, a ``reference`` or ``warmup_inputs`` of the wrong
            shape (as ``DimensionMismatch``) or with a NaN or infinite
            entry in the part the rollout reads.
        Diverged: If any output magnitude exceeds ``1e6``; the message
            names the step (negative in the warm-up).
    """
    m, p = controller.m, controller.p
    L_p, L_f = controller.L_p, controller.L_f
    if (not isinstance(n_steps, (int, np.integer))
            or isinstance(n_steps, bool) or n_steps < 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    ref = np.atleast_2d(np.asarray(reference, dtype=float))
    if ref.ndim != 2 or ref.shape[0] != p or ref.shape[1] < n_steps:
        raise DimensionMismatch(
            f"reference must be (p, >= n_steps), got {ref.shape}")
    total = n_steps + L_f
    if ref.shape[1] < total:
        ref = np.hstack([ref, np.repeat(ref[:, -1:],
                                        total - ref.shape[1], axis=1)])
    # row t of ref_rows is the reference at t, so r_f is a slice of it
    ref_rows = np.ascontiguousarray(ref[:, :total].T)
    if not np.isfinite(ref_rows).all():
        raise ValueError("reference contains NaN or infinite entries")
    if warmup_inputs is None:
        warmup = np.zeros((m, L_p))
    else:
        warmup = np.atleast_2d(np.asarray(warmup_inputs, dtype=float))
        if warmup.shape != (m, L_p):
            raise DimensionMismatch(
                f"warmup_inputs must be (m, L_p) = {(m, L_p)}, "
                f"got {warmup.shape}")
        if not np.isfinite(warmup).all():
            raise ValueError("warmup_inputs contains NaN or infinite entries")
    innov = _innovations(plant, L_p + n_steps, rng, None)

    # row i of u_rows/y_rows is the input/output of move i - L_p
    u_rows = np.empty((L_p + n_steps, m))
    y_rows = np.empty((L_p + n_steps, p))
    u_rows[:L_p] = warmup.T
    u_flat, y_flat, r_flat = (a.reshape(-1) for a in (u_rows, y_rows,
                                                      ref_rows))
    if isinstance(plant, NonlinearWrapper):
        x = np.zeros(plant.n)

        def move(i, u):
            nonlocal x
            x, y_rows[i] = step_model(plant, x, u, innov[:, i])
    else:
        n = plant.n
        CD_AB = np.block([[plant.C, plant.D], [plant.A, plant.B]])
        e_Ke = np.ascontiguousarray(np.vstack([innov, plant.K @ innov]).T)
        xu = np.zeros(n + m)  # [x; u] of the move

        def move(i, u):
            xu[n:] = u
            y_x = CD_AB @ xu
            y_x += e_Ke[i]
            y_rows[i] = y_x[:p]
            xu[:n] = y_x[p:]

    controller.reset()
    observe, step = controller.observe, controller.step
    for i in range(L_p):
        move(i, u_rows[i])
        _check_sane(y_rows[i], i - L_p)
        observe(u_rows[i], y_rows[i])

    steps: list[StepResult] = []
    for t in range(n_steps):
        z_p = np.concatenate((u_flat[t * m:(t + L_p) * m],
                              y_flat[t * p:(t + L_p) * p]))
        res = step(z_p, r_flat[t * p:(t + L_f) * p])
        i = L_p + t
        u_rows[i] = res.u_applied
        move(i, u_rows[i])
        _check_sane(y_rows[i], t)
        observe(u_rows[i], y_rows[i])
        steps.append(res)
    # a finished controller keeps no warm starts or factors alive
    controller.reset()

    cost, reference = controller.cost, ref[:, :n_steps]
    traj = Trajectory(u_rows[L_p:].T.copy(), y_rows[L_p:].T.copy())
    J_y, J_u = (float(sums[-1])
                for sums in _cost_sums(traj, reference, cost))
    return RolloutResult(trajectory=traj, reference=reference, steps=steps,
                         J=J_y + J_u, J_y=J_y, J_u=J_u, cost=cost)


def _cost_sums(traj: Trajectory, reference: np.ndarray,
               cost: CostSpec) -> tuple[np.ndarray, np.ndarray]:
    """The running sums of a rollout's stage costs ``|y - r|^2_q`` and
    ``|u|^2_r``: entry ``t`` of each sums moves 0 to ``t``.

    A rollout's ``J_y`` and ``J_u`` are their last entries, and ``J`` the
    sum of those two.  One sequential summation (``np.cumsum``; Python's
    ``sum()`` of floats is compensated from 3.12 on) serves every reader,
    so :func:`~ddpc.bench.write_rollout_csv`'s last ``J_cum`` equals ``J``
    bit for bit.
    """
    # one C-ordered row per move, whichever layout the caller holds, so
    # that the products round alike for every reader
    u, y, r = (np.ascontiguousarray(a.T)
               for a in (traj.inputs, traj.outputs, reference))
    err = y - r
    return (np.cumsum(((err @ cost.q_step) * err).sum(axis=1)),
            np.cumsum(((u @ cost.r_step) * u).sum(axis=1)))
