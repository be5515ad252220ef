"""Box-constrained convex QP solver: a warm-started active-set step with
an ADMM fallback.

Solves

    minimize    0.5 x' P x + q' x
    subject to  lower <= A x <= upper

with P symmetric positive semidefinite.  Equality rows are expressed as
``lower == upper``; one-sided rows use ``+-inf``.

The solver is built for receding-horizon MPC, where ``P`` and ``A`` stay
fixed while ``q`` and the bounds are affine in a parameter ``theta``
ending in 1: the parametric form of explicit MPC (Bemporad, Morari, Dua
and Pistikopoulos, Automatica 2002).  :class:`BoxQpSolver` is built with
that ``data_map = (D, lower0, upper0)``, checks it once, and is then given
``theta`` alone: one BLAS ``gemv`` ``D @ theta``, tested finite with the
warm starts by one BLAS dot per array, forms ``q`` and the bound shift,
the only rows of ``D``.  The one-shot :func:`solve` of a
:class:`QpProblem` is the one-column map ``D = [q; 0]`` at ``theta = [1]``.

Before any iteration, a solve tries to certify the active set that the
dual warm start ``y0`` points at, the warm-started active-set idea of
qpOASES (Ferreau, Bock and Diehl, IJRNC 2008).  A set has one name, its
side vector ``s`` in {-1, 0, +1}^k: ``np.sign(y0)`` clipped into the sides
each row can be held at, so -1 holds a row at its lower bound, +1 at its
upper one, and 0 nowhere; an equality row, held always, and an infinite
bound can take no side.  The bytes of ``s`` key the cached LU and the
record below.  The set's equality-constrained KKT system is solved with
a regularized LU and iterative refinement, whose factor is cached for the
last set.  The solution is accepted when no multiplier has ``s * y < 0``
and both residuals pass the ADMM stopping test, the primal one with the
set's rows held at their bounds; it is then ``SOLVED`` with
``iterations == 0``.  Otherwise up to ``_CERTIFY_ROUNDS`` (3)
corrections set ``s`` to 0 where ``s * y < 0`` and to -1 or +1 on the
free rows violated below or above by more than ``_EPS_ABS``, and if none
is accepted ADMM runs, warm-started from ``x0``/``y0``.  The guess
depends on ``y0`` alone, so a solve stays a pure function of its
arguments, to round-off when a record answers it.  Once ADMM has solved
the problem, the same step starts from the side vector of ADMM's own
dual, in the place of OSQP's polish (Stellato et al., Math. Prog. Comp.
2020), and ADMM's iterate is kept unless it certifies a set.
``QpSolution.iterations`` counts ADMM iterations only.  A problem without
rows (``k == 0``) is the empty set's case; when it cannot be certified it
is reported ``DUAL_INFEASIBLE``.

ADMM is dense, with Ruiz equilibration, a per-row step parameter that is
rescaled from the primal/dual residual ratio, and over-relaxation; as in
OSQP, an iteration applies a Cholesky factor through LAPACK's ``potrs``
and does nothing but its arithmetic.  ADMM is one call,
:meth:`BoxQpSolver._admm`, which forms its scaling and its factors each
time it runs and keeps none of them.  Everything is deterministic:
identical inputs produce identical iterates.  No value of the solver is
settable.  The module constants fix it: the tolerances ``_EPS_ABS`` and
``_EPS_REL``, ADMM's iteration cap ``_MAX_ITER``, and ``_RHO``,
``_SIGMA``, ``_ALPHA``, ``_CHECK_INTERVAL``, ``_EPS_INFEAS`` and
``_SCALING_ITERS``; :class:`QpSettings` reads back the first three.
Shapes and finiteness are checked at entry: ``P``, ``A`` and the data
map when the solver is built, ``theta`` and the warm starts at each
solve.  A residual that turns non-finite at a convergence check raises
``ValueError``; it is never reported as a status.

The KKT solution of a fixed active set is affine in ``theta`` too: the
critical regions of explicit MPC.  Once two solves in a row have
certified a set, its record is built from its LU with the same
refinements, and dropped with the LU.  The record holds one stacked map
``G`` with ``G @ theta = [x; y; D @ theta]`` (zero multiplier rows off the
set), the set's side vector, and the constant bounds with the set's rows
closed onto their sides.  A later solve whose warm start has the same
side vector takes its data from one ``gemv`` with ``G`` in place of
``D``, which gives ``x`` and ``y`` with them.  Then one ``gemv`` gives
``[A x; P x]``, one more adds ``A' y`` to ``P x + q``, and one reduction
gives both residuals and the sign test.  The residuals are computed from
``x``, ``y``, ``q`` and the bounds, never read off the map, and an LU
answer is tested by the same code.  A rejected answer is retried through
the set's LU, and the corrections go on from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DimensionMismatch

__all__ = [
    "QpProblem",
    "QpSettings",
    "QpSolution",
    "QpStatus",
    "BoxQpSolver",
    "solve",
]


class QpStatus(str, Enum):
    SOLVED = "solved"
    MAX_ITER = "max_iter"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"


@dataclass(frozen=True)
class QpProblem:
    """Problem data; symmetry of ``P`` is enforced to 1e-12 on entry.

    Non-finite ``P``, ``q`` or ``A`` and NaN bounds are rejected first,
    with a ``ValueError`` that names the field.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        q = np.asarray(self.q, dtype=float).reshape(-1)
        A = np.asarray(self.A, dtype=float)
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        for name, v in (("P", P), ("q", q), ("A", A)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} has non-finite entries")
        for name, v in (("lower", lo), ("upper", hi)):
            if np.isnan(v).any():
                raise ValueError(f"{name} has NaN entries")
        n = q.shape[0]
        if P.shape != (n, n):
            raise DimensionMismatch(f"P has shape {P.shape}, expected {(n, n)}")
        if A.ndim != 2 or A.shape[1] != n:
            raise DimensionMismatch(f"A has shape {A.shape}, expected (k, {n})")
        k = A.shape[0]
        if lo.shape[0] != k or hi.shape[0] != k:
            raise DimensionMismatch("bound lengths do not match A")
        scale = max(1.0, float(np.abs(P).max()) if P.size else 1.0)
        if P.size and float(np.abs(P - P.T).max()) > 1e-12 * scale:
            raise ValueError("P is not symmetric to 1e-12")
        if np.any(lo > hi):
            raise ValueError("some lower bound exceeds its upper bound")
        if P.size:
            ev_min = float(scipy.linalg.eigvalsh(0.5 * (P + P.T)).min())
            if ev_min < -1e-12 * scale:
                raise ValueError(f"P is not PSD (min eigenvalue {ev_min:.3e})")
        object.__setattr__(self, "P", 0.5 * (P + P.T))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def k(self) -> int:
        return self.A.shape[0]


class QpSettings:
    """The solver's tolerances and iteration cap, read-only: the module
    constants ``_EPS_ABS`` and ``_EPS_REL`` (1e-8 each) and ``_MAX_ITER``
    (50000).

    A step is ``SOLVED`` once both residuals are within ``eps_abs +
    eps_rel * scale``, the test that stops ADMM and accepts a certified
    active set; ``max_iter`` caps ADMM alone.  The rest of the scheme is
    fixed by the other module constants (module docstring).
    """

    __slots__ = ()
    eps_abs = property(lambda self: _EPS_ABS)
    eps_rel = property(lambda self: _EPS_REL)
    max_iter = property(lambda self: _MAX_ITER)


@dataclass
class QpSolution:
    x: np.ndarray
    y: np.ndarray
    status: QpStatus
    iterations: int
    primal_res: float
    dual_res: float
    objective: float


_EPS_ABS = 1e-8
_EPS_REL = 1e-8
_MAX_ITER = 50000
_RHO = 0.1
_SIGMA = 1e-6
_ALPHA = 1.6
_CHECK_INTERVAL = 25
_EPS_INFEAS = 1e-7
_SCALING_ITERS = 10
_RHO_MIN = 1e-6
_RHO_MAX = 1e6
_RHO_EQ_FACTOR = 1e3
_REFACTOR_RATIO = 5.0
_POLISH_REG = 1e-9
_POLISH_REFINE = 3
_CERTIFY_ROUNDS = 3

# The float64 LAPACK routines behind cho_factor/cho_solve and
# lu_factor/lu_solve, called directly so that the ADMM loop and the KKT
# solves skip scipy's per-call input checks.
_POTRF, _POTRS, _GETRF, _GETRS, _GETRI = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs", "getri"), dtype=np.float64)
# BLAS gemv forms a data-mapped solve's data and dot tests it finite:
# unlike matmul, they raise no floating-point warning, so an overflow is
# reported by the finite test
_GEMV, _DOT = get_blas_funcs(("gemv", "dot"), dtype=np.float64)


def _ruiz(P: np.ndarray, A: np.ndarray, iters: int):
    """Symmetric equilibration of the KKT matrix [[P, A'], [A, 0]].

    Returns diagonal vectors ``d`` (variables), ``e`` (constraints) and the
    cost scaling ``c``.
    """
    n = P.shape[0]
    k = A.shape[0]
    d = np.ones(n)
    e = np.ones(k)
    Ps = P.copy()
    As = A.copy()
    for _ in range(iters):
        col_p = np.abs(Ps).max(axis=0) if n else np.zeros(0)
        col_a = np.abs(As).max(axis=0) if k else np.zeros(n)
        norm_x = np.maximum(col_p, col_a) if k else col_p
        norm_y = np.abs(As).max(axis=1) if k else np.zeros(0)
        sx = 1.0 / np.sqrt(np.maximum(norm_x, 1e-12))
        sy = 1.0 / np.sqrt(np.maximum(norm_y, 1e-12))
        Ps = Ps * sx[None, :] * sx[:, None]
        As = As * sy[:, None] * sx[None, :]
        d *= sx
        e *= sy
    mean_col = float(np.abs(Ps).max(axis=0).mean()) if n else 1.0
    c = 1.0 / max(mean_col, 1e-12)
    return d, e, c


@dataclass
class _Answer(QpSolution):
    """The :class:`QpSolution` that :meth:`BoxQpSolver.solve` returns,
    with ``t``, which is ``A x`` less the bound shift."""

    t: np.ndarray


@dataclass(slots=True)
class _SetRecord:
    """The cached answer of one active set."""

    sides: np.ndarray  # the set's side vector s, its one name (_sides)
    key: bytes  # sides.tobytes(), as the LU is keyed
    G: np.ndarray  # G @ theta = [x; y; D @ theta], y zero off the set
    closed0: np.ndarray  # (lower0, upper0), each set row closed on its side


class BoxQpSolver:
    """Active-set and ADMM solver bound to a fixed ``(P, A)`` pair and
    data map.

    With ``data_map = (D, lower0, upper0)`` the data are affine in a
    parameter ``theta`` whose last entry is 1: ``q = D[:n] @ theta`` and
    the bounds are ``lower0 + D[n:] @ theta`` and ``upper0 + D[n:] @
    theta``, so ``D`` has ``n + k`` rows.  The shapes are checked here:
    ``P`` square, ``A`` with ``n`` columns, ``D`` with ``n + k`` rows.  So
    is the map, once: ``D`` finite, ``lower0 <= upper0``, no ``+inf`` in
    ``lower0`` and no ``-inf`` in ``upper0``.
    Rounding is monotone, so a finite shift keeps every pair of bounds
    ordered, and the rows with ``lower0 == upper0`` are the equality rows.
    So the sides each row can be held at are fixed here too, and one side
    vector names an active set (module docstring).  ``A`` and ``P`` are
    kept as the two blocks of one stacked copy, so that ``[A x; P x]`` is
    one product.  Between solves an instance keeps its active-set cache
    and nothing else: the LU of the last set, at most one set record, and
    the name of the set that the last solve certified.  A solve whose warm
    start has the side vector of the record's set is answered by that
    record, and :meth:`reset` drops all three.  ADMM keeps nothing: it
    forms its scaling and factors each time it runs.
    """

    def __init__(self, P: np.ndarray, A: np.ndarray, data_map: tuple):
        P = np.asarray(P, dtype=float)
        A = np.asarray(A, dtype=float)
        for name, arr in (("P", P), ("A", A)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionMismatch(f"P has shape {P.shape}, expected (n, n)")
        n = self.n = P.shape[0]
        if A.ndim != 2 or A.shape[1] != n:
            raise DimensionMismatch(f"A has shape {A.shape}, expected (k, {n})")
        k = self.k = A.shape[0]
        # a symmetric P is kept as given: 0.5 * (P + P') would equal it
        AP = np.vstack([A, P if np.array_equal(P, P.T) else 0.5 * (P + P.T)])
        self.A, self.P = AP[:k], AP[k:]
        self._APT, self._AT = AP.T, self.A.T  # Fortran-ordered for BLAS
        D, lower0, upper0 = (np.asarray(a, dtype=float) for a in data_map)
        if (D.ndim != 2 or D.shape[0] != n + k
                or lower0.shape != (k,) or upper0.shape != (k,)):
            raise DimensionMismatch(
                f"data_map must be (D, lower0, upper0) with D of {n + k} "
                f"rows and bounds of length {k}, got D of shape {D.shape}")
        if not np.isfinite(D).all():
            raise ValueError("data_map D has non-finite entries")
        _check_bounds(lower0, upper0, ("data_map lower0", "data_map upper0"))
        D = np.ascontiguousarray(D)
        self._DT = D.T  # Fortran-ordered, so BLAS reads it in place
        self._bounds0 = np.array([lower0, upper0])
        self.data_map = (D, *self._bounds0)
        self._free = lower0 != upper0  # the rows that are no equality rows
        # the sides each row can be held at: -1 below a finite lower bound,
        # +1 above a finite upper one; +0.0 (never -0.0, whose bytes differ)
        # where it can take no side, so that equal sets have equal bytes
        self._side_range = (np.where(self._free & (lower0 > -np.inf), -1.0,
                                     0.0),
                            np.where(self._free & (upper0 < np.inf), 1.0,
                                     0.0))
        # where each group of _residuals' rows starts in their concatenation
        self._groups = np.array([0, k, 2 * k, 3 * k, 3 * k + n,
                                 3 * k + 2 * n, 3 * k + 3 * n])
        # _accept's scratch: the primal gaps (2k), a 0, the wrong-sign
        # products (k), a 0, and the dual residual (n); the zeros end the
        # first two groups, so that their maxima are at least 0 and are
        # defined for k == 0
        self._scratch = np.zeros(3 * k + 2 + n)
        self._gaps = self._scratch[:2 * k].reshape(2, k)
        self._wrong = self._scratch[2 * k + 1:3 * k + 1]
        self._dual = self._scratch[3 * k + 2:]
        self._scratch_groups = np.array([0, 2 * k + 1, 3 * k + 2])
        self.reset()

    def reset(self) -> None:
        """Drop the cached LU and record; later solves form what they
        need."""
        self._kkt_key = None  # the side vector bytes whose factor _kkt holds
        self._kkt = None
        self._map = None  # the _SetRecord of the set _kkt_key
        self._certified_key = None  # the set the last solve certified

    # -- internals ---------------------------------------------------------

    def _residuals(self, q, x, y, Ax, z):
        """The stopping test of ADMM, and of an active-set answer whose
        residuals exceed ``eps_abs``.

        Returns ``(r_prim, r_dual, scale_p, scale_d, ok, Px)``: the
        residuals ``|Ax - z|`` and ``|Px + q + A'y|`` (max norms), their
        scales, whether both are within ``eps_abs + eps_rel * scale``, and
        ``P x`` for the objective.
        """
        Px = self.P @ x
        Aty = self.A.T @ y
        # the max norms of the seven groups of rows, in one reduction
        norms = np.maximum.reduceat(np.abs(np.concatenate(
            (Ax - z, Ax, z, Px + q + Aty, Px, Aty, q))), self._groups)
        if not self.k:
            norms[:3] = 0.0  # reduceat gives an empty group's first row
        r_prim, ax_norm, z_norm, r_dual, *scales_d = norms.tolist()
        scale_p, scale_d = max(ax_norm, z_norm), max(scales_d)
        ok = (r_prim <= _EPS_ABS + _EPS_REL * scale_p
              and r_dual <= _EPS_ABS + _EPS_REL * scale_d)
        return r_prim, r_dual, scale_p, scale_d, ok, Px

    def _sides(self, y):
        """The side vector of the set that the dual point ``y`` holds:
        ``np.sign(y)`` clipped into each row's side range, so -1 where
        ``y < 0`` at a finite lower bound, +1 where ``y > 0`` at a finite
        upper one, else +0.0 (equality rows too, which every set holds).
        Without ``y`` no row is held."""
        if y is None:
            return np.zeros(self.k)
        s = np.sign(y)  # +0.0 at a zero of either sign
        lo, hi = self._side_range
        return np.minimum(np.maximum(s, lo, out=s), hi, out=s)

    # -- main entry --------------------------------------------------------

    def solve(self, theta: np.ndarray, x0: np.ndarray | None = None,
              y0: np.ndarray | None = None) -> QpSolution:
        """Solve at the parameter ``theta``, optionally warm-started.

        Args:
            theta: The parameter, ending in 1, at which the solver's
                ``data_map`` gives ``q``, ``lower`` and ``upper``.
            x0: Optional primal warm start (unscaled), length n.
            y0: Optional dual warm start (unscaled), length k; its side
                vector names the set tried before ADMM, and the cached
                record of that set answers by one product with its map.

        Returns:
            A :class:`QpSolution`; it also carries ``t``, ``A x`` less the
            bound shift, which a receding-horizon step reads its plans from.

        Raises:
            DimensionMismatch: On a ``theta``, ``x0`` or ``y0`` whose
                length does not match the solver.
            ValueError: On a non-finite ``theta``, ``x0`` or ``y0``, a
                ``theta`` so large that ``D @ theta`` overflows, or a
                residual that turns non-finite while iterating.
        """
        n, k = self.n, self.k
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
        if y0 is not None:
            y0 = np.asarray(y0, dtype=float)
        if ((x0 is not None and x0.shape != (n,))
                or (y0 is not None and y0.shape != (k,))):
            raise DimensionMismatch("warm start length mismatch with solver")
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self._DT.shape[0],):
            raise DimensionMismatch(
                "theta length mismatch with the solver's data_map")
        s = self._sides(y0)
        rec = self._map
        if rec is not None and s.tobytes() != rec.key:
            rec = None
        d = self._checked(self._DT if rec is None else rec.G.T, theta, x0, y0)
        if rec is not None:
            answer = self._from_record(rec, d)
            if answer is not None:
                return answer
            # a rejected record answer is retried through the set's LU,
            # and corrected from there
            d = d[n + k:]
        q, shift = d[:n], d[n:]
        certified = self._certify(q, shift, s)
        if certified is not None:
            return certified
        if k == 0:
            # no rows and no certified solution of P x = -q: unbounded
            return _Answer(np.zeros(n), np.zeros(0), QpStatus.DUAL_INFEASIBLE,
                           0, 0.0, math.inf, -math.inf, np.zeros(0))

        lo, hi = self._bounds0 + shift
        x, y, Ax, z, status, iters = self._admm(q, lo, hi, x0, y0)
        if status is QpStatus.SOLVED:
            refined = self._certify(q, shift, self._sides(y))
            if refined is not None:
                refined.iterations = iters
                return refined
        r_prim, r_dual, *_, Px = self._residuals(q, x, y, Ax, z)
        return _Answer(x, y, status, iters, r_prim, r_dual,
                       _objective(x, Px, q), self.A @ x - shift)

    def _admm(self, q, lo, hi, x0, y0):
        """ADMM at ``q`` and the bounds ``lo``/``hi``, warm-started from
        ``x0``/``y0``: ``(x, y, A x, z, status, iterations)``, unscaled.

        Each call forms its Ruiz scaling and its Cholesky factors, one per
        step size ``rho``, and keeps none of them: they are functions of
        ``P``, ``A`` and ``rho`` alone, so no solve depends on an earlier
        one.
        """
        n, k = self.n, self.k
        d, e, c = _ruiz(self.P, self.A, _SCALING_ITERS)
        qs = c * d * q
        los = e * lo
        his = e * hi
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        eq_mask = fin_lo & (lo == hi)
        # the equilibrated P and A
        Ps = c * self.P * d[None, :] * d[:, None]
        As = self.A * e[:, None] * d[None, :]
        AsT = As.T

        def factor(rho):
            """The per-row step sizes at ``rho`` and the upper Cholesky
            factor of their KKT matrix."""
            rho_vec = np.full(k, rho)
            rho_vec[eq_mask] = min(rho * _RHO_EQ_FACTOR, _RHO_MAX)
            K = Ps + _SIGMA * np.eye(n) + (AsT * rho_vec[None, :]) @ As
            # the arguments cho_factor passes
            L, info = _POTRF(K, lower=False, overwrite_a=False, clean=False)
            if info > 0:
                raise scipy.linalg.LinAlgError(
                    f"{info}-th leading minor of the KKT matrix is not "
                    "positive definite")
            return rho_vec, L

        def unscaled(xs, zs, ys):
            """``(x, y, Ax, z)`` in the units of the original problem."""
            return d * xs, (e * ys) / c, (As @ xs) / e, zs / e

        xs = np.zeros(n) if x0 is None else x0 / d
        ys = np.zeros(k) if y0 is None else c * y0 / e
        zs = np.minimum(np.maximum(As @ xs, los), his)

        rho_scalar = _RHO
        rho_vec, L = factor(rho_scalar)
        sigma, alpha, beta = _SIGMA, _ALPHA, 1.0 - _ALPHA
        check_interval, max_iter = _CHECK_INTERVAL, _MAX_ITER
        status = QpStatus.MAX_ITER  # until a check decides otherwise
        for it in range(1, max_iter + 1):
            rhs = sigma * xs - qs + AsT @ (rho_vec * zs - ys)
            x_hat = _POTRS(L, rhs, lower=False, overwrite_b=True)[0]
            z_hat = As @ x_hat
            xs_new = alpha * x_hat + beta * xs
            z_cand = alpha * z_hat + beta * zs + ys / rho_vec
            zs_new = np.minimum(np.maximum(z_cand, los), his)
            ys_new = rho_vec * (z_cand - zs_new)

            if it % check_interval == 0 or it == max_iter:
                r_prim, r_dual, scale_p, scale_d, ok, _ = self._residuals(
                    q, *unscaled(xs_new, zs_new, ys_new))
                if not (math.isfinite(r_prim) and math.isfinite(r_dual)):
                    raise ValueError(
                        f"ADMM residual is not finite at iteration {it}")
                if ok:
                    status = QpStatus.SOLVED
                elif _primal_infeasibility(self.A, lo, hi, fin_lo, fin_hi,
                                           (e * (ys_new - ys)) / c,
                                           _EPS_INFEAS):
                    status = QpStatus.PRIMAL_INFEASIBLE
                elif _dual_infeasibility(self.P, q, self.A, fin_lo, fin_hi,
                                         d * (xs_new - xs), _EPS_INFEAS):
                    status = QpStatus.DUAL_INFEASIBLE
                if status is not QpStatus.MAX_ITER:
                    return (*unscaled(xs_new, zs_new, ys_new), status, it)
                if r_dual > 0.0 and scale_p > 0.0 and scale_d > 0.0:
                    ratio = (r_prim / scale_p) / max(r_dual / scale_d, 1e-16)
                    rho_new = float(np.clip(rho_scalar * np.sqrt(ratio),
                                            _RHO_MIN, _RHO_MAX))
                    if (rho_new > _REFACTOR_RATIO * rho_scalar
                            or rho_new < rho_scalar / _REFACTOR_RATIO):
                        rho_scalar = rho_new
                        rho_vec, L = factor(rho_scalar)
            xs, zs, ys = xs_new, zs_new, ys_new
        return (*unscaled(xs, zs, ys), status, max_iter)

    def _checked(self, GT, theta, x0=None, y0=None):
        """``GT.T @ theta`` by BLAS ``gemv``, tested finite with the warm
        starts: the one test of a solve's inputs.

        ``gemv`` raises no floating-point warning, so an overflow reaches
        the test.  A sum of squares is finite when every entry is, so one
        BLAS dot per array tests them all; a sum that overflows from finite
        entries sends the arrays to the entry-wise test, which names the
        first non-finite one.
        """
        d = _GEMV(1.0, GT, theta, trans=1)
        total = _DOT(d, d)
        for v in (x0, y0):
            if v is not None and v.size:  # BLAS takes no empty vector
                total += _DOT(v, v)
        if total < math.inf:  # False for a NaN too
            return d
        for name, v in (("theta", theta), ("x0", x0), ("y0", y0)):
            if v is not None and not np.isfinite(v).all():
                raise ValueError(f"{name} has non-finite entries")
        if not np.isfinite(d).all():
            raise ValueError("theta is so large that the data_map "
                             "D @ theta overflows")
        return d

    def _kkt_solve(self, act, key, rhs):
        """Solve ``[[P, A_act'], [A_act, 0]] sol = rhs`` for the row set
        ``act`` (``key``, the bytes of its side vector, names it), one
        column or many.

        The matrix is LU-factored with ``+-_POLISH_REG`` on its diagonal
        blocks and the solution is refined ``_POLISH_REFINE`` times against
        the unregularized system.  The factor of the last row set is kept,
        so a set that repeats from one solve to the next costs back-solves
        only; factoring another set drops the set's record.  Returns
        ``sol``, or None on a singular pivot or a non-finite solution.
        """
        n = self.n
        A_act = self.A[act]
        if key != self._kkt_key:
            a = act.shape[0]
            K = np.zeros((n + a, n + a))
            K[:n, :n] = self.P + _POLISH_REG * np.eye(n)
            K[:n, n:] = A_act.T
            K[n:, :n] = A_act
            K[n:, n:] = -_POLISH_REG * np.eye(a)
            # the arguments lu_factor/lu_solve pass; a singular pivot rejects
            lu, piv, info = _GETRF(K, overwrite_a=True)
            self._kkt_key = key
            self._kkt = (lu, piv) if info == 0 else None
            self._map = None
        if self._kkt is None:
            return None
        lu, piv = self._kkt
        if rhs.ndim == 1:
            def apply(r):
                return _GETRS(lu, piv, r, trans=0, overwrite_b=False)[0]
        else:
            # many columns: one product with the inverse formed from the LU
            # costs a fraction of their back-solves
            apply = _GETRI(lu, piv)[0].__matmul__
        sol = apply(rhs)
        for _ in range(_POLISH_REFINE):
            x, y_act = sol[:n], sol[n:]
            res = np.concatenate([rhs[:n] - self.P @ x - A_act.T @ y_act,
                                  rhs[n:] - A_act @ x])
            sol = sol + apply(res)
        if not np.isfinite(sol).all():
            return None
        return sol

    def _certify(self, q, shift, s):
        """Try the active set of the side vector ``s`` (:meth:`_sides`).

        ``s`` is the side vector of a dual point: the warm start before
        ADMM, ADMM's own dual after ADMM has solved the step.  The bounds
        are the data map's constant bounds plus ``shift``.  The set's KKT
        solution comes from its LU, and :meth:`_accept` tests it.
        Otherwise up to ``_CERTIFY_ROUNDS`` corrections set ``s`` to 0 on
        the rows whose multipliers have ``s * y < 0`` and to -1 or +1 on
        the free rows violated below or above.  When a solve certifies the
        set that the previous solve certified, the set's record is built
        for the next one.  Returns a ``SOLVED`` answer with zero
        iterations, or None.
        """
        n = self.n
        lo0, hi0 = self._bounds0
        previous, self._certified_key = self._certified_key, None
        for _ in range(_CERTIFY_ROUNDS + 1):
            act = (~self._free | (s != 0.0)).nonzero()[0]
            key = s.tobytes()
            closed0 = np.array([np.where(s > 0.0, hi0, lo0),
                                np.where(s < 0.0, lo0, hi0)])
            b = (closed0[0] + shift)[act]
            sol = self._kkt_solve(act, key, np.concatenate([-q, b]))
            if sol is None:
                return None
            x, y = sol[:n], np.zeros(self.k)
            y[act] = sol[n:]
            answer, t = self._accept(x, y, q, closed0, shift, s)
            if answer is not None:
                if self._map is None and key == previous:
                    self._map = self._record(act, s, closed0)
                self._certified_key = key
                return answer
            new = np.where(s * y < 0.0, 0.0, s)
            new[self._free & (lo0 - t > _EPS_ABS)] = -1.0
            new[self._free & (t - hi0 > _EPS_ABS)] = 1.0
            if np.array_equal(new, s):
                return None
            s = new
        return None

    def _accept(self, x, y, q, closed0, shift, s):
        """``(answer, t)``: the set's answer ``(x, y)``, or None when the
        sign or residual test rejects it, and ``t = A x - shift``.

        ``closed0`` holds the bounds less ``shift``, each set row closed
        onto its side, and ``s`` is the set's side vector: a multiplier
        with ``s * y < 0`` has the wrong sign.
        The primal residual is the largest gap of ``t`` outside
        ``closed0``, which is ``|Ax - z|`` for the point ``z`` of the box
        nearest ``Ax``; the dual one is ``|P x + q + A' y|``.  They and the
        largest of ``-s * y`` come from one reduction of the solver's
        scratch.  Residuals within ``eps_abs`` pass the ADMM stopping test
        at any scale; others take the scaled test of :meth:`_residuals`.
        """
        k = self.k
        AxPx = _GEMV(1.0, self._APT, x, trans=1)
        Ax, Px = AxPx[:k], AxPx[k:]
        t = Ax - shift
        lo0, hi0 = closed0
        np.subtract(lo0, t, out=self._gaps[0])
        np.subtract(t, hi0, out=self._gaps[1])
        np.negative(np.multiply(s, y, out=self._wrong), out=self._wrong)
        dual = np.add(Px, q, out=self._dual)
        if k:  # BLAS takes no empty vector
            dual = _GEMV(1.0, self._AT, y, beta=1.0, y=dual, overwrite_y=1)
        np.abs(dual, out=self._dual)
        r_prim, wrong, r_dual = np.maximum.reduceat(
            self._scratch, self._scratch_groups).tolist()
        if wrong > 0.0:
            return None, t
        if not (r_prim <= _EPS_ABS and r_dual <= _EPS_ABS):
            lo, hi = closed0 + shift
            r_prim, r_dual, *_, ok, _ = self._residuals(
                q, x, y, Ax, np.minimum(np.maximum(Ax, lo), hi))
            if not ok:
                return None, t
        return _Answer(x, y, QpStatus.SOLVED, 0, r_prim, r_dual,
                       _objective(x, Px, q), t), t

    def _from_record(self, rec, d):
        """Answer the record's set from ``d = rec.G @ theta``, which stacks
        the set's ``x`` and ``y`` on the data ``D @ theta``.

        The sign and residual tests of :meth:`_accept` run on the answer
        as on an LU answer.  Returns the answer, or None when they reject
        it.
        """
        n, nk = self.n, self.n + self.k
        answer, _ = self._accept(d[:n], d[n:nk], d[nk:nk + n], rec.closed0,
                                 d[nk + n:], rec.sides)
        if answer is not None:
            self._certified_key = rec.key
        return answer

    def _record(self, act, s, closed0):
        """The record of the set with side vector ``s`` and rows ``act``,
        or None.

        With ``data_map = (D, lower0, upper0)``, the set's KKT right-hand
        side is ``[-D[:n]; D[n:][act]] @ theta`` plus its bounds'
        constant parts ``closed0[0]`` in the column of theta's trailing 1.
        Its columns are solved through the inverse formed from the set's
        cached LU, and refined as a single solve is; the multiplier rows
        are then spread to full length, and ``D`` is stacked below them.
        """
        D = self.data_map[0]
        n, k = self.n, self.k
        rhs = np.vstack([-D[:n], D[n:][act]])
        rhs[n:, -1] += closed0[0][act]
        key = s.tobytes()
        sol = self._kkt_solve(act, key, rhs)
        if sol is None:
            return None
        G = np.zeros((2 * (n + k), sol.shape[1]))
        G[:n] = sol[:n]
        G[n + act] = sol[n:]
        G[n + k:] = D
        return _SetRecord(sides=s, key=key, G=G, closed0=closed0)


def _objective(x, Px, q) -> float:
    """``0.5 x' P x + q' x``, by two BLAS dots."""
    return 0.5 * _DOT(x, Px) + _DOT(q, x)


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _check_bounds(lo, hi, names) -> None:
    """Reject a NaN bound, a ``+inf`` lower or ``-inf`` upper bound, and a
    lower bound above its upper bound.

    Valid bounds pass one whole-array test; only bounds that fail it are
    searched for the first row to name.
    """
    if ((lo <= hi) & (lo < np.inf) & (hi > -np.inf)).all():
        return
    for name, v, bad in ((names[0], lo, np.inf), (names[1], hi, -np.inf)):
        if np.isnan(v).any():
            raise ValueError(f"{name} has NaN entries")
        if (v == bad).any():
            raise ValueError(f"{name} has entries equal to {bad}")
    crossed = np.flatnonzero(lo > hi)
    raise ValueError(f"{names[0]} exceeds {names[1]} at row {crossed[0]}")


def _primal_infeasibility(A, lo, hi, fin_lo, fin_hi, dy, eps) -> bool:
    norm_dy = _inf_norm(dy)
    if norm_dy <= eps:
        return False
    if _inf_norm(A.T @ dy) > eps * norm_dy:
        return False
    dy_pos = np.maximum(dy, 0.0)
    dy_neg = np.minimum(dy, 0.0)
    # An infinite bound can only certify if the matching multiplier vanishes.
    if np.any(dy_pos[~fin_hi] > eps * norm_dy):
        return False
    if np.any(-dy_neg[~fin_lo] > eps * norm_dy):
        return False
    support = (np.sum(hi[fin_hi] * dy_pos[fin_hi])
               + np.sum(lo[fin_lo] * dy_neg[fin_lo]))
    return support <= -eps * norm_dy


def _dual_infeasibility(P, q, A, fin_lo, fin_hi, dx, eps) -> bool:
    norm_dx = _inf_norm(dx)
    if norm_dx <= eps:
        return False
    if q @ dx > -eps * norm_dx:
        return False
    if _inf_norm(P @ dx) > eps * norm_dx:
        return False
    Adx = A @ dx
    tol = eps * norm_dx
    return not np.any((fin_hi & (Adx > tol)) | (fin_lo & (Adx < -tol)))


def solve(prob: QpProblem, x0: np.ndarray | None = None,
          y0: np.ndarray | None = None) -> QpSolution:
    """One-shot solve of ``prob``: the one-column data map ``D = [q; 0]``
    of :class:`BoxQpSolver`, at ``theta = [1]``."""
    D = np.concatenate([prob.q, np.zeros(prob.k)])[:, None]
    solver = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    return solver.solve(np.ones(1), x0=x0, y0=y0)
