"""Box-constrained convex QP solver: a warm-started active-set step with
an ADMM fallback.

Solves

    minimize    0.5 x' P x + q' x
    subject to  lower <= A x <= upper

with P symmetric positive semidefinite.  Equality rows are expressed as
``lower == upper``; one-sided rows use ``+-inf``.

The solver is built for receding-horizon MPC, where ``P`` and ``A`` stay
fixed while ``q`` and the bounds are affine in a parameter ``theta``
ending in 1, the parametric form of explicit MPC (Bemporad, Morari, Dua
and Pistikopoulos, Automatica 2002): :class:`BoxQpSolver` is built with
``data_map = (D, lower0, upper0)`` and then given ``theta`` alone, and
one BLAS ``gemv`` ``D @ theta`` forms ``q`` and the bound shift.  The
one-shot :func:`solve` is the map ``D = [q; 0]`` at ``theta = [1]``.

Before any iteration, a solve tries to certify the active set that the
dual warm start ``y0`` points at, as qpOASES does (Ferreau, Bock and
Diehl, IJRNC 2008).  A set's one name is its side vector ``s`` in {-1,
0, +1}^k, ``np.sign(y0)`` clipped into the sides each row can be held
at: -1 holds a row at its lower bound, +1 at its upper one, 0 nowhere;
an equality row, held always, and an infinite bound take no side.  The
set's KKT system is solved in the space of its rows, the range-space
form of Goldfarb and Idnani (Math. Prog. 1983) used by DAQP (Arnstroem,
Bemporad and Axehill, IEEE TAC 2022).  Every set holds the equality rows
``E``, so ``P~ = P + A_E' A_E`` and ``c = -q + A_E' b_E`` keep its ``x``
and ``y``.  The build factors ``P~`` once (``P~ + _POLISH_REG I`` where
it is singular; a ``P`` that is not PSD raises ``ValueError``) into the
row space ``W = [H; M; P H - A']``, ``H = P~^-1 A'`` and ``M = A H``,
and the map ``XC @ theta = [x_u; t_u; P x_u + q]`` of ``x_u = P~^-1 c``
and ``t_u = A x_u - shift``.  A set ``S`` with constant bounds ``b0_S``
gathers its columns ``W_S`` of ``W`` once and solves ``M_SS y_S =
t_u,S - b0_S`` by the plain Cholesky factor of ``M_SS``, the rows of
``W_S`` in ``M``; where that fails, or its smallest pivot is at most
``_SET_RTOL`` (1e-3) of its largest (repeated or dependent rows), by the
factor of ``M_SS + _POLISH_REG I`` refined ``_POLISH_REFINE`` (3) times.
One product, ``[x; t; r] = XC @ theta - W_S y_S``, gives ``x``, the
slack of every row ``t = A x - shift`` and the stationarity residual
``r = P x + q + A' y``.  Where ``P~`` is singular, ``XC`` maps ``c`` in
the place of ``P x_u + q``, and ``t`` and ``r`` are formed from ``x``
and ``y`` refined against ``P~``.  One verdict decides the set from
that product (:meth:`BoxQpSolver._verdict`): it is ``SOLVED`` with
``iterations == 0`` where ``s * y >= 0`` and both residuals pass the
ADMM stopping test, the primal one with the set's rows held at their
bounds.  Otherwise up to ``_CERTIFY_ROUNDS`` (3) corrections set ``s``
to 0 where ``s * y < 0`` and to -1 or +1 on the free rows violated below
or above by more than ``_EPS_ABS``, and if none is accepted ADMM runs,
warm-started.  A round returns no vector the solver holds, so a solve is
a pure function of its arguments, to round-off when a record answers
it.  Once ADMM has solved the problem, the same step starts from the
side vector of ADMM's dual, in the place of OSQP's polish (Stellato et
al., Math. Prog. Comp. 2020); ``QpSolution.iterations`` counts ADMM iterations only.  Without
rows an uncertified problem is ``DUAL_INFEASIBLE``.  ``QpSolution.path``
names the path that answered: the set record (below), the warm start's
set, a corrected set, or ADMM.

ADMM is dense, with Ruiz equilibration, a per-row step parameter that is
rescaled from the primal/dual residual ratio, and over-relaxation; as in
OSQP, an iteration applies a Cholesky factor through LAPACK's ``potrs``,
and each run forms its scaling and factors anew.  Everything is
deterministic, and no value is settable: module constants fix the
tolerances ``_EPS_ABS`` and ``_EPS_REL``, the cap ``_MAX_ITER`` (which
:class:`QpSettings` reads back) and the rest.  ``P``, ``A`` and the data
map are checked when the solver is built, ``theta`` and the warm starts
at each solve; a residual that turns non-finite raises ``ValueError``.

The KKT solution of a fixed active set is affine in ``theta`` too: the
critical regions of explicit MPC.  A solve factors each set it tries
once, and one ``potrs`` on that factor solves every right-hand side.
Once two solves in a row have certified a set, its record is built
through the factor that certified it: the bytes of the side vector and
one map ``G`` with ``G @ theta = [x; y; 0; t; 0; r]``, the set solve
with ``D`` and ``XC`` in the place of their products with ``theta``.
It answers until another record replaces it; no factor of a set
outlives its solve.  A hit is one ``gemv`` with ``G``, tested finite
with ``theta`` and the warm starts (:meth:`BoxQpSolver._checked`), and
one reduction of its fixed stationarity and bound rows against the
set's box (:meth:`BoxQpSolver._accept`), which only a record's build
forms.  A rejected hit's own ``y`` and ``t`` start the corrections, in
the place of the first round; only where they change no side is the set
solved again through its factor.  ``QpSolution.sets`` counts the sets a
solve factored, 0 for a hit.  No step forms the objective: :func:`solve`
forms it from its answer.
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


@dataclass(frozen=True, eq=False)
class QpProblem:
    """Problem data, checked on entry: non-finite ``P``, ``q`` or ``A``
    first (a ``ValueError`` naming the field), then the shapes, the bounds
    by the solver's rule (:func:`_check_bounds`) and ``P``, symmetric and
    PSD to 1e-12 (:func:`_check_weight`)."""

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
        n = q.shape[0]
        if P.shape != (n, n):
            raise DimensionMismatch(f"P has shape {P.shape}, expected {(n, n)}")
        if A.ndim != 2 or A.shape[1] != n:
            raise DimensionMismatch(f"A has shape {A.shape}, expected (k, {n})")
        k = A.shape[0]
        if lo.shape[0] != k or hi.shape[0] != k:
            raise DimensionMismatch("bound lengths do not match A")
        _check_bounds(lo, hi, ("lower", "upper"))
        if P.size:
            _check_weight("P", P, positive=False)
        for name, v in (("P", 0.5 * (P + P.T)), ("q", q), ("A", A),
                        ("lower", lo), ("upper", hi)):
            object.__setattr__(self, name, v)

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
    active set; ``max_iter`` caps ADMM alone; the module constants fix
    the rest (module docstring).
    """

    __slots__ = ()
    eps_abs = property(lambda self: _EPS_ABS)
    eps_rel = property(lambda self: _EPS_REL)
    max_iter = property(lambda self: _MAX_ITER)


@dataclass(eq=False)
class QpSolution:
    """A solve's answer.  ``objective`` is ``0.5 x' P x + q' x`` at ``x``
    (``-inf`` when ``DUAL_INFEASIBLE``) from the one-shot :func:`solve`;
    :meth:`BoxQpSolver.solve` forms no objective, and its answers hold
    NaN there.  ``t`` is ``A x`` less the bound shift (of the solver's
    data map; none for :func:`solve`), which a receding-horizon step
    reads its plans from.  ``path`` names what answered: ``"record"``,
    the set record; ``"set"``, the warm start's set (and the verdict
    without rows); ``"corrected"``, a set after corrections or after a
    rejected record answer; ``"admm"``, ADMM, then the set of its dual.
    ``sets`` counts the active sets the solve factored: 0 for a record
    answer, and on the ADMM path those tried before ADMM and after it."""

    x: np.ndarray
    y: np.ndarray
    status: QpStatus
    iterations: int
    primal_res: float
    dual_res: float
    objective: float
    t: np.ndarray
    path: str
    sets: int = 0


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
# A set's bound on its pivot ratio (module docstring): a pivot d relative
# to the largest leaves the unrefined solve an error near eps / d^2; 28 of
# 2,328 table1 sets took the regularized factor, 8 of them by this bound.
_SET_RTOL = 1e-3
_EIG_TOL = 1e-12  # symmetry and eigenvalue tolerance of _check_weight

try:  # the clip ufunc, which np.clip reaches through Python dispatch
    from numpy._core.umath import clip as _CLIP
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _CLIP
# The float64 LAPACK routines behind cho_factor/cho_solve, called directly
# so that the ADMM loop and the active-set solves skip scipy's per-call
# input checks.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)
# the reduction behind ndarray.max, which reaches it through Python
_MAX = np.maximum.reduce
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


@dataclass(slots=True)
class _SetRecord:
    """The cached answer of one active set: its critical region."""

    key: bytes  # the bytes of the set's side vector s, its one name (_sides)
    # G @ theta = [x; y; 0; t; 0; r] (_set_solve), y zero off the set;
    # its rows of t and r are fixed here, and checked at every hit
    G: np.ndarray
    box: np.ndarray  # the bounds of G @ theta past x (_box)


@dataclass(slots=True)
class _RowSpace:
    """What the solve of an active set reads (module docstring)."""

    WT: np.ndarray  # W' of W = [H; M; P H - A'], H = P~^-1 A', M = A H
    XC: np.ndarray  # XC @ theta = [x_u; t_u; P x_u + q], or c last
    fallback: tuple | None  # (P~, factor of P~ + eps I) where P~ is singular
    boxes: tuple  # _box's boxes of a row off the set, held below, held above
    held: np.ndarray  # s != held on a set's rows: 0, NaN on equality rows
    open: np.ndarray  # the bounds a correction tests, open on equality rows
    sy: np.ndarray  # s * y, written by the verdict, read by the correction
    scratch: tuple  # _accept's gaps below and above a box; _box's sides


class BoxQpSolver:
    """Active-set and ADMM solver bound to a fixed ``(P, A)`` pair and
    data map.

    With ``data_map = (D, lower0, upper0)``, ``q = D[:n] @ theta`` and the
    bounds are ``lower0`` and ``upper0`` plus ``D[n:] @ theta``.  The map
    is checked once, here: ``D`` finite, ``lower0 <= upper0``, no ``+inf``
    lower and no ``-inf`` upper bound; so a finite shift keeps the bounds
    ordered, and the equality rows (``lower0 == upper0``) and the sides
    each row can take are fixed.  Between solves an instance keeps its row
    space (module docstring), at most one set record and the name of the
    set last certified, and no factor of a set.  :meth:`reset` drops the
    record and, once a miss has read it, the row space, which the next
    miss forms again.
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
        # copies, so that no caller's array changes the solver; a symmetric
        # P is kept as given: 0.5 * (P + P') would equal it
        self.A = np.array(A, order="C")
        self.P = (np.array(P, order="C") if np.array_equal(P, P.T)
                  else 0.5 * (P + P.T))
        self._AT = self.A.T  # Fortran-ordered for BLAS
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
        self._rows, self._rows_read = None, False
        self._sets = 0  # the sets the solve under way has factored
        self._row_space()  # a P that is not PSD fails here
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
        # where the groups y, t and r of [y; 0; t; 0; r] start (_accept);
        # the zeros end the first two groups, so that their maxima are at
        # least 0 and are defined for k == 0
        self._box_groups = np.array([0, k + 1, 2 * k + 2])
        self.reset()

    def _row_space(self) -> _RowSpace:
        """The row space (module docstring), formed at the build and after
        :meth:`reset`; ``ValueError`` where ``P`` is not PSD off ``E``."""
        if self._rows is not None:
            return self._rows
        n, eq = self.n, ~self._free
        A_E, D = self.A[eq], self.data_map[0]
        Pt = self.P + A_E.T @ A_E
        L, info = _POTRF(Pt, lower=False, overwrite_a=False, clean=False)
        singular = info > 0
        if singular:
            L, info = _POTRF(Pt + _POLISH_REG * np.eye(n), lower=False,
                             overwrite_a=True, clean=False)
            if info > 0:
                raise ValueError("P is not positive semidefinite where the "
                                 "equality rows leave x free")
        H = _POTRS(L, self._AT, lower=False)[0]
        # the map of c = -q + A_E' b_E, where b_E is lower0 plus the shift
        C = A_E.T @ D[n:][eq] - D[:n]
        C[:, -1] += A_E.T @ self._bounds0[0][eq]
        X = _POTRS(L, C, lower=False)[0]
        k, (lower0, upper0) = self.k, self._bounds0
        # [H; M; P H - A'], and X's rows in the same order, but c, which
        # refines x, in the place of P x_u + q where P~ is singular
        W = np.empty((2 * n + k, k), order="F")
        W[:n], W[n:n + k] = H, self.A @ H
        np.subtract((H.T @ self.P).T, self._AT, out=W[n + k:])
        XC = [X, self.A @ X - D[n:],
              C if singular else (X.T @ self.P).T + D[:n]]
        off = np.zeros((2, 2 * k + 2 + n))
        off[:, :k] = [[-np.inf], [np.inf]]
        off[:, k + 1:2 * k + 1] = self._bounds0
        below, above = off.copy(), off.copy()
        below[1, :k], below[1, k + 1:2 * k + 1] = 0.0, lower0
        above[0, :k], above[0, k + 1:2 * k + 1] = 0.0, upper0
        self._rows = _RowSpace(
            W.T, np.asfortranarray(np.vstack(XC)),
            (Pt, L) if singular else None, (off, below, above),
            np.where(self._free, 0.0, np.nan),
            np.where(self._free, self._bounds0, [[-np.inf], [np.inf]]),
            np.empty(k), tuple(np.zeros((3, 2 * k + 2 + n))))
        return self._rows

    def reset(self) -> None:
        """Drop the set record and, once a miss has read it, the row space;
        later solves form what they need."""
        if self._rows_read:
            self._rows = None
        self._rows_read = False  # whether a miss has read the row space
        self._map = None  # the _SetRecord that answers its set's solves
        self._certified_key = None  # the set the last solve certified

    # -- internals ---------------------------------------------------------

    def _residuals(self, q, x, y, Ax, z):
        """The stopping test of ADMM, and of an active-set answer whose
        residuals exceed ``eps_abs``.

        Returns ``(r_prim, r_dual, scale_p, scale_d, ok)``: the residuals
        ``|Ax - z|`` and ``|Px + q + A'y|`` (max norms), their scales, and
        whether both are within ``eps_abs + eps_rel * scale``.
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
        return r_prim, r_dual, scale_p, scale_d, ok

    def _sides(self, y):
        """The side vector of the set that the dual point ``y`` holds:
        ``np.sign(y)`` clipped into each row's side range, so -1 where
        ``y < 0`` at a finite lower bound, +1 where ``y > 0`` at a finite
        upper one, else +0.0 (equality rows too, which every set holds).
        Without ``y`` no row is held."""
        if y is None:
            return np.zeros(self.k)
        s = np.sign(y)  # +0.0 at a zero of either sign
        return _CLIP(s, *self._side_range, out=s)

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
            A :class:`QpSolution` whose ``objective`` is NaN and whose
            ``t`` is ``A x`` less the bound shift ``D[n:] @ theta``.

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
        rec, rejected = self._map, None
        if rec is not None and s.tobytes() == rec.key:
            d = self._checked(_GEMV(1.0, rec.G, theta), theta, x0, y0)
            answer = self._accept(d, rec.box)  # within eps_abs
            if answer is not None:
                self._certified_key = rec.key
                return answer
            rejected = d  # the corrections start from its y and t
        data = self._data(theta, x0, y0)
        xc = _GEMV(1.0, self._row_space().XC, theta)
        self._rows_read, self._sets = True, 0
        certified = self._certify(data, xc, s, rejected)
        if certified is not None:
            certified.sets = self._sets
            return certified
        if k == 0:
            # no rows and no certified solution of P x = -q: unbounded
            return QpSolution(np.zeros(n), np.zeros(0),
                              QpStatus.DUAL_INFEASIBLE, 0, 0.0, math.inf,
                              math.nan, np.zeros(0), "set", self._sets)

        q, shift = data[:n], data[n:]
        lo, hi = self._bounds0 + shift
        x, y, r_prim, r_dual, status, iters = self._admm(q, lo, hi, x0, y0)
        if status is QpStatus.SOLVED:
            refined = self._certify(data, xc, self._sides(y))
            if refined is not None:
                refined.iterations, refined.path = iters, "admm"
                refined.sets = self._sets
                return refined
        return QpSolution(x, y, status, iters, r_prim, r_dual, math.nan,
                          self.A @ x - shift, "admm", self._sets)

    def _admm(self, q, lo, hi, x0, y0):
        """ADMM at ``q`` and the bounds ``lo``/``hi``, warm-started from
        ``x0``/``y0``: ``(x, y, r_prim, r_dual, status, iterations)``, the
        iterate unscaled and the residuals of :meth:`_residuals` that the
        check it ended at formed, at ``_MAX_ITER`` too.

        Each call forms its Ruiz scaling and its Cholesky factors, one per
        step size ``rho``, and keeps none of them: they are functions of
        ``P``, ``A`` and ``rho`` alone, so no solve depends on an earlier
        one.
        """
        n, k = self.n, self.k
        d, e, c = _ruiz(self.P, self.A, _SCALING_ITERS)
        qs, los, his = c * d * q, e * lo, e * hi
        fin_lo, fin_hi = np.isfinite(lo), np.isfinite(hi)
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
                x, y, Ax, z = unscaled(xs_new, zs_new, ys_new)
                r_prim, r_dual, scale_p, scale_d, ok = self._residuals(
                    q, x, y, Ax, z)
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
                if status is not QpStatus.MAX_ITER or it == max_iter:
                    return x, y, r_prim, r_dual, status, it
                if r_dual > 0.0 and scale_p > 0.0 and scale_d > 0.0:
                    ratio = (r_prim / scale_p) / max(r_dual / scale_d, 1e-16)
                    rho_new = float(np.clip(rho_scalar * np.sqrt(ratio),
                                            _RHO_MIN, _RHO_MAX))
                    if (rho_new > _REFACTOR_RATIO * rho_scalar
                            or rho_new < rho_scalar / _REFACTOR_RATIO):
                        rho_scalar = rho_new
                        rho_vec, L = factor(rho_scalar)
            xs, zs, ys = xs_new, zs_new, ys_new

    def _data(self, theta, x0=None, y0=None):
        """``D @ theta``, tested by :meth:`_checked`."""
        return self._checked(_GEMV(1.0, self._DT, theta, trans=1), theta, x0,
                             y0)

    def _checked(self, d, theta, x0=None, y0=None):
        """``d``, a map's product with ``theta`` by BLAS ``gemv``, tested
        finite with ``theta`` and the warm starts: the one test of a
        solve's inputs.

        ``theta`` is tested itself, so an entry whose column of the map is
        zero is tested too.  One BLAS dot per array forms a sum of squares,
        finite when every entry is (:func:`_finite`); a sum that overflows
        sends the arrays to the entry-wise test, which names the first
        non-finite one.
        """
        total = _DOT(d, d) + _DOT(theta, theta)
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

    def _set_factor(self, act):
        """``(W_S, M_SS, F, regularized)`` of the set with rows ``act``: its
        columns ``W_S = W[:, act]`` of the row space, taken once as rows of
        ``W'``, their rows ``M_SS`` of ``M``, and the upper Cholesky factor
        ``F`` of ``M_SS`` where it exists and ``min(diag F) > _SET_RTOL *
        max(diag F)``, else of ``M_SS + _POLISH_REG I`` (``regularized``);
        None where that fails too.  Counts the set in the solve's ``sets``."""
        self._sets += 1
        W_S = self._rows.WT.take(act, 0).T
        M_SS = W_S[self.n:self.n + self.k][act]
        F, info = _POTRF(M_SS, lower=False, overwrite_a=False, clean=False)
        pivots = F.diagonal()
        if info == 0 and (not act.size or pivots.item(pivots.argmin())
                          > _SET_RTOL * pivots.item(pivots.argmax())):
            return W_S, M_SS, F, False
        F, info = _POTRF(M_SS + _POLISH_REG * np.eye(act.size), lower=False,
                         overwrite_a=True, clean=False)
        return None if info != 0 else (W_S, M_SS, F, True)

    def _set_solve(self, act, factor, data, xc, b0):
        """``(y, xtr)`` of the set with rows ``act`` and
        :meth:`_set_factor` ``factor`` (module docstring): its multipliers
        ``y``, zero off the set, and ``xtr = [x; t; r]``.  ``data`` and
        ``xc`` are ``D @ theta`` and ``XC @ theta``, or for a record's maps
        ``D`` and ``XC``; ``b0`` holds the bounds the set's rows are held
        at, a column like ``xc``'s (theta's trailing 1 times the bounds, for
        a record).  One ``potrs`` solves a miss's one column and a record's
        many alike, refined ``_POLISH_REFINE`` times against ``M_SS`` where
        the factor is regularized."""
        rows, n, k = self._rows, self.n, self.k
        nk, (W_S, M_SS, F, regularized) = n + k, factor
        rhs = xc[n:nk][act] - b0
        y_S = _potrs(F, rhs)
        if regularized:
            for _ in range(_POLISH_REFINE):
                y_S += _potrs(F, rhs - M_SS @ y_S)
        y = np.zeros((k, *y_S.shape[1:]))
        y[act] = y_S
        # [x; t; r] = XC - W_S Y_S: one product over the set's columns
        # alone (numpy is slow on a product of no columns)
        xtr = xc - (y_S.T @ W_S.T).T if act.size else xc
        if rows.fallback is not None:
            # [[P~, A_S'], [A_S, 0]] [x; y_S] = [c; b], by its residuals;
            # t and r follow from the refined x and y
            Pt, L = rows.fallback
            A_S, b = self.A[act], data[n:][act] + b0
            xtr = xtr.copy()  # xc itself where the set is empty
            x, t, r = xtr[:n], xtr[n:nk], xtr[nk:]
            for _ in range(_POLISH_REFINE):
                w = _POTRS(L, xc[nk:] - Pt @ x - self._AT @ y,
                           lower=False)[0]
                dy_S = _potrs(F, A_S @ (x + w) - b)
                y[act] += dy_S
                x += w - W_S[:n] @ dy_S
            np.subtract(self.A @ x, data[n:], out=t)
            np.add(self.P @ x, data[:n], out=r)
            r += self._AT @ y
        return y, xtr

    def _box(self, s):
        """The bounds that ``[y; 0; t; 0; r]`` of the set with side vector
        ``s`` must lie in: ``s * y >= 0``, ``t`` within the bounds less the
        shift with each set row closed onto its side, and ``r = 0``."""
        k, sides = self.k, self._rows.scratch[2]
        sides[:k] = sides[k + 1:2 * k + 1] = s
        off, below, above = self._rows.boxes
        return np.where(sides > 0.0, above,
                        np.where(sides < 0.0, below, off))

    def _certify(self, data, xc, s, rejected=None):
        """Try the active set of the side vector ``s`` (:meth:`_sides`) of
        a dual point: the warm start, or ADMM's dual once ADMM has solved
        the step; ``data`` and ``xc`` are ``D @ theta`` and ``XC @ theta``,
        and ``rejected``, where given, is the rejected record answer of
        ``s``, whose correction takes the place of round 0 unless it
        changes no side.
        Each set tried is factored once (:meth:`_set_factor`), solved by
        one product (:meth:`_set_solve`) and decided from it in one verdict
        (:meth:`_verdict`), whose ``s * y`` a rejected set's correction
        (:meth:`_corrected`) reads, for up to ``_CERTIFY_ROUNDS`` rounds.
        When a solve certifies the set that the previous solve certified,
        and no record of it is held, its box (:meth:`_box`) and record,
        solved through the same factor, take the place of any other record.
        Returns a ``SOLVED`` answer with zero iterations (on the path
        ``"corrected"`` after a correction or a rejected record), or None.
        """
        n, k = self.n, self.k
        nk = n + k
        rows, (_, lo0, hi0) = self._rows, self.data_map
        previous, self._certified_key = self._certified_key, None
        first = 0
        if rejected is not None:
            sy = np.multiply(s, rejected[n:nk], out=rows.sy)
            new = self._corrected(s, sy, rejected[nk + 1:nk + k + 1])
            if new.tobytes() != s.tobytes():
                s, first = new, 1
        for round_ in range(first, _CERTIFY_ROUNDS + 1):
            act = (s != rows.held).nonzero()[0]
            factor = self._set_factor(act)
            if factor is None:
                return None
            # the upper bounds of t: the lower one where s is -1
            upper = _CLIP(np.copysign(math.inf, s), lo0, hi0)
            y, xtr = self._set_solve(act, factor, data, xc, upper[act])
            path = "corrected" if round_ or rejected is not None else "set"
            answer = self._verdict(s, y, xtr, upper, data, path)
            if answer is False:
                return None
            if answer is not None:
                key = s.tobytes()
                if key == previous and (self._map is None
                                        or self._map.key != key):
                    self._map = self._record(act, factor, s, self._box(s))
                self._certified_key = key
                return answer
            new = self._corrected(s, rows.sy, xtr[n:nk])
            if new.tobytes() == s.tobytes():
                return None
            s = new
        return None

    def _verdict(self, s, y, xtr, upper, data, path):
        """The verdict on the set of side vector ``s`` from its
        :meth:`_set_solve` answer ``y`` and ``xtr = [x; t; r]``, the
        ``upper`` bounds of ``t`` and ``data = D @ theta``: the ``SOLVED``
        answer on the path ``path``; None where the set is rejected, to be
        corrected from the ``s * y`` it leaves in ``sy`` of the row space;
        False where it is not finite.

        Where ``t`` is finite, a wrong sign ``s * y < 0``, or a primal
        residual beyond ``eps_abs`` and beyond the scaled test with ``A x =
        t + shift``, rejects the set, whatever ``x`` and ``r`` hold; the
        primal residual is the largest gap of ``t`` outside its bounds
        closed onto the set's sides, 0 where there is none.  A set that
        passes is tested finite whole.  Its residuals are that gap and
        ``max|r|``; where either exceeds ``eps_abs``, both are those of the
        scaled test of :meth:`_residuals`, which must pass.
        """
        n, k = self.n, self.k
        x, t, shift = xtr[:n], xtr[n:n + k], data[n:]
        # the lower bounds, formed once the signs pass (no rows: empty too)
        r_prim, whole, closed = 0.0, _finite(xtr), upper
        if k and (whole or _finite(t)):
            sy = np.multiply(s, y, out=self._rows.sy)
            if sy.item(sy.argmin()) < 0.0:
                return None
            closed = np.where(s > 0.0, self.data_map[2], self.data_map[1])
            r_prim = max(_MAX(np.maximum(closed - t, t - upper)).item(), 0.0)
            if r_prim > _EPS_ABS:
                Ax = t + shift
                z = np.minimum(np.maximum(Ax, closed + shift), upper + shift)
                scale_p = max(_MAX(np.abs(Ax)), _MAX(np.abs(z)))
                if not _MAX(np.abs(Ax - z)) <= _EPS_ABS + _EPS_REL * scale_p:
                    return None
        if not whole:
            return False
        r_dual = _MAX(np.abs(xtr[n + k:])).item()
        if not (r_prim <= _EPS_ABS and r_dual <= _EPS_ABS):
            Ax = self.A @ x
            r_prim, r_dual, *_, ok = self._residuals(
                data[:n], x, y, Ax,
                np.minimum(np.maximum(Ax, closed + shift), upper + shift))
            if not ok:
                return None
        return QpSolution(x, y, QpStatus.SOLVED, 0, r_prim, r_dual,
                          math.nan, t, path)

    def _corrected(self, s, sy, t):
        """``s`` corrected from ``sy = s * y`` of the set's multipliers
        ``y`` and its slack ``t``: 0 where ``s * y < 0``, -1 or +1 on the
        free rows below or above their bounds by more than ``eps_abs``;
        like ``s``, it holds no -0.0, so that its bytes name its set."""
        new = s.copy()
        new[sy < 0.0] = 0.0
        # lower - t and upper - t: t - upper > eps where upper - t < -eps
        below, above = self._rows.open - t
        new[below > _EPS_ABS] = -1.0
        new[above < -_EPS_ABS] = 1.0
        return new

    def _accept(self, d, box):
        """The ``SOLVED`` record answer ``d = [x; y; 0; t; 0; r]`` (``G @
        theta``), or None where its sign or residual test rejects it.

        One reduction of the solver's scratch gives the largest wrong sign
        ``-s * y``, the primal residual, which is the largest gap of ``t``
        outside the closed bounds, and the dual one, ``|r|``: how far
        ``d``'s rows past ``x`` lie outside ``box`` (:meth:`_box`).  Both
        residuals must be within ``eps_abs``.
        """
        n, k = self.n, self.k
        below, above, _ = self._rows.scratch
        np.subtract(box[0], d[n:], out=below)
        np.subtract(d[n:], box[1], out=above)
        wrong, r_prim, r_dual = np.maximum.reduceat(
            np.maximum(below, above, out=below), self._box_groups).tolist()
        if wrong > 0.0 or not (r_prim <= _EPS_ABS and r_dual <= _EPS_ABS):
            return None
        return QpSolution(d[:n], d[n:n + k], QpStatus.SOLVED, 0, r_prim,
                          r_dual, math.nan, d[n + k + 1:n + 2 * k + 1],
                          "record")

    def _record(self, act, factor, s, box):
        """The record of the set with side vector ``s``, rows ``act``,
        :meth:`_set_factor` ``factor`` and :meth:`_box` ``box``: its map
        over ``D``, or None where that is not finite."""
        D, n, k = self.data_map[0], self.n, self.k
        nk = n + k
        b0 = np.multiply.outer(box[0, k + 1:2 * k + 1][act],
                               np.eye(D.shape[1])[-1])  # the held bounds
        y, xtr = self._set_solve(act, factor, D, self._rows.XC, b0)
        # [x; y; 0; t; 0; r], Fortran-ordered, so that BLAS reads it in place
        G = np.zeros((2 * nk + 2, D.shape[1]), order="F")
        G[:n], G[n:nk], G[nk + 1:nk + k + 1] = xtr[:n], y, xtr[n:nk]
        G[nk + k + 2:] = xtr[nk:]
        return (_SetRecord(s.tobytes(), G, box) if _finite(G.ravel(order="F"))
                else None)


def _finite(v):
    """Whether every entry of the 1-d ``v`` is finite: a sum of squares is
    finite when they are, and one that overflows from finite entries is
    sent to the entry-wise test.  BLAS takes no empty vector."""
    return (not v.size or _DOT(v, v) < math.inf
            or bool(np.isfinite(v).all()))


def _potrs(F, rhs):
    """``rhs`` solved by the upper Cholesky factor ``F``; LAPACK takes no
    empty factor."""
    return _POTRS(F, rhs, lower=False)[0] if F.size else rhs.copy()


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


def _check_weight(name: str, mat: np.ndarray, positive: bool) -> np.ndarray:
    """``mat`` as a 2-d array, checked square, symmetric and positive
    definite (``positive``) or semidefinite to ``_EIG_TOL`` of its scale."""
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
    of :class:`BoxQpSolver`, at ``theta = [1]``.  The answer's
    ``objective`` is formed from its ``x``."""
    D = np.concatenate([prob.q, np.zeros(prob.k)])[:, None]
    solver = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    sol = solver.solve(np.ones(1), x0=x0, y0=y0)
    x = sol.x
    sol.objective = (-math.inf if sol.status is QpStatus.DUAL_INFEASIBLE
                     else 0.5 * float(x @ prob.P @ x) + float(prob.q @ x))
    return sol
