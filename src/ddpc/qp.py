"""Box-constrained convex QP solver based on operator splitting.

Solves

    minimize    0.5 x' P x + q' x
    subject to  lower <= A x <= upper

with P symmetric positive semidefinite.  Equality rows are expressed as
``lower == upper``; one-sided rows use ``+-inf``.  The implementation is a
dense ADMM scheme with Ruiz equilibration, a per-row step parameter that
is rescaled from the primal/dual residual ratio, over-relaxation, and an
active-set polish step once the iterates have converged.  Everything is
deterministic: identical inputs produce identical iterates.  The scheme's
parameters are the module constants ``_RHO``, ``_SIGMA``, ``_ALPHA``,
``_CHECK_INTERVAL``, ``_EPS_INFEAS`` and ``_SCALING_ITERS``;
:class:`QpSettings` holds only the tolerances and the iteration cap.

The solver is built for the receding-horizon use case where ``P`` and
``A`` stay fixed while ``q`` and the bounds change from step to step:
:class:`BoxQpSolver` caches the equilibration and the KKT factorization
across such solves and accepts warm starts.  As in OSQP (Stellato et al.,
Math. Prog. Comp. 2020), an iteration applies the cached Cholesky factor
through LAPACK's ``potrs`` and does nothing but its arithmetic.
Finiteness is checked once at entry instead: ``P`` and ``A`` when the
solver is built, ``q``, the bounds and the warm starts at each solve.  A
residual that turns non-finite at a convergence check raises
``ValueError``; it is never reported as a status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg
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
    """Problem data; symmetry of ``P`` is enforced to 1e-12 on entry."""

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


@dataclass(frozen=True)
class QpSettings:
    """Convergence tolerances and the iteration cap.

    A step is ``SOLVED`` once both residuals are within
    ``eps_abs + eps_rel * scale``; the defaults favour accuracy over
    speed.  The rest of the algorithm is fixed by module constants: the
    initial step size ``_RHO`` (0.1), the KKT shift ``_SIGMA`` (1e-6), the
    over-relaxation ``_ALPHA`` (1.6), the residual check every
    ``_CHECK_INTERVAL`` (25) iterations, the infeasibility tolerance
    ``_EPS_INFEAS`` (1e-7) and ``_SCALING_ITERS`` (10) Ruiz passes.  The
    step size always adapts to the residual ratio, and a ``SOLVED`` step
    is always polished.
    """

    eps_abs: float = 1e-8
    eps_rel: float = 1e-8
    max_iter: int = 50000


@dataclass
class QpSolution:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    status: QpStatus
    iterations: int
    primal_res: float
    dual_res: float
    objective: float


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

# The float64 LAPACK routines behind cho_factor/cho_solve and
# lu_factor/lu_solve, called directly so that the ADMM loop and the polish
# skip scipy's per-call input checks.
_POTRF, _POTRS, _GETRF, _GETRS = get_lapack_funcs(
    ("potrf", "potrs", "getrf", "getrs"), dtype=np.float64)


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


class BoxQpSolver:
    """ADMM solver bound to a fixed ``(P, A)`` pair.

    One instance amortizes equilibration and KKT factorization over many
    solves that differ only in ``q`` and the bounds.
    """

    def __init__(self, P: np.ndarray, A: np.ndarray,
                 settings: QpSettings | None = None):
        self.settings = settings or QpSettings()
        P = np.asarray(P, dtype=float)
        A = np.asarray(A, dtype=float)
        for name, arr in (("P", P), ("A", A)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        self.n = P.shape[0]
        self.k = A.shape[0]
        self.P = 0.5 * (P + P.T)
        self.A = A
        self.d, self.e, self.c = _ruiz(self.P, A, _SCALING_ITERS)
        self.Ps = self.c * self.P * self.d[None, :] * self.d[:, None]
        self.As = self.A * self.e[:, None] * self.d[None, :]
        self._rho_vec = None
        self._factor = None

    # -- internals ---------------------------------------------------------

    def _refactor(self, rho_vec: np.ndarray) -> None:
        K = (self.Ps + _SIGMA * np.eye(self.n)
             + (self.As.T * rho_vec[None, :]) @ self.As)
        # the arguments cho_factor passes; the upper triangle holds the factor
        factor, info = _POTRF(K, lower=False, overwrite_a=False, clean=False)
        if info > 0:
            raise scipy.linalg.LinAlgError(
                f"{info}-th leading minor of the KKT matrix is not positive "
                "definite")
        self._factor = factor
        self._rho_vec = rho_vec.copy()

    def _rho_for(self, rho_scalar: float, eq_mask: np.ndarray) -> np.ndarray:
        rho_vec = np.full(self.k, rho_scalar)
        rho_vec[eq_mask] = min(rho_scalar * _RHO_EQ_FACTOR, _RHO_MAX)
        return rho_vec

    def _unscaled_terms(self, xs, zs, ys):
        """Residual ingredients in the units of the original problem."""
        x = self.d * xs
        Px = self.P @ x
        Ax = (self.As @ xs) / self.e
        z = zs / self.e
        y = (self.e * ys) / self.c
        Aty = self.A.T @ y
        return x, Px, Ax, z, y, Aty

    # -- main entry --------------------------------------------------------

    def solve(self, q: np.ndarray, lower: np.ndarray, upper: np.ndarray,
              x0: np.ndarray | None = None,
              y0: np.ndarray | None = None) -> QpSolution:
        """Solve for one right-hand side, optionally warm-started.

        Args:
            q: Linear cost term, length n.
            lower: Row lower bounds (``-inf`` allowed), length k.
            upper: Row upper bounds (``+inf`` allowed), length k.
            x0: Optional primal warm start (unscaled), length n.
            y0: Optional dual warm start (unscaled), length k.

        Raises:
            DimensionMismatch: On a length that does not match the solver.
            ValueError: On a non-finite ``q``, ``x0`` or ``y0``, a NaN
                bound, a ``+inf`` lower or ``-inf`` upper bound, or a
                residual that turns non-finite while iterating.
        """
        st = self.settings
        q = np.asarray(q, dtype=float).reshape(-1)
        lo = np.asarray(lower, dtype=float).reshape(-1)
        hi = np.asarray(upper, dtype=float).reshape(-1)
        if q.shape[0] != self.n or lo.shape[0] != self.k or hi.shape[0] != self.k:
            raise DimensionMismatch("q or bound length mismatch with solver")
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
        if y0 is not None:
            y0 = np.asarray(y0, dtype=float)
        if ((x0 is not None and x0.shape != (self.n,))
                or (y0 is not None and y0.shape != (self.k,))):
            raise DimensionMismatch("warm start length mismatch with solver")
        _check_entry(q, lo, hi, x0, y0)
        if self.k == 0:
            return self._solve_unconstrained(q)

        qs = self.c * self.d * q
        los = self.e * lo
        his = self.e * hi
        fin_lo = np.isfinite(lo)
        fin_hi = np.isfinite(hi)
        eq_mask = fin_lo & (lo == hi)
        rho_scalar = _RHO
        rho_vec = self._rho_for(rho_scalar, eq_mask)
        if self._factor is None or not np.array_equal(rho_vec, self._rho_vec):
            self._refactor(rho_vec)

        if x0 is not None:
            xs = x0 / self.d
        else:
            xs = np.zeros(self.n)
        if y0 is not None:
            ys = self.c * y0 / self.e
        else:
            ys = np.zeros(self.k)
        As = self.As
        AsT = As.T
        zs = np.minimum(np.maximum(As @ xs, los), his)

        # loop invariants, hoisted; the factor and rho change only together
        factor, rho_vec = self._factor, self._rho_vec
        sigma, alpha, beta = _SIGMA, _ALPHA, 1.0 - _ALPHA
        check_interval, max_iter = _CHECK_INTERVAL, st.max_iter
        status = QpStatus.MAX_ITER
        iters_done = max_iter
        for it in range(1, max_iter + 1):
            rhs = sigma * xs - qs + AsT @ (rho_vec * zs - ys)
            x_hat = _POTRS(factor, rhs, lower=False, overwrite_b=True)[0]
            z_hat = As @ x_hat
            xs_new = alpha * x_hat + beta * xs
            z_cand = alpha * z_hat + beta * zs + ys / rho_vec
            zs_new = np.minimum(np.maximum(z_cand, los), his)
            ys_new = rho_vec * (z_cand - zs_new)

            if it % check_interval == 0 or it == max_iter:
                x, Px, Ax, z, y, Aty = self._unscaled_terms(
                    xs_new, zs_new, ys_new)
                r_prim = float(np.abs(Ax - z).max())
                r_dual = float(np.abs(Px + q + Aty).max())
                if not (math.isfinite(r_prim) and math.isfinite(r_dual)):
                    raise ValueError(
                        f"ADMM residual is not finite at iteration {it}")
                scale_p = max(_inf_norm(Ax), _inf_norm(z))
                scale_d = max(_inf_norm(Px), _inf_norm(Aty), _inf_norm(q))
                eps_p = st.eps_abs + st.eps_rel * scale_p
                eps_d = st.eps_abs + st.eps_rel * scale_d
                if r_prim <= eps_p and r_dual <= eps_d:
                    xs, zs, ys = xs_new, zs_new, ys_new
                    status = QpStatus.SOLVED
                    iters_done = it
                    break
                dy = (self.e * (ys_new - ys)) / self.c
                if _primal_infeasibility(self.A, lo, hi, fin_lo, fin_hi, dy,
                                         _EPS_INFEAS):
                    xs, zs, ys = xs_new, zs_new, ys_new
                    status = QpStatus.PRIMAL_INFEASIBLE
                    iters_done = it
                    break
                dx = self.d * (xs_new - xs)
                if _dual_infeasibility(self.P, q, self.A, fin_lo, fin_hi, dx,
                                       _EPS_INFEAS):
                    xs, zs, ys = xs_new, zs_new, ys_new
                    status = QpStatus.DUAL_INFEASIBLE
                    iters_done = it
                    break
                if r_dual > 0.0 and scale_p > 0.0 and scale_d > 0.0:
                    ratio = (r_prim / scale_p) / max(r_dual / scale_d, 1e-16)
                    rho_new = float(np.clip(rho_scalar * np.sqrt(ratio),
                                            _RHO_MIN, _RHO_MAX))
                    if (rho_new > _REFACTOR_RATIO * rho_scalar
                            or rho_new < rho_scalar / _REFACTOR_RATIO):
                        rho_scalar = rho_new
                        self._refactor(self._rho_for(rho_scalar, eq_mask))
                        factor, rho_vec = self._factor, self._rho_vec
            xs, zs, ys = xs_new, zs_new, ys_new

        x, Px, Ax, z, y, Aty = self._unscaled_terms(xs, zs, ys)
        r_prim = float(np.abs(Ax - z).max())
        r_dual = float(np.abs(Px + q + Aty).max())
        if status is QpStatus.SOLVED:
            polished = self._polish(q, lo, hi, x, y)
            if polished is not None:
                x, y, z, r_prim, r_dual = polished
        obj = float(0.5 * x @ self.P @ x + q @ x)
        return QpSolution(x=x, y=y, z=z, status=status,
                          iterations=iters_done,
                          primal_res=r_prim, dual_res=r_dual, objective=obj)

    def _solve_unconstrained(self, q: np.ndarray) -> QpSolution:
        st = self.settings
        try:
            factor = scipy.linalg.cho_factor(
                self.P + _SIGMA * np.eye(self.n))
            x = scipy.linalg.cho_solve(factor, -q)
        except scipy.linalg.LinAlgError:
            return QpSolution(x=np.zeros(self.n), y=np.zeros(0),
                              z=np.zeros(0), status=QpStatus.DUAL_INFEASIBLE,
                              iterations=0, primal_res=0.0,
                              dual_res=float("inf"), objective=float("-inf"))
        # iterative refinement removes the sigma shift; it stalls (and the
        # residual check below fires) when the problem is unbounded
        for _ in range(25):
            r = -(self.P @ x + q)
            if not np.isfinite(r).all() or np.abs(r).max() <= 1e-14:
                break
            x = x + scipy.linalg.cho_solve(factor, r)
        r_dual = float(np.abs(self.P @ x + q).max()) if self.n else 0.0
        tol = st.eps_abs + st.eps_rel * max(
            float(np.abs(q).max()) if q.size else 0.0,
            float(np.abs(self.P @ x).max()) if self.n else 0.0)
        if not np.isfinite(x).all() or r_dual > tol:
            return QpSolution(x=x, y=np.zeros(0), z=np.zeros(0),
                              status=QpStatus.DUAL_INFEASIBLE, iterations=0,
                              primal_res=0.0, dual_res=r_dual,
                              objective=float("-inf"))
        obj = float(0.5 * x @ self.P @ x + q @ x)
        return QpSolution(x=x, y=np.zeros(0), z=np.zeros(0),
                          status=QpStatus.SOLVED, iterations=1,
                          primal_res=0.0, dual_res=r_dual, objective=obj)

    def _polish(self, q, lo, hi, x, y):
        """Re-solve on the active set identified by the dual signs.

        Returns refined ``(x, y, z, r_prim, r_dual)`` when the refinement
        reduces the worst KKT residual, else None.
        """
        act_lo = np.where(y < 0)[0]
        act_hi = np.where(y > 0)[0]
        act = np.concatenate([act_lo, act_hi])
        n_act = act.shape[0]
        A_act = self.A[act]
        b_act = np.concatenate([lo[act_lo], hi[act_hi]])
        if not np.all(np.isfinite(b_act)):
            return None
        dim = self.n + n_act
        K = np.zeros((dim, dim))
        K[:self.n, :self.n] = self.P
        K[:self.n, self.n:] = A_act.T
        K[self.n:, :self.n] = A_act
        K_reg = K.copy()
        K_reg[:self.n, :self.n] += _POLISH_REG * np.eye(self.n)
        K_reg[self.n:, self.n:] -= _POLISH_REG * np.eye(n_act)
        rhs = np.concatenate([-q, b_act])
        # the arguments lu_factor/lu_solve pass; a singular pivot rejects
        lu, piv, info = _GETRF(K_reg, overwrite_a=False)
        if info != 0:
            return None
        sol = _GETRS(lu, piv, rhs, trans=0, overwrite_b=False)[0]
        for _ in range(_POLISH_REFINE):
            sol = sol + _GETRS(lu, piv, rhs - K @ sol, trans=0,
                               overwrite_b=False)[0]
        if not np.all(np.isfinite(sol)):
            return None
        x_new = sol[:self.n]
        y_new = np.zeros(self.k)
        y_new[act] = sol[self.n:]
        Ax_new = self.A @ x_new
        viol = np.maximum(Ax_new - hi, 0.0) + np.maximum(lo - Ax_new, 0.0)
        r_prim_new = float(viol.max())
        r_dual_new = float(np.abs(self.P @ x_new + q + self.A.T @ y_new).max())
        Ax_old = self.A @ x
        viol_old = np.maximum(Ax_old - hi, 0.0) + np.maximum(lo - Ax_old, 0.0)
        r_prim_old = float(viol_old.max())
        r_dual_old = float(np.abs(self.P @ x + q + self.A.T @ y).max())
        if max(r_prim_new, r_dual_new) < max(r_prim_old, r_dual_old):
            z_new = np.clip(Ax_new, lo, hi)
            return x_new, y_new, z_new, r_prim_new, r_dual_new
        return None


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _check_entry(q, lo, hi, x0, y0) -> None:
    """Reject non-finite solve data before any iteration runs."""
    for name, v in (("q", q), ("x0", x0), ("y0", y0)):
        if v is not None and not np.isfinite(v).all():
            raise ValueError(f"{name} has non-finite entries")
    for name, v, bad in (("lower", lo, np.inf), ("upper", hi, -np.inf)):
        if np.isnan(v).any():
            raise ValueError(f"{name} has NaN entries")
        if (v == bad).any():
            raise ValueError(f"{name} has entries equal to {bad}")


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


def solve(prob: QpProblem, settings: QpSettings | None = None,
          x0: np.ndarray | None = None,
          y0: np.ndarray | None = None) -> QpSolution:
    """One-shot convenience wrapper around :class:`BoxQpSolver`."""
    solver = BoxQpSolver(prob.P, prob.A, settings)
    return solver.solve(prob.q, prob.lower, prob.upper, x0=x0, y0=y0)
