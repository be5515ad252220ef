"""Independent reference implementations used to cross-check the library.

Everything in this module is deliberately written with plain loops and
textbook linear algebra, sharing no code paths with ``ddpc`` itself, so
that agreement between the two is meaningful evidence of correctness.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Hankel / trajectory oracles
# ---------------------------------------------------------------------------


def hankel_by_windows(signal: np.ndarray, depth: int) -> np.ndarray:
    """Block-Hankel matrix assembled one window at a time with loops."""
    sig = np.atleast_2d(np.asarray(signal, dtype=float))
    if sig.shape[0] > sig.shape[1] and 1 in sig.shape:
        sig = sig.T
    n_ch, n_samp = sig.shape
    n_cols = n_samp - depth + 1
    out = np.empty((n_ch * depth, n_cols))
    for j in range(n_cols):
        col = []
        for t in range(depth):
            for ch in range(n_ch):
                col.append(sig[ch, j + t])
        out[:, j] = col
    return out


# ---------------------------------------------------------------------------
# Least-squares predictor oracles
# ---------------------------------------------------------------------------


def pinv_fit(Y_f: np.ndarray, Z_p: np.ndarray, U_f: np.ndarray) -> np.ndarray:
    """Unstructured multistep predictor via an explicit SVD pseudoinverse."""
    Z = np.vstack([Z_p, U_f])
    return Y_f @ np.linalg.pinv(Z)


def causal_mask_by_loops(m: int, p: int, L_f: int) -> np.ndarray:
    """Boolean mask of the causally allowed entries of the input map."""
    mask = np.zeros((p * L_f, m * L_f), dtype=bool)
    for i in range(L_f):          # output block row (time i)
        for j in range(L_f):      # input block column (time j)
            if j <= i:
                mask[i * p:(i + 1) * p, j * m:(j + 1) * m] = True
    return mask


def rowwise_causal_fit(Y_f: np.ndarray, Z_p: np.ndarray,
                       U_f: np.ndarray, m: int, p: int,
                       L_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Causal predictor fitted block-row by block-row with ``lstsq``.

    Block row ``i`` of the output window may only regress on the past and
    on inputs up to time ``i``; later input rows get exact zeros.
    """
    d1 = Z_p.shape[0]
    K_p = np.zeros((p * L_f, d1))
    K_f = np.zeros((p * L_f, m * L_f))
    for i in range(L_f):
        rows = slice(i * p, (i + 1) * p)
        cols = (i + 1) * m
        reg = np.vstack([Z_p, U_f[:cols]])
        sol, *_ = np.linalg.lstsq(reg.T, Y_f[rows].T, rcond=None)
        K_p[rows] = sol[:d1].T
        K_f[rows, :cols] = sol[d1:].T
    return K_p, K_f


def lq_orthonormal_rows(L: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Orthonormal right factor ``Q`` of ``S = L @ Q`` from numpy's QR.

    ``numpy.linalg.qr(S.T)`` gives ``S = R' Q'``; rows of ``Q'`` are flipped
    wherever the sign of ``R``'s diagonal differs from that of ``L``, so the
    result pairs with ``L`` as returned by ``ddpc.factorize``.
    """
    q, r = np.linalg.qr(S.T)
    flip = (np.diag(r) < 0.0) != (np.diag(L) < 0.0)
    return np.where(flip, -1.0, 1.0)[:, None] * q.T


def gamma1_of(blocks, z_p: np.ndarray) -> np.ndarray:
    """Latent past coordinate: solve ``L11 @ gamma1 = z_p``.

    Forward substitution, one row at a time, when ``L11`` is nonsingular
    by the library's own diagonal test (``blocks.past_is_nonsingular()``);
    for exactly deterministic records ``L11`` is structurally singular,
    and then the minimum-norm least-squares solution of ``lstsq`` at the
    library's cutoff 1e-10, which is exact whenever ``z_p`` is a
    trajectory of the data-generating system.  ``[L21; L31] @ gamma1`` is
    what ``LqBlocks.past_map @ z_p`` must give.
    """
    L11 = blocks.L11
    z = np.asarray(z_p, dtype=float).reshape(-1)
    if not blocks.past_is_nonsingular():
        return np.linalg.lstsq(L11, z, rcond=1e-10)[0]
    g = np.zeros(len(z))
    for i in range(len(z)):
        g[i] = (z[i] - L11[i, :i] @ g[:i]) / L11[i, i]
    return g


# ---------------------------------------------------------------------------
# QP oracles
# ---------------------------------------------------------------------------


def kkt_residuals(P, q, A, lower, upper, x, y) -> tuple[float, float, float]:
    """KKT residuals of a candidate primal/dual pair, recomputed from scratch.

    Returns ``(stationarity, primal_feasibility, complementarity)`` in the
    infinity norm.  ``y`` follows the convention that positive multipliers
    push against the upper bound and negative ones against the lower bound.
    """
    P = np.asarray(P, float)
    q = np.asarray(q, float)
    A = np.asarray(A, float).reshape(-1, P.shape[0])
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    stat = float(np.max(np.abs(P @ x + q + A.T @ y), initial=0.0))
    z = A @ x
    viol = np.maximum(lower - z, 0.0) + np.maximum(z - upper, 0.0)
    prim = float(np.max(viol, initial=0.0))
    comp = 0.0
    for i in range(A.shape[0]):
        if y[i] > 0.0:
            comp = max(comp, abs(y[i]) * abs(z[i] - upper[i]))
        elif y[i] < 0.0:
            comp = max(comp, abs(y[i]) * abs(z[i] - lower[i]))
    return stat, prim, comp


def solve_qp_exhaustive(P, q, A, lower, upper,
                        tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Globally solve a tiny box-constrained QP by enumerating active sets.

    Every one of the ``3**k`` lower/upper/inactive patterns is turned into
    an equality-constrained QP and the KKT conditions are checked; the
    feasible candidate with the smallest objective is returned.  Only
    usable for very small ``k``.
    """
    P = np.asarray(P, float)
    q = np.asarray(q, float)
    A = np.asarray(A, float).reshape(-1, P.shape[0])
    n = P.shape[0]
    k = A.shape[0]
    if k > 8:
        raise ValueError("exhaustive oracle limited to k <= 8")
    best = None
    best_obj = np.inf
    for code in range(3 ** k):
        pattern = []
        c = code
        for _ in range(k):
            pattern.append(c % 3)   # 0 inactive, 1 at lower, 2 at upper
            c //= 3
        rows = [i for i in range(k) if pattern[i] != 0]
        b = np.array([lower[i] if pattern[i] == 1 else upper[i]
                      for i in rows])
        if any(not np.isfinite(v) for v in b):
            continue
        A_act = A[rows]
        kkt = np.block([[P, A_act.T],
                        [A_act, np.zeros((len(rows), len(rows)))]])
        rhs = np.concatenate([-q, b])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x = sol[:n]
        lam = np.zeros(k)
        lam[rows] = sol[n:]
        z = A @ x
        if np.any(z < lower - tol) or np.any(z > upper + tol):
            continue
        ok = True
        for idx, i in enumerate(rows):
            if pattern[i] == 1 and sol[n + idx] > tol:
                ok = False
            if pattern[i] == 2 and sol[n + idx] < -tol:
                ok = False
        if not ok:
            continue
        obj = 0.5 * x @ P @ x + q @ x
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = (x, lam)
    if best is None:
        raise RuntimeError("exhaustive oracle found no KKT point")
    return best


def solve_qp_active_set(P, q, A, lower, upper,
                        x_feasible: np.ndarray | None = None,
                        max_iters: int = 500,
                        tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Primal active-set solve of a strictly convex box QP.

    Textbook working-set method: starting from a feasible point, repeatedly
    minimize over the rows currently pinned at a bound, either step to the
    first blocking constraint (adding it to the working set) or, at a
    working-set minimizer, drop the row whose multiplier has the wrong
    sign.  Terminates at the global optimum for strictly convex problems;
    degenerate cycling raises ``RuntimeError`` so callers can regenerate
    the (random) problem.

    ``x_feasible`` must satisfy the constraints; if omitted, a least-squares
    point targeting the interval midpoints is tried.
    """
    P = np.asarray(P, float)
    q = np.asarray(q, float)
    A = np.asarray(A, float).reshape(-1, P.shape[0])
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    n = P.shape[0]
    k = A.shape[0]
    if x_feasible is None:
        mid = np.where(np.isfinite(lower) & np.isfinite(upper),
                       0.5 * (lower + upper),
                       np.where(np.isfinite(lower), lower + 1.0,
                                np.where(np.isfinite(upper), upper - 1.0,
                                         0.0)))
        x, *_ = np.linalg.lstsq(A, mid, rcond=None)
    else:
        x = np.asarray(x_feasible, float).copy()
    z = A @ x
    if np.any(z < lower - 1e-9) or np.any(z > upper + 1e-9):
        raise RuntimeError("active-set oracle has no feasible start")

    work: list[tuple[int, int]] = []          # (row, side); side -1 lower, +1 upper
    for _ in range(max_iters):
        rows = [r for r, _ in work]
        b = np.array([lower[r] if s < 0 else upper[r] for r, s in work])
        A_w = A[rows]
        kkt = np.block([[P, A_w.T],
                        [A_w, np.zeros((len(rows), len(rows)))]])
        rhs = np.concatenate([-q, b])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            raise RuntimeError("active-set oracle hit a singular working set")
        x_star = sol[:n]
        lam = sol[n:]
        d = x_star - x
        if np.abs(d).max(initial=0.0) <= tol * max(1.0, np.abs(x).max()):
            # at the working-set minimizer: check multiplier signs
            worst = None
            worst_val = -tol
            for idx, (r, s) in enumerate(work):
                signed = s * lam[idx]          # must be >= 0 at optimum
                if signed < worst_val:
                    worst_val = signed
                    worst = idx
            if worst is None:
                y = np.zeros(k)
                for idx, (r, _) in enumerate(work):
                    y[r] = lam[idx]
                return x, y
            work.pop(worst)
            continue
        # step toward x_star until a new row blocks
        step = 1.0
        blocker = None
        Ad = A @ d
        in_work = {r for r, _ in work}
        for i in range(k):
            if i in in_work or abs(Ad[i]) <= 1e-14:
                continue
            if Ad[i] > 0 and np.isfinite(upper[i]):
                cand = (upper[i] - z[i]) / Ad[i]
                side = 1
            elif Ad[i] < 0 and np.isfinite(lower[i]):
                cand = (lower[i] - z[i]) / Ad[i]
                side = -1
            else:
                continue
            cand = max(cand, 0.0)
            if cand < step - 1e-14:
                step = cand
                blocker = (i, side)
        x = x + step * d
        z = A @ x
        if blocker is not None and step < 1.0:
            work.append(blocker)
    raise RuntimeError("active-set oracle did not terminate")


# ---------------------------------------------------------------------------
# Simulation oracles
# ---------------------------------------------------------------------------


def lti_loop(A, B, C, D, K, x0, U, E) -> tuple[np.ndarray, np.ndarray]:
    """Innovation-form rollout written as a plain per-sample loop.

    ``U`` and ``E`` are ``(m, N)`` and ``(p, N)``; returns the state and
    output sequences ``(X, Y)`` with ``X`` of shape ``(n, N + 1)``.
    """
    A, B, C, D, K = (np.asarray(M, float) for M in (A, B, C, D, K))
    n = A.shape[0]
    N = U.shape[1]
    X = np.zeros((n, N + 1))
    Y = np.zeros((C.shape[0], N))
    X[:, 0] = np.asarray(x0, float)
    for t in range(N):
        Y[:, t] = C @ X[:, t] + D @ U[:, t] + E[:, t]
        X[:, t + 1] = A @ X[:, t] + B @ U[:, t] + K @ E[:, t]
    return X, Y


def multistep_matrices(A, B, C, D, L_f: int) -> tuple[np.ndarray, np.ndarray]:
    """Extended observability matrix and input Toeplitz map, by loops.

    Returns ``(Gamma, H)`` with ``y_f = Gamma x_0 + H u_f`` for a
    noise-free rollout of length ``L_f``.
    """
    A, B, C, D = (np.asarray(M, float) for M in (A, B, C, D))
    n = A.shape[0]
    p, m = D.shape
    Gamma = np.zeros((p * L_f, n))
    H = np.zeros((p * L_f, m * L_f))
    Ak = np.eye(n)
    powers = []
    for _ in range(L_f):
        powers.append(Ak)
        Ak = A @ Ak
    for i in range(L_f):
        Gamma[i * p:(i + 1) * p] = C @ powers[i]
        for j in range(L_f):
            if j == i:
                blk = D
            elif j < i:
                blk = C @ powers[i - j - 1] @ B
            else:
                continue
            H[i * p:(i + 1) * p, j * m:(j + 1) * m] = blk
    return Gamma, H
