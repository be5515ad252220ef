"""Box-constrained QP solver: correctness, certificates, determinism.

Covers:
  * analytic unconstrained and single-variable clipped solutions.
  * randomized agreement with an exhaustive active-set-enumeration
    oracle on tiny problems and with a semismooth active-set oracle on
    medium ones, certified by independently recomputed KKT residuals.
  * equality rows (lower == upper) against the analytic KKT system.
  * invariance of the solution under uniform cost rescaling, and
    bitwise determinism across repeated solves.
  * primal and dual infeasibility detection.
  * iteration-budget reporting and warm-started re-solves through
    BoxQpSolver.
  * problem validation (symmetry, PSD, bound ordering, shapes), and
    non-finite solve data rejected by name before any iteration.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import seeded
from oracles import kkt_residuals, solve_qp_active_set, solve_qp_exhaustive

from ddpc import (
    BoxQpSolver,
    DimensionMismatch,
    QpProblem,
    QpSettings,
    QpStatus,
    solve,
)


def _random_box_qp(rng, n, k, spread=1.0, with_feasible=False):
    """Random strictly convex QP whose box is feasible by construction."""
    F = rng.standard_normal((n, n))
    P = F @ F.T + 0.1 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((k, n))
    x_feas = rng.standard_normal(n)
    z = A @ x_feas
    lo = z - spread * rng.uniform(0.05, 1.0, size=k)
    hi = z + spread * rng.uniform(0.05, 1.0, size=k)
    prob = QpProblem(P=P, q=q, A=A, lower=lo, upper=hi)
    return (prob, x_feas) if with_feasible else prob


# ---------------------------------------------------------------------------
# analytic examples
# ---------------------------------------------------------------------------


def test_unconstrained_identity_quadratic():
    prob = QpProblem(P=np.eye(2), q=np.array([-1.0, -1.0]),
                     A=np.zeros((0, 2)), lower=np.zeros(0), upper=np.zeros(0))
    sol = solve(prob)
    assert sol.status == QpStatus.SOLVED
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
    assert sol.objective == pytest.approx(-1.0, abs=1e-8)


def test_scalar_clipped_at_upper_bound():
    prob = QpProblem(P=np.array([[1.0]]), q=np.array([-3.0]),
                     A=np.array([[1.0]]), lower=np.array([0.0]),
                     upper=np.array([2.0]))
    sol = solve(prob)
    assert sol.status == QpStatus.SOLVED
    assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
    # stationarity Px + q + A'y = 0 at x = 2 gives y = +1 (active above)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-6)


def test_interior_solution_has_zero_multipliers():
    prob = QpProblem(P=np.eye(2), q=np.array([-0.1, 0.1]),
                     A=np.eye(2), lower=np.array([-1.0, -1.0]),
                     upper=np.array([1.0, 1.0]))
    sol = solve(prob)
    np.testing.assert_allclose(sol.x, [0.1, -0.1], atol=1e-8)
    np.testing.assert_allclose(sol.y, 0.0, atol=1e-6)


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


def test_matches_exhaustive_oracle_tiny():
    rng = seeded(80)
    for trial in range(20):
        prob = _random_box_qp(rng, n=3, k=4, spread=0.3)
        sol = solve(prob)
        assert sol.status == QpStatus.SOLVED
        x_ref, _ = solve_qp_exhaustive(prob.P, prob.q, prob.A,
                                       prob.lower, prob.upper)
        np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)


def test_matches_active_set_oracle_medium():
    rng = seeded(81)
    done = 0
    attempts = 0
    while done < 10:
        attempts += 1
        assert attempts < 100
        prob, x_feas = _random_box_qp(rng, n=12, k=20, spread=0.4,
                                      with_feasible=True)
        try:
            x_ref, y_ref = solve_qp_active_set(prob.P, prob.q, prob.A,
                                               prob.lower, prob.upper,
                                               x_feasible=x_feas)
        except RuntimeError:
            continue
        # only trust the oracle when its own KKT residuals certify it
        stat, prim, comp = kkt_residuals(prob.P, prob.q, prob.A,
                                         prob.lower, prob.upper,
                                         x_ref, y_ref)
        assert max(stat, prim, comp) <= 1e-8
        sol = solve(prob)
        assert sol.status == QpStatus.SOLVED
        np.testing.assert_allclose(sol.x, x_ref, atol=1e-6)
        done += 1


def test_kkt_residuals_certify_solutions():
    rng = seeded(82)
    for trial in range(15):
        prob = _random_box_qp(rng, n=8, k=12)
        sol = solve(prob)
        assert sol.status == QpStatus.SOLVED
        stat, prim, comp = kkt_residuals(prob.P, prob.q, prob.A,
                                         prob.lower, prob.upper,
                                         sol.x, sol.y)
        assert stat <= 1e-7
        assert prim <= 1e-7
        assert comp <= 1e-6


def test_active_constraints_are_exercised():
    """The random generator must actually produce binding boxes, otherwise
    the oracle comparisons above only test unconstrained solves."""
    rng = seeded(83)
    n_active = 0
    for trial in range(10):
        prob = _random_box_qp(rng, n=6, k=10, spread=0.2)
        sol = solve(prob)
        z = prob.A @ sol.x
        n_active += int(np.sum((np.abs(z - prob.lower) < 1e-7)
                               | (np.abs(z - prob.upper) < 1e-7)))
    assert n_active >= 10


# ---------------------------------------------------------------------------
# equality rows
# ---------------------------------------------------------------------------


def test_equality_rows_match_kkt_solve():
    rng = seeded(84)
    n, k_eq = 6, 3
    F = rng.standard_normal((n, n))
    P = F @ F.T + 0.5 * np.eye(n)
    q = rng.standard_normal(n)
    A = rng.standard_normal((k_eq, n))
    b = rng.standard_normal(k_eq)
    prob = QpProblem(P=P, q=q, A=A, lower=b, upper=b)
    sol = solve(prob)
    assert sol.status == QpStatus.SOLVED
    kkt = np.block([[P, A.T], [A, np.zeros((k_eq, k_eq))]])
    ref = np.linalg.solve(kkt, np.concatenate([-q, b]))
    np.testing.assert_allclose(sol.x, ref[:n], atol=1e-7)
    np.testing.assert_allclose(A @ sol.x, b, atol=1e-8)


def test_mixed_equality_and_box_rows():
    rng = seeded(85)
    prob_eq = _random_box_qp(rng, n=5, k=4)
    lo = prob_eq.lower.copy()
    hi = prob_eq.upper.copy()
    lo[0] = hi[0] = 0.5 * (lo[0] + hi[0])   # pin one row
    prob = QpProblem(P=prob_eq.P, q=prob_eq.q, A=prob_eq.A,
                     lower=lo, upper=hi)
    sol = solve(prob)
    assert sol.status == QpStatus.SOLVED
    assert abs((prob.A @ sol.x)[0] - lo[0]) <= 1e-8
    stat, prim, comp = kkt_residuals(prob.P, prob.q, prob.A, lo, hi,
                                     sol.x, sol.y)
    assert stat <= 1e-7 and prim <= 1e-7


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------


def test_solution_invariant_under_cost_rescaling():
    rng = seeded(86)
    prob = _random_box_qp(rng, n=7, k=9)
    scaled = QpProblem(P=7.3 * prob.P, q=7.3 * prob.q, A=prob.A,
                       lower=prob.lower, upper=prob.upper)
    x1 = solve(prob).x
    x2 = solve(scaled).x
    np.testing.assert_allclose(x1, x2, atol=1e-6)


def test_bitwise_determinism():
    rng = seeded(87)
    prob = _random_box_qp(rng, n=10, k=14)
    s1 = solve(prob)
    s2 = solve(prob)
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.y, s2.y)
    assert s1.iterations == s2.iterations
    assert s1.status == s2.status


# ---------------------------------------------------------------------------
# infeasibility and iteration budget
# ---------------------------------------------------------------------------


def test_primal_infeasible_detected():
    # x <= -1 and x >= 1 simultaneously
    prob = QpProblem(P=np.array([[1.0]]), q=np.array([0.0]),
                     A=np.array([[1.0], [1.0]]),
                     lower=np.array([-np.inf, 1.0]),
                     upper=np.array([-1.0, np.inf]))
    sol = solve(prob)
    assert sol.status == QpStatus.PRIMAL_INFEASIBLE


def test_dual_infeasible_detected():
    # min -x with x only bounded below: unbounded above
    prob = QpProblem(P=np.zeros((1, 1)), q=np.array([-1.0]),
                     A=np.array([[1.0]]), lower=np.array([0.0]),
                     upper=np.array([np.inf]))
    sol = solve(prob)
    assert sol.status == QpStatus.DUAL_INFEASIBLE


def test_max_iter_reported_with_residuals():
    rng = seeded(88)
    prob = _random_box_qp(rng, n=8, k=10)
    sol = solve(prob, QpSettings(max_iter=3))
    assert sol.status == QpStatus.MAX_ITER
    assert sol.iterations == 3
    assert np.isfinite(sol.primal_res) and np.isfinite(sol.dual_res)


# ---------------------------------------------------------------------------
# warm-started re-solves
# ---------------------------------------------------------------------------


def test_warm_start_is_correct_and_cheaper():
    rng = seeded(89)
    prob = _random_box_qp(rng, n=12, k=16)
    solver = BoxQpSolver(prob.P, prob.A, QpSettings())
    cold = solver.solve(prob.q, prob.lower, prob.upper)
    assert cold.status == QpStatus.SOLVED
    q2 = prob.q + 1e-3 * rng.standard_normal(prob.n)
    warm = solver.solve(q2, prob.lower, prob.upper, x0=cold.x, y0=cold.y)
    assert warm.status == QpStatus.SOLVED
    ref = solve(QpProblem(P=prob.P, q=q2, A=prob.A, lower=prob.lower,
                          upper=prob.upper))
    np.testing.assert_allclose(warm.x, ref.x, atol=1e-6)
    cold2 = solver.solve(q2, prob.lower, prob.upper)
    assert warm.iterations <= cold2.iterations


def test_cached_solver_matches_one_shot():
    rng = seeded(90)
    prob = _random_box_qp(rng, n=9, k=12)
    solver = BoxQpSolver(prob.P, prob.A, QpSettings())
    a = solver.solve(prob.q, prob.lower, prob.upper)
    b = solve(prob)
    np.testing.assert_allclose(a.x, b.x, atol=1e-9)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _non_finite_cases(prob):
    """``(name, solve kwargs)`` pairs, each with one bad entry in ``name``."""
    def spoiled(v, value):
        v = np.array(v, dtype=float)
        v[1] = value
        return v

    base = dict(q=prob.q, lower=prob.lower, upper=prob.upper,
                x0=np.zeros(prob.n), y0=np.zeros(prob.k))
    cases = []
    for name, value in (("q", np.nan), ("q", np.inf), ("x0", np.nan),
                        ("x0", -np.inf), ("y0", np.nan), ("y0", np.inf),
                        ("lower", np.nan), ("upper", np.nan),
                        ("lower", np.inf), ("upper", -np.inf)):
        args = dict(base)
        args[name] = spoiled(base[name], value)
        if name == "lower" and value == np.inf:
            args["upper"] = spoiled(prob.upper, np.inf)
        if name == "upper" and value == -np.inf:
            args["lower"] = spoiled(prob.lower, -np.inf)
        cases.append((name, args))
    return cases


def _forbid_lapack(monkeypatch):
    """Fail the test if the solver factors or back-solves, so that a
    ValueError can only come from a check made before iterating."""
    import ddpc.qp

    def reached(*args, **kwargs):
        raise AssertionError("non-finite data reached the LAPACK calls")

    for name in ("_POTRF", "_POTRS"):
        monkeypatch.setattr(ddpc.qp, name, reached, raising=False)


def test_non_finite_inputs_raise_before_iterating(monkeypatch):
    rng = seeded(91)
    prob = _random_box_qp(rng, n=6, k=8)
    _forbid_lapack(monkeypatch)
    solver = BoxQpSolver(prob.P, prob.A)
    for name, args in _non_finite_cases(prob):
        with pytest.raises(ValueError):
            solver.solve(**args)
    # the unconstrained path takes q alone
    free = BoxQpSolver(prob.P, np.zeros((0, prob.n)))
    with pytest.raises(ValueError):
        free.solve(np.full(prob.n, np.nan), np.zeros(0), np.zeros(0))
    for name in ("P", "A"):
        bad = {"P": prob.P.copy(), "A": prob.A.copy()}
        bad[name][0, 0] = np.nan
        with pytest.raises(ValueError):
            BoxQpSolver(bad["P"], bad["A"]).solve(prob.q, prob.lower,
                                                 prob.upper)


def test_overflowing_iterates_raise_instead_of_a_status():
    # finite data whose iterates overflow: the residual turns non-finite
    rng = seeded(93)
    prob = _random_box_qp(rng, n=6, k=8)
    solver = BoxQpSolver(prob.P, prob.A)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            solver.solve(np.full(prob.n, 1e308), prob.lower, prob.upper)


def test_non_finite_input_error_names_argument():
    rng = seeded(92)
    prob = _random_box_qp(rng, n=6, k=8)
    solver = BoxQpSolver(prob.P, prob.A)
    for name, args in _non_finite_cases(prob):
        with pytest.raises(ValueError, match=rf"^{name} "):
            solver.solve(**args)
    free = BoxQpSolver(prob.P, np.zeros((0, prob.n)))
    with pytest.raises(ValueError, match=r"^x0 "):
        free.solve(prob.q, np.zeros(0), np.zeros(0),
                   x0=np.full(prob.n, np.nan))
    for name in ("P", "A"):
        bad = {"P": prob.P.copy(), "A": prob.A.copy()}
        bad[name][0, 0] = np.inf
        with pytest.raises(ValueError, match=rf"^{name} "):
            BoxQpSolver(bad["P"], bad["A"])


def test_rejects_asymmetric_p():
    with pytest.raises(ValueError):
        QpProblem(P=np.array([[1.0, 0.5], [0.0, 1.0]]), q=np.zeros(2),
                  A=np.zeros((0, 2)), lower=np.zeros(0), upper=np.zeros(0))


def test_rejects_indefinite_p():
    with pytest.raises(ValueError):
        QpProblem(P=np.diag([1.0, -1.0]), q=np.zeros(2),
                  A=np.zeros((0, 2)), lower=np.zeros(0), upper=np.zeros(0))


def test_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        QpProblem(P=np.eye(1), q=np.zeros(1), A=np.eye(1),
                  lower=np.array([1.0]), upper=np.array([-1.0]))


def test_rejects_shape_mismatches():
    with pytest.raises(DimensionMismatch):
        QpProblem(P=np.eye(2), q=np.zeros(3), A=np.zeros((0, 2)),
                  lower=np.zeros(0), upper=np.zeros(0))
    with pytest.raises(DimensionMismatch):
        QpProblem(P=np.eye(2), q=np.zeros(2), A=np.zeros((1, 3)),
                  lower=np.zeros(1), upper=np.zeros(1))


def test_rejects_warm_start_shape_mismatches():
    # a length-1 or column warm start would otherwise broadcast silently
    prob = _random_box_qp(seeded(94), n=5, k=7)
    solver = BoxQpSolver(prob.P, prob.A)
    for warm in (dict(x0=np.zeros(1)), dict(x0=np.zeros((prob.n, 1))),
                 dict(y0=np.zeros(1)), dict(y0=np.zeros(prob.k + 1))):
        with pytest.raises(DimensionMismatch):
            solver.solve(prob.q, prob.lower, prob.upper, **warm)
