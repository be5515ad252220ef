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
    BoxQpSolver, whose data map takes ``q`` as ``theta = [q; 1]``.
  * the active-set certification, tried from the warm start before ADMM
    and from ADMM's own dual after it: agreement of a certified warm
    start with ADMM followed by that step, corrections of a wrong warm
    start, the fallback to ADMM, independence from the cached set factor,
    and complementarity of every SOLVED point on degenerate problems at
    loose tolerances.
  * a set's answer in the space of its rows, one column and a record's
    map, against a dense solve of its KKT system: with equality rows,
    with a singular ``P`` that they close, and with a singular ``P``
    without them.
  * the data map: a set certified twice in a row is answered by its
    cached affine map in theta, equal to one-shot solves to round-off; a
    solve equals the one-shot solve of its data through a hit, a miss and
    a change of side; equality rows whose multipliers change sign keep
    their set's record; an overflowing theta and invalid map bounds
    (non-finite, crossed) are rejected.
  * the path each answer names: ``record``, ``set``, ``corrected``
    (also after a rejected record answer) or ``admm``, and the active
    sets it factored: a rejected record answer counts as the round it
    replaces, a set rejected by a wrong sign is corrected to the cold
    answer, and a set with repeated rows, or pivots too far apart, takes
    the regularized factor.
  * problem validation (non-finite data by name, symmetry, PSD, bound
    ordering, shapes), solver shapes (``P``, ``A`` and ``D``) and an
    indefinite ``P`` rejected when it is built, and non-finite solve data
    rejected by name before any iteration.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from conftest import seeded
from oracles import kkt_residuals, solve_qp_active_set, solve_qp_exhaustive

from ddpc import qp as qp_module
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
    assert sol.status == QpStatus.PRIMAL_INFEASIBLE and sol.path == "admm"


def test_dual_infeasible_detected():
    # min -x with x only bounded below: unbounded above
    prob = QpProblem(P=np.zeros((1, 1)), q=np.array([-1.0]),
                     A=np.array([[1.0]]), lower=np.array([0.0]),
                     upper=np.array([np.inf]))
    sol = solve(prob)
    assert sol.status == QpStatus.DUAL_INFEASIBLE


def test_unbounded_problem_without_rows_is_dual_infeasible():
    # min -x2 with x2 free and no rows: the KKT solve cannot be certified
    prob = QpProblem(P=np.diag([1.0, 0.0]), q=np.array([0.0, -1.0]),
                     A=np.zeros((0, 2)), lower=np.zeros(0),
                     upper=np.zeros(0))
    sol = solve(prob)
    # the verdict of the warm start's (empty) set, without ADMM
    assert sol.status == QpStatus.DUAL_INFEASIBLE and sol.path == "set"


def test_max_iter_reported_with_residuals(monkeypatch):
    monkeypatch.setattr(qp_module, "_MAX_ITER", 3)
    rng = seeded(88)
    prob = _random_box_qp(rng, n=8, k=10)
    sol = solve(prob)
    assert sol.status == QpStatus.MAX_ITER
    assert sol.iterations == 3
    assert np.isfinite(sol.primal_res) and np.isfinite(sol.dual_res)


def test_no_solver_value_is_settable():
    # the tolerances and the cap are module constants, read back only
    st = QpSettings()
    assert (st.eps_abs, st.eps_rel, st.max_iter) == (1e-8, 1e-8, 50000)
    with pytest.raises(TypeError):
        QpSettings(max_iter=3)
    with pytest.raises(AttributeError):
        st.eps_abs = 1e-3


# ---------------------------------------------------------------------------
# warm-started re-solves
# ---------------------------------------------------------------------------


def _q_solver(prob):
    """A solver of ``prob``'s ``P``, ``A`` and bounds whose data map
    ``[[I, 0], [0, 0]]`` takes ``q`` as ``theta = [q; 1]`` (:func:`_q`)."""
    D = np.zeros((prob.n + prob.k, prob.n + 1))
    D[:prob.n, :prob.n] = np.eye(prob.n)
    return BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))


def _q(q):
    return np.append(q, 1.0)


def _at(prob, q=None, lower=None, upper=None):
    """``prob`` with some of ``q`` and the bounds replaced."""
    return QpProblem(P=prob.P, q=prob.q if q is None else q, A=prob.A,
                     lower=prob.lower if lower is None else lower,
                     upper=prob.upper if upper is None else upper)


def test_warm_start_is_correct_and_cheaper():
    rng = seeded(89)
    prob = _random_box_qp(rng, n=12, k=16)
    solver = _q_solver(prob)
    cold = solver.solve(_q(prob.q))
    assert cold.status == QpStatus.SOLVED
    q2 = prob.q + 1e-3 * rng.standard_normal(prob.n)
    warm = solver.solve(_q(q2), x0=cold.x, y0=cold.y)
    assert warm.status == QpStatus.SOLVED
    ref = solve(_at(prob, q2))
    np.testing.assert_allclose(warm.x, ref.x, atol=1e-6)
    cold2 = solver.solve(_q(q2))
    assert warm.iterations <= cold2.iterations


def test_cached_solver_matches_one_shot():
    rng = seeded(90)
    prob = _random_box_qp(rng, n=9, k=12)
    solver = _q_solver(prob)
    a = solver.solve(_q(prob.q))
    b = solve(prob)
    np.testing.assert_allclose(a.x, b.x, atol=1e-9)


def test_admm_does_not_depend_on_solver_history(monkeypatch):
    # ADMM forms its scaling and factors on every run, so an earlier ADMM
    # step whose step size adapted leaves nothing behind that a later one
    # reads: the later step equals a fresh solver's, bit for bit
    factors = []
    potrf = qp_module._POTRF
    monkeypatch.setattr(qp_module, "_POTRF",
                        lambda *a, **kw: factors.append(1) or potrf(*a, **kw))
    rng = seeded(200)
    prob = _random_box_qp(rng, n=10, k=20, spread=0.05)
    solver = _q_solver(prob)
    first = solver.solve(_q(prob.q))
    assert first.iterations > 0 and len(factors) > 1  # rho adapted
    q2 = prob.q + 2.0 * rng.standard_normal(prob.n)
    later = solver.solve(_q(q2), x0=first.x, y0=first.y)
    fresh = _q_solver(prob).solve(_q(q2), x0=first.x, y0=first.y)
    assert later.iterations > 0
    np.testing.assert_array_equal(later.x, fresh.x)
    np.testing.assert_array_equal(later.y, fresh.y)
    assert ((later.status, later.iterations, later.primal_res,
             later.dual_res) == (fresh.status, fresh.iterations,
                                 fresh.primal_res, fresh.dual_res))


# ---------------------------------------------------------------------------
# active-set certification before ADMM
# ---------------------------------------------------------------------------


def _criterion_10_qp(rng):
    """A random QP drawn the way acceptance criterion 10 draws them."""
    n = int(rng.integers(2, 31))
    n_rows = int(rng.integers(n, 61))
    L = rng.standard_normal((n, n))
    A = rng.standard_normal((n_rows, n))
    base = A @ rng.standard_normal(n)
    return QpProblem(P=L @ L.T + 0.5 * np.eye(n), q=rng.standard_normal(n),
                     A=A, lower=base - rng.uniform(0.05, 1.0, n_rows),
                     upper=base + rng.uniform(0.05, 1.0, n_rows))


def _admm_only(monkeypatch):
    """Skip the warm start's certification, so that every solve runs ADMM
    and then the active-set step from ADMM's dual."""
    certify, solve_ = BoxQpSolver._certify, BoxQpSolver.solve

    def solve_from_admm(self, *args, **kwargs):
        self._skip_certify = True
        return solve_(self, *args, **kwargs)

    def certify_after_admm(self, *args):
        if self.__dict__.pop("_skip_certify", False):
            return None
        return certify(self, *args)

    monkeypatch.setattr(BoxQpSolver, "solve", solve_from_admm)
    monkeypatch.setattr(BoxQpSolver, "_certify", certify_after_admm)


def test_certified_step_matches_admm_and_polish(monkeypatch):
    rng = seeded(95)
    cases = []
    for _ in range(20):
        prob = _criterion_10_qp(rng)
        solver = _q_solver(prob)
        prior = solver.solve(_q(prob.q))
        q2 = prob.q + 1e-3 * rng.standard_normal(prob.n)
        warm = solver.solve(_q(q2), x0=prior.x, y0=prior.y)
        assert warm.status == QpStatus.SOLVED
        assert warm.iterations == 0
        assert max(kkt_residuals(prob.P, q2, prob.A, prob.lower, prob.upper,
                                 warm.x, warm.y)) <= 1e-7
        cases.append((prob, q2, prior, warm))
    _admm_only(monkeypatch)
    for prob, q2, prior, warm in cases:
        ref = solve(_at(prob, q2), x0=prior.x, y0=prior.y)
        assert ref.status == QpStatus.SOLVED and ref.iterations > 0
        np.testing.assert_allclose(warm.x, ref.x, rtol=0, atol=1e-9)


def test_wrong_warm_start_is_corrected():
    # separable: x = clip(-q / diag(P), -1, 1) = (1, -0.25, -1, 0.1), with
    # row 0 at its upper bound (y = 2) and row 2 at its lower (y = -6)
    prob = QpProblem(P=np.diag([1.0, 2.0, 3.0, 4.0]),
                     q=np.array([-3.0, 0.5, 9.0, -0.4]), A=np.eye(4),
                     lower=-np.ones(4), upper=np.ones(4))
    x_ref = np.array([1.0, -0.25, -1.0, 0.1])
    y_ref = np.array([2.0, 0.0, -6.0, 0.0])
    for row in range(4):
        # an active row guessed at its other bound (its multiplier comes
        # out with the wrong sign, so it is dropped, then found violated
        # and added back at the right bound), or an inactive row guessed
        # active (dropped for the same reason)
        y0 = y_ref.copy()
        y0[row] = -y0[row] if y0[row] else -1.0
        sol = solve(prob, y0=y0)
        assert sol.status == QpStatus.SOLVED and sol.iterations == 0
        assert sol.path == "corrected"
        np.testing.assert_allclose(sol.x, x_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.y, y_ref, rtol=0, atol=1e-12)


def test_a_miss_rejected_by_a_sign_is_corrected_to_the_cold_answer():
    """The warm start holds row 1 at its upper bound, where its multiplier
    comes out -2.5: the set is rejected by that sign, row 1 is dropped,
    and the second set tried is the answer of a cold solve."""
    prob = QpProblem(P=np.diag([1.0, 2.0, 3.0, 4.0]),
                     q=np.array([-3.0, 0.5, 9.0, -0.4]), A=np.eye(4),
                     lower=-np.ones(4), upper=np.ones(4))
    warm = solve(prob, y0=np.array([2.0, 1.0, -6.0, 0.0]))
    cold = solve(prob)
    assert warm.status == cold.status == QpStatus.SOLVED
    assert (warm.path, warm.sets) == ("corrected", 2)
    np.testing.assert_allclose(warm.x, cold.x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(warm.y, cold.y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("y0", [[1.0, 1.0, 0.0], None], ids=["warm", "cold"])
def test_a_set_with_two_equal_rows_takes_the_regularized_factor(
        y0, monkeypatch):
    """min 0.5 |x|^2 - 3 x_0 + 0.5 x_1 with x_0 <= 1 written twice: the
    set that holds both rows has a singular ``M_SS``, whose plain Cholesky
    factor fails, so it takes the factor of ``M_SS + 1e-9 I`` (a second
    ``potrf``) and its refinements.  It certifies x = (1, -0.5) with the
    multiplier 2 split evenly, as before this rule, from the warm start at
    once and from a cold start after one correction."""
    prob = QpProblem(P=np.eye(2), q=np.array([-3.0, 0.5]),
                     A=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                     lower=-np.ones(3), upper=np.ones(3))
    factors = []
    potrf = qp_module._POTRF
    monkeypatch.setattr(qp_module, "_POTRF",
                        lambda *a, **kw: factors.append(a[0].shape)
                        or potrf(*a, **kw))
    sol = solve(prob, y0=None if y0 is None else np.array(y0))
    assert sol.status == QpStatus.SOLVED and sol.iterations == 0
    assert sol.path == ("set" if y0 else "corrected")
    assert sol.sets == (1 if y0 else 2)
    assert factors[-2:] == [(2, 2), (2, 2)]  # plain, then regularized
    np.testing.assert_allclose(sol.x, [1.0, -0.5], rtol=0, atol=1e-12)
    assert sol.y[0] + sol.y[1] == pytest.approx(2.0, abs=1e-12)
    # the regularization leaves the split off by 2.5e-10
    np.testing.assert_allclose(sol.y, [1.0, 1.0, 0.0], rtol=0, atol=1e-9)


def test_a_set_whose_pivots_are_too_far_apart_takes_the_regularized_factor(
        monkeypatch):
    """Rows (1, 0) and (1, 1e-4), both held at 1, with q = (-3, -1e-4):
    the plain Cholesky factor of their ``M_SS`` exists, but its pivots, 1
    and 1e-4, are at most ``_SET_RTOL`` (1e-3) apart, so the set takes the
    factor of ``M_SS + 1e-9 I`` (a second ``potrf``) and certifies x = (1,
    0) and y = (1, 1, 0) as before this rule, y to 1e-9 (the
    regularization leaves it off by 4e-11)."""
    prob = QpProblem(P=np.eye(2), q=np.array([-3.0, -1e-4]),
                     A=np.array([[1.0, 0.0], [1.0, 1e-4], [0.0, 1.0]]),
                     lower=-np.ones(3), upper=np.ones(3))
    factors = []
    potrf = qp_module._POTRF
    monkeypatch.setattr(qp_module, "_POTRF",
                        lambda *a, **kw: factors.append(a[0].shape)
                        or potrf(*a, **kw))
    sol = solve(prob, y0=np.array([1.0, 1.0, 0.0]))
    assert (sol.status, sol.path, sol.sets) == (QpStatus.SOLVED, "set", 1)
    # P~ at the build, then the set's plain and its regularized factor
    assert factors == [(2, 2)] * 3
    np.testing.assert_allclose(sol.x, [1.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.y, [1.0, 1.0, 0.0], rtol=0, atol=1e-9)


def test_more_than_three_rounds_fall_back_to_admm(monkeypatch):
    # from the empty set this problem needs seven corrections
    prob = _random_box_qp(seeded(88), n=8, k=10)
    sol = solve(prob)
    assert sol.status == QpStatus.SOLVED and sol.iterations > 0
    assert sol.path == "admm"
    import ddpc.qp
    monkeypatch.setattr(ddpc.qp, "_CERTIFY_ROUNDS", 7)
    more = solve(prob)
    assert more.status == QpStatus.SOLVED and more.iterations == 0
    assert more.path == "corrected"
    np.testing.assert_allclose(sol.x, more.x, rtol=0, atol=1e-9)


def test_primal_infeasible_problem_is_never_certified():
    # x <= -1 and x >= 1, from every sign pattern of the warm start
    prob = QpProblem(P=np.array([[1.0]]), q=np.array([0.0]),
                     A=np.array([[1.0], [1.0]]),
                     lower=np.array([-np.inf, 1.0]),
                     upper=np.array([-1.0, np.inf]))
    for y0 in (None, [1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [0.0, -1.0]):
        sol = solve(prob, y0=None if y0 is None else np.array(y0))
        assert sol.status == QpStatus.PRIMAL_INFEASIBLE
        assert sol.iterations > 0


def test_certified_solve_does_not_depend_on_the_solvers_history():
    """A solver that has solved another problem, and holds the record of
    a set that this solve does not end on, answers it byte for byte as a
    fresh solver does."""
    rng = seeded(97)
    prob = _random_box_qp(rng, n=10, k=14, spread=0.3)
    ref = solve(prob)
    other_q = prob.q + 3.0 * rng.standard_normal(prob.n)
    # ref.y is certified at once; the other two fall back to ADMM, whose
    # certification from its own dual is a set solve too
    for y0 in (ref.y, -ref.y, None):
        fresh = _q_solver(prob).solve(_q(prob.q), y0=y0)
        used, other = _q_solver(prob), None
        for _ in range(3):
            other = used.solve(_q(other_q),
                               y0=None if other is None else other.y)
        assert other.path == "record"  # used holds the other set's record
        again = used.solve(_q(prob.q), y0=y0)
        assert fresh.x.tobytes() == again.x.tobytes()
        assert fresh.y.tobytes() == again.y.tobytes()
        assert fresh.iterations == again.iterations
        assert fresh.path == again.path == ("set" if y0 is ref.y
                                            else "admm")


@pytest.mark.parametrize("case", [
    "equality-rows", "singular-p-closed-by-equality-rows",
    "singular-p-without-equality-rows"])
def test_row_space_answer_of_a_set_equals_a_dense_kkt_solve(case):
    """The set's ``x`` and ``y``, worked through ``M = A P~^-1 A'`` in the
    space of its rows, one column and as a record's many, equal a dense
    solve of the unregularized KKT system ``[[P, A_S'], [A_S, 0]]`` to
    1e-12 of the solution's largest entry.

    ``P`` is positive definite with 3 equality rows, singular with a
    null space that the 3 equality rows close (as ``projreg_g``'s), or
    singular without equality rows, where ``P~ = P`` fails its Cholesky
    factor and the solver refines through ``P~ + eps I``."""
    rng = seeded(201, len(case))
    n, k, n_eq = 8, 10, 0 if case.endswith("without-equality-rows") else 3
    F = rng.standard_normal((n, n if case == "equality-rows" else n - 3))
    P = F @ F.T + (0.5 * np.eye(n) if case == "equality-rows" else 0.0)
    A = rng.standard_normal((k, n))
    lower0 = rng.standard_normal(k)
    upper0 = lower0 + rng.uniform(0.1, 1.0, k)
    upper0[:n_eq] = lower0[:n_eq]
    D = rng.standard_normal((n + k, 4))
    solver = BoxQpSolver(P, A, (D, lower0, upper0))
    rows = solver._row_space()
    assert (rows.fallback is None) == (n_eq > 0)
    for trial in range(6):
        theta = np.append(rng.standard_normal(3), 1.0)
        s = np.zeros(k)
        held = n_eq + rng.choice(k - n_eq, size=4, replace=False)
        s[held] = rng.choice([-1.0, 1.0], size=4)
        act = np.union1d(np.arange(n_eq), held)
        q, shift = D[:n] @ theta, D[n:] @ theta
        closed0 = np.array([np.where(s > 0, upper0, lower0),
                            np.where(s < 0, lower0, upper0)])
        kkt = np.block([[P, A[act].T], [A[act], np.zeros((act.size,) * 2)]])
        ref = np.linalg.solve(kkt, np.concatenate(
            [-q, (closed0[0] + shift)[act]]))
        ref_x, ref_y = ref[:n], np.zeros(k)
        ref_y[act] = ref[n:]
        tol = 1e-12 * np.abs(ref).max()
        factor = solver._set_factor(act)
        y_one, xtr = solver._set_solve(act, factor, D @ theta,
                                       rows.XC @ theta, closed0[0][act])
        one = np.concatenate([xtr[:n], y_one, [0.0], xtr[n:n + k], [0.0],
                              xtr[n + k:]])
        rec = solver._record(act, factor, s, solver._box(s))
        for d in (one, rec.G @ theta):
            # [x; y; 0; t; 0; r]
            x, y, _, t, _, r = np.split(d, np.cumsum([n, k, 1, k, 1]))
            np.testing.assert_allclose(x, ref_x, rtol=0, atol=tol)
            np.testing.assert_allclose(y, ref_y, rtol=0, atol=tol)
            np.testing.assert_allclose(t, A @ x - shift, rtol=0, atol=tol)
            np.testing.assert_allclose(r, 0.0, rtol=0, atol=tol)


def test_data_map_answers_a_repeated_set_by_one_product():
    """With a data map, the set certified by two solves in a row gets its
    record, and later solves of that set are answered by it: they match
    one-shot solves to round-off.  A solver without a map, a theta of the
    wrong length or one with a non-finite entry is rejected."""
    rng = seeded(98)
    prob = _random_box_qp(rng, n=8, k=10, spread=0.3)
    n, k = prob.n, prob.k
    D = np.zeros((n + k, 4))
    D[:n, :3] = rng.standard_normal((n, 3))
    D[:n, 3] = prob.q
    D[n:, :3] = 0.1 * rng.standard_normal((k, 3))
    mapped = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    y_mapped = y_plain = None
    paths = []
    for step in range(6):
        theta = np.append(1e-3 * step * np.ones(3), 1.0)
        q, shift = D[:n] @ theta, D[n:] @ theta
        a = mapped.solve(theta, y0=y_mapped)
        b = solve(_at(prob, q, prob.lower + shift, prob.upper + shift),
                  y0=y_plain)
        assert a.status == b.status == QpStatus.SOLVED
        np.testing.assert_allclose(a.x, b.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.y, b.y, rtol=0, atol=1e-12)
        paths.append(a.path)
        y_mapped, y_plain = a.y, b.y
    # the first warm-started solve certifies, the next one builds the map,
    # and every later one is answered by it
    assert "record" not in paths[:3] and paths[3:] == ["record"] * 3
    with pytest.raises(TypeError, match="data_map"):
        BoxQpSolver(prob.P, prob.A)
    with pytest.raises(DimensionMismatch, match="theta"):
        mapped.solve(theta[:-1])
    with pytest.raises(ValueError, match=r"^theta "):
        mapped.solve(np.append(theta[:-1], np.nan))
    with pytest.raises(DimensionMismatch, match="data_map"):
        BoxQpSolver(prob.P, prob.A, data_map=(D[1:], prob.lower, prob.upper))


def test_a_row_that_changes_side_gets_the_map_of_its_new_side():
    """min 0.5 x^2 + t x on [-1, 1]: t = 5 holds the row at its lower bound
    and t = -5 at its upper one.  The row set is the same, but a map's
    constant column holds the bound of each row's side, so once a warm
    start points at the upper side, that side is cached as a set of its
    own and then answers without its factor."""
    one = np.ones(1)
    solver = BoxQpSolver(np.eye(1), np.eye(1), data_map=(
        np.array([[1.0, 0.0], [0.0, 0.0]]), -one, one))

    def step(t, y0):
        sol = solver.solve(y0=y0, theta=np.array([t, 1.0]))
        assert sol.status == QpStatus.SOLVED
        assert sol.x[0] == pytest.approx(-np.sign(t), abs=1e-12)
        return sol

    sol = None
    for _ in range(3):
        sol = step(5.0, None if sol is None else sol.y)
    assert sol.path == "record"  # the lower side's
    sol = step(-5.0, one)  # a warm start at the upper side
    assert sol.path == "set"
    for _ in range(2):
        sol = step(-5.0, sol.y)
    assert step(-4.0, sol.y).path == "record"  # the upper side's


def test_a_record_outlives_a_miss_on_another_set():
    """min 0.5 x^2 + t x on [-1, 1]: two solves at t = 5 certify the lower
    side twice, so it gets a record.  One solve at t = -5, warm-started at
    the upper side, certifies that side once and builds no record; the
    lower side's record stays, and the next solve warm-started there is
    answered by it without a set solve."""
    one = np.ones(1)
    solver = BoxQpSolver(np.eye(1), np.eye(1), data_map=(
        np.array([[1.0, 0.0], [0.0, 0.0]]), -one, one))
    y_lower = None
    for _ in range(2):
        y_lower = solver.solve(np.array([5.0, 1.0]), y0=y_lower).y
    other = solver.solve(np.array([-5.0, 1.0]), y0=one)
    assert other.status == QpStatus.SOLVED and other.x[0] == pytest.approx(
        1.0, abs=1e-12)
    assert other.path == "set"
    sol = solver.solve(np.array([4.0, 1.0]), y0=y_lower)
    assert sol.status == QpStatus.SOLVED and sol.path == "record"
    np.testing.assert_allclose([sol.x[0], sol.y[0]], [-1.0, -3.0],
                               atol=1e-12)


def test_a_record_answer_off_its_bounds_is_retried_through_the_set_factor():
    """min 0.5 x^2 + 5 x on [-1, 1] holds x at -1 with y = -4.  A record
    whose rows were formed without the bound's constant answers x = 0, y =
    -5, and its rows of t and of the stationarity residual, derived from
    them, read 0 and 0: the dual residual passes and 0 lies inside the
    box, so only the primal test against the row held at its bound rejects
    it.  No row has a wrong sign or is violated, so the same set is solved
    again through its factor."""
    one = np.ones(1)
    solver = BoxQpSolver(np.eye(1), np.eye(1), data_map=(
        np.array([[1.0, 0.0], [0.0, 0.0]]), -one, one))
    theta = np.array([5.0, 1.0])
    y = None
    for _ in range(3):
        y = solver.solve(y0=y, theta=theta).y
    rec = solver._map
    # [x; y; 0; t; 0; r]
    np.testing.assert_allclose(rec.G @ theta, [-1.0, -4.0, 0.0, -1.0, 0.0,
                                               0.0], atol=1e-12)

    def dropped(act, factor, data, xc, b0):
        """The set solve with the bound's constant dropped."""
        return BoxQpSolver._set_solve(solver, act, factor, data, xc,
                                      np.zeros_like(b0))

    solver._set_solve = dropped
    act = np.array([0])
    solver._map = solver._record(act, solver._set_factor(act),
                                 np.frombuffer(rec.key), rec.box)
    del solver._set_solve
    np.testing.assert_allclose(solver._map.G @ theta, [0.0, -5.0, 0.0, 0.0,
                                                       0.0, 0.0], atol=1e-12)
    sol = solver.solve(y0=y, theta=theta)
    assert sol.status == QpStatus.SOLVED and sol.path == "corrected"
    np.testing.assert_allclose([sol.x[0], sol.y[0]], [-1.0, -4.0],
                               atol=1e-12)


def _mapped_qp(seed):
    """A random QP with a data map in a 3-vector (and the trailing 1)."""
    rng = seeded(seed)
    prob = _random_box_qp(rng, n=8, k=10, spread=0.3)
    n, k = prob.n, prob.k
    D = np.zeros((n + k, 4))
    D[:n, :3] = rng.standard_normal((n, 3))
    D[:n, 3] = prob.q
    D[n:, :3] = 0.1 * rng.standard_normal((k, 3))
    return prob, D


def test_a_solve_factors_each_set_it_tries_once():
    """``QpSolution.sets`` counts the active sets a solve factored: none
    for a record answer, one for the warm start's set, one more per
    correction, and on the ADMM path the rounds before ADMM and the set
    of ADMM's dual.  The solve that builds a record (the second of three
    equal thetas) is a ``set`` answer of one set, since the record is
    solved through that set's factor.  At each jump of theta the record
    is rejected and counts as the round it replaces: three corrections
    and the set of ADMM's dual make 4 sets, where a cold start tries 4
    rounds and ADMM's set, 5."""
    prob, D = _mapped_qp(98)
    solver = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    thetas = ([np.append(1e-3 * t * np.ones(3), 1.0) for t in range(4)]
              + [np.array([-0.6, -0.6, -0.6, 1.0])] * 3
              + [np.array([0.6, -0.6, -0.6, 1.0])] * 3)
    y, work = None, []
    for theta in thetas:
        sol = solver.solve(theta, y0=y)
        y = sol.y
        assert sol.status == QpStatus.SOLVED
        assert (sol.sets == 0) == (sol.path == "record")
        work.append((sol.path, sol.sets))
    assert work == ([("admm", 5), ("corrected", 2), ("set", 1), ("record", 0)]
                    + [("admm", 4), ("set", 1), ("record", 0)] * 2)


def test_a_miss_forms_its_sets_box_only_to_build_a_record(monkeypatch):
    """A miss decides each set it tries from the one product of its set
    solve, so ``_box`` runs only where a record is built: not on a first
    certification of a set, nor on any rejected round, and once when the
    second certification in a row builds the set's record; a record
    answer reads the box its record holds."""
    calls = []
    box = BoxQpSolver._box

    def counted(self, s):
        calls.append(s)
        return box(self, s)

    monkeypatch.setattr(BoxQpSolver, "_box", counted)
    prob, D = _mapped_qp(98)
    solver = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    thetas = ([np.append(1e-3 * t * np.ones(3), 1.0) for t in range(4)]
              + [np.array([-0.6, -0.6, -0.6, 1.0])] * 3
              + [np.array([0.6, -0.6, -0.6, 1.0])] * 3)
    y, work = None, []
    for theta in thetas:
        calls.clear()
        record = solver._map
        sol = solver.solve(theta, y0=y)
        y = sol.y
        assert len(calls) == (solver._map is not record)
        work.append((sol.path, sol.sets, len(calls)))
    assert work == ([("admm", 5, 0), ("corrected", 2, 0), ("set", 1, 1),
                     ("record", 0, 0)]
                    + [("admm", 4, 0), ("set", 1, 1), ("record", 0, 0)] * 2)


def test_theta_only_solve_equals_the_solve_of_its_data():
    """Through answers from the record (hits), sets without one (misses)
    and a row that moves to its other bound, each solve has the status, x
    and y of a one-shot solve of ``D @ theta``, warm-started alike.
    """
    prob, D = _mapped_qp(98)
    n = prob.n
    mapped = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    thetas = ([np.append(1e-3 * t * np.ones(3), 1.0) for t in range(5)]
              + [np.array([-0.6, -0.6, -0.6, 1.0])] * 4
              + [np.array([0.6, -0.6, -0.6, 1.0])] * 4)
    y_mapped = y_plain = None
    held = []
    for theta in thetas:
        q, shift = D[:n] @ theta, D[n:] @ theta
        a = mapped.solve(theta, y0=y_mapped)
        b = solve(_at(prob, q, prob.lower + shift, prob.upper + shift),
                  y0=y_plain)
        assert a.status == b.status
        np.testing.assert_allclose(a.x, b.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.y, b.y, rtol=0, atol=1e-12)
        held.append((a.path == "record", tuple(np.sign(a.y))))
        y_mapped, y_plain = a.y, b.y
    assert sum(hit for hit, _ in held) >= 6
    assert sum(not hit for hit, _ in held) >= 4
    # some row is held at its lower bound in one block and at its upper
    # bound in a later one
    signs = np.array([s for _, s in held])
    assert ((signs < 0).any(axis=0) & (signs > 0).any(axis=0)).any()


def test_records_close_the_data_maps_own_bounds():
    """At a ``theta`` whose shift is not zero and at one whose shift is
    (``D``'s constant column is zero there), repeated solves build their
    set's record and are answered by it; every record is named by the
    bytes of its side vector and closes the data map's own bounds onto
    its rows' sides, in the box of its rows of ``t``; each answer equals a
    one-shot solve, warm-started alike."""
    prob, D = _mapped_qp(98)
    n, k = prob.n, prob.k
    mapped = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    answered = []  # the record that answered each theta's last two solves
    for theta in (np.array([0.6, -0.6, -0.6, 1.0]), np.eye(4)[3]):
        q, shift = D[:n] @ theta, D[n:] @ theta
        y, paths = None, []
        for _ in range(4):
            a = mapped.solve(theta, y0=y)
            b = solve(_at(prob, q, prob.lower + shift, prob.upper + shift),
                      y0=y)
            assert a.status == b.status == QpStatus.SOLVED
            np.testing.assert_allclose(a.x, b.x, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.y, b.y, rtol=0, atol=1e-12)
            y = a.y
            paths.append(a.path)
        assert paths.count("record") == 2 and paths[-1] == "record"
        answered.append(mapped._map)
    # the second theta's set is a record of its own
    assert answered[0].key != answered[1].key
    for rec in answered:
        sides = np.frombuffer(rec.key)  # the set's one name
        assert sides.shape == (k,) and set(sides) <= {-1.0, 0.0, 1.0}
        np.testing.assert_array_equal(rec.box[:, k + 1:2 * k + 1], [
            np.where(sides > 0, prob.upper, prob.lower),
            np.where(sides < 0, prob.lower, prob.upper)])


def test_record_answers_report_the_residuals_of_their_own_x_and_y():
    """A record answer reports the residuals that its returned ``x`` and
    ``y`` have at ``D @ theta``, to round-off: the largest gap of ``A x``
    outside the bounds, the set's rows held at their bounds, and the
    largest entry of ``|P x + q + A' y|``; its ``t`` is ``A x`` less the
    shift."""
    prob, D = _mapped_qp(98)
    n, k = prob.n, prob.k
    mapped = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    y, hits = None, 0
    for step in range(8):
        theta = np.append(1e-3 * step * np.ones(3), 1.0)
        a = mapped.solve(theta, y0=y)
        assert a.status == QpStatus.SOLVED
        if a.path == "record":
            hits += 1
            q, shift = D[:n] @ theta, D[n:] @ theta
            lo, hi = mapped._map.box[:, k + 1:2 * k + 1] + shift
            Ax = prob.A @ a.x
            primal = max(0.0, (lo - Ax).max(), (Ax - hi).max())
            dual = np.abs(prob.P @ a.x + q + prob.A.T @ a.y).max()
            assert a.primal_res == pytest.approx(primal, rel=0, abs=1e-13)
            assert a.dual_res == pytest.approx(dual, rel=0, abs=1e-13)
            np.testing.assert_allclose(a.t, Ax - shift, rtol=0, atol=1e-13)
        y = a.y
    assert hits >= 4


def test_a_record_hit_tests_theta_where_its_map_is_zero(monkeypatch):
    """An entry of ``theta`` that the data map does not read has a zero
    column in the record's map too, so a ``gemv`` that leaves such
    columns out, as a BLAS kernel may, gives a finite ``G @ theta`` where
    that entry is not; a hit still raises the ``theta`` error."""
    prob, D = _mapped_qp(98)
    D = np.insert(D, 1, 0.0, axis=1)  # theta[1] is read by no row
    mapped = BoxQpSolver(prob.P, prob.A, (D, prob.lower, prob.upper))
    theta, y, paths = np.array([0.0, 0.0, 0.0, 0.0, 1.0]), None, []
    for _ in range(4):
        sol = mapped.solve(theta, y0=y)
        y = sol.y
        paths.append(sol.path)
    G = mapped._map.G
    assert paths.count("record") == 2 and not G[:, 1].any()
    gemv = qp_module._GEMV

    def skipping(alpha, a, x, trans=0, **kwargs):
        unread = ~a.any(axis=1 if trans else 0)
        return gemv(alpha, a, np.where(unread, 0.0, x), trans=trans,
                    **kwargs)

    monkeypatch.setattr(qp_module, "_GEMV", skipping)
    theta[1] = np.nan
    assert np.isfinite(skipping(1.0, G, theta)).all()
    with pytest.raises(ValueError, match=r"^theta has non-finite"):
        mapped.solve(theta, y0=y)
    theta[1] = 0.0  # the same warm start at a finite theta is a hit
    assert mapped.solve(theta, y0=y).path == "record"


def test_equality_rows_whose_multipliers_change_sign_keep_their_record():
    """Equality rows are held by every set and take no side, so a warm
    start whose equality multipliers change sign from step to step (as
    ``projreg_g``'s do) still names the record's set: the set that the
    first step reaches by a correction is the one the second step's warm
    start names, so the second step builds the record, and every later
    step is answered by it without reaching its factor.

    min 0.5 |x|^2 + q' x with ``x1 + x2 + x3 = 0`` and ``x1 - x2 = 0`` as
    equality rows, ``x3 <= 1``, held at ``q3 = -5``, and the one-sided rows
    ``x2 <= 10`` and ``x1 >= -10``, never held: a row that can take one
    side or none is off the set as +0.0, never -0.0, in every side vector.
    """
    A = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    lower0 = np.array([0.0, 0.0, -np.inf, -np.inf, -10.0])
    upper0 = np.array([0.0, 0.0, 1.0, 10.0, np.inf])
    # theta = [t; 1]: q = [t, -t, -5], and no shift
    D = np.zeros((8, 2))
    D[:3] = [[1.0, 0.0], [-1.0, 0.0], [0.0, -5.0]]
    solver = BoxQpSolver(np.eye(3), A, (D, lower0, upper0))
    ts = [1.0, 1.0, 1.0, -1.0, 2.0, -2.0, 0.5]
    y, signs, paths = None, [], []
    for t in ts:
        theta = np.array([t, 1.0])
        sol = solver.solve(theta, y0=y)
        ref = solve(QpProblem(P=np.eye(3), q=D[:3] @ theta, A=A,
                              lower=lower0, upper=upper0), y0=y)
        assert sol.status == QpStatus.SOLVED and sol.iterations == 0
        np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sol.x, [-0.5, -0.5, 1.0], atol=1e-12)
        y = sol.y
        signs.append(np.sign(y[:2]))
        paths.append(sol.path)
    # the second step builds the record: no step after it factors
    assert paths == ["corrected", "set"] + ["record"] * (len(ts) - 2)
    # the equality multipliers did change sign between answered steps
    assert (np.diff(np.array(signs[2:]), axis=0) != 0).any()


def test_overflowing_theta_raises_without_a_warning():
    prob, D = _mapped_qp(99)
    mapped = BoxQpSolver(prob.P, prob.A,
                         data_map=(1e10 * D, prob.lower, prob.upper))
    theta = np.array([1e300, -1e300, 1e300, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^theta .*overflows"):
            mapped.solve(theta=theta)
        with pytest.raises(ValueError, match=r"^y0 "):
            mapped.solve(theta=np.ones(4), y0=np.full(prob.k, np.nan))


@pytest.mark.parametrize("row,lower,upper,named", [
    (2, 1.0, -1.0, "lower0 exceeds data_map upper0 at row 2"),
    (0, np.inf, np.inf, "lower0 has entries equal to inf"),
    (1, -np.inf, -np.inf, "upper0 has entries equal to -inf"),
    (3, np.nan, 1.0, "lower0 has NaN entries"),
    (1, 0.0, np.nan, "upper0 has NaN entries"),
    ((0, 1), (1.0, 2.0), (0.0, 1.5), "lower0 exceeds data_map upper0 at row 0"),
    ((1, 4), (2.0, 1.0), (1.5, 0.0), "lower0 exceeds data_map upper0 at row 1"),
])
def test_data_map_bounds_are_checked_when_the_solver_is_built(
        row, lower, upper, named):
    # a bound that every solve shifts is checked once, here: the first
    # crossed row is named
    prob, D = _mapped_qp(100)
    lo, hi = prob.lower.copy(), prob.upper.copy()
    lo[(row,)], hi[(row,)] = lower, upper
    with pytest.raises(ValueError, match=f"^data_map {named}$"):
        BoxQpSolver(prob.P, prob.A, (D, lo, hi))


@pytest.mark.parametrize("P,A,rows,named", [
    # unchecked, a 1-D A takes a row of P, and a solve fails inside BLAS
    (np.eye(2), np.ones(2), 4, r"^A has shape \(2,\), expected \(k, 2\)$"),
    (np.ones((2, 3)), np.ones((1, 2)), 3,
     r"^P has shape \(2, 3\), expected \(n, n\)$"),
    (np.eye(2), np.ones((1, 3)), 3,
     r"^A has shape \(1, 3\), expected \(k, 2\)$"),
    # the map is q and the shift, nothing more
    (np.eye(2), np.ones((1, 2)), 4,
     r"D of 3 rows .* got D of shape \(4, 1\)$"),
], ids=["A-1d", "P-not-square", "A-columns", "D-rows-past-n-plus-k"])
def test_solver_shapes_are_checked_when_it_is_built(P, A, rows, named):
    bound = np.ones(len(A))
    with pytest.raises(DimensionMismatch, match=named):
        BoxQpSolver(P, A, (np.zeros((rows, 1)), -bound, bound))


def _degenerate_qp(seed):
    """A random QP with many active rows; every third P is singular."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(n, 2 * n + 2))
    G = rng.standard_normal((n, n))
    P = G @ G.T + 1e-2 * np.eye(n)
    if seed % 3 == 0:
        G = rng.standard_normal((n, n - 1))
        P = G @ G.T
    A = rng.standard_normal((k, n))
    q = 3.0 * rng.standard_normal(n)
    return (P, A, q, -rng.uniform(0.1, 1.0, k), rng.uniform(0.1, 1.0, k))


@pytest.mark.parametrize("seed", [33, 276, 597])
def test_solved_after_admm_is_complementary(seed, monkeypatch):
    # at eps 1e-3 ADMM stops with a dual whose signs point at a set that
    # is no KKT point; a SOLVED step must still be complementary
    monkeypatch.setattr(qp_module, "_EPS_ABS", 1e-3)
    monkeypatch.setattr(qp_module, "_EPS_REL", 1e-3)
    P, A, q, lo, hi = _degenerate_qp(seed)
    sol = solve(QpProblem(P=P, q=q, A=A, lower=lo, upper=hi))
    assert sol.status == QpStatus.SOLVED
    Ax = A @ sol.x
    gap = max(np.max(np.maximum(sol.y, 0.0) * (hi - Ax)),
              np.max(np.maximum(-sol.y, 0.0) * (Ax - lo)))
    assert gap <= 1e-2


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _non_finite_cases(prob):
    """``(name, solve kwargs)`` pairs for :func:`_q_solver`, each with one
    bad entry in ``name``; a bad ``q`` is a bad ``theta``."""
    def spoiled(v, value):
        v = np.array(v, dtype=float)
        v[1] = value
        return v

    base = dict(theta=_q(prob.q), x0=np.zeros(prob.n), y0=np.zeros(prob.k))
    cases = []
    for name, value in (("theta", np.nan), ("theta", np.inf),
                        ("x0", np.nan), ("x0", -np.inf), ("y0", np.nan),
                        ("y0", np.inf)):
        args = dict(base)
        args[name] = spoiled(base[name], value)
        cases.append((name, args))
    return cases


def _rowless(prob):
    """``prob`` without its rows."""
    return QpProblem(P=prob.P, q=prob.q, A=np.zeros((0, prob.n)),
                     lower=np.zeros(0), upper=np.zeros(0))


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
    # building a solver factors P, so the solvers are built first
    solver = _q_solver(prob)
    free = _q_solver(_rowless(prob))
    _forbid_lapack(monkeypatch)
    for name, args in _non_finite_cases(prob):
        with pytest.raises(ValueError):
            solver.solve(**args)
    # the unconstrained path takes q alone
    with pytest.raises(ValueError):
        free.solve(_q(np.full(prob.n, np.nan)))
    for name in ("P", "A"):
        bad = {"P": prob.P.copy(), "A": prob.A.copy()}
        bad[name][0, 0] = np.nan
        with pytest.raises(ValueError):
            BoxQpSolver(bad["P"], bad["A"], solver.data_map)


def test_overflowing_iterates_raise_instead_of_a_status():
    # finite data whose iterates overflow: the residual turns non-finite
    rng = seeded(93)
    prob = _random_box_qp(rng, n=6, k=8)
    solver = _q_solver(prob)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            solver.solve(_q(np.full(prob.n, 1e308)))


def test_non_finite_input_error_names_argument():
    rng = seeded(92)
    prob = _random_box_qp(rng, n=6, k=8)
    solver = _q_solver(prob)
    for name, args in _non_finite_cases(prob):
        with pytest.raises(ValueError, match=rf"^{name} "):
            solver.solve(**args)
    free = _q_solver(_rowless(prob))
    with pytest.raises(ValueError, match=r"^x0 "):
        free.solve(_q(prob.q), x0=np.full(prob.n, np.nan))
    for name in ("P", "A"):
        bad = {"P": prob.P.copy(), "A": prob.A.copy()}
        bad[name][0, 0] = np.inf
        with pytest.raises(ValueError, match=rf"^{name} "):
            BoxQpSolver(bad["P"], bad["A"], _q_solver(prob).data_map)


@pytest.mark.parametrize("field,value", [
    ("P", np.nan), ("P", np.inf), ("q", np.nan), ("q", -np.inf),
    ("A", np.nan), ("A", np.inf), ("lower", np.nan), ("upper", np.nan),
])
def test_problem_rejects_non_finite_data_by_name(field, value):
    """Before any other check, and without a floating-point warning."""
    data = dict(P=np.eye(2), q=np.zeros(2), A=np.eye(2),
                lower=-np.ones(2), upper=np.ones(2))
    data[field] = data[field].copy()
    data[field].flat[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{field} has "):
            QpProblem(**data)


def test_solver_rejects_an_indefinite_p_at_build():
    """min 0.5 (x1^2 - x2^2) on [-1, 1]^2 has its minimizers at x2 = +-1;
    a solver that took this ``P`` would answer the saddle point x = 0."""
    one = np.ones(2)
    with pytest.raises(ValueError, match="^P is not positive semidefinite"):
        BoxQpSolver(np.diag([1.0, -1.0]), np.eye(2),
                    (np.zeros((4, 1)), -one, one))


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
    solver = _q_solver(prob)
    for warm in (dict(x0=np.zeros(1)), dict(x0=np.zeros((prob.n, 1))),
                 dict(y0=np.zeros(1)), dict(y0=np.zeros(prob.k + 1))):
        with pytest.raises(DimensionMismatch):
            solver.solve(_q(prob.q), **warm)
