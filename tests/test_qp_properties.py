"""Properties of ``BoxQpSolver`` along receding-horizon sequences of
parametric QPs drawn by hypothesis (``n`` in 1-6, ``k`` in 1-8 rows, up
to two of them equality rows and some one-sided, ``theta`` of 1-3
entries, 8 steps that repeat, creep or jump): a record answer equals a
fresh solver's at the same ``theta`` and warm start, and no answer
depends on the solver's history, to 1e-9 of the answer's size.  With a
repeated row drawn too, so that some sets take the regularized factor,
every ``SOLVED`` answer is a KKT point to 1e-7 and equals the
exhaustive oracle's optimum, and every answer, kept whole, still holds
its ``x``, ``y`` and ``t`` bit for bit after the later solves.  The
draws are derandomized, and no example database is written.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rng_for
from oracles import kkt_residuals, solve_qp_exhaustive

from ddpc import BoxQpSolver, QpStatus

_SETTINGS = settings(max_examples=25, derandomize=True, database=None,
                     deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mapped_qps(draw, steps=8, repeated=False):
    """``(P, A, data_map, thetas)``: a strictly convex QP, feasible at
    every ``theta`` because its bounds move with ``A @ E @ theta``.  With
    ``repeated``, the last row, where it is a free row after another free
    one, repeats that row with its bounds and its shift, so that a set
    holding both has a singular ``M_SS``."""
    n, k, d = (draw(st.integers(1, n_max)) for n_max in (6, 8, 3))
    n_eq = draw(st.integers(0, min(2, n - 1, k)))
    step = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
    rng = rng_for(0x9E1, draw(st.integers(0, 2**16)))
    copy = (draw(st.integers(n_eq, k - 2)) if repeated and k - n_eq >= 2
            else None)
    F, A = rng.standard_normal((n, n)), rng.standard_normal((k, n))
    if copy is not None:
        A[-1] = A[copy]
    base = A @ rng.standard_normal(n)
    lower0 = base - rng.uniform(0.05, 1.0, k)
    upper0 = base + rng.uniform(0.05, 1.0, k)
    lower0[:n_eq] = upper0[:n_eq] = base[:n_eq]
    side = rng.choice([0, -1, 1], size=k, p=[0.7, 0.15, 0.15]) * (
        np.arange(k) >= n_eq)
    lower0[side < 0], upper0[side > 0] = -np.inf, np.inf
    if copy is not None:
        lower0[-1], upper0[-1] = lower0[copy], upper0[copy]
    D = np.vstack([rng.standard_normal((n, d + 1)),
                   A @ (0.3 * rng.standard_normal((n, d + 1)))])
    walk = np.cumsum(step * rng.standard_normal((steps, d)), axis=0)
    thetas = np.hstack([rng.standard_normal(d) + walk, np.ones((steps, 1))])
    return F @ F.T + 0.1 * np.eye(n), A, (D, lower0, upper0), thetas


def _same_answer(a, b) -> None:
    assert a.status == b.status
    for u, v in ((a.x, b.x), (a.y, b.y)):
        scale = max(np.abs(u).max(initial=0.0), np.abs(v).max(initial=0.0))
        assert np.abs(u - v).max(initial=0.0) <= 1e-9 * scale


def test_a_record_answer_equals_a_fresh_solve():
    hits = []

    @_SETTINGS
    @given(case=mapped_qps())
    def check(case):
        P, A, data_map, thetas = case
        solver, x, y = BoxQpSolver(P, A, data_map), None, None
        for theta in thetas:
            a = solver.solve(theta, x0=x, y0=y)
            if a.path == "record":
                hits.append(theta)
                _same_answer(a, BoxQpSolver(P, A, data_map).solve(
                    theta, x0=x, y0=y))
            x, y = a.x, a.y

    check()
    assert hits


@_SETTINGS
@given(case=mapped_qps(), warm=st.booleans())
def test_an_answer_does_not_depend_on_the_solvers_history(case, warm):
    P, A, data_map, thetas = case
    used, x, y = BoxQpSolver(P, A, data_map), None, None
    for theta in thetas[:-1]:
        a = used.solve(theta, x0=x, y0=y)
        x, y = a.x, a.y
    x0, y0 = (x, y) if warm else (None, None)
    _same_answer(used.solve(thetas[-1], x0=x0, y0=y0),
                 BoxQpSolver(P, A, data_map).solve(thetas[-1], x0=x0, y0=y0))


@_SETTINGS
@given(case=mapped_qps(repeated=True))
def test_a_solved_answer_is_a_kkt_point_and_the_exhaustive_optimum(case):
    """Every ``SOLVED`` answer along the sequence meets the KKT conditions
    of its QP to 1e-7, and its ``x`` is the optimum that enumerating
    every active set finds (k <= 8), to 1e-7 of its size; ``y`` is not
    unique where a row repeats, so only ``x`` is compared."""
    P, A, (D, lower0, upper0), thetas = case
    n = P.shape[0]
    solver, x, y = BoxQpSolver(P, A, (D, lower0, upper0)), None, None
    for theta in thetas:
        a = solver.solve(theta, x0=x, y0=y)
        x, y = a.x, a.y
        q, shift = D[:n] @ theta, D[n:] @ theta
        if a.status is QpStatus.SOLVED:
            lo, hi = lower0 + shift, upper0 + shift
            assert max(kkt_residuals(P, q, A, lo, hi, a.x, a.y)) <= 1e-7
            x_ref, _ = solve_qp_exhaustive(P, q, A, lo, hi)
            assert (np.abs(a.x - x_ref).max()
                    <= 1e-7 * max(1.0, np.abs(x_ref).max()))


def test_an_answer_survives_the_later_solves():
    """A solver writes its rounds' vectors in place from solve to solve,
    and none of them is an array it returns: every answer along a
    sequence, kept whole, still holds after the last solve the ``x``,
    ``y`` and ``t`` it was returned with, bit for bit, on every path."""
    paths = set()

    @_SETTINGS
    @given(case=mapped_qps(repeated=True))
    def check(case):
        P, A, data_map, thetas = case
        solver, x, y, kept = BoxQpSolver(P, A, data_map), None, None, []
        for theta in thetas:
            a = solver.solve(theta, x0=x, y0=y)
            kept.append((a, a.x.copy(), a.y.copy(), a.t.copy()))
            paths.add(a.path)
            x, y = a.x, a.y
        for a, *copies in kept:
            for now, then in zip((a.x, a.y, a.t), copies):
                assert now.tobytes() == then.tobytes()

    check()
    assert {"record", "set", "corrected", "admm"} <= paths


def test_a_set_answers_residuals_are_its_gap_and_stationarity():
    """Every ``SOLVED`` answer on the ``set`` or ``corrected`` path reports
    as ``primal_res`` the largest gap of its ``t`` outside its bounds,
    each held row (``y != 0``) closed onto the side of its multiplier, or
    0 where there is none, to 1e-12 of the scale of ``A x`` and the shift;
    and as ``dual_res`` the stationarity residual ``max|P x + q + A'y|``,
    to 1e-12 of the scale of its terms."""
    answers = []

    @_SETTINGS
    @given(case=mapped_qps(repeated=True))
    def check(case):
        P, A, (D, lower0, upper0), thetas = case
        n = P.shape[0]
        solver, x, y = BoxQpSolver(P, A, (D, lower0, upper0)), None, None
        for theta in thetas:
            a = solver.solve(theta, x0=x, y0=y)
            x, y = a.x, a.y
            if (a.status is not QpStatus.SOLVED
                    or a.path not in ("set", "corrected")):
                continue
            answers.append(a.path)
            q, shift = D[:n] @ theta, D[n:] @ theta
            closed_lo = np.where(a.y > 0.0, upper0, lower0)
            closed_hi = np.where(a.y < 0.0, lower0, upper0)
            gap = np.maximum(closed_lo - a.t, a.t - closed_hi).max()
            scale = max(1.0, np.abs(a.t).max(), np.abs(shift).max())
            assert abs(a.primal_res - max(gap, 0.0)) <= 1e-12 * scale
            terms = (P @ a.x, q, A.T @ a.y)
            stationarity = np.abs(sum(terms)).max()
            scale = max(1.0, *(np.abs(v).max() for v in terms))
            assert abs(a.dual_res - stationarity) <= 1e-12 * scale

    check()
    assert {"set", "corrected"} <= set(answers)
