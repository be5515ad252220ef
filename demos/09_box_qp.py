#!/usr/bin/env python3
"""Exercise the operator-splitting solver on a random box-constrained QP.

Solves  min 0.5 x'Px + q'x  subject to  lower <= Ax <= upper,  checks the
KKT conditions of the returned solution, demonstrates warm starting, and
shows the infeasibility certificate on a contradictory constraint pair.
"""

import os
from dataclasses import replace

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc

# The KKT residual of a solved problem is round-off, which any change to
# the order of the solver's arithmetic moves; the demo prints only whether
# it is below this floor, so its output stays checkable across changes.
KKT_FLOOR = 1e-12


def kkt_residual(prob, sol):
    """Stationarity, feasibility, and complementarity of a candidate."""
    stationarity = prob.P @ sol.x + prob.q + prob.A.T @ sol.y
    z = prob.A @ sol.x
    feas = np.maximum(z - prob.upper, 0.0) + np.maximum(prob.lower - z, 0.0)
    comp = np.minimum(np.abs(z - prob.lower), np.abs(z - prob.upper))
    comp = np.where(np.abs(sol.y) > 1e-9, comp, 0.0)
    return max(np.abs(stationarity).max(), feas.max(), comp.max())


def main():
    rng = ddpc.rng_for(0xDE309)
    n, k = 20, 40
    L = rng.standard_normal((n, n))
    prob = ddpc.QpProblem(
        P=L @ L.T + 0.5 * np.eye(n),
        q=rng.standard_normal(n),
        A=rng.standard_normal((k, n)),
        lower=-np.abs(rng.standard_normal(k)) - 0.1,
        upper=np.abs(rng.standard_normal(k)) + 0.1,
    )

    sol = ddpc.solve(prob)
    print(f"status: {sol.status.name} after {sol.iterations} iterations")
    print(f"objective: {sol.objective:.6f}")
    print(f"KKT residual below {KKT_FLOOR:.0e}: "
          f"{kkt_residual(prob, sol) < KKT_FLOOR}")

    active = np.sum((np.abs(prob.A @ sol.x - prob.lower) < 1e-7)
                    | (np.abs(prob.A @ sol.x - prob.upper) < 1e-7))
    print(f"active constraints at the optimum: {active} of {k}")

    # Warm starting from the previous solution after a small perturbation
    # of the linear term, as happens between receding-horizon steps.
    nearby = replace(prob, q=prob.q + 0.01 * rng.standard_normal(n))
    cold = ddpc.solve(nearby)
    warm = ddpc.solve(nearby, x0=sol.x, y0=sol.y)
    print(f"nearby problem: cold start {cold.iterations} iterations, "
          f"warm start {warm.iterations}")

    # lower > upper on a synthetic row pair makes the problem infeasible.
    bad = ddpc.QpProblem(
        P=prob.P, q=prob.q,
        A=np.vstack([np.eye(1, n), np.eye(1, n)]),
        lower=np.array([1.0, -2.0]),
        upper=np.array([2.0, 0.0]),
    )
    print(f"contradictory rows: {ddpc.solve(bad).status.name}")


if __name__ == "__main__":
    main()
