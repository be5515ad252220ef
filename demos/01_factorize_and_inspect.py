#!/usr/bin/env python3
"""Collect open-loop data, stack it into Hankel blocks, and LQ-factorize it.

Shows the shapes of the partition and the triangular factor blocks, checks
the Gram identity ``L L' = S S'`` between the factor and the stacked data
matrix, and verifies the excitation is persistently exciting of sufficient
order.  The round-off checks print only whether each error is below a
stated floor.
"""

import os

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc

# Two-state plant in innovation form (same system the bundled configs use).
PLANT = ddpc.StateSpaceModel(
    A=np.array([[0.7326, -0.0861], [0.1722, 0.9909]]),
    B=np.array([[0.0609], [0.0064]]),
    C=np.array([[0.0, 1.4142]]),
    D=np.array([[1.0]]),
    K=np.array([[-0.3645], [0.9973]]),
)

# The Gram identity holds to about 1e-15 relative, by a different amount
# after any change that moves the factor by an ulp; the demo prints only
# whether each error is below this floor, so its output stays the same
# under such changes and still shows a real error.
ERROR_FLOOR = 1e-9


def below_floor(err):
    return "yes" if err < ERROR_FLOOR else f"no ({err:.2e})"


def main():
    rng = ddpc.rng_for(0xDE301)
    n_d = 400
    excitation = ddpc.random_steps(rng, amplitude=1.5, hold=5, length=n_d)
    traj = ddpc.collect_open_loop(PLANT, excitation, rng=rng, sigma_e=0.1)
    print(f"collected {traj.inputs.shape[1]} samples, "
          f"m={traj.inputs.shape[0]} inputs, p={traj.outputs.shape[0]} outputs")

    spec = ddpc.HorizonSpec(L_p=8, L_f=10)
    order = spec.L_p + spec.L_f + PLANT.A.shape[0]
    # Persistently exciting of order s: the depth-s Hankel matrix of the
    # input has full row rank (singular values above a 1e-10 cutoff).
    H_u = ddpc.build_hankel(traj.inputs, order)
    sv = np.linalg.svd(H_u, compute_uv=False)
    exciting = H_u.shape[0] <= H_u.shape[1] and sv[-1] > 1e-10 * sv[0]
    print(f"persistently exciting of order {order}: {exciting}")

    part = ddpc.partition(traj, spec)
    print(f"partition: Z_p {part.Z_p.shape}, U_f {part.U_f.shape}, "
          f"Y_f {part.Y_f.shape}")

    blocks = ddpc.factorize(part)
    print(f"columns M={blocks.M}")
    for name in ("L11", "L21", "L22", "L31", "L32", "L33"):
        blk = getattr(blocks, name)
        print(f"  {name}: {blk.shape[0]}x{blk.shape[1]}")

    # S = L Q with orthonormal rows Q, so the factor alone reproduces the
    # Gram matrix S S' of the stacked data matrix S = [Z_p; U_f; Y_f].
    stacked = np.vstack([part.Z_p, part.U_f, part.Y_f])
    d1 = part.Z_p.shape[0]
    L = np.block([
        [blocks.L11, np.zeros((d1, blocks.dim_u + blocks.dim_y))],
        [blocks.L21, blocks.L22, np.zeros((blocks.dim_u, blocks.dim_y))],
        [blocks.L31, blocks.L32, blocks.L33],
    ])
    gram = stacked @ stacked.T
    err = np.linalg.norm(L @ L.T - gram) / np.linalg.norm(gram)
    print(f"Gram identity L L' = S S' relative error below "
          f"{ERROR_FLOOR:.0e}: {below_floor(err)}")

    tri = np.linalg.norm(np.triu(blocks.L11, 1)) / np.linalg.norm(blocks.L11)
    print(f"strict upper triangle of L11 relative norm below "
          f"{ERROR_FLOOR:.0e}: {below_floor(tri)}")
    print(f"past block L11 nonsingular: "
          f"{abs(np.linalg.det(blocks.L11[:d1, :d1])) > 0}")


if __name__ == "__main__":
    main()
