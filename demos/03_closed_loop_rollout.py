#!/usr/bin/env python3
"""Run one receding-horizon rollout with a data-driven controller.

Collects noisy open-loop data from the plant, builds a causal data-driven
controller from the LQ factor blocks, and tracks a square-wave reference
under input box constraints.  Writes the per-step trajectory to a CSV.
"""

import argparse

import numpy as np

import ddpc

PLANT = ddpc.StateSpaceModel(
    A=np.array([[0.7326, -0.0861], [0.1722, 0.9909]]),
    B=np.array([[0.0609], [0.0064]]),
    C=np.array([[0.0, 1.4142]]),
    D=np.array([[1.0]]),
    K=np.array([[-0.3645], [0.9973]]),
)
SPEC = ddpc.HorizonSpec(L_p=15, L_f=30)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=0.2,
                    help="innovation noise level during data collection")
    ap.add_argument("--steps", type=int, default=120,
                    help="closed-loop horizon length")
    ap.add_argument("--out", default="rollout_demo.csv",
                    help="path for the per-step CSV")
    args = ap.parse_args()

    rng = ddpc.rng_for(0xDE303)
    excitation = ddpc.random_steps(rng, amplitude=2.0, hold=5, length=600)
    traj = ddpc.collect_open_loop(PLANT, excitation, rng=rng,
                                  sigma_e=args.sigma)
    blocks = ddpc.factorize(ddpc.partition(traj, SPEC))

    cost = ddpc.CostSpec(q_step=np.eye(1), r_step=0.05 * np.eye(1),
                         L_f=SPEC.L_f)
    boxes = ddpc.BoxConstraints(
        u_lower=np.array([-3.0]), u_upper=np.array([3.0]),
        y_lower=np.array([-np.inf]), y_upper=np.array([np.inf]))
    spec = ddpc.ControllerSpec(variant="causal_gamma", cost=cost, boxes=boxes)
    controller = ddpc.make_controller(spec, blocks=blocks)

    reference = ddpc.square_wave(period=60, amplitude=1.0, length=args.steps)
    rollout = ddpc.run_receding_horizon(
        PLANT, controller, reference, n_steps=args.steps,
        rng=ddpc.rng_for(0xC105E, 0))

    print(f"closed-loop cost J = {rollout.J:.4f} "
          f"(tracking {rollout.J_y:.4f} + input {rollout.J_u:.4f})")
    statuses = {s.qp_status.name for s in rollout.steps}
    iters = [s.qp_iterations for s in rollout.steps]
    print(f"QP statuses: {sorted(statuses)}, "
          f"iterations median {int(np.median(iters))} max {max(iters)}")
    u = rollout.trajectory.inputs
    print(f"input range: [{u.min():.3f}, {u.max():.3f}] within the ±3 box")

    ddpc.write_rollout_csv(rollout, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
