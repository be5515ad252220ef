#!/usr/bin/env python3
"""Numerical equivalences between the controller variants.

Three identities hold per step on the same data and the same QP:
  * the soft-constrained variant with a huge penalty reproduces the
    least-squares predictive controller, even with an active input box;
  * the causal soft-constrained variant reproduces the causal
    least-squares controller the same way;
  * optimizing in the latent coordinates or directly over the
    pre-image weights gives the same input plan for any penalty.
The script builds one noisy dataset and reports whether each per-step
gap is below a stated floor.
"""

import os

# numpy and scipy each bundle an OpenBLAS: pin both to one thread before
# either loads, so the printed round-off does not depend on the core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

import ddpc

PLANT = ddpc.StateSpaceModel(
    A=np.array([[0.7326, -0.0861], [0.1722, 0.9909]]),
    B=np.array([[0.0609], [0.0064]]),
    C=np.array([[0.0, 1.4142]]),
    D=np.array([[1.0]]),
    K=np.array([[-0.3645], [0.9973]]),
)
SPEC = ddpc.HorizonSpec(L_p=6, L_f=8)

# The gaps are round-off, 1e-17 to 1e-13 in inputs of size about 0.4, and
# move by orders of magnitude after any change that moves one plan by an
# ulp; the demo prints only whether each gap is below this floor, so its
# output stays the same under such changes and still shows a real gap.
GAP_FLOOR = 1e-9


def build(variant, blocks, part, mu=None, u_cap=0.4):
    cost = ddpc.CostSpec(q_step=np.eye(1), r_step=0.05 * np.eye(1),
                         L_f=SPEC.L_f)
    boxes = ddpc.BoxConstraints(
        u_lower=np.array([-u_cap]), u_upper=np.array([u_cap]),
        y_lower=np.array([-np.inf]), y_upper=np.array([np.inf]))
    spec = ddpc.ControllerSpec(variant=variant, cost=cost, boxes=boxes, mu=mu)
    return ddpc.make_controller(spec, blocks=blocks, part=part)


def below_floor(a, b):
    gap = float(np.max(np.abs(a.u_f - b.u_f)))
    return "yes" if gap < GAP_FLOOR else f"no ({gap:.2e})"


def main():
    rng = ddpc.rng_for(0xDE304)
    excitation = ddpc.random_steps(rng, amplitude=1.5, hold=4, length=300)
    traj = ddpc.collect_open_loop(PLANT, excitation, rng=rng, sigma_e=0.2)
    part = ddpc.partition(traj, SPEC)
    blocks = ddpc.factorize(part)

    # A past window taken from the tail of the collected data.
    z_p = np.concatenate([
        ddpc.stack_window(traj.inputs[:, -SPEC.L_p:]),
        ddpc.stack_window(traj.outputs[:, -SPEC.L_p:]),
    ])
    r_f = 2.0 * np.ones(SPEC.L_f)  # far target so the input box is active

    spc = build("spc", blocks, part).step(z_p, r_f)
    soft = build("gamma", blocks, part, mu=1e10).step(z_p, r_f)
    at_cap = np.isclose(np.abs(spc.u_f), 0.4, atol=1e-6).any()
    print(f"input box active at the optimum: {at_cap}")
    print(f"input plan gaps below {GAP_FLOOR:.0e}:")
    print(f"huge-penalty soft variant vs least-squares: "
          f"{below_floor(soft, spc)}")

    cspc = build("causal_spc", blocks, part).step(z_p, r_f)
    csoft = build("causal_gamma", blocks, part, mu=1e10).step(z_p, r_f)
    print(f"causal pair:                                "
          f"{below_floor(csoft, cspc)}")

    for mu in (0.1, 1.0, 10.0):
        lat = build("gamma", blocks, part, mu=mu).step(z_p, r_f)
        pre = build("projreg_g", blocks, part, mu=mu).step(z_p, r_f)
        print(f"latent vs pre-image weights at mu={mu:<4}: "
              f"{below_floor(lat, pre)}")


if __name__ == "__main__":
    main()
