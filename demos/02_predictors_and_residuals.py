#!/usr/bin/env python3
"""Fit the unstructured and the causal multi-step predictors on noisy data.

Both predictors map a past window z_p and a future input plan u_f to a
predicted output trajectory y_f.  The causal fit constrains the input-to-
output map to be block lower triangular so future inputs cannot influence
earlier outputs.  The script compares their in-sample residuals and their
accuracy against the true noise-free response of the plant.
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
SPEC = ddpc.HorizonSpec(L_p=8, L_f=10)


def true_response(z_p_traj, u_f):
    """Noise-free continuation of the plant after replaying a past window."""
    x = np.zeros(PLANT.A.shape[0])
    e = np.zeros(PLANT.C.shape[0])
    for t in range(z_p_traj.inputs.shape[1]):
        x, _ = ddpc.step_model(PLANT, x, z_p_traj.inputs[:, t], e)
    out = []
    for t in range(u_f.shape[1]):
        x, y = ddpc.step_model(PLANT, x, u_f[:, t], e)
        out.append(y)
    return np.concatenate(out)


def main():
    rng = ddpc.rng_for(0xDE302)
    excitation = ddpc.random_steps(rng, amplitude=1.5, hold=4, length=500)
    traj = ddpc.collect_open_loop(PLANT, excitation, rng=rng, sigma_e=0.15)
    part = ddpc.partition(traj, SPEC)
    blocks = ddpc.factorize(part)

    pred_spc = ddpc.fit_spc(part)
    pred_causal = ddpc.fit_causal(blocks)

    res_spc = ddpc.fit_residual(part, pred_spc)
    res_causal = ddpc.fit_residual(part, pred_causal)
    print(f"in-sample residual, unstructured: {res_spc:.6f}")
    print(f"in-sample residual, causal:       {res_causal:.6f}")
    print("(the unstructured fit can only be tighter in sample)")

    mask = ddpc.causal_block_mask(pred_causal.m, pred_causal.p, SPEC.L_f)
    leak = np.linalg.norm(pred_causal.K_f[~mask])
    print(f"anticausal entries of causal K_f: {leak:.2e}")

    # Held-out evaluation: replay a fresh past window, then compare each
    # predictor's multi-step forecast with the plant's noise-free response.
    rng_eval = ddpc.rng_for(0xE7A1)
    past_u = ddpc.random_steps(rng_eval, amplitude=1.0, hold=3, length=SPEC.L_p)
    past = ddpc.collect_open_loop(PLANT, past_u)
    z_p = np.concatenate([ddpc.stack_window(past.inputs),
                          ddpc.stack_window(past.outputs)])
    u_f = ddpc.multisine(amplitude=0.8, n_freqs=3, length=SPEC.L_f)
    y_true = true_response(past, u_f)

    for name, pred in (("unstructured", pred_spc), ("causal", pred_causal)):
        y_hat = pred.K_p @ z_p + pred.K_f @ ddpc.stack_window(u_f)
        err = np.linalg.norm(y_hat - y_true) / np.linalg.norm(y_true)
        print(f"held-out relative error, {name}: {err:.4f}")


if __name__ == "__main__":
    main()
