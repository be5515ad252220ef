"""Shared fixtures and builders for the test suite.

The helpers here construct the recurring ingredients of the tests:

* ``demo_model`` — the 2-state benchmark plant used throughout the
  closed-loop studies (unit direct feedthrough, slow dominant pole).
* ``random_model`` — randomized stable innovation-form systems with a
  stable observer, for property-style tests.
* ``noisy_dataset`` / ``make_blocks`` — open-loop data collection and
  its Hankel partition / triangular factorization; ``full_factor``
  reassembles the square factor ``L`` from the blocks.
"""

from __future__ import annotations

import os
import shutil
import tempfile

# One BLAS thread, as perfbench runs: the small dense factorizations of the
# suite run several times slower with more, and their timing then follows
# the load on the machine.  Set before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from ddpc import (
    HorizonSpec,
    StateSpaceModel,
    Trajectory,
    collect_open_loop,
    factorize,
    partition,
    random_steps,
    rng_for,
    square_wave,
)

A2 = np.array([[0.7326, -0.0861], [0.1722, 0.9909]])
B2 = np.array([[0.0609], [0.0064]])
C2 = np.array([[0.0, 1.4142]])
D2 = np.array([[1.0]])
K2 = np.array([[-0.3645], [0.9973]])


def demo_model(sigma_e: float = 0.3) -> StateSpaceModel:
    """The benchmark 2-state SISO plant with unit feedthrough."""
    return StateSpaceModel(A=A2, B=B2, C=C2, D=D2, K=K2, sigma_e=sigma_e)


def random_model(rng: np.random.Generator, n: int = 3, m: int = 1,
                 p: int = 1, sigma_e: float = 0.1,
                 radius: float = 0.7) -> StateSpaceModel:
    """Random stable innovation-form model with a stable observer.

    The state matrix is rescaled to the requested spectral radius and the
    innovation gain is shrunk until ``A - K C`` is strictly stable, so
    every generated model is a valid data-generating system.
    """
    A = rng.standard_normal((n, n))
    A *= radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = 0.5 * rng.standard_normal((p, m))
    K = 0.3 * rng.standard_normal((n, p))
    for _ in range(40):
        if np.abs(np.linalg.eigvals(A - K @ C)).max() < 0.95:
            break
        K *= 0.5
    return StateSpaceModel(A=A, B=B, C=C, D=D, K=K, sigma_e=sigma_e)


def noisy_dataset(model: StateSpaceModel, n_d: int,
                  rng: np.random.Generator,
                  kind: str = "steps") -> Trajectory:
    """Open-loop dataset under a persistently exciting input."""
    m = model.B.shape[1]
    if kind == "steps":
        u = random_steps(rng, amplitude=1.5, hold=5, length=n_d, m=m)
    elif kind == "white":
        u = rng.standard_normal((m, n_d))
    elif kind == "square":
        u = np.tile(square_wave(200, 3.0, n_d), (m, 1))
    else:
        raise ValueError(f"unknown excitation kind {kind!r}")
    return collect_open_loop(model, u, rng=rng)


def make_partition(model: StateSpaceModel, n_d: int, L_p: int, L_f: int,
                   rng: np.random.Generator, kind: str = "steps"):
    traj = noisy_dataset(model, n_d, rng, kind=kind)
    return partition(traj, HorizonSpec(L_p=L_p, L_f=L_f))


def make_blocks(model: StateSpaceModel, n_d: int, L_p: int, L_f: int,
                rng: np.random.Generator, kind: str = "steps"):
    return factorize(make_partition(model, n_d, L_p, L_f, rng, kind=kind))


def full_factor(blocks) -> np.ndarray:
    """The square lower-triangular factor ``L`` assembled from its blocks."""
    d1, d2, d3 = blocks.dim_past, blocks.dim_u, blocks.dim_y
    L = np.zeros((d1 + d2 + d3, d1 + d2 + d3))
    L[:d1, :d1] = blocks.L11
    L[d1:d1 + d2, :d1] = blocks.L21
    L[d1:d1 + d2, d1:d1 + d2] = blocks.L22
    L[d1 + d2:, :d1] = blocks.L31
    L[d1 + d2:, d1:d1 + d2] = blocks.L32
    L[d1 + d2:, d1 + d2:] = blocks.L33
    return L


def pytest_configure(config):
    """Point hypothesis's storage at a temporary directory of this run,
    removed at its end, unless the caller set one.  Hypothesis caches the
    constants it collects from the source there (``database=None`` does
    not stop that) when the tests are collected, by default under
    ``.hypothesis/`` of the working directory."""
    if "HYPOTHESIS_STORAGE_DIRECTORY" in os.environ:
        return
    path = tempfile.mkdtemp(prefix="hypothesis-")
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = path

    def cleanup():
        del os.environ["HYPOTHESIS_STORAGE_DIRECTORY"]
        shutil.rmtree(path, ignore_errors=True)

    config.add_cleanup(cleanup)


def seeded(tag: int, *extra: int) -> np.random.Generator:
    """Deterministic per-test RNG stream."""
    return rng_for(0x7E57, tag, *extra)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion after the run."""
    import sys

    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "_VERDICTS", None) if module else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, ok, detail in sorted(verdicts):
        mark = "PASS" if ok else "FAIL"
        tail = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"{num:2d}. {name:<52s} {mark}{tail}")
