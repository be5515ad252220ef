"""Plant simulators and data-collection loops.

The synthetic plants are innovation-form linear systems

    x(t+1) = A x(t) + B u(t) + K e(t)
    y(t)   = C x(t) + D u(t) + e(t)

with white Gaussian innovations, plus a static-nonlinearity wrapper that
distorts the state and input before they enter the linear update.  Noise
streams use a counter-based generator keyed by caller-chosen integers so
that Monte-Carlo runs are reproducible and independent.

The closed loops step the plant one sample at a time, since each input
depends on the outputs before it.  The open loop knows its whole input
record in advance, so ``collect_open_loop`` forms the input terms and the
outputs as whole-record products and runs only the state recursion per
sample, each step one ``np.dot`` of the column-ordered ``[A I I]`` with the
record's row ``[x(t), B u(t), K e(t)]``, written into the next row's state
slot.  That ``gemv`` adds the three terms in the order of the per-sample
step and, for ``n <= 2``, rounds ``A x`` as the per-sample product does.
A batched product equals the per-sample products bit for bit when its
inner dimension is 1 or all but one of its terms are zero; the bundled
plants (``n = 2``, one input, one output, ``c = [0 1.4142]``) meet both,
and other plants agree with a per-sample loop to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, Diverged
from .qp import _finite
from .trajectory import Trajectory

__all__ = [
    "StateSpaceModel",
    "NonlinearWrapper",
    "LinearFeedbackController",
    "step_lti",
    "step_nonlinear",
    "step_model",
    "square_wave",
    "sine_reference",
    "random_steps",
    "multisine",
    "collect_open_loop",
    "collect_closed_loop",
    "rng_for",
    "DIVERGENCE_LIMIT",
]

DIVERGENCE_LIMIT = 1e6


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic counter-based generator for a tuple of integer keys."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(keys)))


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Innovation-form linear system with noise gain ``K``.

    Attributes:
        A, B, C, D: State-space matrices with state dimension ``n``,
            ``m`` inputs and ``p`` outputs.
        K: Innovation gain, shape ``(n, p)``.
        sigma_e: Standard deviation of the white innovation sequence.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    K: np.ndarray
    sigma_e: float = 0.0

    def __post_init__(self):
        A, B, C, D, K = (np.atleast_2d(np.asarray(getattr(self, name),
                                                  dtype=float))
                         for name in "ABCDK")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatch(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatch(f"C has {C.shape[1]} cols, expected {n}")
        p, m = C.shape[0], B.shape[1]
        if D.shape != (p, m):
            raise DimensionMismatch(f"D has shape {D.shape}, expected {(p, m)}")
        if K.shape != (n, p):
            raise DimensionMismatch(f"K has shape {K.shape}, expected {(n, p)}")
        _check_sigma_e(self.sigma_e)
        for name, mat in zip("ABCDK", (A, B, C, D, K)):
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, mat)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class NonlinearWrapper:
    """Static distortion of state and input around a linear core.

    The state entering the update is ``(1-eps) x + 0.5 eps x**3`` and the
    input is ``(1-eps) u + eps (sin u + 2 u**3)``, elementwise.  The output
    equation uses the undistorted state and the distorted input.  At
    ``eps = 0`` the wrapper is exactly the base model.
    """

    base: StateSpaceModel
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"eps must be in [0, 1], got {self.eps}")

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def sigma_e(self) -> float:
        return self.base.sigma_e

    def state_map(self, x: np.ndarray) -> np.ndarray:
        return (1.0 - self.eps) * x + 0.5 * self.eps * x ** 3

    def input_map(self, u: np.ndarray) -> np.ndarray:
        return (1.0 - self.eps) * u + self.eps * (np.sin(u) + 2.0 * u ** 3)


def step_lti(model: StateSpaceModel, x: np.ndarray, u: np.ndarray,
             e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the innovation-form update; returns ``(x_next, y)``."""
    y = model.C @ x + model.D @ u + e
    x_next = model.A @ x + model.B @ u + model.K @ e
    return x_next, y


def step_nonlinear(wrapper: NonlinearWrapper, x: np.ndarray, u: np.ndarray,
                   e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the wrapped update; the output sees the raw state."""
    base = wrapper.base
    x_d = wrapper.state_map(x)
    u_d = wrapper.input_map(u)
    y = base.C @ x + base.D @ u_d + e
    x_next = base.A @ x_d + base.B @ u_d + base.K @ e
    return x_next, y


def step_model(plant, x, u, e):
    """Dispatch on the plant type."""
    if isinstance(plant, NonlinearWrapper):
        return step_nonlinear(plant, x, u, e)
    return step_lti(plant, x, u, e)


def square_wave(period: int, amplitude: float, length: int) -> np.ndarray:
    """Symmetric square wave: ``+amplitude`` for the first half period."""
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    t = np.arange(length)
    return np.where((t % period) < period / 2.0, amplitude, -amplitude)


def sine_reference(period: float, amplitude: float, length: int,
                   p: int = 1) -> np.ndarray:
    """Sinusoidal reference ``amplitude * sin(2 pi t / period)``, t = 1..length.

    Returned with shape ``(p, length)`` (same signal on every channel).
    """
    t = np.arange(1, length + 1)
    r = amplitude * np.sin(2.0 * np.pi * t / period)
    return np.tile(r, (p, 1))


def random_steps(rng: np.random.Generator, amplitude: float, hold: int,
                 length: int, m: int = 1) -> np.ndarray:
    """Piecewise-constant excitation with independent uniform levels.

    Every channel holds a level drawn from ``[-amplitude, amplitude]`` for
    ``hold`` steps before switching.  Richer than a plain square wave, so
    persistency of excitation holds with margin instead of exactly.
    """
    if hold < 1:
        raise ValueError(f"hold must be >= 1, got {hold}")
    n_segments = -(-length // hold)
    levels = rng.uniform(-amplitude, amplitude, size=(m, n_segments))
    return np.repeat(levels, hold, axis=1)[:, :length]


def multisine(amplitude: float, n_freqs: int, length: int,
              m: int = 1) -> np.ndarray:
    """Deterministic multisine normalized to peak ``amplitude``.

    Sums ``n_freqs`` equal-amplitude sinusoids spread uniformly over the
    whole frequency axis (odd grid ``pi * (2k - 1) / (2 n_freqs)``), with
    quadratic phase shifts to keep the crest factor low.  The wide
    spacing keeps Hankel matrices of window depth down to about
    ``2 * n_freqs`` rows well conditioned, unlike harmonics of the
    record length, which windows much shorter than the record cannot
    resolve.  Channels beyond the first get rotated phase patterns.
    """
    if n_freqs < 1:
        raise ValueError(f"n_freqs must be >= 1, got {n_freqs}")
    t = np.arange(length)
    signal = np.zeros((m, length))
    for ch in range(m):
        for k in range(1, n_freqs + 1):
            omega = np.pi * (2 * k - 1) / (2 * n_freqs)
            phase = -np.pi * k * (k - 1) / n_freqs + 2.0 * np.pi * ch / max(m, 1)
            signal[ch] += np.sin(omega * t + phase)
    peak = np.abs(signal).max()
    return signal * (amplitude / peak)


def _check_sigma_e(sigma_e: float) -> float:
    """``sigma_e``, or a ``ValueError`` that names it when it is not finite
    and >= 0 (a NaN deviation would otherwise surface as a divergence)."""
    if not 0.0 <= sigma_e < math.inf:
        raise ValueError(f"sigma_e must be finite and >= 0, got {sigma_e}")
    return sigma_e


def _innovations(plant, n_steps: int, rng: np.random.Generator | None,
                 sigma_e: float | None) -> np.ndarray:
    sigma = plant.sigma_e if sigma_e is None else _check_sigma_e(sigma_e)
    p = plant.p
    if sigma == 0.0 or rng is None:
        return np.zeros((p, n_steps))
    return sigma * rng.standard_normal((p, n_steps))


def _diverged(t: int) -> Diverged:
    return Diverged(f"output magnitude exceeded {DIVERGENCE_LIMIT:g} "
                    f"at step {t}")


def _check_sane(y: np.ndarray, t: int) -> None:
    """Raise ``Diverged`` at step ``t`` unless every entry of the 1-d ``y``
    is below the limit in magnitude; a NaN fails its comparison."""
    # one float comparison per output: on a rollout's short rows a numpy
    # reduction costs about four times as much
    if not all(abs(v) < DIVERGENCE_LIMIT for v in y.tolist()):
        raise _diverged(t)


def _check_finite(signal: np.ndarray, name: str) -> None:
    """Raise ``ValueError`` naming the channel and the first sample of the
    ``(channels, N)`` ``signal`` that is not finite, before any step runs:
    a NaN or inf there would otherwise be reported as a divergence."""
    if _finite(signal.ravel()):
        return
    bad = ~np.isfinite(signal)
    t = int(bad.any(axis=0).argmax())
    channel = int(bad[:, t].argmax())
    raise ValueError(f"{name} channel {channel} is not finite at sample {t} "
                     f"({signal[channel, t]})")


def collect_open_loop(plant, excitation: np.ndarray,
                      rng: np.random.Generator | None = None,
                      sigma_e: float | None = None) -> Trajectory:
    """Run the plant from rest under a recorded input and log the response.

    The record is one array whose row ``t`` is ``[x(t), B u(t), K e(t)]``,
    and only the state recursion runs per sample, as one product
    ``x(t+1) = [A I I] row(t)`` written in place into the next row's state
    slot by ``np.dot(step, row, out=...)``.  With ``step`` stored column by
    column, BLAS ``gemv`` adds its columns in turn, so the sum rounds as
    ``(A x(t) + B u(t)) + K e(t)`` in :func:`step_model`: each unit column
    adds its term as an in-place add would, each zero entry adds an exact
    zero, and with ``n <= 2`` the ``A x(t)`` part is one product plus at
    most one more, rounded as the row-ordered ``A @ x(t)`` rounds it (with
    ``[A I I]`` stored row by row, or ``n >= 3``, the sums group
    differently).  A wrapper writes ``state_map(x(t))`` into the row's
    state slot before the product and keeps the raw states for the
    outputs.  The input terms ``B u`` and ``K e`` (and a wrapper's
    ``input_map``) are computed once before the loop, and the outputs
    ``(C X + D u) + e`` once after it.  The record therefore equals the
    per-sample loop bit for bit when ``n <= 2`` and each batched product
    has inner dimension 1 or all but one of its terms zero, as for the
    bundled plants (``C = [0 1.4142]``); other plants agree with the loop
    to round-off.

    Args:
        plant: A :class:`StateSpaceModel` or :class:`NonlinearWrapper`.
        excitation: Input record, shape ``(m, N)`` (1-d allowed when m=1).
        rng: Innovation stream; omit for a noise-free run.
        sigma_e: Overrides the plant's innovation deviation when given.

    Raises:
        ValueError: On a ``sigma_e`` override that is not finite and >= 0,
            or on an excitation sample that is not finite; the message
            names its channel and first such sample.
        Diverged: If any output magnitude exceeds ``1e6``; the message
            names the first such step, as the per-sample loop would.
    """
    u = np.atleast_2d(np.asarray(excitation, dtype=float))
    if u.shape[0] != plant.m:
        raise DimensionMismatch(
            f"excitation has {u.shape[0]} channels, plant wants {plant.m}")
    _check_finite(u, "excitation")
    n_steps, n = u.shape[1], plant.n
    e = _innovations(plant, n_steps, rng, sigma_e)
    wrapped = isinstance(plant, NonlinearWrapper)
    base = plant.base if wrapped else plant
    u_in = plant.input_map(u) if wrapped else u
    # F order makes gemv add the product column by column (see above)
    step = np.asfortranarray(np.hstack([base.A, np.eye(n), np.eye(n)]))
    record = np.zeros((n_steps + 1, 3 * n))
    record[:n_steps, n:2 * n] = (base.B @ u_in).T
    record[:n_steps, 2 * n:] = (base.K @ e).T
    # a diverging record runs on to inf/nan; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if wrapped:
            x = np.zeros((n_steps + 1, n))      # the raw states
            for row, x_t, x_next in zip(record, x, x[1:]):
                row[:n] = plant.state_map(x_t)
                np.dot(step, row, out=x_next)
        else:
            # the loop's only call: a third iterator costs it about 10%
            x = record[:, :n]
            for row, x_next in zip(record, x[1:]):
                np.dot(step, row, out=x_next)
        y = (base.C @ x[:n_steps].T + base.D @ u_in) + e
        sane = np.abs(y) < DIVERGENCE_LIMIT
    if not sane.all():
        raise _diverged(int(np.argmin(sane.all(axis=0))))
    return Trajectory(u.copy(), y)


@dataclass(frozen=True, eq=False)
class LinearFeedbackController:
    """Linear dynamic output feedback acting on the tracking error.

    Implements ``x_c(t+1) = A_c x_c(t) + B_c err(t)``,
    ``u(t) = C_c x_c(t) + D_c err(t)`` where ``err`` is setpoint minus the
    most recent measured output.
    """

    A_c: np.ndarray
    B_c: np.ndarray
    C_c: np.ndarray
    D_c: np.ndarray

    def __post_init__(self):
        names = ("A_c", "B_c", "C_c", "D_c")
        A, B, C, D = (np.atleast_2d(np.asarray(getattr(self, name),
                                               dtype=float))
                      for name in names)
        nc = A.shape[0]
        if (A.shape != (nc, nc) or B.shape[0] != nc or C.shape[1] != nc
                or D.shape != (C.shape[0], B.shape[1])):
            raise DimensionMismatch("inconsistent feedback controller shapes")
        for name, mat in zip(names, (A, B, C, D)):
            object.__setattr__(self, name, mat)

    @property
    def n_states(self) -> int:
        return self.A_c.shape[0]


def collect_closed_loop(plant, feedback: LinearFeedbackController,
                        setpoints: np.ndarray,
                        rng: np.random.Generator | None = None,
                        sigma_e: float | None = None) -> Trajectory:
    """Log input/output data while a feedback controller tracks setpoints.

    The error uses the previous measured output (zero before the first
    step), which avoids an algebraic loop through a direct feedthrough.

    Raises:
        ValueError: On a ``sigma_e`` override that is not finite and >= 0,
            or on a setpoint that is not finite; the message names its
            channel and first such sample.
        Diverged: If any output magnitude exceeds ``1e6``, which a
            feedback input that is not finite makes its step's output do.
    """
    r = np.atleast_2d(np.asarray(setpoints, dtype=float))
    if r.shape[0] != plant.p:
        raise DimensionMismatch(
            f"setpoints have {r.shape[0]} channels, plant has {plant.p}")
    if feedback.B_c.shape[1] != plant.p or feedback.C_c.shape[0] != plant.m:
        raise DimensionMismatch(
            "feedback controller dimensions do not match the plant")
    _check_finite(r, "setpoints")
    n_steps = r.shape[1]
    e = _innovations(plant, n_steps, rng, sigma_e)
    x = np.zeros(plant.n)
    x_c = np.zeros(feedback.n_states)
    y_prev = np.zeros(plant.p)
    u_log = np.empty((plant.m, n_steps))
    y_log = np.empty((plant.p, n_steps))
    for t in range(n_steps):
        err = r[:, t] - y_prev
        u_t = feedback.C_c @ x_c + feedback.D_c @ err
        x, y_t = step_model(plant, x, u_t, e[:, t])
        _check_sane(y_t, t)
        x_c = feedback.A_c @ x_c + feedback.B_c @ err
        u_log[:, t] = u_t
        y_log[:, t] = y_t
        y_prev = y_t
    return Trajectory(u_log, y_log)
