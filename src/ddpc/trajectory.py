"""Input/output trajectories and their Hankel-matrix views.

A trajectory is a finite record of an m-input, p-output system.  The
data-driven machinery in the rest of the package never sees state-space
matrices; everything is derived from Hankel matrices built here and from
their past/future partition.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DepthExceedsLength, DimensionMismatch, MalformedData
from .qp import _finite

__all__ = [
    "Trajectory",
    "HorizonSpec",
    "HankelPartition",
    "build_hankel",
    "partition",
    "stack_window",
    "read_trajectory_csv",
    "write_trajectory_csv",
]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An input/output record with channels along rows and time along columns.

    Attributes:
        inputs: Input samples, shape ``(m, N)``.
        outputs: Output samples, shape ``(p, N)``.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        u = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if u.ndim != 2 or y.ndim != 2:
            raise DimensionMismatch("inputs and outputs must be 2-d arrays")
        if u.shape[1] != y.shape[1]:
            raise DimensionMismatch(f"inputs have {u.shape[1]} samples but "
                                    f"outputs have {y.shape[1]}")
        if u.shape[1] == 0:
            raise DimensionMismatch("empty trajectory")
        if not (_finite(u.ravel("K")) and _finite(y.ravel("K"))):
            raise ValueError("trajectory contains non-finite samples")
        object.__setattr__(self, "inputs", u)
        object.__setattr__(self, "outputs", y)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def p(self) -> int:
        return self.outputs.shape[0]

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class HorizonSpec:
    """Past and future horizon lengths for the Hankel partition.

    The past horizon ``L_p`` plays the role of an estimation window: it must
    be at least the system lag for the past trajectory to pin down the
    initial state, and in practice it is chosen long enough that the
    observer dynamics have decayed over the window.  The future horizon
    ``L_f`` is the prediction/control horizon.
    """

    L_p: int
    L_f: int

    def __post_init__(self):
        if self.L_p < 1 or self.L_f < 1:
            raise ValueError(f"horizons must be >= 1, got ({self.L_p}, {self.L_f})")

    @property
    def L(self) -> int:
        return self.L_p + self.L_f


@dataclass(frozen=True, eq=False)
class HankelPartition:
    """Past/future Hankel blocks of one trajectory, held in one array.

    ``stack`` is ``[Z_p; U_f; Y_f]``, and ``Z_p`` (the past input block on
    top of the past output block), ``U_f`` and ``Y_f`` are row views of
    it, so each of its ``M`` columns is a joint past window followed by
    the future window after it.  The stack is C-ordered and read-only (a
    writable array is copied and the copy frozen), so a partition's data
    cannot change once it is built, and :func:`~ddpc.lq.factorize` can
    keep the partition's LQ factor on it and compute it once.

    Raises:
        DimensionMismatch: If ``stack`` is not 2-d with
            ``(m+p)(L_p+L_f)`` rows.
    """

    stack: np.ndarray
    m: int
    p: int
    spec: HorizonSpec
    # the LQ factor of the stack, set once by ddpc.lq.factorize
    _lq: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=float)
        rows = (self.m + self.p) * self.spec.L
        if stack.ndim != 2 or stack.shape[0] != rows:
            raise DimensionMismatch(
                f"stack has shape {stack.shape}, expected (m+p)(L_p+L_f) = "
                f"{rows} rows for m={self.m}, p={self.p}, "
                f"L_p={self.spec.L_p}, L_f={self.spec.L_f}")
        if stack.flags.writeable or not stack.flags.c_contiguous:
            stack = stack.copy()
            stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        # rebuilt from the stack: a pickled array comes back writable
        return HankelPartition, (self.stack, self.m, self.p, self.spec)

    @property
    def M(self) -> int:
        return self.stack.shape[1]

    @property
    def Z_p(self) -> np.ndarray:
        return self.stack[:(self.m + self.p) * self.spec.L_p]

    @property
    def U_f(self) -> np.ndarray:
        d1 = (self.m + self.p) * self.spec.L_p
        return self.stack[d1:d1 + self.m * self.spec.L_f]

    @property
    def Y_f(self) -> np.ndarray:
        return self.stack[len(self.stack) - self.p * self.spec.L_f:]


def build_hankel(signal: np.ndarray, depth: int) -> np.ndarray:
    """Build the block Hankel matrix of a multichannel signal.

    Column ``j`` stacks the window ``signal[:, j], ..., signal[:, j+depth-1]``
    so the result has shape ``(q * depth, N - depth + 1)`` for a ``(q, N)``
    signal.

    Args:
        signal: Samples, shape ``(q, N)`` (a 1-d array is treated as one
            channel).
        depth: Window length ``>= 1``.

    Raises:
        DepthExceedsLength: If ``depth > N``.
    """
    sig = np.atleast_2d(np.asarray(signal, dtype=float))
    q, n = sig.shape
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > n:
        raise DepthExceedsLength(
            f"depth {depth} exceeds signal length {n}"
        )
    cols = n - depth + 1
    out = np.empty((q * depth, cols))
    for i in range(depth):
        out[i * q:(i + 1) * q, :] = sig[:, i:i + cols]
    return out


def stack_window(window: np.ndarray) -> np.ndarray:
    """Flatten a ``(q, s)`` window into the column convention of build_hankel.

    The result is ``col(w(1), ..., w(s))``, i.e. channel-major within each
    time step and time-major across steps.
    """
    return np.asarray(window, dtype=float).T.ravel()


def partition(traj: Trajectory, spec: HorizonSpec) -> HankelPartition:
    """Split the trajectory's Hankel matrix into past and future blocks.

    The rows of ``[Z_p; U_f; Y_f]`` are written straight into one fresh
    array, which the partition holds read-only.

    Args:
        traj: The data record.
        spec: Past/future horizon lengths; ``spec.L`` must not exceed the
            record length.

    Returns:
        A :class:`HankelPartition` with ``M = N - L + 1`` columns per block.

    Raises:
        DepthExceedsLength: If ``spec.L`` exceeds the record length.
    """
    L, n = spec.L, traj.n_samples
    if L > n:
        raise DepthExceedsLength(f"depth {L} exceeds signal length {n}")
    cols = n - L + 1
    stack = np.empty(((traj.m + traj.p) * L, cols))
    row = 0
    # past inputs, past outputs, future inputs, future outputs: each the
    # rows of build_hankel over its steps
    for steps in (range(spec.L_p), range(spec.L_p, L)):
        for sig in (traj.inputs, traj.outputs):
            for i in steps:
                stack[row:row + len(sig)] = sig[:, i:i + cols]
                row += len(sig)
    stack.flags.writeable = False
    return HankelPartition(stack=stack, m=traj.m, p=traj.p, spec=spec)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the record as ``t,u1..um,y1..yp`` with one row per sample."""
    header = (["t"]
              + [f"u{i + 1}" for i in range(traj.m)]
              + [f"y{i + 1}" for i in range(traj.p)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(traj.n_samples):
            row = ([str(t + 1)]
                   + [repr(float(v)) for v in traj.inputs[:, t]]
                   + [repr(float(v)) for v in traj.outputs[:, t]])
            writer.writerow(row)


def read_trajectory_csv(path) -> Trajectory:
    """Read a ``t,u1..um,y1..yp`` file written by :func:`write_trajectory_csv`.

    Channel counts are inferred from the header; the ``t`` column is ignored
    apart from requiring the header to start with it.  A malformed row or
    a non-finite sample raises ``MalformedData`` (a ``ValueError``) naming
    ``path:line`` (and the sample's column).
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or header[0].strip() != "t":
            raise ValueError(f"{path}: header must start with 't'")
        u_cols = [i for i, name in enumerate(header) if name.strip().startswith("u")]
        y_cols = [i for i, name in enumerate(header) if name.strip().startswith("y")]
        if not u_cols or not y_cols:
            raise ValueError(f"{path}: header names no u*/y* channels")
        u_rows, y_rows = [], []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                u_vals = [float(row[i]) for i in u_cols]
                y_vals = [float(row[i]) for i in y_cols]
            except (ValueError, IndexError) as exc:
                raise MalformedData(f"{path}:{line}: bad row: {exc}") from None
            bad = [i for i, v in zip(u_cols + y_cols, u_vals + y_vals)
                   if not math.isfinite(v)]
            if bad:
                raise MalformedData(f"{path}:{line}: non-finite sample "
                                    f"{row[bad[0]].strip()!r} in column "
                                    f"{header[bad[0]].strip()!r}")
            u_rows.append(u_vals)
            y_rows.append(y_vals)
    return Trajectory(np.array(u_rows).T, np.array(y_rows).T)
