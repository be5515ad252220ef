"""Machine speed, sampled by timing a fixed kernel between pieces of work.

On a shared machine the speed of one core changes within seconds, by up to
a factor of two, as other tenants load it; CPU time changes with it.  A
:class:`SpeedProbe` times a small fixed kernel (the same mix of Python and
small dense linear algebra as an ADMM iteration, but none of the
program's code) between requests.  Work timed between two samples is
rescaled to a reference machine on which the kernel takes ``REF_S``, using
the mean of the two samples around it.  The program cannot change the
kernel, so a faster program still shows as faster.
"""

from __future__ import annotations

import bisect
import time
from contextlib import contextmanager

import numpy as np
import scipy.linalg

REF_S = 0.005
_N, _K, _ITERS = 60, 90, 150


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((_N, _N))
        self._factor = scipy.linalg.cho_factor(a @ a.T + _N * np.eye(_N))
        self._rows = rng.standard_normal((_K, _N))
        self._x0 = rng.standard_normal(_N)
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _kernel(self) -> None:
        x, z = self._x0, np.zeros(_K)
        for _ in range(_ITERS):
            x = scipy.linalg.cho_solve(self._factor, x - self._rows.T @ z)
            z = np.clip(self._rows @ x, -1.0, 1.0)

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def _segments(self, a: float, b: float):
        """(length, mean bracketing sample) of the sample-free parts of
        ``[a, b]``; needs a sample ending by ``a`` and one starting at or
        after ``b``."""
        lo = bisect.bisect_right(self.ends, a) - 1
        hi = bisect.bisect_left(self.starts, b)
        if lo < 0 or hi >= len(self.starts):
            raise ValueError("interval is not bracketed by speed samples")
        for k in range(lo, hi):
            yield (min(self.starts[k + 1], b) - max(self.ends[k], a),
                   0.5 * (self.ends[k] - self.starts[k]
                          + self.ends[k + 1] - self.starts[k + 1]))

    def calibrated(self, a: float, b: float) -> float:
        """Work time in ``[a, b]`` at reference speed, samples excluded."""
        return sum(seg * REF_S / mean for seg, mean in self._segments(a, b))

    def factor(self, a: float, b: float) -> float:
        """Reference time per second of work in ``[a, b]``."""
        work = sum(seg for seg, _ in self._segments(a, b))
        return self.calibrated(a, b) / work

    def median_ms(self) -> float:
        return 1e3 * float(np.median(np.subtract(self.ends, self.starts)))


@contextmanager
def sampling_before(module, fn_names: tuple[str, ...],
                    probe: SpeedProbe | None):
    """Take a speed sample before every call of ``module.<fn_name>``."""
    originals = {name: getattr(module, name) for name in fn_names}
    if probe is not None:
        for name, original in originals.items():
            setattr(module, name, _sampled(original, probe))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(module, name, original)


def _sampled(fn, probe: SpeedProbe):
    def sampled(*args, **kwargs):
        probe.sample()
        return fn(*args, **kwargs)
    return sampled
