"""Host-speed reference for the benchmark's timings.

On the 2-core VM the benchmark was written on, the same code runs up to
1.8x slower for stretches of seconds to minutes and then recovers (another
tenant's load is the likely cause; steal time stays near zero).  A run of
20 s can fall wholly in either state, so raw wall times from different runs
are not comparable.  The benchmark therefore also times a fixed reference
kernel, of the same kind of work as the workload, between operations, and
reports each timing at reference speed::

    scaled = wall time * REF / (mean of the kernel runs just before and after)

The kernels use only the standard library and numpy, never gbflab, so a
change to gbflab cannot move them; a change that slows gbflab still shows in
full.  REF is the kernel's time in the host's fast state, so scaled times
read like wall times on a quiet host.  Raw wall times are kept in the result
file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time

import numpy as np


def _python_kernel() -> float:
    # Interpreter-bound work with many small numpy calls, like the solver's
    # root scan and the scalar trial loop.
    xs = np.linspace(0.0, 1.0, 1025)
    acc = 0.0
    for rep in range(3):
        ys = np.cos(xs * (2.0 + rep)) * 0.5 - 0.1
        for i in range(1024):
            if (ys[i] < 0.0) != (ys[i + 1] < 0.0):
                acc += float(xs[i])
        for j in range(300):
            r = np.asarray(0.001 * j)
            a = np.abs(r)
            s = np.where(r >= 0.0, 1.0, -1.0)
            acc += float(s * a / (1.0 + a))
        x = 0.5
        for j in range(500):
            x = math.sqrt(x * x + 0.25 * j) / (1.0 + j)
        acc += x
    return acc


_RNG = np.random.Generator(np.random.Philox(key=np.array([12345, 0], dtype=np.uint64)))


def _numpy_kernel(size: int = 1_000_000) -> float:
    # Philox normals and elementwise arithmetic on arrays far beyond cache,
    # like a vectorized campaign step.
    a = _RNG.standard_normal(size)
    b = 0.3 * a + 0.2
    c = b - 0.1 * a
    return float(c.mean() + c.var())


def _mixed_kernel() -> float:
    # The sweep slows about half as much as the Python kernel when the host
    # slows (log-log slope 0.5 in a 100-s trace) and about as much as array
    # code, so its reference mixes both.  The arrays stay small so that the
    # kernel never sets the process's peak RSS.
    return _python_kernel() + sum(_numpy_kernel(10_000) for _ in range(20))


def _process_kernel() -> float:
    # Interpreter start and the numpy import, like a CLI process.
    subprocess.run([sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL, check=True)
    return 0.0


# kind -> (kernel, its time in seconds in the fast state, seconds between samples)
KERNELS = {
    "python": (_python_kernel, 0.0062, 0.25),
    "mixed": (_mixed_kernel, 0.0145, 0.25),
    "numpy": (_numpy_kernel, 0.031, 0.25),
    "process": (_process_kernel, 0.135, 0.0),
}


class SpeedReference:
    """Samples of one reference kernel over a run, and the scale factor they
    give at any moment."""

    def __init__(self, kind: str):
        self.kind = kind
        self.kernel, self.ref_s, self.every_s = KERNELS[kind]
        self.times: list[float] = []  # midpoints, ascending
        self.durations: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_sample(self) -> None:
        """Sample unless the last sample is more recent than the kind's interval."""
        if time.perf_counter() - self._last >= self.every_s:
            self.sample()

    def scale(self, t: float) -> float:
        """REF over the mean of the samples just before and just after time ``t``."""
        i = bisect.bisect_left(self.times, t)
        near = self.durations[max(0, i - 1):i + 1]
        return self.ref_s * len(near) / sum(near)

    def summary(self) -> dict:
        return {"kind": self.kind, "ref_s": self.ref_s, "samples": len(self.durations),
                "median_s": statistics.median(self.durations) if self.durations else None}
