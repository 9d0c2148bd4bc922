"""Reference clock: operation times in units of a fixed reference kernel.

On a shared virtual machine the speed of the whole machine drifts: the
same 5 ms call took 4.9 ms in some two-second windows and 9.0 ms in
others, with CPU time equal to wall time throughout. The drift is slow
(seconds) and slows small dense linear algebra and interpreter work
alike, so the ratio of an operation's time to the time of a fixed kernel
measured next to it stayed within a few percent while wall time moved by
tens of percent. The benchmark gates these ratios ("ref" units) and
prints wall-clock figures beside them.

The kernel uses numpy only and must never change: it is the unit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.1
CALLS_PER_SAMPLE = 5
# seconds per kernel call on a nominal machine, about what the VM that the
# bounds were set on gives: ref-scaled seconds = wall seconds * NOMINAL_S / kernel
NOMINAL_S = 4e-4


def _matrices() -> list[np.ndarray]:
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(16):
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out.append(z + z.conj().T)
    return out


class RefClock:
    """Samples the kernel at most every SAMPLE_EVERY_S seconds; each sample
    is the median of CALLS_PER_SAMPLE kernel calls."""

    def __init__(self):
        self.mats = _matrices()
        self.seconds = 0.0       # latest sample: seconds per kernel call
        self.taken_at = -1.0e9
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = 0.0
        for H in self.mats:
            w, v = np.linalg.eigh(H)
            acc += float(np.abs((v * np.exp(1j * w)) @ v.conj().T).sum())
        return acc

    def sample(self) -> float:
        """Time the kernel now: seconds per call, median of CALLS_PER_SAMPLE."""
        times = []
        for _ in range(CALLS_PER_SAMPLE):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        self.seconds = statistics.median(times)
        self.samples.append(self.seconds)
        self.taken_at = time.perf_counter()
        return self.seconds

    def tick(self) -> float:
        """The current seconds per kernel call, resampled when stale."""
        if time.perf_counter() - self.taken_at >= SAMPLE_EVERY_S:
            return self.sample()
        return self.seconds
