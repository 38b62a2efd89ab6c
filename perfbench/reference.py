"""A fixed reference kernel that tracks how fast the machine is running.

On a shared host the CPU speed this process gets changes by up to about 2x
over seconds to minutes (other tenants, not the program), and every op of
the program slows by the same factor.  ``reference()`` times a fixed mix of
the program's own kind of work -- small complex matrix products, a Hermitian
eigendecomposition and a JSON round trip of the eigenvectors, all through
the Python interpreter -- so its time follows the same factor.

The benchmark times the kernel between ops and reports every time scaled to
a machine on which the kernel takes ``NOMINAL_S``:

    scaled = measured * NOMINAL_S / (kernel time around the measurement)

The kernel does not touch ``specang``, so a change to the program moves the
scaled times as much as the measured ones, while the host's speed drifts
cancel.  Measured (wall-clock) times are printed and saved next to them.
"""

import json
import time

import numpy as np

NOMINAL_S = 0.010  # kernel time of the machine the scaled times refer to
ITERATIONS = 50  # about 10 ms on a 2-core Xeon VM
EVERY_S = 0.05  # time the kernel before an op once this long has passed

_RNG = np.random.default_rng(20260417)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))


def reference() -> float:
    """Run the kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(ITERATIONS):
        h = _A @ _A.conj().T
        w, v = np.linalg.eigh(h)
        acc += float(w[0])
        text = json.dumps([[float(z.real), float(z.imag)] for z in v.ravel()])
        acc += len(json.loads(text))
    seconds = time.perf_counter() - t0
    if not acc > 0.0:  # consume the result; h is positive definite
        raise RuntimeError("reference kernel gave a wrong result")
    return seconds


def settled_reference() -> float:
    """Median of three kernel times after one discarded warm-up call."""
    reference()
    return sorted(reference() for _ in range(3))[1]


class Clock:
    """Kernel times taken between ops, and the scale factor of each op.

    ``before_op()`` times the kernel when ``EVERY_S`` has passed since the
    last time it did (so short ops share one kernel time), and returns the
    index of the latest kernel time; ``finish()`` times it once more after
    the last op.  The factor of an op is ``NOMINAL_S`` over the mean of the
    kernel times just before and just after it.
    """

    def __init__(self):
        self.times = []
        self._last = -float("inf")

    def before_op(self) -> int:
        now = time.perf_counter()
        if now - self._last >= EVERY_S:
            self.times.append(reference())
            self._last = time.perf_counter()
        return len(self.times) - 1

    def finish(self):
        self.times.append(reference())

    def factor(self, index: int) -> float:
        around = self.times[index] + self.times[index + 1]
        return NOMINAL_S / (0.5 * around)
