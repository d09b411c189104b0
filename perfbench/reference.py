"""A fixed reference computation that measures the host's current speed.

The cores this benchmark runs on are shared: for spans of a fraction of a
second to a minute they run the same code up to about 1.5 times slower than
at other times.  A run-length median cannot remove that, so the benchmark
times this fixed computation between solutions and scales each solution's
times to the speed the reference had when it was recorded (REFERENCE_S).

The computation never calls the library, so a change to the library leaves
it unchanged; it mixes the same kinds of work the library does: a Python
thinning loop with scalar arithmetic, a fresh seeded generator per unit cell
of a Poisson random measure, and small-array numpy reductions.  Its result
is fixed, which the benchmark checks.
"""

import math
import time

import numpy as np

# seconds one pass took on an uncontended core of the reference host
# (Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4); scaled times are in these
REFERENCE_S = 0.018

CELLS = 200
EVENTS = 3000
GRID = 64


def _cells(seed):
    """Points of a unit-rate Poisson measure on CELLS unit cells x [0, 2]."""
    chunks = []
    for k in range(CELLS):
        for m in range(2):
            rng = np.random.default_rng((seed, k, m))
            n = rng.poisson(1.0)
            pts = np.empty((n, 2))
            pts[:, 0] = k + rng.random(n)
            pts[:, 1] = m + rng.random(n)
            chunks.append(pts)
    allp = np.concatenate(chunks)
    keep = (allp[:, 0] > 0.5) & (allp[:, 1] <= 1.5)
    allp = allp[keep]
    return allp[np.argsort(allp[:, 0], kind="stable")]


def _thinning(seed):
    """Ogata thinning of an exponential-kernel Hawkes process."""
    rng = np.random.default_rng(seed)
    mu, alpha, beta = 0.5, 0.8, 1.2
    t = excite = 0.0
    times = []
    while len(times) < EVENTS:
        bound = mu + excite
        w = -math.log(1.0 - rng.random()) / bound
        excite *= math.exp(-beta * w)
        t += w
        if rng.random() * bound <= mu + excite:
            excite += alpha
            times.append(t)
    return np.asarray(times)


def _quadrature(times):
    """Trapezoid integrals of the compensator over windows of the events."""
    grid = np.linspace(0.0, 1.0, GRID)
    total = 0.0
    for i in range(0, len(times) - 8, 8):
        lags = times[i + 8] - times[i:i + 8]
        vals = np.exp(-np.outer(grid, lags)).sum(axis=1)
        total += float(np.trapezoid(vals, grid))
    return total


def reference_pass():
    """One pass of the fixed computation; returns its (fixed) result."""
    pts = _cells(7)
    times = _thinning(11)
    return (len(pts), round(float(pts[:, 1].sum()), 9), round(float(times[-1]), 9),
            round(_quadrature(times), 9))


def timed_pass():
    """(seconds, result) of one reference pass."""
    t0 = time.perf_counter()
    result = reference_pass()
    return time.perf_counter() - t0, result


class SpeedScale:
    """Times a reference pass before and after each measured step."""

    def __init__(self):
        self.ref_s, self.result = timed_pass()
        self.steady = True  # every pass gave the first pass's result

    def step(self, fn, *args):
        """``(fn(*args), factor)``; the step's times multiplied by ``factor``
        are times at the reference speed."""
        out = fn(*args)
        next_s, result = timed_pass()
        self.steady &= result == self.result
        factor = REFERENCE_S / (0.5 * (self.ref_s + next_s))
        self.ref_s = next_s
        return out, factor
