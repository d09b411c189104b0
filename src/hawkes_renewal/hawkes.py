"""Simulation of ordinary, linear and age-dependent Hawkes processes.

Events are obtained by exact thinning of a lazy PRM: between events the
intensity is dominated by a bound built from the decreasing kernel
majorant, every PRM point below the bound is inspected, and a point (s, z)
becomes an event iff z <= intensity(s).  No discretization is involved.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DominationError
from .kernels import (ExpDecay, ExponentialKernel, PositivePartKernel,
                      TableKernel, shifted)
from .prm import in_band

_SLACK = 1e-9


@dataclass
class Path:
    """A simple point-process realization: sorted event times on (0, horizon]."""

    times: np.ndarray
    horizon: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        t = self.times.tolist()  # a few jumps: pairwise in Python beats np.diff
        if any(a >= b for a, b in zip(t, t[1:])):
            raise ValueError("event times must be strictly increasing")

    @property
    def n(self):
        return len(self.times)

    def count(self, a, b):
        """Number of events in (a, b]."""
        return int(np.searchsorted(self.times, b, side="right")
                   - np.searchsorted(self.times, a, side="right"))


@dataclass
class ZStart:
    """A process's state at its origin, each function read at the time w
    since the origin: the signal, a decreasing upper envelope of it (for
    domination), a decreasing envelope of its absolute value (for the
    envelope certificates; an :class:`ExpDecay` keeps those of an
    exponential kernel in closed form), and the age."""

    signal: object
    signal_upper: object
    signal_abs: object
    age0: float = 0.0

    @staticmethod
    def atom(env):
        """The regeneration state: age D, signal -f(w + D), upper envelope 0."""
        e = shifted(env.envelope(), env.D)
        if isinstance(e, ExpDecay):
            return ZStart(ExpDecay(-e.c, e.rate), ExpDecay(0.0, e.rate), e, env.D)
        return ZStart(lambda w: -e(w), lambda w: 0.0, e, env.D)

    @staticmethod
    def envelope(env):
        """The envelope start: signal and both envelopes f, age 0."""
        return ZStart(env.envelope(), env.envelope(), env.envelope())

    @staticmethod
    def empty(age0=0.0):
        """No past at all: zero signal."""
        zero = lambda w: 0.0
        return ZStart(zero, zero, ExpDecay(0.0, 0.0), age0)


class ProcessState:
    """One thinned process: its kernel, its rate, a start state and an origin.

    The process is silent up to ``origin`` and has age ``start.age0`` there
    (the empty start by default).  It reads ``start.signal`` and
    ``start.signal_upper`` in time since the origin; a bound asked before
    the origin reads the upper envelope at 0.

    Its jumps answer the kernel sums sum_j h(t - u_j) over jumps u_j < t
    (``value_at``) and sum_j hbar(t - u_j) over u_j <= t, which dominates
    any future value of the true sum (``majorant_sum``; ``majorant_from``
    is the left side of an envelope certificate).  An exponential majorant
    (an exponential kernel or its positive part) keeps the anchored sums
    S_k = sum_{j <= k} exp(-rate (u_k - u_j)) (O(1) extension, O(log n)
    random access, numerically stable); a table kernel sums floats over the
    jumps within its support, other kernels their history in one numpy call.

    An :class:`ExponentialKernel` with start signals :class:`ExpDecay` of
    its rate makes it Markov in X(u) = amp S(u) + signal and X-bar(u) =
    |amp| S(u) + max(upper, 0) at its last jump u (the origin before one):
    ``lambda_at`` past u and ``bound_from`` from u decay them with one exp,
    and earlier times read the jumps.
    """

    def __init__(self, kernel, rate, start=None, origin=0.0):
        self.kernel = kernel
        self.rate = rate
        self.start = start = start if start is not None else ZStart.empty()
        self.origin = float(origin)
        self.jumps = []
        self._S = []  # the anchored sums of an exponential majorant
        base = kernel.base if isinstance(kernel, PositivePartKernel) else kernel
        self._exp = base if isinstance(base, ExponentialKernel) else None
        self._amp = kernel.value(0.0) if self._exp else None  # a, or max(a, 0) for h_+
        self._reach = base.ts[-1] if isinstance(base, TableKernel) else None
        a = kernel.rate if kernel is self._exp else None
        self._carry = all(isinstance(g, ExpDecay) and g.rate == a
                          for g in (start.signal, start.signal_upper))
        if self._carry:
            self._u, self._x = self.origin, start.signal.c
            self._xbar = max(start.signal_upper.c, 0.0)

    def _weighted(self, t, idx, amp):
        """amp * sum_{j < idx} exp(-rate (t - u_j)) of an exponential majorant."""
        if idx == 0:
            return 0.0
        u = self.jumps[idx - 1]
        return amp * math.exp(-self._exp.rate * (t - u)) * self._S[idx - 1]

    def _sum(self, fn, t, idx):
        """sum fn(t - u) over the jumps u before index ``idx``: in floats over
        those a table's support reaches from t (bisected, with a margin for
        rounding), else in one numpy call over an unbounded history."""
        jumps = self.jumps
        if self._reach is None:
            return float(np.sum(fn(t - np.array(jumps[:idx])))) if idx else 0.0
        lo = bisect.bisect_left(jumps, t - self._reach - 1e-9 * (1.0 + abs(t)), 0, idx)
        return sum([fn(t - u) for u in jumps[lo:idx]], 0.0)

    def value_at(self, t, idx=None):
        """sum h(t - u) over jumps u < t, which number ``idx`` when given."""
        if idx is None:
            idx = bisect.bisect_left(self.jumps, t)
        if self._exp:
            return self._weighted(t, idx, self._amp)
        return self._sum(self.kernel.value, t, idx)

    def majorant_sum(self, t):
        """sum hbar(t - u) over jumps u <= t.

        Inclusive on the right so that a bound computed at a jump time
        still dominates the sum just after the jump; decreasing in t
        until the next jump is added.
        """
        idx = bisect.bisect_right(self.jumps, t)
        if self._exp:
            return self._weighted(t, idx, abs(self._exp.amplitude))
        return self._sum(self.kernel.majorant, t, idx)

    def majorant_from(self, base):
        """w -> sum hbar(base + w - u) over jumps u <= base, at a float w.

        An :class:`ExpDecay` of ``majorant_sum(base)`` for an exponential
        majorant, else a closure over the jumps up to base.
        """
        if self._exp:
            return ExpDecay(self.majorant_sum(base), self._exp.rate)
        idx = bisect.bisect_right(self.jumps, base)
        return lambda w: self._sum(self.kernel.majorant, base + w, idx)

    def lambda_at(self, t):
        if t <= self.origin:
            return 0.0
        w, jumps = t - self.origin, self.jumps
        if self._carry and t > self._u:
            i, x = len(jumps), self._x * math.exp(-self._exp.rate * (t - self._u))
        else:
            i = bisect.bisect_left(jumps, t)  # one search for the sum and the age
            x = self.value_at(t, i) + self.start.signal(w)
        age = t - jumps[i - 1] if i else self.start.age0 + w
        return self.rate.psi(x, age)

    def bound_from(self, t):
        """Dominating intensity bound valid on [t, next jump)."""
        if self._carry and t >= self._u and t >= self.origin:
            env = self._xbar * math.exp(-self._exp.rate * (t - self._u))
        else:
            upper = self.start.signal_upper(max(t - self.origin, 0.0))
            env = self.majorant_sum(t) + max(upper, 0.0)
        b = self.rate.c_psi + self.rate.L * max(env, 0.0)
        if not math.isfinite(b):
            raise DominationError("dominating bound is not finite", at_time=t)
        return b

    def add_jump(self, t):
        jumps, S = self.jumps, self._S
        if jumps and t <= jumps[-1]:
            raise ValueError("jumps must be added in strictly increasing order")
        if self._exp:
            S.append(1.0 + math.exp(-self._exp.rate * (t - jumps[-1])) * S[-1]
                     if jumps else 1.0)
        jumps.append(t)
        if self._carry:  # from S(t) and the start at t, never from the last state
            amp, w = self._exp.amplitude, t - self.origin
            self._u, self._x = t, amp * S[-1] + self.start.signal(w)
            self._xbar = abs(amp) * S[-1] + max(self.start.signal_upper(w), 0.0)


def simulate_adhp(pi, kernel, rate, start=None, origin=0.0, horizon=100.0):
    """Exact thinning simulation of an age-dependent Hawkes process.

    Parameters
    ----------
    pi : PrmStream
        Driving PRM.
    kernel, rate : weight function and rate specification.
    start, origin : the :class:`ZStart` of the process at ``origin``, up
        to which it is silent (a delay D is the empty start of age D at D).
    horizon : simulate on (0, horizon].

    Returns the realized :class:`Path`.  The thinning never reads behind
    its frontier, so ``pi`` forgets the columns before it as it goes
    (``PrmStream.forget_before``): memory stays bounded whatever the
    horizon, and afterwards ``pi`` answers only reads that start at or
    after the integer part of the last window start.
    """
    if not math.isfinite(horizon):
        raise DominationError("horizon must be finite")
    state = ProcessState(kernel, rate, start, origin)

    def read(t0, t1, zmax):
        pi.forget_before(t0)
        return pi.sample(t0, t1, zmax)

    thin([state], read, 0.0, horizon)
    return Path(np.array(state.jumps), horizon=horizon)


class _SwappedIn(tuple):
    """A (t, z) point of the second driver of :func:`thin`."""


def thin(tracks, read, t_from, t_to, band=None, watch=None, swap=None):
    """Drive ``tracks`` on (t_from, t_to] by windowed exact thinning.

    ``read(t0, t1, zmax)`` returns the driver's (t, z) points in (t0, t1] x
    [0, zmax], sorted by time.  Each unit window is read up to the largest
    ``bound_from`` of the tracks; a point (s, z) is a jump of every track
    with z <= lambda(s), and an intensity above its window bound raises
    :class:`DominationError`.

    ``band = (width, width_sup)`` puts the band (lam, lam + width(s)] on
    the last track, lam being its intensity; ``width_sup(t0, t1)`` bounds
    the width on a window and raises that track's bound.  Band points are
    skipped, as conditioned out of the driver.  ``watch(s, lams, width)``
    sees the intensities of every candidate of a band sweep.

    ``swap(t0, t1, zmax)`` returns a second driver's points, sorted by
    time, which drive the first track alone: each window reads them up to
    that track's own bound and merges them in by time.

    Returns (n, skipped): the candidates of ``read`` inspected and the band
    points skipped.
    """
    n = skipped = 0
    frontier = t_from
    while frontier < t_to - 1e-12:
        w_end = min(math.floor(frontier) + 1.0, t_to)
        if w_end <= frontier + 1e-12:
            w_end = min(frontier + 1.0, t_to)
        bounds = [tr.bound_from(frontier) for tr in tracks]
        if band is not None:
            bounds[-1] += band[1](frontier, w_end)
        bound = max(bounds) * (1.0 + _SLACK) + 1e-12
        limit = bound * (1.0 + _SLACK) + 1e-9
        points = read(frontier, w_end, bound)
        if swap is not None:
            own = bounds[0] * (1.0 + _SLACK) + 1e-12
            second = swap(frontier, w_end, own)
            if second:
                points = sorted(points + [_SwappedIn(p) for p in second],
                                key=lambda p: p[0])
        for p in points:
            s, z = p
            if type(p) is _SwappedIn:
                lams = [tracks[0].lambda_at(s)]  # so the jumps below stop there
                if lams[0] > own * (1.0 + _SLACK) + 1e-9:
                    raise DominationError("intensity exceeded its bound", at_time=s)
            else:
                n += 1
                lams = [tr.lambda_at(s) for tr in tracks]
                top = max(lams)
                if band is not None:
                    lam, width = lams[-1], band[0](s)
                    top = max(top, lam + width)
                    if watch is not None:
                        watch(s, lams, width)
                if top > limit:
                    raise DominationError("intensity exceeded its bound", at_time=s)
                if band is not None and in_band(lam, z, lam + width):
                    skipped += 1
                    continue
            jumped = False
            for tr, lam_tr in zip(tracks, lams):
                if z <= lam_tr:
                    tr.add_jump(s)
                    jumped = True
            if jumped:
                frontier = s
                break
        else:
            frontier = w_end
    return n, skipped


def path_to_csv(path, fh):
    """One event time per line, header ``t``, 12 significant digits."""
    fh.write("t\n")
    for t in path.times:
        fh.write(f"{t:.12g}\n")
