"""Lazy Poisson random measures on time x mark strips, and their splitting.

A :class:`PrmStream` realizes a unit-rate PRM cell by cell: each cell of
``_WIDTH`` time units by one mark unit draws from a counter-based RNG keyed
by (seed, cell), so any rectangle can be queried in any order, repeatedly,
with identical results.  ``split`` implements the two derived measures
that swap the two driving PRMs inside a predictable band.
"""

import bisect
import functools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import BandViolationError, ConfigError

_MASK64 = (1 << 64) - 1
_FOLDS = {}  # derive_key's fold of a first part; cleared when it holds 64
_time = itemgetter(0)
# time units per cell: one key fold, generator reset and pair of draws
# serve this many unit columns
_WIDTH = 8


def _mix64(x):
    # splitmix64 finalizer
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_part_mix = functools.lru_cache(maxsize=4096)(_mix64)  # derive_key's mix of a later part


def derive_key(*parts):
    """Fold integers into a 128-bit Philox key, order-sensitive.

    The fold of the first part and the mix of each later part are
    memoised: the cells of a stream share its base, columns and layers."""
    h0, h1 = 0x243F6A8885A308D3, 0x13198A2E03707344
    if parts:
        p = int(parts[0]) & _MASK64
        if p not in _FOLDS:
            if len(_FOLDS) >= 64:
                _FOLDS.clear()
            _FOLDS[p] = _mix64(h0 ^ p), _mix64(h1 ^ _mix64(p))
        h0, h1 = _FOLDS[p]
    for p in parts[1:]:
        p = int(p) & _MASK64
        h0 = _mix64(h0 ^ p)
        h1 = _mix64(h1 ^ _part_mix(p))
    return (h1 << 64) | h0


def spawn_rng(*parts):
    """Independent Generator deterministically derived from integer parts."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


# every stream draws its cells from this one generator, resetting it to the
# cell's key and a zero counter first; so streams are read by one thread
_BITGEN = np.random.Philox(key=0)
_GEN = np.random.Generator(_BITGEN)
_STATE = _BITGEN.state


class PrmStream:
    """Reproducible lazy PRM with Lebesgue mean measure on [0,inf)^2.

    Each cell [8k, 8k+8) x [m, m+1) draws its points from its own key: a
    Poisson(8) count of i.i.d. uniform points.  So any rectangle can be
    queried in any order, repeatedly, with identical results, and enlarging
    the mark bound never perturbs points already seen.  The (t, z) points
    are kept in one time-sorted list per column [8k, 8k+8), holding the
    cells of the mark layers m < ``layers`` read so far; a read with a
    higher mark bound materialises the missing cells of its columns and
    merges them in.  ``forget_before`` drops the columns that the caller
    will not read again.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._base = derive_key(self.seed, self.stream, 0xB1E55ED)
        self._cols = {}  # k -> (points of column k, their times, layers)
        self._first = 0  # reads that start before this time are refused

    def _grow(self, k, col, need):
        pairs, layers = (col[0], col[2]) if col else ([], 0)
        key = _STATE["state"]["key"]
        start = _WIDTH * k
        for m in range(layers, need):
            cell = derive_key(self._base, k, m)
            key[0], key[1] = cell & _MASK64, cell >> 64
            _BITGEN.state = _STATE
            n = int(_GEN.poisson(_WIDTH))
            if n:
                u = _GEN.random(2 * n).tolist()
                pairs += [(start + _WIDTH * t, m + z)
                          for t, z in zip(sorted(u[:n]), u[n:])]
        pairs.sort(key=_time)  # stable: cells of lower layers first on ties
        col = self._cols[k] = (pairs, [p[0] for p in pairs], need)
        return col

    def forget_before(self, t):
        """Refuse later reads that start before floor(t), and drop the
        columns that lie wholly before it."""
        first = int(math.floor(t))
        if first > self._first:
            self._first = first
            k = first // _WIDTH
            for j in [j for j in self._cols if j < k]:
                del self._cols[j]

    def sample(self, t0, t1, zmax):
        """All (t, z) points in (t0, t1] x [0, zmax], as a list sorted by time.

        ``zmax`` must be finite: callers supply a dominating mark bound.
        """
        if math.isinf(zmax):
            raise ConfigError("PRM queries need a finite mark bound zmax")
        if zmax <= 0 or t1 <= t0:
            return []
        if t0 < 0:
            raise ConfigError("PrmStream lives on t >= 0")
        if t0 < self._first:
            raise ConfigError(f"PRM read at t = {t0:g} behind forget_before"
                              f"({self._first})")
        k0, k1 = int(math.floor(t0 / _WIDTH)), int(math.ceil(t1 / _WIDTH))
        need = int(math.ceil(zmax))
        out = []
        for k in range(k0, k1):
            col = self._cols.get(k)
            pairs, ts, _ = (col if col and col[2] >= need else
                            self._grow(k, col, need))
            lo = bisect.bisect_right(ts, t0) if k == k0 else 0
            hi = bisect.bisect_right(ts, t1) if k == k1 - 1 else len(ts)
            out += [p for p in pairs[lo:hi] if p[1] <= zmax]
        return out


def in_band(lo, z, hi):
    """The band-membership rule of the whole construction: lo < z <= hi.

    It matches the thinning rule "z <= lambda is a jump", so a mark is
    below, inside or above a band, never two of them at once.
    """
    return lo < z <= hi


@dataclass
class SplitStreams:
    """The two derived measures of a band split, as time-sorted (t, z) lists.

    ``down`` keeps original marks; ``up`` holds marks shifted down by the
    lower band edge.
    """

    down: list
    up: list


def split(pi, pibar, band, window, zmax):
    """Split (pi, pibar) along the predictable band ``band(t) -> (lo, hi)``.

    Membership is decided pointwise at the sampled times by
    :func:`in_band`, with the band evaluated once per point.  ``down``
    holds the first measure with its in-band points replaced by the
    second's; ``up`` holds the first measure's in-band points at marks
    shifted down by lo.  Completing ``up`` above the band width with the
    remaining second-measure points would make it a full PRM, but only the
    in-band content is materialized: every count identity
    |pi| + |pibar in band| = |down| + |up| then holds pathwise.
    """
    down, up = [], []
    for s, z in pi.sample(*window, zmax):
        lo, hi = _edges(band, s)
        if in_band(lo, z, hi):
            up.append((s, z - lo))
        else:
            down.append((s, z))
    down += swapped_in(pibar, band, window, zmax)
    down.sort(key=_time)
    return SplitStreams(down=down, up=up)


def swapped_in(pibar, band, window, zmax):
    """The second measure's half of :func:`split`: the (t, z) points of
    ``pibar`` in ``window`` x [0, zmax] inside the band, sorted by time."""
    out = []
    for s, z in pibar.sample(*window, zmax):
        lo, hi = _edges(band, s)
        if in_band(lo, z, hi):
            out.append((s, z))
    return out


def _edges(band, s):
    """The band (lo, hi) at a sampled time s, refused when lo > hi."""
    lo, hi = band(s)
    if lo > hi:
        raise BandViolationError(f"band lo > hi at sampled time {s:g}")
    return lo, hi
