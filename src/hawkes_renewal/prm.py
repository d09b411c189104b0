"""Lazy Poisson random measures on time x mark strips, and their splitting.

A :class:`PrmStream` realizes a unit-rate PRM cell by cell: each unit
time x mark cell gets its own counter-based RNG keyed by (seed, cell), so
any rectangle can be queried in any order, repeatedly, with identical
results.  ``split`` implements the two derived measures that swap the two
driving PRMs inside a predictable band.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BandViolationError, ConfigError

_MASK64 = (1 << 64) - 1


def _mix64(x):
    # splitmix64 finalizer
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(*parts):
    """Fold integers into a 128-bit Philox key, order-sensitive."""
    h0, h1 = 0x243F6A8885A308D3, 0x13198A2E03707344
    for p in parts:
        p = int(p) & _MASK64
        h0 = _mix64(h0 ^ p)
        h1 = _mix64(h1 ^ _mix64(p))
    return (h1 << 64) | h0


def spawn_rng(*parts):
    """Independent Generator deterministically derived from integer parts."""
    return np.random.Generator(np.random.Philox(key=derive_key(*parts)))


class PrmStream:
    """Reproducible lazy PRM with Lebesgue mean measure on [0,inf)^2.

    Points are materialized per unit cell [k, k+1) x [m, m+1) on demand and
    cached, so re-querying any rectangle returns identical points and
    enlarging the mark bound never perturbs points already seen.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._base = derive_key(self.seed, self.stream, 0xB1E55ED)
        self._bitgen = np.random.Philox(key=0)
        self._gen = np.random.Generator(self._bitgen)
        self._cells = {}

    def _cell(self, k, m):
        pts = self._cells.get((k, m))
        if pts is None:
            key = derive_key(self._base, k, m)
            self._bitgen.state = {
                "bit_generator": "Philox",
                "state": {
                    "counter": np.zeros(4, dtype=np.uint64),
                    "key": np.array([key & _MASK64, key >> 64], dtype=np.uint64),
                },
                "buffer": np.zeros(4, dtype=np.uint64),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
            n = int(self._gen.poisson(1.0))
            if n:
                ts = k + np.sort(self._gen.random(n))
                zs = m + self._gen.random(n)
                pts = np.column_stack([ts, zs])
            else:
                pts = np.empty((0, 2))
            self._cells[(k, m)] = pts
        return pts

    def sample(self, t0, t1, zmax):
        """All points in (t0, t1] x [0, zmax], sorted by time.

        ``zmax`` must be finite: callers supply a dominating mark bound.
        """
        if math.isinf(zmax):
            raise ConfigError("PRM queries need a finite mark bound zmax")
        if zmax <= 0 or t1 <= t0:
            return np.empty((0, 2))
        if t0 < 0:
            raise ConfigError("PrmStream lives on t >= 0")
        k0, k1 = int(math.floor(t0)), int(math.ceil(t1))
        layers = int(math.ceil(zmax))
        chunks = []
        for k in range(k0, k1):
            for m in range(layers):
                pts = self._cell(k, m)
                if len(pts):
                    chunks.append(pts)
        if not chunks:
            return np.empty((0, 2))
        allp = np.concatenate(chunks)
        keep = (allp[:, 0] > t0) & (allp[:, 0] <= t1) & (allp[:, 1] <= zmax)
        allp = allp[keep]
        return allp[np.argsort(allp[:, 0], kind="stable")]


def in_band(lo, z, hi):
    """The band-membership rule of the whole construction: lo < z <= hi.

    It matches the thinning rule "z <= lambda is a jump", so a mark is
    below, inside or above a band, never two of them at once.
    """
    return lo < z <= hi


@dataclass
class SplitStreams:
    """The two derived measures of a band split.

    ``down`` keeps original marks; ``up`` holds marks shifted down by the
    lower band edge.  ``band`` is the band callable used.
    """

    down: np.ndarray
    up: np.ndarray
    band: object


def _by_time(pts):
    if not pts:
        return np.empty((0, 2))
    out = np.array(pts)
    return out[np.argsort(out[:, 0], kind="stable")]


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
    t0, t1 = window
    down, up = [], []

    def edges(s):
        lo, hi = band(s)
        if lo > hi:
            raise BandViolationError(f"band lo > hi at sampled time {s:g}")
        return lo, hi

    for s, z in pi.sample(t0, t1, zmax).tolist():
        lo, hi = edges(s)
        if in_band(lo, z, hi):
            up.append((s, z - lo))
        else:
            down.append((s, z))
    for s, z in pibar.sample(t0, t1, zmax).tolist():
        lo, hi = edges(s)
        if in_band(lo, z, hi):
            down.append((s, z))
    return SplitStreams(down=_by_time(down), up=_by_time(up), band=band)
