"""Branching representation of linear Hawkes processes.

Total-progeny (Borel) law, recursive cluster simulation, and the certified
stationary-start times for both setups.  The backward-infinite stationary
field is truncated at a window whose neglected violation probability is
certified below 1e-12 by Chernoff/Markov tail bounds, the one deliberate
approximation in the construction.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson as _poisson

from .errors import ConfigError, SimulationCapError, SupercriticalError
from .kernels import ExponentialKernel, GammaSchedule, ceil_int
from .prm import spawn_rng
from .reprocess import step

_CERT_TOL = 1e-12


@dataclass
class BorelLaw:
    """Total progeny of a Poisson(m) branching process, m < 1.

    pmf(n) = n^{n-1} / (m n!) * exp(n (ln m - m)); the exponential-moment
    threshold is c_h = m - ln(m) - 1 > 0.
    """

    m: float

    def __post_init__(self):
        if not (0.0 < self.m):
            raise ConfigError("Borel law needs mean offspring m > 0")
        if self.m >= 1.0:
            raise SupercriticalError(f"mean offspring {self.m:g} >= 1")

    @property
    def c_h(self):
        return self.m - math.log(self.m) - 1.0

    def logpmf(self, n):
        if n < 1:
            return -math.inf
        return ((n - 1.0) * math.log(n) - math.log(self.m)
                - math.lgamma(n + 1.0) + n * (math.log(self.m) - self.m))

    def pmf(self, n):
        return math.exp(self.logpmf(n))

    def pmf_vector(self, n_max):
        return np.array([self.pmf(n) for n in range(1, n_max + 1)])

    def truncation_size(self, mass_tol=1e-9, cap=10**7):
        """Smallest N with remaining pmf mass <= mass_tol."""
        acc = 0.0
        n = 0
        while n < cap:
            n += 1
            acc += self.pmf(n)
            if 1.0 - acc <= mass_tol:
                return n
        raise SimulationCapError("Borel pmf truncation did not reach target mass")

    def _series(self, weight, cap=10**7):
        acc = 0.0
        prev = None
        n = 0
        while n < cap:
            n += 1
            term = weight(n) * self.pmf(n)
            acc += term
            if prev is not None and 0.0 <= term < prev and n > 16:
                r = term / prev if prev > 0 else 0.0
                if term * (1.0 + r / (1.0 - r)) < 1e-16 * max(acc, 1e-300):
                    return acc
            prev = term
        raise SimulationCapError("Borel series did not converge (argument too large?)")

    def moment(self, q):
        return self._series(lambda n: float(n) ** q)

    def mgf(self, c, cap=10**7):
        """E exp(c W); diverges for c > c_h."""
        if c > self.c_h:
            return math.inf
        return self._series(lambda n: math.exp(c * n), cap=cap)


@dataclass
class Cluster:
    """One simulated cluster: the root, all event times, size and extent."""

    root: float
    times: np.ndarray
    W: int
    Y: float


def simulate_cluster(kernel, L, rng, cap=10**7):
    """Grow one cluster: each event spawns Poisson(L*||h_+||) children with
    displacements drawn from h_+/||h_+||.  Y is the exact right extent."""
    m = L * kernel.pos_l1
    if m >= 1.0:
        raise SupercriticalError(f"mean offspring {m:g} >= 1")
    times = [0.0]
    queue = [0.0]
    while queue:
        parent = queue.pop()
        n = int(rng.poisson(m)) if m > 0 else 0
        if n:
            kids = parent + np.atleast_1d(kernel.sample_displacement(rng, n))
            times.extend(kids.tolist())
            queue.extend(kids.tolist())
            if len(times) > cap:
                raise SupercriticalError(
                    f"cluster exceeded {cap} events: supercritical suspicion")
    arr = np.sort(np.array(times))
    return Cluster(root=0.0, times=arr, W=len(arr), Y=float(arr[-1]))


# ---------------------------------------------------------------------------
# Stationary-start scans
# ---------------------------------------------------------------------------

def scan_units(update, window, cap):
    """RE recursion over unit indices 1, 2, ...; returns the first index past
    ``window`` at which the chain is zero, minus the window offset."""
    m = 0
    i = 0
    while i < cap:
        i += 1
        m = step(m, update(i))
        if m == 0 and i > window:
            return i - window
    raise SimulationCapError("stationary-start scan exceeded its cap",
                             diagnostics={"last_state": m})


def count_updates(sched, counts):
    """scan_units updates of the (AD) scans: ceil(gamma^{-1}(counts(i)))."""
    def update(i):
        u = sched.ceil_inverse(int(counts(i)))
        if u is None:
            raise ConfigError("unit count exceeded sup gamma: is the schedule "
                              "bounded?")
        return u
    return update


def _dyadic_sum(term, lo, small, n):
    """sum_j term(lo 2^j) over at most n terms, ended at the first term below
    half its predecessor and below ``small`` plus twice that term (the
    geometric remainder); None when no term within n ends it."""
    total, prev = 0.0, None
    for _ in range(n):
        t = term(lo)
        total += t
        if prev is not None and t < 0.5 * prev and t < small:
            return total + 2.0 * t
        prev = t
        lo *= 2
    return None


def _dyadic_tail(viol, tol, w_cap=32768):
    """Dyadic bound on sum_{k >= W} viol(k) for decreasing viol; returns the
    smallest tried window W meeting tol, or None."""
    W = 8
    while W <= w_cap:
        total = _dyadic_sum(lambda lo: lo * viol(lo), W, tol / 10.0, 200)
        if total is not None and total <= tol:
            return W
        W *= 2
    return None


def _f_scale(kernel, rate, sched):
    """The natural size of the envelope, f(0) with no start term."""
    from .kernels import EnvelopeFns
    return EnvelopeFns(kernel, rate, sched).f(0.0)


def _certified_window_ad(K, sched, kernel, rate, tol=_CERT_TOL):
    """Backward window for the age-dependent stationary scan.

    Prefer an exact-in-law window (the chance of any schedule violation
    before it is below tol); when the schedule grows too slowly for that,
    fall back to the neglected-mass criterion: counts before the window
    influence the envelope only through the kernel mass they carry, which
    is capped at 1e-10 of the envelope scale.
    """
    if K <= 0:
        return 4
    W = _dyadic_tail(lambda k: float(_poisson.sf(sched.value(k), K)), tol)
    if W is not None:
        return W
    target = 1e-10 * _f_scale(kernel, rate, sched)
    W = 8
    while W <= 2**26:
        if K * kernel.majorant_tail_l1(max(W - 1.0, 0.0)) <= target:
            return W
        W *= 2
    raise ConfigError(
        "cannot certify a finite backward window: gamma grows too slowly for K")


def alpha0_stationary_ad(rate, sched, kernel=None, seed=0, cap=10**6):
    """Stationary-start time for setup (AD).

    Scans the stationary refractory-bound Poisson counts against the
    schedule envelope.  The backward horizon is certified either exactly in
    law (violation probability below 1e-12) or, for slowly growing
    schedules, through the neglected-kernel-mass criterion; the second
    route is the one deliberate approximation of the construction.
    """
    K = rate.K
    if kernel is None:
        kernel = ExponentialKernel(1.0, 1.0)
    W = _certified_window_ad(K, sched, kernel, rate)
    rng = spawn_rng(seed, 0xAD)
    draw = lambda i: int(rng.poisson(K)) if K > 0 else 0
    return scan_units(count_updates(sched, draw), W, W + cap)


def _gamma_star(sched, c0):
    """gamma*(t) = gamma(t/c0 - 1)/c0 for t/c0 >= 1, else 0."""
    def fn(t):
        u = t / c0 - 1.0
        return sched.value(u) / c0 if u >= 0.0 else 0.0

    def inv(w):
        if w <= 0:
            return 0.0
        return max(c0, c0 * (1.0 + sched.inverse(c0 * w)))

    return GammaSchedule(fn, form="custom", inverse_fn=inv)


def _choose_c0(assumption, sched, p, c_h):
    if assumption == "B":
        return 2.0
    grid = np.geomspace(1e3, 1e9, 13)
    c0_max = min(sched.value(t) * c_h / ((p + 1.0) * math.log(t)) for t in grid)
    if c0_max < 1.05:
        raise ConfigError(
            f"gamma leaves no room for c0 > 1 (max {c0_max:.3f}): raise the schedule")
    return 1.05


class _OTailBounds:
    """Tail bounds for per-unit cluster size totals and extents.

    Sizes always admit a Chernoff bound through the Borel MGF (compound
    Poisson over roots); extents use a Chernoff bound when the displacement
    has an exponential moment, otherwise a Markov bound of order p+1.
    """

    def __init__(self, kernel, L, c_psi, p):
        self.c_psi = c_psi
        self.law = BorelLaw(L * kernel.pos_l1)
        c_h = self.law.c_h
        self._cs = [0.5 * c_h, 0.75 * c_h, 0.95 * c_h]
        self._B = {c: self.law.mgf(c) for c in self._cs}
        self.q = max(2, min(int(math.ceil(p)) + 1, 4))
        try:
            self._EXq = kernel.displacement_moment(self.q)
            self._EWq = self.law.moment(self.q)
        except Exception:
            self._EXq = None
            self._EWq = None
        self._theta = None
        self._BY = None
        target = math.exp(0.95 * c_h)
        if kernel.displacement_mgf(1e-9) < math.inf:
            lo, hi = 0.0, 1.0
            grown = 0
            while kernel.displacement_mgf(hi) <= target and grown < 60:
                hi *= 2.0
                grown += 1
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if kernel.displacement_mgf(mid) <= target:
                    lo = mid
                else:
                    hi = mid
            if lo > 0:
                self._theta = lo
                self._BY = self.law.mgf(math.log(kernel.displacement_mgf(lo)))
        if self._theta is None and self._EXq is None:
            raise ConfigError(
                "no usable extent tail bound: displacement needs an exponential "
                "moment or a finite (p+1)-th moment")

    def p_sizes_exceed(self, y):
        if y <= 0:
            return 1.0
        best = 1.0
        for c in self._cs:
            best = min(best, math.exp(self.c_psi * (self._B[c] - 1.0) - c * y))
        return best

    def p_one_extent_exceeds(self, y):
        """Tail bound for a single cluster's right extent."""
        if y <= 0:
            return 1.0
        best = 1.0
        if self._EXq is not None:
            best = min(best, self._EWq * self._EXq / y ** self.q)
        if self._theta and self._BY is not None and math.isfinite(self._BY):
            best = min(best, self._BY * math.exp(-self._theta * y))
        return best

    def p_extent_exceeds(self, y):
        if y <= 0:
            return 1.0
        return min(1.0, self.c_psi * self.p_one_extent_exceeds(y))

    def overhang_mass(self, x):
        """Bound on E[W 1{Y > x}] via Cauchy-Schwarz."""
        ew2 = self.law.moment(2.0)
        return math.sqrt(ew2 * self.p_one_extent_exceeds(x))


def alpha0_stationary_o(kernel, rate, sched, assumption="A", p=1.0, c0=None,
                        seed=0, cap=10**6, collect_events=False):
    """Stationary-start time for setup (O) via the cluster field.

    Uses the sufficient per-unit conditions on cluster size totals and
    extents (they imply the raw envelope inequality), with the certified
    backward truncation.  With ``collect_events`` the realized stationary
    event field up to the returned time is also reported, which lets a
    caller re-check the raw inequality a posteriori.
    """
    if assumption == "A" and p < 1.0:
        raise ConfigError("stationary ordinary-setup start needs p >= 1 under assumption A")
    bounds = _OTailBounds(kernel, rate.L, rate.c_psi, p)
    if c0 is None:
        c0 = _choose_c0(assumption, sched, p, bounds.law.c_h)
    gstar = _gamma_star(sched, c0)
    W = _dyadic_tail(
        lambda k: bounds.p_sizes_exceed(gstar.value(k + 1.0))
        + bounds.p_extent_exceeds((1.0 - 1.0 / c0) * (k + 1.0)),
        _CERT_TOL)
    if W is None:
        # neglected-mass fallback: clusters rooted before the window reach
        # the envelope only through damped kernel mass and rare overhangs
        target = 1e-10 * _f_scale(kernel, rate, sched)
        ew = bounds.law.moment(1.0)
        h0 = float(kernel.majorant(0.0))
        W = 8
        while W <= 2**22:
            part1 = 2.0 * rate.c_psi * ew * kernel.majorant_tail_l1(W / 2.0)
            over = _dyadic_sum(lambda lo: lo * bounds.overhang_mass(float(lo)),
                               max(W // 2, 1), target / 100.0, 120)
            if over is not None and part1 + 2.0 * rate.c_psi * h0 * over <= target:
                break
            W *= 2
        else:
            raise ConfigError(
                "cannot certify a backward window for the stationary ordinary setup")
    rng = spawn_rng(seed, 0x0)
    shrink = 1.0 / (1.0 - 1.0 / c0)

    units = {}
    events = [] if collect_events else None

    def unit(i):
        # unit i covers absolute time (i - W - 1, i - W]
        got = units.get(i)
        if got is None:
            n_roots = int(rng.poisson(rate.c_psi))
            tot, ext = 0, 0.0
            hi = float(i - W)
            for _ in range(n_roots):
                root = hi - rng.random()
                cl = simulate_cluster(kernel, rate.L, rng)
                tot += cl.W
                ext = max(ext, cl.Y)
                if events is not None:
                    events.append(root + cl.times)
            got = (tot, ext)
            units[i] = got
        return got

    def update(i):
        tot, ext = unit(i)
        u1 = gstar.ceil_inverse(tot)
        if u1 is None:
            raise ConfigError("cluster mass exceeded sup gamma*")
        u2 = max(0, ceil_int(shrink * ext))
        return max(u1, u2)

    alpha = scan_units(update, W, W + cap)
    if collect_events:
        ev = np.sort(np.concatenate(events)) if events else np.empty(0)
        return alpha, ev
    return alpha


def alpha0_stationary(cfg, seed=0, cap=10**6):
    """Certified stationary-start time for the configured setup."""
    if cfg.rate.setup == "AD":
        return alpha0_stationary_ad(cfg.rate, cfg.sched, kernel=cfg.kernel,
                                    seed=seed, cap=cap)
    return alpha0_stationary_o(cfg.kernel, cfg.rate, cfg.sched,
                               assumption=cfg.assumption, p=cfg.p, seed=seed, cap=cap)
