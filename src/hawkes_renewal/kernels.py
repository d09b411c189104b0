"""Weight kernels, rate specifications, schedules and envelope functions.

The deterministic ingredients of the renewal construction: the weight
function ``h`` with its decreasing majorant, the rate function ``psi`` with
its Lipschitz/sublinearity constants, the increasing schedule ``gamma``
with its generalized inverse, and the envelope pair ``f``/``F`` whose
integrals drive every regeneration probability downstream.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError, IntegrabilityError
from .quadrature import integrate, integrate_to_inf

INF = math.inf


def ceil_int(x, tol=1e-9):
    """Integer ceiling with a snap tolerance against float noise."""
    return int(math.ceil(x - tol))


# ---------------------------------------------------------------------------
# Weight kernels
# ---------------------------------------------------------------------------

class Kernel:
    """Base weight function h on [0, inf), possibly signed.

    ``majorant`` is the decreasing function t -> sup_{s>=t} |h(s)|; every
    subclass guarantees majorant(t) >= |value(t)| and monotone decay, which
    is what keeps the envelope inequalities conservative.
    """

    def value(self, t):
        raise NotImplementedError

    def majorant(self, t):
        raise NotImplementedError

    @property
    def pos_l1(self):
        """Integral of the positive part h_+ over [0, inf)."""
        raise NotImplementedError

    @property
    def majorant_l1(self):
        raise NotImplementedError

    def sample_displacement(self, rng, size=None):
        """Draw from the normalized positive part h_+ / ||h_+||."""
        raise NotImplementedError


class ExponentialKernel(Kernel):
    """h(t) = amplitude * exp(-rate * t)."""

    def __init__(self, rate, amplitude):
        if rate <= 0:
            raise ConfigError("exponential kernel needs rate > 0")
        self.rate = float(rate)
        self.amplitude = float(amplitude)

    # a float skips np.asarray: np.exp of a float gives the array path's
    # bits (math.exp does not), at a sixth of the cost
    def value(self, t):
        if isinstance(t, float):
            return self.amplitude * np.exp(-self.rate * t)
        return self.amplitude * np.exp(-self.rate * np.asarray(t, dtype=float))

    def majorant(self, t):
        if isinstance(t, float):
            return abs(self.amplitude) * np.exp(-self.rate * t)
        return abs(self.amplitude) * np.exp(-self.rate * np.asarray(t, dtype=float))

    @property
    def pos_l1(self):
        return max(self.amplitude, 0.0) / self.rate

    @property
    def majorant_l1(self):
        return abs(self.amplitude) / self.rate

    def sample_displacement(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def __repr__(self):
        return f"ExponentialKernel(rate={self.rate}, amplitude={self.amplitude})"


class PowerLawKernel(Kernel):
    """h(t) = amplitude * (1 + t)^(-exponent)."""

    def __init__(self, amplitude, exponent):
        if exponent <= 1:
            raise ConfigError("power-law kernel needs exponent > 1 for integrability")
        self.amplitude = float(amplitude)
        self.exponent = float(exponent)

    def value(self, t):
        return self.amplitude * (1.0 + np.asarray(t, dtype=float)) ** (-self.exponent)

    def majorant(self, t):
        return abs(self.amplitude) * (1.0 + np.asarray(t, dtype=float)) ** (-self.exponent)

    @property
    def pos_l1(self):
        return max(self.amplitude, 0.0) / (self.exponent - 1.0)

    @property
    def majorant_l1(self):
        return abs(self.amplitude) / (self.exponent - 1.0)

    def sample_displacement(self, rng, size=None):
        u = rng.random(size)
        return (1.0 - u) ** (-1.0 / (self.exponent - 1.0)) - 1.0

    def __repr__(self):
        return f"PowerLawKernel(amplitude={self.amplitude}, exponent={self.exponent})"


class TableKernel(Kernel):
    """Piecewise-linear h from (time, value) knots; zero beyond the last knot.

    The majorant is a right-to-left running maximum over the knot grid,
    held constant on each inter-knot interval at the larger endpoint, so it
    is conservative for non-monotone tables.
    """

    def __init__(self, knots):
        knots = sorted((float(t), float(v)) for t, v in knots)
        if not knots or knots[0][0] != 0.0:
            raise ConfigError("table kernel needs a knot at t=0")
        ts = np.array([k[0] for k in knots])
        if np.any(np.diff(ts) <= 0):
            raise ConfigError("table kernel knots must have strictly increasing times")
        self.ts = ts
        self.vs = np.array([k[1] for k in knots])
        absv = np.abs(self.vs)
        run = np.maximum.accumulate(absv[::-1])[::-1]
        # step value on [t_k, t_{k+1}) is max of the running maxima at both ends
        self._maj_steps = np.maximum(run, np.append(run[1:], 0.0))

    def value(self, t):
        return np.interp(np.asarray(t, dtype=float), self.ts, self.vs, right=0.0)

    def majorant(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.ts, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.ts) - 1)
        out = self._maj_steps[idx]
        return np.where(t >= self.ts[-1], 0.0, out)

    @property
    def support_end(self):
        return float(self.ts[-1])

    def _pos_segments(self):
        """Exact integral of h_+ per segment, splitting at zero crossings."""
        segs = []
        for (t0, v0), (t1, v1) in zip(zip(self.ts[:-1], self.vs[:-1]),
                                      zip(self.ts[1:], self.vs[1:])):
            if v0 >= 0 and v1 >= 0:
                segs.append((t0, t1, 0.5 * (v0 + v1) * (t1 - t0)))
            elif v0 <= 0 and v1 <= 0:
                segs.append((t0, t1, 0.0))
            else:
                tc = t0 + (t1 - t0) * v0 / (v0 - v1)
                if v0 > 0:
                    segs.append((t0, t1, 0.5 * v0 * (tc - t0)))
                else:
                    segs.append((t0, t1, 0.5 * v1 * (t1 - tc)))
        return segs

    @property
    def pos_l1(self):
        return sum(a for _, _, a in self._pos_segments())

    @property
    def majorant_l1(self):
        return float(np.sum(self._maj_steps[:-1] * np.diff(self.ts)))

    def sample_displacement(self, rng, size=None):
        segs = self._pos_segments()
        areas = np.array([a for _, _, a in segs])
        total = areas.sum()
        if total <= 0:
            raise ConfigError("table kernel has no positive mass to sample from")
        scalar = size is None
        n = 1 if scalar else int(size)
        picks = rng.choice(len(segs), size=n, p=areas / total)
        out = np.empty(n)
        for i, s in enumerate(picks):
            t0, t1, _ = segs[s]
            v0 = max(float(self.value(t0)), 0.0)
            v1 = max(float(self.value(t1)), 0.0)
            u = rng.random()
            if abs(v1 - v0) < 1e-14 * (abs(v0) + abs(v1) + 1e-300):
                out[i] = t0 + u * (t1 - t0)
            else:
                # inverse CDF of a linear density on [t0, t1]
                a = 0.5 * (v1 - v0) / (t1 - t0)
                c = -u * (0.5 * (v0 + v1) * (t1 - t0))
                disc = v0 * v0 - 4.0 * a * c
                out[i] = t0 + (-v0 + math.sqrt(max(disc, 0.0))) / (2.0 * a)
        return out[0] if scalar else out

    def __repr__(self):
        return f"TableKernel({len(self.ts)} knots, support=[0,{self.ts[-1]}])"


class ZeroKernel(ExponentialKernel):
    """Convenience h identically zero."""

    def __init__(self):
        super().__init__(rate=1.0, amplitude=0.0)


class PositivePartKernel(Kernel):
    """The positive part h_+ of a signed kernel, sharing its majorant."""

    def __init__(self, base):
        self.base = base

    def value(self, t):
        return np.clip(self.base.value(t), 0.0, None)

    def majorant(self, t):
        return self.base.majorant(t)

    @property
    def pos_l1(self):
        return self.base.pos_l1

    @property
    def majorant_l1(self):
        return self.base.majorant_l1

    def sample_displacement(self, rng, size=None):
        return self.base.sample_displacement(rng, size)


def pos_part(kernel):
    """The kernel h_+; returns the kernel itself when already nonnegative."""
    if isinstance(kernel, (ExponentialKernel, PowerLawKernel)):
        return kernel if kernel.amplitude >= 0 else PositivePartKernel(kernel)
    if isinstance(kernel, TableKernel):
        return kernel if np.all(kernel.vs >= 0) else PositivePartKernel(kernel)
    return PositivePartKernel(kernel)


def check_subcritical(kernel, L):
    """Setup (O) admissibility: L * ||h_+|| < 1."""
    m = L * kernel.pos_l1
    if m >= 1.0:
        raise ConfigError(f"L*||h_+|| = {m:g} >= 1: not subcritical for an ordinary Hawkes setup")
    return m


def borel_c_h(m):
    """c_h = m - ln(m) - 1, the exponential-moment threshold of the Borel(m)
    cluster size, for a mean offspring 0 < m < 1."""
    return m - math.log(m) - 1.0


# ---------------------------------------------------------------------------
# Rate specifications
# ---------------------------------------------------------------------------

@dataclass
class RateSpec:
    """Rate function psi(x, age) with its structural constants.

    ``psi`` must be increasing in both arguments and satisfy
    psi(y, b) <= c_psi + L*max(y, 0); these are spot-checked on a grid by
    :meth:`validate` rather than proved.
    """

    psi: object
    L: float
    c_psi: float
    g: object
    delta: float = INF
    K: float | None = None
    setup: str = "O"
    g_breaks: tuple = ()
    name: str = "custom"

    @staticmethod
    def linear(c, L):
        """psi(x) = c + L*x_+, age-independent (ordinary Hawkes)."""
        return RateSpec(
            psi=lambda x, a: c + L * max(x, 0.0),
            L=L, c_psi=c, g=lambda t: 0.0, delta=INF, K=None,
            setup="O", name="linear",
        )

    @staticmethod
    def refractory_linear(c, L, delta):
        """psi(x, a) = c + L*x_+ * 1{a > delta}: excitation gated by age."""
        return RateSpec(
            psi=lambda x, a: c + (L * max(x, 0.0) if a > delta else 0.0),
            L=L, c_psi=c, g=lambda t: 1.0 if t <= delta else 0.0,
            delta=delta, K=c, setup="AD", g_breaks=(delta,),
            name="refractory_linear",
        )

    @staticmethod
    def hard_refractory(c, delta, L=1.0):
        """psi(x, a) = c * 1{a > delta}: total silence for ages <= delta."""
        return RateSpec(
            psi=lambda x, a: c if a > delta else 0.0,
            L=L, c_psi=c, g=lambda t: 1.0 if t <= delta else 0.0,
            delta=delta, K=0.0, setup="AD", g_breaks=(delta,),
            name="hard_refractory",
        )

    def validate(self):
        """Grid spot-checks of the structural assumptions; returns problems."""
        problems = []
        xs = np.linspace(-5.0, 10.0, 13)
        delta_cap = 4.0 if not math.isfinite(self.delta) else max(4.0, 3.0 * self.delta)
        ages = np.linspace(0.0, delta_cap, 17)
        for x in xs:
            for a in ages:
                v = self.psi(float(x), float(a))
                if v < 0:
                    problems.append(f"psi({x:g},{a:g}) < 0")
                if v > self.c_psi + self.L * max(x, 0.0) + 1e-9:
                    problems.append(f"sublinearity fails at ({x:g},{a:g})")
        for lo, hi in [(xs[i], xs[i + 1]) for i in range(len(xs) - 1)]:
            if self.psi(float(hi), 1.0) < self.psi(float(lo), 1.0) - 1e-9:
                problems.append(f"psi not increasing in x near {lo:g}")
        for lo, hi in [(ages[i], ages[i + 1]) for i in range(len(ages) - 1)]:
            if self.psi(1.0, float(hi)) < self.psi(1.0, float(lo)) - 1e-9:
                problems.append(f"psi not increasing in age near {lo:g}")
        gv = [self.g(float(t)) for t in ages]
        if any(v < -1e-12 or v > 1.0 + 1e-12 for v in gv):
            problems.append("g must take values in [0,1]")
        if any(b > a + 1e-12 for a, b in zip(gv[:-1], gv[1:])):
            problems.append("g must be decreasing")
        if self.setup == "AD":
            if self.K is None:
                problems.append("setup AD needs the refractory bound K")
            if not math.isfinite(self.delta) or self.delta <= 0:
                problems.append("setup AD needs a finite refractory length delta > 0")
            else:
                inv = 1.0 / self.delta
                if abs(inv - round(inv)) > 1e-9:
                    problems.append("delta must be the reciprocal of an integer")
                if self.K is not None:
                    for x in xs:
                        for a in np.linspace(0.0, self.delta, 9):
                            if self.psi(float(x), float(a)) > self.K + 1e-9:
                                problems.append(
                                    f"psi({x:g},{a:g}) > K: refractory bound violated")
        elif self.setup != "O":
            problems.append(f"unknown setup {self.setup!r}")
        return sorted(set(problems))


# ---------------------------------------------------------------------------
# Increasing schedules and their generalized inverse
# ---------------------------------------------------------------------------

class GammaSchedule:
    """Increasing right-continuous schedule with generalized inverse.

    The inverse is inf{s >= 0 : gamma(s) >= y}; the pair satisfies
    y <= gamma(t)  <=>  inverse(y) <= t.
    """

    def __init__(self, fn, form="custom", C=None, inverse_fn=None):
        self.fn = fn
        self.form = form
        self.C = C
        self._inverse_fn = inverse_fn

    @staticmethod
    def linear(C=1.0):
        return GammaSchedule(lambda t: C * t, form="linear", C=C,
                             inverse_fn=lambda y: y / C)

    @staticmethod
    def log(C=None, p=None, c_h=None):
        """C * ln_+(t); C defaults to 10% above the ordinary-setup bound."""
        if C is None:
            if p is None or c_h is None or c_h <= 0:
                raise ConfigError("log schedule needs C, or p and c_h > 0 to auto-choose it")
            C = 1.1 * (p + 1.0) / c_h
        def fn(t):
            return C * math.log(t) if t > 1.0 else 0.0
        def inv(y):
            return 0.0 if y <= 0 else math.exp(y / C)
        return GammaSchedule(fn, form="log", C=C, inverse_fn=inv)

    def value(self, t):
        return float(self.fn(float(t)))

    def inverse(self, y):
        """Generalized inverse; +inf when y is above sup gamma."""
        y = float(y)
        if y <= self.value(0.0):
            return 0.0
        if self._inverse_fn is not None:
            return float(self._inverse_fn(y))
        hi = 1.0
        for _ in range(210):
            if self.value(hi) >= y:
                break
            hi *= 2.0
        else:
            return INF
        lo = 0.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if self.value(mid) >= y:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return hi

    def ceil_inverse(self, y):
        """Smallest integer m >= 0 with gamma(m) >= y (None if unbounded)."""
        inv = self.inverse(y)
        if math.isinf(inv):
            return None
        m = max(0, ceil_int(inv))
        while m > 0 and self.value(m - 1) >= y:
            m -= 1
        guard = 0
        while self.value(m) < y:
            m += 1
            guard += 1
            if guard > 10**6:
                raise ConfigError("ceil_inverse failed to bracket; schedule irregular?")
        return m

    def int_shifted(self, T):
        """Integral of gamma(s+1) over [0, T]."""
        if T <= 0:
            return 0.0
        if self.form == "linear":
            return self.C * (0.5 * T * T + T)
        if self.form == "log":
            return self.C * ((1.0 + T) * math.log(1.0 + T) - T)
        return integrate(lambda s: self.value(s + 1.0), 0.0, T)

    def check_assumption(self, setup, assumption, p=None, c_h=None):
        """Far-grid validation of the growth conditions; returns problems."""
        problems = []
        grid = np.geomspace(1e3, 1e9, 13)
        if assumption == "B":
            ratios = [self.value(t) / t for t in grid]
            if min(ratios) <= 1e-12:
                problems.append("gamma(t)/t not bounded below on far grid (assumption B)")
        elif assumption == "A":
            if p is None:
                problems.append("assumption A needs the moment order p")
                return problems
            if setup == "O":
                if c_h is None or c_h <= 0:
                    problems.append("setup O assumption A needs c_h > 0")
                    return problems
                ratios = [self.value(t) / ((p + 1.0) * math.log(t) / c_h) for t in grid]
                if min(ratios) <= 1.0:
                    problems.append(
                        "gamma(t) must exceed (p+1)ln(t)/c_h on the far grid (setup O)")
            else:
                ratios = [self.value(t) / math.log(t) for t in grid]
                if min(ratios) <= 1e-12:
                    problems.append("gamma(t)/ln(t) not bounded below on far grid (setup AD)")
        else:
            problems.append(f"unknown assumption {assumption!r}")
        return problems


# ---------------------------------------------------------------------------
# Envelope functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecay:
    """The function w -> c * exp(-rate * w), at a float or an array of w.

    Majorant sums of exponential kernels, their envelopes and the start
    signals built from them have this form; the envelope certificate decides
    two of them with one rate in closed form.
    """

    c: float
    rate: float

    def __call__(self, w):
        return self.c * np.exp(-self.rate * w)

    def shift(self, s):
        """w -> self(s + w)."""
        return ExpDecay(self.c * math.exp(-self.rate * s), self.rate)

    def plus(self, other):
        """self + other as an ExpDecay, or None when the sum is not one."""
        if not isinstance(other, ExpDecay):
            return None
        if other.c == 0:
            return self
        if self.c == 0:
            return other
        if other.rate == self.rate:
            return ExpDecay(self.c + other.c, self.rate)
        return None


class EnvelopeFns:
    """The envelope pair f and F, and the band-mass table of F.

    f(t1, t2) = (gamma(0) + 1 + 1/delta) * (hbar(t1) + int_0^t2 gamma(s+1) hbar(t1+s) ds)
                + r(t1),
    with the convention 1/delta = 0 for the ordinary setup and r = 0 when
    none is given.  F is the band width: (c_psi + L f) on [0, D], then
    2 L f + c_psi g.
    """

    def __init__(self, kernel, rate, sched, r=None, D=0.0):
        self.kernel = kernel
        self.rate = rate
        self.sched = sched
        self.r = r
        self.D = float(D)
        self.delta_inv = 0.0 if not math.isfinite(rate.delta) else 1.0 / rate.delta
        self.prefactor = sched.value(0.0) + 1.0 + self.delta_inv
        self._J_cache = {}
        self._F_l1 = None
        # where F may jump, and the band-mass table: knots x_k and
        # C_k = int_0^{x_k} F, grown on demand
        self._jumps = sorted({0.0, self.D, *(b for b in rate.g_breaks if b > 0)})
        self._x, self._C, self._done = [0.0], [0.0], False

    # -- inner integral ----------------------------------------------------

    def _J(self, t2):
        """int_0^t2 gamma(s+1) exp(-rate*s) ds for an exponential kernel, cached:
        there hbar(t1+s) = hbar(t1) exp(-rate*s), so the schedule factor is
        shared by every t1."""
        J = self._J_cache.get(t2)
        if J is None:
            a = self.kernel.rate
            fn = lambda s: self.sched.value(s + 1.0) * math.exp(-a * s)
            if math.isinf(t2):
                J = integrate_to_inf(fn, 0.0, factor="gamma * majorant tail")
            else:
                J = integrate(fn, 0.0, t2)
            self._J_cache[t2] = J
        return J

    def _inner(self, t1, t2):
        """int_0^t2 gamma(s+1) hbar(t1+s) ds for a kernel that is not
        exponential (those use hbar(t1) J(t2))."""
        k = self.kernel
        fn = lambda s: self.sched.value(s + 1.0) * float(k.majorant(t1 + s))
        if isinstance(k, TableKernel):
            hi = max(0.0, k.support_end - t1)
            if not math.isinf(t2):
                hi = min(hi, t2)
            if hi <= 0:
                return 0.0
            breaks = [t - t1 for t in k.ts if 0.0 < t - t1 < hi]
            return integrate(fn, 0.0, hi, points=breaks)
        if math.isinf(t2):
            # in units of 1 + t1, the scale on which hbar(t1 + s) decays
            w = 1.0 + t1
            return integrate_to_inf(lambda u: w * fn(w * u), 0.0,
                                    factor="gamma * majorant tail")
        return integrate(fn, 0.0, t2)

    # -- public evaluations --------------------------------------------------

    def f(self, t1, t2=INF):
        """f(t1, t2) at a float t1, or elementwise at an array t1.

        For an array and an exponential kernel this is one vector expression,
        prefactor * hbar(t1) * (1 + J(t2)) + r(t1); other kernels evaluate
        their inner integral point by point.  ``r`` is called per point, and
        only when one was given.
        """
        k = self.kernel
        if isinstance(t1, np.ndarray):
            if not isinstance(k, ExponentialKernel):
                vals = [self.f(t, t2) for t in t1.ravel().tolist()]
                return np.array(vals, dtype=float).reshape(t1.shape)
            if (t1 < 0).any():
                raise ConfigError("f is defined for t1 >= 0")
            hb = k.majorant(t1)
            val = self.prefactor * (hb + hb * self._J(t2))
            if self.r is not None:
                val = val + np.array([float(self.r(t)) for t in t1.ravel().tolist()]
                                     ).reshape(t1.shape)
            if not np.isfinite(val).all():
                raise IntegrabilityError("f evaluated non-finite", factor="majorant or r")
            return val
        if t1 < 0:
            raise ConfigError("f is defined for t1 >= 0")
        if isinstance(k, ExponentialKernel):
            # the same grouping as the array path, so both give the same bits
            hb = float(k.majorant(t1))
            val = self.prefactor * (hb + hb * self._J(t2))
        else:
            val = self.prefactor * (float(k.majorant(t1)) + self._inner(t1, t2))
        if self.r is not None:
            val += float(self.r(t1))
        if not math.isfinite(val):
            raise IntegrabilityError("f evaluated non-finite", factor="majorant or r")
        return val

    def envelope(self, t2=INF):
        """w -> f(w, t2); an :class:`ExpDecay` for an exponential kernel and
        no r, where f(w, t2) = f(0, t2) exp(-rate * w)."""
        if isinstance(self.kernel, ExponentialKernel) and self.r is None:
            return ExpDecay(self.f(0.0, t2), self.kernel.rate)
        return lambda w: self.f(w, t2)

    def F_pre(self, t):
        return 2.0 * self.rate.L * self.f(t) + self.rate.c_psi * float(self.rate.g(t))

    def F(self, t):
        if self.D > 0 and t <= self.D:
            return self.rate.c_psi + self.rate.L * self.f(t)
        return self.F_pre(t)

    def F_sup(self, lo, hi):
        """sup of F on [lo, hi]; F is decreasing on each side of the delay D,
        where it may jump either way."""
        out = self.F(lo)
        if lo <= self.D < hi:
            out = max(out, self.F_pre(self.D))
        return out

    # -- integrals -----------------------------------------------------------

    @property
    def F_l1(self):
        """||F||_1: the mass between each two jumps of F, then the mass past
        the last one, each quadrature one ulp inside the jumps."""
        if self._F_l1 is None:
            j = self._jumps
            head = sum(self._mass(lo, hi) for lo, hi in zip(j, j[1:]))
            tail = integrate_to_inf(self.F_pre, math.nextafter(j[-1], INF), factor="F tail")
            self._F_l1 = head + tail
        return self._F_l1

    def _mass(self, lo, hi):
        """int_lo^hi F with no jump of F inside (lo, hi).  F may jump at
        either end, so the quadrature stays one ulp inside both."""
        return integrate(self.F, math.nextafter(lo, INF), math.nextafter(hi, -INF))

    def _grow(self):
        """Append the next knot (0, D, the g breaks and steps of max(1/4,
        x/32) between and past them) to the band-mass table.  It is complete
        after the first segment past the last jump that adds at most 1e-13
        of the mass so far: it depends on the config alone."""
        x, C = self._x[-1], self._C[-1]
        hi = min([x + max(0.25, x / 32.0)] + [b for b in self._jumps if b > x])
        seg = self._mass(x, hi)
        self._done = x >= self._jumps[-1] and seg <= 1e-13 * C
        self._x.append(hi)
        self._C.append(C + seg)

    def cum_F(self, t):
        """int_0^t F(s) ds: the table up to its last knot x_k <= t, plus one
        quadrature on [x_k, t]."""
        if t <= 0:
            return 0.0
        while self._x[-1] <= t and not self._done:
            self._grow()
        k = bisect.bisect_right(self._x, t) - 1
        return self._C[k] + self._mass(self._x[k], t)

    def tail_mass(self, t):
        return max(self.F_l1 - self.cum_F(t), 0.0)

    def t_cut(self, frac):
        """Smallest t with tail mass <= frac * ||F||_1."""
        return self.inv_cum(self.F_l1 * (1.0 - frac))

    def inv_cum(self, mass):
        """Smallest t with cum_F(t) >= mass; the end of the complete table
        when no t reaches it."""
        if mass <= 0:
            return 0.0
        while self._C[-1] < mass and not self._done:
            self._grow()
        k = bisect.bisect_left(self._C, mass)
        if k == len(self._C):
            return self._x[-1]
        lo, C = self._x[k - 1], self._C[k - 1]
        return brentq(lambda t: C + self._mass(lo, t) - mass, lo, self._x[k], xtol=1e-12)

    def validate(self, assumption="A", p=0.0):
        """Moment checks from the integrability assumptions; returns problems."""
        if assumption == "A":
            problems = []
            for name, fn in [("t^p f", lambda t: t**p * self.f(t)),
                             ("t^p F", lambda t: t**p * self.F(t))]:
                try:
                    integrate_to_inf(fn, 0.0, factor=name)
                except IntegrabilityError:  # the quadrature found no finite value
                    problems.append(f"{name} not integrable (assumption A)")
            return problems
        c = 0.05

        def weighted(t):
            # QUADPACK samples t far past 1.4e4, where exp(ct) overflows, also
            # when F decays fast enough; where F has underflowed to 0 the
            # integrand is 0, and only an overflow before that fails the moment
            v = self.F(t)
            return v * math.exp(c * t) if v > 0 else 0.0

        try:
            integrate_to_inf(weighted, 0.0, factor="exp(ct) F")
        except (OverflowError, IntegrabilityError):  # no finite value
            return ["F lacks an exponential moment (assumption B)"]
        return []
