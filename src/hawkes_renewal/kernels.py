"""Weight kernels, rate specifications, schedules and envelope functions.

The deterministic ingredients of the renewal construction: the weight
function ``h`` with its decreasing majorant, the rate function ``psi`` with
its Lipschitz/sublinearity constants, the increasing schedule ``gamma``
with its generalized inverse, and the envelope pair ``f``/``F`` whose
integrals drive every regeneration probability downstream.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrabilityError
from .quadrature import integrate, integrate_to_inf

INF = math.inf


def ceil_int(x):
    """Integer ceiling that snaps x within 1e-9 above an integer down to it."""
    return int(math.ceil(x - 1e-9))


def _require_finite(key, value):
    """Raise :class:`ConfigError` naming ``key`` when ``value`` is not finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")


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


class ExponentialKernel(Kernel):
    """h(t) = amplitude * exp(-rate * t)."""

    def __init__(self, rate, amplitude):
        _require_finite("rate", rate)
        _require_finite("amplitude", amplitude)
        if rate <= 0:
            raise ConfigError("exponential kernel needs rate > 0")
        self.rate = float(rate)
        self.amplitude = float(amplitude)

    def value(self, t):
        return self.amplitude * math.exp(-self.rate * t)

    def majorant(self, t):
        return abs(self.amplitude) * math.exp(-self.rate * t)

    @property
    def pos_l1(self):
        return max(self.amplitude, 0.0) / self.rate

    def sample_displacement(self, rng, size=None):
        """Draw from the normalized positive part h_+ / ||h_+||."""
        return rng.exponential(1.0 / self.rate, size=size)

    def __repr__(self):
        return f"ExponentialKernel(rate={self.rate}, amplitude={self.amplitude})"


class PowerLawKernel(Kernel):
    """h(t) = amplitude * (1 + t)^(-exponent)."""

    def __init__(self, amplitude, exponent):
        _require_finite("amplitude", amplitude)
        _require_finite("exponent", exponent)
        if exponent <= 1:
            raise ConfigError("power-law kernel needs exponent > 1 for integrability")
        self.amplitude = float(amplitude)
        self.exponent = float(exponent)

    # the same arithmetic at a float and at an array of times
    def value(self, t):
        return self.amplitude * (1.0 + t) ** -self.exponent

    def majorant(self, t):
        return abs(self.amplitude) * (1.0 + t) ** -self.exponent

    @property
    def pos_l1(self):
        return max(self.amplitude, 0.0) / (self.exponent - 1.0)

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
        if not all(math.isfinite(x) for knot in knots for x in knot):
            raise ConfigError("table kernel knots must be finite")
        if not knots or knots[0][0] != 0.0:
            raise ConfigError("table kernel needs a knot at t=0")
        self.ts, self.vs = [t for t, _ in knots], [v for _, v in knots]
        if any(a >= b for a, b in zip(self.ts, self.ts[1:])):
            raise ConfigError("table kernel knots must have strictly increasing times")
        # the step on [t_k, t_{k+1}) is the running maximum max_{j >= k} |v_j|,
        # which covers both ends
        self._maj_steps = list(itertools.accumulate(map(abs, reversed(self.vs)), max))[::-1]

    def value(self, t):
        """np.interp(t, ts, vs, right=0.0) at a float t, bit for bit: vs[0]
        up to the first knot, a knot's own value at it, 0 past the last."""
        ts, vs = self.ts, self.vs
        j = max(bisect.bisect_right(ts, t) - 1, 0)
        if t <= ts[j]:
            return vs[j]
        if j == len(ts) - 1:
            return 0.0
        slope = (vs[j + 1] - vs[j]) / (ts[j + 1] - ts[j])
        return slope * (t - ts[j]) + vs[j]

    def majorant(self, t):
        if t > self.ts[-1]:
            return 0.0
        return self._maj_steps[max(bisect.bisect_right(self.ts, t) - 1, 0)]

    @property
    def pos_l1(self):
        """Exact integral of h_+, segment by segment, split at zero crossings."""
        total = 0.0
        for t0, t1, v0, v1 in zip(self.ts[:-1], self.ts[1:], self.vs[:-1], self.vs[1:]):
            if v0 >= 0 and v1 >= 0:
                total += 0.5 * (v0 + v1) * (t1 - t0)
            elif v0 > 0 or v1 > 0:
                tc = t0 + (t1 - t0) * v0 / (v0 - v1)
                total += 0.5 * v0 * (tc - t0) if v0 > 0 else 0.5 * v1 * (t1 - tc)
        return total

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
        v = self.base.value(t)
        return np.maximum(v, 0.0) if isinstance(v, np.ndarray) else max(v, 0.0)

    def majorant(self, t):
        return self.base.majorant(t)

    @property
    def pos_l1(self):
        return self.base.pos_l1


def pos_part(kernel):
    """The kernel h_+; returns the kernel itself when already nonnegative."""
    if isinstance(kernel, (ExponentialKernel, PowerLawKernel)):
        return kernel if kernel.amplitude >= 0 else PositivePartKernel(kernel)
    if isinstance(kernel, TableKernel):
        return kernel if all(v >= 0 for v in kernel.vs) else PositivePartKernel(kernel)
    return PositivePartKernel(kernel)


def borel_c_h(m):
    """c_h = m - ln(m) - 1, the exponential-moment threshold of the Borel(m)
    cluster size, for a mean offspring 0 < m < 1."""
    return m - math.log(m) - 1.0


# ---------------------------------------------------------------------------
# Rate specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateSpec:
    """psi(x, age) as a value: ``name`` "linear" is c + L x_+ (setup O),
    "refractory_linear" c + L x_+ 1{age > delta} and "hard_refractory"
    c 1{age > delta} (setup AD), c = ``c_psi``.  Construction builds ``psi``
    and the weight ``g`` = 1{t <= delta} of F (0 for "linear"), and raises
    :class:`ConfigError` for another name, a negative c or L, or a
    refractory form without a finite delta > 0; ``K``, ``setup`` and
    ``g_breaks`` follow from the fields."""

    name: str
    c_psi: float
    L: float
    delta: float = INF

    def __post_init__(self):
        name, c, L, delta = self.name, self.c_psi, self.L, self.delta
        problems = [] if 0 <= c < INF and 0 <= L < INF else [
            f"{key} must be >= 0, got {v!r}" if not v >= 0 else f"{key} must be finite, got {v!r}"
            for key, v in (("c", c), ("L", L)) if not 0 <= v < INF]
        if name == "linear":
            if delta != INF:
                problems.append("a linear rate has no refractory length delta")
            psi, g = (lambda x, a: c + L * max(x, 0.0)), (lambda t: 0.0)
        elif name in ("refractory_linear", "hard_refractory"):
            if not 0 < delta < INF:
                problems.append(f"{name} needs a finite delta > 0, got {delta!r}")
            psi = ((lambda x, a: c + (L * max(x, 0.0) if a > delta else 0.0))
                   if name == "refractory_linear" else (lambda x, a: c if a > delta else 0.0))
            g = lambda t: 1.0 if t <= delta else 0.0
        else:
            problems.append(f"unknown form {name!r}: linear, refractory_linear, hard_refractory")
        if problems:
            raise ConfigError(problems)
        # past the frozen __setattr__; vars(self).update would slow every read of psi
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "g", g)

    setup = property(lambda r: "O" if r.name == "linear" else "AD")
    # the bound of psi on ages <= delta, and where g jumps
    K = property(lambda r: {"linear": None, "refractory_linear": r.c_psi}.get(r.name, 0.0))
    g_breaks = property(lambda r: () if r.name == "linear" else (r.delta,))

    @staticmethod
    def linear(c, L):
        """psi(x) = c + L*x_+, age-independent (ordinary Hawkes)."""
        return RateSpec("linear", c, L)

    @staticmethod
    def refractory_linear(c, L, delta):
        """psi(x, a) = c + L*x_+ * 1{a > delta}: excitation gated by age."""
        return RateSpec("refractory_linear", c, L, delta)

    @staticmethod
    def hard_refractory(c, delta, L=1.0):
        """psi(x, a) = c * 1{a > delta}: total silence for ages <= delta."""
        return RateSpec("hard_refractory", c, L, delta)


# ---------------------------------------------------------------------------
# Increasing schedules and their generalized inverse
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSchedule:
    """The schedule gamma(t) = C t (``form`` "linear") or C ln_+(t) ("log").

    Its generalized inverse inf{s >= 0 : gamma(s) >= y} and the integral of
    gamma(s+1) are closed forms; y <= gamma(t)  <=>  inverse(y) <= t.
    """

    form: str
    C: float

    def __post_init__(self):
        if self.form not in ("linear", "log"):
            raise ConfigError(f"unknown schedule form {self.form!r}: linear or log")
        _require_finite("C", self.C)

    @staticmethod
    def linear(C=1.0):
        return GammaSchedule("linear", C)

    @staticmethod
    def log(C):
        return GammaSchedule("log", C)

    def value(self, t):
        if self.form == "linear":
            return self.C * t
        return self.C * math.log(t) if t > 1.0 else 0.0

    def inverse(self, y):
        """Generalized inverse; inf past the float range."""
        if y <= 0.0:
            return 0.0
        try:
            return y / self.C if self.form == "linear" else math.exp(y / self.C)
        except OverflowError:
            return math.inf

    @functools.lru_cache(maxsize=256)  # the age-dependent scan asks the same few counts
    def ceil_inverse(self, y):
        """Smallest integer m >= 0 with gamma(m) >= y; inf with the inverse."""
        x = self.inverse(y)
        if math.isinf(x):
            return math.inf
        m = max(0, ceil_int(x))
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
        return self.C * ((1.0 + T) * math.log(1.0 + T) - T)


# ---------------------------------------------------------------------------
# Envelope functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDecay:
    """The function w -> c * exp(-rate * w), at a float w.

    Majorant sums of exponential kernels, their envelopes and the start
    signals built from them have this form; the envelope certificate decides
    two of them with one rate in closed form.
    """

    c: float
    rate: float

    def __call__(self, w):
        return self.c * math.exp(-self.rate * w)

    def shift(self, s):
        """w -> self(s + w)."""
        return ExpDecay(self.c * math.exp(-self.rate * s), self.rate)


def shifted(fn, s):
    """w -> fn(s + w), an :class:`ExpDecay` again when fn is one."""
    return fn.shift(s) if isinstance(fn, ExpDecay) else lambda w: fn(s + w)


def plus(f, g):
    """w -> f(w) + g(w): f itself when g is a zero :class:`ExpDecay`, an
    ExpDecay when both are and f is zero or of g's rate, else a closure."""
    if isinstance(g, ExpDecay):
        if g.c == 0:
            return f
        if isinstance(f, ExpDecay) and (f.c == 0 or f.rate == g.rate):
            return ExpDecay(f.c + g.c, g.rate)
    return lambda w: f(w) + g(w)


class EnvelopeFns:
    """The envelope pair f and F, and the band mass of F piece by piece.

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
        self.delta_inv = 1.0 / rate.delta  # 0 for the ordinary setup
        self.prefactor = sched.value(0.0) + 1.0 + self.delta_inv
        self._J_inf = None  # J(inf), read by every f(t1) of an exponential kernel
        self._envelopes = {}  # t2 -> w -> f(w, t2); cleared when it holds 64
        # where F may jump; the pieces between and their masses, once needed
        self._jumps = sorted({0.0, self.D, *rate.g_breaks})
        self._pieces = self._C = None

    # -- inner integral ----------------------------------------------------

    def _J(self, t2):
        """int_0^t2 gamma(s+1) exp(-a s) ds for an exponential kernel of rate a
        in closed form (E1 for a log schedule; inf where e^a overflows, which f
        names): there hbar(t1+s) = hbar(t1) exp(-a s), shared by every t1."""
        a, C = self.kernel.rate, self.sched.C
        if self.sched.form == "linear":
            if t2 == INF:
                return C * (1.0 / a + 1.0 / (a * a))
            e = math.exp(-a * t2)
            return C * ((1.0 - (t2 + 1.0) * e) / a + (1.0 - e) / (a * a))
        from scipy.special import exp1
        try:
            ea = math.exp(a)
        except OverflowError:
            return INF
        if t2 == INF:
            return C * ea * float(exp1(a)) / a
        return C / a * (ea * float(exp1(a) - exp1(a * (1.0 + t2)))
                        - math.log1p(t2) * math.exp(-a * t2))

    def _inner(self, t1, t2):
        """int_0^t2 gamma(s+1) hbar(t1+s) ds for a kernel that is not
        exponential (those use hbar(t1) J(t2)).  A table kernel's hbar is
        the step v_k on [t_k, t_k+1), so its integral is the exact sum of
        v_k (G(t_k+1 - t1) - G(t_k - t1)), G(x) = int_0^x gamma(s+1) ds
        with x clipped to [0, t2]."""
        k = self.kernel
        if isinstance(k, TableKernel):
            G = [self.sched.int_shifted(min(max(t - t1, 0.0), t2)) for t in k.ts]
            return sum(v * (b - a) for v, a, b in zip(k._maj_steps, G, G[1:]))
        fn = lambda s: self.sched.value(s + 1.0) * k.majorant(t1 + s)
        if math.isinf(t2):
            # in units of 1 + t1, the scale on which hbar(t1 + s) decays
            w = 1.0 + t1
            return integrate_to_inf(lambda u: w * fn(w * u), 0.0,
                                    factor="gamma * majorant tail")
        return integrate(fn, 0.0, t2)

    # -- public evaluations --------------------------------------------------

    def f(self, t1, t2=INF):
        """f(t1, t2) at a float t1; an exponential kernel reads hbar(t1) J(t2)
        for its inner integral.  ``r`` is called only when one was given."""
        if t1 < 0:
            raise ConfigError("f is defined for t1 >= 0")
        k = self.kernel
        if isinstance(k, ExponentialKernel):
            hb = k.majorant(t1)
            if t2 != INF:
                J = self._J(t2)
            elif (J := self._J_inf) is None:
                J = self._J_inf = self._J(INF)
            val = self.prefactor * (hb + hb * J)
        else:
            val = self.prefactor * (k.majorant(t1) + self._inner(t1, t2))
        if self.r is not None:
            val += self.r(t1)
        if not math.isfinite(val):
            raise IntegrabilityError("f evaluated non-finite", factor="majorant or r")
        return val

    def envelope(self, t2=INF):
        """w -> f(w, t2), built once per t2; an :class:`ExpDecay` for an
        exponential kernel and no r, where f(w, t2) = f(0, t2) exp(-rate w)."""
        if (e := self._envelopes.get(t2)) is None:
            if len(self._envelopes) >= 64:
                self._envelopes.clear()
            e = self._envelopes[t2] = (
                ExpDecay(self.f(0.0, t2), self.kernel.rate)
                if isinstance(self.kernel, ExponentialKernel) and self.r is None
                else lambda w: self.f(w, t2))
        return e

    def F_pre(self, t):
        return 2.0 * self.rate.L * self.envelope()(t) + self.rate.c_psi * self.rate.g(t)

    def F(self, t):
        if self.D > 0 and t <= self.D:
            return self.rate.c_psi + self.rate.L * self.envelope()(t)
        return self.F_pre(t)

    def F_sup(self, lo, hi):
        """sup of F on [lo, hi]; F is decreasing on each side of the delay D,
        where it may jump either way."""
        out = self.F(lo)
        if lo <= self.D < hi:
            out = max(out, self.F_pre(self.D))
        return out

    # -- integrals -----------------------------------------------------------

    def _exp_form(self, lo, hi):
        """(A, B) with F(t) = A + B exp(-a t) on the piece (lo, hi) between
        two jumps of F, a the kernel's rate, or None.  F has that form when
        the envelope is an :class:`ExpDecay`, f(t) = f(0) exp(-a t).  On
        [0, D] A = c_psi and B = L f(0); past D A = c_psi g and B = 2 L f(0),
        g = 1{t <= delta} being constant on a piece cut at delta."""
        if not isinstance(e := self.envelope(), ExpDecay):
            return None
        rate, f0 = self.rate, e.c
        if hi <= self.D:
            return rate.c_psi, rate.L * f0
        return rate.c_psi * rate.g(hi), 2.0 * rate.L * f0

    def _prefix(self):
        """C_k = int_0^{lo_k} F at the start of each piece, then ||F||_1.
        The pieces (lo, hi, form) cut [0, inf) at the jumps of F (0, D and
        the g breaks), with the :meth:`_exp_form` of each.  Computed once,
        from the config alone."""
        if self._C is None:
            ends = self._jumps[1:] + [INF]
            self._pieces = [(lo, hi, self._exp_form(lo, hi))
                            for lo, hi in zip(self._jumps, ends)]
            C = [0.0]
            for piece in self._pieces:
                C.append(C[-1] + self._between(piece, piece[0], piece[1]))
            self._C = C
        return self._C

    def _between(self, piece, t0, t1):
        """int_t0^t1 F for lo <= t0 <= t1 <= hi on ``piece``: closed-form
        where F = A + B exp(-a t) there, to infinity only when A = 0;
        otherwise one quadrature, one ulp inside both ends, as F may jump
        at either."""
        form = piece[2]
        if form is not None:
            (A, B), a = form, self.kernel.rate
            if t1 < INF:
                return A * (t1 - t0) + B / a * (math.exp(-a * t0) - math.exp(-a * t1))
            if A != 0:
                raise IntegrabilityError(f"F tends to {A:g}, not 0", factor="F tail")
            return B / a * math.exp(-a * t0)
        t0 = math.nextafter(t0, INF)
        if t1 < INF:
            return integrate(self.F, t0, math.nextafter(t1, -INF))
        return integrate_to_inf(self.F_pre, t0, factor="F tail")

    @property
    def F_l1(self):
        """||F||_1, the sum of the masses of the pieces between the jumps."""
        return self._prefix()[-1]

    def cum_F(self, t):
        """int_0^t F(s) ds: the mass up to the last jump lo <= t, plus the
        mass of its piece on [lo, t]."""
        if t <= 0:
            return 0.0
        C = self._prefix()
        k = bisect.bisect_right(self._jumps, t) - 1
        piece = self._pieces[k]
        return C[k] + self._between(piece, piece[0], t)

    def tail_mass(self, t):
        return max(self.F_l1 - self.cum_F(t), 0.0)

    def t_cut(self, frac):
        """Smallest t with tail mass <= frac * ||F||_1."""
        return self.inv_cum(self.F_l1 * (1.0 - frac))

    def inv_cum(self, mass):
        """Smallest t with cum_F(t) >= mass; inf when mass >= ||F||_1.

        Inside the piece (lo, hi) that holds ``mass`` it runs Newton from
        the left on the piece's mass M(t) = int_lo^t F.  F decreases there,
        so M is concave and the iterates rise to the root without passing
        it; they stop at a step of at most 1e-12 max(t, 1).  Where
        F = A + B exp(-a t) on the piece each step's mass is closed-form,
        and with A = 0 the root is one logarithm; elsewhere a step's mass
        is one quadrature over that step."""
        if mass <= 0:
            return 0.0
        C = self._prefix()
        if mass >= C[-1]:
            return INF
        k = bisect.bisect_left(C, mass) - 1
        piece, rest = self._pieces[k], mass - C[k]
        lo, hi, form = piece
        if form is None:
            # one ulp inside lo, as the piece's quadrature: F may jump there
            t, F = math.nextafter(lo, INF), self.F
        else:
            (A, B), a = form, self.kernel.rate
            if A == 0:
                left = math.exp(-a * lo) - rest * a / B
                return hi if left <= 0 else min(max(-math.log(left) / a, lo), hi)
            t, F = lo, lambda s: A + B * math.exp(-a * s)
        while True:
            slope = F(t)
            if slope <= 0:  # F vanishes from t on, so no later t adds mass
                return t
            nxt = min(t + rest / slope, hi)
            if nxt <= t:
                return t
            if nxt - t <= 1e-12 * max(nxt, 1.0):
                return nxt
            rest -= self._between(piece, t, nxt)
            t = nxt
