"""The renewal system: band-coupled cycle processes and regeneration blocks.

Each cycle restarts a delayed comparison process at the last certified time
and surrounds its intensity with the deterministic band of width F.  The
first band point ends the cycle; a cycle with no band point (probability
exp(-||F||_1)) yields the regeneration time rho = alpha_eta + D.  The band
points form a Poisson process of intensity F (on the delay D the band is
the fixed strip (0, F], as the comparison process is silent there), so
whether one exists and where the first lies are drawn from that exact law,
and the sweep up to the drawn time skips the PRM's band points.  In setup O
that sweep also thins Z^n, the dominating linear process of the alpha scan,
on pi outside the band and pibar inside it; past tau Z^n and the tracks
share one sweep.  Blocks between consecutive regeneration times are
independent and identically distributed by construction and restart from
the certified state (age D, signal -f(t+D)) on fresh streams.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, SimulationCapError
from .hawkes import Path, ProcessState, thin
from .kernels import (EnvelopeFns, ExpDecay, RateSpec, borel_c_h, ceil_int,
                      check_subcritical, pos_part)
from .prm import PrmStream, derive_key, spawn_rng, split, swapped_in
from .reprocess import step

_SLACK = 1e-9
_ABS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Configuration and start states
# ---------------------------------------------------------------------------

@dataclass
class RenewalConfig:
    """Everything the renewal system needs, with its caps; ``env`` is built
    from the other fields.  A cycle draws tau from the band's exact law, of
    total mass ``env.F_l1``."""

    kernel: object
    rate: object
    sched: object
    r: object = None
    D: float = 0.0
    p: float = 2.0
    assumption: str = "B"
    max_cycles: int = 10**6
    scan_cap: int = 10**6
    env: EnvelopeFns = field(init=False)

    def __post_init__(self):
        self.env = EnvelopeFns(self.kernel, self.rate, self.sched,
                               r=self.r, D=self.D)

    @property
    def setup(self):
        return self.rate.setup

    @property
    def cycle_horizon(self):
        """0.0: every tau is drawn from its exact law, so no cycle sweeps
        the band to a horizon first.  Kept for the benchmark's set-up
        timing, which reads it."""
        return 0.0

    def validate(self):
        problems = list(self.rate.validate())
        if self.r is not None:
            rs = [float(self.r(t)) for t in np.linspace(0.0, 20.0, 41).tolist()]
            if any(v < 0 for v in rs):
                problems.append("start bound r must be >= 0")
            if any(b > a + 1e-12 for a, b in zip(rs[:-1], rs[1:])):
                problems.append("start bound r must be decreasing")
        c_h = None
        if self.setup == "O":
            try:
                m = check_subcritical(self.kernel, self.rate.L)
                c_h = borel_c_h(m) if m > 0 else None
            except ConfigError as exc:
                problems.extend(exc.problems)
        problems += self.sched.check_assumption(self.setup, self.assumption,
                                                p=self.p, c_h=c_h)
        problems += self.env.validate(self.assumption, self.p)
        if self.D < 0:
            problems.append("delay D must be >= 0")
        if not problems:
            # eta is geometric: P(a block passes max_cycles) <= exp(-max_cycles / cycles)
            m = self.env.F_l1
            cycles = math.exp(m) if m < 709.0 else math.inf
            if self.max_cycles < 20.0 * cycles:
                problems.append(f"||F||_1 = {m:.4g}: a block needs e^||F||_1 = {cycles:.3g} "
                                f"cycles on average, more than max_cycles / 20")
        return problems


@dataclass
class ZStart:
    """Initial condition of a target process, with its certified alpha0.

    ``signal_upper`` is a decreasing upper envelope of the signal (used for
    domination), ``signal_abs`` a decreasing envelope of its absolute value
    (used by the post-alpha envelope checks).  ``signal_abs`` takes one
    float time; an :class:`ExpDecay` keeps exponential-kernel certificates
    in closed form.
    """

    signal: object
    signal_upper: object
    signal_abs: object
    age0: float = 0.0
    alpha0: float = 0.0

    @staticmethod
    def atom(env):
        """The regeneration state: age D and signal t -> -f(t + D)."""
        D = env.D
        return ZStart(signal=lambda t: -env.f(t + D),
                      signal_upper=lambda t: 0.0,
                      signal_abs=_shifted(env.envelope(), D),
                      age0=D, alpha0=0.0)

    @staticmethod
    def empty(age0=0.0):
        """No past at all: zero signal, alpha0 = 0."""
        zero = lambda t: 0.0
        return ZStart(signal=zero, signal_upper=zero,
                      signal_abs=ExpDecay(0.0, 0.0), age0=age0, alpha0=0.0)


@dataclass
class CycleRecord:
    index: int
    tau_gap: float
    alpha_gap: float
    envelope_ok: bool = True

    @property
    def tau_from_tail(self):
        """True for a finite tau, as every one is drawn from its law."""
        return math.isfinite(self.tau_gap)


@dataclass
class Diagnostics:
    """The engine's counters, summed over cycles, blocks and workers:
    pi's candidates in the track sweeps (in setup O joint with Z^n, before
    tau and past it), band checks and violations with the largest
    excursions below and above the band (negative while every candidate
    stayed inside), band points skipped by band sweeps, envelope
    certificates with their points and the failures among those made at an
    alpha."""

    band_max_low: float = -math.inf
    band_max_high: float = -math.inf
    band_violations: int = 0
    band_checks: int = 0
    band_skipped: int = 0
    envelope_failures: int = 0
    certificates: int = 0
    certificate_points: int = 0
    n_candidates: int = 0

    def merge(self, other):
        """Fold the counters of ``other`` into this record and return it: the
        float fields (band excursions) take the maximum, counts add up."""
        for f in fields(Diagnostics):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name,
                    max(mine, theirs) if f.type is float else mine + theirs)
        return self


@dataclass(kw_only=True)
class RenewalOutcome(Diagnostics):
    """Stopping times, regeneration point, per-cycle records and the
    engine's counters."""

    alphas: list
    taus: list
    eta: int
    rho: float
    cycles: list
    zstar: Path
    track_paths: list


# ---------------------------------------------------------------------------
# Certified comparison of decreasing functions on a half line
# ---------------------------------------------------------------------------

_DEPTH = 14


@dataclass(frozen=True)
class Certificate:
    """Verdict of :func:`certify_dominated`, true when the bound holds;
    ``points`` counts the abscissae at which ub and rhs were evaluated."""

    ok: bool
    points: int

    def __bool__(self):
        return self.ok


def certify_dominated(ub, rhs):
    """Certify that the quantity enveloped by ``ub`` stays below ``rhs``.

    ``ub(w)`` must dominate the quantity on [w, inf); ``ub`` and ``rhs``
    must be decreasing and are called at one float w at a time.

    When both are :class:`ExpDecay` with one rate, c_ub e^{-aw} and
    c_rhs e^{-aw}, the verdict is the test at w = 0 alone,
    c_ub <= c_rhs (1 + 1e-9) + 1e-12, which holds exactly when
    ub(w) <= rhs(w) (1 + 1e-9) + 1e-12 for every w >= 0 (multiply by
    e^{-aw} <= 1); it counts one point.  Every certificate the walk below
    accepts is accepted.

    Otherwise the walk covers the
    fixed geometric grid w_0 = 0, w_{k+1} = max(1.3 w_k, w_k + 0.05) with
    the intervals (lo, hi) = (w_k, w_{k+1}) and requires
    ub(lo) <= rhs(hi) (1 + 1e-9) + 1e-12 on each, bisecting a failing
    interval down to depth 14; it accepts at the first k >= 1 with
    ub(w_k) <= 1e-12.  A first pass walks the grid, evaluating each grid
    point once; a second bisects the failing intervals depth first,
    carrying ub(lo) and rhs(hi) down, so no point is evaluated twice.

    Two exits keep a violated certificate cheap.  A grid interval whose
    leftmost depth-14 leaf fails ends the walk as a failure: every interval
    on the way down to that leaf has the same left end and, rhs being
    decreasing, a smaller rhs at its right end, so the bisection would
    reach the leaf and fail there.  For the same reason so does an interval
    of the bisection that fails at zero width,
    ub(lo) > rhs(lo) (1 + 1e-9) + 1e-12.  Returns a
    :class:`Certificate`.
    """

    def holds(u, r):
        return u <= r * (1.0 + _SLACK) + _ABS_TOL

    if isinstance(ub, ExpDecay) and isinstance(rhs, ExpDecay) and ub.rate == rhs.rate:
        return Certificate(bool(holds(ub.c, rhs.c)), 1)

    # pass 1: the grid, keeping the failing intervals as (lo, hi, ub(lo), rhs(hi))
    lo, u_lo, points, failing = 0.0, ub(0.0), 1, []
    while True:
        hi = max(lo * 1.3, lo + 0.05)
        u_hi, r_hi = ub(hi), rhs(hi)
        points += 2
        if not holds(u_lo, r_hi):
            leaf = hi
            for _ in range(_DEPTH):
                leaf = 0.5 * (lo + leaf)
            points += 1
            if not holds(u_lo, rhs(leaf)):
                return Certificate(False, points)
            failing.append((lo, hi, u_lo, r_hi, _DEPTH))
        if u_hi <= _ABS_TOL:
            break
        if math.isinf(hi):  # the grid ends at its first infinite point
            return Certificate(False, points)
        lo, u_lo = hi, u_hi
    # pass 2: bisect them depth first
    while failing:
        lo, hi, u_lo, r_hi, depth = failing.pop()
        if depth == 0:
            return Certificate(False, points)
        mid = 0.5 * (lo + hi)
        u_mid, r_mid = ub(mid), rhs(mid)
        points += 2
        if not holds(u_mid, r_mid):  # a right half fails at zero width
            return Certificate(False, points)
        if not holds(u_mid, r_hi):
            failing.append((mid, hi, u_mid, r_hi, depth - 1))
        if not holds(u_lo, r_mid):
            failing.append((lo, mid, u_lo, r_mid, depth - 1))
    return Certificate(True, points)


def _shifted(fn, s):
    """w -> fn(s + w), an :class:`ExpDecay` again when fn is one."""
    return fn.shift(s) if isinstance(fn, ExpDecay) else lambda w: fn(s + w)


def _plus(f, g):
    """w -> f(w) + g(w), an :class:`ExpDecay` when both are of one rate."""
    both = f.plus(g) if isinstance(f, ExpDecay) else None
    return both if both is not None else lambda w: f(w) + g(w)


def check_envelope_inequality(env, memory, base, signal_abs=None):
    """Certify |sum h(t-u) + R(t)| <= f(t - base) for all t > base, the sum
    running over the jumps u <= base of the :class:`KernelMemory` ``memory``.

    Returns a :class:`Certificate`; ``signal_abs`` bounds |R|."""
    ub = memory.majorant_from(base)
    if signal_abs is not None:
        ub = _plus(ub, _shifted(signal_abs, base))
    return certify_dominated(ub, env.envelope())


# ---------------------------------------------------------------------------
# The two alpha scans
# ---------------------------------------------------------------------------

def scan_alpha_AD(sched, counts, tau_gap, cap=10**6):
    """Age-dependent alpha scan via the random-exchange recursion.

    ``counts(i)`` is the refractory-bound point count on the i-th unit
    interval past the cycle start.  Returns the first integer offset past
    ceil(tau_gap) at which the chain reaches zero, which is exactly the
    first offset whose whole backward count profile fits under the
    schedule.  The chain is M_i = max(M_{i-1} - 1, u_i) from M_0 = 0, with
    u_i the least integer at which gamma reaches ``counts(i)``.  The chain
    falls by at most one per offset, so a draw u_i > cap - i keeps it above
    zero up to ``cap``: the scan then raises :class:`SimulationCapError`
    with the chain's last state, as it does past ``cap`` offsets.
    """
    ceil_gap = ceil_int(tau_gap)
    m = 0
    for i in range(1, cap + 1):
        u = sched.ceil_inverse(int(counts(i)))
        if u > cap - i:
            break
        m = step(m, u)
        if m == 0 and i > ceil_gap:
            return i
    raise SimulationCapError("age-dependent alpha scan exceeded its cap",
                             diagnostics={"last_state": m})


def scan_alpha_O(env, sched, zn, tau_gap, cap=4000, certs=None):
    """Ordinary-setup alpha scan on the dominating linear process.

    ``zn(i)``, called at i = ceil(tau_gap) + 1, + 2, ... in turn, returns
    the comparison process's jump count on (0, i] in local time, the
    initial point at ``tau_gap`` included, and the shifted kernel mass of
    those jumps, w -> sum_j hbar(i + w - u_j).  An integer offset i
    qualifies when the count respects the integrated schedule and the mass
    is certified below f(. , i-1).  Each :class:`Certificate` made is
    appended to ``certs`` when given.
    """
    ceil_gap = ceil_int(tau_gap)
    i = ceil_gap
    while i < cap:
        i += 1
        count, mass = zn(i)
        if count > sched.int_shifted(float(i)) + 1e-9:
            continue
        cert = certify_dominated(mass, env.envelope(i - 1.0))
        if certs is not None:
            certs.append(cert)
        if cert:
            return i
    raise SimulationCapError("ordinary-setup alpha scan exceeded its cap")


# ---------------------------------------------------------------------------
# The system engine
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, cfg, pi, pibar, starts, tau_rng):
        self.cfg = cfg
        self.env = cfg.env
        self.pi = pi
        self.pibar = pibar
        self.rng = tau_rng
        self.tracks = [
            ProcessState(cfg.kernel, cfg.rate, signal=s.signal,
                         signal_upper=s.signal_upper, age0=s.age0,
                         delay=0.0, origin=0.0)
            for s in starts
        ]
        self.starts = starts
        self.alpha0 = starts[0].alpha0
        self.alphas = [self.alpha0]
        self.taus = []
        self.cycles = []
        self.cycle = None       # current/last comparison process
        self.cycle_start = None
        self.zn = None          # the cycle's dominating linear process Z^n
        self.zn_model = ((pos_part(cfg.kernel),
                          RateSpec.linear(cfg.rate.c_psi, cfg.rate.L))
                         if cfg.setup == "O" else None)
        self.diag = Diagnostics()

    # -- band helpers -------------------------------------------------------

    def _new_cycle(self, a):
        env = self.env
        self.cycle = ProcessState(
            self.cfg.kernel, self.cfg.rate,
            signal=lambda t, a=a: -env.f(max(t - a, 0.0)),
            signal_upper=lambda t: 0.0,
            age0=0.0, delay=self.cfg.D, origin=a)
        self.cycle_start = a
        if self.zn_model is not None:
            f_from_a = lambda t: env.f(max(t - a, 0.0))
            self.zn = ProcessState(*self.zn_model, signal=f_from_a,
                                   signal_upper=f_from_a, origin=a)

    def width(self, s):
        """The band width at absolute time s."""
        return self.env.F(s - self.cycle_start)

    def width_sup(self, t0, t1):
        a = self.cycle_start
        return self.env.F_sup(max(t0 - a, 0.0), t1 - a)

    def band(self, s):
        """The cycle's band (lo, hi] at absolute time s."""
        lam = self.cycle.lambda_at(s)
        return lam, lam + self.width(s)

    def _record_band(self, s, lams, width):
        # the target is the first of self.tracks, after Z^n when it leads
        d, diag = lams[-1 - len(self.tracks)] - lams[-1], self.diag
        diag.band_checks += 1
        diag.band_max_low = max(diag.band_max_low, -d)
        diag.band_max_high = max(diag.band_max_high, d - width)
        if d < -_SLACK or d > width + _SLACK:
            diag.band_violations += 1

    # -- joint candidate sweeps ----------------------------------------------

    def sweep(self, t_from, t_to, banded, zn=None):
        """Advance the tracks on (t_from, t_to] after Z^n when given, and
        with ``banded`` before the cycle process under its band: pi's band
        points are skipped, as the band is conditioned empty there, and
        pibar's drive Z^n alone."""
        tracks = [*self.tracks] if zn is None else [zn, *self.tracks]
        band = swap = None
        if banded:
            tracks, band = tracks + [self.cycle], (self.width, self.width_sup)
            if zn is not None:
                swap = lambda t0, t1, zmax: swapped_in(self.pibar, self.band,
                                                       (t0, t1), zmax)
        n, skipped = thin(tracks, self.pi.sample, t_from, t_to, band=band,
                          watch=self._record_band, swap=swap)
        self.diag.n_candidates += n
        self.diag.band_skipped += skipped

    # -- tau sampling ---------------------------------------------------------

    def run_cycle(self):
        """One cycle from the last alpha a; returns tau, absolute, or None
        when the cycle has no band point.

        The band's points are Poisson with intensity F(. - a): whether one
        exists is one draw with probability 1 - exp(-||F||_1), and its gap
        one draw from the exact conditional law through ``inv_cum``.  The
        sweep up to it skips the PRM's band points, which that law
        conditions out, and the point is placed uniformly in the band.  In
        setup O the sweep thins Z^n too, and Z^n gets its point at tau.
        """
        a = self.alphas[-1]
        # every read of this cycle and of the later ones starts at or after a
        self.pi.forget_before(a)
        self.pibar.forget_before(a)
        self._new_cycle(a)
        m = self.env.F_l1
        if self.rng.random() >= 1.0 - math.exp(-m):
            return None
        e = -math.log1p(-self.rng.random() * (1.0 - math.exp(-m)))
        s = a + self.env.inv_cum(e)
        self.sweep(a, s, True, self.zn)
        z = self.cycle.lambda_at(s) + self.rng.random() * self.width(s)
        for tr in self.tracks:
            if z <= tr.lambda_at(s):
                tr.add_jump(s)
        if self.zn is not None:
            self.zn.add_jump(s)
        return s

    # -- scan drivers -----------------------------------------------------------

    def find_alpha(self, tau_abs, tau_gap):
        """The next alpha, absolute, with the tracks swept up to it.  In
        setup O the scan starts at tau, where ``run_cycle`` left Z^n."""
        a = self.alphas[-1]
        cfg = self.cfg
        if cfg.setup == "AD":
            band = lambda s: self.band(s) if s <= tau_abs else (0.0, 0.0)

            def counts(i):
                """Unit i's points of the split driver (pi past tau)."""
                t0, t1, K = a + i - 1.0, a + i, cfg.rate.K
                if t0 >= tau_abs:
                    return len(self.pi.sample(t0, t1, K))
                return len(split(self.pi, self.pibar, band, (t0, t1), K).down)

            alpha = a + scan_alpha_AD(cfg.sched, counts, tau_gap, cap=cfg.scan_cap)
            self.sweep(tau_abs, alpha, False)
            return alpha
        # ordinary setup: Z^n grows on demand in one sweep with the tracks,
        # whose intensities it dominates
        zn, swept = self.zn, tau_abs

        def zn_at(i):
            nonlocal swept
            t = a + i
            self.sweep(swept, t, False, zn)
            swept = t
            return len(zn.jumps), zn.memory.majorant_from(t)  # all at or before t

        certs = []
        off = scan_alpha_O(self.env, cfg.sched, zn_at, tau_gap,
                           cap=cfg.scan_cap, certs=certs)
        for cert in certs:
            self._count(cert)
        return a + off

    # -- envelope check -----------------------------------------------------------

    def _count(self, cert):
        self.diag.certificates += 1
        self.diag.certificate_points += cert.points
        return cert.ok

    def certify_tracks(self, alpha):
        """Certify every track's envelope at alpha, reading its memory."""
        fails = sum(not self._count(check_envelope_inequality(
            self.env, tr.memory, alpha, signal_abs=st.signal_abs))
            for tr, st in zip(self.tracks, self.starts))
        self.diag.envelope_failures += fails
        return fails == 0


def run_system(cfg, pi, pibar, start=None, extra_starts=(), tau_rng=None,
               extend_after=0.0):
    """Run the renewal system to its regeneration time.

    Parameters
    ----------
    cfg : RenewalConfig
    pi, pibar : the two independent driving PRM streams.
    start : ZStart for the target process (defaults to the regeneration
        state, whose alpha0 = 0 is certified).
    extra_starts : more ZStart values sharing pi and the stopping times;
        used by coupling experiments.
    tau_rng : Generator for the tau draws (derived from pi's seed when
        omitted).
    extend_after : continue all target processes this far past rho
        (band points skipped, which is their exact conditional law).

    The tracks are swept up to alpha_eta, or with ``extend_after`` up to
    rho + extend_after: on (alpha_eta, rho] they have no event, as the last
    cycle has no band point and their intensities lie in the band.
    Returns a :class:`RenewalOutcome`.
    """
    starts = [start if start is not None else ZStart.atom(cfg.env)]
    starts += list(extra_starts)
    if tau_rng is None:
        tau_rng = spawn_rng(pi.seed, pi.stream, 0x7A0)
    eng = _Engine(cfg, pi, pibar, starts, tau_rng)

    if eng.alpha0 > 0:
        eng.sweep(0.0, eng.alpha0, False)
        eng.certify_tracks(eng.alpha0)

    eta = None
    for n in range(1, cfg.max_cycles + 1):
        s_tau = eng.run_cycle()
        if s_tau is None:
            eng.taus.append(math.inf)
            eta = n - 1
            break
        a_prev = eng.alphas[-1]
        eng.taus.append(s_tau)
        alpha = eng.find_alpha(s_tau, s_tau - a_prev)
        env_ok = eng.certify_tracks(alpha)
        eng.alphas.append(alpha)
        eng.cycles.append(CycleRecord(
            index=n, tau_gap=s_tau - a_prev, alpha_gap=alpha - s_tau,
            envelope_ok=env_ok))
    else:
        raise SimulationCapError(
            f"no regeneration within {cfg.max_cycles} cycles "
            f"(expected about exp(||F||_1) = {math.exp(cfg.env.F_l1):.3g})")

    rho = eng.alphas[-1] + cfg.D
    eng.cycles.append(CycleRecord(index=eta + 1, tau_gap=math.inf,
                                  alpha_gap=math.inf))
    end = rho
    if extend_after > 0:
        end = rho + extend_after
        eng.sweep(eng.alphas[-1], end, True)
    track_paths = [
        Path(np.array([u for u in tr.jumps if u <= end + 1e-12]), horizon=end)
        for tr in eng.tracks
    ]
    return RenewalOutcome(
        alphas=eng.alphas, taus=eng.taus, eta=eta, rho=rho, cycles=eng.cycles,
        zstar=track_paths[0], track_paths=track_paths, **vars(eng.diag))


# ---------------------------------------------------------------------------
# Iterated regenerations
# ---------------------------------------------------------------------------

@dataclass
class Block:
    """One regeneration block: the path between consecutive renewal times,
    shifted to local time (events live in (0, rho])."""

    rho: float
    path: Path
    eta: int
    cycles: list

    @property
    def n_events(self):
        return self.path.n

    def __iter__(self):
        yield self.rho
        yield self.path


def _run_chunk(cfg, job):
    """Blocks lo..hi-1 of stream ``seed`` and their summed diagnostics."""
    seed, lo, hi = job
    blocks, diag = [], Diagnostics()
    # one tail generator, re-keyed per block with a zero counter and an empty
    # buffer as PRM cells are: it draws as spawn_rng(seed, i, 0x7A1) would
    tau_rng = np.random.Generator(np.random.Philox(key=0))
    fresh = tau_rng.bit_generator.state
    for i in range(lo, hi):
        key = fresh["state"]["key"]
        key[1], key[0] = divmod(derive_key(seed, i, 0x7A1), 1 << 64)
        tau_rng.bit_generator.state = fresh
        out = run_system(cfg, PrmStream(seed, stream=3 * i),
                         PrmStream(seed, stream=3 * i + 1), tau_rng=tau_rng)
        blocks.append(Block(out.rho, out.zstar, out.eta, out.cycles))
        diag.merge(out)
    return blocks, diag


def _child(cfg, jobs, write_fd):
    """Body of a forked child: run ``jobs`` and send ``(ok, chunk results or
    exception)`` down ``write_fd``, pickled; never returns."""
    status = 1
    try:
        try:
            out = True, [_run_chunk(cfg, job) for job in jobs]
        except Exception as exc:
            out = False, exc
        # pickled whole before writing, so a result that cannot be pickled
        # sends nothing and the parent sees a child without a result
        data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as f:
            f.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_forked(cfg, jobs, n):
    """Chunk results of ``jobs`` in job order.  Forked child w runs
    jobs[w::n] for w = 1..n-1 while this process runs jobs[0::n].  If
    anything fails, every child is killed and reaped before the error
    (a child's own exception, with its fields) is raised here."""
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(cfg, jobs[w::n], write_fd)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = [None] * len(jobs)
        results[0::n] = [_run_chunk(cfg, job) for job in jobs[0::n]]
        for w in range(1, n):
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0:
                raise RuntimeError(f"block worker pid {pid} exited with "
                                   f"status {status} and sent no result")
            ok, out = pickle.loads(data)
            if not ok:
                raise out
            results[w::n] = out
        return results
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _ in children:
            os.waitpid(pid, 0)
        raise


def iterate_regenerations(cfg, n_blocks, seed=0, n_jobs=1, collect_diag=None):
    """Generate i.i.d. regeneration blocks.

    Block i restarts from the certified regeneration state on fresh streams
    keyed by (seed, i).  The blocks are cut into chunks that run on
    ``n_jobs`` processes, each with a fixed share: this one runs chunks
    0, n, 2n, ... and forked child w runs chunks w, w + n, ... (n is
    ``n_jobs``, or the chunk count when that is smaller; everything runs
    here where ``os.fork`` is missing).  The chunks are merged in block
    order, so the worker count never changes the output.  A child's
    exception is raised here with its fields, a child that exits without
    a result raises RuntimeError naming its pid and exit status, and no
    child outlives the call.  ``collect_diag``, when given, receives the
    :class:`Diagnostics` summed over all blocks, as a dict.
    """
    if n_blocks < 1:
        raise ConfigError("need n_blocks >= 1")
    if n_jobs < 1:
        raise ConfigError("need n_jobs >= 1")
    chunk = max(16, n_blocks // (4 * n_jobs) + 1)
    jobs = [(seed, lo, min(lo + chunk, n_blocks))
            for lo in range(0, n_blocks, chunk)]
    n = min(n_jobs, len(jobs)) if hasattr(os, "fork") else 1
    if n > 1:
        results = _run_forked(cfg, jobs, n)
    else:
        results = [_run_chunk(cfg, job) for job in jobs]
    blocks, diag = [], Diagnostics()
    for chunk_blocks, chunk_diag in results:
        blocks.extend(chunk_blocks)
        diag.merge(chunk_diag)
    if collect_diag is not None:
        collect_diag.update(vars(diag))
    return blocks
