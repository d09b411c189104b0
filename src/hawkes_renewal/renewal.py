"""The renewal system: band-coupled cycle processes and regeneration blocks.

Each cycle restarts the comparison process at the last certified time
alpha: it is the regeneration atom (age D, signal -f(w + D) at w past its
origin) restarted at alpha + D, silent on the delay, and its intensity is
surrounded by the deterministic band of width F.  The
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
that atom on fresh streams.
"""

import math
import os
import pickle
import signal
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError, IntegrabilityError, SimulationCapError
from .hawkes import Path, ProcessState, ZStart, _shifted, thin
from .kernels import (EnvelopeFns, ExpDecay, ExponentialKernel, PowerLawKernel,
                      TableKernel, borel_c_h, ceil_int, pos_part)
from .prm import PrmStream, derive_key, rekey, spawn_rng, split, swapped_in
from .reprocess import step

_SLACK = 1e-9
_ABS_TOL = 1e-12
# SimulationCapError past this many cycles in a block, or offsets in an alpha scan
_MAX_CYCLES = 10**6
_SCAN_CAP = 10**6


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------

@dataclass
class RenewalConfig:
    """Everything the renewal system needs; ``env`` is built from the other
    fields, ``r`` is None or an :class:`ExpDecay`.  A cycle draws tau from
    the band's exact law, of total mass ``env.F_l1``."""

    kernel: object
    rate: object
    sched: object
    r: object = None
    D: float = 0.0
    p: float = 2.0
    assumption: str = "B"
    env: EnvelopeFns = field(init=False)

    def __post_init__(self):
        self.env = EnvelopeFns(self.kernel, self.rate, self.sched,
                               r=self.r, D=self.D)
        # (kernel, rate) of setup O's dominating linear process Z^n: h_+
        # and the rate itself, which is linear there
        self.zn_model = (pos_part(self.kernel), self.rate) if self.setup == "O" else None

    @property
    def setup(self):
        return self.rate.setup

    @cached_property
    def zstarts(self):
        """The atom and Z^n's envelope start (setup O), built on first use."""
        return ZStart.atom(self.env), ZStart.envelope(self.env) if self.zn_model else None

    @property
    def cycle_horizon(self):
        """0.0: every tau is drawn from its exact law, so no cycle sweeps
        the band to a horizon first.  Kept for the benchmark's set-up
        timing, which reads it."""
        return 0.0

    def validate(self):
        """The named problems of the config, in order: r, delta, setup O's
        L ||h+|| < 1, then assumption A or B (the schedule's growth, then the
        moments of f and F) by the rule of README's "Assumptions A and B";
        none needs a quadrature but ||F||_1's, read once all else holds."""
        problems, r, k, sched, p = [], self.r, self.kernel, self.sched, self.p
        if r is not None:
            if not isinstance(r, ExpDecay):
                return ["start bound r must be an ExpDecay c exp(-rate t)"]
            if not r.c >= 0:
                problems.append("start bound r must be >= 0")
            if not r.rate > 0:
                problems.append("start bound r must decrease: rate > 0")
            if math.inf in (r.c, r.rate):
                problems.append("start bound r must be finite")
        inv = 1.0 / self.rate.delta  # 0 in setup O, where delta is inf
        if abs(inv - round(inv)) > 1e-9:
            problems.append("delta must be the reciprocal of an integer")
        c_h = 0.0  # the Borel threshold m - ln(m) - 1 of setup O's m = L ||h+||
        if self.setup == "O":
            m = self.rate.L * k.pos_l1
            if m >= 1.0:
                problems.append(f"L*||h_+|| = {m:g} >= 1: not subcritical for an "
                                f"ordinary Hawkes setup")
            elif m > 0:
                c_h = borel_c_h(m)
        grows, linear = sched.C > 1e-12, sched.form == "linear"
        if self.assumption == "B":
            if not (linear and grows):
                problems.append("gamma(t)/t not bounded below (assumption B)")
        elif self.assumption != "A":
            problems.append(f"unknown assumption {self.assumption!r}")
        elif p is None:
            problems.append("assumption A needs the moment order p")
        elif self.setup == "O":
            if not c_h > 0:
                problems.append("setup O assumption A needs c_h > 0")
            elif not grows or not (linear or sched.C * c_h > p + 1.0):
                problems.append("gamma(t) must exceed (p+1)ln(t)/c_h (setup O)")
        elif not grows:
            problems.append("gamma(t)/ln(t) not bounded below (setup AD)")
        power = isinstance(k, PowerLawKernel) and k.amplitude != 0
        if not isinstance(k, (ExponentialKernel, PowerLawKernel, TableKernel)):
            problems.append(f"no integrability rule for a {type(k).__name__} kernel")
        elif self.assumption != "A":
            rates = [k.rate] if isinstance(k, ExponentialKernel) and k.amplitude != 0 else []
            rates += [r.rate] if r is not None and r.c != 0 else []
            if power or not all(a > 0.05 for a in rates):
                problems.append("F lacks an exponential moment (assumption B)")
        elif p is not None:  # a missing p is named above
            if not p > -1.0:
                problems.append("assumption A needs p > -1")
            elif power and not k.exponent > p + (3.0 if linear else 2.0):
                names = ["t^p f", "t^p F"] if self.rate.L > 0 else ["t^p f"]
                problems += [f"{name} not integrable (assumption A)" for name in names]
        if not 0 <= self.D < math.inf:
            problems.append("delay D must be finite and >= 0")
        if p is not None and not math.isfinite(p):  # coupling reads p under A or B
            problems.append("moment order p must be finite")
        if not problems:
            # eta is geometric: P(a block passes the cap) <= exp(-_MAX_CYCLES / cycles)
            try:
                m = self.env.F_l1
            except IntegrabilityError as exc:  # e^a past the float range, say
                return [f"||F||_1 has no finite value: {exc}"]
            cycles = math.exp(m) if m < 709.0 else math.inf
            if _MAX_CYCLES < 20.0 * cycles:
                problems.append(f"||F||_1 = {m:.4g}: a block needs e^||F||_1 = {cycles:.3g} "
                                f"cycles on average, more than 1/20 of the cycle "
                                f"cap {_MAX_CYCLES:g}")
        return problems


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
        for name, is_float in _DIAG_FIELDS:
            mine, theirs = getattr(self, name), getattr(other, name)
            setattr(self, name, max(mine, theirs) if is_float else mine + theirs)
        return self


_DIAG_FIELDS = [(f.name, f.type is float) for f in fields(Diagnostics)]


@dataclass(kw_only=True)
class RenewalOutcome(Diagnostics):
    """Stopping times, regeneration point, per-cycle records and the
    engine's counters."""

    alphas: list
    taus: list
    eta: int
    rho: float
    cycles: list
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

    When both are :class:`ExpDecay` of one rate a, the verdict is the test
    at w = 0 alone, c_ub <= c_rhs (1 + 1e-9) + 1e-12, which holds exactly when
    ub(w) <= rhs(w) (1 + 1e-9) + 1e-12 for every w >= 0 (multiply by
    e^{-aw} <= 1); it counts one point.  Every certificate the walk below
    accepts is accepted.

    Otherwise the walk covers the grid w_0 = 0,
    w_{k+1} = max(1.3 w_k, w_k + 0.05), requiring
    ub(lo) <= rhs(hi) (1 + 1e-9) + 1e-12 on each interval (lo, hi) and
    bisecting a failing one depth first to depth 14, with ub(lo) and rhs(hi)
    carried down so that no point is evaluated twice.  It accepts at the
    first k >= 1 with ub(w_k) <= 1e-12 and fails at the first infinite w_k.
    """
    def holds(u, r):
        return u <= r * (1.0 + _SLACK) + _ABS_TOL

    if isinstance(ub, ExpDecay) and isinstance(rhs, ExpDecay) and ub.rate == rhs.rate:
        return Certificate(bool(holds(ub.c, rhs.c)), 1)
    points = 0

    def at(fn, w):
        nonlocal points
        points += 1
        return fn(w)

    def interval_ok(lo, hi, u_lo, r_hi, depth):
        mid = 0.5 * (lo + hi)
        return holds(u_lo, r_hi) or (
            depth > 0
            and interval_ok(lo, mid, u_lo, at(rhs, mid), depth - 1)
            and interval_ok(mid, hi, at(ub, mid), r_hi, depth - 1))

    lo, u_lo = 0.0, at(ub, 0.0)
    while math.isfinite(lo):  # the grid ends at its first infinite point
        hi = max(lo * 1.3, lo + 0.05)
        if not interval_ok(lo, hi, u_lo, at(rhs, hi), _DEPTH):
            return Certificate(False, points)
        lo, u_lo = hi, at(ub, hi)
        if u_lo <= _ABS_TOL:
            return Certificate(True, points)
    return Certificate(False, points)


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

def scan_alpha_AD(sched, counts, tau_gap, cap=_SCAN_CAP):
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


def scan_alpha_O(env, sched, zn, tau_gap, cap=_SCAN_CAP, certs=None):
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
        self.atom, self.zn_start = cfg.zstarts
        self.starts = starts if starts is not None else [self.atom]
        self.tracks = [ProcessState(cfg.kernel, cfg.rate, s) for s in self.starts]
        self.alphas = [0.0]
        self.taus = []
        self.cycles = []
        self.cycle = None       # current/last comparison process
        self.cycle_start = None
        self.zn = None          # the cycle's dominating linear process Z^n
        self.diag = Diagnostics()

    # -- band helpers -------------------------------------------------------

    def _new_cycle(self, a):
        cfg = self.cfg
        # the regeneration state, restarted after the delay
        self.cycle = ProcessState(cfg.kernel, cfg.rate, self.atom, origin=a + cfg.D)
        self.cycle_start = a
        if cfg.zn_model is not None:
            self.zn = ProcessState(*cfg.zn_model, self.zn_start, origin=a)

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

            alpha = a + scan_alpha_AD(cfg.sched, counts, tau_gap)
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
        off = scan_alpha_O(self.env, cfg.sched, zn_at, tau_gap, certs=certs)
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


def run_system(cfg, pi, pibar, starts=None, tau_rng=None, extend_after=0.0):
    """Run the renewal system to its regeneration time.

    Parameters
    ----------
    cfg : RenewalConfig
    pi, pibar : the two independent driving PRM streams.
    starts : the :class:`ZStart` of each target process at alpha_0 = 0,
        all sharing pi and the stopping times (default: the regeneration
        state alone); the band checks read the first.
    tau_rng : Generator for the tau draws (derived from pi's seed when
        omitted).
    extend_after : continue all target processes this far past rho
        (band points skipped, which is their exact conditional law).

    The tracks are swept up to alpha_eta, or with ``extend_after`` up to
    rho + extend_after: on (alpha_eta, rho] they have no event, as the last
    cycle has no band point and their intensities lie in the band.
    Returns a :class:`RenewalOutcome`.
    """
    if tau_rng is None:
        tau_rng = spawn_rng(pi.seed, pi.stream, 0x7A0)
    eng = _Engine(cfg, pi, pibar, starts, tau_rng)
    eta = None
    for n in range(1, _MAX_CYCLES + 1):
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
            f"no regeneration within {_MAX_CYCLES} cycles "
            f"(expected about exp(||F||_1) = {math.exp(cfg.env.F_l1):.3g})")

    rho = eng.alphas[-1] + cfg.D
    eng.cycles.append(CycleRecord(index=eta + 1, tau_gap=math.inf,
                                  alpha_gap=math.inf))
    end = rho
    if extend_after > 0:
        end = rho + extend_after
        eng.sweep(eng.alphas[-1], end, True)
    track_paths = [
        Path([u for u in tr.jumps if u <= end + 1e-12], horizon=end)
        for tr in eng.tracks
    ]
    return RenewalOutcome(
        alphas=eng.alphas, taus=eng.taus, eta=eta, rho=rho, cycles=eng.cycles,
        track_paths=track_paths, **vars(eng.diag))


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


def _run_chunk(cfg, job):
    """Blocks lo..hi-1 of stream ``seed`` and their summed diagnostics."""
    seed, lo, hi = job
    blocks, diag = [], Diagnostics()
    # one tail generator, re-keyed per block as PRM cells are: it draws as
    # spawn_rng(seed, i, 0x7A1) would
    tau_rng = np.random.Generator(np.random.Philox(key=0))
    for i in range(lo, hi):
        rekey(tau_rng.bit_generator, derive_key(seed, i, 0x7A1))
        out = run_system(cfg, PrmStream(seed, stream=3 * i),
                         PrmStream(seed, stream=3 * i + 1), tau_rng=tau_rng)
        blocks.append(Block(out.rho, out.track_paths[0], out.eta, out.cycles))
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
