"""The renewal system: band-coupled cycle processes and regeneration blocks.

Each cycle restarts a delayed comparison process at the last certified time
and surrounds its intensity with the deterministic band of width F.  The
first driving-PRM point inside the band ends the cycle; a cycle with no
band point (certified through the exact exp(-||F||_1) tail structure)
yields the regeneration time rho = alpha_eta + D.  Blocks between
consecutive regeneration times are independent and identically distributed
by construction and restart from the certified state (age D, signal
-f(t+D)) on fresh streams.
"""

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .cluster import count_updates, scan_units
from .errors import ConfigError, SimulationCapError
from .hawkes import Path, ProcessState, thin
from .kernels import (EnvelopeFns, ExponentialKernel, RateSpec, ceil_int,
                      check_subcritical, pos_part)
from .prm import PrmStream, spawn_rng, split

_SLACK = 1e-9
_ABS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Configuration and start states
# ---------------------------------------------------------------------------

@dataclass
class RenewalConfig:
    """Everything the renewal system needs, with caps and check switches.

    ``band_f_scale`` rescales the band width used by the mechanism only
    (never the theoretical laws); it exists so verification suites can
    prove their own sensitivity by breaking the construction deliberately.
    """

    kernel: object
    rate: object
    sched: object
    r: object = None
    D: float = 0.0
    p: float = 2.0
    assumption: str = "B"
    env: EnvelopeFns = None
    max_cycles: int = 10**6
    scan_cap: int = 10**6
    tail_frac: float = 1e-3
    band_f_scale: float = 1.0
    check_band: bool = True
    check_envelope: bool = True

    def __post_init__(self):
        if self.env is None:
            self.env = EnvelopeFns(self.kernel, self.rate, self.sched,
                                   r=self.r, D=self.D)
        self._t_cut = None

    @property
    def setup(self):
        return self.rate.setup

    @property
    def cycle_horizon(self):
        """Band-mass horizon past which the tail certificate takes over."""
        if self._t_cut is None:
            self._t_cut = self.env.t_cut(self.tail_frac) if self.env.F_l1 > 0 else 0.0
        return self._t_cut

    def validate(self):
        problems = list(self.rate.validate())
        c_h = None
        if self.setup == "O":
            try:
                m = check_subcritical(self.kernel, self.rate.L)
                c_h = m - math.log(m) - 1.0 if m > 0 else None
            except ConfigError as exc:
                problems.extend(exc.problems)
        problems += self.sched.check_assumption(self.setup, self.assumption,
                                                p=self.p, c_h=c_h)
        problems += self.env.validate(self.assumption, self.p)
        if self.D < 0:
            problems.append("delay D must be >= 0")
        if not (0 < self.tail_frac < 1):
            problems.append("tail_frac must be in (0, 1)")
        return problems


@dataclass
class ZStart:
    """Initial condition of a target process, with its certified alpha0.

    ``signal_upper`` is a decreasing upper envelope of the signal (used for
    domination), ``signal_abs`` a decreasing envelope of its absolute value
    (used by the post-alpha envelope checks).
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
                      signal_abs=lambda t: env.f(t + D),
                      age0=D, alpha0=0.0)

    @staticmethod
    def empty(age0=0.0):
        """No past at all: zero signal, alpha0 = 0."""
        zero = lambda t: 0.0
        return ZStart(signal=zero, signal_upper=zero, signal_abs=zero,
                      age0=age0, alpha0=0.0)


@dataclass
class CycleRecord:
    index: int
    tau_gap: float
    alpha_gap: float
    envelope_ok: bool = True
    tau_from_tail: bool = False


@dataclass
class RenewalOutcome:
    """Stopping times, regeneration point and per-cycle diagnostics."""

    alphas: list
    taus: list
    eta: int
    rho: float
    cycles: list
    zstar: Path
    track_paths: list
    band_max_low: float = -math.inf
    band_max_high: float = -math.inf
    band_violations: int = 0
    band_checks: int = 0
    envelope_failures: int = 0
    n_candidates: int = 0
    tau_tail_draws: int = 0


# ---------------------------------------------------------------------------
# Certified comparison of decreasing functions on a half line
# ---------------------------------------------------------------------------

def certify_dominated(ub, rhs, abs_tol=_ABS_TOL, rel_slack=_SLACK,
                      first_step=0.05, ratio=1.3, max_depth=14, max_iter=20000):
    """Certify that the quantity enveloped by ``ub`` stays below ``rhs``.

    ``ub(w)`` must dominate the quantity on [w, inf) and both ``ub`` and
    ``rhs`` must be decreasing; the certificate walks a geometric grid,
    comparing ub at the left end against rhs at the right end, refining on
    failure, and accepts the tail once ub falls below ``abs_tol``.
    """

    def interval_ok(lo, hi, depth):
        if ub(lo) <= rhs(hi) * (1.0 + rel_slack) + abs_tol:
            return True
        if depth <= 0:
            return False
        mid = 0.5 * (lo + hi)
        return interval_ok(lo, mid, depth - 1) and interval_ok(mid, hi, depth - 1)

    w = 0.0
    for _ in range(max_iter):
        w2 = max(w * ratio, w + first_step)
        if not interval_ok(w, w2, max_depth):
            return False  # refined bracketing still fails: treat as violation
        if ub(w2) <= abs_tol:
            return True
        w = w2
    return False


def _shift_sums(kernel, jumps, base, positive_part=False):
    """Closures w -> sum_j h(base + w - u_j) and its majorant counterpart.

    Exponential kernels reduce to a single cached coefficient.
    """
    jumps = np.asarray(jumps, dtype=float)
    if isinstance(kernel, ExponentialKernel):
        a, amp = kernel.rate, kernel.amplitude
        coef = float(np.sum(np.exp(-a * (base - jumps)))) if len(jumps) else 0.0
        amp_eff = max(amp, 0.0) if positive_part else amp
        exact = lambda w, c=coef: amp_eff * c * math.exp(-a * w)
        ub = lambda w, c=coef: abs(amp) * c * math.exp(-a * w)
        return exact, ub

    def exact(w):
        if not len(jumps):
            return 0.0
        vals = kernel.value(base + w - jumps)
        if positive_part:
            vals = np.clip(vals, 0.0, None)
        return float(np.sum(vals))

    def ub(w):
        if not len(jumps):
            return 0.0
        return float(np.sum(kernel.majorant(base + w - jumps)))

    return exact, ub


def check_envelope_inequality(env, kernel, jumps, base, signal_abs=None):
    """Certify |sum h(t-u) + R(t)| <= f(t - base) for all t > base."""
    _, ub_sum = _shift_sums(kernel, jumps, base)
    siga = signal_abs if signal_abs is not None else (lambda t: 0.0)
    ub = lambda w: ub_sum(w) + float(siga(base + w))
    return certify_dominated(ub, lambda w: env.f(w))


# ---------------------------------------------------------------------------
# The two alpha scans
# ---------------------------------------------------------------------------

def scan_alpha_AD(sched, counts, tau_gap, cap=10**6):
    """Age-dependent alpha scan via the random-exchange recursion.

    ``counts(i)`` is the refractory-bound point count on the i-th unit
    interval past the cycle start.  Returns the first integer offset past
    ceil(tau_gap) at which the chain reaches zero, which is exactly the
    first offset whose whole backward count profile fits under the
    schedule.
    """
    ceil_gap = ceil_int(tau_gap)
    try:
        return scan_units(count_updates(sched, counts), ceil_gap, cap) + ceil_gap
    except SimulationCapError as exc:
        raise SimulationCapError("age-dependent alpha scan exceeded its cap",
                                 diagnostics=exc.diagnostics) from exc


def scan_alpha_O(env, sched, kernel, zn_upto, tau_gap, cap=4000):
    """Ordinary-setup alpha scan on the dominating linear process.

    ``zn_upto(T)`` returns the (local-time) jumps of the comparison process
    on (0, T], including the initial point at ``tau_gap``.  An integer
    offset i qualifies when the jump count respects the integrated
    schedule and the shifted kernel mass of all jumps is certified below
    f(. , i-1) beyond i.
    """
    ceil_gap = ceil_int(tau_gap)
    i = ceil_gap
    while i < cap:
        i += 1
        jumps = zn_upto(float(i))
        if len(jumps) > sched.int_shifted(float(i)) + 1e-9:
            continue
        _, ub = _shift_sums(kernel, jumps, float(i), positive_part=True)
        if certify_dominated(ub, lambda w: env.f(w, i - 1.0)):
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
        self.scale = cfg.band_f_scale
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
        self.band_max_low = -math.inf
        self.band_max_high = -math.inf
        self.band_violations = 0
        self.band_checks = 0
        self.envelope_failures = 0
        self.n_candidates = 0
        self.tau_tail_draws = 0
        self.swept_to = 0.0

    # -- band helpers -------------------------------------------------------

    def _new_cycle(self, a):
        env = self.env
        self.cycle = ProcessState(
            self.cfg.kernel, self.cfg.rate,
            signal=lambda t, a=a: -env.f(max(t - a, 0.0)),
            signal_upper=lambda t: 0.0,
            age0=0.0, delay=self.cfg.D, origin=a)
        self.cycle_start = a

    def width(self, s):
        """The (scaled) band width at absolute time s."""
        return self.scale * self.env.F(s - self.cycle_start)

    def width_sup(self, t0, t1):
        a = self.cycle_start
        return self.scale * self.env.F_sup(max(t0 - a, 0.0), t1 - a)

    def _record_band(self, s, lams, width):
        # the invariant holds for the unscaled width F
        if self.scale != 1.0:
            width = self.env.F(s - self.cycle_start)
        d = lams[0] - lams[-1]
        self.band_checks += 1
        self.band_max_low = max(self.band_max_low, -d)
        self.band_max_high = max(self.band_max_high, d - width)
        if d < -_SLACK or d > width + _SLACK:
            self.band_violations += 1

    # -- joint candidate sweeps ----------------------------------------------

    def sweep(self, t_from, t_to, mode):
        """Advance all live processes on (t_from, t_to].

        mode 'free'     : tracks only, no band.
        mode 'cycle'    : band active, first band point returns as tau.
        mode 'suppress' : band active but conditioned empty; band points of
                          the driver are skipped entirely.
        Returns (s, v) for a tau event, else None.
        """
        if mode == "free":
            hit, n = thin(self.tracks, self.pi.sample, t_from, t_to)
        else:
            watch = self._record_band if self.cfg.check_band else None
            hit, n = thin(self.tracks + [self.cycle], self.pi.sample, t_from,
                          t_to, band=(self.width, self.width_sup),
                          suppress=mode == "suppress", watch=watch)
        self.n_candidates += n
        self.swept_to = t_to if hit is None else hit[0]
        return hit

    # -- tau sampling ---------------------------------------------------------

    def run_cycle(self):
        """One cycle from the last alpha; returns tau (absolute) or None."""
        a = self.alphas[-1]
        self._new_cycle(a)
        horizon = a + max(self.cfg.D, self.cfg.cycle_horizon)
        hit = self.sweep(a, horizon, "cycle")
        if hit is not None:
            s, v = hit
            return s, v, False
        m_rem = self.scale * self.env.tail_mass(horizon - a)
        if m_rem <= 0 or self.rng.random() >= 1.0 - math.exp(-m_rem):
            return None, None, False
        # a band point exists beyond the horizon: sample its time from the
        # exact conditional law and extend the simulation up to it
        self.tau_tail_draws += 1
        e = -math.log1p(-self.rng.random() * (1.0 - math.exp(-m_rem)))
        gap = self.env.inv_cum(self.env.cum_F(horizon - a) + e / self.scale)
        s = a + gap
        self.sweep(horizon, s, "suppress")
        v = self.rng.random() * self.width(s)
        z = self.cycle.lambda_at(s) + v
        for tr in self.tracks:
            if z <= tr.lambda_at(s):
                tr.add_jump(s)
        self.swept_to = s
        return s, v, True

    # -- scan drivers -----------------------------------------------------------

    def find_alpha(self, tau_abs, tau_gap):
        a = self.alphas[-1]
        cfg = self.cfg

        def band(s):
            """The cycle's band up to tau; empty after it."""
            if s > tau_abs:
                return 0.0, 0.0
            lam = self.cycle.lambda_at(s)
            return lam, lam + self.width(s)

        def read(t0, t1, zmax):
            """The post-split driver on (cycle_start, .]: swapped inside the band."""
            return split(self.pi, self.pibar, band, (t0, t1), zmax).down

        if cfg.setup == "AD":
            K = cfg.rate.K
            def counts(i):
                pts = read(a + i - 1.0, a + i, K)
                return len(pts)
            off = scan_alpha_AD(cfg.sched, counts, tau_gap, cap=cfg.scan_cap)
            return a + off
        # ordinary setup: grow the dominating linear process on demand
        env = self.env
        hplus = pos_part(cfg.kernel)
        pre_rate = RateSpec.linear(cfg.rate.c_psi, cfg.rate.L)
        def sig(t):
            w = max(t - a, 0.0)
            extra = hplus.value(t - tau_abs) if t > tau_abs else 0.0
            return env.f(w) + float(extra)
        def sig_up(t):
            w = max(t - a, 0.0)
            extra = hplus.majorant(t - tau_abs) if t > tau_abs else \
                hplus.majorant(0.0)
            return env.f(w) + float(extra)
        zpre = ProcessState(hplus, pre_rate, signal=sig, signal_upper=sig_up,
                            age0=0.0, delay=0.0, origin=a)
        state = {"frontier": a}

        def zn_upto(T_local):
            target = a + T_local
            if target > state["frontier"]:
                thin([zpre], read, state["frontier"], target)
                state["frontier"] = target
            local = np.array([u - a for u in zpre.jumps if u <= target + 1e-12])
            return np.sort(np.append(local, tau_gap))

        off = scan_alpha_O(env, cfg.sched, cfg.kernel, zn_upto, tau_gap,
                           cap=cfg.scan_cap)
        return a + off

    # -- envelope check -----------------------------------------------------------

    def check_envelope(self, alpha):
        ok_all = True
        for tr, st in zip(self.tracks, self.starts):
            jumps = np.array([u for u in tr.jumps if u <= alpha + 1e-12])
            ok = check_envelope_inequality(self.env, self.cfg.kernel, jumps,
                                           alpha, signal_abs=st.signal_abs)
            if not ok:
                ok_all = False
                self.envelope_failures += 1
        return ok_all


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
    tau_rng : Generator for the tail certificates (derived from pi's seed
        when omitted).
    extend_after : continue all target processes this far past rho
        (band-suppressed, which is their exact conditional law).

    Returns a :class:`RenewalOutcome`.
    """
    starts = [start if start is not None else ZStart.atom(cfg.env)]
    starts += list(extra_starts)
    if tau_rng is None:
        tau_rng = spawn_rng(pi.seed, pi.stream, 0x7A0)
    eng = _Engine(cfg, pi, pibar, starts, tau_rng)

    if eng.alpha0 > 0:
        eng.sweep(0.0, eng.alpha0, "free")
        if cfg.check_envelope:
            eng.check_envelope(eng.alpha0)

    eta = None
    for n in range(1, cfg.max_cycles + 1):
        s_tau, v, from_tail = eng.run_cycle()
        if s_tau is None:
            eng.taus.append(math.inf)
            eta = n - 1
            break
        a_prev = eng.alphas[-1]
        eng.taus.append(s_tau)
        alpha = eng.find_alpha(s_tau, s_tau - a_prev)
        eng.sweep(s_tau, alpha, "free")
        env_ok = eng.check_envelope(alpha) if cfg.check_envelope else True
        eng.alphas.append(alpha)
        eng.cycles.append(CycleRecord(
            index=n, tau_gap=s_tau - a_prev, alpha_gap=alpha - s_tau,
            envelope_ok=env_ok, tau_from_tail=from_tail))
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
        if end > eng.swept_to:
            eng.sweep(eng.swept_to, end, "suppress")
    track_paths = [
        Path(np.array([u for u in tr.jumps if u <= end + 1e-12]), horizon=end)
        for tr in eng.tracks
    ]
    return RenewalOutcome(
        alphas=eng.alphas, taus=eng.taus, eta=eta, rho=rho, cycles=eng.cycles,
        zstar=track_paths[0], track_paths=track_paths,
        band_max_low=eng.band_max_low, band_max_high=eng.band_max_high,
        band_violations=eng.band_violations, band_checks=eng.band_checks,
        envelope_failures=eng.envelope_failures,
        n_candidates=eng.n_candidates, tau_tail_draws=eng.tau_tail_draws)


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


def merge_diag(total, part):
    """Fold the diagnostics dict ``part`` into ``total``: counts add up, band
    excursions take the maximum."""
    for key in ("band_violations", "band_checks", "envelope_failures",
                "n_candidates", "tau_tail_draws"):
        total[key] = total.get(key, 0) + part[key]
    for key in ("band_max_low", "band_max_high"):
        total[key] = max(total.get(key, part[key]), part[key])
    return total


def _run_chunk(cfg, job):
    """Blocks lo..hi-1 of stream ``seed`` and their summed diagnostics."""
    seed, lo, hi = job
    blocks, diag = [], {}
    for i in range(lo, hi):
        out = run_system(cfg, PrmStream(seed, stream=3 * i),
                         PrmStream(seed, stream=3 * i + 1),
                         tau_rng=spawn_rng(seed, i, 0x7A1))
        blocks.append(Block(out.rho, out.zstar, out.eta, out.cycles))
        merge_diag(diag, vars(out))
    return blocks, diag


_worker_cfg = None  # set only inside fork workers, by the pool initializer


def _init_worker(cfg):
    global _worker_cfg
    _worker_cfg = cfg


def _worker_chunk(job):
    return _run_chunk(_worker_cfg, job)


def iterate_regenerations(cfg, n_blocks, seed=0, n_jobs=1, collect_diag=None):
    """Generate i.i.d. regeneration blocks.

    Block i restarts from the certified regeneration state on fresh streams
    keyed by (seed, i).  Chunks of blocks run on ``n_jobs`` fork workers (in
    this process when n_jobs is 1) and are merged in block order, so the
    worker count never changes the output.  ``collect_diag``, when given,
    receives the diagnostics summed over all blocks.
    """
    if n_blocks < 1:
        raise ConfigError("need n_blocks >= 1")
    chunk = max(16, n_blocks // (4 * n_jobs) + 1)
    jobs = [(seed, lo, min(lo + chunk, n_blocks))
            for lo in range(0, n_blocks, chunk)]
    ctx = None
    if n_jobs > 1 and len(jobs) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # no fork on this platform: run in process
            pass
    if ctx is None:
        results = map(lambda job: _run_chunk(cfg, job), jobs)
    else:
        with ctx.Pool(min(n_jobs, len(jobs)), initializer=_init_worker,
                      initargs=(cfg,)) as pool:
            results = pool.map(_worker_chunk, jobs)
    blocks, diag = [], {}
    for chunk_blocks, chunk_diag in results:
        blocks.extend(chunk_blocks)
        merge_diag(diag, chunk_diag)
    if collect_diag is not None:
        collect_diag.update(diag)
    return blocks
