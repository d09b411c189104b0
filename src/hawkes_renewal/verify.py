"""End-to-end verification suites.

Each suite returns a list of :class:`~hawkes_renewal.stats.TestReport`;
gating reports decide exit codes, informational ones never do.  The suites
run the exact-law checks of the regeneration construction at configurable
ensemble sizes, so the command-line ``verify`` and the acceptance tests
share one implementation.
"""

import inspect
import logging
import math
import time

import numpy as np

from .cluster import BorelLaw, simulate_cluster
from .errors import ConfigError, DominationError
from .hawkes import simulate_adhp
from .kernels import ExponentialKernel, GammaSchedule, RateSpec
from .prm import PrmStream, spawn_rng, split
from .renewal import RenewalConfig, iterate_regenerations
from .reprocess import REChain, return_time, invariant_cdf
from .stats import (TestReport, _norm_sf, blocks_until, chi2_gof, chi2_two_sample,
                    clt_time_average, coupling_experiment, functional_clt_paths,
                    half_sample_stability, ks_against, lil_envelope,
                    poisson_dispersion, se_bound_report)

log = logging.getLogger("hawkes_renewal")


# ---------------------------------------------------------------------------
# Reference configurations
# ---------------------------------------------------------------------------

def reference_ad_config(D=0.0, **overrides):
    """Age-dependent reference: exponential kernel, refractory-gated linear
    rate, linear schedule (exponential-moment assumption)."""
    base = dict(
        kernel=ExponentialKernel(rate=1.0, amplitude=0.2),
        rate=RateSpec.refractory_linear(c=0.5, L=0.4, delta=1.0),
        sched=GammaSchedule.linear(1.0),
        D=D, p=2.0, assumption="B",
    )
    base.update(overrides)
    return RenewalConfig(**base)


def reference_o_config(D=0.0, **overrides):
    """Ordinary-setup reference: subcritical linear rate."""
    base = dict(
        kernel=ExponentialKernel(rate=1.0, amplitude=0.3),
        rate=RateSpec.linear(c=0.5, L=1.0),
        sched=GammaSchedule.linear(1.0),
        D=D, p=2.0, assumption="B",
    )
    base.update(overrides)
    return RenewalConfig(**base)


def reference_ad_config_power_moment(D=0.0):
    """Age-dependent variant under the power-moment assumption (log schedule)."""
    return reference_ad_config(
        D=D, assumption="A", p=2.0, sched=GammaSchedule.log(C=3.0))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_renewal(cfg=None, n_cycles=10**4, n_blocks=10**4, seed=11, n_jobs=1,
                  alpha=0.01):
    """Exact-law and pathwise checks on one block ensemble.

    Covers the infinite-gap frequency, the conditional gap law, the
    geometric regeneration index, the pathwise band and envelope
    certificates, the band points skipped below the drawn gaps, and block
    independence.
    """
    cfg = cfg if cfg is not None else reference_ad_config(D=0.0)
    diag = {}
    cycles_missing = lambda bs: max(n_cycles - sum(b.eta + 1 for b in bs),
                                    n_blocks - len(bs))
    blocks = blocks_until(cfg, cycles_missing, seed, n_jobs=n_jobs,
                          first=n_blocks, size=lambda b: b.eta + 1,
                          collect_diag=diag)
    q = math.exp(-cfg.env.F_l1)
    taus = np.array([c.tau_gap for b in blocks for c in b.cycles])
    gaps = taus[np.isfinite(taus)]  # one certified alpha per finite gap
    n_cyc, n_inf = len(taus), len(taus) - len(gaps)
    reports = []
    se = math.sqrt(q * (1 - q) / n_cyc)
    reports.append(se_bound_report(
        "tau-infinite-frequency", n_inf / n_cyc, q, se, n=n_cyc,
        detail=f"freq={n_inf / n_cyc:.5f} exp(-||F||)={q:.5f}"))
    denom = 1.0 - q
    cdf = lambda t: (1.0 - np.exp(-np.vectorize(cfg.env.cum_F)(t))) / denom
    reports.append(ks_against(gaps, cdf, alpha=alpha,
                              name="tau-gap-conditional-law"))
    etas = np.array([b.eta for b in blocks])
    kmax = int(etas.max()) + 1
    obs = np.bincount(etas, minlength=kmax + 1)
    probs = q * (1 - q) ** np.arange(kmax + 1)
    probs[-1] = (1 - q) ** kmax  # tail bucket
    reports.append(chi2_gof(obs, probs, alpha=alpha, name="eta-geometric"))
    reports.append(TestReport(
        name="band-invariant", statistic=float(diag["band_violations"]),
        p_value=float("nan"), n=diag["band_checks"],
        passed=diag["band_violations"] == 0,
        detail=f"checks={diag['band_checks']} "
               f"max_low={diag['band_max_low']:.3g} "
               f"max_high={diag['band_max_high']:.3g}"))
    # a drawn gap g is reached by a band sweep from the cycle start; the
    # band points it skips are Poisson with mean cum_F(g), as the band
    # width is deterministic
    skipped_mean = sum(cfg.env.cum_F(g) for g in gaps)
    reports.append(se_bound_report(
        "band-skipped-count", float(diag["band_skipped"]), skipped_mean,
        math.sqrt(skipped_mean), n=len(gaps),
        detail=f"skipped={diag['band_skipped']} expected={skipped_mean:.5g} "
               f"over {len(gaps)} drawn gaps"))
    reports.append(TestReport(
        name="envelope-certificate", statistic=float(diag["envelope_failures"]),
        p_value=float("nan"), n=len(gaps),
        passed=diag["envelope_failures"] == 0))
    counts = np.array([b.n_events for b in blocks], dtype=float)[: n_blocks]
    lens = np.array([b.rho for b in blocks], dtype=float)[: n_blocks]
    thresh = 3.0 / math.sqrt(len(counts))
    for name, x in [("block-count-correlation", counts),
                    ("block-length-correlation", lens)]:
        # a side of equal values (a few blocks alike) has no covariance
        r = float(np.corrcoef(x[:-1], x[1:])[0, 1]) if np.ptp(x[:-1]) * np.ptp(x[1:]) else 0.0
        reports.append(TestReport(
            name=name, statistic=r,
            p_value=2.0 * _norm_sf(abs(r) * math.sqrt(len(x) - 1)),
            n=len(x), passed=abs(r) < thresh, detail=f"|r| < {thresh:.4f}"))
    if cfg.D > 0:
        gap_events = max(b.path.count(b.rho - cfg.D, b.rho) for b in blocks)
        reports.append(TestReport(
            name="regeneration-gap-empty", statistic=float(gap_events),
            p_value=float("nan"), n=len(blocks), passed=gap_events == 0))
        w = [b.path.count(b.rho - cfg.D - 1.0, b.rho - cfg.D) for b in blocks]
        h = len(w) // 2
        reports.append(chi2_two_sample(w[:h], w[h:], alpha=alpha,
                                       name="terminal-window-stationarity"))
    return reports


def suite_coupling(cfg=None, n_runs=10**3, seed=7):
    cfg = cfg if cfg is not None else reference_ad_config(D=0.0)
    reports, _ = coupling_experiment(cfg, n_runs=n_runs, seed=seed)
    return reports


def suite_thinning(n_runs=10**3, seed=3):
    """Exact equivalence of the windowed thinning simulation against a
    brute-force replay of the thinning definition, global bound 12 on (0, 20]."""
    horizon, bound = 20.0, 12.0
    kernel = ExponentialKernel(rate=1.0, amplitude=0.2)
    rate = RateSpec.refractory_linear(c=0.5, L=0.4, delta=1.0)
    mismatches = 0
    checked = 0
    for r in range(n_runs):
        pi = PrmStream(seed, stream=700 + r)
        pts = pi.sample(0.0, horizon, bound)
        events = []
        for s, z in pts:
            if events:
                age = s - events[-1]
                mem = 0.2 * float(np.sum(np.exp(-(s - np.array(events)))))
            else:
                age = s
                mem = 0.0
            lam = rate.psi(mem, age)
            if lam > bound:
                raise DominationError(f"thinning oracle: intensity {lam:.6g} > {bound:g}", s)
            if z <= lam:
                events.append(s)
        path = simulate_adhp(pi, kernel, rate, horizon=horizon)
        checked += len(events)
        if not np.array_equal(np.array(events), path.times):
            mismatches += 1
    return [TestReport(
        name="thinning-oracle-equivalence", statistic=float(mismatches),
        p_value=float("nan"), n=n_runs, passed=mismatches == 0,
        detail=f"{checked} events compared")]


def suite_prm_split(seed=5, alpha=0.01):
    """Independence and marginal-law checks for the split measures on
    (0, 10^4], including a history-dependent predictable band."""
    import scipy.stats
    horizon = 10**4
    pi = PrmStream(seed, stream=1)
    pibar = PrmStream(seed, stream=2)
    res = split(pi, pibar, lambda t: (1.0, 2.0), (0.0, float(horizon)), 3.0)
    nbin = 100
    w = horizon / nbin
    edges = np.arange(0.0, horizon + w, w)
    down, up = (np.array(pts).reshape(-1, 2) for pts in (res.down, res.up))
    down, up = down[down[:, 1] <= 1.0], up[up[:, 1] <= 1.0]
    dcounts, _ = np.histogram(down[:, 0], bins=edges)
    ucounts, _ = np.histogram(up[:, 0], bins=edges)
    reports = [poisson_dispersion(dcounts, alpha=alpha, name="split-down-dispersion"),
               poisson_dispersion(ucounts, alpha=alpha, name="split-up-dispersion")]
    def quartile_table(a, b):
        # degenerate quantile edges (small integer counts) are merged, and
        # the table has a row or column only for a quartile that occurs
        def cats(x):
            return np.digitize(x, np.unique(np.quantile(x, [0.25, 0.5, 0.75])))
        return scipy.stats.contingency.crosstab(cats(a), cats(b)).count
    stat, p, _, _ = scipy.stats.chi2_contingency(quartile_table(dcounts, ucounts))
    reports.append(TestReport(
        name="split-independence", statistic=float(stat), p_value=float(p),
        n=nbin, passed=p >= alpha))
    # predictable band: each window's band level depends on past split output
    mark_cut = 0.5
    d2, u2 = [], []
    pi2 = PrmStream(seed, stream=11)
    pibar2 = PrmStream(seed, stream=12)
    level = 0.5
    for k in range(2000):
        r = split(pi2, pibar2, lambda t, lv=level: (lv, lv + 1.0),
                  (float(k), float(k + 1.0)), 4.0)
        d2.append(sum(z <= mark_cut for _, z in r.down))
        u2.append(sum(z <= 1.0 for _, z in r.up))
        level = 0.5 + (d2[-1] % 2)  # predictable: measurable w.r.t. the past
    u2 = np.array(u2)
    d2 = np.array(d2)
    reports.append(poisson_dispersion(u2, alpha=alpha,
                                      name="split-predictable-up-dispersion"))
    stat, p, _, _ = scipy.stats.chi2_contingency(quartile_table(d2, u2))
    reports.append(TestReport(
        name="split-predictable-independence", statistic=float(stat),
        p_value=float(p), n=len(u2), passed=p >= alpha))
    return reports


def suite_borel(n_clusters=10**5, seed=13, alpha=0.01):
    law = BorelLaw(0.5)  # mean offspring
    kernel = ExponentialKernel(rate=1.0, amplitude=law.m)
    rng = spawn_rng(seed, 0xB0)
    ws = np.array([simulate_cluster(kernel, 1.0, rng).W for _ in range(n_clusters)])
    nmax = law.truncation_size(1e-9)
    kcap = min(int(ws.max()), 200)
    obs = np.bincount(np.minimum(ws, kcap + 1), minlength=kcap + 2)[1:]
    probs = law.pmf_vector(kcap)
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
    reports = [chi2_gof(obs, probs, alpha=alpha, name="borel-total-progeny")]
    mass = law.pmf_vector(nmax).sum()
    reports.append(TestReport(
        name="borel-truncated-mass", statistic=float(mass), p_value=float("nan"),
        n=nmax, passed=mass >= 1.0 - 1e-9, detail=f"N={nmax}"))
    reports.append(se_bound_report(
        "borel-mean-size", float(ws.mean()), 1.0 / (1.0 - law.m),
        float(ws.std(ddof=1)) / math.sqrt(n_clusters), n=n_clusters))
    return reports


def suite_re_chain(n_steps=10**6, n_kac=10**5, seed=17, alpha=0.01):
    """Invariant product law and the Kac identity for the exchange chain.

    Occupation counts take every 25th state, beyond the chain's mixing time,
    so the chi-square null is calibrated (consecutive states are dependent).
    """
    import scipy.stats
    lam = 0.7
    chain = REChain(cdf=lambda k: float(scipy.stats.poisson.cdf(k, lam)),
                    sampler=lambda rng, size=None: rng.poisson(lam, size=size))
    rng = spawn_rng(seed, 0x8E)
    traj = chain.run(0, n_steps, rng)[1:][::25]
    kmax = int(traj.max())
    obs = np.bincount(traj, minlength=kmax + 1)
    mu = np.array([invariant_cdf(chain, k) for k in range(kmax + 1)])
    probs = np.diff(np.concatenate([[0.0], mu]))
    probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
    obs = np.append(obs, 0)
    reports = [chi2_gof(obs, probs, alpha=alpha, name="re-invariant-occupation")]
    sig = np.array([return_time(chain, 0, rng) for _ in range(n_kac)], dtype=float)
    mu0 = invariant_cdf(chain, 0)
    reports.append(se_bound_report(
        "re-kac-identity", float(sig.mean()) * mu0, 1.0,
        float(sig.std(ddof=1)) * mu0 / math.sqrt(n_kac), n=n_kac,
        detail=f"E0[sigma]={sig.mean():.4f} mu(0)={mu0:.4f}"))
    return reports


def suite_clt(cfg=None, n_blocks=32 * 1000, rep_blocks=32, seed=23, n_jobs=1,
              alpha=0.01):
    cfg = cfg if cfg is not None else reference_ad_config(D=1.0)
    _, reports = clt_time_average(cfg, n_blocks=n_blocks, rep_blocks=rep_blocks,
                                  seed=seed, n_jobs=n_jobs, alpha=alpha)
    return reports


def suite_fclt(cfg=None, n=200, n_paths=400, seed=29, n_jobs=1, alpha=0.01):
    cfg = cfg if cfg is not None else reference_ad_config(D=1.0)
    _, _, reports = functional_clt_paths(cfg, n=n, n_paths=n_paths, seed=seed,
                                         n_jobs=n_jobs, alpha=alpha)
    return reports


def suite_lil(cfg=None, n_max=10**5, seed=31, n_jobs=1):
    cfg = cfg if cfg is not None else reference_ad_config(D=1.0)
    return lil_envelope(cfg, n_max=n_max, seed=seed, n_jobs=n_jobs)


def suite_moments(n_small=2000, seed=37, n_jobs=1):
    """Moment stability of rho under doubling, per assumption flavor."""
    cfg_a = reference_ad_config_power_moment(D=0.0)
    blocks = iterate_regenerations(cfg_a, 2 * n_small, seed=seed, n_jobs=n_jobs)
    rhos = np.array([b.rho for b in blocks], dtype=float)
    power = half_sample_stability("rho-power-moment-stability", rhos ** cfg_a.p,
                                  f"p={cfg_a.p:g}")
    cfg_b = reference_ad_config(D=0.0)
    blocks = iterate_regenerations(cfg_b, 4 * n_small, seed=seed + 1, n_jobs=n_jobs)
    rhos = np.array([b.rho for b in blocks], dtype=float)
    # the regeneration-time tail rate here is ~0.08, so 0.05 sits safely
    # inside the domain where the exponential moment is finite
    c = 0.05
    return [power, half_sample_stability("rho-exponential-moment-stability",
                                         np.exp(c * rhos), f"c={c:g}")]


SUITES = {
    "renewal": suite_renewal,
    "coupling": suite_coupling,
    "thinning": suite_thinning,
    "prm-split": suite_prm_split,
    "borel": suite_borel,
    "re-chain": suite_re_chain,
    "clt": suite_clt,
    "fclt": suite_fclt,
    "lil": suite_lil,
    "moments": suite_moments,
}


def run_suites(names=None, sizes=None, n_jobs=1, cfg=None):
    """Run the named suites (all by default) and return their reports.

    ``sizes`` maps suite name -> dict of keyword overrides.  ``cfg``, a
    :class:`RenewalConfig`, replaces the reference model of the suites that
    take one (renewal, coupling, clt, fclt and lil); the others run their
    own fixed models, and with a ``cfg`` their detail lines say so.  Each
    suite's name and time are logged at INFO level.
    """
    names = list(SUITES) if names is None else list(names)
    sizes = sizes or {}
    reports = []
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        kw = dict(sizes.get(name, {}))
        params = inspect.signature(SUITES[name]).parameters
        if "n_jobs" in params:
            kw.setdefault("n_jobs", n_jobs)
        if cfg is not None and "cfg" in params:
            kw["cfg"] = cfg
        t0 = time.perf_counter()
        out = SUITES[name](**kw)
        if cfg is not None and "cfg" not in params:
            for r in out:
                r.detail = f"{r.detail} [ran its own fixed model, not the config file's]".lstrip()
        reports.extend(out)
        log.info("suite %s: %.2f s", name, time.perf_counter() - t0)
    return reports
