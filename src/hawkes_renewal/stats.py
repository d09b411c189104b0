"""Regeneration-block statistics.

Coupling-time experiments, time-average and functional central limit
estimation over blocks, and a weak iterated-logarithm diagnostic.  The
invariant mean is always estimated by the renewal-reward ratio of sums over
blocks, which is exact for regeneration blocks.
"""

import logging
import math
import statistics
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .prm import PrmStream, derive_key, spawn_rng
from .hawkes import ZStart
from .renewal import Diagnostics, iterate_regenerations, run_system

log = logging.getLogger("hawkes_renewal")
MIN_EXPECTED = 5.0  # the least expected count of a pooled chi-square cell
_BATCH = 64  # units per batch of the batch-means variance estimate


@dataclass
class TestReport:
    """One statistical check: statistic, p-value and verdict."""

    __test__ = False  # not a pytest case despite the name

    name: str
    statistic: float
    p_value: float
    n: int
    passed: bool
    alpha: float = 0.01
    gating: bool = True
    detail: str = ""


def write_reports(reports, fh):
    fh.write("test,statistic,p_value,n,pass\n")
    for r in reports:
        stat = "inf" if math.isinf(r.statistic) else f"{r.statistic:.12g}"
        pv = "" if r.p_value is None or math.isnan(r.p_value) else f"{r.p_value:.12g}"
        fh.write(f"{r.name},{stat},{pv},{r.n},{int(bool(r.passed))}\n")


def summarize(reports):
    lines = []
    for r in reports:
        tag = "PASS" if r.passed else ("info" if not r.gating else "FAIL")
        pv = "-" if r.p_value is None or math.isnan(r.p_value) else f"{r.p_value:.4g}"
        lines.append(f"[{tag}] {r.name}: stat={r.statistic:.4g} p={pv} n={r.n} {r.detail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Small test helpers
# ---------------------------------------------------------------------------

def _norm_sf(z):
    """The standard normal upper tail P(N > z) of a float, or of each
    entry of an array."""
    if isinstance(z, np.ndarray):
        return np.array([_norm_sf(v) for v in z.tolist()])
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ad_normality(x, alpha=0.01, name="anderson-darling"):
    """Anderson-Darling normality check with the D'Agostino p approximation."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    # as scipy.stats.anderson(x, "norm"), whose critical_values is deprecated
    w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
    terms = np.log(_norm_sf(-w)) + np.log(_norm_sf(w))[::-1]
    stat = float(-n - np.sum((2 * np.arange(1, n + 1) - 1.0) / n * terms))
    crit = round(1.035 / (1.0 + 0.75 / n + 2.25 / n**2), 3)
    a2 = stat * (1.0 + 0.75 / n + 2.25 / n**2)
    if a2 < 0.2:
        p = 1.0 - math.exp(-13.436 + 101.14 * a2 - 223.73 * a2 * a2)
    elif a2 < 0.34:
        p = 1.0 - math.exp(-8.318 + 42.796 * a2 - 59.938 * a2 * a2)
    elif a2 < 0.6:
        p = math.exp(0.9177 - 4.279 * a2 - 1.38 * a2 * a2)
    elif a2 >= 5.709 / 0.0372:  # past its minimum, e^-437, the fit rises again
        p = 0.0
    else:
        p = math.exp(1.2937 - 5.709 * a2 + 0.0186 * a2 * a2)
    p = min(max(p, 0.0), 1.0)
    return TestReport(name=name, statistic=stat, p_value=p, n=n,
                      passed=stat < crit, alpha=alpha,
                      detail=f"crit(1%)={crit:.3f}")


def chi2_gof(observed, probs, alpha=0.01, name="chi-square"):
    """Chi-square goodness of fit with right-tail pooling of sparse bins."""
    import scipy.stats
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(probs, dtype=float) * obs.sum()
    o_pool, e_pool = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(obs, exp):
        o_acc += o
        e_acc += e
        if e_acc >= MIN_EXPECTED:
            o_pool.append(o_acc)
            e_pool.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0 and e_pool:
        o_pool[-1] += o_acc
        e_pool[-1] += e_acc
    if len(o_pool) < 2:
        raise ConfigError(f"{name}: {int(obs.sum())} observations fill {len(o_pool)} pooled "
                          f"bins of expected count >= {MIN_EXPECTED:g}; the test needs two")
    o_pool = np.array(o_pool)
    e_pool = np.array(e_pool) * (o_pool.sum() / max(np.sum(e_pool), 1e-300))
    stat, p = scipy.stats.chisquare(o_pool, e_pool)
    return TestReport(name=name, statistic=float(stat), p_value=float(p),
                      n=int(obs.sum()), passed=p >= alpha, alpha=alpha,
                      detail=f"{len(o_pool)} pooled bins")


def chi2_two_sample(a, b, alpha=0.01, name="chi-square-2samp"):
    """Chi-square test that two samples of counts share one law, on their
    2 x k table of value frequencies; adjacent values are pooled from 0 up
    until every cell expects ``MIN_EXPECTED``, the rest joining the last."""
    import scipy.stats
    top = max(max(a), max(b)) + 1
    table = np.array([np.bincount(a, minlength=top), np.bincount(b, minlength=top)])
    share = table.sum(axis=1).min() / table.sum()  # of the smaller sample
    cols, acc = [], 0
    for col in table.T:
        acc = acc + col
        if share * acc.sum() >= MIN_EXPECTED:
            cols.append(acc)
            acc = 0
    if cols:
        cols[-1] = cols[-1] + acc
    stat, p = 0.0, 1.0  # one pooled value: nothing to compare
    if len(cols) > 1:
        stat, p = scipy.stats.chi2_contingency(np.array(cols).T, correction=False)[:2]
    return TestReport(name=name, statistic=float(stat), p_value=float(p),
                      n=len(a) + len(b), passed=p >= alpha, alpha=alpha,
                      detail=f"{len(cols)} pooled values")


def ks_against(samples, cdf, alpha=0.01, name="kolmogorov-smirnov"):
    import scipy.stats
    stat, p = scipy.stats.kstest(samples, cdf)
    return TestReport(name=name, statistic=float(stat), p_value=float(p),
                      n=len(samples), passed=p >= alpha, alpha=alpha)


def poisson_dispersion(counts, alpha=0.01, name="poisson-dispersion"):
    """Two-sided index-of-dispersion test: (n-1) s^2 / mean ~ chi2(n-1)."""
    import scipy.stats
    c = np.asarray(counts, dtype=float)
    n = len(c)
    stat = (n - 1) * c.var(ddof=1) / max(c.mean(), 1e-300)
    lo = scipy.stats.chi2.cdf(stat, n - 1)
    p = 2.0 * min(lo, 1.0 - lo)
    return TestReport(name=name, statistic=float(stat), p_value=float(p),
                      n=n, passed=p >= alpha, alpha=alpha)


def se_bound_report(name, value, target, se, k=3.0, n=0, detail=""):
    """|value - target| <= k * se, reported with a two-sided normal p; an SE
    of 0 (a few equal draws, say) compares nothing and is refused."""
    if not se > 0:
        raise ConfigError(f"{name}: standard error {se:g} at {value:.6g}; it compares nothing")
    z = abs(value - target) / se
    p = 2.0 * _norm_sf(z)
    return TestReport(name=name, statistic=float(z), p_value=float(p), n=n,
                      passed=z <= k, alpha=_norm_sf(k) * 2,
                      detail=detail or f"value={value:.5g} target={target:.5g} se={se:.3g}")


def half_sample_stability(name, values, label):
    """The mean of the first half of ``values`` against the mean of all of
    them, passed when they differ by at most 20% of the latter; ``label``
    opens the detail line."""
    values = np.asarray(values, dtype=float)
    half = float(np.mean(values[: len(values) // 2]))
    full = float(np.mean(values))
    rel = abs(half - full) / max(full, 1e-12)
    return TestReport(name=name, statistic=rel, p_value=float("nan"), n=len(values),
                      passed=rel <= 0.2, detail=f"{label}: half={half:.5g} full={full:.5g}")


# ---------------------------------------------------------------------------
# Block statistics
# ---------------------------------------------------------------------------

@dataclass
class BlockStat:
    """Per-block sums of a centered functional and the variance estimate."""

    s_values: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray
    p_tilde: float
    mean_length: float
    sigma2: float
    sigma2_se: float


def block_stat_from_blocks(blocks):
    """Event-count functional: S_i = N_i - m * rho_i with the renewal-reward
    mean m = sum N / sum rho."""
    counts = np.array([b.n_events for b in blocks], dtype=float)
    lengths = np.array([b.rho for b in blocks], dtype=float)
    m_hat = counts.sum() / lengths.sum()
    s = counts - m_hat * lengths
    mu = lengths.mean()
    n = len(blocks)
    sigma2 = float(np.mean(s**2)) / mu
    sigma2_se = float(np.std(s**2, ddof=1)) / math.sqrt(n) / mu
    return BlockStat(s_values=s, lengths=lengths, counts=counts, p_tilde=m_hat,
                     mean_length=mu, sigma2=sigma2, sigma2_se=sigma2_se)


def unit_counts(blocks):
    """Concatenated per-unit event counts across blocks (integer lengths);
    the last unit of a block holds an event at its end rho as well."""
    lens = [int(round(b.rho)) for b in blocks]
    if any(abs(b.rho - k) > 1e-9 for b, k in zip(blocks, lens)):
        raise ConfigError("unit-window statistics need integer block lengths "
                          "(integer D and unit-integer alphas)")
    if not blocks:
        return np.empty(0)
    sizes = [b.path.n for b in blocks]
    times = np.concatenate([b.path.times for b in blocks])
    units = np.minimum(np.floor(times), np.repeat(lens, sizes) - 1).astype(np.int64)
    return np.bincount(units + np.repeat(np.cumsum(lens) - lens, sizes),
                       minlength=sum(lens))


def batch_means_sigma2(counts):
    """Batch-means variance-rate estimate from a long unit-count series."""
    k = len(counts) // _BATCH
    if k < 8:
        raise ConfigError("too few batches for a batch-means estimate")
    c = counts[: k * _BATCH].astype(float)
    c -= c.mean()
    sums = c.reshape(k, _BATCH).sum(axis=1)
    s2 = float(np.mean(sums**2)) / _BATCH
    return s2, s2 * math.sqrt(2.0 / k)


def blocks_until(cfg, remaining, seed, n_jobs=1, first=64,
                 size=lambda b: b.rho, collect_diag=None):
    """Regeneration blocks drawn in rounds until ``remaining(blocks)`` <= 0.

    Round k is one :func:`iterate_regenerations` call on the stream
    ``derive_key(seed, k)``: ``first`` blocks, then the open demand (in units
    of ``size``) over the mean size so far, so ``n_jobs`` never changes the
    blocks.  A round draws at most 4 times the blocks already seen, which
    keeps a mean from few blocks from overshooting the demand by much.
    ``collect_diag`` receives the diagnostics summed over all rounds.  Each
    round is logged at INFO level.
    """
    blocks, diag, k = [], Diagnostics(), 0
    while (rest := remaining(blocks)) > 0:
        m = first
        if blocks:
            mean = sum(map(size, blocks)) / len(blocks)
            if mean <= 0:
                raise ConfigError("blocks of size 0 never meet the demand")
            m = max(16, min(math.ceil(rest / mean), 4 * len(blocks)))
        log.info("block round %d: %d blocks for an open demand of %.6g",
                 k, m, rest)
        part = {}
        blocks += iterate_regenerations(cfg, m, seed=derive_key(seed, k) & 0x7FFFFFFF,
                                        n_jobs=n_jobs, collect_diag=part)
        diag.merge(Diagnostics(**part))
        k += 1
    if collect_diag is not None:
        collect_diag.update(asdict(diag))
    return blocks


def clt_time_average(cfg, n_blocks=32000, rep_blocks=32, seed=0, n_jobs=1,
                     alpha=0.01):
    """Time-average CLT over regeneration blocks for the event-count
    functional; returns (BlockStat, reports).

    Standardized sums over groups of ``rep_blocks`` consecutive blocks are
    tested for normality, and the block variance estimate is cross-checked
    against batch means on the concatenated run.
    """
    if n_blocks < 2 * rep_blocks:
        raise ConfigError(f"clt: n_blocks must be >= 2 * rep_blocks = {2 * rep_blocks} "
                          f"for two normality groups, got {n_blocks}")
    blocks = iterate_regenerations(cfg, n_blocks, seed=seed, n_jobs=n_jobs)
    stat = block_stat_from_blocks(blocks)
    reports = []
    if stat.sigma2 <= 1e-10 * max(1.0, stat.p_tilde):
        warnings.warn("block functional is degenerate: sigma^2 is ~ 0")
        reports.append(TestReport(name="clt-degenerate", statistic=stat.sigma2,
                                  p_value=float("nan"), n=n_blocks, passed=False,
                                  gating=False, detail="sigma^2 ~ 0"))
        return stat, reports
    n_rep = len(blocks) // rep_blocks
    s = stat.s_values[: n_rep * rep_blocks].reshape(n_rep, rep_blocks).sum(axis=1)
    ell = stat.lengths[: n_rep * rep_blocks].reshape(n_rep, rep_blocks).sum(axis=1)
    if not np.all(ell > 0):
        raise ConfigError(f"clt: a group of rep_blocks = {rep_blocks} blocks has length 0")
    z = s / np.sqrt(ell * stat.sigma2)
    reports.append(ad_normality(z, alpha=alpha, name="clt-normality"))
    counts = unit_counts(blocks)
    bm, bm_se = batch_means_sigma2(counts)
    reports.append(se_bound_report(
        "clt-sigma2-cross", stat.sigma2, bm,
        math.hypot(stat.sigma2_se, bm_se), n=len(blocks),
        detail=f"blocks={stat.sigma2:.5g} batch-means={bm:.5g}"))
    return stat, reports


_T_GRID = (0.25, 0.5, 1.0)


def functional_clt_paths(cfg, n=200, n_paths=400, seed=0, n_jobs=1, alpha=0.01):
    """Rescaled partial-sum paths B_t = S_{nt} / sqrt(n sigma^2) with linear
    interpolation at t = 0.25, 0.5, 1; tests Brownian marginal variances and
    increment independence, each two-sided at level ``alpha``.  Returns
    (t_grid, paths, reports)."""
    if n_paths < 3:
        raise ConfigError(f"fclt: n_paths must be >= 3 for the jackknife, got {n_paths}")
    t_grid = _T_GRID
    def cut(blocks):
        """Consecutive paths of length >= n, and the length still missing."""
        paths, cur, length = [], [], 0.0
        for b in blocks:
            if len(paths) == n_paths:
                break
            cur.append(b)
            length += b.rho
            if length >= n:
                paths.append(cur)
                cur, length = [], 0.0
        return paths, (n_paths - len(paths)) * n - length

    blocks = blocks_until(cfg, lambda bs: cut(bs)[1], derive_key(seed, 0xFC17),
                          n_jobs=n_jobs)
    per_path, _ = cut(blocks)
    all_blocks = [b for path in per_path for b in path]
    pooled = block_stat_from_blocks(all_blocks)
    m_hat, sigma2 = pooled.p_tilde, pooled.sigma2
    paths = np.empty((n_paths, len(t_grid)))
    for i, path in enumerate(per_path):
        counts = unit_counts(path)[: n + 1]
        s = np.concatenate([[0.0], np.cumsum(counts - m_hat)])
        paths[i] = np.interp(n * np.asarray(t_grid), np.arange(len(s)), s) \
            / math.sqrt(n * sigma2)
    reports = []
    k = -statistics.NormalDist().inv_cdf(alpha / 2.0)
    i_end = len(t_grid) - 1
    var_end = paths[:, i_end].var(ddof=1) / t_grid[i_end]
    for j, t in enumerate(t_grid[:-1]):
        ratios = _jackknife_ratio(paths[:, j], paths[:, i_end])
        reports.append(se_bound_report(
            f"fclt-variance-ratio-t{t:g}", ratios[0], t / t_grid[i_end],
            ratios[1], k=k, n=n_paths))
    b_half = paths[:, t_grid.index(0.5)]
    b_end = paths[:, i_end]
    corr = float(np.corrcoef(b_half, b_end - b_half)[0, 1])
    thresh = k / math.sqrt(n_paths)
    reports.append(TestReport(
        name="fclt-increment-corr", statistic=corr,
        p_value=2.0 * _norm_sf(abs(corr) * math.sqrt(n_paths)),
        n=n_paths, passed=abs(corr) < thresh, alpha=alpha,
        detail=f"|corr| < {thresh:.4f}; var(B_1)/1 = {var_end:.3f}"))
    return np.array(t_grid), paths, reports


def _jackknife_ratio(x, y):
    """Jackknife mean and SE of var(x)/var(y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    sx2, sy2 = x.var(ddof=1), y.var(ddof=1)
    mx, my = x.mean(), y.mean()
    loo = np.empty(n)
    for i in range(n):
        vx = (sx2 * (n - 1) - (x[i] - mx) ** 2 * n / (n - 1)) / (n - 2)
        vy = (sy2 * (n - 1) - (y[i] - my) ** 2 * n / (n - 1)) / (n - 2)
        loo[i] = vx / vy
    se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    return sx2 / sy2, se


# ---------------------------------------------------------------------------
# Coupling
# ---------------------------------------------------------------------------

def coupling_experiment(cfg, n_runs=1000, seed=0):
    """Couple two differently-initialized processes on shared streams.

    Both start at alpha_0 = 0: the regeneration state and the envelope
    start (signal f), each within the start inequality of the configured
    envelope.  Up to 20 past
    the regeneration time the two paths must agree event for event; any
    disagreement is a hard failure.  The moment check takes ``cfg.p``.
    Returns (reports, data dict).
    """
    env, p = cfg.env, cfg.p
    starts = [ZStart.atom(env), ZStart.envelope(env)]
    t_vals = np.empty(n_runs)
    rho_vals = np.empty(n_runs)
    exact = 0
    for r in range(n_runs):
        pi = PrmStream(seed, stream=100_000 + 5 * r)
        pibar = PrmStream(seed, stream=100_000 + 5 * r + 1)
        tau_rng = spawn_rng(seed, r, 0xC0)
        out = run_system(cfg, pi, pibar, starts, tau_rng=tau_rng, extend_after=20.0)
        a, b = out.track_paths[0].times, out.track_paths[1].times
        exact += np.array_equal(a[a > out.rho], b[b > out.rho])
        diff = np.setxor1d(a, b)
        t_vals[r] = diff.max() if len(diff) else 0.0
        rho_vals[r] = out.rho
    frac = exact / n_runs
    reports = [TestReport(
        name="coupling-exact-after-rho", statistic=frac, p_value=float("nan"),
        n=n_runs, passed=frac == 1.0,
        detail=f"{exact}/{n_runs} exact; max T = {t_vals.max():.4g}")]
    bound_ok = bool(np.all(t_vals <= rho_vals + 1e-9))
    reports.append(TestReport(
        name="coupling-T-below-rho", statistic=float(np.max(t_vals - rho_vals)),
        p_value=float("nan"), n=n_runs, passed=bound_ok))
    reports.append(half_sample_stability("coupling-moment-stability", t_vals ** p,
                                         f"p={p:g}"))
    return reports, {"T": t_vals, "rho": rho_vals}


# ---------------------------------------------------------------------------
# Iterated-logarithm diagnostic (never a gate)
# ---------------------------------------------------------------------------

def lil_envelope(cfg, n_max=10**5, seed=0, n_jobs=1):
    """Weak envelope diagnostic for the law of the iterated logarithm.

    Reports whether the running normalized sum stays within [-1.5, 1.5]
    and shows genuine excursions; informational only.
    """
    blocks = blocks_until(cfg, lambda bs: n_max - sum(b.rho for b in bs),
                          derive_key(seed, 0x1117), n_jobs=n_jobs)
    stat = block_stat_from_blocks(blocks)
    counts = unit_counts(blocks)[: n_max]
    s = np.cumsum(counts - stat.p_tilde)
    n = np.arange(1, len(s) + 1, dtype=float)
    valid = n >= 8
    denom = np.sqrt(2.0 * stat.sigma2 * n[valid] * np.log(np.log(n[valid])))
    ratio = s[valid] / denom
    inside = bool(np.max(np.abs(ratio)) <= 1.5)
    excursion = bool(np.max(ratio) > 0.2) and bool(np.min(ratio) < -0.2)
    return [TestReport(
        name="lil-envelope", statistic=float(np.max(np.abs(ratio))),
        p_value=float("nan"), n=int(n_max), passed=inside and excursion,
        gating=False,
        detail=f"max|r|={np.max(np.abs(ratio)):.3f}, "
               f"range=({np.min(ratio):.3f},{np.max(ratio):.3f})")]
