"""Gated acceptance suite.

Runs every verification criterion at its stated ensemble size and
tolerance, printing one PASS/FAIL line per criterion.  The iterated-
logarithm envelope is reported as a diagnostic only and never gates.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import pytest

from hawkes_renewal import TableKernel
from hawkes_renewal.verify import (reference_ad_config, reference_o_config,
                                   suite_borel, suite_clt, suite_coupling,
                                   suite_fclt, suite_lil, suite_moments,
                                   suite_prm_split, suite_re_chain,
                                   suite_renewal, suite_thinning)

N_JOBS = 2

# the other setups through the exact-law gates of criteria 1, 2 and 4-6,
# each on its own seed (criterion 1's fixture runs AD D=0 at seed 11), at
# 10^4 cycles and blocks; a table kernel (||F||_1 = 0.98), whose blocks are
# slower, at 3000 cycles and 2000 blocks, and the O table on 5000 of each
TABLE = TableKernel([(0.0, 0.2), (1.0, -0.05), (2.0, 0.0)])
SETUPS = [("AD-D1", reference_ad_config, 1.0, {}, 53, 10**4, 10**4),
          ("O-D0", reference_o_config, 0.0, {}, 59, 10**4, 10**4),
          ("O-D1", reference_o_config, 1.0, {}, 61, 10**4, 10**4),
          ("AD-D1-table", reference_ad_config, 1.0, {"kernel": TABLE}, 67, 3000, 2000),
          ("O-D1-table", reference_o_config, 1.0,
           {"kernel": TableKernel([(0, .3), (1, .1), (2, 0)])}, 71, 5000, 5000)]


def report_criterion(num, label, reports, runtime=None):
    ok = all(r.passed for r in reports if r.gating)
    extra = f" [{runtime:.0f}s]" if runtime is not None else ""
    print(f"\nCRITERION {num:>2} {'PASS' if ok else 'FAIL'}: {label}{extra}")
    for r in reports:
        tag = "gate" if r.gating else "info"
        pv = "-" if r.p_value is None or math.isnan(r.p_value) else f"{r.p_value:.4g}"
        print(f"    [{tag}] {r.name}: stat={r.statistic:.4g} p={pv} n={r.n} {r.detail}")
    return ok


@pytest.fixture(scope="module")
def renewal_reports():
    t0 = time.perf_counter()
    reports = suite_renewal(n_cycles=10**4, n_blocks=10**4, seed=11,
                            n_jobs=N_JOBS)
    return reports, time.perf_counter() - t0


def pick(reports, *names):
    by_name = {r.name: r for r in reports}
    return [by_name[n] for n in names]


class TestAcceptance:
    def test_criterion_01_tau_gap_exact_law(self, renewal_reports):
        reports, dt = renewal_reports
        sel = pick(reports, "tau-infinite-frequency", "tau-gap-conditional-law",
                   "band-skipped-count")
        ok = report_criterion(1, "tau-gap exact law and skipped band points "
                              "(3 SE + KS at 0.01)", sel, runtime=dt)
        assert ok
        assert dt < 300.0, "runtime target for the reference ensemble is 5 min"

    def test_criterion_02_eta_geometric(self, renewal_reports):
        reports, _ = renewal_reports
        sel = pick(reports, "eta-geometric")
        assert report_criterion(2, "eta + 1 fits Geometric(exp(-||F||_1))", sel)

    def test_criterion_03_coupling_exactness(self):
        reports = suite_coupling(n_runs=10**3, seed=7)
        sel = [r for r in reports if r.name in
               ("coupling-exact-after-rho", "coupling-T-below-rho")]
        assert report_criterion(3, "coupled pairs agree exactly after rho", sel)

    def test_criterion_04_band_invariant(self, renewal_reports):
        reports, _ = renewal_reports
        sel = pick(reports, "band-invariant")
        assert report_criterion(
            4, "0 <= lambda* - lambda <= F at every candidate", sel)

    def test_criterion_05_envelope_certificate(self, renewal_reports):
        reports, _ = renewal_reports
        sel = pick(reports, "envelope-certificate")
        assert report_criterion(5, "past-influence envelope holds at every alpha", sel)

    def test_criterion_06_block_independence(self, renewal_reports):
        reports, _ = renewal_reports
        sel = pick(reports, "block-count-correlation", "block-length-correlation")
        assert report_criterion(6, "consecutive-block correlations below 3/sqrt(n)", sel)

    @pytest.mark.parametrize("make, D, overrides, seed, n_cycles, n_blocks",
                             [s[1:] for s in SETUPS], ids=[s[0] for s in SETUPS])
    def test_criteria_01_to_06_on_every_setup(self, make, D, overrides, seed,
                                              n_cycles, n_blocks):
        cfg = make(D=D, **overrides)
        t0 = time.perf_counter()
        reports = suite_renewal(cfg, n_cycles=n_cycles, n_blocks=n_blocks,
                                seed=seed, n_jobs=N_JOBS)
        dt = time.perf_counter() - t0
        names = {r.name for r in reports}
        assert all(r.gating for r in reports)
        if D > 0:
            assert {"regeneration-gap-empty", "terminal-window-stationarity"} <= names
        label = f"exact-law gates, {make.__name__}(D={D:g}), {cfg.kernel}, seed {seed}"
        assert report_criterion("1-6", label, reports, runtime=dt)

    def test_criterion_07_borel_total_progeny(self):
        reports = suite_borel(n_clusters=10**5, seed=13)
        assert report_criterion(7, "total progeny matches the Borel pmf", reports)

    def test_criterion_08_re_chain_invariant(self):
        reports = suite_re_chain(n_steps=10**6, n_kac=10**5, seed=17)
        assert report_criterion(8, "exchange-chain invariant law and Kac identity",
                                reports)

    def test_criterion_09_thinning_oracle(self):
        reports = suite_thinning(n_runs=10**3, seed=3)
        assert report_criterion(9, "thinning equals the brute-force oracle", reports)

    def test_criterion_10_prm_splitting(self):
        reports = suite_prm_split(seed=5)
        assert report_criterion(10, "split measures are independent PRMs", reports)

    def test_criterion_11_time_average_clt(self):
        t0 = time.perf_counter()
        reports = suite_clt(n_blocks=32 * 1000, rep_blocks=32, seed=23,
                            n_jobs=N_JOBS)
        dt = time.perf_counter() - t0
        ok = report_criterion(11, "block CLT normality and variance cross-check",
                              reports, runtime=dt)
        assert ok
        assert dt < 900.0, "runtime target for the CLT ensemble is 15 min"

    def test_criterion_12_functional_clt(self):
        reports = suite_fclt(n=200, n_paths=400, seed=29, n_jobs=N_JOBS)
        reports += suite_lil(n_max=10**5, seed=31, n_jobs=N_JOBS)
        gated = [r for r in reports if r.gating]
        assert report_criterion(12, "Brownian marginals and increments "
                                "(iterated-logarithm shown as info)", reports)
        assert all(r.passed for r in gated)

    def test_criterion_13_moment_stability(self):
        reports = suite_moments(n_small=4000, seed=37, n_jobs=N_JOBS)
        assert report_criterion(13, "rho moments stable under sample doubling",
                                reports)
