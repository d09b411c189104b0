import logging
import math
import warnings

import numpy as np
import pytest
import scipy.stats

from hawkes_renewal import ConfigError, Path, stats, verify
from hawkes_renewal.renewal import Block
from hawkes_renewal.stats import (_norm_sf, ad_normality, batch_means_sigma2,
                                  block_stat_from_blocks, blocks_until, chi2_gof,
                                  chi2_two_sample, functional_clt_paths,
                                  unit_counts)
from hawkes_renewal.verify import reference_ad_config, run_suites
from hawkes_renewal.renewal import iterate_regenerations


def fake_block(times, rho):
    times = np.asarray(times, dtype=float)
    return Block(rho=float(rho), path=Path(times, horizon=float(rho)),
                 eta=0, cycles=[])


class TestBlockStat:
    def test_centering_is_renewal_reward(self):
        blocks = [fake_block([0.5, 1.5], 3.0), fake_block([0.2], 2.0),
                  fake_block([], 1.0)]
        st = block_stat_from_blocks(blocks)
        assert st.p_tilde == pytest.approx(3.0 / 6.0)
        assert np.sum(st.s_values) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_counts_give_zero_sigma(self):
        blocks = [fake_block(np.arange(0.25, r, 1.0), r) for r in [2.0, 3.0, 4.0] * 8]
        st = block_stat_from_blocks(blocks)
        assert st.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_unit_counts_concatenation(self):
        blocks = [fake_block([0.5, 1.5], 3.0), fake_block([0.7], 2.0)]
        got = unit_counts(blocks)
        assert got.tolist() == [1, 1, 0, 1, 0]
        # a unit holds its left end; the last unit holds rho as well
        blocks = [fake_block([1.0, 2.0], 2.0), fake_block([], 1.0),
                  fake_block([0.25, 3.0], 3.0)]
        assert unit_counts(blocks).tolist() == [0, 2, 0, 1, 0, 1]
        assert unit_counts([]).size == 0
        with pytest.raises(ConfigError, match="integer block lengths"):
            unit_counts([fake_block([0.5], 1.5)])

    def test_unit_counts_match_a_histogram_per_block(self):
        blocks = iterate_regenerations(reference_ad_config(D=1.0), 300, seed=4)
        want = np.concatenate([
            np.histogram(b.path.times, bins=np.arange(0.0, round(b.rho) + 1.0))[0]
            for b in blocks])
        got = unit_counts(blocks)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_centering_insensitive_to_first_block(self):
        cfg = reference_ad_config(D=1.0)
        blocks = iterate_regenerations(cfg, 800, seed=2)
        full = block_stat_from_blocks(blocks)
        tail = block_stat_from_blocks(blocks[1:])
        se = full.p_tilde / math.sqrt(len(blocks))
        assert abs(full.p_tilde - tail.p_tilde) < 3 * se

    def test_batch_means_estimator_on_iid_counts(self):
        rng = np.random.default_rng(3)
        counts = rng.poisson(2.0, size=20000)
        s2, se = batch_means_sigma2(counts)
        assert s2 == pytest.approx(2.0, abs=4 * se)


class TestHelpers:
    def test_ad_normality_accepts_gaussian(self):
        rng = np.random.default_rng(4)
        rep = ad_normality(rng.normal(size=2000))
        assert rep.passed and 0 <= rep.p_value <= 1

    def test_ad_normality_rejects_exponential(self):
        rng = np.random.default_rng(5)
        rep = ad_normality(rng.exponential(size=2000))
        assert not rep.passed

    def test_ad_normality_uses_no_deprecated_scipy_api(self):
        rng = np.random.default_rng(6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            rep = ad_normality(rng.normal(size=50))
        assert rep.detail == "crit(1%)=1.019"

    def test_normal_tails_match_scipy(self):
        z = np.linspace(-8.0, 8.0, 1601)
        assert np.allclose(_norm_sf(z), scipy.stats.norm.sf(z), rtol=1e-13, atol=0)
        assert np.allclose(np.log(_norm_sf(-z)), scipy.stats.norm.logcdf(z),
                           rtol=0, atol=1e-13)
        assert np.allclose(np.log(_norm_sf(z)), scipy.stats.norm.logsf(z),
                           rtol=0, atol=1e-13)
        assert [_norm_sf(v) for v in (0.0, math.inf, -math.inf)] == [0.5, 0.0, 1.0]

    def test_ad_p_is_zero_past_the_minimum_of_its_fit(self):
        # D'Agostino's exp(1.2937 - 5.709 a2 + 0.0186 a2^2) bottoms out near
        # a2 = 153.5 and rises past it: p read 1 on the first sample, and the
        # second overflowed
        for x, stat in [([0.0] * 1000 + [1.0] * 3, 386.5), ([0.0] * 3000 + [1.0] * 30, 1159.0)]:
            rep = ad_normality(x)
            assert rep.statistic == pytest.approx(stat, abs=0.1)
            assert rep.p_value == 0.0 and not rep.passed

    @pytest.mark.parametrize("n", [8, 50, 2000])
    def test_ad_statistic_matches_the_scipy_formula(self, n):
        x = np.random.default_rng(n).normal(size=n)
        w = (np.sort(x) - np.mean(x)) / np.std(x, ddof=1)
        terms = scipy.stats.norm.logcdf(w) + scipy.stats.norm.logsf(w)[::-1]
        want = -n - np.sum((2 * np.arange(1, n + 1) - 1.0) / n * terms)
        assert ad_normality(x).statistic == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 0.01, 1e-6])
    def test_fclt_threshold_is_the_normal_quantile(self, monkeypatch, alpha):
        ks, report = [], stats.se_bound_report
        def spy(*args, k=3.0, **kwargs):
            ks.append(k)
            return report(*args, k=k, **kwargs)
        monkeypatch.setattr(stats, "se_bound_report", spy)
        functional_clt_paths(reference_ad_config(D=1.0), n=20, n_paths=4, seed=6,
                             alpha=alpha)
        want = scipy.stats.norm.isf(alpha / 2.0)
        assert ks and all(abs(k - want) <= 1e-14 for k in ks)

    def test_fclt_gates_honour_alpha(self):
        cfg = reference_ad_config(D=1.0)
        reports = {a: functional_clt_paths(cfg, n=60, n_paths=6, seed=6,
                                           alpha=a)[2] for a in (0.5, 0.01)}
        for a, reps in reports.items():
            assert [r.alpha for r in reps] == pytest.approx([a] * len(reps))
        corr = [reps[-1] for reps in reports.values()]
        assert corr[0].detail != corr[1].detail

    def test_chi2_pooling(self):
        obs = np.array([40, 35, 15, 6, 3, 1, 0, 0])
        probs = np.array([0.4, 0.35, 0.15, 0.06, 0.03, 0.008, 0.0015, 0.0005])
        rep = chi2_gof(obs, probs)
        assert rep.passed

    def test_chi2_with_fewer_than_two_pooled_bins_is_refused_by_name(self):
        probs = np.array([0.5, 0.3, 0.2])
        with pytest.raises(ConfigError, match="borel: 6 observations fill 1 pooled bins"):
            chi2_gof(np.array([3, 2, 1]), probs, name="borel")
        assert chi2_gof(np.array([6, 3, 1]) * 2, probs).detail == "2 pooled bins"

    def test_an_se_bound_with_se_zero_is_refused_by_name(self):
        # equal draws have no spread: the bound compares nothing, whether or
        # not the value meets its target
        for value in (1.0, 2.0):
            with pytest.raises(ConfigError, match=f"borel-mean-size: standard error 0 at "
                                                  f"{value:g}; it compares nothing"):
                stats.se_bound_report("borel-mean-size", value, 2.0, 0.0, n=2)
        assert stats.se_bound_report("borel-mean-size", 2.1, 2.0, 0.1, n=2).passed

    def test_half_sample_stability_compares_the_first_half_with_all(self):
        same = stats.half_sample_stability("m", [1.0, 3.0, 2.0, 2.0], "p=1")
        assert (same.statistic, same.n, same.passed) == (0.0, 4, True)
        assert same.detail == "p=1: half=2 full=2"
        # the first half of five values is two: |1 - 2.8| / 2.8
        moved = stats.half_sample_stability("m", [1.0, 1.0, 4.0, 4.0, 4.0], "c=1")
        assert (moved.statistic, moved.n, moved.passed) == (pytest.approx(9 / 14), 5, False)

    def test_moment_reports_count_the_blocks_they_read(self):
        # n_small blocks per half of the power moment, 2 n_small per half of
        # the exponential one
        reports = verify.suite_moments(n_small=20)
        assert [(r.name, r.n) for r in reports] == [
            ("rho-power-moment-stability", 40), ("rho-exponential-moment-stability", 80)]
        assert [r.detail.split(":")[0] for r in reports] == ["p=2", "c=0.05"]

    def test_fclt_needs_three_paths_for_its_jackknife(self):
        with pytest.raises(ConfigError, match="fclt: n_paths must be >= 3"):
            functional_clt_paths(reference_ad_config(D=1.0), n=10, n_paths=2)

    def test_two_sample_counts_tell_their_laws_apart(self):
        # small heavily tied counts, as in a unit window before a gap
        rng = np.random.default_rng(4)
        same = chi2_two_sample(rng.poisson(0.4, 5000), rng.poisson(0.4, 5000))
        assert same.passed and same.p_value > 0.01
        apart = chi2_two_sample(rng.poisson(0.4, 5000), rng.poisson(0.5, 5000))
        assert not apart.passed and apart.p_value < 1e-4

    def test_two_sample_p_values_are_uniform_under_one_law(self):
        # the test has its nominal size: p ~ U(0, 1) over many small runs
        rng = np.random.default_rng(8)
        ps = [chi2_two_sample(rng.poisson(2.0, 100), rng.poisson(2.0, 100)).p_value
              for _ in range(400)]
        assert scipy.stats.kstest(ps, "uniform").pvalue >= 0.01

    def test_two_sample_pooling_keeps_five_expected_per_cell(self):
        a = np.array([0] * 50 + [1] * 30 + [2] * 8 + [3] * 2 + [7])
        b = np.array([0] * 45 + [1] * 35 + [2] * 9 + [4])
        rep = chi2_two_sample(a, b)
        # values 2 and up pool into one cell: 0, 1 and the tail
        assert rep.detail == "3 pooled values"
        assert rep.n == len(a) + len(b)


class TestProgressLogging:
    def test_block_rounds_and_suites_log_at_info(self, caplog):
        cfg = reference_ad_config(D=1.0)
        with caplog.at_level(logging.INFO, logger="hawkes_renewal"):
            blocks = blocks_until(cfg, lambda bs: 40 - len(bs), seed=3, first=16)
            run_suites(["borel"], sizes={"borel": {"n_clusters": 2000}})
        rounds = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("block round")]
        assert len(blocks) >= 40 and len(rounds) >= 2
        assert rounds[0] == "block round 0: 16 blocks for an open demand of 40"
        assert rounds[1].startswith("block round 1: ")
        assert any(r.getMessage().startswith("suite borel: ") and
                   r.getMessage().endswith(" s") for r in caplog.records)
        assert {r.name for r in caplog.records} == {"hawkes_renewal"}
        assert {r.levelno for r in caplog.records} == {logging.INFO}
