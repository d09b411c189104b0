import logging
import math
import warnings

import numpy as np
import pytest

from hawkes_renewal import Path
from hawkes_renewal.renewal import Block
from hawkes_renewal.stats import (ad_normality, batch_means_sigma2,
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

    def test_two_sample_counts_tell_their_laws_apart(self):
        # small heavily tied counts, as in a unit window before a gap
        rng = np.random.default_rng(4)
        same = chi2_two_sample(rng.poisson(0.4, 5000), rng.poisson(0.4, 5000))
        assert same.passed and same.p_value > 0.01
        apart = chi2_two_sample(rng.poisson(0.4, 5000), rng.poisson(0.5, 5000))
        assert not apart.passed and apart.p_value < 1e-4

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
