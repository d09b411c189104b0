import math
import warnings

import numpy as np
import pytest

from hawkes_renewal import Path
from hawkes_renewal.renewal import Block
from hawkes_renewal.stats import (ad_normality, batch_means_sigma2,
                                  block_stat_from_blocks, chi2_gof,
                                  unit_counts, windowed_functional)
from hawkes_renewal.verify import reference_ad_config
from hawkes_renewal.renewal import iterate_regenerations


def fake_block(times, rho):
    times = np.asarray(times, dtype=float)
    return Block(rho=float(rho), path=Path(times, horizon=float(rho)),
                 eta=0, cycles=[])


class TestWindowedFunctional:
    def oracle_count_integral(self, times, m, n_units):
        # integral of the window count = total overlap length of [u, u+m)
        out = np.zeros(n_units)
        for k in range(1, n_units + 1):
            lo, hi = k - 1.0, float(k)
            for u in times:
                out[k - 1] += max(0.0, min(u + m, hi) - max(u, lo))
        return out

    def test_count_functional_is_exact(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 12, 30))
        got = windowed_functional(times, lambda c: float(c), 1.0, 10)
        want = self.oracle_count_integral(times, 1.0, 10)
        assert np.allclose(got, want, atol=1e-12)

    def test_nonlinear_functional_matches_riemann(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 8, 25))
        t_fn = lambda c: float(c) ** 2
        got = windowed_functional(times, t_fn, 1.5, 6)
        h = 1e-4
        for k in range(1, 7):
            ss = np.arange(k - 1 + h / 2, k, h)
            counts = np.searchsorted(times, ss, side="right") - \
                np.searchsorted(times, ss - 1.5, side="right")
            assert got[k - 1] == pytest.approx(float(np.sum(counts**2) * h), abs=1e-2)

    def test_empty_path(self):
        got = windowed_functional(np.array([]), lambda c: float(c), 1.0, 5)
        assert np.all(got == 0.0)

    def test_growth_condition_warns_only(self):
        times = np.array([0.5, 1.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            windowed_functional(times, lambda c: math.exp(float(c) ** 2), 1.0, 2,
                                setup="AD")
        assert any("grows faster" in str(w.message) for w in caught)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = windowed_functional(times, lambda c: 3.0 * c, 1.0, 2, setup="AD")
        assert not caught and len(got) == 2


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

    def test_chi2_pooling(self):
        obs = np.array([40, 35, 15, 6, 3, 1, 0, 0])
        probs = np.array([0.4, 0.35, 0.15, 0.06, 0.03, 0.008, 0.0015, 0.0005])
        rep = chi2_gof(obs, probs)
        assert rep.passed
