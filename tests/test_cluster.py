import math

import numpy as np
import pytest

from hawkes_renewal import (BorelLaw, ExponentialKernel, GammaSchedule,
                            SupercriticalError, scan_alpha_AD, simulate_cluster)
from hawkes_renewal.prm import spawn_rng
from hawkes_renewal.stats import chi2_gof


class TestBorelLaw:
    def test_single_node_probability(self):
        law = BorelLaw(0.5)
        assert law.pmf(1) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_mass_sums_to_one(self):
        law = BorelLaw(0.5)
        n = law.truncation_size(1e-9)
        assert law.pmf_vector(n).sum() == pytest.approx(1.0, abs=2e-9)

    def test_degenerate_small_mean(self):
        law = BorelLaw(1e-9)
        assert law.pmf(1) == pytest.approx(1.0, abs=1e-8)

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalError):
            BorelLaw(1.0)

    def test_exponential_moment_threshold(self):
        # truncated MGF sums converge below c_h and blow up above it
        law = BorelLaw(0.5)
        c_h = law.c_h
        assert c_h == pytest.approx(0.5 - math.log(0.5) - 1.0)
        def partial(c, n):
            ks = np.arange(1, n + 1)
            return np.sum(np.exp([law.logpmf(int(k)) + c * k for k in ks]))
        lo1, lo2 = partial(0.9 * c_h, 2000), partial(0.9 * c_h, 4000)
        assert lo2 - lo1 < 1e-6  # converged
        hi1, hi2 = partial(1.1 * c_h, 2000), partial(1.1 * c_h, 4000)
        assert hi2 > 2.0 * hi1  # still growing past any cap

    def test_mean_matches_branching_identity(self):
        law = BorelLaw(0.3)
        n = law.truncation_size(1e-15)
        mean = float(np.arange(1, n + 1) @ law.pmf_vector(n))
        assert mean == pytest.approx(1.0 / 0.7, rel=1e-9)


class TestSimulateCluster:
    def test_barren_kernel(self):
        rng = spawn_rng(0)
        k = ExponentialKernel(1.0, 0.0)
        for _ in range(10):
            c = simulate_cluster(k, 1.0, rng)
            assert c.W == 1 and c.Y == 0.0

    def test_mean_size(self):
        rng = spawn_rng(1)
        k = ExponentialKernel(1.0, 0.5)
        ws = np.array([simulate_cluster(k, 1.0, rng).W for _ in range(20000)])
        se = ws.std(ddof=1) / math.sqrt(len(ws))
        assert ws.mean() == pytest.approx(2.0, abs=3 * se)

    def test_histogram_matches_borel(self):
        rng = spawn_rng(2)
        k = ExponentialKernel(1.0, 0.5)
        law = BorelLaw(0.5)
        ws = np.array([simulate_cluster(k, 1.0, rng).W for _ in range(20000)])
        kcap = 60
        obs = np.bincount(np.minimum(ws, kcap + 1), minlength=kcap + 2)[1:]
        probs = law.pmf_vector(kcap)
        probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
        rep = chi2_gof(obs, probs, alpha=0.01)
        assert rep.passed, rep

    def test_extent_covers_all_events(self):
        rng = spawn_rng(3)
        k = ExponentialKernel(1.0, 0.6)
        for _ in range(200):
            c = simulate_cluster(k, 1.0, rng)
            assert c.Y == pytest.approx(float(np.max(c.times)))
            assert len(c.times) == c.W


def ad_scan_oracle(counts, sched, window):
    """Direct double-loop evaluation of the backward envelope condition."""
    n = len(counts)
    for idx in range(window + 1, n + 1):
        ok = True
        for j in range(idx):
            if counts[idx - j - 1] > sched.value(j) + 1e-12:
                ok = False
                break
        if ok:
            return idx
    raise AssertionError("oracle found no admissible index")


class TestStationaryStartAD:
    """The age-dependent alpha scan behind an integer gap of empty units."""

    def test_matches_double_loop_oracle(self):
        sched = GammaSchedule.linear(1.0)
        rng = spawn_rng(4)
        for k in range(300):
            window = 30 if k % 2 else k % 7
            counts = rng.poisson(0.5, size=window + 200)
            at = lambda i: int(counts[i - 1]) if i <= len(counts) else 0
            got = scan_alpha_AD(sched, at, float(window))
            assert got == ad_scan_oracle(counts, sched, window)
