import math

import numpy as np
import pytest

from hawkes_renewal import (BorelLaw, ExponentialKernel, GammaSchedule,
                            RateSpec, SupercriticalError,
                            check_envelope_inequality, simulate_cluster)
from hawkes_renewal.cluster import (alpha0_stationary_ad, alpha0_stationary_o,
                                    count_updates, scan_units, _gamma_star)
from hawkes_renewal.kernels import EnvelopeFns
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
        assert law.moment(1.0) == pytest.approx(1.0 / 0.7, rel=1e-9)


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


def alpha_from_counts_ad(counts, sched, window):
    """The (AD) stationary scan on a fixed count array: ``counts[i-1]`` is
    the unit count for index i, the first ``window`` entries the certified
    backward stretch."""
    update = count_updates(sched, lambda i: counts[i - 1])
    return scan_units(update, window, len(counts))


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
            return idx - window
    raise AssertionError("oracle found no admissible index")


class TestStationaryStartAD:
    def test_matches_double_loop_oracle(self):
        sched = GammaSchedule.linear(1.0)
        rng = spawn_rng(4)
        window = 30
        for _ in range(300):
            counts = rng.poisson(0.5, size=window + 200)
            got = alpha_from_counts_ad(counts, sched, window)
            want = ad_scan_oracle(counts, sched, window)
            assert got == want

    def test_empty_counts_give_one(self):
        rate = RateSpec.hard_refractory(1.0, 1.0)  # refractory bound K = 0
        assert alpha0_stationary_ad(rate, GammaSchedule.linear(1.0), seed=9) == 1

    def test_reasonable_distribution(self):
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        sched = GammaSchedule.linear(1.0)
        vals = [alpha0_stationary_ad(rate, sched, seed=s) for s in range(200)]
        assert min(vals) >= 1
        assert np.mean(vals) < 10.0


class TestStationaryStartO:
    def test_gamma_star_transformation(self):
        sched = GammaSchedule.linear(1.0)
        gs = _gamma_star(sched, 2.0)
        assert gs.value(1.9) == 0.0
        assert gs.value(2.0) == 0.0
        assert gs.value(6.0) == pytest.approx(0.5 * (3.0 - 1.0))
        for w in [0.3, 1.0, 2.7]:
            m = gs.ceil_inverse(w)
            assert gs.value(m) >= w
            assert m == 0 or gs.value(m - 1) < w

    def test_raw_envelope_holds_a_posteriori(self):
        k = ExponentialKernel(1.0, 0.3)
        rate = RateSpec.linear(0.5, 1.0)
        sched = GammaSchedule.linear(1.0)
        env = EnvelopeFns(k, rate, sched)
        for seed in range(5):
            a, ev = alpha0_stationary_o(k, rate, sched, assumption="B", p=2.0,
                                        seed=seed, collect_events=True)
            assert check_envelope_inequality(env, k, ev[ev <= a], float(a))

    def test_tail_decay_is_at_least_polynomial(self):
        # under the power-moment assumption the start time has p moments;
        # check the empirical survival decays on a log-log slope
        k = ExponentialKernel(1.0, 0.3)
        rate = RateSpec.linear(0.5, 1.0)
        sched = GammaSchedule.log(p=1.0, c_h=BorelLaw(0.3).c_h)
        vals = np.array([alpha0_stationary_o(k, rate, sched, assumption="A",
                                             p=1.0, seed=s) for s in range(150)])
        q50, q90 = np.quantile(vals, [0.5, 0.9])
        assert q90 < 12 * q50  # crude heavy-tail sanity, survival drops by 5x
        assert np.all(np.isfinite(vals))
