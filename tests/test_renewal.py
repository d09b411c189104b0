import math

import numpy as np
import pytest

from hawkes_renewal import (DominationError, ExponentialKernel, GammaSchedule,
                            PrmStream, RateSpec, RenewalConfig, ZeroKernel, ZStart,
                            iterate_regenerations, run_system, scan_alpha_AD,
                            scan_alpha_O)
from hawkes_renewal import renewal
from hawkes_renewal.kernels import EnvelopeFns
from hawkes_renewal.renewal import certify_dominated
from hawkes_renewal.stats import functional_clt_paths, lil_envelope
from hawkes_renewal.verify import (reference_ad_config, reference_o_config,
                                   suite_renewal)


def counts_fn(arr):
    return lambda i: int(arr[i - 1]) if i - 1 < len(arr) else 0


def ad_oracle(counts, sched, tau_gap, imax=500):
    """Brute-force scan of the defining infimum."""
    ceil_gap = math.ceil(tau_gap - 1e-9)
    for i in range(ceil_gap + 1, imax):
        if all(counts[i - j - 1] <= sched.value(j) + 1e-12 for j in range(i)):
            return i
    raise AssertionError("oracle exhausted")


class TestScanAlphaAD:
    def test_no_points(self):
        sched = GammaSchedule.linear(1.0)
        assert scan_alpha_AD(sched, lambda i: 0, 0.3) == 2  # ceil(0.3)+1
        assert scan_alpha_AD(sched, lambda i: 0, 2.0) == 3

    def test_hand_replay_single_point(self):
        # one count in the first unit, gamma(j) = j
        sched = GammaSchedule.linear(1.0)
        arr = [1, 0, 0, 0]
        assert scan_alpha_AD(sched, counts_fn(arr), 0.5) == 2

    def test_matches_brute_force_oracle(self):
        sched = GammaSchedule.linear(0.8)
        rng = np.random.default_rng(5)
        for _ in range(1000):
            counts = rng.poisson(0.45, size=400)
            tau_gap = float(rng.uniform(0, 3))
            got = scan_alpha_AD(sched, counts_fn(counts), tau_gap)
            assert got == ad_oracle(counts, sched, tau_gap)


class TestScanAlphaO:
    def make_env(self):
        kernel = ExponentialKernel(1.0, 1.0)
        rate = RateSpec.linear(0.5, 0.9)
        sched = GammaSchedule.linear(1.0)
        return kernel, rate, sched, EnvelopeFns(kernel, rate, sched)

    def test_dirac_only_matches_grid_oracle(self):
        kernel, rate, sched, env = self.make_env()
        for tau_gap in [0.4, 1.3, 2.6]:
            zn = lambda T: np.array([tau_gap])
            got = scan_alpha_O(env, sched, kernel, zn, tau_gap)
            # dense-grid oracle of the corrected shifted condition
            want = None
            for i in range(math.ceil(tau_gap) + 1, 60):
                ws = np.arange(1e-3, 40.0, 1e-3)
                lhs = np.exp(-(ws + i - tau_gap))
                rhs = np.array([env.f(w, i - 1.0) for w in
                                np.arange(0.0, 40.0, 1e-3)])
                # monotone bracketing: compare lhs at w against rhs at w+step
                if np.all(lhs <= rhs[1:] * (1 + 1e-6) + 1e-9):
                    want = i
                    break
            assert got == want, (tau_gap, got, want)

    def test_count_condition_blocks_small_offsets(self):
        kernel, rate, sched, env = self.make_env()
        # too many points for the integrated schedule at small i
        zn = lambda T: np.sort(np.append(np.linspace(0.05, min(T, 3.0), 12), 0.4))
        got = scan_alpha_O(env, sched, kernel, zn, 0.4)
        assert len(zn(float(got))) <= sched.int_shifted(float(got)) + 1e-9

    def test_certificate_rejects_violation(self):
        env = self.make_env()[3]
        ub = lambda w: 10.0 * math.exp(-w)
        rhs = lambda w: env.f(w)
        assert not certify_dominated(ub, rhs)
        assert certify_dominated(lambda w: 0.1 * math.exp(-w), rhs)


class TestRunSystem:
    def test_zero_band_regenerates_immediately(self):
        # F == 0: the first cycle certifies tau = inf, rho = alpha0
        cfg = RenewalConfig(kernel=ZeroKernel(), rate=RateSpec.linear(1.0, 0.5),
                            sched=GammaSchedule.linear(1.0), D=0.0)
        assert cfg.env.F_l1 == 0.0
        start = ZStart.empty()
        start.alpha0 = 2.5
        out = run_system(cfg, PrmStream(3, 0), PrmStream(3, 1), start=start)
        assert out.eta == 0
        assert out.rho == pytest.approx(2.5)
        assert out.taus == [math.inf]

    def test_reproducible(self):
        cfg = reference_ad_config(D=0.0)
        outs = [run_system(cfg, PrmStream(9, 0), PrmStream(9, 1)) for _ in range(2)]
        assert outs[0].rho == outs[1].rho
        assert outs[0].alphas == outs[1].alphas
        assert np.array_equal(outs[0].zstar.times, outs[1].zstar.times)

    def test_alphas_are_integer_offsets(self):
        cfg = reference_ad_config(D=0.0)
        for seed in range(10):
            out = run_system(cfg, PrmStream(seed, 0), PrmStream(seed, 1))
            alphas = np.array(out.alphas)
            assert np.allclose(alphas, np.round(alphas))
            taus = [t for t in out.taus if math.isfinite(t)]
            for a_prev, t, a_next in zip(out.alphas, taus, out.alphas[1:]):
                assert a_prev < t < a_next

    def test_no_band_or_envelope_violations(self):
        cfg = reference_ad_config(D=0.0)
        for seed in range(30):
            out = run_system(cfg, PrmStream(seed, 50), PrmStream(seed, 51))
            assert out.band_violations == 0
            assert out.envelope_failures == 0
            assert out.band_max_low <= 1e-9
            assert out.band_max_high <= 1e-9

    def test_undominated_start_signal_is_refused(self):
        # signal_upper = 0 understates a signal of 3, so the window bounds
        # do not dominate the target's intensity: thinning must not go on
        start = ZStart(signal=lambda t: 3.0, signal_upper=lambda t: 0.0,
                       signal_abs=lambda t: 3.0, age0=5.0, alpha0=2.0)
        with pytest.raises(DominationError):
            run_system(reference_ad_config(D=1.0), PrmStream(1, 0),
                       PrmStream(1, 1), start=start)

    def test_ordinary_setup_runs(self):
        cfg = reference_o_config(D=0.0)
        out = run_system(cfg, PrmStream(2, 0), PrmStream(2, 1))
        assert out.eta >= 0
        assert out.band_violations == 0
        assert out.envelope_failures == 0

    def test_band_scale_mutation_shifts_the_law(self):
        # halving the band width must visibly inflate P(tau = inf)
        cfg = reference_ad_config(D=0.0)
        cfg.band_f_scale = 0.5
        q = math.exp(-cfg.env.F_l1)
        n_inf = n_cyc = 0
        for b in iterate_regenerations(cfg, 300, seed=21):
            for c in b.cycles:
                n_cyc += 1
                n_inf += math.isinf(c.tau_gap)
        z = (n_inf / n_cyc - q) / math.sqrt(q * (1 - q) / n_cyc)
        assert z > 5.0


class TestBlocks:
    def test_blocks_have_gap_and_integer_rho(self):
        cfg = reference_ad_config(D=1.0)
        blocks = iterate_regenerations(cfg, 60, seed=4)
        for b in blocks:
            assert b.rho == pytest.approx(round(b.rho))
            assert b.path.count(b.rho - 1.0, b.rho) == 0
            assert np.all(b.path.times > 0)
            assert np.all(b.path.times <= b.rho)

    def test_block_tuple_unpacking(self):
        cfg = reference_ad_config(D=1.0)
        blk = iterate_regenerations(cfg, 1, seed=5)[0]
        rho, path = blk
        assert rho == blk.rho and path is blk.path

    def test_worker_count_does_not_change_output(self):
        cfg = reference_ad_config(D=1.0)
        seq = iterate_regenerations(cfg, 40, seed=6, n_jobs=1)
        par = iterate_regenerations(cfg, 40, seed=6, n_jobs=2)
        assert [b.rho for b in seq] == [b.rho for b in par]
        for a, b in zip(seq, par):
            assert np.array_equal(a.path.times, b.path.times)
        fclt = [functional_clt_paths(cfg, n=60, n_paths=6, seed=6, n_jobs=j)
                for j in (1, 2)]
        assert np.array_equal(fclt[0][1], fclt[1][1])
        assert [r.statistic for r in fclt[0][2]] == [r.statistic for r in fclt[1][2]]
        lil = [lil_envelope(cfg, n_max=600, seed=6, n_jobs=j)[0] for j in (1, 2)]
        assert (lil[0].statistic, lil[0].detail) == (lil[1].statistic, lil[1].detail)

    def test_extend_after_keeps_paths_growing(self):
        cfg = reference_ad_config(D=0.0)
        out = run_system(cfg, PrmStream(8, 0), PrmStream(8, 1), extend_after=30.0)
        assert out.zstar.horizon == pytest.approx(out.rho + 30.0)

    def test_block_laws_are_index_independent(self):
        import scipy.stats
        cfg = reference_ad_config(D=1.0)
        blocks = iterate_regenerations(cfg, 1200, seed=7)
        rhos = np.array([b.rho for b in blocks])
        h = len(rhos) // 2
        assert scipy.stats.ks_2samp(rhos[:h], rhos[h:]).pvalue >= 0.01
        # terminal-window law just before the regeneration gap
        w = np.array([b.path.count(b.rho - 2.0, b.rho - 1.0) for b in blocks])
        assert scipy.stats.ks_2samp(w[:h], w[h:]).pvalue >= 0.01


class TestSuiteRenewalCounts:
    def test_band_checks_are_the_band_sweep_candidates(self):
        # free sweeps inspect candidates too, but only band sweeps compare
        # them with the band; the margins show how far inside they stayed
        diag = {}
        iterate_regenerations(reference_ad_config(D=1.0), 100, seed=11,
                              collect_diag=diag)
        assert 0 < diag["band_checks"] < diag["n_candidates"]
        assert diag["band_violations"] == 0
        assert -1.0 < diag["band_max_low"] <= 0.0
        assert -1.0 < diag["band_max_high"] < 0.0

    def test_band_gate_counts_every_block(self, monkeypatch):
        # the suite draws several rounds here; its band-invariant gate must
        # count the band checks of all of them, not of the last round only
        seen = {"blocks": 0, "checks": 0}

        def counted(*args, **kwargs):
            out = run_system(*args, **kwargs)
            seen["blocks"] += 1
            seen["checks"] += out.band_checks
            return out

        monkeypatch.setattr(renewal, "run_system", counted)
        reports = suite_renewal(n_cycles=3000, n_blocks=100)
        band = next(r for r in reports if r.name == "band-invariant")
        assert seen["blocks"] > 100
        assert band.n == seen["checks"]
