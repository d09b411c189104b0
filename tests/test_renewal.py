import bisect
import copy
import functools
import hashlib
import math
import os
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

from hawkes_renewal import (ConfigError, Diagnostics, DominationError,
                            ExpDecay, ExponentialKernel, GammaSchedule,
                            PowerLawKernel, PrmStream, RateSpec, RenewalConfig,
                            SimulationCapError, TableKernel, ZeroKernel, ZStart,
                            check_envelope_inequality,
                            iterate_regenerations, run_system, scan_alpha_AD,
                            scan_alpha_O)
from hawkes_renewal import hawkes, prm, renewal, spawn_rng
from hawkes_renewal.kernels import EnvelopeFns
from hawkes_renewal.hawkes import KernelMemory
from hawkes_renewal.renewal import certify_dominated
from hawkes_renewal.stats import functional_clt_paths, lil_envelope
from hawkes_renewal.verify import (reference_ad_config, reference_o_config,
                                   suite_renewal)


def memory_of(kernel, jumps):
    """A :class:`KernelMemory` of ``kernel`` holding ``jumps``."""
    mem = KernelMemory(kernel)
    for u in sorted(jumps):
        mem.add(float(u))
    return mem


def scan_input(kernel, jumps_at):
    """``zn`` of scan_alpha_O for the local jumps ``jumps_at(T)`` on (0, T]:
    their count and their memory's shifted majorant mass at T."""
    def zn(i):
        jumps = jumps_at(float(i))
        return len(jumps), memory_of(kernel, jumps).majorant_from(float(i))
    return zn


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

    def test_cap_raises_with_the_chain_state(self):
        sched = GammaSchedule.linear(1.0)
        with pytest.raises(SimulationCapError, match="age-dependent alpha scan") as exc:
            scan_alpha_AD(sched, lambda i: 5, 0.5, cap=20)
        assert exc.value.diagnostics == {"last_state": 5}

    def test_a_draw_past_the_cap_raises_at_once(self):
        # the chain falls by one per offset at most, so a draw above the
        # offsets left cannot reach zero in time; an infinite one neither
        sched = GammaSchedule.log(C=1e-3)
        seen = []

        def counts(i):
            seen.append(i)
            return [0, 0, 1][i - 1]

        with pytest.raises(SimulationCapError, match="age-dependent alpha scan") as exc:
            scan_alpha_AD(sched, counts, 5.0)
        assert seen == [1, 2, 3]
        assert exc.value.diagnostics == {"last_state": 0}
        with pytest.raises(SimulationCapError) as exc:
            scan_alpha_AD(GammaSchedule.linear(1.0), counts_fn([0, 2, 9]), 0.5, cap=10)
        assert exc.value.diagnostics == {"last_state": 2}


class TestScanAlphaO:
    def make_env(self):
        kernel = ExponentialKernel(1.0, 1.0)
        rate = RateSpec.linear(0.5, 0.9)
        sched = GammaSchedule.linear(1.0)
        return kernel, rate, sched, EnvelopeFns(kernel, rate, sched)

    def test_dirac_only_matches_grid_oracle(self):
        kernel, rate, sched, env = self.make_env()
        for tau_gap in [0.4, 1.3, 2.6]:
            zn = scan_input(kernel, lambda T: [tau_gap])
            got = scan_alpha_O(env, sched, zn, tau_gap)
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
        jumps_at = lambda T: np.sort(np.append(np.linspace(0.05, min(T, 3.0), 12), 0.4))
        got = scan_alpha_O(env, sched, scan_input(kernel, jumps_at), 0.4)
        assert len(jumps_at(float(got))) <= sched.int_shifted(float(got)) + 1e-9

    def test_certificate_rejects_violation(self):
        env = self.make_env()[3]
        ub = lambda w: 10.0 * np.exp(-w)
        rhs = lambda w: env.f(w)
        assert not certify_dominated(ub, rhs)
        assert certify_dominated(lambda w: 0.1 * np.exp(-w), rhs)


def certify_recursive(ub, rhs, abs_tol=1e-12, rel_slack=1e-9, first_step=0.05,
                      ratio=1.3, max_depth=14, max_iter=20000):
    """The envelope certificate as a recursive walk of scalar calls, the
    reference for certify_dominated; returns (verdict, ub and rhs calls)."""
    calls = 0

    def at(fn, w):
        nonlocal calls
        calls += 1
        return float(fn(w))

    def interval_ok(lo, hi, depth):
        if at(ub, lo) <= at(rhs, hi) * (1.0 + rel_slack) + abs_tol:
            return True
        if depth <= 0:
            return False
        mid = 0.5 * (lo + hi)
        return interval_ok(lo, mid, depth - 1) and interval_ok(mid, hi, depth - 1)

    w = 0.0
    for _ in range(max_iter):
        w2 = max(w * ratio, w + first_step)
        if not interval_ok(w, w2, max_depth):
            return False, calls
        if at(ub, w2) <= abs_tol:
            return True, calls
        w = w2
    return False, calls


def certificate_cases():
    """(name, ub, rhs) pairs of decreasing functions that take floats and
    arrays: majorant sums of each kernel family (over the jumps up to the
    base) against envelopes and closed forms, knife edges and violations."""
    sched = GammaSchedule.linear(1.0)
    exp_k = ExponentialKernel(1.0, 0.3)
    env = EnvelopeFns(exp_k, RateSpec.linear(0.5, 1.0), sched)
    table = TableKernel([(0, .3), (1, -.1), (3, .05), (5, 0)])
    power = lambda w: (1.0 + w) ** -3.0
    expo = lambda w: np.exp(-1.0 * w)
    jumps = np.array([0.2, 1.1, 1.7, 2.9])
    cases = []
    for c in [0.2, 1.0, 2.0, 4.0]:
        cases.append((f"exp sum x{c} vs f",
                      memory_of(exp_k, jumps * c).majorant_from(3.0), env.f))
        cases.append((f"exp sum vs f(., {c})", memory_of(exp_k, jumps).majorant_from(3.0),
                      lambda w, c=c: env.f(w, c)))
        cases.append((f"power-law sum x{c}",
                      memory_of(PowerLawKernel(0.2, 4.0), jumps).majorant_from(c), power))
        cases.append((f"table sum x{c}", memory_of(table, jumps).majorant_from(c),
                      lambda w, c=c: 0.4 * c * np.exp(-0.5 * w)))
    for ratio in [0.5, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 + 1e-6, 1.01, 3.0]:
        for name, shape in [("exp", expo), ("power-law", power)]:
            cases.append((f"{ratio} {name}", lambda w, s=shape, r=ratio: r * s(w), shape))
    for ratio in [0.5, 0.99, 1 - 1e-6, 1 + 1e-6]:
        cases.append((f"{ratio} f", lambda w, r=ratio: r * env.f(w), env.f))
    cases.append(("late crossing", lambda w: 1e-3 * power(w), expo))
    cases.append(("crossing inside a refined interval",
                  lambda w: 0.999 * expo(w) + 1e-4 * power(w), expo))
    cases.append(("scalar zero", lambda w: 0.0, env.f))
    cases.append(("never below abs_tol", lambda w: 1e-6, lambda w: 1.0))
    cases.append(("slow power-law", lambda w: 0.5 * (1.0 + w) ** -2.0,
                  lambda w: (1.0 + w) ** -2.0))
    return cases


class TestCertificate:
    def test_verdicts_match_the_recursive_walk(self):
        verdicts = set()
        for name, ub, rhs in certificate_cases():
            cert = certify_dominated(ub, rhs)
            ok, calls = certify_recursive(ub, rhs)
            assert cert.ok == ok and bool(cert) == ok, name
            assert cert.points <= calls, (name, cert.points, calls)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_scalar_signal_abs_and_the_atom(self):
        cfg = reference_ad_config(D=1.0)
        env, kernel = cfg.env, cfg.kernel
        mem = memory_of(kernel, [0.4, 2.5, 3.1])
        for start in [ZStart.empty(), ZStart.atom(env)]:
            for base in [3.5, 6.0]:
                ub_sum = mem.majorant_from(base)
                ub = lambda w: ub_sum(w) + start.signal_abs(base + w)
                cert = check_envelope_inequality(env, mem, base,
                                                 signal_abs=start.signal_abs)
                assert cert.ok == certify_recursive(ub, env.f)[0]

    def test_same_rate_exponentials_are_decided_in_closed_form(self):
        env = reference_o_config(D=0.0).env
        rhs = env.envelope()
        assert isinstance(rhs, ExpDecay)
        for ratio in [0.5, 1 - 1e-6, 1 - 1e-10, 1 + 1e-10, 1.01]:
            ub = ExpDecay(ratio * rhs.c, rhs.rate)
            cert = certify_dominated(ub, rhs)
            assert cert.ok == (ub.c <= rhs.c * (1 + 1e-9) + 1e-12), ratio
            assert cert.points == 1
        assert certify_dominated(ExpDecay(1.01 * rhs.c, rhs.rate), rhs).ok is False
        # a zero kernel: both sides vanish
        zero_env = EnvelopeFns(ZeroKernel(), RateSpec.linear(1.0, 0.5),
                               GammaSchedule.linear(1.0))
        cert = check_envelope_inequality(zero_env, memory_of(ZeroKernel(), [0.5]), 2.0)
        assert cert.ok and cert.points == 1
        # the empty start and the atom keep the sum in closed form
        cfg = reference_ad_config(D=1.0)
        mem = memory_of(cfg.kernel, [0.4, 2.5, 3.1])
        for start in [ZStart.empty(), ZStart.atom(cfg.env)]:
            assert isinstance(start.signal_abs, ExpDecay)
            for base in [3.5, 6.0]:
                c_ub = (float(mem.majorant_from(base)(0.0))
                        + float(start.signal_abs(base)))
                c_rhs = cfg.env.f(0.0)
                cert = check_envelope_inequality(cfg.env, mem, base,
                                                 signal_abs=start.signal_abs)
                assert cert.ok == (c_ub <= c_rhs * (1 + 1e-9) + 1e-12)
                assert cert.points == 1

    def test_closed_form_accepts_whatever_the_walk_accepts(self):
        verdicts = set()
        for rate in [0.5, 1.0, 3.0]:
            for ratio in [0.1, 0.9, 0.99, 0.999, 1 - 1e-6, 1.0, 1 + 1e-10, 1.01]:
                for c in [1e-13, 0.3, 5.0]:
                    ub, rhs = ExpDecay(ratio * c, rate), ExpDecay(c, rate)
                    walk_ok, _ = certify_recursive(lambda w: ub(w), lambda w: rhs(w))
                    cert = certify_dominated(ub, rhs)
                    assert cert.points == 1
                    if walk_ok:
                        assert cert.ok, (rate, ratio, c)
                    verdicts.add((walk_ok, cert.ok))
        # the closed form also accepts knife edges the walk cannot resolve
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_other_pairs_take_the_walk(self):
        sched = GammaSchedule.linear(1.0)
        rate = RateSpec.linear(0.5, 1.0)
        kernel = ExponentialKernel(1.0, 0.3)
        jumps = [0.2, 1.1, 1.7]
        ub = memory_of(kernel, jumps).majorant_from(3.0)
        r = lambda t: 0.1 * math.exp(-2.0 * t)
        env_r = EnvelopeFns(kernel, rate, sched, r=r)
        for rhs in [lambda w: (1.0 + w) ** -3.0,         # power-law rhs
                    ExpDecay(2.0, 0.5),                    # another rate
                    env_r.envelope()]:                     # an envelope with r
            cert = certify_dominated(ub, rhs)
            assert cert.points > 1
            assert cert.ok == certify_recursive(ub, rhs)[0]
        power = PowerLawKernel(0.2, 4.0)
        env_p = EnvelopeFns(power, rate, sched)
        cert = check_envelope_inequality(env_p, memory_of(power, jumps), 3.0)
        assert cert.points > 1

    def test_engine_certificates_are_closed_form_on_exponential_kernels(self):
        diag = {}
        iterate_regenerations(reference_o_config(D=0.0), 20, seed=1,
                              collect_diag=diag)
        assert diag["certificate_points"] == diag["certificates"] > 0

    def test_engine_certificates_match_the_recursive_walk(self, monkeypatch):
        seen = []

        def both(ub, rhs):
            if not isinstance(rhs, ExpDecay):  # each point's f quadrature once
                ub, rhs = functools.cache(ub), functools.cache(rhs)
            cert = certify_dominated(ub, rhs)
            ok, _ = certify_recursive(ub, rhs)
            assert cert.ok == ok
            seen.append(ok)
            return cert

        monkeypatch.setattr(renewal, "certify_dominated", both)
        r = lambda t: math.exp(-t)
        for seed in range(4):
            for cfg in [reference_o_config(D=0.0), reference_ad_config(D=1.0),
                        reference_o_config(D=0.0, r=r), reference_ad_config(D=1.0, r=r)]:
                run_system(cfg, PrmStream(seed, 0), PrmStream(seed, 1))
        power = reference_ad_config(kernel=PowerLawKernel(0.2, 4.0))
        run_system(power, PrmStream(1, 0), PrmStream(1, 1))
        assert len(seen) > 40


class TestConfigValidate:
    @pytest.mark.parametrize("r, problems", [
        (lambda t: 0.5 * math.exp(-t), []),
        (lambda t: -2.0 * math.exp(-t),
         ["start bound r must be >= 0", "start bound r must be decreasing"]),
        (lambda t: (1.0 + t) ** 3 * math.exp(-t), ["start bound r must be decreasing"]),
    ], ids=["decreasing", "negative", "rising-then-falling"])
    def test_start_bound_r_is_spot_checked(self, r, problems):
        cfg = RenewalConfig(ExponentialKernel(1.0, 0.2),
                            RateSpec.refractory_linear(0.5, 0.4, 1.0),
                            GammaSchedule.linear(1.0), r=r)
        assert cfg.validate() == problems


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

    def test_tail_draws_land_past_the_horizon(self):
        # every finite tau is drawn from its law, within the delay D too;
        # a block's last cycle alone has tau = inf, so they number sum(eta)
        cfg = reference_ad_config(D=1.0)
        blocks = iterate_regenerations(cfg, 40, seed=2)
        drawn = [c.tau_gap for b in blocks for c in b.cycles if c.tau_from_tail]
        assert len(drawn) == sum(b.eta for b in blocks) > 0
        assert all(cfg.cycle_horizon < g < math.inf for g in drawn)

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
        # do not dominate the target's intensity: thinning must not go on.
        # The free sweep to alpha0 = 20 reads candidates at rate 0.5, so it
        # meets one, and refuses, at every seed but with odds e^-10
        start = ZStart(signal=lambda t: 3.0, signal_upper=lambda t: 0.0,
                       signal_abs=lambda t: 3.0, age0=5.0, alpha0=20.0)
        for seed in range(20):
            with pytest.raises(DominationError) as err:
                run_system(reference_ad_config(D=1.0), PrmStream(seed, 0),
                           PrmStream(seed, 1), start=start)
            assert err.value.at_time <= start.alpha0

    def test_ordinary_setup_runs(self):
        cfg = reference_o_config(D=0.0)
        out = run_system(cfg, PrmStream(2, 0), PrmStream(2, 1))
        assert out.eta >= 0
        assert out.band_violations == 0
        assert out.envelope_failures == 0

    def test_band_scale_mutation_shifts_the_law(self, monkeypatch):
        # halving the band width leaves P(tau = inf), drawn from ||F||_1,
        # alone; it halves the band points the sweeps skip and lets the
        # target's intensity leave the band, and both gates must see it
        width = renewal._Engine.width
        monkeypatch.setattr(renewal._Engine, "width",
                            lambda eng, s: 0.5 * width(eng, s))
        reports = suite_renewal(reference_ad_config(D=1.0), n_cycles=1000,
                                n_blocks=300, seed=21)
        by_name = {r.name: r for r in reports}
        assert not by_name["band-invariant"].passed
        assert by_name["band-skipped-count"].statistic > 5.0


class TestBlocks:
    def test_blocks_have_gap_and_integer_rho(self):
        cfg = reference_ad_config(D=1.0)
        blocks = iterate_regenerations(cfg, 60, seed=4)
        for b in blocks:
            assert b.rho == pytest.approx(round(b.rho))
            assert b.path.count(b.rho - 1.0, b.rho) == 0
            assert np.all(b.path.times > 0)
            assert np.all(b.path.times <= b.rho)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_worker_count_below_one_is_refused(self, n_jobs):
        with pytest.raises(ConfigError, match="need n_jobs >= 1"):
            iterate_regenerations(reference_ad_config(D=1.0), 4, n_jobs=n_jobs)

    def test_block_tuple_unpacking(self):
        cfg = reference_ad_config(D=1.0)
        blk = iterate_regenerations(cfg, 1, seed=5)[0]
        rho, path = blk
        assert rho == blk.rho and path is blk.path

    def test_worker_count_does_not_change_output(self):
        # 70 blocks make 5 chunks of 16 at n_jobs 2, 3 and 9: this process
        # and 1, 2 or 4 forked children, each with a share of the chunks
        cfg = reference_ad_config(D=1.0)
        seq_diag = {}
        seq = iterate_regenerations(cfg, 70, seed=6, n_jobs=1, collect_diag=seq_diag)
        assert seq_diag["band_checks"] > 0
        for n_jobs in (2, 3, 9):
            diag = {}
            par = iterate_regenerations(cfg, 70, seed=6, n_jobs=n_jobs,
                                        collect_diag=diag)
            assert diag == seq_diag, n_jobs
            assert blocks_digest(par) == blocks_digest(seq), n_jobs
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

    def test_engine_forgets_the_prm_behind_each_alpha(self):
        forgotten = 0
        for cfg in (reference_ad_config(D=1.0), reference_o_config(D=0.0)):
            for seed in range(6):
                pi, pibar = PrmStream(seed, 0), PrmStream(seed, 1)
                out = run_system(cfg, pi, pibar, extend_after=5.0)
                first = math.floor(out.alphas[-1])
                # a column k covers [8k, 8k + 8)
                assert all(8 * k + 8 > first for s in (pi, pibar) for k in s._cols)
                if first > 0:
                    with pytest.raises(ConfigError):
                        pibar.sample(first - 0.5, first + 0.5, 1.0)
                forgotten += first >= 8  # column 0 was dropped
        assert forgotten > 0

    def test_pibar_is_never_read_past_tau(self):
        # from tau on the band is empty, so the post-split reader reads pi
        # alone and pibar's cells there are never drawn
        class Recorded(PrmStream):
            def __init__(self, *args):
                super().__init__(*args)
                self.reads = []

            def sample(self, t0, t1, zmax):
                self.reads.append(t0)
                return super().sample(t0, t1, zmax)

        n_reads = n_taus = 0
        for cfg in (reference_ad_config(D=1.0), reference_o_config(D=0.0)):
            for seed in range(8):
                pibar = Recorded(seed, 1)
                out = run_system(cfg, PrmStream(seed, 0), pibar)
                for t0 in pibar.reads:
                    # the cycle j reading at t0 runs from alphas[j] to alphas[j + 1]
                    j = bisect.bisect_right(out.alphas, t0) - 1
                    assert t0 < out.taus[j], (seed, t0, out.taus[j])
                n_reads += len(pibar.reads)
                n_taus += out.eta
        assert n_reads > 0 and n_taus > 0

    def test_block_tail_generators_draw_as_spawned_ones(self, monkeypatch):
        # the blocks of a chunk share one tail generator, re-keyed per block
        states = []

        def recorded(*args, tau_rng, **kwargs):
            states.append(copy.deepcopy(tau_rng.bit_generator.state))
            return run_system(*args, tau_rng=tau_rng, **kwargs)

        def draws(gen):
            return [gen.random(), gen.poisson(1.7), gen.random(5).tolist(),
                    gen.poisson(0.3, 4).tolist(), gen.random()]

        monkeypatch.setattr(renewal, "run_system", recorded)
        for seed in (0, 3, 2**40 + 1):
            del states[:]
            iterate_regenerations(reference_ad_config(D=1.0), 20, seed=seed)
            assert len(states) == 20
            for i, state in enumerate(states):
                rekeyed = np.random.Generator(np.random.Philox(0))
                rekeyed.bit_generator.state = state
                assert draws(rekeyed) == draws(spawn_rng(seed, i, 0x7A1)), (seed, i)

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


@pytest.fixture
def no_children_left():
    """Fails a test that runs longer than 60 s (raising in this process, so
    the block source kills its children) or leaves a child process."""
    def timed_out(signum, frame):
        raise TimeoutError("forked block source did not return")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_children(monkeypatch, action):
    """Make ``renewal._run_chunk`` call ``action`` first in forked children."""
    parent, run = os.getpid(), renewal._run_chunk

    def chunk(cfg, job):
        if os.getpid() != parent:
            action()
        return run(cfg, job)

    monkeypatch.setattr(renewal, "_run_chunk", chunk)


def raiser(exc):
    def action():
        raise exc
    return action


SCIPY_FREE_RUN = """
import sys
from hawkes_renewal import iterate_regenerations
from hawkes_renewal.verify import reference_ad_config, reference_o_config
for cfg in (reference_ad_config(D=1.0), reference_o_config(D=0.0)):
    assert len(iterate_regenerations(cfg, 20, seed=1)) == 20
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_exponential_engine_loads_no_scipy():
    # a fresh interpreter: pytest's filterwarnings names a scipy.integrate
    # warning, which imports SciPy in this one
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__),
                                                   os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestForkedBlocks:
    @pytest.mark.parametrize("exc, field, value", [
        (SimulationCapError("cap hit in a child", diagnostics={"last_state": [3, 1]}),
         "diagnostics", {"last_state": [3, 1]}),
        (ConfigError(["first problem", "second problem"]),
         "problems", ["first problem", "second problem"]),
        (DominationError("no bound in a child", at_time=12.5), "at_time", 12.5),
    ], ids=["cap", "config", "domination"])
    def test_child_error_is_raised_with_its_fields(self, monkeypatch,
                                                   no_children_left,
                                                   exc, field, value):
        in_children(monkeypatch, raiser(exc))
        with pytest.raises(type(exc)) as info:
            iterate_regenerations(reference_ad_config(D=1.0), 40, seed=6, n_jobs=3)
        assert str(info.value) == str(exc)
        assert getattr(info.value, field) == value

    def test_child_without_result_is_named(self, monkeypatch, no_children_left):
        in_children(monkeypatch, lambda: os._exit(3))
        with pytest.raises(RuntimeError,
                           match=r"block worker pid \d+ exited with status 3 "
                                 r"and sent no result"):
            iterate_regenerations(reference_ad_config(D=1.0), 40, seed=6, n_jobs=2)

    def test_parent_error_kills_its_children(self, monkeypatch, no_children_left):
        # the children would sleep past the alarm unless they are killed
        parent = os.getpid()

        def chunk(cfg, job):
            if os.getpid() != parent:
                time.sleep(600)
            raise KeyboardInterrupt

        monkeypatch.setattr(renewal, "_run_chunk", chunk)
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            iterate_regenerations(reference_ad_config(D=1.0), 40, seed=6, n_jobs=3)
        assert time.perf_counter() - t0 < 30


def blocks_digest(blocks):
    """sha256 over rho, eta, event counts, event times and cycle records."""
    h = hashlib.sha256()
    for part in ([b.rho for b in blocks], [b.eta for b in blocks],
                 [b.n_events for b in blocks],
                 np.concatenate([b.path.times for b in blocks]),
                 [[c.index, c.tau_gap, c.alpha_gap, c.envelope_ok, c.tau_from_tail]
                  for b in blocks for c in b.cycles]):
        a = np.ascontiguousarray(part, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    # seeded outputs of the reference configs, byte for byte; a change that
    # moves them must say why and pass the exact-law gates again
    @pytest.mark.parametrize("make, D, seed, n, pin", [
        (reference_ad_config, 1.0, 6, 60,
         "486032429f9ec47cf0d00c9df41f3ea5a333cfd4e525c2c3cfb23102a538dd01"),
        (reference_ad_config, 0.0, 9, 60,
         "36e98f0fd5354d78628c8829490e689468b0a12a56ea15aa70a7eac241ca04b9"),
        (reference_o_config, 0.0, 3, 12,
         "271a23213fe5d0e644176efe0612a1beae73d1a2f4b3ebdf6fbacaf662fcd276"),
        (reference_o_config, 1.0, 4, 12,
         "5c23ada71016c01dd0b1edf6634a088a38db00c8aa6e275f477d4e3b67ac39ed"),
    ], ids=["AD-D1-seed6", "AD-D0-seed9", "O-D0-seed3", "O-D1-seed4"])
    def test_blocks_match_their_pin(self, make, D, seed, n, pin):
        assert blocks_digest(iterate_regenerations(make(D=D), n, seed=seed)) == pin

    @pytest.mark.parametrize("D, kernel, seed, pin", [
        (0.0, None, 7,
         "12b22e03e28b53a2ffb76439f739919523be308942f59e537356188e6b0ce8d9"),
        (1.0, None, 8,
         "680522c0507b97ecd603b48f29646d15d3579b9e1cc436c8fce5617ed0969cfc"),
        (0.0, TableKernel([(0.0, 0.3), (1.0, 0.1), (2.0, 0.0)]), 9,
         "89de5ecb6e2ae5cd2f5d7f98716d9b2cabdfaa427ed924c7bdec1a9ff76201b7"),
    ], ids=["O-D0-seed7", "O-D1-seed8", "O-table-seed9"])
    def test_zn_scan_inputs_match_their_pin(self, monkeypatch, D, kernel, seed, pin):
        # every (offset, count, mass(0)) that Z^n hands the ordinary scan over
        # 40 blocks: its jumps before tau, at tau and past it, byte for byte
        h = hashlib.sha256()
        scan = renewal.scan_alpha_O

        def recorded(env, sched, zn, tau_gap, **kwargs):
            def seen(i):
                count, mass = zn(i)
                h.update(np.array([i, count, mass(0.0)], dtype=np.float64).tobytes())
                return count, mass
            return scan(env, sched, seen, tau_gap, **kwargs)

        monkeypatch.setattr(renewal, "scan_alpha_O", recorded)
        overrides = {"kernel": kernel} if kernel is not None else {}
        iterate_regenerations(reference_o_config(D=D, **overrides), 40, seed=seed)
        assert h.hexdigest() == pin


class TestDiagnostics:
    def test_merge_sums_counts_and_keeps_the_largest_excursions(self):
        total = Diagnostics()
        assert total.merge(Diagnostics()) == Diagnostics()
        assert total.band_max_low == total.band_max_high == -math.inf
        total.merge(Diagnostics(band_max_low=-0.5, band_max_high=-2.0,
                                band_checks=3, certificates=1,
                                certificate_points=40, n_candidates=7))
        total.merge(Diagnostics(band_max_low=-0.7, band_max_high=-1.0,
                                band_violations=1, band_checks=2,
                                band_skipped=4, envelope_failures=2,
                                certificates=2, certificate_points=9,
                                n_candidates=5))
        total.merge(Diagnostics(band_skipped=3))
        assert total == Diagnostics(
            band_max_low=-0.5, band_max_high=-1.0, band_violations=1,
            band_checks=5, band_skipped=7, envelope_failures=2, certificates=3,
            certificate_points=49, n_candidates=12)


class _ScaledMass:
    """An envelope whose band mass ||F||_1 is ``scale`` times the true one."""

    def __init__(self, env, scale):
        self.env, self.scale = env, scale

    def __getattr__(self, name):
        return getattr(self.env, name)

    @property
    def F_l1(self):
        return self.scale * self.env.F_l1


class TestGatesCanFail:
    # each plants one defect in the engine and runs the exact-law gates (on
    # AD D=1 unless named) at the smallest ensemble that rejects it clearly
    def gates(self, n_cycles, n_blocks, cfg=None):
        cfg = cfg if cfg is not None else reference_ad_config(D=1.0)
        reports = suite_renewal(cfg, n_cycles=n_cycles, n_blocks=n_blocks, seed=21)
        return {r.name: r for r in reports}

    def test_band_sweeps_that_keep_band_points_fail(self, monkeypatch):
        monkeypatch.setattr(hawkes, "in_band", lambda lo, z, hi: False)
        by_name = self.gates(300, 100)
        assert by_name["band-skipped-count"].statistic > 5.0

    def test_a_scaled_band_mass_fails(self, monkeypatch):
        # the cycles draw tau with 0.9 ||F||_1; the gates read the true mass
        init = renewal._Engine.__init__

        def scaled(eng, *args, **kwargs):
            init(eng, *args, **kwargs)
            eng.env = _ScaledMass(eng.env, 0.9)

        monkeypatch.setattr(renewal._Engine, "__init__", scaled)
        by_name = self.gates(10**4, 3000)
        assert by_name["tau-infinite-frequency"].statistic > 5.0
        assert by_name["eta-geometric"].p_value < 1e-4
        assert by_name["tau-gap-conditional-law"].p_value < 1e-4

    @pytest.mark.parametrize("make, D, scale", [
        (reference_o_config, 0.0, 0.5),
        # AD D=1 certificates hold with ub <= 0.25 f at this seed (6,578 of
        # them over 3,000 blocks), so a halved f cannot fail there
        (reference_ad_config, 1.0, 0.1),
    ], ids=["O-D0-half", "AD-D1-tenth"])
    def test_a_scaled_track_certificate_fails(self, monkeypatch, make, D, scale):
        check = renewal.check_envelope_inequality

        def scaled(env, memory, base, signal_abs=None):
            rhs = env.envelope()
            env = types.SimpleNamespace(
                envelope=lambda: ExpDecay(scale * rhs.c, rhs.rate))
            return check(env, memory, base, signal_abs)

        monkeypatch.setattr(renewal, "check_envelope_inequality", scaled)
        cert = self.gates(100, 30, make(D=D))["envelope-certificate"]
        assert not cert.passed and cert.statistic >= 5

    def test_paired_blocks_fail_the_block_correlations(self, monkeypatch):
        # block 2k+1 reuses the PRM streams (3i, 3i+1) and the tau key of
        # block 2k, so the pairs are equal and r is near 1/2
        key = renewal.derive_key
        monkeypatch.setattr(renewal, "PrmStream", lambda seed, stream: PrmStream(
            seed, stream=stream - 3 * (stream // 3 % 2)))
        monkeypatch.setattr(renewal, "derive_key", lambda seed, i, tag: key(
            seed, i - i % 2 if tag == 0x7A1 else i, tag))
        by_name = self.gates(1, 100)
        assert not by_name["block-count-correlation"].passed
        assert not by_name["block-length-correlation"].passed

    def test_rho_at_alpha_eta_fails(self, monkeypatch):
        run = renewal.run_system

        def misplaced(cfg, *args, **kwargs):
            out = run(cfg, *args, **kwargs)
            out.rho = out.alphas[-1]
            return out

        monkeypatch.setattr(renewal, "run_system", misplaced)
        assert not self.gates(1000, 300)["regeneration-gap-empty"].passed


class TestWorkCounts:
    def test_ordinary_blocks_read_the_prm_once_past_tau(self, monkeypatch):
        # Z^n and the tracks share one sweep past tau, and Z^n joins the
        # cycle's band sweep before it, so each window reads pi once there
        # too: a second read of pi past tau would add about a quarter to
        # this count, a separate Z^n pass before tau about a sixth
        reads = 0
        sample = prm.PrmStream.sample

        def counted(stream, *args):
            nonlocal reads
            reads += 1
            return sample(stream, *args)

        monkeypatch.setattr(prm.PrmStream, "sample", counted)
        iterate_regenerations(reference_o_config(D=0.0), 100, seed=1)
        assert 0.95 * 4410 <= reads <= 1.05 * 4410


class TestSuiteRenewalCounts:
    def test_certificate_counts_cover_every_certificate(self, monkeypatch):
        # the ordinary setup certifies in the alpha scan and at every alpha;
        # at this seed some scan offsets fail their certificate
        seen = {"certificates": 0, "points": 0}

        def counted(ub, rhs):
            cert = certify_dominated(ub, rhs)
            seen["certificates"] += 1
            seen["points"] += cert.points
            return cert

        monkeypatch.setattr(renewal, "certify_dominated", counted)
        diag = {}
        blocks = iterate_regenerations(reference_o_config(D=0.0), 6, seed=2,
                                       collect_diag=diag)
        alphas = sum(len(b.cycles) - 1 for b in blocks)
        assert diag["certificates"] == seen["certificates"] > 2 * alphas > 0
        assert diag["certificate_points"] == seen["points"]


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

    def test_band_skipped_sums_what_the_sweeps_skip(self, monkeypatch):
        # every tau comes from its law, and the band sweep up to it skips
        # the band points it meets
        seen = []

        def recorded(*args, **kwargs):
            n, skipped = thin(*args, **kwargs)
            seen.append(skipped)
            return n, skipped

        thin = renewal.thin
        monkeypatch.setattr(renewal, "thin", recorded)
        diag = {}
        iterate_regenerations(reference_ad_config(D=0.0), 60, seed=4, collect_diag=diag)
        assert diag["band_skipped"] == sum(seen) > 0

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
