import hashlib
import math

import numpy as np
import pytest

from hawkes_renewal import (Diagnostics, DominationError, ExpDecay,
                            ExponentialKernel, GammaSchedule, PowerLawKernel,
                            PrmStream, RateSpec, RenewalConfig, TableKernel,
                            ZeroKernel, ZStart, check_envelope_inequality,
                            iterate_regenerations, run_system, scan_alpha_AD,
                            scan_alpha_O)
from hawkes_renewal import renewal
from hawkes_renewal.kernels import EnvelopeFns
from hawkes_renewal.renewal import _majorant_sum, certify_dominated
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
    arrays: majorant sums of each kernel family against envelopes and
    closed forms, knife edges and violations."""
    sched = GammaSchedule.linear(1.0)
    exp_k = ExponentialKernel(1.0, 0.3)
    env = EnvelopeFns(exp_k, RateSpec.linear(0.5, 1.0), sched)
    table = TableKernel([(0, .3), (1, -.1), (3, .05), (5, 0)])
    power = lambda w: (1.0 + w) ** -3.0
    expo = lambda w: np.exp(-1.0 * w)
    jumps = np.array([0.2, 1.1, 1.7, 2.9])
    cases = []
    for c in [0.2, 1.0, 2.0, 4.0]:
        cases.append((f"exp sum x{c} vs f", _majorant_sum(exp_k, jumps * c, 3.0), env.f))
        cases.append((f"exp sum vs f(., {c})", _majorant_sum(exp_k, jumps, 3.0),
                      lambda w, c=c: env.f(w, c)))
        cases.append((f"power-law sum x{c}", _majorant_sum(PowerLawKernel(0.2, 4.0),
                                                        jumps, c), power))
        cases.append((f"table sum x{c}", _majorant_sum(table, jumps, c),
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
            if not ok:  # a violation ends at least as early as the walk does
                assert cert.points <= calls, (name, cert.points, calls)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_scalar_signal_abs_and_the_atom(self):
        cfg = reference_ad_config(D=1.0)
        env, kernel = cfg.env, cfg.kernel
        jumps = np.array([0.4, 2.5, 3.1])
        for start in [ZStart.empty(), ZStart.atom(env)]:
            for base in [3.5, 6.0]:
                ub_sum = _majorant_sum(kernel, jumps, base)
                ub = lambda w: ub_sum(w) + start.signal_abs(base + w)
                cert = check_envelope_inequality(env, kernel, jumps, base,
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
        cert = check_envelope_inequality(zero_env, ZeroKernel(), np.array([0.5]), 2.0)
        assert cert.ok and cert.points == 1
        # the empty start and the atom keep the sum in closed form
        cfg = reference_ad_config(D=1.0)
        jumps = np.array([0.4, 2.5, 3.1])
        for start in [ZStart.empty(), ZStart.atom(cfg.env)]:
            assert isinstance(start.signal_abs, ExpDecay)
            for base in [3.5, 6.0]:
                c_ub = (float(_majorant_sum(cfg.kernel, jumps, base)(0.0))
                        + float(start.signal_abs(base)))
                c_rhs = cfg.env.f(0.0)
                cert = check_envelope_inequality(cfg.env, cfg.kernel, jumps, base,
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
        jumps = np.array([0.2, 1.1, 1.7])
        ub = _majorant_sum(kernel, jumps, 3.0)
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
        cert = check_envelope_inequality(env_p, power, jumps, 3.0)
        assert cert.points > 1

    def test_engine_certificates_are_closed_form_on_exponential_kernels(self):
        diag = {}
        iterate_regenerations(reference_o_config(D=0.0), 20, seed=1,
                              collect_diag=diag)
        assert diag["certificate_points"] == diag["certificates"] > 0

    def test_engine_certificates_match_the_recursive_walk(self, monkeypatch):
        seen = []

        def both(ub, rhs):
            cert = certify_dominated(ub, rhs)
            ok, _ = certify_recursive(ub, rhs)
            assert cert.ok == ok
            seen.append(ok)
            return cert

        monkeypatch.setattr(renewal, "certify_dominated", both)
        for seed in range(4):
            run_system(reference_o_config(D=0.0), PrmStream(seed, 0), PrmStream(seed, 1))
            run_system(reference_ad_config(D=1.0), PrmStream(seed, 0), PrmStream(seed, 1))
        assert len(seen) > 20


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

    def test_band_scale_mutation_shifts_the_law(self, monkeypatch):
        # halving the band width must visibly inflate P(tau = inf)
        width = renewal._Engine.width
        monkeypatch.setattr(renewal._Engine, "width",
                            lambda eng, s: 0.5 * width(eng, s))
        cfg = reference_ad_config(D=0.0)
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
        diags = [{}, {}]
        seq = iterate_regenerations(cfg, 40, seed=6, n_jobs=1, collect_diag=diags[0])
        par = iterate_regenerations(cfg, 40, seed=6, n_jobs=2, collect_diag=diags[1])
        assert [b.rho for b in seq] == [b.rho for b in par]
        assert diags[0] == diags[1] and diags[0]["band_checks"] > 0
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
         "e6ed63e9d33dfa4dcc33818e97b979c9158015b8051daed438e3aad5dd9b371d"),
        (reference_ad_config, 0.0, 9, 60,
         "f6a25eabe61d7a950318a10a56093fb7cb19494c7fec95790c337b897e331c31"),
        (reference_o_config, 0.0, 3, 12,
         "16251f69bb02abe8dd4276df1390b63a9bd9e0708ad74e936aa2c645f6fe00ce"),
    ], ids=["AD-D1-seed6", "AD-D0-seed9", "O-D0-seed3"])
    def test_blocks_match_their_pin(self, make, D, seed, n, pin):
        assert blocks_digest(iterate_regenerations(make(D=D), n, seed=seed)) == pin


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
                                envelope_failures=2, certificates=2,
                                certificate_points=9, n_candidates=5,
                                tau_tail_draws=1))
        assert total == Diagnostics(
            band_max_low=-0.5, band_max_high=-1.0, band_violations=1,
            band_checks=5, envelope_failures=2, certificates=3,
            certificate_points=49, n_candidates=12, tau_tail_draws=1)


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
