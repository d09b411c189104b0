import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hawkes_renewal import (ConfigError, EnvelopeFns, ExpDecay,
                            ExponentialKernel, GammaSchedule,
                            IntegrabilityError, PowerLawKernel, RateSpec,
                            RenewalConfig, TableKernel, ZeroKernel,
                            iterate_regenerations, pos_part)
from hawkes_renewal import kernels
from hawkes_renewal.kernels import borel_c_h
from hawkes_renewal.quadrature import integrate, integrate_to_inf
from hawkes_renewal.verify import reference_ad_config, reference_o_config


def make_env(kernel, rate, sched, r=None, D=0.0):
    return EnvelopeFns(kernel, rate, sched, r=r, D=D)


def env_with_r(D=0.0):
    """The AD reference envelope with a given r: F jumps at the g break 1,
    and with r its band mass is a quadrature."""
    return make_env(ExponentialKernel(1.0, 0.2), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                    GammaSchedule.linear(1.0), r=ExpDecay(0.2, 2.0), D=D)


# the inner integral I(t1) = int_0^inf gamma(s+1) hbar(t1+s) ds of
# PowerLawKernel(0.2, 4): in closed form for the linear schedule (C = 1),
# computed with mpmath at 30 digits for the log schedule (C = 3)
POWERLAW_INNER = [
    ("linear", t1, 0.2 * ((1.0 + t1) ** -2 / 2.0 - t1 * (1.0 + t1) ** -3 / 3.0))
    for t1 in (0.0, 10.0, 300.0, 3000.0, 1e5)
] + [
    ("log", 10.0, 2.1511624464231875e-04),
    ("log", 300.0, 3.1212957513469757e-08),
    ("log", 3000.0, 4.8202720255113513e-11),
    ("log", 1e5, 2.0025910929340465e-15),
]


class TestEnvelopeValues:
    def test_zero_kernel_gives_zero_f(self):
        env = make_env(ZeroKernel(), RateSpec.linear(1.0, 1.0), GammaSchedule.linear(0.0))
        for t in [0.0, 0.5, 3.0]:
            for t2 in [0.0, 1.0, math.inf]:
                assert env.f(t, t2) == 0.0

    def test_pure_majorant_case(self):
        # gamma = 0 (linear, C = 0), delta = inf: prefactor 1, inner integral vanishes
        env = make_env(ExponentialKernel(1.0, 1.0), RateSpec.linear(1.0, 1.0),
                       GammaSchedule.linear(0.0))
        for t in [0.0, 0.3, 2.0, 7.5]:
            assert env.f(t) == pytest.approx(math.exp(-t), rel=1e-8)

    def test_constant_schedule_with_refractory(self):
        # gamma = t, delta = 1: prefactor gamma(0) + 1 + 1 = 2, and the inner
        # integral int_0^inf (s+1) e^{-t-s} ds = 2 e^{-t}, so f = 2 (1 + 2) e^{-t}
        rate = RateSpec.refractory_linear(1.0, 0.5, 1.0)
        env = make_env(ExponentialKernel(1.0, 1.0), rate, GammaSchedule.linear(1.0))
        for t in [0.0, 1.0, 2.5]:
            assert env.f(t) == pytest.approx(6.0 * math.exp(-t), rel=1e-7)

    @pytest.mark.parametrize("form", ["linear", "log"])
    def test_exponential_inner_integral_is_closed_form(self, form):
        # J(T) = int_0^T gamma(s+1) e^{-a s} ds against QUADPACK
        for a in (0.2, 1.0, 3.0, 30.0):
            for C in (0.5, 1.0, 3.0):
                sched = GammaSchedule(form, C)
                env = make_env(ExponentialKernel(a, 1.0), RateSpec.linear(0.5, 1.0), sched)
                fn = lambda s: sched.value(s + 1.0) * math.exp(-a * s)
                assert env._J(0.0) == 0.0
                for T in (0.5, 1.0, 2.0, 5.0, 30.0, math.inf):
                    want = quad(fn, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                    assert abs(env._J(T) - want) <= 1e-12 * want, (a, C, T)

    def test_a_rate_past_the_float_range_of_e_to_the_a_is_named(self):
        # the log form's J reads e^a E1(a); past e^709 f names the problem
        env = make_env(ExponentialKernel(800.0, 1.0), RateSpec.linear(0.5, 1.0),
                       GammaSchedule.log(C=3.0))
        for t2 in (2.0, math.inf):
            with pytest.raises(IntegrabilityError, match="f evaluated non-finite"):
                env.f(0.0, t2)

    @pytest.mark.parametrize("form, t1, inner", POWERLAW_INNER,
                             ids=[f"{form}-{t1:g}" for form, t1, _ in POWERLAW_INNER])
    def test_powerlaw_f_holds_far_out(self, form, t1, inner):
        sched = GammaSchedule.linear(1.0) if form == "linear" else GammaSchedule.log(C=3.0)
        env = make_env(PowerLawKernel(0.2, 4.0), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                       sched)
        want = env.prefactor * (0.2 * (1.0 + t1) ** -4 + inner)
        assert abs(env.f(t1) - want) <= max(1e-8 * want, 1e-14)

    @pytest.mark.parametrize("sched", [GammaSchedule.linear(0.7), GammaSchedule.log(C=3.0)],
                             ids=["linear", "log"])
    def test_table_f_matches_a_direct_quadrature(self, sched):
        # the inner integral of the step majorant is a sum over its steps;
        # the reference integrates gamma(s+1) hbar(t1+s) with the knots as breakpoints
        k = TableKernel([(0.0, 0.3), (1.0, -0.1), (3.0, 0.05), (5.0, 0.0)])
        env = make_env(k, RateSpec.refractory_linear(0.5, 0.4, 1.0), sched)
        fn = lambda s, t1: sched.value(s + 1.0) * float(k.majorant(t1 + s))
        for t1 in [0.0, 0.5, 1.0, 2.7, 4.99, 5.0, 7.0]:
            for t2 in [0.0, 0.3, 1.5, 4.0, math.inf]:
                hi = max(min(t2, k.support_end - t1), 0.0)
                points = [t - t1 for t in k.ts if 0.0 < t - t1 < hi]
                inner = quad(fn, 0.0, hi, args=(t1,), points=points or None,
                             epsabs=0.0, epsrel=1e-13, limit=200)[0] if hi > 0 else 0.0
                want = env.prefactor * (float(k.majorant(t1)) + inner)
                assert abs(env.f(t1, t2) - want) <= 1e-12 * want, (t1, t2)

    def test_envelope_is_closed_form_only_for_exponential_kernels_without_r(self):
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        sched = GammaSchedule.linear(1.0)
        ts = [0.0, 0.3, 1.7, 12.0]
        env = make_env(ExponentialKernel(1.3, -0.4), rate, sched)
        for t2 in [0.0, 2.0, math.inf]:
            fn = env.envelope(t2)
            assert fn == ExpDecay(env.f(0.0, t2), 1.3)
            assert np.allclose([fn(t) for t in ts], [env.f(t, t2) for t in ts],
                               rtol=1e-14, atol=0.0)
        r = ExpDecay(0.2, 2.0)
        for kernel, r_fn in [(ExponentialKernel(1.0, 0.2), r),
                             (PowerLawKernel(0.2, 4.0), None)]:
            env = make_env(kernel, rate, sched, r=r_fn)
            fn = env.envelope(2.0)
            assert not isinstance(fn, ExpDecay)
            assert [fn(t) for t in ts] == [env.f(t, 2.0) for t in ts]

    def test_exp_decay_shift_and_plus(self):
        g = ExpDecay(0.8, 2.0)
        assert g(0.0) == 0.8 and g(np.array([0.0, 1.0])).shape == (2,)
        assert g.shift(0.5) == ExpDecay(0.8 * math.exp(-1.0), 2.0)
        assert g.plus(ExpDecay(0.1, 2.0)) == ExpDecay(0.9, 2.0)
        assert g.plus(ExpDecay(0.0, 0.0)) is g
        assert ExpDecay(0.0, 0.0).plus(g) is g
        assert g.plus(ExpDecay(0.1, 1.0)) is None
        assert g.plus(lambda w: 0.0) is None

    def test_assumption_a_names_the_failed_moment(self):
        # under a log schedule t^2 f decays like ln(t) t^-0.5: exponent
        # 2.5 is not above p + 2
        problems = reference_ad_config(kernel=PowerLawKernel(0.2, 2.5), assumption="A",
                                       sched=GammaSchedule.log(C=3.0)).validate()
        assert "t^p f not integrable (assumption A)" in problems
        assert all("assumption A" in p for p in problems)

    def test_assumption_b_moment_follows_the_kernel_rate(self):
        # F decays like exp(-rate t), so exp(0.05 t) F is integrable only
        # for rate > 0.05
        problem = "F lacks an exponential moment (assumption B)"
        for kernel_rate, ok in [(0.04, False), (0.06, True), (0.1, True), (3.0, True)]:
            cfg = reference_ad_config(kernel=ExponentialKernel(kernel_rate, 0.01))
            assert (problem not in cfg.validate()) == ok, kernel_rate

    @pytest.mark.parametrize("kernel", [ExponentialKernel(0.04, 0.0),
                                        PowerLawKernel(0.0, 5.0)], ids=["exp", "powerlaw"])
    def test_a_zero_kernel_has_every_exponential_moment(self, kernel):
        # f vanishes, so F = c_psi 1{t <= delta} and ||F||_1 = 0.5
        cfg = reference_ad_config(D=1.0, kernel=kernel)
        assert cfg.assumption == "B" and cfg.validate() == []
        assert cfg.env.F_l1 == pytest.approx(0.5, rel=1e-12)
        if isinstance(kernel, ExponentialKernel):
            etas = np.array([b.eta for b in iterate_regenerations(cfg, 200, seed=3)])
            q = math.exp(-cfg.env.F_l1)  # eta is geometric: mean 1/q - 1
            se = math.sqrt((1.0 - q) / q**2 / len(etas))
            assert abs(etas.mean() - (1.0 / q - 1.0)) < 5.0 * se

    def test_assumption_verdicts_need_no_quadrature(self, monkeypatch):
        # A and B follow from the kernel family, the schedule form, p and r:
        # a power law (1+t)^-b needs b > p + 3 (linear) or b > p + 2 (log)
        # for A and never has B; every exponential rate must exceed 0.05.
        # An accepted config reads ||F||_1 for its cycle count, which is no
        # verdict, so it is a constant here
        def fail(*args, **kwargs):
            raise AssertionError("a quadrature was called")
        monkeypatch.setattr(kernels, "integrate", fail)
        monkeypatch.setattr(kernels, "integrate_to_inf", fail)
        monkeypatch.setattr(EnvelopeFns, "F_l1", 1.0)
        moments = {"t^p f not integrable (assumption A)", "t^p F not integrable (assumption A)",
                   "assumption A needs p > -1", "F lacks an exponential moment (assumption B)"}

        def moments_of(kernel, sched, r, p, assumption,
                       rate=RateSpec.refractory_linear(0.5, 0.4, 1.0)):
            """The config's problems of the moments of f and F."""
            cfg = RenewalConfig(kernel, rate, sched, r=r, p=p, assumption=assumption)
            return [problem for problem in cfg.validate() if problem in moments]
        lin, log = GammaSchedule.linear(1.0), GammaSchedule.log(C=3.0)
        table = TableKernel([(0.0, 0.3), (1.0, 0.1), (2.0, 0.0)])
        cases = [  # kernel, schedule, r, p, A holds, B holds
            (ExponentialKernel(1.0, 0.2), lin, None, 2.0, True, True),
            (ExponentialKernel(0.04, 0.2), log, None, 2.0, True, False),
            (ExponentialKernel(1.0, 0.2), lin, ExpDecay(0.1, 0.05), 2.0, True, False),
            (ExponentialKernel(1.0, 0.2), lin, ExpDecay(0.0, 0.01), 2.0, True, True),
            (ExponentialKernel(1.0, 0.2), lin, None, -1.0, False, True),
            (table, log, ExpDecay(0.1, 1.0), 7.0, True, True),
            (PowerLawKernel(0.2, 5.0), lin, None, 2.0, False, False),
            (PowerLawKernel(0.2, 5.5), lin, ExpDecay(0.1, 1.0), 2.0, True, False),
            (PowerLawKernel(0.2, 4.5), log, None, 2.0, True, False),
            (PowerLawKernel(0.2, 4.0), log, None, 2.0, False, False),
            # amplitude 0: f is r alone and F = c_psi g, whatever the family
            (PowerLawKernel(0.0, 1.5), log, None, 2.0, True, True),
            (ExponentialKernel(0.04, 0.0), lin, None, 2.0, True, True),
            (ExponentialKernel(0.04, 0.0), lin, ExpDecay(0.1, 0.05), 2.0, True, False),
        ]
        for kernel, sched, r, p, a_holds, b_holds in cases:
            assert (moments_of(kernel, sched, r, p, "A") == []) == a_holds, (kernel, sched, r, p)
            assert (moments_of(kernel, sched, r, p, "B") == []) == b_holds, (kernel, sched, r, p)
        # with L = 0, F = c_psi g past D: only t^p f fails
        assert moments_of(PowerLawKernel(0.2, 4.0), log, None, 2.0, "A",
                          rate=RateSpec.hard_refractory(0.5, 1.0, L=0.0)) == [
            "t^p f not integrable (assumption A)"]

    def test_envelope_collapses_to_delay_plateau(self):
        # f == 0 and g == 0 leave only the head piece c_psi on [0, D]
        env = make_env(ZeroKernel(), RateSpec.linear(1.5, 1.0), GammaSchedule.linear(0.0),
                       D=2.0)
        assert env.F(1.0) == pytest.approx(1.5)
        assert env.F(2.0) == pytest.approx(1.5)
        assert env.F(2.1) == 0.0
        assert env.F_l1 == pytest.approx(3.0, rel=1e-7)

    def test_f_pre_substitution(self):
        # D = 0, f = 6e^-t, g = 1{t <= 1}, L = 0.5, c_psi = 1 -> F = 6e^-t + g
        rate = RateSpec.refractory_linear(1.0, 0.5, 1.0)
        env = make_env(ExponentialKernel(1.0, 1.0), rate, GammaSchedule.linear(1.0))
        for t in [0.0, 0.7, 1.0, 1.5, 3.0]:
            assert env.F(t) == pytest.approx(6.0 * math.exp(-t) + (t <= 1.0), rel=1e-7)
        assert env.F_l1 == pytest.approx(7.0, rel=1e-7)

    def test_quadrature_riemann_consistency(self):
        # with r = 0.5 e^-2t the band mass is a quadrature, of
        # F = 6e^-t + 0.5e^-2t + 1{t <= 1}
        rate = RateSpec.refractory_linear(1.0, 0.5, 1.0)
        env = make_env(ExponentialKernel(1.0, 1.0), rate, GammaSchedule.linear(1.0),
                       r=ExpDecay(0.5, 2.0))
        h = 1e-4
        ts = np.arange(0.0, 40.0, h) + 0.5 * h  # midpoint rule at the stated step
        F = 6.0 * np.exp(-ts) + 0.5 * np.exp(-2.0 * ts) + (ts <= 1.0)
        riemann = float(np.sum(F * h)) + 6.0 * math.exp(-40.0)
        assert env.F_l1 == pytest.approx(riemann, rel=1e-5)

    def test_moment_transfer_bound(self):
        # int t^p f dt is controlled by int u^{p+1} gamma(u+1) hbar(u) du
        k = ExponentialKernel(1.0, 0.2)
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        sched = GammaSchedule.linear(1.0)
        env = make_env(k, rate, sched)
        p = 2.0
        lhs = integrate_to_inf(lambda t: t**p * env.f(t), 0.0)
        single = integrate_to_inf(lambda t: t**p * float(k.majorant(t)), 0.0)
        double = integrate_to_inf(
            lambda u: u ** (p + 1.0) * sched.value(u + 1.0) * float(k.majorant(u)), 0.0)
        bound = env.prefactor * (single + double / (p + 1.0))
        assert lhs <= bound * (1 + 1e-6)
        assert math.isfinite(lhs)

    def test_cumulative_band_mass_interpolant(self):
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        env = make_env(ExponentialKernel(1.0, 0.2), rate,
                       GammaSchedule.linear(1.0), D=1.0)
        rng = np.random.default_rng(2)
        for t in rng.uniform(0.0, 15.0, 12):
            direct = integrate(env.F, 0.0, float(t), points=[env.D, 1.0])
            assert env.cum_F(float(t)) == pytest.approx(direct, abs=1e-6)
        assert env.tail_mass(0.0) == pytest.approx(env.F_l1, rel=1e-9)
        tc = env.t_cut(1e-3)
        assert env.tail_mass(tc) == pytest.approx(1e-3 * env.F_l1, rel=1e-3)
        m = 0.4 * env.F_l1
        assert env.cum_F(env.inv_cum(m)) == pytest.approx(m, rel=1e-6)
        # exact on the AD D=0, AD D=1 and O D=0 references, also next to the
        # jumps of F at D and at the g breaks, where int_0^t F has a kink.
        # The reference integrates piece by piece between the jumps; each
        # piece after the first starts one ulp right of its jump, so no
        # piece evaluates F at its start with the value left of it.
        def direct(F, t, jumps):
            below = [j for j in jumps if j < t]
            starts = [0.0] + [math.nextafter(j, math.inf) for j in below]
            return sum(integrate(F, lo, hi) for lo, hi in zip(starts, below + [t]))
        ad, o = ExponentialKernel(1.0, 0.2), ExponentialKernel(1.0, 0.3)
        for env in [make_env(ad, rate, GammaSchedule.linear(1.0), D=0.0),
                    make_env(ad, rate, GammaSchedule.linear(1.0), D=1.0),
                    make_env(o, RateSpec.linear(0.5, 1.0), GammaSchedule.linear(1.0))]:
            jumps = sorted({env.D, *env.rate.g_breaks} - {0.0})
            near = [b + d for b in jumps for d in (-1 / 64, 1 / 64)]
            for t in near + list(np.arange(6001) / 500.0):
                want = direct(env.F, float(t), jumps)
                assert env.cum_F(float(t)) == pytest.approx(want, abs=1e-9)
            for frac in (1e-3, 0.1, 0.5):
                assert env.tail_mass(env.t_cut(frac)) == pytest.approx(frac * env.F_l1,
                                                                       rel=1e-9)

    def test_inverse_band_mass_meets_its_mass_and_a_root_search(self):
        # the three references take the closed form, the config of
        # test_quadrature_riemann_consistency, with its r, the quadrature of
        # each Newton step
        ad = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        with_r = RateSpec.refractory_linear(1.0, 0.5, 1.0)
        envs = [make_env(ExponentialKernel(1.0, 0.2), ad, GammaSchedule.linear(1.0), D=0.0),
                make_env(ExponentialKernel(1.0, 0.2), ad, GammaSchedule.linear(1.0), D=1.0),
                make_env(ExponentialKernel(1.0, 0.3), RateSpec.linear(0.5, 1.0),
                         GammaSchedule.linear(1.0)),
                make_env(ExponentialKernel(1.0, 1.0), with_r, GammaSchedule.linear(1.0),
                         r=ExpDecay(0.5, 2.0))]
        for env in envs:
            # masses on a grid, and at and next to the mass at each jump of F
            # (D and the g break)
            masses = list(np.linspace(0.0, 1.0, 101)[1:-1] * env.F_l1)
            for c in [env.cum_F(env.D), env.cum_F(1.0)]:
                masses += [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
            for m in (float(m) for m in masses if 0.0 < m < env.F_l1):
                t = env.inv_cum(m)
                assert abs(env.cum_F(t) - m) <= 1e-9, (m, t)
                hi = 1.0
                while env.cum_F(hi) < m:
                    hi *= 2.0
                ref = brentq(lambda s: env.cum_F(s) - m, 0.0, hi, xtol=1e-14)
                # the same root, to the mass that F resolves there
                assert abs(t - ref) * env.F(ref) <= 1e-10, (m, t, ref)

    def test_reference_band_mass_needs_no_quadrature(self, monkeypatch):
        # on the four exponential references f(t1, t2) = f(0, t2) exp(-a t1)
        # with J(t2) closed-form, and F = A + B exp(-a t) between its jumps,
        # so f, the band mass and validate need no quadrature
        cfgs = [reference_ad_config(D=0.0), reference_ad_config(D=1.0),
                reference_o_config(D=0.0), reference_o_config(D=1.0)]

        def fail(*args, **kwargs):
            raise AssertionError("a quadrature was called")
        monkeypatch.setattr(kernels, "integrate", fail)
        monkeypatch.setattr(kernels, "integrate_to_inf", fail)
        for cfg in cfgs:
            assert cfg.validate() == []
            env = cfg.env
            assert env.F_l1 > 0
            assert all(env.f(0.0, float(t2)) > 0 for t2 in range(1, 6))
            for m in np.linspace(0.0, 1.0, 201)[1:-1] * env.F_l1:
                assert env.cum_F(env.inv_cum(float(m))) == pytest.approx(m, rel=1e-12)

    def test_a_query_next_to_a_jump_stays_on_its_side(self):
        # F(1) is the value left of the g break; a quadrature that evaluated
        # it for the piece right of 1 would subdivide toward it, so the query
        # takes no more evaluations than one over an equally long stretch
        # from 0, where F has no jump
        env = env_with_r()
        assert env.F_l1 > 0
        F, seen = env.F, []
        env.F = lambda t: seen.append(t) or F(t)
        env.cum_F(1.0 + 1 / 64)
        next_to_jump = list(seen)
        seen.clear()
        env.cum_F(1 / 64)
        assert min(next_to_jump) > 1.0 and len(next_to_jump) <= len(seen)

    def test_total_mass_stays_inside_the_jumps_of_f(self):
        # the same for ||F||_1: no piece of its quadrature evaluates F at D
        # or at the g break, so none takes more evaluations than the same
        # quadrature over an equally long stretch past the jumps
        for D in (0.0, 0.5, 1.0, 2.0):
            env = env_with_r(D)
            f, seen = env.f, []
            env.f = lambda t, t2=math.inf: seen.append(t) or f(t, t2)
            assert env.F_l1 > 0
            assert not {D, 1.0} & set(seen), D
            during, jumps = list(seen), sorted({0.0, D, 1.0})
            for lo, hi in zip(jumps, jumps[1:]):
                seen.clear()
                integrate(env.F, 3.0, 3.0 + hi - lo)
                assert sum(lo < t < hi for t in during) <= len(seen), (D, lo, hi)

    def test_band_mass_does_not_depend_on_the_query_order(self):
        def env():
            return make_env(ExponentialKernel(1.0, 0.2), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                            GammaSchedule.linear(1.0), D=1.0)
        far, near = env(), env()
        far.cum_F(200.0)
        tc = near.t_cut(1e-3)
        beyond = 2.0 * near.F_l1  # more mass than F has: no t reaches it
        assert near.inv_cum(beyond) == far.inv_cum(beyond) == math.inf
        assert far.t_cut(1e-3) == tc
        for m in np.linspace(0.0, 1.0, 41) * near.F_l1:
            assert far.inv_cum(float(m)) == near.inv_cum(float(m))
        for t in [0.0, 0.5, 1.0, 1.0 + 1e-12, 3.7, tc, 30.0, 200.0, 1e3]:
            assert far.cum_F(t) == near.cum_F(t)

    def test_monotonicity(self):
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        env = make_env(ExponentialKernel(1.0, 0.2), rate, GammaSchedule.linear(1.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            t1, t1b = sorted(rng.uniform(0, 5, 2))
            t2, t2b = sorted(rng.uniform(0, 10, 2))
            assert env.f(t1b, t2) <= env.f(t1, t2) + 1e-12
            assert env.f(t1, t2) <= env.f(t1, t2b) + 1e-12


class TestGammaSchedule:
    def test_identity_inverse(self):
        sched = GammaSchedule.linear(1.0)
        assert sched.inverse(3.5) == pytest.approx(3.5)

    def test_log_inverse_at_zero(self):
        sched = GammaSchedule.log(C=2.0)
        assert sched.inverse(0.0) == 0.0

    def test_only_linear_and_log_forms_exist(self):
        assert GammaSchedule("log", 2.0) == GammaSchedule.log(C=2.0)
        with pytest.raises(ConfigError, match="unknown schedule form 'custom'"):
            GammaSchedule("custom", 1.0)

    @pytest.mark.parametrize("sched", [
        GammaSchedule.linear(0.7),
        GammaSchedule.log(C=1.3),
    ])
    def test_inverse_equivalence(self, sched):
        # y <= gamma(t)  <=>  inverse(y) <= t
        rng = np.random.default_rng(1)
        for _ in range(100):
            y = rng.uniform(0, 4)
            t = rng.uniform(0, 20)
            left = y <= sched.value(t) + 1e-12
            right = sched.inverse(y) <= t + 1e-9
            assert left == right

    def test_ceil_inverse_matches_search(self):
        for sched in [GammaSchedule.linear(0.7), GammaSchedule.log(C=1.3)]:
            for y in [0.0, 0.3, 1.0, 2.5, 7.7]:
                m = sched.ceil_inverse(y)
                assert sched.value(m) >= y
                assert m == 0 or sched.value(m - 1) < y

    def test_memoised_ceil_inverse_is_the_rule(self):
        # answered from a memo per (schedule, y), asked twice per y: the
        # unmemoised rule's least integer m with gamma(m) >= y, or inf
        # where the inverse leaves the float range; the memo stays bounded
        for sched in [GammaSchedule.linear(0.7), GammaSchedule.log(C=1.3),
                      GammaSchedule.log(C=1e-3)]:
            for y in list(range(51)) * 2:
                m = sched.ceil_inverse(y)
                assert m == GammaSchedule.ceil_inverse.__wrapped__(sched, y), (sched, y)
                if sched.C == 1e-3 and y > 0:
                    assert m == math.inf
                else:
                    assert sched.value(m) >= y and (m == 0 or sched.value(m - 1) < y)
        for C in np.linspace(0.1, 3.0, 200):
            sched = GammaSchedule.linear(C)
            for y in range(6):
                assert sched.ceil_inverse(y) == GammaSchedule.ceil_inverse.__wrapped__(sched, y)
            assert 0 < GammaSchedule.ceil_inverse.cache_info().currsize <= 256

    def test_a_small_log_schedule_inverts_to_inf_past_float_range(self):
        # accepted in setup AD under assumption A, yet exp(1 / 1e-3)
        # overflows a float
        sched = GammaSchedule.log(C=1e-3)
        assert reference_ad_config(sched=sched, assumption="A").validate() == []
        assert sched.inverse(0.7) == math.exp(0.7 / 1e-3) < math.inf
        assert sched.inverse(1.0) == math.inf
        assert sched.ceil_inverse(1.0) == math.inf
        assert sched.ceil_inverse(0.0) == 0

    def test_int_shifted_log_closed_form(self):
        sched = GammaSchedule.log(C=1.0)
        for i in [1, 3, 10]:
            expect = (i + 1.0) * math.log(i + 1.0) - i
            assert sched.int_shifted(float(i)) == pytest.approx(expect, rel=1e-8)

    def test_assumption_checks(self):
        assert reference_ad_config(sched=GammaSchedule.linear(1.0)).validate() == []
        # in setup O a log schedule needs C c_h > p + 1, a linear one C > 0;
        # the O reference has m = L ||h+|| = 0.3, the CLI's C = auto is 10%
        # above the least C
        slow = ["gamma(t) must exceed (p+1)ln(t)/c_h (setup O)"]
        least = 3.0 / borel_c_h(0.3)
        o_a = lambda sched: reference_o_config(sched=sched, assumption="A").validate()
        assert o_a(GammaSchedule.log(1.1 * least)) == []
        assert o_a(GammaSchedule.log(C=0.01)) == slow
        assert o_a(GammaSchedule.log(least * 1.01)) == []
        assert o_a(GammaSchedule.log(least * 0.99)) == slow
        assert o_a(GammaSchedule.linear(1e-3)) == []
        flat = reference_ad_config(sched=GammaSchedule.linear(0.0), assumption="A")
        assert flat.validate() == ["gamma(t)/ln(t) not bounded below (setup AD)"]

    @pytest.mark.parametrize("make", [reference_ad_config, reference_o_config])
    def test_assumption_B_needs_a_linear_schedule(self, make):
        # C ln(t)/t tends to 0, however large C is
        problem = "gamma(t)/t not bounded below (assumption B)"
        for C in (3.0, 1e-3):
            assert problem in make(sched=GammaSchedule.log(C=C), assumption="B").validate()
        assert make(assumption="B").validate() == []
        assert make(sched=GammaSchedule.linear(1e-12), assumption="B").validate() == [problem]


class TestKernels:
    def test_table_majorant_running_max(self):
        k = TableKernel([(0.0, 1.0), (1.0, -3.0), (2.0, 0.5), (3.0, 0.0)])
        assert float(k.majorant(0.0)) == 3.0
        assert float(k.majorant(0.99)) == 3.0
        assert float(k.majorant(1.5)) == 3.0
        assert float(k.majorant(2.5)) == 0.5
        assert float(k.majorant(3.5)) == 0.0
        ts = np.linspace(0, 4, 400)
        assert np.all(k.majorant(ts) >= np.abs(k.value(ts)) - 1e-12)
        assert np.all(np.diff(k.majorant(ts)) <= 1e-12)

    def test_table_majorant_holds_at_every_knot(self):
        # the last knot included: the majorant vanishes only past it
        k = TableKernel([(0.0, 0.3), (1.0, -0.1), (3.0, 0.05), (5.0, 0.02)])
        assert np.all(k.majorant(k.ts) >= np.abs(k.value(k.ts)))
        assert float(k.majorant(5.0)) == 0.02 and float(k.majorant(5.0 + 1e-9)) == 0.0

    def test_table_pos_l1_with_sign_change(self):
        k = TableKernel([(0.0, 1.0), (1.0, -1.0), (2.0, 0.0)])
        # positive triangle on [0, 0.5] has area 1/4
        assert k.pos_l1 == pytest.approx(0.25)

    def test_exponential_tail_helpers(self):
        k = ExponentialKernel(2.0, -3.0)
        assert k.pos_l1 == 0.0

    def test_float_paths_agree_with_the_array_paths(self):
        # value and majorant at a float, and ExpDecay at a float, compute
        # with math: a Python float within a relative 1e-15 of the array path
        rng = np.random.default_rng(31)
        ts = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0, 700.0, 745.0],
                             rng.exponential(3.0, 20000), rng.uniform(0.0, 1e-3, 2000)])
        fns = [ExpDecay(0.7, 1.3)]
        for k in [ExponentialKernel(1.0, 0.2), ExponentialKernel(1.3, -0.4),
                  ExponentialKernel(0.37, 2.5), PowerLawKernel(0.2, 4.0),
                  PowerLawKernel(-0.3, 2.5)]:
            fns += [k.value, k.majorant]
        for fn in fns:
            got = [fn(t) for t in ts.tolist()]
            assert all(type(v) is float for v in got)
            assert np.allclose(got, fn(ts), rtol=1e-15, atol=0.0)

    def test_powerlaw_needs_integrable_exponent(self):
        with pytest.raises(ConfigError):
            PowerLawKernel(1.0, 0.9)

    def test_pos_part_wrapper(self):
        k = pos_part(ExponentialKernel(1.0, -2.0))
        assert float(k.value(0.0)) == 0.0
        assert float(k.majorant(0.0)) == 2.0
        same = pos_part(ExponentialKernel(1.0, 2.0))
        assert isinstance(same, ExponentialKernel)


class TestRateSpec:
    def test_reference_rates_validate(self):
        # a value of four fields; psi, g, K, setup and the g breaks follow
        lin, ref = RateSpec.linear(0.5, 1.0), RateSpec.refractory_linear(0.5, 0.4, 1.0)
        hard = RateSpec.hard_refractory(1.0, 0.5)
        assert lin == RateSpec("linear", 0.5, 1.0, math.inf)
        assert hard == RateSpec("hard_refractory", 1.0, 1.0, 0.5)
        assert [(r.setup, r.K, r.g_breaks) for r in (lin, ref, hard)] == [
            ("O", None, ()), ("AD", 0.5, (1.0,)), ("AD", 0.0, (0.5,))]
        assert [lin.psi(2.0, 0.1), ref.psi(2.0, 1.0), ref.psi(2.0, 1.5),
                hard.psi(2.0, 0.5), hard.psi(2.0, 0.6)] == [2.5, 0.5, 1.3, 0.0, 1.0]
        assert [lin.g(0.0), ref.g(1.0), ref.g(1.5)] == [0.0, 1.0, 0.0]
        with pytest.raises(AttributeError):
            lin.L = 2.0
        assert reference_ad_config().validate() == reference_o_config().validate() == []

    @pytest.mark.parametrize("make, problem", [
        (lambda: RateSpec.linear(-0.5, 1.0), "c must be >= 0, got -0.5"),
        (lambda: RateSpec.linear(0.5, math.nan), "L must be >= 0, got nan"),
        (lambda: RateSpec.hard_refractory(1.0, 0.5, L=-0.4), "L must be >= 0, got -0.4"),
        (lambda: RateSpec.refractory_linear(0.5, 0.4, 0.0),
         "refractory_linear needs a finite delta > 0, got 0.0"),
        (lambda: RateSpec.hard_refractory(1.0, math.inf),
         "hard_refractory needs a finite delta > 0, got inf"),
        (lambda: RateSpec("linear", 0.5, 1.0, 1.0),
         "a linear rate has no refractory length delta"),
        (lambda: RateSpec("custom", 0.5, 1.0), "unknown form 'custom'"),
        (lambda: RateSpec.linear(math.inf, 1.0), "c must be finite, got inf"),
        (lambda: RateSpec.refractory_linear(0.5, math.inf, 1.0), "L must be finite, got inf"),
        (lambda: ExponentialKernel(math.nan, 0.2), "rate must be finite, got nan"),
        (lambda: ExponentialKernel(1.0, math.inf), "amplitude must be finite, got inf"),
        (lambda: PowerLawKernel(0.2, math.nan), "exponent must be finite, got nan"),
        (lambda: TableKernel([(0, 1), (1, math.nan)]), "table kernel knots must be finite"),
        (lambda: GammaSchedule.linear(math.inf), "C must be finite, got inf"),
    ], ids=["c", "L-nan", "hard-L", "delta-zero", "delta-inf", "linear-delta", "name",
            "c-inf", "L-inf", "exp-rate-nan", "exp-amplitude-inf", "power-exponent-nan",
            "table-knot-nan", "schedule-C-inf"])
    def test_construction_refuses_a_bad_value(self, make, problem):
        with pytest.raises(ConfigError, match=re.escape(problem)):
            make()

    def test_bad_delta_is_caught(self):
        # any delta > 0 builds a rate and runs the simulator; setup AD of the
        # renewal system needs 1/delta to be an integer
        cfg = reference_ad_config(rate=RateSpec.refractory_linear(0.5, 0.4, 0.3))
        assert cfg.validate() == ["delta must be the reciprocal of an integer"]
        assert reference_ad_config(rate=RateSpec.hard_refractory(0.5, 0.25, L=0.4)).validate() == []


class TestQuadrature:
    def test_known_integrals(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-9)
        assert integrate_to_inf(lambda t: math.exp(-0.5 * t), 0.0) == \
            pytest.approx(2.0, rel=1e-7)

    def test_a_divergent_integrand_raises_with_its_factor_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrabilityError) as exc:
                integrate_to_inf(lambda t: 1.0 / (1.0 + t), 0.0, factor="1/(1+t)")
        assert exc.value.factor == "1/(1+t)"

    def test_breakpoint_handling(self):
        fn = lambda t: 1.0 if t < 1.0 else 0.0
        assert integrate(fn, 0.0, 2.0, points=[1.0]) == pytest.approx(1.0, rel=1e-9)
        # more breakpoints than QUADPACK's default limit of 50 subintervals
        many = [1.0, *np.linspace(0.0, 2.0, 82)[1:-1].tolist()]
        assert integrate(fn, 0.0, 2.0, points=many) == pytest.approx(1.0, rel=1e-9)

    def test_an_interval_a_few_ulps_wide(self):
        a = b = 1.0
        for _ in range(4):
            b = math.nextafter(b, 2.0)
        assert integrate(math.exp, a, b) == pytest.approx(math.e * (b - a), rel=1e-9)

    def test_a_kink_with_and_without_its_breakpoint(self):
        fn = lambda t: abs(t - 1.0 / 3.0)
        for points in ((), (1.0 / 3.0,)):
            assert integrate(fn, 0.0, 1.0, points=points) == pytest.approx(5.0 / 18.0,
                                                                           rel=1e-9)

    def test_a_finite_failure_raises_and_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (lambda t: 1.0 / t, lambda t: math.nan):
                with pytest.raises(IntegrabilityError):
                    integrate(fn, 0.0, 1.0)
