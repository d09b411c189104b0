import math
import warnings

import numpy as np
import pytest

from hawkes_renewal import (ConfigError, EnvelopeFns, ExpDecay,
                            ExponentialKernel, GammaSchedule,
                            IntegrabilityError, PowerLawKernel, RateSpec,
                            TableKernel, ZeroKernel, pos_part)
from hawkes_renewal.quadrature import integrate, integrate_to_inf


def const_sched(c):
    return GammaSchedule(lambda t: c, form="custom", inverse_fn=lambda y: 0.0)


def make_env(kernel, rate, sched, r=None, D=0.0):
    return EnvelopeFns(kernel, rate, sched, r=r, D=D)


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
        env = make_env(ZeroKernel(), RateSpec.linear(1.0, 1.0), const_sched(0.0))
        for t in [0.0, 0.5, 3.0]:
            for t2 in [0.0, 1.0, math.inf]:
                assert env.f(t, t2) == 0.0

    def test_pure_majorant_case(self):
        # gamma = 0, delta = inf: prefactor 1, inner integral vanishes
        env = make_env(ExponentialKernel(1.0, 1.0), RateSpec.linear(1.0, 1.0),
                       const_sched(0.0))
        for t in [0.0, 0.3, 2.0, 7.5]:
            assert env.f(t) == pytest.approx(math.exp(-t), rel=1e-8)

    def test_constant_schedule_with_refractory(self):
        # gamma = 1, delta = 1: prefactor 3, analytic integral e^{-t}
        rate = RateSpec(psi=lambda x, a: 1.0, L=0.5, c_psi=1.0,
                        g=lambda t: math.exp(-t), delta=1.0, K=1.0, setup="AD")
        env = make_env(ExponentialKernel(1.0, 1.0), rate, const_sched(1.0))
        for t in [0.0, 1.0, 2.5]:
            assert env.f(t) == pytest.approx(6.0 * math.exp(-t), rel=1e-7)

    @pytest.mark.parametrize("form, t1, inner", POWERLAW_INNER,
                             ids=[f"{form}-{t1:g}" for form, t1, _ in POWERLAW_INNER])
    def test_powerlaw_f_holds_far_out(self, form, t1, inner):
        sched = GammaSchedule.linear(1.0) if form == "linear" else GammaSchedule.log(C=3.0)
        env = make_env(PowerLawKernel(0.2, 4.0), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                       sched)
        want = env.prefactor * (0.2 * (1.0 + t1) ** -4 + inner)
        assert abs(env.f(t1) - want) <= max(1e-8 * want, 1e-14)

    def test_array_f_is_the_float_f_pointwise(self):
        # the vector path of an exponential kernel and the per-point path of
        # the others give the bits of the float path, with and without r
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        ts = np.array([0.0, 0.05, 0.3, 1.7, 12.0, 40.0])
        r = lambda t: 0.2 * math.exp(-2.0 * t)
        for kernel, r_fn in [(ExponentialKernel(1.0, 0.2), None),
                             (ExponentialKernel(1.3, -0.4), r),
                             (PowerLawKernel(0.2, 4.0), r)]:
            env = make_env(kernel, rate, GammaSchedule.linear(1.0), r=r_fn)
            for t2 in [0.0, 2.0, math.inf]:
                got = env.f(ts, t2)
                assert isinstance(got, np.ndarray) and got.shape == ts.shape
                assert got.tolist() == [env.f(float(t), t2) for t in ts]
            with pytest.raises(ConfigError):
                env.f(np.array([0.5, -0.1]))

    def test_envelope_is_closed_form_only_for_exponential_kernels_without_r(self):
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        sched = GammaSchedule.linear(1.0)
        ts = np.array([0.0, 0.3, 1.7, 12.0])
        env = make_env(ExponentialKernel(1.3, -0.4), rate, sched)
        for t2 in [0.0, 2.0, math.inf]:
            fn = env.envelope(t2)
            assert fn == ExpDecay(env.f(0.0, t2), 1.3)
            assert np.allclose(fn(ts), env.f(ts, t2), rtol=1e-14, atol=0.0)
        r = lambda t: 0.2 * math.exp(-2.0 * t)
        for kernel, r_fn in [(ExponentialKernel(1.0, 0.2), r),
                             (PowerLawKernel(0.2, 4.0), None)]:
            env = make_env(kernel, rate, sched, r=r_fn)
            fn = env.envelope(2.0)
            assert not isinstance(fn, ExpDecay)
            assert fn(ts).tolist() == env.f(ts, 2.0).tolist()

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
        # t^2 f decays like t^-0.5: the quadrature cannot converge
        env = make_env(PowerLawKernel(0.2, 2.5),
                       RateSpec.refractory_linear(0.5, 0.4, 1.0),
                       GammaSchedule.log(C=3.0))
        problems = env.validate("A", 2.0)
        assert "t^p f not integrable (assumption A)" in problems
        assert all("assumption A" in p for p in problems)

    def test_assumption_b_moment_follows_the_kernel_rate(self):
        # F decays like exp(-rate t), so exp(0.05 t) F is integrable only
        # for rate > 0.05, also where exp(0.05 t) alone overflows
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        for kernel_rate, ok in [(0.04, False), (0.06, True), (0.1, True), (3.0, True)]:
            env = make_env(ExponentialKernel(kernel_rate, 0.01), rate, GammaSchedule.linear(1.0))
            assert (env.validate("B") == []) == ok, kernel_rate

    def test_envelope_collapses_to_delay_plateau(self):
        # f == 0 and g == 0 leave only the head piece c_psi on [0, D]
        env = make_env(ZeroKernel(), RateSpec.linear(1.5, 1.0), const_sched(0.0),
                       D=2.0)
        assert env.F(1.0) == pytest.approx(1.5)
        assert env.F(2.0) == pytest.approx(1.5)
        assert env.F(2.1) == 0.0
        assert env.F_l1 == pytest.approx(3.0, rel=1e-7)

    def test_f_pre_substitution(self):
        # D = 0, f = 6e^-t, g = e^-t, L = 0.5, c_psi = 1 -> F = 7 e^-t
        rate = RateSpec(psi=lambda x, a: 1.0, L=0.5, c_psi=1.0,
                        g=lambda t: math.exp(-t), delta=1.0, K=1.0, setup="AD")
        env = make_env(ExponentialKernel(1.0, 1.0), rate, const_sched(1.0))
        for t in [0.0, 0.7, 3.0]:
            assert env.F(t) == pytest.approx(7.0 * math.exp(-t), rel=1e-7)
        assert env.F_l1 == pytest.approx(7.0, rel=1e-7)

    def test_quadrature_riemann_consistency(self):
        rate = RateSpec(psi=lambda x, a: 1.0, L=0.5, c_psi=1.0,
                        g=lambda t: math.exp(-t), delta=1.0, K=1.0, setup="AD")
        env = make_env(ExponentialKernel(1.0, 1.0), rate, const_sched(1.0))
        h = 1e-4
        ts = np.arange(0.0, 40.0, h) + 0.5 * h  # midpoint rule at the stated step
        riemann = float(np.sum(7.0 * np.exp(-ts) * h)) + 7.0 * math.exp(-40.0)
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

    def test_a_query_next_to_a_jump_stays_on_its_side(self):
        # F(1) is the value left of the g break; a quadrature that evaluates
        # it for the segment right of 1 bisects toward it some 40 levels deep
        env = make_env(ExponentialKernel(1.0, 0.2), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                       GammaSchedule.linear(1.0), D=0.0)
        env.cum_F(3.0)
        F, seen = env.F, []
        env.F = lambda t: seen.append(t) or F(t)
        env.cum_F(1.0 + 1 / 64)
        assert min(seen) > 1.0 and len(seen) < 20

    def test_total_mass_stays_inside_the_jumps_of_f(self):
        # the same for ||F||_1: no piece of its quadrature evaluates F at D
        # or at the g break, so none bisects toward a jump
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        for D in (0.0, 0.5, 1.0, 2.0):
            env = make_env(ExponentialKernel(1.0, 0.2), rate, GammaSchedule.linear(1.0), D=D)
            f, seen = env.f, []
            env.f = lambda t, t2=math.inf: seen.append(t) or f(t, t2)
            assert env.F_l1 > 0
            assert not {D, 1.0} & set(seen) and len(seen) < 600, (D, len(seen))

    def test_band_mass_does_not_depend_on_the_query_order(self):
        def env():
            return make_env(ExponentialKernel(1.0, 0.2), RateSpec.refractory_linear(0.5, 0.4, 1.0),
                            GammaSchedule.linear(1.0), D=1.0)
        far, near = env(), env()
        far.cum_F(200.0)
        tc = near.t_cut(1e-3)
        beyond = 2.0 * near.F_l1  # more mass than F has: the table's end
        assert near.inv_cum(beyond) == near.inv_cum(beyond)
        assert far.t_cut(1e-3) == tc
        assert far.inv_cum(beyond) == near.inv_cum(beyond)
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

    def test_step_function_inverse(self):
        sched = GammaSchedule(lambda t: 2.0 if t >= 1.0 else 0.0, form="custom")
        assert sched.inverse(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_bounded_schedule_gives_inf(self):
        sched = GammaSchedule(lambda t: 1.0, form="custom")
        assert sched.inverse(2.0) == math.inf

    @pytest.mark.parametrize("sched", [
        GammaSchedule.linear(0.7),
        GammaSchedule.log(C=1.3),
        GammaSchedule(lambda t: math.floor(t) * 0.5, form="custom"),
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

    def test_int_shifted_log_closed_form(self):
        sched = GammaSchedule.log(C=1.0)
        for i in [1, 3, 10]:
            expect = (i + 1.0) * math.log(i + 1.0) - i
            assert sched.int_shifted(float(i)) == pytest.approx(expect, rel=1e-8)

    def test_assumption_checks(self):
        lin = GammaSchedule.linear(1.0)
        assert lin.check_assumption("AD", "B") == []
        logsched = GammaSchedule.log(p=2.0, c_h=0.2)
        assert logsched.check_assumption("O", "A", p=2.0, c_h=0.2) == []
        slow = GammaSchedule.log(C=0.01)
        assert slow.check_assumption("O", "A", p=2.0, c_h=0.2)


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

    def test_table_pos_l1_with_sign_change(self):
        k = TableKernel([(0.0, 1.0), (1.0, -1.0), (2.0, 0.0)])
        # positive triangle on [0, 0.5] has area 1/4
        assert k.pos_l1 == pytest.approx(0.25)

    def test_exponential_tail_helpers(self):
        k = ExponentialKernel(2.0, -3.0)
        assert k.pos_l1 == 0.0
        assert k.majorant_l1 == pytest.approx(1.5)

    def test_exponential_float_path_gives_the_array_bits(self):
        # value and majorant at a float skip np.asarray; they must give the
        # bits of the array path, and so must f, which relies on it
        rng = np.random.default_rng(31)
        ts = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0, 700.0, 745.0],
                             rng.exponential(3.0, 20000), rng.uniform(0.0, 1e-3, 2000)])
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        for k in [ExponentialKernel(1.0, 0.2), ExponentialKernel(1.3, -0.4),
                  ExponentialKernel(0.37, 2.5)]:
            for fn in (k.value, k.majorant):
                got = [fn(t) for t in ts.tolist()]
                assert all(type(v) is np.float64 for v in got[:50])
                assert np.array(got).tobytes() == fn(ts).tobytes()
            env = make_env(k, rate, GammaSchedule.linear(1.0))
            some = ts[:3000]
            assert np.array([env.f(t) for t in some.tolist()]).tobytes() == env.f(some).tobytes()

    def test_powerlaw_needs_integrable_exponent(self):
        with pytest.raises(ConfigError):
            PowerLawKernel(1.0, 0.9)

    def test_pos_part_wrapper(self):
        k = pos_part(ExponentialKernel(1.0, -2.0))
        assert float(k.value(0.0)) == 0.0
        assert float(k.majorant(0.0)) == 2.0
        same = pos_part(ExponentialKernel(1.0, 2.0))
        assert isinstance(same, ExponentialKernel)

    def test_displacement_sampling_matches_density(self):
        rng = np.random.default_rng(7)
        k = PowerLawKernel(1.0, 3.0)
        x = k.sample_displacement(rng, 20000)
        # CDF is 1 - (1+t)^{-2}
        emp = np.mean(x <= 1.0)
        assert emp == pytest.approx(0.75, abs=0.02)


class TestRateSpec:
    def test_reference_rates_validate(self):
        assert RateSpec.linear(0.5, 1.0).validate() == []
        assert RateSpec.refractory_linear(0.5, 0.4, 1.0).validate() == []
        assert RateSpec.hard_refractory(1.0, 0.5).validate() == []

    def test_non_monotone_rate_is_caught(self):
        bad = RateSpec(psi=lambda x, a: max(1.0 - x, 0.0), L=1.0, c_psi=1.0,
                       g=lambda t: 0.0, delta=math.inf, setup="O")
        assert any("increasing in x" in p for p in bad.validate())

    def test_bad_delta_is_caught(self):
        bad = RateSpec.refractory_linear(0.5, 0.4, 0.3)
        assert any("reciprocal" in p for p in bad.validate())

    def test_refractory_bound_violation_is_caught(self):
        bad = RateSpec(psi=lambda x, a: 1.0 + max(x, 0.0), L=1.0, c_psi=1.0,
                       g=lambda t: 1.0 if t <= 1 else 0.0, delta=1.0, K=1.0,
                       setup="AD")
        assert any("refractory" in p for p in bad.validate())


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
