import io
import math

import numpy as np
import pytest

from hawkes_renewal import (ConfigError, EnvelopeFns, ExpDecay, ExponentialKernel,
                            GammaSchedule, Path, PowerLawKernel, PrmStream, RateSpec,
                            TableKernel, ZeroKernel, ZStart, path_to_csv, pos_part,
                            simulate_adhp)
from hawkes_renewal.hawkes import ProcessState, thin
from hawkes_renewal.prm import swapped_in


def thinning_oracle(pi, kernel, rate, bound, horizon, signal=None, age0=0.0,
                    delay=0.0):
    """Brute-force replay of the thinning definition below a global bound.

    Keeps its own direct-sum memory evaluation, independent of the
    incremental machinery under test.
    """
    pts = pi.sample(0.0, horizon, bound)
    events = []
    for s, z in pts:
        if s <= delay:
            continue
        mem = sum(kernel.value(s - u) for u in events)
        if signal is not None:
            mem += signal(s)
        age = (s - events[-1]) if events else age0 + s
        lam = rate.psi(mem, age)
        assert lam <= bound, "oracle bound violated; enlarge it"
        if z <= lam:
            events.append(s)
    return np.array(events)


def band_replay(pi, specs, width, bound, horizon, pibar=None):
    """Brute-force replay of a band sweep of several tracks below one global
    bound: the band (lam, lam + width] rides on the last track and its
    points are skipped; the band points of a second driver ``pibar``, when
    given, drive the first track alone.  Each spec's process is silent up
    to its origin and reads its start in time since the origin.  Returns
    (jumps of each track, band points skipped)."""
    events = [[] for _ in specs]
    skipped = 0
    points = [(s, z, False) for s, z in pi.sample(0.0, horizon, bound)]
    if pibar is not None:
        points = sorted(points + [(s, z, True) for s, z in
                                  pibar.sample(0.0, horizon, bound)])
    for s, z, second in points:
        lams = []
        for sp, ev in zip(specs, events):
            w, start = s - sp["origin"], sp["start"]
            mem = sum(sp["kernel"].value(s - u) for u in ev)
            mem += start.signal(w)
            age = (s - ev[-1]) if ev else start.age0 + w
            lams.append(0.0 if w <= 0 else sp["rate"].psi(mem, age))
        lam = lams[-1]
        assert max(lams + [lam + width(s)]) <= bound, "replay bound violated; enlarge it"
        inside = lam < z <= lam + width(s)
        if second:
            if inside and z <= lams[0]:
                events[0].append(s)
            continue
        if inside:
            skipped += 1
            continue
        for ev, lam_i in zip(events, lams):
            if z <= lam_i:
                ev.append(s)
    return events, skipped


class TestQueries:
    def test_memory_of_empty_path(self):
        assert ProcessState(ExponentialKernel(1.0, 1.0), None).value_at(5.0) == 0.0

    def test_memory_single_jump(self):
        mem = ProcessState(ExponentialKernel(1.0, 1.0), None)
        mem.add_jump(1.0)
        assert mem.value_at(2.0) == pytest.approx(math.exp(-1.0))
        # a jump at t itself is not yet in the memory at t
        assert mem.value_at(1.0) == 0.0

    def test_incremental_memory_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 50, 200))
        k = ExponentialKernel(1.3, 0.7)
        mem = ProcessState(k, None)
        for u in times:
            mem.add_jump(float(u))
        for t in rng.uniform(0, 60, 50):
            us = times[times < t]
            direct = float(np.sum(0.7 * np.exp(-1.3 * (t - us))))
            assert mem.value_at(t) == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("kernel, closed_form", [
        (ExponentialKernel(1.3, 0.7), True),
        (PowerLawKernel(0.2, 4.0), False),
        (TableKernel([(0, .3), (1, -.1), (3, .05), (5, .02)]), False),
        (pos_part(ExponentialKernel(0.8, -0.5)), True),
        (pos_part(TableKernel([(0, -.2), (0.5, .4), (2, .1), (4, 0)])), False),
    ], ids=["exponential", "power-law", "table", "exp-positive-part",
            "table-positive-part"])
    def test_majorant_from_is_the_direct_sum(self, kernel, closed_form):
        rng = np.random.default_rng(4)
        for _ in range(20):
            times = np.sort(rng.uniform(0, 30, rng.integers(0, 40)))
            mem = ProcessState(kernel, None)
            for u in times:
                mem.add_jump(float(u))
            for base in rng.uniform(0, 35, 3).tolist():
                ub = mem.majorant_from(base)
                assert isinstance(ub, ExpDecay) == closed_form
                us = times[times <= base].tolist()
                for w in [0.0, 0.3, 1.7, 6.0]:
                    direct = sum(kernel.majorant(base + w - u) for u in us)
                    assert ub(w) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_table_memory_sums_the_jumps_within_its_support(self):
        calls, sizes = [], []

        class Recorded(TableKernel):
            def value(self, t):
                calls.append(t)
                return super().value(t)

            def majorant(self, t):
                calls.append(t)
                return super().majorant(t)

        def terms(query):  # the kernel evaluations of one query
            calls.clear()
            out = query()
            sizes.append(len(calls))
            return out

        kernel = Recorded([(0, .3), (1, -.1), (3, .05), (5, .02)])
        rng = np.random.default_rng(6)
        times = np.sort(rng.uniform(0, 200, 400))
        mem = ProcessState(kernel, None)
        for u in times:
            mem.add_jump(float(u))
        # random times, and times one support length after a jump
        for t in np.concatenate([rng.uniform(0, 210, 40), times[::25] + 5.0]).tolist():
            past, upto = times[times < t].tolist(), times[times <= t].tolist()
            value = sum(TableKernel.value(kernel, t - u) for u in past)
            maj = sum(TableKernel.majorant(kernel, t - u) for u in upto)
            assert terms(lambda: mem.value_at(t)) == pytest.approx(value, rel=1e-12, abs=1e-15)
            assert terms(lambda: mem.majorant_sum(t)) == pytest.approx(maj, rel=1e-12, abs=0.0)
            assert terms(lambda: mem.majorant_from(t)(0.0)) == pytest.approx(
                maj, rel=1e-12, abs=0.0)
        # about 10 jumps fall within the support, never the whole past
        assert 0 < max(sizes) < 25

    def test_age_conventions(self):
        # psi = c 1{age > delta}: lambda_at reads c for delta just below the
        # age it uses and 0 just above it
        def lam(age0, jumps, t, delta):
            st = ProcessState(ZeroKernel(), RateSpec.hard_refractory(2.0, delta),
                              ZStart.empty(age0))
            for u in jumps:
                st.add_jump(u)
            return st.lambda_at(t)
        for age0, jumps, t, age in [
            (2.0, [], 3.0, 5.0),     # no jump yet: the start age plus the time since
            (0.0, [1.5], 2.0, 0.5),  # the time since the last jump
            (0.0, [1.5], 1.5, 1.5),  # at the jump time itself the left limit applies
        ]:
            assert lam(age0, jumps, t, age - 1e-9) == 2.0, (age0, jumps, t)
            assert lam(age0, jumps, t, age + 1e-9) == 0.0, (age0, jumps, t)


def direct_intensity(kernel, rate, start, origin, jumps, t):
    """lambda and the dominating bound at t, summed over the jumps plus the
    start: the jumps before t (at or before t for the bound), the signal
    at t - origin (the upper envelope at 0 before the origin)."""
    lam = 0.0
    if t > origin:
        past = [u for u in jumps if u < t]
        x = sum(kernel.value(t - u) for u in past) + start.signal(t - origin)
        age = t - past[-1] if past else start.age0 + (t - origin)
        lam = float(rate.psi(x, age))
    env = (sum(kernel.majorant(t - u) for u in jumps if u <= t)
           + max(start.signal_upper(max(t - origin, 0.0)), 0.0))
    return lam, rate.c_psi + rate.L * max(env, 0.0)


def _env(kernel, rate, D):
    return EnvelopeFns(kernel, rate, GammaSchedule.linear(1.0), D=D)


O_RATE, AD_RATE = RateSpec.linear(0.5, 1.0), RateSpec.refractory_linear(0.5, 0.4, 1.0)
EXP_O, EXP_AD = ExponentialKernel(1.0, 0.3), ExponentialKernel(1.0, 0.2)
SIGNED, TABLE = ExponentialKernel(1.5, -0.3), TableKernel([(0, .3), (1, .1), (2, 0)])


class TestCarriedState:
    # a process of an exponential kernel whose start signals are ExpDecay of
    # its rate carries X and X-bar from jump to jump (``_carry``); every
    # other one reads its jumps.  Both must equal the direct sum
    @pytest.mark.parametrize("kernel, rate, start, carried", [
        (EXP_O, O_RATE, ZStart.atom(_env(EXP_O, O_RATE, 1.0)), True),
        (EXP_O, O_RATE, ZStart.envelope(_env(EXP_O, O_RATE, 0.0)), True),
        (EXP_AD, AD_RATE, ZStart.atom(_env(EXP_AD, AD_RATE, 1.0)), True),
        (EXP_AD, AD_RATE, ZStart.envelope(_env(EXP_AD, AD_RATE, 0.0)), True),
        (SIGNED, AD_RATE, ZStart.atom(_env(SIGNED, AD_RATE, 0.5)), True),
        # an upper envelope below 0 adds nothing to the bound
        (SIGNED, O_RATE, ZStart(ExpDecay(-0.4, 1.5), ExpDecay(-0.1, 1.5), None, 0.3), True),
        (EXP_AD, AD_RATE, ZStart.empty(0.7), False),
        (pos_part(SIGNED), O_RATE, ZStart.envelope(_env(SIGNED, O_RATE, 0.0)), False),
        (TABLE, O_RATE, ZStart.atom(_env(TABLE, O_RATE, 1.0)), False),
    ], ids=["O-atom", "O-envelope", "AD-atom", "AD-envelope", "signed-AD-atom",
            "negative-upper", "AD-empty", "positive-part-envelope", "table-atom"])
    def test_intensities_match_the_direct_sum(self, kernel, rate, start, carried):
        rng = np.random.default_rng(8)
        for _ in range(12):
            origin = float(rng.uniform(0.5, 4.0))
            jumps = (origin + np.cumsum(rng.exponential(0.6, rng.integers(1, 16)))).tolist()
            if rng.random() < 0.5:  # a jump before the origin, which the engine never adds
                jumps.insert(0, origin - 0.4)
            st = ProcessState(kernel, rate, start, origin)
            assert st._carry == carried
            seen = []
            for u in [None] + jumps:
                if u is not None:
                    st.add_jump(u)
                    seen.append(u)
                last = seen[-1] if seen else origin
                queries = [last, last + 1e-9, *(last + rng.exponential(1.0, 3)),
                           origin - 0.3, origin - 0.1, origin]
                if len(seen) > 1:  # between earlier jumps, and at one
                    queries += [float(rng.uniform(origin, last)), seen[-2]]
                for t in map(float, queries):
                    lam, bound = direct_intensity(kernel, rate, start, origin, seen, t)
                    assert st.lambda_at(t) == pytest.approx(lam, rel=1e-12, abs=0.0), t
                    assert st.bound_from(t) == pytest.approx(bound, rel=1e-12, abs=0.0), t


class TestSimulate:
    def test_homogeneous_poisson_rate(self):
        c, horizon = 2.0, 10**4
        path = simulate_adhp(PrmStream(11, 0), ZeroKernel(), RateSpec.linear(c, 0.5),
                             horizon=float(horizon))
        se = math.sqrt(c * horizon) / horizon
        assert path.n / horizon == pytest.approx(c, abs=3 * se)

    def test_hard_refractory_renewal_gaps(self):
        c, delta = 1.5, 0.5
        rate = RateSpec.hard_refractory(c, delta)
        path = simulate_adhp(PrmStream(12, 0), ZeroKernel(), rate, horizon=2e4)
        gaps = np.diff(path.times)
        assert np.min(gaps) >= delta
        expect = delta + 1.0 / c
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert gaps.mean() == pytest.approx(expect, abs=3 * se)

    def test_memory_stays_bounded_on_a_long_horizon(self):
        class Watched(PrmStream):
            most = 0

            def sample(self, t0, t1, zmax):
                out = super().sample(t0, t1, zmax)
                self.most = max(self.most, len(self._cols))
                return out

        pi = Watched(14, 0)
        path = simulate_adhp(pi, ExponentialKernel(1.0, 0.5),
                             RateSpec.refractory_linear(1.0, 1.0, 0.5), horizon=2e4)
        assert path.n > 2e4 and pi.most <= 2 and len(pi._cols) <= 2
        with pytest.raises(ConfigError):
            pi.sample(1e4, 1e4 + 1.0, 1.0)

    def test_linear_hawkes_mean_intensity(self):
        # stationary mean c/(1 - L ||h||_1), cross-checked by an Euler scheme
        c, L = 1.0, 0.5
        kernel = ExponentialKernel(1.0, 1.0)  # ||h||_1 = 1, branching ratio 0.5
        rate = RateSpec.linear(c, L)
        horizon = 2e4
        path = simulate_adhp(PrmStream(13, 0), kernel, rate, horizon=horizon)
        target = c / (1.0 - L * kernel.pos_l1)
        # discrete-time Euler oracle for the same first moment
        rng = np.random.default_rng(99)
        dt, steps = 0.01, int(2e5)
        x = 0.0
        n_ev = 0
        for _ in range(steps):
            lam = c + L * max(x, 0.0)
            jump = rng.random() < lam * dt
            x *= math.exp(-dt)
            if jump:
                x += 1.0
                n_ev += 1
        euler_rate = n_ev / (steps * dt)
        assert euler_rate == pytest.approx(target, rel=0.1)
        se = math.sqrt(target * horizon) / horizon * 2.5  # crude clustered SE
        assert path.n / horizon == pytest.approx(target, abs=3 * se)

    def test_thinning_matches_oracle(self):
        kernel = ExponentialKernel(1.0, 0.2)
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        for seed in range(100):
            pi = PrmStream(seed, 31)
            oracle = thinning_oracle(pi, kernel, rate, bound=12.0, horizon=20.0)
            path = simulate_adhp(pi, kernel, rate, horizon=20.0)
            assert np.array_equal(oracle, path.times), f"seed {seed}"

    def test_thinning_oracle_with_delay_and_age(self):
        # age 2 at time 0 and silent up to 1.5: the empty start of age 3.5
        # at origin 1.5
        kernel = ExponentialKernel(1.0, 0.2)
        rate = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        for seed in range(30):
            pi = PrmStream(seed, 37)
            oracle = thinning_oracle(pi, kernel, rate, bound=12.0, horizon=15.0,
                                     age0=2.0, delay=1.5)
            path = simulate_adhp(pi, kernel, rate, ZStart.empty(3.5), origin=1.5,
                                 horizon=15.0)
            assert np.array_equal(oracle, path.times)

    # two tracks and a delayed, banded last track (the cycle process): age
    # 2 at 0; signal 0.4 e^-t; signal -0.5 e^-t, silent up to 1 and of age
    # 1 there
    AD = RateSpec.refractory_linear(0.5, 0.4, 1.0)
    SPECS = [
        dict(kernel=ExponentialKernel(1.0, 0.2), rate=AD, start=ZStart.empty(2.0),
             origin=0.0),
        dict(kernel=PowerLawKernel(0.3, 3.0), rate=RateSpec.linear(0.5, 0.6),
             start=ZStart(ExpDecay(0.4, 1.0), ExpDecay(0.4, 1.0), ExpDecay(0.4, 1.0)),
             origin=0.0),
        dict(kernel=ExponentialKernel(1.0, 0.2), rate=AD,
             start=ZStart(lambda w: -0.5 * math.exp(-(w + 1.0)), lambda w: 0.0,
                          ExpDecay(0.5 * math.exp(-1.0), 1.0), age0=1.0),
             origin=1.0),
    ]

    @staticmethod
    def width(s):
        return 0.3 * math.exp(-0.5 * s)

    def banded_tracks(self):
        return [ProcessState(sp["kernel"], sp["rate"], sp["start"], sp["origin"])
                for sp in self.SPECS]

    def test_band_sweep_of_several_tracks_matches_replay(self):
        # on one driver, whose band points are skipped
        band = (self.width, lambda t0, t1: self.width(t0))
        total = 0
        for seed in range(40):
            pi = PrmStream(seed, 43)
            want, skipped = band_replay(pi, self.SPECS, self.width, 12.0, 15.0)
            tracks = self.banded_tracks()
            _, n_skipped = thin(tracks, pi.sample, 0.0, 15.0, band=band)
            assert n_skipped == skipped, seed
            for tr, ev in zip(tracks, want):
                assert tr.jumps == ev, seed
            total += skipped
        assert total > 0

    def test_band_sweep_with_a_second_driver_matches_replay(self):
        # the band points of a second driver, read through the band split,
        # drive the first track alone, as pibar's drive Z^n in setup O
        band = (self.width, lambda t0, t1: self.width(t0))
        alone = 0
        for seed in range(40):
            pi, pibar = PrmStream(seed, 43), PrmStream(seed, 47)
            want, skipped = band_replay(pi, self.SPECS, self.width, 12.0, 15.0,
                                        pibar=pibar)
            tracks = self.banded_tracks()

            def edges(s):
                lam = tracks[-1].lambda_at(s)
                return lam, lam + self.width(s)

            swap = lambda t0, t1, zmax: swapped_in(pibar, edges, (t0, t1), zmax)
            _, n_skipped = thin(tracks, pi.sample, 0.0, 15.0, band=band, swap=swap)
            assert n_skipped == skipped, seed
            for tr, ev in zip(tracks, want):
                assert tr.jumps == ev, seed
            second = {s for s, _ in pibar.sample(0.0, 15.0, 12.0)}
            alone += sum(u in second for u in tracks[0].jumps)
        assert alone > 0

    def test_delay_suppresses_events(self):
        path = simulate_adhp(PrmStream(5, 0), ZeroKernel(), RateSpec.linear(3.0, 1.0),
                             ZStart.empty(2.0), origin=2.0, horizon=50.0)
        assert np.all(path.times > 2.0)

    def test_linear_dominates_age_dependent_pathwise(self):
        # same driving PRM: the linear majorant process contains every event
        kernel = ExponentialKernel(1.0, 0.2)
        ad = RateSpec.refractory_linear(0.5, 0.4, 1.0)
        lin = RateSpec.linear(ad.c_psi, ad.L)
        for seed in range(20):
            p_ad = simulate_adhp(PrmStream(seed, 41), kernel, ad, horizon=200.0)
            p_lin = simulate_adhp(PrmStream(seed, 41), kernel, lin, horizon=200.0)
            assert np.all(np.isin(p_ad.times, p_lin.times))

    def test_path_times_strictly_increase(self):
        # lists, arrays and tuples are checked alike, as float arrays
        for make in (list, np.array, tuple):
            path = Path(make([0.5, 1.25, 3]), horizon=4.0)
            assert path.times.dtype == float and path.times.tolist() == [0.5, 1.25, 3.0]
            assert Path(make([]), horizon=1.0).times.shape == (0,)
            for times in ([0.5, 0.5], [0.5, 1.0, 1.0], [2.0, 1.0], [0.0, 3.0, 2.0, 4.0]):
                with pytest.raises(ValueError, match="strictly increasing"):
                    Path(make(times), horizon=5.0)

    def test_csv_format(self):
        path = Path(np.array([0.5, 1.25]), horizon=2.0)
        buf = io.StringIO()
        path_to_csv(path, buf)
        assert buf.getvalue() == "t\n0.5\n1.25\n"
