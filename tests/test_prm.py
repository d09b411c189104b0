import math

import numpy as np
import pytest

from hawkes_renewal import (BandViolationError, ConfigError, PrmStream,
                            split)


class TestPrmStream:
    def test_reproducible(self):
        a = PrmStream(5, 1).sample(2.0, 30.0, 2.5)
        b = PrmStream(5, 1).sample(2.0, 30.0, 2.5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = PrmStream(5, 1).sample(0.0, 50.0, 1.0)
        b = PrmStream(5, 2).sample(0.0, 50.0, 1.0)
        assert not np.array_equal(a, b)

    def test_empty_rectangle(self):
        assert len(PrmStream(0).sample(3.0, 3.0, 1.0)) == 0

    def test_infinite_mark_bound_rejected(self):
        with pytest.raises(ConfigError):
            PrmStream(0).sample(0.0, 1.0, math.inf)

    def test_count_concentration(self):
        # |count - 1000| < 4 sqrt(1000) in at least 99% of seeds
        ok = 0
        n_seeds = 150
        for s in range(n_seeds):
            n = len(PrmStream(s, 3).sample(0.0, 1000.0, 1.0))
            ok += abs(n - 1000) < 4.0 * math.sqrt(1000.0)
        assert ok / n_seeds >= 0.97

    def test_mark_layers_are_consistent(self):
        # enlarging the mark bound must not perturb points below it
        pi = PrmStream(9, 0)
        low = pi.sample(0.0, 20.0, 1.0)
        high = pi.sample(0.0, 20.0, 3.0)
        below = high[high[:, 1] <= 1.0]
        assert np.array_equal(low, below)

    def test_sorted_and_in_rectangle(self):
        pts = PrmStream(3, 0).sample(1.5, 7.25, 2.2)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all((pts[:, 0] > 1.5) & (pts[:, 0] <= 7.25))
        assert np.all((pts[:, 1] >= 0) & (pts[:, 1] <= 2.2))


class TestSplit:
    def test_empty_band_passes_pi_through(self):
        pi, pibar = PrmStream(1, 0), PrmStream(1, 1)
        res = split(pi, pibar, lambda t: (0.0, 0.0), (0.0, 50.0), 2.0)
        assert np.array_equal(res.down, pi.sample(0.0, 50.0, 2.0))
        assert len(res.up) == 0

    def test_full_band_swaps_sources(self):
        pi, pibar = PrmStream(2, 0), PrmStream(2, 1)
        res = split(pi, pibar, lambda t: (0.0, math.inf), (0.0, 50.0), 2.0)
        assert np.array_equal(res.up, pi.sample(0.0, 50.0, 2.0))
        assert np.array_equal(res.down, pibar.sample(0.0, 50.0, 2.0))

    def test_membership_rules_and_mass_conservation(self):
        pi, pibar = PrmStream(3, 0), PrmStream(3, 1)
        f1, f2 = (lambda t: 0.5 + 0.1 * math.sin(t)), (lambda t: 1.5)
        res = split(pi, pibar, lambda t: (f1(t), f2(t)), (0.0, 200.0), 3.0)
        p = pi.sample(0.0, 200.0, 3.0)
        q = pibar.sample(0.0, 200.0, 3.0)
        n_p_band = sum(1 for s, z in p if f1(s) < z <= f2(s))
        n_q_band = sum(1 for s, z in q if f1(s) < z <= f2(s))
        assert len(res.up) == n_p_band
        assert len(res.down) == (len(p) - n_p_band) + n_q_band
        assert len(p) + n_q_band == len(res.down) + len(res.up)
        # shifted marks stay inside the band width
        if len(res.up):
            assert np.all(res.up[:, 1] > 0.0)
            assert np.all(res.up[:, 1] <= 1.5)

    def test_band_violation_detected(self):
        pi, pibar = PrmStream(4, 0), PrmStream(4, 1)
        with pytest.raises(BandViolationError):
            split(pi, pibar, lambda t: (2.0, 1.0), (0.0, 50.0), 3.0)

    def test_constant_band_counts_are_poissonian(self):
        pi, pibar = PrmStream(8, 0), PrmStream(8, 1)
        res = split(pi, pibar, lambda t: (1.0, 2.0), (0.0, 4000.0), 3.0)
        down = res.down[res.down[:, 1] <= 1.0]
        up = res.up
        d, _ = np.histogram(down[:, 0], bins=np.arange(0, 4001, 40))
        u, _ = np.histogram(up[:, 0], bins=np.arange(0, 4001, 40))
        for counts in (d, u):
            mean = counts.mean()
            assert mean == pytest.approx(40.0, abs=4.0 * math.sqrt(40.0 / 100))
        r = np.corrcoef(d, u)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(len(d))
