import math

import numpy as np
import pytest
from scipy import stats

from hawkes_renewal import (BandViolationError, ConfigError, PrmStream,
                            prm, split)

MASK64 = (1 << 64) - 1
WIDTH = 8  # time units per PRM cell


def mix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def plain_fold(*parts):
    """The key fold of derive_key without its memo."""
    h0, h1 = 0x243F6A8885A308D3, 0x13198A2E03707344
    for p in parts:
        p = int(p) & MASK64
        h0, h1 = mix64(h0 ^ p), mix64(h1 ^ mix64(p))
    return (h1 << 64) | h0


def sample_by_cells(seed, stream, t0, t1, zmax, cells):
    """The PRM read cell by cell, the reference for PrmStream.sample: every
    cell (k, m) = [8k, 8k+8) x [m, m+1) that meets the window, below
    ceil(zmax), from a fresh Philox keyed by the cell (kept in ``cells``):
    a Poisson(8) count, then sorted uniform times and uniform marks.  The
    cells are concatenated in (k, m) order, filtered to (t0, t1] x
    [0, zmax] and sorted stably by time."""
    if zmax <= 0 or t1 <= t0:
        return np.empty((0, 2))
    base = plain_fold(seed, stream, 0xB1E55ED)
    chunks = []
    for k in range(math.floor(t0 / WIDTH), math.ceil(t1 / WIDTH)):
        for m in range(math.ceil(zmax)):
            if (k, m) not in cells:
                gen = np.random.Generator(np.random.Philox(key=plain_fold(base, k, m)))
                n = int(gen.poisson(8.0))
                ts = WIDTH * k + WIDTH * np.sort(gen.random(n))
                cells[k, m] = np.column_stack([ts, m + gen.random(n)])
            chunks.append(cells[k, m])
    allp = np.concatenate(chunks)
    keep = (allp[:, 0] > t0) & (allp[:, 0] <= t1) & (allp[:, 1] <= zmax)
    allp = allp[keep]
    return allp[np.argsort(allp[:, 0], kind="stable")]


def random_windows(rng, n):
    """Windows inside one unit, across units, from an integer t0, across a
    cell boundary 8j (or ending on it) and up to 20 units long, with mark
    bounds that rise and fall, each read twice in a row."""
    for _ in range(n):
        k = int(rng.integers(0, 60))
        kind = rng.integers(0, 5)
        if kind == 0:
            t0, t1 = sorted(k + rng.random(2))
        elif kind == 1:
            t0 = k + rng.random()
            t1 = t0 + rng.uniform(0.5, 4.0)
        elif kind == 2:
            t0, t1 = float(k), k + float(rng.choice([rng.random(), 1.0, 2.5]))
        elif kind == 3:
            j = WIDTH * int(rng.integers(1, 8))
            t0 = j - 3.0 * rng.random()
            t1 = j + float(rng.choice([3.0 * rng.random(), 0.0, float(WIDTH)]))
        else:
            t0 = k + rng.random()
            t1 = t0 + rng.uniform(4.0, 20.0)
        zmax = float(rng.choice([rng.uniform(0.05, 1.0), rng.uniform(1.0, 6.0),
                                 float(rng.integers(1, 4))]))
        yield t0, t1, zmax
        yield t0, t1, zmax


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

    def test_unit_column_counts_are_poisson_across_cells(self):
        # the counts of unit time x unit mark boxes, aligned with the cells
        # and shifted half a unit so that every eighth box straddles two
        # cells, are i.i.d. Poisson(1): mean, variance, a chi-square fit,
        # every position inside a cell, and no correlation between layers
        # or between neighbouring boxes
        horizon, layers = 4000, 3
        pts = np.array(PrmStream(2026, 9).sample(0.0, horizon + 1.0, float(layers)))
        for shift in (0.0, 0.5):
            edges = np.arange(horizon + 1) + shift
            counts = np.array([np.histogram(pts[(pts[:, 1] >= m) & (pts[:, 1] < m + 1), 0],
                                            bins=edges)[0] for m in range(layers)])
            n = counts.size
            assert abs(counts.mean() - 1.0) < 4.0 * math.sqrt(1.0 / n)
            assert abs(counts.var(ddof=1) - 1.0) < 4.0 * math.sqrt(3.0 / n)
            observed = np.bincount(np.minimum(counts.ravel(), 4), minlength=5)
            pmf = stats.poisson.pmf(np.arange(4), 1.0)
            expected = n * np.append(pmf, 1.0 - pmf.sum())
            assert stats.chisquare(observed, expected).pvalue > 1e-3
            by_position = counts.reshape(layers, -1, WIDTH).mean(axis=(0, 1))
            per = counts.size // WIDTH
            assert np.all(np.abs(by_position - 1.0) < 4.0 * math.sqrt(1.0 / per))
            bound = 4.0 / math.sqrt(counts.shape[1])
            for a, b in [(0, 1), (0, 2), (1, 2)]:
                assert abs(np.corrcoef(counts[a], counts[b])[0, 1]) < bound
            for row in counts:
                assert abs(np.corrcoef(row[:-1], row[1:])[0, 1]) < bound
                across = row[WIDTH - 1::WIDTH]
                nxt = row[WIDTH::WIDTH]
                r = np.corrcoef(across[:len(nxt)], nxt)[0, 1]
                assert abs(r) < 4.0 / math.sqrt(len(nxt))

    def test_mark_layers_are_consistent(self):
        # enlarging the mark bound must not perturb points below it
        pi = PrmStream(9, 0)
        low = np.array(pi.sample(0.0, 20.0, 1.0)).reshape(-1, 2)
        high = np.array(pi.sample(0.0, 20.0, 3.0)).reshape(-1, 2)
        below = high[high[:, 1] <= 1.0]
        assert np.array_equal(low, below)

    def test_columns_match_the_per_cell_reads_bitwise(self):
        rng = np.random.default_rng(2024)
        for stream in range(3):
            pi, cells = PrmStream(17, stream), {}
            for t0, t1, zmax in random_windows(rng, 300):
                got = np.array(pi.sample(t0, t1, zmax)).reshape(-1, 2)
                want = sample_by_cells(17, stream, t0, t1, zmax, cells)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (stream, t0, t1, zmax)

    def test_one_derive_key_call_per_new_cell(self, monkeypatch):
        calls = []
        derive_key = prm.derive_key

        def counted(*parts):
            calls.append(parts)
            return derive_key(*parts)

        pi = PrmStream(23, 4)
        monkeypatch.setattr(prm, "derive_key", counted)
        rng = np.random.default_rng(5)
        looked_up = set()
        for t0, t1, zmax in random_windows(rng, 200):
            before = len(calls)
            pi.sample(t0, t1, zmax)
            new = {(k, m) for k in range(math.floor(t0 / WIDTH), math.ceil(t1 / WIDTH))
                   for m in range(math.ceil(zmax))} - looked_up
            assert sorted(calls[before:]) == sorted((pi._base, k, m) for k, m in new)
            looked_up |= new
        assert len(calls) == len(looked_up) > 0

    def test_memoised_derive_key_is_the_plain_fold(self):
        rng = np.random.default_rng(11)
        cases = [(), (0,), (-1,), (-(1 << 70), 3), ((1 << 128) - 1, 5, 6)]
        for _ in range(400):
            first = [int(rng.integers(0, 8)), int(rng.integers(-1 << 62, 1 << 62)),
                     int(rng.integers(0, 1 << 62)) << 66 | int(rng.integers(0, 1 << 62))]
            rest = rng.integers(-1000, 10**6, rng.integers(0, 4)).tolist()
            cases.append((first[rng.integers(0, 3)], *rest))
        for parts in cases + cases:
            assert prm.derive_key(*parts) == plain_fold(*parts), parts
        assert len(prm._FOLDS) <= 64
        assert prm._part_mix.cache_info().currsize <= 4096

    def test_forget_before(self):
        # reads from floor(t) on are answered; the columns [8k, 8k+8) wholly
        # before it are dropped
        pi, cells = PrmStream(6, 2), {}
        pi.sample(0.0, 36.0, 2.0)
        pi.forget_before(17.5)
        assert sorted(pi._cols) == [2, 3, 4]
        for t0, t1, zmax in [(17.0, 19.5, 3.0), (17.25, 36.0, 1.5), (23.0, 26.0, 2.0),
                             (35.0, 44.0, 2.0)]:
            got = np.array(pi.sample(t0, t1, zmax)).reshape(-1, 2)
            assert got.tobytes() == sample_by_cells(6, 2, t0, t1, zmax, cells).tobytes()
        for t0 in (16.99, 16.0, 3.0, 0.0):
            with pytest.raises(ConfigError):
                pi.sample(t0, 20.0, 1.0)
        pi.forget_before(2.0)  # forgetting never moves back
        with pytest.raises(ConfigError):
            pi.sample(16.5, 18.0, 1.0)
        pi.forget_before(24.0)
        assert sorted(pi._cols) == [3, 4, 5]

    def test_reads_are_time_sorted_lists_of_float_tuples(self):
        pi, seen = PrmStream(3, 0), 0
        for t0, t1, zmax in [(1.5, 7.25, 2.2), (0.0, 1.0, 0.5), (4.0, 4.5, 3.0),
                             (7.0, 9.0, 1.0)]:
            pts = pi.sample(t0, t1, zmax)
            assert type(pts) is list
            assert all(type(p) is tuple and len(p) == 2 for p in pts)
            assert all(type(v) is float for p in pts for v in p)
            assert [s for s, _ in pts] == sorted(s for s, _ in pts)
            seen += len(pts)
        assert seen > 10
        assert pi.sample(3.0, 3.0, 1.0) == [] and pi.sample(3.0, 4.0, 0.0) == []

    def test_sorted_and_in_rectangle(self):
        pts = np.array(PrmStream(3, 0).sample(1.5, 7.25, 2.2)).reshape(-1, 2)
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
        up = np.array(res.up).reshape(-1, 2)
        if len(up):
            assert np.all(up[:, 1] > 0.0)
            assert np.all(up[:, 1] <= 1.5)

    def test_streams_are_time_sorted_lists(self):
        pi, pibar = PrmStream(7, 0), PrmStream(7, 1)
        res = split(pi, pibar, lambda t: (0.3 + 0.2 * math.sin(t), 1.4), (0.0, 60.0), 2.0)
        for pts in (res.down, res.up):
            assert type(pts) is list and pts
            assert all(type(p) is tuple and len(p) == 2 for p in pts)
            assert [s for s, _ in pts] == sorted(s for s, _ in pts)

    def test_window_past_the_band_end_is_pi_alone(self):
        # the renewal engine's band is empty after tau, and there it reads
        # pi alone instead of splitting
        tau = 3.7
        band = lambda s: (0.0, 0.0) if s > tau else (0.4, 1.6)
        pi, pibar = PrmStream(5, 0), PrmStream(5, 1)
        assert split(pi, pibar, band, (2.0, 5.0), 2.5).down != pi.sample(2.0, 5.0, 2.5)
        for t0, t1 in [(tau, 5.0), (4.0, 9.5), (7.2, 7.9), (9.5, 12.0)]:
            assert split(pi, pibar, band, (t0, t1), 2.5).down == pi.sample(t0, t1, 2.5)

    def test_band_violation_detected(self):
        pi, pibar = PrmStream(4, 0), PrmStream(4, 1)
        with pytest.raises(BandViolationError):
            split(pi, pibar, lambda t: (2.0, 1.0), (0.0, 50.0), 3.0)

    def test_constant_band_counts_are_poissonian(self):
        pi, pibar = PrmStream(8, 0), PrmStream(8, 1)
        res = split(pi, pibar, lambda t: (1.0, 2.0), (0.0, 4000.0), 3.0)
        down, up = (np.array(pts).reshape(-1, 2) for pts in (res.down, res.up))
        down = down[down[:, 1] <= 1.0]
        d, _ = np.histogram(down[:, 0], bins=np.arange(0, 4001, 40))
        u, _ = np.histogram(up[:, 0], bins=np.arange(0, 4001, 40))
        for counts in (d, u):
            mean = counts.mean()
            assert mean == pytest.approx(40.0, abs=4.0 * math.sqrt(40.0 / 100))
        r = np.corrcoef(d, u)[0, 1]
        assert abs(r) < 4.0 / math.sqrt(len(d))
