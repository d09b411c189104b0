import math

import numpy as np
import pytest
import scipy.stats

from hawkes_renewal import REChain, invariant_cdf, return_time, step
from hawkes_renewal.prm import spawn_rng


def geometric_chain(p):
    # X on {0, 1, ...} with P(X = k) = p (1-p)^k
    return REChain(cdf=lambda k: 1.0 - (1.0 - p) ** (k + 1) if k >= 0 else 0.0,
                   sampler=lambda rng, size=None: rng.geometric(p, size=size) - 1)


class TestStep:
    def test_zero_stays(self):
        assert step(0, 0) == 0

    def test_decrement_wins(self):
        assert step(5, 3) == 4

    def test_jump_wins(self):
        assert step(2, 7) == 7

    def test_draws_are_ceiled(self):
        assert step(0, 2.3) == 3
        assert step(10, 2.3) == 9


class TestReturnTime:
    def test_immediate_return(self):
        chain = REChain.from_pmf({0: 1.0})
        rng = spawn_rng(0)
        assert return_time(chain, 0, rng) == 1

    def test_deterministic_countdown(self):
        chain = REChain.from_pmf({0: 1.0})
        rng = spawn_rng(1)
        assert return_time(chain, 7, rng) == 7

    def test_kac_identity_geometric(self):
        chain = geometric_chain(0.6)
        mu0 = invariant_cdf(chain, 0)
        rng = spawn_rng(2)
        n = 20000
        sig = np.array([return_time(chain, 0, rng) for _ in range(n)], dtype=float)
        se = sig.std(ddof=1) / math.sqrt(n)
        assert sig.mean() == pytest.approx(1.0 / mu0, abs=3 * se)


class TestInvariant:
    def test_degenerate_zero_updates(self):
        chain = REChain.from_pmf({0: 1.0})
        assert invariant_cdf(chain, 0) == pytest.approx(1.0)

    def test_two_point_uniform_by_hand(self):
        chain = REChain.from_pmf({0: 0.5, 1: 0.5})
        assert invariant_cdf(chain, 0) == pytest.approx(0.5)
        assert invariant_cdf(chain, 1) == pytest.approx(1.0)

    def test_balance_identity(self):
        chain = geometric_chain(0.4)
        for x in range(6):
            lhs = invariant_cdf(chain, x)
            rhs = chain.cdf(x) * invariant_cdf(chain, x + 1)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_mass_states(self):
        chain = REChain.from_pmf({3: 1.0})  # F(k) = 0 for k < 3
        assert invariant_cdf(chain, 0) == 0.0
        assert invariant_cdf(chain, 2) == 0.0

    def test_occupation_matches_invariant(self):
        lam = 0.7
        chain = REChain(cdf=lambda k: float(scipy.stats.poisson.cdf(k, lam)),
                        sampler=lambda rng, size=None: rng.poisson(lam, size=size))
        rng = spawn_rng(3)
        # thin past the mixing time so the chi-square null is calibrated
        traj = chain.run(0, 10**6, rng)[1:][::25]
        kmax = int(traj.max())
        obs = np.bincount(traj, minlength=kmax + 1).astype(float)
        mu = np.array([invariant_cdf(chain, k) for k in range(kmax + 1)])
        probs = np.diff(np.concatenate([[0.0], mu]))
        probs = np.append(probs, max(1.0 - probs.sum(), 0.0))
        obs = np.append(obs, 0.0)
        # pool sparse bins and compare
        from hawkes_renewal.stats import chi2_gof
        rep = chi2_gof(obs, probs, alpha=0.01)
        assert rep.passed, rep


def hitting_identity_rhs(chain, nu_pmf, e0, e1_shifted, i_max=200):
    """Series side of the hitting-time identity for phi(x) = x.

    ``e0`` estimates E_0[sigma]; ``e1_shifted`` estimates E_1[sigma].  The
    state-nu expectation is phi(0) + nu(0)(E_0 sigma - 0) +
    sum_i (E_1 sigma) * S_nu(i) * mu(0)/mu[0,i].
    """
    mu0 = invariant_cdf(chain, 0)
    nu0 = nu_pmf.get(0, 0.0)
    total = nu0 * e0
    surv = 1.0 - nu0
    for i in range(i_max):
        if i > 0:
            surv -= nu_pmf.get(i, 0.0)
        if surv <= 0:
            break
        total += e1_shifted * surv * mu0 / invariant_cdf(chain, i)
    return total


class TestHittingIdentity:
    def test_expected_return_from_measure(self):
        chain = geometric_chain(0.5)
        rng = spawn_rng(4)
        n = 40000
        e0 = np.array([return_time(chain, 0, rng) for _ in range(n)], dtype=float)
        e1 = np.array([return_time(chain, 1, rng) for _ in range(n)], dtype=float)
        nu = {0: 0.3, 1: 0.3, 2: 0.4}
        draws = np.array([
            return_time(chain, rng.choice([0, 1, 2], p=[0.3, 0.3, 0.4]), rng)
            for _ in range(n)
        ], dtype=float)
        rhs = hitting_identity_rhs(chain, nu, float(e0.mean()), float(e1.mean()))
        se = math.hypot(draws.std(ddof=1), e1.std(ddof=1) * 2) / math.sqrt(n)
        assert draws.mean() == pytest.approx(rhs, abs=3 * se)

    def test_moment_transfer_stability(self):
        # sigma^{q+1} from nu-starts stays stable under sample doubling
        chain = geometric_chain(0.5)
        rng = spawn_rng(5)
        q = 1.0
        n = 30000
        sig = np.array([return_time(chain, int(rng.poisson(1.0)), rng)
                        for _ in range(2 * n)], dtype=float)
        m_half = np.mean(sig[:n] ** (q + 1))
        m_full = np.mean(sig ** (q + 1))
        assert abs(m_half - m_full) / m_full < 0.2
