"""The random exchange chain M_i = max(M_{i-1} - 1, X_i) on the nonneg integers.

Update draws are ceiled to integers before use, matching the reduction that
makes the return time to zero analyzable.  The invariant law has the closed
product form mu[0, n] = prod_{k >= n} F(k) for the update CDF F.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationCapError

_CAP = 10**7  # steps of a return time and factors of the invariant product


def step(m, x):
    """One update: max(m - 1, ceil(x))."""
    return max(m - 1, int(math.ceil(x - 1e-12)))


@dataclass
class REChain:
    """Random exchange chain specified by its update law.

    ``cdf(k)`` is F(k) = P(X <= k) for integer k; ``sampler(rng, size)``
    draws updates (ceiled internally).
    """

    cdf: object
    sampler: object

    @staticmethod
    def from_pmf(pmf):
        """Chain with integer updates given by a finite pmf {k: p}."""
        ks = np.array(sorted(pmf))
        ps = np.array([pmf[k] for k in ks], dtype=float)
        ps = ps / ps.sum()
        cum = np.cumsum(ps)

        def cdf(k):
            i = np.searchsorted(ks, k, side="right")
            return float(cum[i - 1]) if i else 0.0

        def sampler(rng, size=None):
            return ks[rng.choice(len(ks), size=size, p=ps)]

        return REChain(cdf=cdf, sampler=sampler)

    def run(self, start, n_steps, rng):
        """Trajectory (M_0, ..., M_n)."""
        xs = self.sampler(rng, n_steps)
        out = np.empty(n_steps + 1, dtype=np.int64)
        out[0] = m = int(math.ceil(start - 1e-12))
        for i in range(n_steps):
            m = step(m, float(xs[i]))
            out[i + 1] = m
        return out


def return_time(chain, start, rng):
    """First n >= 1 with M_n = 0, started from ``start``."""
    m = int(math.ceil(start - 1e-12))
    for n in range(1, _CAP + 1):
        m = step(m, float(chain.sampler(rng)))
        if m <= 0:
            return n
    raise SimulationCapError(
        f"no return to 0 within {_CAP} steps: null recurrence suspected "
        "(is E[X] finite?)", diagnostics={"last_state": m})


def invariant_cdf(chain, n):
    """mu[0, n] = prod_{k=n}^inf F(k), with controlled truncation.

    The log-product is accumulated until the summed survival tail is below
    1e-12; exact zero is returned as soon as some F(k) = 0.
    """
    log_mu = 0.0
    prev_s = None
    for k in range(int(n), int(n) + _CAP):
        Fk = chain.cdf(k)
        if Fk <= 0.0:
            return 0.0
        log_mu += math.log(Fk)
        s = 1.0 - Fk
        if s == 0.0:
            break  # F is 1 from here on: remaining factors are exact ones
        # geometric tail estimate of the remaining sum of survivals, which
        # bounds the log-product truncation error
        if prev_s is not None and s < prev_s and k > n + 4:
            r = s / prev_s
            if s * (1.0 + r / (1.0 - r)) < 1e-12:
                break
        prev_s = s
    else:
        raise SimulationCapError("invariant product did not converge",
                                 diagnostics={"k": k})
    return math.exp(log_mu)
