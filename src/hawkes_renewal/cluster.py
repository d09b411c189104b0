"""Branching representation of linear Hawkes processes.

The total-progeny (Borel) law of one cluster and recursive cluster
simulation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationCapError, SupercriticalError
from .kernels import borel_c_h


@dataclass
class BorelLaw:
    """Total progeny of a Poisson(m) branching process, m < 1.

    pmf(n) = n^{n-1} / (m n!) * exp(n (ln m - m)); the exponential-moment
    threshold is c_h = m - ln(m) - 1 > 0.
    """

    m: float

    def __post_init__(self):
        if not (0.0 < self.m):
            raise ConfigError("Borel law needs mean offspring m > 0")
        if self.m >= 1.0:
            raise SupercriticalError(f"mean offspring {self.m:g} >= 1")

    @property
    def c_h(self):
        return borel_c_h(self.m)

    def logpmf(self, n):
        if n < 1:
            return -math.inf
        return ((n - 1.0) * math.log(n) - math.log(self.m)
                - math.lgamma(n + 1.0) + n * (math.log(self.m) - self.m))

    def pmf(self, n):
        return math.exp(self.logpmf(n))

    def pmf_vector(self, n_max):
        return np.array([self.pmf(n) for n in range(1, n_max + 1)])

    def truncation_size(self, mass_tol=1e-9, cap=10**7):
        """Smallest N with remaining pmf mass <= mass_tol."""
        acc = 0.0
        n = 0
        while n < cap:
            n += 1
            acc += self.pmf(n)
            if 1.0 - acc <= mass_tol:
                return n
        raise SimulationCapError("Borel pmf truncation did not reach target mass")


@dataclass
class Cluster:
    """One simulated cluster: the root, all event times, size and extent."""

    root: float
    times: np.ndarray
    W: int
    Y: float


def simulate_cluster(kernel, L, rng, cap=10**7):
    """Grow one cluster: each event spawns Poisson(L*||h_+||) children with
    displacements drawn from h_+/||h_+||.  Y is the exact right extent."""
    m = L * kernel.pos_l1
    if m >= 1.0:
        raise SupercriticalError(f"mean offspring {m:g} >= 1")
    times = [0.0]
    queue = [0.0]
    while queue:
        parent = queue.pop()
        n = int(rng.poisson(m)) if m > 0 else 0
        if n:
            kids = parent + np.atleast_1d(kernel.sample_displacement(rng, n))
            times.extend(kids.tolist())
            queue.extend(kids.tolist())
            if len(times) > cap:
                raise SupercriticalError(
                    f"cluster exceeded {cap} events: supercritical suspicion")
    arr = np.sort(np.array(times))
    return Cluster(root=0.0, times=arr, W=len(arr), Y=float(arr[-1]))
