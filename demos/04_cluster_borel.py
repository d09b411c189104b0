"""Branching clusters and the total-progeny law.

A subcritical linear Hawkes process is a Poisson forest of clusters.  The
size of one cluster follows the Borel distribution, whose exponential
moment threshold drives the schedule condition of the ordinary setup.  The
cluster field also yields certified stationary starting times.
"""

import numpy as np

from hawkes_renewal import (BorelLaw, ExponentialKernel, GammaSchedule,
                            RateSpec, simulate_cluster)
from hawkes_renewal.cluster import alpha0_stationary_ad, alpha0_stationary_o
from hawkes_renewal.prm import spawn_rng

kernel = ExponentialKernel(rate=1.0, amplitude=0.5)
law = BorelLaw(m=0.5)  # mean offspring L * ||h_+||_1
rng = spawn_rng(42)

clusters = [simulate_cluster(kernel, 1.0, rng) for _ in range(20000)]
ws = np.array([c.W for c in clusters])
print(f"mean cluster size: {ws.mean():.3f} vs 1/(1-m) = 2.0")
print("size  empirical   Borel pmf")
for n in range(1, 7):
    print(f"{n:>4}  {np.mean(ws == n):9.4f}   {law.pmf(n):9.4f}")
print(f"exponential moment threshold c_h = {law.c_h:.4f}")

# certified stationary starting times for both setups
sched = GammaSchedule.linear(1.0)
ad = [alpha0_stationary_ad(RateSpec.refractory_linear(0.5, 0.4, 1.0), sched,
                           kernel=ExponentialKernel(1.0, 0.2), seed=s)
      for s in range(200)]
print(f"\nstationary start, age-dependent setup: mean {np.mean(ad):.2f}, "
      f"max {max(ad)}")
oo = [alpha0_stationary_o(ExponentialKernel(1.0, 0.3), RateSpec.linear(0.5, 1.0),
                          sched, assumption="B", seed=s) for s in range(30)]
print(f"stationary start, ordinary setup: mean {np.mean(oo):.1f} "
      "(the sufficient size/extent conditions are conservative)")
