"""Branching clusters and the total-progeny law.

A subcritical linear Hawkes process is a Poisson forest of clusters.  The
size of one cluster follows the Borel distribution, whose exponential
moment threshold drives the schedule condition of the ordinary setup.
"""

import numpy as np

from hawkes_renewal import BorelLaw, ExponentialKernel, simulate_cluster
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
