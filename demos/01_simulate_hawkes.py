"""Simulating Hawkes processes by exact thinning.

Walks through the basic simulation surface: a homogeneous Poisson process
as the degenerate case, a self-exciting linear Hawkes process, and an
age-dependent process whose excitation is gated by a refractory period.
Every realization is driven by a reproducible lazy Poisson random measure,
so rerunning the script reproduces every number.
"""

import numpy as np

from hawkes_renewal import (ExponentialKernel, PrmStream, ProcessState, RateSpec,
                            ZeroKernel, simulate_adhp)

# --- a Poisson process is a Hawkes process with no memory -----------------

pi = PrmStream(seed=1)
poisson = simulate_adhp(pi, ZeroKernel(), RateSpec.linear(c=2.0, L=1.0),
                        horizon=1000.0)
print(f"Poisson(2): {poisson.n} events on [0, 1000], rate {poisson.n / 1000:.3f}")

# --- linear self-excitation ------------------------------------------------

kernel = ExponentialKernel(rate=1.0, amplitude=0.5)   # ||h||_1 = 0.5
rate = RateSpec.linear(c=1.0, L=1.0)                  # branching ratio 0.5
hawkes = simulate_adhp(PrmStream(seed=2), kernel, rate, horizon=5000.0)
print(f"linear Hawkes: empirical rate {hawkes.n / 5000:.3f}, "
      f"theory c/(1 - L||h||) = {1.0 / 0.5:.3f}")

# replaying the jumps into a process state gives the intensity at any time
state = ProcessState(kernel, rate)
for u in hawkes.times:
    state.add_jump(float(u))
t = float(hawkes.times[100]) + 0.25
print(f"intensity at t={t:.2f}: {state.lambda_at(t):.3f}")

# --- age-dependent variant: excitation gated by a refractory period --------

ad_rate = RateSpec.refractory_linear(c=1.0, L=1.0, delta=0.5)
adhp = simulate_adhp(PrmStream(seed=3), kernel, ad_rate, horizon=5000.0)
gaps = np.diff(adhp.times)
print(f"age-dependent: rate {adhp.n / 5000:.3f} "
      f"(excitation suppressed for ages <= 0.5)")
print(f"  smallest inter-event gap: {gaps.min():.4f} "
      "(jumps can still follow quickly; only the excitation is gated)")
