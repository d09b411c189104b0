"""Coupling through the regeneration time.

Two processes with different initial signals, driven by the same random
measure and sharing the certified starting time, must agree event for
event strictly after the regeneration time rho.  The coupling time itself
is bounded by rho, which gives it the same moments.
"""

import numpy as np

from hawkes_renewal import PrmStream, ZStart, run_system
from hawkes_renewal.stats import coupling_experiment
from hawkes_renewal.verify import reference_ad_config

cfg = reference_ad_config(D=0.0)
env = cfg.env

# one run, by hand: the regenerating state against a positively biased start
starts = [ZStart.atom(env), ZStart.envelope(env)]
out = run_system(cfg, PrmStream(5, 0), PrmStream(5, 1), starts, extend_after=30.0)
a, b = out.track_paths
post_a, post_b = a.times[a.times > out.rho], b.times[b.times > out.rho]
diff = np.setxor1d(a.times, b.times)
print(f"rho = {out.rho}; events after rho: {len(post_a)} vs {len(post_b)}, "
      f"identical: {np.array_equal(post_a, post_b)}")
print(f"last disagreement (the coupling time): "
      f"{diff.max() if len(diff) else 0.0:.3f} <= rho")

# ensemble: exactness is a hard requirement, not a statistical one
reports, data = coupling_experiment(cfg, n_runs=500, seed=2)
for r in reports:
    print(f"{r.name}: {'PASS' if r.passed else 'FAIL'}  {r.detail}")
T = data["T"]
print(f"coupling time: P(T = 0) = {(T == 0).mean():.3f}, "
      f"mean {T.mean():.3f}, max {T.max():.3f}")
