"""Central limit estimation from regeneration blocks.

Blocks between consecutive regeneration times are independent and
identically distributed, so time averages obey a CLT whose variance is a
simple block moment: sigma^2 = E[S_1^2] / E[rho_1] for the centered block
sums.  No mixing estimates, no burn-in: the renewal structure is exact.
"""

from hawkes_renewal import iterate_regenerations
from hawkes_renewal.stats import (block_stat_from_blocks, clt_time_average,
                                  functional_clt_paths)
from hawkes_renewal.verify import reference_ad_config

cfg = reference_ad_config(D=1.0)

blocks = iterate_regenerations(cfg, 4000, seed=3)
st = block_stat_from_blocks(blocks)
print(f"invariant event rate (renewal-reward): {st.p_tilde:.4f}")
print(f"mean block length: {st.mean_length:.2f}")
print(f"sigma^2 = E[S^2]/E[rho] = {st.sigma2:.4f} +- {st.sigma2_se:.4f}")

stat, reports = clt_time_average(cfg, n_blocks=4000, rep_blocks=40, seed=5)
for r in reports:
    print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
          f"stat={r.statistic:.3f} {r.detail}")

# rescaled partial-sum paths have Brownian marginals
tg, paths, reports = functional_clt_paths(cfg, n=100, n_paths=120, seed=7)
print("\nrescaled path variances (expect ~ t):")
for t, col in zip(tg, paths.T):
    print(f"  t={t:4.2f}: var = {col.var(ddof=1):.3f}")
