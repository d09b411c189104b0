"""The benchmark's workloads.

Each workload builds its configuration from explicit parameters (never from
the library's reference helpers, so a change there cannot change a
workload), runs one *solution* through the public API and checks it.  A
solution is the unit of time to solution: config construction, envelope
set-up, the block or statistics computation and the output checks.

Why these four:

* ``ad-blocks`` -- the age-dependent D=1 config behind the CLT, FCLT, LIL
  and moment criteria; the engine's hot path (certificates, PRM cells, AD
  scan).
* ``o-blocks`` -- the only user of ``scan_alpha_O``: the dominating linear
  process through the band-split reader and the two-argument certificate.
* ``powerlaw-blocks`` -- the unbounded-memory case: envelope quadrature
  dominates set-up and blocks and the PRM layer is negligible, so it is the
  bypass workload for a PRM optimisation.
* ``clt-ensemble`` -- the statistics layer and the parallel block source as
  the slowest acceptance criteria use them.
"""

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import hawkes_renewal as hr

CLT_BLOCKS = 256
CLT_REP_BLOCKS = 32
FCLT_N = 200
FCLT_PATHS = 5
N_JOBS = 2
ETA_SE_LIMIT = 5.0


def ad_config():
    return hr.RenewalConfig(
        kernel=hr.ExponentialKernel(rate=1.0, amplitude=0.2),
        rate=hr.RateSpec.refractory_linear(c=0.5, L=0.4, delta=1.0),
        sched=hr.GammaSchedule.linear(1.0), D=1.0, p=2.0, assumption="B")


def o_config():
    return hr.RenewalConfig(
        kernel=hr.ExponentialKernel(rate=1.0, amplitude=0.3),
        rate=hr.RateSpec.linear(c=0.5, L=1.0),
        sched=hr.GammaSchedule.linear(1.0), D=0.0, p=2.0, assumption="B")


def powerlaw_config():
    return hr.RenewalConfig(
        kernel=hr.PowerLawKernel(amplitude=0.2, exponent=4.0),
        rate=hr.RateSpec.refractory_linear(c=0.5, L=0.4, delta=1.0),
        sched=hr.GammaSchedule.log(C=3.0), D=0.0, p=2.0, assumption="A")


@dataclass
class Checks:
    """Output checks of one solution: checks made, checks failed, notes."""

    made: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    info: list = field(default_factory=list)

    def add(self, name, made, failed, detail=""):
        self.made += int(made)
        self.failed += int(failed)
        if failed:
            self.failures.append(f"{name}: {failed}/{made} failed {detail}".rstrip())


@dataclass
class Solution:
    setup_s: float
    wall_s: float
    work_s: float       # the timed block-producing call
    blocks: int
    events: int
    checks: Checks
    digest: str


def digest_arrays(*arrays):
    """Bitwise fingerprint of float arrays, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def block_counts(blocks, diag):
    """Work and check counts of one block list and its ``collect_diag``."""
    finite = [c for b in blocks for c in b.cycles if math.isfinite(c.tau_gap)]
    return {
        "blocks": len(blocks),
        "events": sum(b.n_events for b in blocks),
        "cycles": sum(len(b.cycles) for b in blocks),
        "certified_alphas": len(finite),
        "envelope_not_ok": sum(not c.envelope_ok for c in finite),
        "tau_tail_draws": sum(c.tau_from_tail for c in finite),
        "scan_units": sum(c.alpha_gap for c in finite),
        "candidates": int(diag.get("n_candidates", 0)),
        "band_violations": int(diag.get("band_violations", 0)),
    }


def check_blocks(blocks, diag, cfg, checks):
    """Block-level output checks; returns the block work counts."""
    bad = 0
    for b in blocks:
        t = b.path.times
        ok = (math.isfinite(b.rho) and b.rho >= cfg.D and b.eta >= 0
              and len(b.cycles) == b.eta + 1
              and (len(t) == 0 or (t[0] > 0 and t[-1] <= b.rho)))
        bad += not ok
    checks.add("block-structure", len(blocks), bad)
    c = block_counts(blocks, diag)
    checks.add("band-invariant", c["candidates"], c["band_violations"])
    checks.add("envelope-certificate", c["certified_alphas"], c["envelope_not_ok"])
    q = math.exp(-cfg.env.F_l1)
    etas = np.array([b.eta for b in blocks], dtype=float)
    se = math.sqrt((1.0 - q) / q**2 / len(etas))
    z = abs(etas.mean() - (1.0 / q - 1.0)) / se
    checks.add("eta-mean", 1, z > ETA_SE_LIMIT,
               f"(mean {etas.mean():.4g}, expected {1.0 / q - 1.0:.4g}, z={z:.2f})")
    return c


def blocks_solution(n_blocks):
    def run(cfg, seed, checks):
        diag = {}
        t0 = time.perf_counter()
        blocks = hr.iterate_regenerations(cfg, n_blocks, seed=seed, n_jobs=1,
                                          collect_diag=diag)
        work_s = time.perf_counter() - t0
        counts = check_blocks(blocks, diag, cfg, checks)
        digest = digest_arrays(
            [b.rho for b in blocks], [b.eta for b in blocks],
            np.concatenate([b.path.times for b in blocks]),
            [b.n_events for b in blocks])
        return work_s, counts["blocks"], counts["events"], digest
    return run


def clt_solution(cfg, seed, checks):
    t0 = time.perf_counter()
    stat, clt_reports = hr.clt_time_average(
        cfg, n_blocks=CLT_BLOCKS, rep_blocks=CLT_REP_BLOCKS, seed=seed,
        n_jobs=N_JOBS)
    work_s = time.perf_counter() - t0
    _, paths, fclt_reports = hr.functional_clt_paths(
        cfg, n=FCLT_N, n_paths=FCLT_PATHS, seed=seed, n_jobs=N_JOBS)

    lengths, counts = stat.lengths, stat.counts
    bad = ~(np.isfinite(lengths) & (lengths >= cfg.D)
            & (np.abs(lengths - np.round(lengths)) <= 1e-9)
            & (counts >= 0) & (counts == np.round(counts)))
    checks.add("block-structure", len(lengths), int(bad.sum()))
    checks.add("sigma2-finite-positive", 1,
               not (math.isfinite(stat.sigma2) and stat.sigma2 > 0),
               f"(sigma2={stat.sigma2!r})")
    checks.add("fclt-paths-finite", len(paths),
               int((~np.all(np.isfinite(paths), axis=1)).sum()))
    for r in clt_reports + fclt_reports:
        verdict = "pass" if r.passed else "not passed"
        checks.info.append(f"{r.name}: {verdict} (stat={r.statistic:.4g}) {r.detail}")
    digest = digest_arrays(stat.s_values, lengths, counts, [stat.sigma2], paths)
    return work_s, len(lengths), int(counts.sum()), digest


@dataclass
class Workload:
    name: str
    make_config: object
    run: object
    planned_work: int           # work units counted as failed when a call raises
    min_setups: int = 15        # set-ups timed per run, solutions included
    fork_workers: bool = False  # runs part of its work in fork workers


WORKLOADS = {w.name: w for w in [
    Workload("ad-blocks", ad_config, blocks_solution(200), 200),
    Workload("o-blocks", o_config, blocks_solution(40), 40),
    # one set-up takes about 10 s, so three are timed
    Workload("powerlaw-blocks", powerlaw_config, blocks_solution(20), 20,
             min_setups=3),
    Workload("clt-ensemble", ad_config, clt_solution, CLT_BLOCKS + FCLT_PATHS,
             fork_workers=True),
]}


def time_setup(make_config):
    """Construct a config and force its lazy envelope set-up; returns
    (config, seconds)."""
    t0 = time.perf_counter()
    cfg = make_config()
    cfg.env.F_l1
    cfg.cycle_horizon
    return cfg, time.perf_counter() - t0


def solve(workload, seed):
    """One solution: set-up, timed work and output checks."""
    checks = Checks()
    setup_s = math.nan
    t0 = time.perf_counter()
    try:
        cfg, setup_s = time_setup(workload.make_config)
        work_s, blocks, events, digest = workload.run(cfg, seed, checks)
    except Exception:
        traceback.print_exc()
        checks.add("raised", workload.planned_work, workload.planned_work)
        work_s, blocks, events, digest = math.nan, 0, 0, ""
    wall_s = time.perf_counter() - t0
    return Solution(setup_s=setup_s, wall_s=wall_s, work_s=work_s,
                    blocks=blocks, events=events, checks=checks, digest=digest)
