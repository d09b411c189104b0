"""Benchmark of the regeneration engine: envelope set-up and block throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ad-blocks --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` solves inputs with seeds derived from ``--seed`` (config,
set-up, work, checks) until ``--seconds`` have passed.  It reports the rates
as blocks and events over the summed time of the calls that made them, the
mean time to solution and the median set-up time.  The host's cores run the
same code up to about 1.5 times slower at some times than at others, for
spans up to a whole run, so a fixed reference computation (reference.py) is
timed before and after each solution and the solution's times are scaled to
the reference's recorded speed: times are seconds on the reference host,
uncontended.  The unscaled figures and the speed factors are printed too.

``--trace 1`` runs one untraced solution and then the same solution twice
with every layer wrapped: it reports calls, total and self time per wrapped
callable, each layer's share of the traced wall time, the tracing overhead,
and checks that tracing left the outputs bit for bit unchanged and the work
counts exactly repeated.  ``--workload all`` runs every workload, untraced
and traced, each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count output checks, so error_rate = failed / attempted.  The
metrics are those that BENCHMARK.json lists for the mode.  Spans and a full
summary of a traced run are written to perfbench/out/.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SOLUTIONS = 3
SEED_STRIDE = 1_000_003


def import_library():
    """Import hawkes_renewal from this checkout's src/ and nowhere else."""
    init = SRC / "hawkes_renewal" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no library source at {init}")
    sys.path.insert(0, str(SRC))
    import hawkes_renewal
    if Path(hawkes_renewal.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {hawkes_renewal.__file__}, not {init}")


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def median(values):
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def result_line(checks_made, checks_failed, metrics):
    """The JSON result line; ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": checks_failed == 0,
        "attempted": int(checks_made),
        "failed": int(checks_failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def listed(metrics, names):
    """The metrics BENCHMARK.json lists for the mode, in its order."""
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    return {n: metrics[n] for n in names}


def report(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def report_checks(label, checks):
    for line in checks.failures:
        print(f"  FAILED {label} {line}")
    for line in checks.info:
        print(f"  info {label} {line}")


def untraced(workload, seed, seconds):
    from reference import SpeedScale
    from workloads import solve, time_setup
    solve(workload, seed)  # warm-up: first-call imports and caches
    scale = SpeedScale()
    sols, factors = [], []
    deadline = time.perf_counter() + seconds
    while len(sols) < MIN_SOLUTIONS or time.perf_counter() < deadline:
        sol, factor = scale.step(solve, workload, seed + SEED_STRIDE * len(sols))
        sols.append(sol)
        factors.append(factor)
    setups = [s.setup_s * f for s, f in zip(sols, factors)]
    while len(setups) < workload.min_setups:
        (_, setup_s), factor = scale.step(time_setup, workload.make_config)
        setups.append(setup_s * factor)
    made = sum(s.checks.made for s in sols) + 1
    failed = sum(s.checks.failed for s in sols)
    # the reference computation is fixed, so every pass gives one result
    failed += not scale.steady
    done = [(s, f) for s, f in zip(sols, factors) if math.isfinite(s.work_s)]
    work_s = sum(s.work_s * f for s, f in done)
    metrics = {
        "setup_s": (median(setups), "s"),
        "blocks_per_s": (sum(s.blocks for s, _ in done) / work_s if done else 0.0,
                         "blocks/s"),
        "events_per_s": (sum(s.events for s, _ in done) / work_s if done else 0.0,
                         "events/s"),
        "wall_s": (statistics.fmean(s.wall_s * f for s, f in done) if done else 0.0,
                   "s"),
        "error_rate": (failed / made, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    print(f"{workload.name}: {len(sols)} solutions, {len(setups)} set-ups, "
          f"{sum(s.blocks for s in sols)} blocks, {made} checks")
    raw_work_s = sum(s.work_s for s, _ in done)
    print(f"  unscaled: wall_s = "
          f"{statistics.fmean(s.wall_s for s, _ in done) if done else 0.0:.6g} s, "
          f"blocks_per_s = "
          f"{sum(s.blocks for s, _ in done) / raw_work_s if done else 0.0:.6g} "
          f"blocks/s; speed factor median {median(factors):.4f}, "
          f"range {min(factors):.4f}-{max(factors):.4f}")
    for i, s in enumerate(sols):
        report_checks(f"solution {i}", s.checks)
    if not scale.steady:
        print("  FAILED reference computation gave differing results")
    report(metrics)
    return made, failed, metrics


def traced(workload, seed):
    from spans import EXACT_COUNTS, Tracer
    from workloads import solve
    base = solve(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        first = solve(workload, seed)
        summary = tracer.summary(first.wall_s)
        counts = dict(tracer.counts)
        n_spans = len(tracer.name_id)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
        tracer.reset()
        second = solve(workload, seed)
        repeat = tracer.summary(second.wall_s)
    finally:
        tracer.uninstall()

    sols = (base, first, second)
    made = sum(s.checks.made for s in sols)
    failed = sum(s.checks.failed for s in sols)
    transparent = first.digest == base.digest == second.digest and bool(base.digest)
    changed = [k for k in EXACT_COUNTS if summary[k][0] != repeat[k][0]]
    made += 1 + len(EXACT_COUNTS)
    failed += (not transparent) + len(changed)

    checks_made = first.checks.made
    summary.update({
        "trace.wall_s": (first.wall_s, "s"),
        "trace.untraced_wall_s": (base.wall_s, "s"),
        "trace.overhead_s": (first.wall_s - base.wall_s, "s"),
        "trace.transparent": (int(transparent), "bool"),
        "trace.counts_repeat": (int(not changed), "bool"),
        "checks.error_rate": (first.checks.failed / checks_made if checks_made
                              else 1.0, "fraction"),
        "checks.band_violations": (counts.get("renewal.band_violations", 0), "count"),
        "checks.envelope_failures": (counts.get("renewal.envelope_not_ok", 0), "count"),
        "checks.certified_alphas": (counts.get("renewal.certified_alphas", 0), "count"),
    })
    notes = []
    if workload.fork_workers:
        notes.append("spans inside fork workers are not returned to the parent; "
                     "their time is not estimated and shows as self time of "
                     "stats.iterate_regenerations waiting on the pool")
    if not transparent:
        notes.append("transparency check FAILED: traced and untraced outputs "
                     f"differ ({base.digest[:12]} / {first.digest[:12]} / "
                     f"{second.digest[:12]})")
    if changed:
        notes.append(f"work counts did not repeat exactly: {changed}")

    print(f"{workload.name} traced, seed {seed}: {n_spans} spans")
    for label, s in zip(("untraced", "traced", "traced repeat"), sols):
        report_checks(label, s.checks)
    for note in notes:
        print(f"  note: {note}")
    report(summary)
    with open(OUT / f"trace-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed,
                   "environment": environment(), "notes": notes,
                   "failures": [f for s in sols for f in s.checks.failures],
                   "info": first.checks.info,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in summary.items()}}, fh, indent=1)
    return made, failed, summary


def run_all(args, names):
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
            results[(name, trace)] = json.loads(lines[-1])
    print("\nsummary (untraced):")
    made = failed = 0
    metrics = {}
    for (name, trace), res in results.items():
        made += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = (m["value"], m["unit"])
        if trace == 0:
            rate = res["failed"] / res["attempted"]
            cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}"
                              for k, m in res["metrics"].items())
            print(f"  {name:16s} {cells}  error_rate={rate:.4g} fraction")
    return made, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS
    if args.workload == "all":
        print(result_line(*run_all(args, list(WORKLOADS))))
        return
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)} or 'all'")
    workload = WORKLOADS[args.workload]
    if args.trace:
        made, failed, metrics = traced(workload, args.seed)
        names = [m["name"] for m in spec["per_layer"]]
    else:
        made, failed, metrics = untraced(workload, args.seed, args.seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    print(result_line(made, failed, listed(metrics, names)))


if __name__ == "__main__":
    main()
