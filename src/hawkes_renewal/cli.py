"""Command-line entry point.

Subcommands wrap the library: ``simulate`` (one thinned path), ``renewal``
(regeneration cycles), ``coupling``, ``clt``, ``re-chain`` and ``verify``
(the gated statistical suites).  Configuration is a key=value INI file;
every run is reproducible from the seed, and infinite values are written
as the literal ``inf`` with 12 significant digits elsewhere.
"""

import argparse
import configparser
import inspect
import logging
import math
import os
import sys

from .errors import ConfigError
from .hawkes import ZStart, path_to_csv, simulate_adhp
from .kernels import (ExpDecay, ExponentialKernel, GammaSchedule, PowerLawKernel,
                      RateSpec, TableKernel, borel_c_h)
from .prm import PrmStream
from .renewal import RenewalConfig, iterate_regenerations
from .stats import summarize, write_reports
from .verify import SUITES, run_suites

log = logging.getLogger("hawkes_renewal")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# Configuration parsing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "kernel": {"form": "exponential", "rate": "1.0", "amplitude": "0.2",
               "exponent": "2.5", "knots": "0:1,1:0"},
    "rate": {"form": "refractory_linear", "c": "0.5", "L": "0.4", "delta": "1.0"},
    "gamma": {"form": "linear", "C": "1.0"},
    "envelope": {"D": "0.0", "r": "zero", "r_coef": "1.0", "r_rate": "1.0"},
    "run": {"p": "2.0", "assumption": "B", "seed": "1", "horizon": "100.0",
            "n_blocks": "1000", "out": ".", "alpha": "0.01", "parallel": "0",
            "n_runs": "1000", "n_steps": "1000000",
            "fclt_units": "200", "fclt_paths": "400"},
    "verify": {},
}


def _build_kernel(sec, problems):
    form = sec["form"].lower()
    try:
        if form == "exponential":
            return ExponentialKernel(float(sec["rate"]), float(sec["amplitude"]))
        if form == "powerlaw":
            return PowerLawKernel(float(sec["amplitude"]), float(sec["exponent"]))
        if form == "table":
            knots = [tuple(float(v) for v in part.split(":"))
                     for part in sec["knots"].split(",")]
            return TableKernel(knots)
    except (ConfigError, ValueError) as exc:
        problems.append(f"kernel: {exc}")
        return None
    problems.append(f"kernel: unknown form {form!r}")
    return None


def _build_rate(sec, problems):
    form = sec["form"].lower()
    try:
        delta = math.inf if form == "linear" else float(sec["delta"])
        return RateSpec(form, float(sec["c"]), float(sec["L"]), delta)
    except (ConfigError, ValueError) as exc:
        problems.append(f"rate: {exc}")
        return None


def _build_gamma(sec, problems, p, kernel, rate):
    form = sec["form"].lower()
    try:
        if form == "log" and sec["C"] == "auto":
            m = rate.L * kernel.pos_l1
            if not 0 < m < 1:
                problems.append("gamma: auto log schedule needs 0 < L*||h+|| < 1")
                return None
            if not (c_h := borel_c_h(m)) > 0:  # it rounds to 0 within ~1e-8 of m = 1
                problems.append(f"gamma: auto log schedule needs c_h = m - ln(m) - 1 > 0, "
                                f"which rounds to 0 at m = L*||h+|| = {m!r}")
                return None
            # 10% above the least C of assumption A in setup O
            return GammaSchedule.log(1.1 * (p + 1.0) / c_h)
        return GammaSchedule(form, float(sec["C"]))
    except (ConfigError, ValueError) as exc:
        problems.append(f"gamma: {exc}")
        return None


def _integer(text):
    """int(text), or the integer of an integral float such as 1e3 or 400.0."""
    try:
        return int(text)
    except ValueError:
        if not float(text).is_integer():
            raise
        return int(float(text))


def _number(sec, key, kind, problems, default=None):
    """``kind(sec[key])`` for kind float, ``_integer(sec[key])`` for kind
    int, or ``default`` after naming the problem."""
    try:
        return (_integer if kind is int else kind)(sec[key])
    except (ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        problems.append(f"{sec.name}: {key} must be {what}, got {sec[key]!r}")
        return default


_RUN_NUMBERS = {"seed": int, "horizon": float, "n_blocks": int, "n_runs": int,
                "n_steps": int, "fclt_units": int, "fclt_paths": int,
                "alpha": float, "parallel": int}
# the least value of each [run] count; n_runs feeds sample variances, so it
# needs two, and fclt_paths three, as its variance ratios are jackknifed
_RUN_LEAST = {"n_blocks": 1, "n_runs": 2, "n_steps": 1, "fclt_units": 1,
              "fclt_paths": 3, "parallel": 0}
# the least value of each [verify] size below which its suite compares
# nothing or cannot run; the sample-variance counts need two, fclt.n_paths three
_VERIFY_LEAST = {"renewal.n_blocks": 3, "clt.rep_blocks": 1, "lil.n_max": 8,
                 "thinning.n_runs": 1, "coupling.n_runs": 2, "fclt.n_paths": 3,
                 "borel.n_clusters": 2, "re-chain.n_kac": 2}


def _verify_sizes(sec, problems):
    """[verify] as {suite: {param: value}}: each key ``suite.param`` names a
    suite of SUITES and a numeric keyword of it other than n_jobs (the
    worker count is [run] parallel), read as its default's type."""
    sizes = {}
    for key in sec:
        if key in sec.parser.defaults():  # named as [DEFAULT] already
            continue
        suite, _, param = key.partition(".")
        if suite not in SUITES:
            problems.append(f"verify: {key}: unknown suite {suite!r}; "
                            f"choose from {', '.join(sorted(SUITES))}")
            continue
        arg = inspect.signature(SUITES[suite]).parameters.get(param)
        kind = type(getattr(arg, "default", None))
        if kind not in (int, float):
            problems.append(f"verify: {key}: suite {suite} has no numeric "
                            f"parameter {param!r}")
        elif param == "n_jobs":
            problems.append(f"verify: {key}: the worker count is [run] parallel")
        else:
            value = _number(sec, key, kind, problems)
            if param == "alpha" and value is not None and not 0 < value < 1:
                problems.append(f"verify: {key} must be in (0, 1), got {value!r}")
            least = _VERIFY_LEAST.get(key)
            if least is not None and value is not None and value < least:
                problems.append(f"verify: {key} must be >= {least}, got {value}")
            sizes.setdefault(suite, {})[param] = value
    return sizes


def _unknown_keys(parser):
    """Name each section and key of the file that _DEFAULTS does not know
    ([verify] keys are checked by _verify_sizes); DEFAULT counts as a
    section, since configparser copies its keys into every other one."""
    inherited = parser.defaults()
    problems = [f"unknown section [{parser.default_section}]"] if inherited else []
    for name in parser.sections():
        if name not in _DEFAULTS:
            problems.append(f"unknown section [{name}]")
        elif name != "verify":
            known = {parser.optionxform(key) for key in _DEFAULTS[name]}
            problems += [f"{name}: unknown key {key!r}" for key in parser[name]
                         if key not in known and key not in inherited]
    return problems


def load_config(path=None, seed_override=None, out_override=None):
    """Parse the INI file into a RenewalConfig plus run settings.

    All validation problems are aggregated into one ConfigError.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    parser.read_dict(_DEFAULTS)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError([f"config file not found: {path}"])
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError([f"config file: {exc}"]) from exc
    problems = _unknown_keys(parser)
    kernel = _build_kernel(parser["kernel"], problems)
    rate = _build_rate(parser["rate"], problems)
    run = parser["run"]
    p = _number(run, "p", float, problems, default=2.0)
    assumption = run["assumption"].strip().upper()
    if assumption not in ("A", "B"):
        problems.append(f"run: assumption must be A or B, got {assumption!r}")
    nums = {key: _number(run, key, kind, problems)
            for key, kind in _RUN_NUMBERS.items()
            if not (key == "seed" and seed_override is not None)}
    horizon, alpha = nums["horizon"], nums["alpha"]
    if horizon is not None and not (math.isfinite(horizon) and horizon > 0):
        problems.append(f"run: horizon must be finite and positive, got {horizon!r}")
    if alpha is not None and not 0 < alpha < 1:
        problems.append(f"run: alpha must be in (0, 1), got {alpha!r}")
    for key, least in _RUN_LEAST.items():
        if nums[key] is not None and nums[key] < least:
            problems.append(f"run: {key} must be >= {least}, got {nums[key]}")
    verify_sizes = _verify_sizes(parser["verify"], problems)
    sched = None
    if kernel is not None and rate is not None:
        sched = _build_gamma(parser["gamma"], problems, p, kernel, rate)
    env_sec = parser["envelope"]
    r_fn = None
    r_form = env_sec["r"].lower()
    if r_form == "exp":
        coef = _number(env_sec, "r_coef", float, problems)
        rted = _number(env_sec, "r_rate", float, problems)
        if coef is not None and not coef >= 0:
            problems.append(f"envelope: r_coef must be >= 0, got {coef!r}")
        if rted is not None and not rted > 0:
            problems.append(f"envelope: r_rate must be > 0, got {rted!r}")
        r_fn = ExpDecay(coef, rted)
    elif r_form != "zero":
        problems.append(f"envelope: unknown r form {r_form!r}")
    D = _number(env_sec, "D", float, problems, default=0.0)
    cfg = None
    if not problems and kernel is not None and rate is not None and sched is not None:
        try:
            cfg = RenewalConfig(kernel=kernel, rate=rate, sched=sched, r=r_fn, D=D,
                                p=p, assumption=assumption)
            problems.extend(cfg.validate())
        except (ConfigError, ValueError) as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError(problems)
    settings = {
        "seed": int(seed_override) if seed_override is not None else nums["seed"],
        "out": out_override or run["out"],
        **{key: nums[key] for key in ("horizon", "n_blocks", "n_runs", "n_steps",
                                      "fclt_units", "fclt_paths", "alpha")},
        # 0 means auto: use the available cores (outputs are identical
        # at any worker count, so this only affects speed)
        "parallel": nums["parallel"] or (os.cpu_count() or 1),
        "verify_sizes": verify_sizes,
    }
    return cfg, settings


def _outfile(settings, name):
    os.makedirs(settings["out"], exist_ok=True)
    return os.path.join(settings["out"], name)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(cfg, settings):
    pi = PrmStream(settings["seed"], stream=0)
    path = simulate_adhp(pi, cfg.kernel, cfg.rate, ZStart.empty(cfg.D), origin=cfg.D,
                         horizon=settings["horizon"])
    fname = _outfile(settings, "events.csv")
    with open(fname, "w") as fh:
        path_to_csv(path, fh)
    log.info("wrote %d events to %s", path.n, fname)
    print(fname)
    return 0


def cmd_renewal(cfg, settings):
    blocks = iterate_regenerations(cfg, settings["n_blocks"],
                                   seed=settings["seed"],
                                   n_jobs=settings["parallel"])
    fname = _outfile(settings, "cycles.csv")
    with open(fname, "w") as fh:
        fh.write("seed,cycle,tau_gap,alpha_gap,eta,rho\n")
        for i, b in enumerate(blocks):
            for c in b.cycles:
                fh.write(f"{i},{c.index},{_fmt(c.tau_gap)},{_fmt(c.alpha_gap)},"
                         f"{b.eta},{_fmt(b.rho)}\n")
    log.info("wrote %d blocks to %s", len(blocks), fname)
    print(fname)
    return 0


def cmd_coupling(cfg, settings):
    from .stats import coupling_experiment
    reports, data = coupling_experiment(cfg, n_runs=settings["n_runs"],
                                        seed=settings["seed"])
    fname = _outfile(settings, "coupling.csv")
    with open(fname, "w") as fh:
        fh.write("run,T,rho\n")
        for i, (t, r) in enumerate(zip(data["T"], data["rho"])):
            fh.write(f"{i},{_fmt(float(t))},{_fmt(float(r))}\n")
    return _write_and_print(reports, settings, "coupling_reports.csv")


def cmd_clt(cfg, settings):
    from .stats import clt_time_average, functional_clt_paths
    nb = settings["n_blocks"]
    _, reports = clt_time_average(cfg, n_blocks=nb, seed=settings["seed"],
                                  n_jobs=settings["parallel"],
                                  alpha=settings["alpha"])
    tg, paths, rep2 = functional_clt_paths(cfg, n=settings["fclt_units"],
                                           n_paths=settings["fclt_paths"],
                                           seed=settings["seed"] + 1,
                                           n_jobs=settings["parallel"],
                                           alpha=settings["alpha"])
    fname = _outfile(settings, "clt_paths.csv")
    with open(fname, "w") as fh:
        fh.write("path_id,t,B\n")
        for i in range(paths.shape[0]):
            for t, b in zip(tg, paths[i]):
                fh.write(f"{i},{_fmt(float(t))},{_fmt(float(b))}\n")
    return _write_and_print(reports + rep2, settings, "clt_reports.csv")


def cmd_re_chain(cfg, settings):
    from .verify import suite_re_chain
    reports = suite_re_chain(n_steps=settings["n_steps"], seed=settings["seed"])
    return _write_and_print(reports, settings, "re_chain_reports.csv")


def cmd_verify(cfg, settings, only=None):
    """The suites on ``cfg``, or on their reference models when it is None."""
    names = [only] if only else None
    reports = run_suites(names=names, sizes=settings["verify_sizes"],
                         n_jobs=settings["parallel"], cfg=cfg)
    _write_and_print(reports, settings, "verify_reports.csv")
    failed = [r for r in reports if r.gating and not r.passed]
    for r in failed:
        print(f"FAILED: {r.name}: stat={_fmt(r.statistic)} p={_fmt(r.p_value)}",
              file=sys.stderr)
    return 1 if failed else 0


def _write_and_print(reports, settings, name):
    """Write ``reports`` to ``name`` and print them; the exit code, 1 when a
    gating one failed."""
    fname = _outfile(settings, name)
    with open(fname, "w") as fh:
        write_reports(reports, fh)
    print(summarize(reports))
    print(fname)
    return 0 if all(r.passed or not r.gating for r in reports) else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    level = os.environ.get("HAWKES_RENEWAL_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    ap = argparse.ArgumentParser(prog="hawkes-renewal",
                                 description="Regeneration-based Hawkes simulation")
    ap.add_argument("command",
                    choices=["simulate", "renewal", "coupling", "clt",
                             "re-chain", "verify"])
    ap.add_argument("--config", help="INI configuration file")
    ap.add_argument("--seed", type=int, help="master seed override")
    ap.add_argument("--out", help="output directory")
    ap.add_argument("--only", help="run a single verification suite",
                    choices=sorted(SUITES))
    args = ap.parse_args(argv)
    problems = []  # a flag that the command would ignore, then the file's
    if args.only and args.command != "verify":
        problems.append(f"--only picks a verify suite; {args.command} runs none")
    if args.seed is not None and args.command == "verify":
        problems.append("--seed: verify runs each suite at its own seed, "
                        "which is [verify] <suite>.seed")
    try:
        cfg, settings = load_config(args.config, seed_override=args.seed,
                                    out_override=args.out)
    except ConfigError as exc:
        problems += exc.problems
    try:
        if problems:
            raise ConfigError(problems)
        if args.command == "simulate":
            return cmd_simulate(cfg, settings)
        if args.command == "renewal":
            return cmd_renewal(cfg, settings)
        if args.command == "coupling":
            return cmd_coupling(cfg, settings)
        if args.command == "clt":
            return cmd_clt(cfg, settings)
        if args.command == "re-chain":
            return cmd_re_chain(cfg, settings)
        # without --config the suites keep their reference models
        return cmd_verify(cfg if args.config else None, settings, only=args.only)
    except ConfigError as exc:
        for prob in exc.problems:
            print(f"config error: {prob}", file=sys.stderr)
        return 2
    except Exception as exc:  # simulation-level failure
        log.exception("simulation failed")
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
