import configparser
import dataclasses
import hashlib
import inspect
import itertools
import math
import os
import pathlib
import time
import types
import warnings

import pytest

from hawkes_renewal import (ConfigError, ExponentialKernel, GammaSchedule,
                            PositivePartKernel, PowerLawKernel, ProcessState, RateSpec,
                            RenewalConfig, ZStart, renewal, run_system, simulate_adhp)
from hawkes_renewal import (DominationError, cli, cluster, kernels, quadrature, reprocess,
                            stats, verify)
from hawkes_renewal.cli import _VERIFY_LEAST, load_config, main
from hawkes_renewal.verify import (SUITES, reference_ad_config, reference_o_config,
                                   run_suites, suite_renewal, suite_thinning)

ROOT = pathlib.Path(__file__).resolve().parents[1]

BASE_CONFIG = """
[kernel]
form = exponential
rate = 1.0
amplitude = 0.2

[rate]
form = refractory_linear
c = 0.5
L = 0.4
delta = 1.0

[run]
seed = 3
horizon = 50.0
n_blocks = 40
out = {out}
"""

ZERO_BAND_CONFIG = """
[kernel]
form = exponential
rate = 1.0
amplitude = 0.0

[rate]
form = linear
c = 1.0
L = 0.5

[run]
seed = 5
n_blocks = 25
out = {out}
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text.format(out=tmp_path / "out"))
    return str(p)


class TestConfigDefaults:
    def test_defaults_are_those_of_the_readme(self):
        cfg, settings = load_config(None)
        k, r = cfg.kernel, cfg.rate
        assert (type(k).__name__, k.rate, k.amplitude) == ("ExponentialKernel", 1.0, 0.2)
        assert (r.name, r.c_psi, r.L, r.delta) == ("refractory_linear", 0.5, 0.4, 1.0)
        assert (cfg.sched.form, cfg.sched.C) == ("linear", 1.0)
        assert (cfg.D, cfg.r, cfg.p, cfg.assumption) == (0.0, None, 2.0, "B")
        assert (settings["seed"], settings["horizon"], settings["n_blocks"],
                settings["out"]) == (1, 100.0, 1000, ".")

    def test_optional_keys_have_defaults(self, tmp_path, monkeypatch):
        # only the parsing is under test here: validating a power-law
        # kernel needs a long envelope set-up
        monkeypatch.setattr(RenewalConfig, "validate", lambda cfg: [])
        load = lambda text: load_config(write(tmp_path, text))[0]
        pl = load("[kernel]\nform = powerlaw\n[gamma]\nform = log\n")
        assert (pl.kernel.amplitude, pl.kernel.exponent) == (0.2, 2.5)
        assert (pl.sched.form, pl.sched.C) == ("log", 1.0)
        tab = load("[kernel]\nform = table\n[envelope]\nr = exp\n")
        assert (tab.kernel.ts, tab.kernel.vs) == ([0.0, 1.0], [1.0, 0.0])
        assert (tab.r(0.0), tab.r(2.0)) == (1.0, math.exp(-2.0))

    def test_readme_sample_config_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        sample = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg, settings = load_config(write(tmp_path, sample))
        default_cfg, default_settings = load_config(None)
        assert settings == {**default_settings,
                            "verify_sizes": {"renewal": {"n_cycles": 10000}}}
        describe = lambda c: (repr(c.kernel), c.rate.name, c.rate.c_psi, c.rate.L,
                              c.rate.delta, c.sched.form, c.sched.C, c.r, c.D,
                              c.p, c.assumption)
        assert describe(cfg) == describe(default_cfg)


class TestConfigProblems:
    @pytest.mark.parametrize("command, text, problem", [
        ("simulate", "[run]\nn_blocks = ten", "run: n_blocks must be an integer, got 'ten'"),
        ("renewal", "[run]\nseed = x", "run: seed must be an integer, got 'x'"),
        ("clt", "[run]\nalpha = low", "run: alpha must be a number, got 'low'"),
        ("clt", "[run]\nalpha = 1%", "run: alpha must be a number, got '1%'"),
        ("renewal", "[run]\nmax_cycles = 1e6", "run: unknown key 'max_cycles'"),
        ("renewal", "[envelope]\nr = exp\nr_coef = big", "envelope: r_coef must be a number"),
        ("renewal", "[envelope]\nr = exp\nr_rate = fast", "envelope: r_rate must be a number"),
        ("renewal", "[envelope]\nr = exp\nr_coef = -2.0",
         "envelope: r_coef must be >= 0, got -2.0"),
        ("renewal", "[envelope]\nr = exp\nr_rate = 0", "envelope: r_rate must be > 0, got 0.0"),
        ("simulate", "[run]\nhorizon = inf", "run: horizon must be finite and positive"),
        ("simulate", "[run]\nhorizon = nan", "run: horizon must be finite and positive"),
        ("simulate", "[run]\nhorizon = -5", "run: horizon must be finite and positive"),
        ("renewal", "[run]\nparallel = -1", "run: parallel must be >= 0, got -1"),
        ("verify", "[verify]\nrenewal.n_cycles = many",
         "verify: renewal.n_cycles must be an integer, got 'many'"),
        ("verify", "[verify]\nrenewal.n_blocks = 400.7",
         "verify: renewal.n_blocks must be an integer, got '400.7'"),
        ("renewal", "[run]\nn_blocks = 400.7", "run: n_blocks must be an integer, got '400.7'"),
        ("verify", "[verify]\nre-chain.n_stepz = 5",
         "verify: re-chain.n_stepz: suite re-chain has no numeric parameter 'n_stepz'"),
        ("verify", "[verify]\nrechain.n_steps = 5",
         "verify: rechain.n_steps: unknown suite 'rechain'; choose from borel, clt,"),
        ("simulate", "[run]\nseed = 1\n[run]\nseed = 2", "config file:"),
        ("clt", "[run]\nalpha = 0", "run: alpha must be in (0, 1), got 0.0"),
        ("clt", "[run]\nalpha = 1.5", "run: alpha must be in (0, 1), got 1.5"),
        ("clt", "[run]\nalpha = nan", "run: alpha must be in (0, 1), got nan"),
        ("verify", "[verify]\nclt.alpha = 1",
         "verify: clt.alpha must be in (0, 1), got 1.0"),
        ("verify", "[verify]\nprm-split.alpha = -0.01",
         "verify: prm-split.alpha must be in (0, 1), got -0.01"),
        ("renewal", "[run]\nn_blocks = 0", "run: n_blocks must be >= 1, got 0"),
        ("clt", "[run]\nfclt_paths = 0", "run: fclt_paths must be >= 3, got 0"),
        ("clt", "[run]\nfclt_paths = 1", "run: fclt_paths must be >= 3, got 1"),
        ("clt", "[run]\nfclt_paths = 2", "run: fclt_paths must be >= 3, got 2"),
        ("clt", "[run]\nfclt_units = 0", "run: fclt_units must be >= 1, got 0"),
        ("coupling", "[run]\nn_runs = 0", "run: n_runs must be >= 2, got 0"),
        ("coupling", "[run]\nn_runs = 1", "run: n_runs must be >= 2, got 1"),
        ("re-chain", "[run]\nn_steps = 0", "run: n_steps must be >= 1, got 0"),
        ("renewal", "[run]\nmax_cycles = 0", "run: unknown key 'max_cycles'"),
        ("renewal", "[run]\nn_block = 3", "run: unknown key 'n_block'"),
        ("renewal", "[kernel]\nrat = 2.0", "kernel: unknown key 'rat'"),
        ("simulate", "[typo_section]\nx = 1", "unknown section [typo_section]"),
        ("simulate", "[DEFAULT]\nseed = 2", "unknown section [DEFAULT]"),
        ("verify", "[envelope]\nD = 1.0\n[verify]\nrenewal.n_blocks = 1",
         "verify: renewal.n_blocks must be >= 3, got 1"),
        ("verify", "[verify]\nclt.rep_blocks = 0", "verify: clt.rep_blocks must be >= 1, got 0"),
        ("verify --only clt", "[verify]\nclt.n_blocks = 2",
         "clt: n_blocks must be >= 2 * rep_blocks = 64 for two normality groups, got 2"),
        ("verify --only clt", "[verify]\nclt.n_blocks = 1",
         "clt: n_blocks must be >= 2 * rep_blocks = 64 for two normality groups, got 1"),
        ("clt", "[run]\nn_blocks = 40",
         "clt: n_blocks must be >= 2 * rep_blocks = 64 for two normality groups, got 40"),
        ("verify", "[verify]\nlil.n_max = 1", "verify: lil.n_max must be >= 8, got 1"),
        ("verify", "[verify]\nthinning.n_runs = 0", "verify: thinning.n_runs must be >= 1, got 0"),
        ("verify", "[verify]\ncoupling.n_runs = 1", "verify: coupling.n_runs must be >= 2, got 1"),
        ("verify", "[verify]\nfclt.n_paths = 1", "verify: fclt.n_paths must be >= 3, got 1"),
        ("verify --only fclt", "[verify]\nfclt.n_paths = 2\nfclt.n = 20",
         "verify: fclt.n_paths must be >= 3, got 2"),
        ("verify --only clt", "[verify]\nclt.rep_blocks = 1\nclt.n_blocks = 64",
         "clt: a group of rep_blocks = 1 blocks has length 0"),
        ("verify --only borel", "[verify]\nborel.n_clusters = 2",
         "borel-total-progeny: 2 observations fill 0 pooled bins of expected count >= 5"),
        ("verify", "[verify]\nborel.n_clusters = 1",
         "verify: borel.n_clusters must be >= 2, got 1"),
        ("verify", "[verify]\nre-chain.n_kac = 1", "verify: re-chain.n_kac must be >= 2, got 1"),
        ("verify --only re-chain", "[verify]\nre-chain.n_kac = 2\nre-chain.n_steps = 2000",
         "re-kac-identity: standard error 0 at 0.402216; it compares nothing"),
        ("renewal", "[kernel]\namplitude = 0.999999999\n[rate]\nform = linear\nL = 1.0\n"
         "[gamma]\nform = log\nC = auto\n[run]\nassumption = A",
         "gamma: auto log schedule needs c_h = m - ln(m) - 1 > 0, which rounds to 0"),
        ("renewal", "[envelope]\nD = -1", "delay D must be finite and >= 0"),
        ("renewal", "[envelope]\nD = nan", "delay D must be finite and >= 0"),
        ("simulate", "[envelope]\nD = inf", "delay D must be finite and >= 0"),
        ("renewal", "[rate]\nc = inf", "rate: c must be finite, got inf"),
        ("renewal", "[rate]\nL = inf", "rate: L must be finite, got inf"),
        ("renewal", "[kernel]\nrate = nan", "kernel: rate must be finite, got nan"),
        ("renewal", "[kernel]\nform = table\nknots = 0:1,1:nan",
         "kernel: table kernel knots must be finite"),
        ("renewal", "[gamma]\nC = nan", "gamma: C must be finite, got nan"),
        ("renewal", "[envelope]\nr = exp\nr_rate = inf", "start bound r must be finite"),
        ("coupling", "[run]\np = inf", "moment order p must be finite"),
    ], ids=["n_blocks", "seed", "alpha", "alpha-percent", "max_cycles", "r_coef", "r_rate",
            "r_coef-negative", "r_rate-zero",
            "horizon-inf", "horizon-nan", "horizon-negative", "parallel",
            "verify-size", "verify-fractional-count", "run-fractional-count",
            "verify-parameter", "verify-suite", "duplicate-section",
            "alpha-zero", "alpha-above-one", "alpha-nan", "verify-alpha-one",
            "verify-alpha-negative", "n_blocks-zero", "fclt_paths-zero", "fclt_paths-one",
            "fclt_paths-two", "fclt_units-zero", "n_runs-zero", "n_runs-one", "n_steps-zero",
            "max_cycles-zero", "unknown-run-key", "unknown-kernel-key",
            "unknown-section", "default-section", "verify-renewal-blocks",
            "verify-clt-rep-blocks", "verify-clt-two-blocks", "verify-clt-one-block",
            "clt-blocks", "verify-lil-n_max", "verify-thinning-runs",
            "verify-coupling-runs", "verify-fclt-paths", "verify-fclt-two-paths",
            "verify-clt-empty-group", "verify-borel-two-clusters", "verify-borel-clusters",
            "verify-re-chain-kac", "verify-re-chain-kac-se-zero",
            "auto-log-c_h-rounds-to-zero", "D-negative", "D-nan", "D-inf", "c-inf", "L-inf",
            "kernel-rate-nan", "table-knot-nan", "schedule-C-nan", "r_rate-inf", "p-inf"])
    def test_named_problem_exits_2(self, tmp_path, capsys, command, text, problem):
        cfg = write(tmp_path, text + "\n")
        assert main([*command.split(), "--config", cfg]) == 2
        assert f"config error: {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, problem", [
        ("verify --seed 5 --only thinning",
         "--seed: verify runs each suite at its own seed, which is [verify] <suite>.seed"),
        ("simulate --only thinning", "--only picks a verify suite; simulate runs none"),
        ("renewal --only clt", "--only picks a verify suite; renewal runs none"),
        ("coupling --only coupling", "--only picks a verify suite; coupling runs none"),
        ("clt --only clt", "--only picks a verify suite; clt runs none"),
        ("re-chain --only re-chain", "--only picks a verify suite; re-chain runs none"),
    ], ids=["verify-seed", "simulate-only", "renewal-only", "coupling-only", "clt-only",
            "re-chain-only"])
    def test_an_ignored_flag_is_refused_by_name(self, tmp_path, capsys, monkeypatch,
                                                argv, problem):
        ran = []
        record = lambda name: lambda *args, **kwargs: ran.append(name)
        monkeypatch.setattr(cli, "run_suites", record("suite"))
        monkeypatch.setattr(verify, "suite_re_chain", record("suite"))
        monkeypatch.setattr(renewal, "run_system", record("block"))
        monkeypatch.setattr(cli, "simulate_adhp", record("path"))
        cfg = write(tmp_path, BASE_CONFIG)
        assert main([*argv.split(), "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert ran == [] and not (tmp_path / "out").exists()

    def test_verify_sizes_are_read_as_their_keyword_types(self, tmp_path):
        text = "[verify]\nprm-split.alpha = 0.05\nrenewal.n_cycles = 1e3\n"
        _, settings = load_config(write(tmp_path, text))
        assert settings["verify_sizes"] == {"prm-split": {"alpha": 0.05},
                                            "renewal": {"n_cycles": 1000}}

    def test_an_integral_count_may_be_written_as_a_float(self, tmp_path):
        text = "[run]\nn_blocks = 1e3\nseed = 7.0\n[verify]\nrenewal.n_blocks = 400.0\n"
        _, settings = load_config(write(tmp_path, text))
        assert (settings["n_blocks"], settings["seed"]) == (1000, 7)
        assert settings["verify_sizes"] == {"renewal": {"n_blocks": 400}}

    def test_seed_flag_skips_the_file_seed(self, tmp_path):
        _, settings = load_config(write(tmp_path, "[run]\nseed = x\n"), seed_override=4)
        assert settings["seed"] == 4


class TestConfigSurface:
    """Every value a caller can set: a new one needs a change here."""

    def test_settable_values_are_these(self):
        assert list(cli._DEFAULTS["run"]) == [
            "p", "assumption", "seed", "horizon", "n_blocks", "out", "alpha", "parallel",
            "n_runs", "n_steps", "fclt_units", "fclt_paths"]
        # every keyword of every suite offered in [verify]: the accepted ones
        parser = configparser.ConfigParser()
        parser.read_dict({"verify": {f"{name}.{param}": "0.5" for name, suite in SUITES.items()
                                     for param in inspect.signature(suite).parameters}})
        sizes = cli._verify_sizes(parser["verify"], [])
        assert [f"{name}.{param}" for name, kw in sizes.items() for param in kw] == [
            "renewal.n_cycles", "renewal.n_blocks", "renewal.seed", "renewal.alpha",
            "coupling.n_runs", "coupling.seed", "thinning.n_runs", "thinning.seed",
            "prm-split.seed", "prm-split.alpha",
            "borel.n_clusters", "borel.seed", "borel.alpha",
            "re-chain.n_steps", "re-chain.n_kac", "re-chain.seed", "re-chain.alpha",
            "clt.n_blocks", "clt.rep_blocks", "clt.seed", "clt.alpha",
            "fclt.n", "fclt.n_paths", "fclt.seed", "fclt.alpha",
            "lil.n_max", "lil.seed", "moments.n_small", "moments.seed"]
        assert [f.name for f in dataclasses.fields(RenewalConfig) if f.init] == [
            "kernel", "rate", "sched", "r", "D", "p", "assumption"]
        assert list(inspect.signature(stats.coupling_experiment).parameters) == [
            "cfg", "n_runs", "seed"]
        assert list(inspect.signature(stats.lil_envelope).parameters) == [
            "cfg", "n_max", "seed", "n_jobs"]
        # the processes: a start state and an origin build every one
        assert list(inspect.signature(ProcessState).parameters) == [
            "kernel", "rate", "start", "origin"]
        assert list(inspect.signature(simulate_adhp).parameters) == [
            "pi", "kernel", "rate", "start", "origin", "horizon"]
        assert list(inspect.signature(run_system).parameters) == [
            "cfg", "pi", "pibar", "starts", "tau_rng", "extend_after"]
        assert [f.name for f in dataclasses.fields(ZStart)] == [
            "signal", "signal_upper", "signal_abs", "age0"]
        # the certificate reads the process; pooling and quadrature take no knobs
        assert list(inspect.signature(renewal.check_envelope_inequality).parameters) == [
            "env", "process", "base"]
        assert list(inspect.signature(stats.chi2_gof).parameters) == [
            "observed", "probs", "alpha", "name"]
        assert list(inspect.signature(stats.chi2_two_sample).parameters) == [
            "a", "b", "alpha", "name"]
        assert list(inspect.signature(quadrature.integrate).parameters) == ["fn", "a", "b"]
        # caps, tolerances and the batch size are constants
        assert list(inspect.signature(kernels.ceil_int).parameters) == ["x"]
        assert list(inspect.signature(reprocess.return_time).parameters) == [
            "chain", "start", "rng"]
        assert list(inspect.signature(reprocess.invariant_cdf).parameters) == ["chain", "n"]
        assert list(inspect.signature(cluster.BorelLaw.truncation_size).parameters) == [
            "self", "mass_tol"]
        assert list(inspect.signature(cluster.simulate_cluster).parameters) == [
            "kernel", "L", "rng"]
        assert list(inspect.signature(stats.batch_means_sigma2).parameters) == ["counts"]

    def test_public_names_are_these(self):
        import hawkes_renewal
        assert hawkes_renewal.__all__ == [
            "BandViolationError", "ConfigError", "DominationError",
            "IntegrabilityError", "SimulationCapError", "SupercriticalError",
            "EnvelopeFns", "ExpDecay", "ExponentialKernel", "GammaSchedule", "Kernel",
            "PositivePartKernel", "PowerLawKernel", "RateSpec", "TableKernel",
            "ZeroKernel", "pos_part",
            "PrmStream", "SplitStreams", "spawn_rng", "split",
            "Path", "ProcessState", "ZStart", "path_to_csv", "simulate_adhp",
            "Block", "Certificate", "CycleRecord", "RenewalConfig", "RenewalOutcome",
            "Diagnostics",
            "check_envelope_inequality", "iterate_regenerations", "run_system",
            "scan_alpha_AD", "scan_alpha_O",
            "BorelLaw", "Cluster", "simulate_cluster",
            "REChain", "invariant_cdf", "return_time", "step",
            "BlockStat", "TestReport", "clt_time_average", "coupling_experiment",
            "functional_clt_paths", "lil_envelope"]
        assert [n for n in hawkes_renewal.__all__ if not hasattr(hawkes_renewal, n)] == []

    @pytest.mark.parametrize("suite, text, problem", [
        ("renewal", "[run]\nmax_cycles = 1000000", "run: unknown key 'max_cycles'"),
        ("renewal", "[run]\nscan_cap = 1000000", "run: unknown key 'scan_cap'"),
        ("thinning", "[verify]\nthinning.horizon = 0",
         "verify: thinning.horizon: suite thinning has no numeric parameter 'horizon'"),
        ("thinning", "[verify]\nthinning.bound = 12",
         "verify: thinning.bound: suite thinning has no numeric parameter 'bound'"),
        ("prm-split", "[verify]\nprm-split.horizon = 5",
         "verify: prm-split.horizon: suite prm-split has no numeric parameter 'horizon'"),
        ("borel", "[verify]\nborel.mean_offspring = 1.5",
         "verify: borel.mean_offspring: suite borel has no numeric parameter 'mean_offspring'"),
        ("re-chain", "[verify]\nre-chain.thin = 25",
         "verify: re-chain.thin: suite re-chain has no numeric parameter 'thin'"),
        ("coupling", "[verify]\ncoupling.alpha = 0.7",
         "verify: coupling.alpha: suite coupling has no numeric parameter 'alpha'"),
        ("renewal", "[verify]\nrenewal.n_jobs = 2",
         "verify: renewal.n_jobs: the worker count is [run] parallel"),
    ], ids=["run-max_cycles", "run-scan_cap", "thinning-horizon", "thinning-bound",
            "prm-split-horizon", "borel-mean_offspring", "re-chain-thin", "coupling-alpha",
            "renewal-n_jobs"])
    def test_a_removed_key_is_refused_by_name(self, tmp_path, capsys, monkeypatch,
                                              suite, text, problem):
        ran = []
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: ran.append(args))
        cfg = write(tmp_path, text + "\n")
        assert main(["verify", "--config", cfg, "--only", suite]) == 2
        assert capsys.readouterr().err == f"config error: {problem}\n"
        assert ran == []


class TestReferenceDigests:
    """The seeded CLI outputs of the AD D=1 and O D=0 reference configs,
    byte for byte (horizon 2000, 200 blocks, seed 5), with one worker and,
    for the blocks, with two as well."""

    RUN = "[run]\nhorizon = 2000\nn_blocks = 200\nseed = 5\nout = {out}\n"

    @pytest.mark.parametrize("text, events, cycles", [
        ("[envelope]\nD = 1.0\n",
         "b4f7ae70f66b649c83322609dc97d865d60433f00c0974dd5980a16701f501f5",
         "82aee3d5ef7d86f117d049a547200095e0947f8fe077040fc6c105d3ce89c4ff"),
        ("[kernel]\namplitude = 0.3\n[rate]\nform = linear\nc = 0.5\nL = 1.0\n",
         "e2aca9d9a7dd0267acfd0b7096041a3440c8d89d04c74012aaecd29883b39e68",
         "d7d77be599db0a20a061f2e328fe50bf5022d423aeb93fc2f4b95cd704d659e5"),
    ], ids=["AD-D1", "O-D0"])
    def test_outputs_are_unchanged(self, tmp_path, capsys, text, events, cycles):
        for command, name, want, parallel in (
                ("simulate", "events.csv", events, 1),
                ("renewal", "cycles.csv", cycles, 1),
                ("renewal", "cycles.csv", cycles, 2)):
            cfg = write(tmp_path, f"{text}{self.RUN}parallel = {parallel}\n")
            assert main([command, "--config", cfg]) == 0
            data = (tmp_path / "out" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == want, name


class TestSimulate:
    def test_writes_events_and_is_byte_identical(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", cfg]) == 0
        fname = os.path.join(str(tmp_path / "out"), "events.csv")
        first = open(fname).read()
        assert first.startswith("t\n")
        assert len(first.splitlines()) > 5
        assert main(["simulate", "--config", cfg]) == 0
        assert open(fname).read() == first

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.ini"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_delta_rejected(self, tmp_path, capsys):
        bad = BASE_CONFIG.replace("delta = 1.0", "delta = 0.3")
        cfg = write(tmp_path, bad)
        assert main(["simulate", "--config", cfg]) == 2
        assert "reciprocal" in capsys.readouterr().err

    def test_supercritical_rejected(self, tmp_path, capsys):
        bad = BASE_CONFIG.replace("form = refractory_linear", "form = linear") \
                         .replace("amplitude = 0.2", "amplitude = 3.0")
        cfg = write(tmp_path, bad)
        assert main(["simulate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "subcritical" in err


class TestRenewal:
    def test_powerlaw_without_exponential_moment_rejected(self, tmp_path, capsys):
        # a power-law F has no exponential moment, which assumption B needs
        bad = BASE_CONFIG.replace("form = exponential", "form = powerlaw") \
                         .replace("rate = 1.0\n", "exponent = 4.0\n", 1)
        cfg = write(tmp_path, bad)
        assert main(["renewal", "--config", cfg]) == 2
        assert "F lacks an exponential moment" in capsys.readouterr().err

    def test_powerlaw_without_second_moment_rejected(self, tmp_path, capsys):
        # exponent 2.5 leaves t^2 f non-integrable, which assumption A needs
        bad = BASE_CONFIG.replace("form = exponential", "form = powerlaw") \
                         .replace("rate = 1.0\n", "exponent = 2.5\n", 1) \
                         .replace("[run]\n", "[gamma]\nform = log\nC = 3.0\n\n"
                                              "[run]\nassumption = A\np = 2.0\n")
        cfg = write(tmp_path, bad)
        assert main(["renewal", "--config", cfg]) == 2
        assert "t^p f not integrable (assumption A)" in capsys.readouterr().err

    def test_a_schedule_past_float_range_hits_the_scan_cap(self, tmp_path, capsys):
        # C = 1e-3 passes assumption A in setup AD, but gamma reaches 1 only
        # at exp(1000): the first unit with a point ends the run at the cap
        text = BASE_CONFIG.replace("[run]\n", "[gamma]\nform = log\nC = 1e-3\n\n"
                                             "[run]\nassumption = A\np = 2.0\n")
        assert main(["renewal", "--config", write(tmp_path, text)]) == 3
        err = capsys.readouterr().err
        assert "SimulationCapError" in err and "OverflowError" not in err

    def test_a_config_that_cannot_regenerate_is_rejected(self, tmp_path, capsys):
        # L ||h_+|| = 0.95 is subcritical, but ||F||_1 = 58.9: a block needs
        # about e^58.9 cycles, so it would run for hours before the cycle cap
        text = ("[kernel]\nform = exponential\nrate = 0.2\namplitude = 0.19\n\n"
                "[rate]\nform = linear\nc = 0.5\nL = 1.0\n\n"
                "[run]\nn_blocks = 3\nout = {out}\n")
        t0 = time.perf_counter()
        assert main(["renewal", "--config", write(tmp_path, text)]) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "||F||_1 = 58.9" in err and "e^||F||_1 = 3.8e+25 cycles" in err

    def test_a_band_mass_past_the_float_range_is_named(self, tmp_path, capsys):
        # assumption A holds for every exponential rate, but under a log
        # schedule f reads e^a E1(a), and e^800 overflows
        text = BASE_CONFIG.replace("rate = 1.0\n", "rate = 800.0\n", 1) \
                          .replace("[run]\n", "[gamma]\nform = log\nC = 3.0\n\n"
                                              "[run]\nassumption = A\n")
        assert main(["renewal", "--config", write(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "||F||_1 has no finite value: f evaluated non-finite" in err
        assert "Traceback" not in err

    def test_zero_band_rows_have_inf_sentinels(self, tmp_path, capsys):
        cfg = write(tmp_path, ZERO_BAND_CONFIG)
        assert main(["renewal", "--config", cfg]) == 0
        fname = os.path.join(str(tmp_path / "out"), "cycles.csv")
        lines = open(fname).read().splitlines()
        assert lines[0] == "seed,cycle,tau_gap,alpha_gap,eta,rho"
        assert len(lines) == 26  # one cycle row per block
        for line in lines[1:]:
            seed, cyc, tau, ag, eta, rho = line.split(",")
            assert tau == "inf" and ag == "inf" and eta == "0" and rho == "0"

    def test_reproducible(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE_CONFIG)
        assert main(["renewal", "--config", cfg]) == 0
        fname = os.path.join(str(tmp_path / "out"), "cycles.csv")
        first = open(fname).read()
        assert main(["renewal", "--config", cfg]) == 0
        assert open(fname).read() == first

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path, BASE_CONFIG)
        main(["renewal", "--config", cfg])
        fname = os.path.join(str(tmp_path / "out"), "cycles.csv")
        first = open(fname).read()
        main(["renewal", "--config", cfg, "--seed", "99"])
        assert open(fname).read() != first


class TestVerify:
    def test_only_single_suite_passes(self, tmp_path, capsys):
        text = BASE_CONFIG + "\n[verify]\nre-chain.n_steps = 40000\nre-chain.n_kac = 4000\n"
        cfg = write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--only", "re-chain"]) == 0
        out = capsys.readouterr().out
        assert "re-invariant-occupation" in out
        fname = os.path.join(str(tmp_path / "out"), "verify_reports.csv")
        assert open(fname).readline().strip() == "test,statistic,p_value,n,pass"

    def test_config_file_sets_the_model_of_the_suites(self, tmp_path, capsys):
        # regeneration-gap-empty is reported only for a model with D > 0,
        # and the reference model of the renewal suite has D = 0
        text = BASE_CONFIG + (
            "\n[envelope]\nD = 1.0\n"
            "\n[verify]\nrenewal.n_cycles = 300\nrenewal.n_blocks = 100\n")
        assert main(["verify", "--config", write(tmp_path, text),
                     "--only", "renewal"]) == 0
        assert "regeneration-gap-empty" in capsys.readouterr().out

    def test_fixed_model_suites_say_they_ignore_the_file(self, tmp_path, capsys):
        note = "[ran its own fixed model, not the config file's]"
        fixed = {"moments": {"n_small": 20}, "thinning": {"n_runs": 3},
                 "prm-split": {}, "borel": {"n_clusters": 200},
                 "re-chain": {"n_steps": 2000, "n_kac": 200}}
        sizes = fixed | {"renewal": {"n_cycles": 30, "n_blocks": 20}}
        plain = run_suites(list(fixed), sizes=sizes)
        filed = run_suites(list(sizes), sizes=sizes, cfg=reference_ad_config(D=1.0))
        # every report of a fixed-model suite carries the note, no other does
        assert [r.name for r in filed if r.detail.endswith(note)] == \
            [r.name for r in plain]
        assert not any(note in r.detail for r in plain)
        text = BASE_CONFIG + "\n[verify]\nthinning.n_runs = 3\n"
        assert main(["verify", "--config", write(tmp_path, text),
                     "--only", "thinning"]) == 0
        assert note in capsys.readouterr().out

    def test_broken_band_fails_the_band_gates(self, tmp_path, capsys, monkeypatch):
        # halve the band width of the mechanism; fork workers inherit it.
        # The renewal suite runs the file's model, AD D=0; every tau is drawn
        # from cum_F, so the tau law holds; the band sweep below each drawn
        # gap skips only half the band, and candidates leave the halved band
        width = renewal._Engine.width
        monkeypatch.setattr(renewal._Engine, "width",
                            lambda eng, s: 0.5 * width(eng, s))
        text = BASE_CONFIG + (
            "\n[verify]\nrenewal.n_cycles = 1200\nrenewal.n_blocks = 300\n")
        cfg = write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--only", "renewal"]) == 1
        err = capsys.readouterr().err
        assert "band-skipped-count" in err and "band-invariant" in err


    def test_thinning_oracle_refuses_an_intensity_above_its_bound(self, monkeypatch):
        # c = 13 puts the intensity above the oracle's global bound 12 from
        # the first candidate past the refractory period on
        spec = RateSpec.refractory_linear
        monkeypatch.setattr(verify, "RateSpec", types.SimpleNamespace(
            refractory_linear=lambda c, L, delta: spec(13.0, L, delta)))
        with pytest.raises(DominationError, match="thinning oracle: intensity 13 > 12"):
            suite_thinning(n_runs=1)


class TestLeastSizes:
    # the other sizes of each suite, kept small
    OTHER = {"renewal": "renewal.n_cycles = 300\n", "clt": "clt.n_blocks = 64\n",
             "fclt": "fclt.n = 10\n", "re-chain": "re-chain.n_steps = 2000\n"}
    # gating checks of a count or a bound, which carry no p-value
    NO_P_VALUE = {"band-invariant", "envelope-certificate", "thinning-oracle-equivalence",
                  "coupling-exact-after-rho", "coupling-T-below-rho",
                  "coupling-moment-stability", "borel-truncated-mass"}

    def test_each_least_size_runs_or_is_refused_by_name(self, tmp_path, capsys, monkeypatch):
        # every [verify] size at its least: a run computes every gating
        # statistic, with no RuntimeWarning and no nan, or exits 2 naming
        # what it cannot compute
        reports = []

        def recording(*args, **kwargs):
            out = run_suites(*args, **kwargs)
            reports.extend(out)
            return out
        monkeypatch.setattr(cli, "run_suites", recording)
        t0 = time.perf_counter()
        for key, least in _VERIFY_LEAST.items():
            suite = key.partition(".")[0]
            text = (f"[run]\nparallel = 1\nout = {{out}}\n"
                    f"[verify]\n{key} = {least}\n{self.OTHER.get(suite, '')}")
            reports.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["verify", "--config", write(tmp_path, text), "--only", suite])
            err = capsys.readouterr().err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], key
            assert "Traceback" not in err, key
            if code == 2:
                assert err.startswith("config error: "), key
                continue
            assert code in (0, 1), (key, code, err)
            for r in reports:
                assert not r.gating or not math.isnan(r.statistic), (key, r)
                assert not r.gating or r.name in self.NO_P_VALUE or \
                    not math.isnan(r.p_value), (key, r)
        assert time.perf_counter() - t0 < 5.0

    def test_block_correlations_of_equal_values_are_zero(self):
        # at renewal.n_blocks = 3 a lag pair is two blocks, often alike (at
        # seed 2 in counts and in lengths): with no covariance r is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = suite_renewal(reference_ad_config(D=0.0), n_cycles=300, n_blocks=3,
                                    seed=2)
        corr = [r for r in reports if r.name.startswith("block-")]
        assert [r.statistic for r in corr] == [0.0, 0.0] and all(r.passed for r in corr)


MATRIX_KERNELS = {"exponential": "form = exponential\n",
                  "powerlaw-5": "form = powerlaw\nexponent = 5\n",
                  "powerlaw-4.5": "form = powerlaw\nexponent = 4.5\n",
                  "table": "form = table\n"}
MATRIX_SCHEDULES = {"linear": "form = linear\nC = 1.0\n",
                    "log-3": "form = log\nC = 3.0\n",
                    "log-auto": "form = log\nC = auto\n"}
# sha256 of every matrix case's "case: problems" line, in case order
MATRIX_PROBLEMS_SHA256 = "de9be7919c415929674d66e14ee208fed813a383fab3ba4c0298e7e67fbacdac"
MOMENT_PROBLEMS = {"t^p f not integrable (assumption A)",
                   "F lacks an exponential moment (assumption B)"}


def moment_rule(kernel, schedule, assumption, p=2.0):
    """Assumption A or B of the defaults' kernels (exponential rate 1,
    power-law amplitude 0.2) and r (rate 1 when given): A fails only for a
    power law (1+t)^-b with b <= p + 3 (linear) or b <= p + 2 (log), B
    only for a power law."""
    if not kernel.startswith("powerlaw"):
        return True
    if assumption == "B":
        return False
    b = float(kernel.split("-")[1])
    return b > p + (3.0 if schedule == "linear" else 2.0)


class TestConfigMatrix:
    def test_verdicts_follow_the_exact_rule(self, tmp_path):
        # kernel x rate form x schedule x assumption x D x r, in-process
        # through load_config with the defaults' parameters otherwise
        t0 = time.perf_counter()
        accepted, listed = {}, []
        cases = itertools.product(MATRIX_KERNELS, ("linear", "refractory_linear",
                                                   "hard_refractory"),
                                  MATRIX_SCHEDULES, "AB", (0, 1), ("zero", "exp"))
        for case in cases:
            kernel, rate, schedule, assumption, D, r = case
            text = (f"[kernel]\n{MATRIX_KERNELS[kernel]}[rate]\nform = {rate}\n"
                    f"[gamma]\n{MATRIX_SCHEDULES[schedule]}"
                    f"[envelope]\nD = {D}\nr = {r}\n[run]\nassumption = {assumption}\n")
            try:
                load_config(write(tmp_path, text))
                problems = []
            except ConfigError as exc:
                problems = exc.problems
            assert bool(MOMENT_PROBLEMS & set(problems)) != \
                moment_rule(kernel, schedule, assumption), (case, problems)
            accepted[case] = not problems
            listed.append(f"{case}: {problems}\n")
        assert time.perf_counter() - t0 < 5.0
        assert len(accepted) == 288 and sum(accepted.values()) == 140
        digest = hashlib.sha256("".join(listed).encode()).hexdigest()
        assert digest == MATRIX_PROBLEMS_SHA256
        for (kernel, rate, schedule, assumption, D, r), ok in accepted.items():
            # D changes F on [0, D] only, and r >= 0 only raises f
            assert ok == accepted[kernel, rate, schedule, assumption, 1 - D, r]
            if r == "exp":
                assert not ok or accepted[kernel, rate, schedule, assumption, D, "zero"]
        # exponent 4.5 passes assumption A under a log schedule, as
        # t^2 f ~ ln(t) t^-1.5 is integrable
        assert accepted["powerlaw-4.5", "refractory_linear", "log-3", "A", 0, "zero"]

    @pytest.mark.parametrize("setup, overrides, problems", [
        ("AD", {"assumption": "A", "p": -1.5}, ["assumption A needs p > -1"]),
        ("AD", {"assumption": "A", "p": None}, ["assumption A needs the moment order p"]),
        ("AD", {"assumption": "C"}, ["unknown assumption 'C'"]),
        ("AD", {"assumption": "C", "kernel": PowerLawKernel(0.2, 5.0)},
         ["unknown assumption 'C'", "F lacks an exponential moment (assumption B)"]),
        ("O", {"assumption": "A", "rate": RateSpec.linear(0.5, 4.0)},
         ["L*||h_+|| = 1.2 >= 1: not subcritical for an ordinary Hawkes setup",
          "setup O assumption A needs c_h > 0"]),
        ("O", {"assumption": "A", "rate": RateSpec.linear(0.5, 0.0),
          "sched": GammaSchedule.log(C=3.0)}, ["setup O assumption A needs c_h > 0"]),
        ("O", {"assumption": "A", "sched": GammaSchedule.log(C=0.01)},
         ["gamma(t) must exceed (p+1)ln(t)/c_h (setup O)"]),
        ("AD", {"sched": GammaSchedule.linear(0.0)},
         ["gamma(t)/t not bounded below (assumption B)"]),
        ("AD", {"sched": GammaSchedule.linear(0.0), "assumption": "A"},
         ["gamma(t)/ln(t) not bounded below (setup AD)"]),
        ("O", {"sched": GammaSchedule.linear(0.0), "assumption": "A"},
         ["gamma(t) must exceed (p+1)ln(t)/c_h (setup O)"]),
        ("AD", {"r": lambda t: 0.1}, ["start bound r must be an ExpDecay c exp(-rate t)"]),
        ("AD", {"kernel": PositivePartKernel(ExponentialKernel(1.0, -0.2))},
         ["no integrability rule for a PositivePartKernel kernel"]),
        ("AD", {"kernel": PositivePartKernel(ExponentialKernel(1.0, -0.2)), "assumption": "A"},
         ["no integrability rule for a PositivePartKernel kernel"]),
    ], ids=["p-below-minus-one", "p-missing", "unknown-assumption", "unknown-assumption-powerlaw",
            "O-supercritical", "O-L-zero", "O-slow-log", "linear-C-zero-B",
            "linear-C-zero-A", "O-linear-C-zero-A", "r-not-ExpDecay", "no-kernel-rule",
            "no-kernel-rule-A"])
    def test_library_rows_keep_their_problems(self, setup, overrides, problems):
        # the rarer branches of the assumption rule, text and order, read
        # through RenewalConfig.validate without the CLI's parsing
        make = reference_o_config if setup == "O" else reference_ad_config
        assert make(**overrides).validate() == problems
