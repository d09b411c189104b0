import hashlib
import math
import os
import pathlib
import time

import pytest

from hawkes_renewal import RenewalConfig, renewal
from hawkes_renewal.cli import load_config, main
from hawkes_renewal.verify import reference_ad_config, run_suites

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
        assert (tab.kernel.ts.tolist(), tab.kernel.vs.tolist()) == ([0.0, 1.0], [1.0, 0.0])
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
                              c.p, c.assumption, c.max_cycles, c.scan_cap)
        assert describe(cfg) == describe(default_cfg)


class TestConfigProblems:
    @pytest.mark.parametrize("command, text, problem", [
        ("simulate", "[run]\nn_blocks = ten", "run: n_blocks must be an integer, got 'ten'"),
        ("renewal", "[run]\nseed = x", "run: seed must be an integer, got 'x'"),
        ("clt", "[run]\nalpha = low", "run: alpha must be a number, got 'low'"),
        ("clt", "[run]\nalpha = 1%", "run: alpha must be a number, got '1%'"),
        ("renewal", "[run]\nmax_cycles = 1e6", "run: max_cycles must be an integer"),
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
         "verify: renewal.n_cycles must be a number, got 'many'"),
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
        ("clt", "[run]\nfclt_paths = 0", "run: fclt_paths must be >= 2, got 0"),
        ("clt", "[run]\nfclt_paths = 1", "run: fclt_paths must be >= 2, got 1"),
        ("clt", "[run]\nfclt_units = 0", "run: fclt_units must be >= 1, got 0"),
        ("coupling", "[run]\nn_runs = 0", "run: n_runs must be >= 2, got 0"),
        ("coupling", "[run]\nn_runs = 1", "run: n_runs must be >= 2, got 1"),
        ("re-chain", "[run]\nn_steps = 0", "run: n_steps must be >= 1, got 0"),
        ("renewal", "[run]\nmax_cycles = 0", "run: max_cycles must be >= 1, got 0"),
        ("renewal", "[run]\nscan_cap = 0", "run: scan_cap must be >= 1, got 0"),
        ("renewal", "[run]\nn_block = 3", "run: unknown key 'n_block'"),
        ("renewal", "[kernel]\nrat = 2.0", "kernel: unknown key 'rat'"),
        ("simulate", "[typo_section]\nx = 1", "unknown section [typo_section]"),
        ("simulate", "[DEFAULT]\nseed = 2", "unknown section [DEFAULT]"),
    ], ids=["n_blocks", "seed", "alpha", "alpha-percent", "max_cycles", "r_coef", "r_rate",
            "r_coef-negative", "r_rate-zero",
            "horizon-inf", "horizon-nan", "horizon-negative", "parallel",
            "verify-size", "verify-parameter", "verify-suite", "duplicate-section",
            "alpha-zero", "alpha-above-one", "alpha-nan", "verify-alpha-one",
            "verify-alpha-negative", "n_blocks-zero", "fclt_paths-zero", "fclt_paths-one",
            "fclt_units-zero", "n_runs-zero", "n_runs-one", "n_steps-zero",
            "max_cycles-zero", "scan_cap-zero", "unknown-run-key", "unknown-kernel-key",
            "unknown-section", "default-section"])
    def test_named_problem_exits_2(self, tmp_path, capsys, command, text, problem):
        cfg = write(tmp_path, text + "\n")
        assert main([command, "--config", cfg]) == 2
        assert f"config error: {problem}" in capsys.readouterr().err

    def test_verify_sizes_are_read_as_their_keyword_types(self, tmp_path):
        text = "[verify]\nprm-split.alpha = 0.05\nrenewal.n_cycles = 1e3\n"
        _, settings = load_config(write(tmp_path, text))
        assert settings["verify_sizes"] == {"prm-split": {"alpha": 0.05},
                                            "renewal": {"n_cycles": 1000}}

    def test_seed_flag_skips_the_file_seed(self, tmp_path):
        _, settings = load_config(write(tmp_path, "[run]\nseed = x\n"), seed_override=4)
        assert settings["seed"] == 4


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
                 "prm-split": {"horizon": 200}, "borel": {"n_clusters": 200},
                 "re-chain": {"n_steps": 2000, "n_kac": 200}}
        sizes = fixed | {"renewal": {"n_cycles": 30, "n_blocks": 10}}
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
