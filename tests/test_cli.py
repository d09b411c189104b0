import math
import os

from hawkes_renewal import RenewalConfig, renewal
from hawkes_renewal.cli import load_config, main


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

    def test_broken_band_fails_tau_law(self, tmp_path, capsys, monkeypatch):
        # halve the band width of the mechanism; fork workers inherit it
        width = renewal._Engine.width
        monkeypatch.setattr(renewal._Engine, "width",
                            lambda eng, s: 0.5 * width(eng, s))
        text = BASE_CONFIG + (
            "\n[verify]\nrenewal.n_cycles = 1200\nrenewal.n_blocks = 300\n")
        cfg = write(tmp_path, text)
        assert main(["verify", "--config", cfg, "--only", "renewal"]) == 1
        err = capsys.readouterr().err
        assert "tau-infinite-frequency" in err
