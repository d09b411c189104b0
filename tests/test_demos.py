"""The demos run end to end against the current package."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_simulate_hawkes", "02_regeneration_times",
                                  "03_coupling", "04_cluster_borel", "05_re_chain",
                                  "06_clt_blocks"])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
