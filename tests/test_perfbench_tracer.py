"""The benchmark's layer tracer (perfbench/spans.py) looks every callable it
wraps up by name in the module or class that owns it; this test fails when
one of them is renamed or changes kind, rather than a traced benchmark run."""

import os
import sys

import hawkes_renewal as hr
from hawkes_renewal import kernels, prm
from hawkes_renewal.verify import reference_ad_config

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from spans import SPANS, Tracer  # noqa: E402


def test_tracer_installs_runs_and_uninstalls():
    originals = [(owner, attr, owner.__dict__[attr])
                 for _, owners, attr in SPANS for owner in owners]
    originals.append((prm, "derive_key", prm.derive_key))
    assert isinstance(kernels.EnvelopeFns.__dict__["F_l1"], property)
    cfg = reference_ad_config(D=1.0)
    tracer = Tracer()
    tracer.install()
    try:
        blocks = hr.iterate_regenerations(cfg, 2, collect_diag={})
    finally:
        tracer.uninstall()
    assert len(blocks) == 2
    summary = tracer.summary(wall_s=1.0)
    assert summary["stats.iterate_regenerations.calls"][0] == 1
    assert summary["renewal.run_system.calls"][0] == 2
    assert summary["kernels.EnvelopeFns.F.calls"][0] > 0
    assert summary["renewal.candidates"][0] > 0 and summary["prm.cells"][0] > 0
    assert all(owner.__dict__[attr] is orig for owner, attr, orig in originals)
