"""The benchmark's solutions (perfbench/workloads.py, imported read-only) at
fixed seeds: every output check passes, and the solution digests are bit for
bit those pinned here.  A change that moves them must say why and pass the
exact-law gates again."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name, seed, digest", [
    ("ad-blocks", 1, "68c13a9762504e7383fe00bdfdbffc27b12eb664110aa17a690612bef1409d64"),
    ("ad-blocks", 2, "7493c50fee19e5f2eeea3b26a1907299f0b5bde778a46479ca7bac127d5c164d"),
    ("o-blocks", 1, "44e5951fff13e8d53ed956bfb49d195cba34bd84de671e6f7bab1215eb333026"),
    ("o-blocks", 2, "9e34dcd125f88a263783fe7eb8a5b34a2fa5ffb550d3950ca0607fb2622702ca"),
    ("clt-ensemble", 1, "5fdfc0bd548edc5c27a8b8028686d31ef5a7086878c479306e89be1c20c493ca"),
], ids=["ad-blocks-1", "ad-blocks-2", "o-blocks-1", "o-blocks-2", "clt-ensemble-1"])
def test_solution_passes_its_checks_with_its_pinned_digest(name, seed, digest):
    sol = workloads.solve(workloads.WORKLOADS[name], seed)
    assert sol.checks.made > 0 and sol.checks.failed == 0, sol.checks.failures
    assert sol.digest == digest
