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
    ("ad-blocks", 1, "2f056efe8cc5c537085f96eea6145ee75de5add581177cc095762e209bb26bf1"),
    ("ad-blocks", 2, "49ccae0ea1685e8e723979cc8731af8a3130bd87598716c7eab7eaa3b4f9c2b4"),
    ("o-blocks", 1, "5a173357a25ac8c9c0b2e0578771d49fd7cfbaad2e7a8a246de43bfac9b74fdc"),
    ("o-blocks", 2, "3713adaf17ad205bdfeb5558b806b805c4830c0d8f183597be7d33097681d66b"),
    ("clt-ensemble", 1, "eaf1a8575b304f5a5375ec7111f4b662e44b27f15cd3bed0f890d67ad3418d8f"),
], ids=["ad-blocks-1", "ad-blocks-2", "o-blocks-1", "o-blocks-2", "clt-ensemble-1"])
def test_solution_passes_its_checks_with_its_pinned_digest(name, seed, digest):
    sol = workloads.solve(workloads.WORKLOADS[name], seed)
    assert sol.checks.made > 0 and sol.checks.failed == 0, sol.checks.failures
    assert sol.digest == digest
