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
    ("ad-blocks", 1, "1ae1052f4f187019e3317239ce8e77c1c6fd55ceda61209815c2e99acfd63459"),
    ("ad-blocks", 2, "a17addc379f50d8146b85bf4e504a537049b7b896851abb651cdf5e93c3021c7"),
    ("o-blocks", 1, "46f835f11b143e149f9457f77e54186d7b0d4879a5ba79be6debd3a18909cb7d"),
    ("o-blocks", 2, "5d40f8f27f757ef715a11c8f70c3b79013b7f1b85478cb68b20d6009233d4c7d"),
    ("clt-ensemble", 1, "e3bd2400b219cdf3828ffcefba17f49ee3a2a39d1c681d62f785bcc9421c5adb"),
], ids=["ad-blocks-1", "ad-blocks-2", "o-blocks-1", "o-blocks-2", "clt-ensemble-1"])
def test_solution_passes_its_checks_with_its_pinned_digest(name, seed, digest):
    sol = workloads.solve(workloads.WORKLOADS[name], seed)
    assert sol.checks.made > 0 and sol.checks.failed == 0, sol.checks.failures
    assert sol.digest == digest
