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
    ("ad-blocks", 1, "6b4ceb386a2f84c3c0bc9969c6460ff230b087067a06dde380b3f717d6df5684"),
    ("ad-blocks", 2, "3ceda26c7ab0f6dcb0a42e5e276d7aff7e30439a73a56f79f65f797b90047b99"),
    ("o-blocks", 1, "bbda03b8c26198fea2d80c75fa91d75d27a97b8c2d8f5b9f7e17ee24435cc96d"),
    ("o-blocks", 2, "eac0c456e46664418fe9bf9a29d4b6951709b40d7d68188340a43a40971a307d"),
    ("clt-ensemble", 1, "e3bd2400b219cdf3828ffcefba17f49ee3a2a39d1c681d62f785bcc9421c5adb"),
], ids=["ad-blocks-1", "ad-blocks-2", "o-blocks-1", "o-blocks-2", "clt-ensemble-1"])
def test_solution_passes_its_checks_with_its_pinned_digest(name, seed, digest):
    sol = workloads.solve(workloads.WORKLOADS[name], seed)
    assert sol.checks.made > 0 and sol.checks.failed == 0, sol.checks.failures
    assert sol.digest == digest
