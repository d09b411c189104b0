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
    ("ad-blocks", 1, "741be96b0971563171afc43f975597eebb20f6a90804da577bc8d0c57916a09a"),
    ("ad-blocks", 2, "c9fcc309121cafbe186bcd208f98dea7ee227a3af28c9caccd6ed4737e85dd69"),
    ("o-blocks", 1, "bbda03b8c26198fea2d80c75fa91d75d27a97b8c2d8f5b9f7e17ee24435cc96d"),
    ("o-blocks", 2, "eac0c456e46664418fe9bf9a29d4b6951709b40d7d68188340a43a40971a307d"),
    ("clt-ensemble", 1, "874dcfcc6d44c7f55729f2116053045f2b1e7e20e9a7947aabc9f41df890b3e4"),
], ids=["ad-blocks-1", "ad-blocks-2", "o-blocks-1", "o-blocks-2", "clt-ensemble-1"])
def test_solution_passes_its_checks_with_its_pinned_digest(name, seed, digest):
    sol = workloads.solve(workloads.WORKLOADS[name], seed)
    assert sol.checks.made > 0 and sol.checks.failed == 0, sol.checks.failures
    assert sol.digest == digest
