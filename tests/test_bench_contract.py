"""The benchmark under perfbench/ calls hsbmlab by module attribute and by
keyword.  The tests here run those calls, so that a change to a name or a
parameter the benchmark uses fails here and not only when it runs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402


def test_trace_points_are_callable():
    missing = [f"{module.__name__}.{attr}" for module, attr, *_ in run.trace_points()
               if not callable(getattr(module, attr, None))]
    assert missing == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_warm_up_runs(name):
    workloads.WORKLOADS[name](seed=0).warm_up()
