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
    workload = workloads.WORKLOADS[name](seed=0)
    workload.warm_up()
    # The timed rounds run inside the workload's tap, whose wrappers call
    # hsbmlab with the arguments the benchmark expects.
    with workload.tapped():
        workload.warm_up()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_round_passes_its_checks(name):
    # The benchmark's own output checks, on its first timed round.
    workload = workloads.WORKLOADS[name](seed=0)
    with workload.tapped():
        ops = workload.run_round(0)
    assert ops
    assert [op.label for op in ops if op.failed] == []
    assert workload.check(ops) == []
