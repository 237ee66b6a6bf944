"""The benchmark's output checks, run on the library in the test suite.

``bench/workloads.py`` checks every op it times against an independent
numpy oracle and the paper's closed forms.  Running its self-test and one
whole ``trajectories`` cycle here keeps those checks in force on every
change to the sampler, not only when the benchmark is run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


def test_oracle_self_test(workloads):
    assert workloads.self_test() == []


def test_trajectories_cycle_passes_its_checks(workloads):
    workload = workloads.Trajectories(seed=1)
    for index in range(len(workload.cycle)):
        label, run, check = workload.op(index)
        assert check(run()) == [], label
