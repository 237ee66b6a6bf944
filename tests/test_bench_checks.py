"""The benchmark's output checks, run on the library in the test suite.

``bench/workloads.py`` checks every op it times against an independent
numpy oracle and the paper's closed forms.  Running its self-test and one
whole cycle of each workload here keeps those checks, and every public
signature and output the benchmark relies on, in force on every
change to the program, not only when the benchmark is run.
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


def run_cycle(workload):
    for index in range(len(workload.cycle)):
        label, run, check = workload.op(index)
        assert check(run()) == [], label


def test_bright_kernel_cycle_passes_its_checks(workloads):
    run_cycle(workloads.BrightKernel(seed=1))


def test_dim_tables_cycle_passes_its_checks(workloads):
    run_cycle(workloads.DimTables(seed=1))


def test_trajectories_cycle_passes_its_checks(workloads):
    run_cycle(workloads.Trajectories(seed=1))
