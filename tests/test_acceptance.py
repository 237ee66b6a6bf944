"""Acceptance gate: every headline claim checked at its pinned tolerance.

Each criterion prints one line per check (visible with ``pytest -s`` or in
the failure message) and the test fails if any check in the criterion fails.
The same rows back ``qnd verify``.
"""

import pytest

from qndsim import verify
from qndsim.errors import InvalidParam


def function_id(name):
    """Test id from the criterion's function: criterion_fringe_modulation -> fringe-modulation."""
    return verify.CRITERIA[name].__name__.removeprefix("criterion_").replace("_", "-")


@pytest.mark.parametrize("name", list(verify.CRITERIA), ids=function_id)
def test_criterion(name):
    rows = verify.CRITERIA[name]()
    assert rows, f"criterion {name} produced no checks"
    for row in rows:
        print(verify.format_row(row))
    failures = [verify.format_row(row) for row in rows if not row.passed]
    assert not failures, f"criterion {name} failed:\n" + "\n".join(failures)


def test_run_acceptance_filters_groups():
    assert len(verify.CRITERIA) == 12
    rows = verify.run_acceptance(only="parity")
    assert rows and all(row.criterion == "parity" for row in rows)
    with pytest.raises(InvalidParam):
        verify.run_acceptance(only="parity-identities")


def test_run_acceptance_rejects_unknown_group():
    with pytest.raises(InvalidParam):
        verify.run_acceptance(only="nonsense")
