"""Acceptance gate: every headline claim checked at its pinned tolerance.

Each criterion prints one line per check (visible with ``pytest -s`` or in
the failure message) and the test fails if any check in the criterion fails.
The same rows back ``qnd verify``.
"""

import pytest

from qndsim import verify
from qndsim.errors import InvalidParam


@pytest.mark.parametrize("name", list(verify.CRITERIA))
def test_criterion(name):
    rows = verify.CRITERIA[name]()
    assert rows, f"criterion {name} produced no checks"
    for row in rows:
        print(verify.format_row(row))
    failures = [verify.format_row(row) for row in rows if not row.passed]
    assert not failures, f"criterion {name} failed:\n" + "\n".join(failures)


def test_run_acceptance_filters_groups():
    rows = verify.run_acceptance(only="parity")
    assert rows and all(row.group == "parity" for row in rows)
    rows = verify.run_acceptance(only="parity-identities")
    assert rows and all(row.criterion == "parity-identities" for row in rows)


def test_run_acceptance_rejects_unknown_group():
    with pytest.raises(InvalidParam):
        verify.run_acceptance(only="nonsense")
