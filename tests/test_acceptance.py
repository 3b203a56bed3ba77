"""End-to-end acceptance checks, one test per criterion.

Each criterion function returns a list of MetricReport rows; the test prints
a one-line summary and fails with the offending rows if any check missed its
tolerance. The same checks back the `harness run-acceptance` command.
"""

import pytest

from stretchkit.acceptance import CRITERIA


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, criterion):
    reports = criterion()
    assert reports, f"{name} produced no checks"
    failed = [r for r in reports if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"{status} {name} ({len(reports) - len(failed)}/{len(reports)} checks)")
    detail = "\n".join(", ".join(r.row()) for r in failed)
    assert not failed, f"{name}: {len(failed)} checks out of tolerance\n{detail}"


def test_report_to_a_missing_directory_fails_before_any_criterion(tmp_path, monkeypatch,
                                                                  capsys):
    """One stderr line and exit 1, with no criterion run and no file made."""
    from stretchkit import acceptance, harness_cli

    monkeypatch.setattr(acceptance, "CRITERIA", [("never", lambda: pytest.fail("ran"))])
    report = tmp_path / "missing" / "report.csv"
    assert harness_cli.main(["run-acceptance", "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"report directory {report.parent} does not exist"]
    assert not report.parent.exists()
