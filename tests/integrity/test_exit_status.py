"""The exit-status contract: a breach can never exit 0.

Regression guard for the CI green-washing hazard: every sweep output
(`ExplorationReport`, the explorer CLI, the fault harness CLI) must turn
any finding outside a scheme's declaration -- from post-crash fsck OR the
online monitor -- into a nonzero exit.  Text-only reporting of a breach
is a bug by contract.
"""

import pytest

from repro.integrity.explorer import main as explorer_main
from repro.integrity.findings import CrashFinding, ExplorationReport
from repro.integrity.invariants import Severity, Violation
from repro.integrity.monitor import OrderingViolation
from repro.harness.faults import main as faults_main
from repro.ordering.guarantees import SAFE_DEFAULT


def make_report(findings=(), monitor_violations=()):
    return ExplorationReport(
        scheme="test", workload="w", seed=0, guarantees=SAFE_DEFAULT,
        findings=list(findings), monitor_violations=tuple(monitor_violations))


def finding(unexpected=False):
    violation = Violation(key="dangling-entry", severity=Severity.CORRUPTION,
                          message="entry points to unallocated inode")
    return CrashFinding(index=0, crash_time=1.0, label="w0.complete",
                        errors=1, warnings=0, violations=(violation,),
                        unexpected=(violation,) if unexpected else ())


def ordering_violation(expected):
    return OrderingViolation(rule="reuse-before-nullify", message="m",
                             when=1.0, lbn=64, nsectors=2, expected=expected)


class TestReportContract:
    def test_clean_report_exits_zero(self):
        assert make_report().exit_status == 0

    def test_expected_findings_exit_zero(self):
        # noorder's declared corruption: reported, not failed
        report = make_report(findings=[finding(unexpected=False)])
        assert report.clean
        assert report.exit_status == 0

    def test_unexpected_crash_finding_exits_nonzero(self):
        report = make_report(findings=[finding(unexpected=True)])
        assert not report.clean
        assert report.exit_status == 1

    def test_unexpected_monitor_violation_alone_exits_nonzero(self):
        # fsck sampled past the breach window; the monitor still fails it
        report = make_report(
            monitor_violations=[ordering_violation(expected=False)])
        assert report.clean  # no crash-point finding ...
        assert report.monitor_unexpected  # ... but the monitor saw it
        assert report.exit_status == 1

    def test_expected_monitor_violations_exit_zero(self):
        report = make_report(
            monitor_violations=[ordering_violation(expected=True)])
        assert report.exit_status == 0


class TestExplorerCli:
    def test_mutation_breach_exits_nonzero(self, capsys):
        code = explorer_main(["--scheme", "shim-rule3", "--workload",
                              "remove", "--jobs", "1", "--max-points", "8",
                              "--monitor"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out or "UNEXPECTED" in out

    def test_declared_violations_still_exit_zero(self, capsys):
        code = explorer_main(["--scheme", "noorder", "--jobs", "1",
                              "--max-points", "8", "--monitor"])
        assert code == 0

    @pytest.mark.parametrize("flag", ["--max-points", "--samples-per-write"])
    def test_negative_budget_is_a_usage_error(self, flag, capsys):
        # refused at the parser: random.sample would raise on it, and a
        # traceback exits 1 -- the status that means "declaration broken"
        with pytest.raises(SystemExit) as usage:
            explorer_main(["--scheme", "softupdates", flag, "-1"])
        assert usage.value.code == 2
        assert f"{flag} must not be negative" in capsys.readouterr().err


class TestFaultsCli:
    def test_monitor_breach_exits_nonzero(self, tmp_path, capsys):
        code = faults_main(["--schemes", "shim-rule3", "--profiles", "none",
                            "--seeds", "1", "--ops", "20", "--monitor",
                            "--out", str(tmp_path / "report.txt")])
        captured = capsys.readouterr()
        assert code == 1
        assert "ONLINE ORDERING BREACH" in captured.err

    @pytest.mark.parametrize("flag, value, named", [
        ("--seeds", "x", "seed 'x' is not an integer"),
        ("--seeds", "1,1", "seed 1 is given twice"),
        ("--schemes", "flag,flag", "scheme 'flag' is given twice"),
        ("--profiles", "none,none", "profile 'none' is given twice"),
    ], ids=["malformed-seed", "repeated-seed", "repeated-scheme",
            "repeated-profile"])
    def test_bad_list_value_is_a_usage_error(self, flag, value, named,
                                             tmp_path, capsys):
        # a traceback would exit 1 -- the status that means silent
        # corruption
        with pytest.raises(SystemExit) as usage:
            faults_main([flag, value, "--out", str(tmp_path / "r.txt")])
        assert usage.value.code == 2
        assert named in capsys.readouterr().err

    def test_safe_scheme_exits_zero(self, tmp_path):
        code = faults_main(["--schemes", "conventional", "--profiles",
                            "transient", "--seeds", "1", "--ops", "20",
                            "--monitor",
                            "--out", str(tmp_path / "report.txt")])
        assert code == 0
