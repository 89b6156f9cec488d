"""Smoke test for the ``python -m repro.harness`` entry point."""

import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        capture_output=True, text=True, timeout=600)


def test_cli_prints_both_tables():
    completed = run_cli("0.02")
    assert completed.returncode == 0, completed.stderr[-500:]
    out = completed.stdout
    assert "4-user copy" in out
    assert "4-user remove" in out
    for scheme in ("Conventional", "Scheduler Flag", "Scheduler Chains",
                   "Soft Updates", "No Order"):
        # one row at line start in each of the two tables (the '% of No
        # Order' header also mentions No Order, hence the newline anchor)
        assert out.count(f"\n{scheme}") == 2


def test_cli_help_prints_the_docstring_and_exits_zero():
    for flag in ("-h", "--help"):
        completed = run_cli(flag)
        assert completed.returncode == 0, completed.stderr[-500:]
        for subcommand in ("trace", "faults", "[scale]"):
            assert subcommand in completed.stdout


def test_cli_unknown_word_is_a_usage_error_not_a_traceback():
    for word in ("bogus", "regress"):
        completed = run_cli(word)
        assert completed.returncode == 2
        assert completed.stdout == ""
        assert "Traceback" not in completed.stderr
        assert completed.stderr.startswith("usage:")
        assert len(completed.stderr.splitlines()) == 1
        for subcommand in ("trace", "faults", "[scale]"):
            assert subcommand in completed.stderr


def test_cli_non_positive_scale_is_a_usage_error():
    completed = run_cli("-1")
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert completed.stderr.startswith("usage:")
    assert "scale must be positive" in completed.stderr


@pytest.mark.parametrize("flag, value, named", [
    ("--users", "0", "--users must be at least 1"),
    ("--scale", "-0.5", "--scale must be positive"),
], ids=["no-users", "negative-scale"])
def test_trace_out_of_range_option_is_a_usage_error(flag, value, named,
                                                    tmp_path):
    """A cell that cannot run is refused before anything runs or is
    written."""
    completed = run_cli("trace", "copy", flag, value, "--out", str(tmp_path))
    assert completed.returncode == 2
    assert completed.stdout == ""
    assert named in completed.stderr
    assert "Traceback" not in completed.stderr
    assert not any(tmp_path.iterdir())
