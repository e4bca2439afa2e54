"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from critcolor.critical import load_critdb
from critcolor.enumeration import verify_critdb

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_build_critdb_writes_a_verified_database(tmp_path):
    out = tmp_path / "odd.critdb"
    done = run_script("build_critdb.py", "--k", "3", "--n", "6", "--out", str(out))
    assert done.returncode == 0, done.stderr
    db = load_critdb(str(out))
    assert db.k == 3 and len(db.members) == 2  # C3 and C5
    assert verify_critdb(db)


def test_chi_bound_survey_runs():
    done = run_script("chi_bound_survey.py", "--ell", "1", "--clique", "3", "--n", "6")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("family: (P4+P1, K3)-free, n <= 6")


@pytest.mark.parametrize(
    "name,args,needle",
    [
        ("build_critdb.py", ["--k", "4", "--n", "11"], "enumeration limited to 1 <= n <= 10"),
        ("build_critdb.py", ["--k", "0", "--n", "5"], "k must be at least 1"),
        ("build_critdb.py", ["--k", "3", "--n", "5", "--free", "Q7"], "cannot parse pattern"),
        ("chi_bound_survey.py", ["--n", "11"], "enumeration limited to 1 <= n <= 10"),
        ("chi_bound_survey.py", ["--clique", "0"], "clique needs at least one vertex"),
        ("chi_bound_survey.py", ["--ell", "-1"], "ell must be nonnegative, got -1"),
        ("chi_bound_survey.py", ["--ell", "-3", "--clique", "4"], "ell must be nonnegative, got -3"),
    ],
)
def test_scripts_report_bad_arguments_without_a_traceback(name, args, needle):
    done = run_script(name, *args)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and needle in done.stderr
    assert "Traceback" not in done.stderr


def test_build_critdb_reports_an_unwritable_output(tmp_path):
    out = tmp_path / "missing" / "odd.critdb"
    done = run_script("build_critdb.py", "--k", "3", "--n", "5", "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
