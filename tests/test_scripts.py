"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

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
