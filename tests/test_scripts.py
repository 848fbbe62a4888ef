"""Smoke runs of the scripts in ``scripts/``, which import the package API
directly: a renamed function or keyword fails them here, not on a user's
long run.  Each runs from the repository root, as its usage line says."""

import csv
import subprocess
import sys
from pathlib import Path

from tests.conftest import ALL_FAMILIES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )


def test_cost_experiment_verifies_every_family(tmp_path):
    out = tmp_path / "costs.csv"
    r = run_script("cost_experiment.py", "--trials", "2000", "--out", str(out))
    assert r.returncode == 0, r.stderr
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(row["family"] for row in rows) == ALL_FAMILIES
    assert all(row["trials"] == "2000" for row in rows)
    assert [row["infeasible"] for row in rows] == ["0"] * len(ALL_FAMILIES)


def test_cost_experiment_refuses_a_negative_seed():
    """A negative seed stops the script with a ``ConfigError`` before any
    work, not with numpy's ``ValueError``."""
    for flag in ("--seed", "--gen-seed"):
        r = run_script("cost_experiment.py", flag, "-1", "--trials", "10")
        assert r.returncode != 0
        assert "ConfigError" in r.stderr and "ValueError" not in r.stderr


def test_reproduce_tables_runs():
    r = run_script("reproduce_tables.py", "--trials", "2000")
    assert r.returncode == 0, r.stderr
    for section in ("parameter optimization", "correlation rows", "even-at-last table"):
        assert f"== {section}" in r.stdout
