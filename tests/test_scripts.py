"""Smoke tests of `scripts/experimentN.py`.

Each script runs as its own process in an empty directory, on one small
sweep value and one seed, and must write `results/experimentN.csv` with
its sweep family's header.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from memsrs.bench import RELATIONAL_FIELDS, SPATIAL_FIELDS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, argv, fields", [
    (1, ["--sizes", "5"], RELATIONAL_FIELDS),
    (2, ["--nproj", "2"], RELATIONAL_FIELDS),
    (3, ["--query-sizes", "0.01"], SPATIAL_FIELDS),
    (4, ["--aspects", "1/4"], SPATIAL_FIELDS),
])
def test_experiment_script_writes_its_csv(tmp_path, n, argv, fields):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / f"experiment{n}.py"
    done = subprocess.run([sys.executable, str(script), *argv,
                           "--repeats", "1"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    csv = tmp_path / "results" / f"experiment{n}.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == ",".join(fields)
    assert len(lines) > 1
