"""The maintenance scripts under scripts/, run as a user runs them."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_freeze_census_prints_the_frozen_counts():
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "freeze_census.py"),
         "--max-size", "3", "--skip-naive"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0 and proc.stderr == ""
    lines = re.sub(r"  \[\d+\.\d+s\]$", "", proc.stdout, flags=re.M)
    assert lines.splitlines() == [
        f"size {n}: lrs={count} lic={count} lrs_classes={classes}"
        f" lic_classes={classes} lrs_orbit_sum={count} lic_orbit_sum={count}"
        for n, count, classes in ((1, 1, 1), (2, 9, 5), (3, 130, 25))]
