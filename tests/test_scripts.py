"""The maintenance scripts under scripts/, run as a user runs them, the
encoding of the package sources, and the names the benchmark's tracer
wraps."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bench import measured_tree  # noqa: E402


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


def test_bench_records_the_tree_it_measures(tmp_path, monkeypatch):
    # git must not find a checkout above tmp_path
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
             *args], cwd=tmp_path, capture_output=True, text=True,
            check=True).stdout.strip()

    assert measured_tree(tmp_path) is None  # not a checkout
    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "HEAD")
    assert measured_tree(tmp_path) == {"commit": head, "dirty": False}
    (tmp_path / "a.txt").write_text("two\n")
    assert measured_tree(tmp_path) == {"commit": head, "dirty": True}
    git("commit", "-q", "-am", "two")
    assert measured_tree(tmp_path) == {"commit": git("rev-parse", "HEAD"),
                                       "dirty": False}


def test_the_package_sources_are_ascii():
    sources = sorted((ROOT / "src" / "constella").glob("*.py"))
    assert sources
    for path in sources:
        path.read_bytes().decode("ascii")


def test_every_name_the_tracer_wraps_is_a_package_callable():
    # perfbench/tracer.py looks up each (module, name) of SPANNED and
    # COUNTED in constella.<module> when a traced run installs it; the
    # tables are read from the file, which is not imported
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in tree.body if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANNED", "COUNTED")}
    assert sorted(tables) == ["COUNTED", "SPANNED"]
    for table in tables.values():
        for module, names in table.items():
            home = importlib.import_module(f"constella.{module}")
            for name in names:
                assert callable(getattr(home, name, None)), (module, name)
