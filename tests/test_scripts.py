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
import pairs  # noqa: E402


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


def _record(verdict, rss, failed=0):
    return {"failed": failed, "metrics": {
        "verdict_s": {"value": verdict, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_pairs_alternate_the_trees_on_one_seed_per_pair():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return _record(len(calls), 0.0)

    records = pairs.run_pairs(run, 4, 2801)
    assert calls == [("parent", 2801), ("change", 2801),
                     ("change", 2802), ("parent", 2802),
                     ("parent", 2803), ("change", 2803),
                     ("change", 2804), ("parent", 2804)]
    # each pair holds the parent's record first, whichever ran first
    assert [(p["metrics"]["verdict_s"]["value"],
             c["metrics"]["verdict_s"]["value"]) for p, c in records] == \
        [(1, 2), (4, 3), (5, 6), (8, 7)]


def test_pairs_judge_a_claim_by_wins_and_the_parents_spread():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    faster = [0.80] * 9 + [1.10]  # better in 9 of 10 pairs
    records = [(_record(p, 20.0), _record(c, 20.1, failed=i == 3))
               for i, (p, c) in enumerate(zip(parent, faster))]
    metrics = [("verdict_s", "lower"), ("peak_rss_mb", "lower")]
    (name, mp, mc, spread, wins, n, holds), rss = \
        pairs.summary(records, metrics)
    assert (name, mp, mc, wins, n, holds) == \
        ("verdict_s", 1.0, 0.8, 9, 10, True)
    assert abs(spread - (1.0175 - 0.9825)) < 1e-12  # inclusive quartiles
    assert rss[1:3] == (20.0, 20.1) and rss[4:] == (0, 10, False)
    assert pairs.failed(records) == (0, 1)
    # a gap inside the parent's quartile distance is no gain, and neither
    # are 8 wins of 10
    close = [(_record(p, 0), _record(p - 0.01, 0)) for p in parent]
    assert pairs.summary(close, metrics[:1])[0][4:] == (10, 10, False)
    eight = records[:8] + [(_record(1.0, 0), _record(1.2, 0))] * 2
    assert pairs.summary(eight, metrics[:1])[0][4:] == (8, 10, False)
    assert pairs.quartile_distance([5.0]) == 0.0
    # a metric where higher is better wins where the change is higher
    assert pairs.summary(records, [("verdict_s", "higher")])[0][4] == 1
