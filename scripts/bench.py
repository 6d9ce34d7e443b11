#!/usr/bin/env python3
"""Run the four perfbench workloads and write one BENCH file.

    python3 scripts/bench.py OUT.json --seed 1 --seconds 15

For each workload this runs perfbench/run.py twice, untraced (the end-to-end
metrics) and traced (the per-layer metrics), and keeps the last line of
each run's stdout, the JSON record.  The file holds:

- meta: perfbench's meta line of the first run (Python version, nproc, git
  commit, PYTHONHASHSEED, src/ line count);
- tree: the tree the runs measured, as its HEAD commit and whether git
  status lists changes to it (dirty), or null outside a git checkout;
- src_lines: the src/ line count;
- e2e and layers: per workload, each metric's value and unit;
- verdicts: per workload and run, attempted, failed and correct.

The runs go one at a time; a run that fails stops the script with exit 1.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("battery", "census", "tower", "mutants")


def perfbench(workload, seed, seconds, trace):
    """(meta, record) of one perfbench run."""
    argv = [sys.executable, str(RUN), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} exited {proc.returncode}")
    meta = json.loads(lines[0].removeprefix("meta "))
    return meta, json.loads(lines[-1])


def measured_tree(root=ROOT):
    """{"commit": HEAD, "dirty": git status --porcelain lists changes} of
    the checkout at root, or None when git cannot read one there."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, check=True).stdout
    try:
        commit = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain").strip())
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": commit, "dirty": dirty}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", help="the BENCH file to write")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    args = p.parse_args(argv)

    doc = {"meta": None, "tree": measured_tree(), "src_lines": None,
           "e2e": {}, "layers": {}, "verdicts": {}}
    for workload in WORKLOADS:
        for trace, part in ((0, "e2e"), (1, "layers")):
            meta, record = perfbench(workload, args.seed, args.seconds, trace)
            doc["meta"] = doc["meta"] or meta
            doc[part][workload] = record["metrics"]
            doc["verdicts"].setdefault(workload, {})[part] = {
                key: record[key] for key in ("attempted", "failed", "correct")}
            print(f"{workload} trace {trace}: {record['attempted']} verdicts, "
                  f"{record['failed']} failed", file=sys.stderr)
    doc["src_lines"] = doc["meta"]["src_lines"]
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
