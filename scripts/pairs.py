#!/usr/bin/env python3
"""Alternating pairs of benchmark runs in a parent and a change checkout.

    python3 scripts/pairs.py PARENT_TREE CHANGE_TREE --workload tower \
        --pairs 10 --seconds 15 --seed 2801

Pair i runs ``perfbench/run.py --workload W --seed SEED+i-1 --seconds S
--trace 0`` in both checkouts, one at a time: the parent first in odd
pairs, the change first in even ones, so a drift of the machine falls on
both trees alike.  Each run's last stdout line is its JSON record.

For each end-to-end metric of the change tree's BENCHMARK.json this prints
the median over the pairs in both trees, the parent's quartile distance
(q3 - q1 of its runs) and the number of pairs in which the change is
better.  A claimed gain holds when the change is better in at least nine
of ten pairs and the gap between the medians exceeds the parent's
quartile distance.  The failed verdicts of every run are counted too.
A run that fails stops the script with exit 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def perfbench(tree, workload, seed, seconds):
    """The JSON record of one untraced perfbench run in the checkout tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(argv[1:])} in {tree} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_pairs(run, pairs, seed):
    """[(parent record, change record)] of pairs alternating pairs, where
    run(side, seed) runs one side, "parent" or "change", on one seed: in
    pair i the seed is seed + i - 1, and the parent runs first when i is
    odd."""
    records = []
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        got = {side: run(side, seed + i - 1) for side in order}
        records.append((got["parent"], got["change"]))
    return records


def quartile_distance(values):
    """q3 - q1 of values (the inclusive quartiles), 0 for a single value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(records, metrics):
    """For each (name, better) of metrics, in order: (name, parent median,
    change median, parent quartile distance, pairs the change wins, pairs,
    whether the claim rule holds)."""
    rows = []
    for name, better in metrics:
        parent = [p["metrics"][name]["value"] for p, _ in records]
        change = [c["metrics"][name]["value"] for _, c in records]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        mp, mc = statistics.median(parent), statistics.median(change)
        spread = quartile_distance(parent)
        holds = wins * 10 >= 9 * len(records) and sign * (mp - mc) > spread
        rows.append((name, mp, mc, spread, wins, len(records), holds))
    return rows


def failed(records):
    """(failed verdicts in the parent's runs, in the change's runs)."""
    return (sum(p["failed"] for p, _ in records),
            sum(c["failed"] for _, c in records))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--seed", type=int, default=1, help="seed of pair 1")
    args = p.parse_args(argv)

    trees = {"parent": args.parent, "change": args.change}
    bench = json.loads((Path(args.change) / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    def run(side, seed):
        record = perfbench(trees[side], args.workload, seed, args.seconds)
        print(f"{side} seed {seed}: " + ", ".join(
            f"{name} {record['metrics'][name]['value']:.4f}"
            for name, _ in metrics), file=sys.stderr)
        return record

    records = run_pairs(run, args.pairs, args.seed)
    print(f"{args.workload}: {args.pairs} pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, failed parent/change "
          "%d/%d" % failed(records))
    for name, mp, mc, spread, wins, n, holds in summary(records, metrics):
        print(f"  {name}: parent {mp:.4f} -> change {mc:.4f} "
              f"(parent quartile distance {spread:.4f}; change better in "
              f"{wins}/{n}; claim rule {'met' if holds else 'not met'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
