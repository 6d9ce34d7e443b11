"""Benchmark for constella: one workload, timed end to end, answers checked.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 15 --trace 0

Each repetition runs in a fresh interpreter (child.py), one at a time, so
the program's census caches start cold as they do for a user.  Untraced
runs repeat the workload until --seconds of work is measured and report
medians; a traced run alternates an untraced and a traced repetition and
reports per-layer metrics and the tracing overhead.  Readable lines come
first; the last line of stdout is one JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("battery", "census", "tower", "mutants")
SETUP_SAMPLES = 9      # setup-only interpreters started before the timed ones
DEADLINE_S = 165       # no repetition starts if it could end after this

END_TO_END = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-item latency is printed by untraced runs and reported as a per-layer
# metric by traced runs, but not gated: its run-to-run spread here exceeds
# the largest bound the benchmark may set.
ITEM_LATENCY = {"item.p50_ms": "item_p50_ms", "item.p99_ms": "item_p99_ms"}


class ChildFailed(Exception):
    pass


def child(workload, seed, mode, timeout, spans=None):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("CONSTELLA_CAP", None)
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    spawned = time.monotonic()
    argv.append(repr(spawned))
    if spans is not None:
        argv.append(str(spans))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} repetition exceeded {timeout:.0f} s")
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise ChildFailed(f"{mode} repetition exited {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def meta():
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "constella").glob("*.py")))
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "PYTHONHASHSEED": "0",
        "src_lines": src_lines,
    }


def run(workload, seed, seconds, trace):
    """Returns (metrics, informational metrics, reps, problems); metrics
    map a name to (value, unit)."""
    start = time.monotonic()
    reps, setups, problems = [], [], []

    def left():
        return DEADLINE_S - (time.monotonic() - start)

    if trace:
        spans = OUT / f"spans-{workload}-{seed}.jsonl"
        pairs = []
        while not pairs or (sum(u["wall_s"] + t["wall_s"] for u, t in pairs) < seconds
                            and left() > 2.5 * (pairs[-1][0]["wall_s"] + pairs[-1][1]["wall_s"])):
            plain = child(workload, seed, "run", left())
            traced = child(workload, seed, "trace", left(), spans)
            pairs.append((plain, traced))
        reps = [r for pair in pairs for r in pair]
        if any(u["digest"] != t["digest"] for u, t in pairs):
            problems.append("traced and untraced verdict digests differ")
        metrics = _layer_metrics(pairs)
        metrics.update(_item_latency([u for u, _ in pairs]))
        return metrics, {}, reps, problems

    for _ in range(SETUP_SAMPLES):
        setups.append(child(workload, seed, "setup", left())["setup_s"])
    measured = 0.0
    while not reps or (measured < seconds and left() > 1.5 * reps[-1]["wall_s"]):
        reps.append(child(workload, seed, "run", left()))
        measured += reps[-1]["verdict_s"]
    setups += [r["setup_s"] for r in reps]
    metrics = {
        name: (statistics.median(r[name] for r in reps), unit)
        for name, unit in END_TO_END.items() if name != "setup_s"
    }
    metrics["setup_s"] = (statistics.median(setups), "s")
    return metrics, _item_latency(reps), reps, problems


def _item_latency(reps):
    return {name: (statistics.median(r[key] for r in reps), "ms")
            for name, key in ITEM_LATENCY.items()}


def _layer_metrics(pairs):
    traced = [t for _, t in pairs]
    untraced_s = statistics.median(u["verdict_s"] for u, _ in pairs)
    traced_s = statistics.median(t["verdict_s"] for t in traced)
    out = {
        name: (statistics.median(t["layers"][name][0] for t in traced), unit)
        for name, (_, unit) in traced[0]["layers"].items()
    }
    out["trace.verdict_s"] = (traced_s, "s")
    out["trace.untraced_verdict_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    for name in ("self_sum_s", "unattributed_s"):
        out[f"trace.{name}"] = (statistics.median(t[name] for t in traced), "s")
    out["trace.spans"] = (statistics.median(t["spans"] for t in traced), "count")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "constella" / "__init__.py").is_file():
        print(f"error: no constella sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta_block = meta()
    print("meta " + json.dumps(meta_block))
    try:
        metrics, info_metrics, reps, problems = run(
            args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if len({r["digest"] for r in reps}) > 1:
        problems.append("repetitions of one seed gave different verdicts")
    for r in reps:
        problems += r["failures"]
    correct = failed == 0 and not problems

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  items/repetition {reps[0]['items']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    for name, (value, unit) in info_metrics.items():
        print(f"  {name:<42} {value:.6g} {unit} (not gated)")
    print(f"  {'error_rate':<42} {failed / attempted:.6g} (= {failed} / {attempted})")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, meta=meta_block, repetitions=reps), indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
