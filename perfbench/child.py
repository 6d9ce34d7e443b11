"""One fresh interpreter running one workload once.

Usage: child.py WORKLOAD SEED MODE SPAWNED_AT [SPANS_FILE]

MODE is ``setup`` (set up and stop), ``run`` (untraced verdicts) or
``trace`` (verdicts with the tracer installed).  SPAWNED_AT is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, ``import constella`` and input generation.  The
result is one JSON line on stdout.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402  (harness module, no program import)


def load_data():
    return json.loads((HERE / "data" / "seed_commit.json").read_text())


def percentile(values, q):
    """Linear interpolation between closest ranks; one value is its own p99."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv):
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    import workloads  # imports constella

    data = load_data()
    w = workloads.WORKLOADS[workload]
    inputs = w.setup(seed, data)
    result = {"setup_s": time.monotonic() - spawned_at}
    if mode == "setup":
        return result

    leftover = tracer.installed_wrappers()
    tr = tracer.Tracer(run_id=f"{workload}-{seed}") if mode == "trace" else None
    clock = workloads.Clock(tr)
    if tr is not None:
        tr.install()
    failures = []
    out = None
    t0 = time.perf_counter()
    try:
        out = w.verdicts(inputs, clock)
    except Exception:  # the run must still report, as a failed verdict
        failures.append("exception: " + traceback.format_exc().splitlines()[-1])
        traceback.print_exc()
    verdict_s = time.perf_counter() - t0
    if tr is not None:
        tr.uninstall()
    leftover += tracer.installed_wrappers()

    if out is not None:
        outcome = w.check(out, data["expected"][workload], inputs)
        attempted, digest = outcome.attempted, outcome.digest
        failures += outcome.failures
    else:
        attempted, digest = 1, None
    failures += [f"wrapper left installed: {m}.{a}" for m, a in leftover]
    lat = clock.latencies or [verdict_s]
    result.update({
        "verdict_s": verdict_s,
        "items": len(lat),
        "item_p50_ms": percentile(lat, 0.50) * 1e3,
        "item_p99_ms": percentile(lat, 0.99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest,
    })
    if tr is not None:
        covered = sum(end - start for _, _, start, end, parent, _, _ in tr.spans
                      if parent is None)
        result["layers"] = tr.layer_metrics()
        result["self_sum_s"] = tr.self_sum()
        result["unattributed_s"] = verdict_s - covered
        result["spans"] = len(tr.spans)
        if len(argv) > 4:
            with open(argv[4], "w") as fh:
                for span in tr.spans:
                    fh.write(json.dumps(span) + "\n")
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
