"""The four benchmark workloads: inputs, timed verdicts, known-answer gates.

Every call into the program goes through a module attribute looked up at
call time (``functor.build_C(...)``), so the tracer's rebinding reaches the
calls made from here as well as those made inside the program.
"""

import contextlib
import hashlib
import io as _stdio
import json
import random
from time import perf_counter

from constella import (
    classify,
    cli,
    enumerate as enum,
    fixtures,
    functor,
    io,
    szendrei,
)

import mutants


class Clock:
    """Times each item of a verdict loop; the tracer learns the item id."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []

    def items(self, seq):
        for i, x in enumerate(seq):
            if self.tracer is not None:
                self.tracer.request = i
            t0 = perf_counter()
            yield x
            self.latencies.append(perf_counter() - t0)


class Outcome:
    """Result of the known-answer gate for one run of a workload."""

    def __init__(self, attempted, failures, digest):
        self.attempted = attempted
        self.failures = failures
        self.digest = digest


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _gate(checks):
    """checks: list of (label, ok).  Returns (attempted, failure labels)."""
    return len(checks), [label for label, ok in checks if not ok]


# --- battery -------------------------------------------------------------

class Battery:
    """The user's headline command: ``constella theorems --size 3``."""

    name = "battery"

    def setup(self, seed, data):
        return None

    def verdicts(self, inputs, clock):
        buf = _stdio.StringIO()
        for _ in clock.items([None]):
            with contextlib.redirect_stdout(buf):
                code = cli.main(["theorems", "--size", "3"])
        return {"code": code, "lines": buf.getvalue().splitlines()}

    def check(self, out, expected, inputs):
        want = expected["lines"]
        got = out["lines"]
        checks = [
            (f"line {i + 1}: {want[i]!r}", i < len(got) and got[i] == want[i])
            for i in range(len(want))
        ]
        checks.append(("exit code 0", out["code"] == 0))
        checks.append(("no extra output", len(got) == len(want)))
        return Outcome(*_gate(checks), _digest(out))


# --- census --------------------------------------------------------------

SHARED_FLAGS = ("nd", "lc", "unitary", "is_category", "is_semigroup")


class Census:
    """Table search at n <= 4 and a convert/validate/classify sweep at n = 4."""

    name = "census"

    def setup(self, seed, data):
        # The seed permutes the order of the size-4 sweep.
        n = data["expected"]["census"]["lrs"][3]
        return {"order": random.Random(seed).sample(range(n), n)}

    def verdicts(self, inputs, clock):
        lrs = {n: list(enum.enumerate_lr_semigroupoids(n)) for n in range(1, 5)}
        lic = {n: list(enum.enumerate_li_constellations(n)) for n in range(1, 4)}
        big = lrs[4]
        order = inputs["order"] if len(big) == len(inputs["order"]) else range(len(big))
        sweep = []
        for i in clock.items(order):
            s = big[i]
            c = functor.build_C(s)
            g = functor.build_G(c)
            fs = classify.classify_semigroupoid(s).flags()
            fc = classify.classify_constellation(c).flags()
            sweep.append((
                i,
                s.validate().valid,
                c.validate().valid,
                g == s,
                functor.roundtrip_check(s).equal,
                [fs[k] for k in classify.ClassificationReport.FIELDS],
                [fc[k] for k in classify.ClassificationReport.FIELDS],
            ))
        bijection = [
            {functor.build_C(s) for s in lrs[n]} == set(lic[n]) for n in range(1, 4)
        ]
        classes = [len(enum.dedupe_up_to_iso(lrs[3])), len(enum.dedupe_up_to_iso(lic[3]))]
        sweep.sort()
        return {
            "lrs": [len(lrs[n]) for n in range(1, 5)],
            "lic": [len(lic[n]) for n in range(1, 4)],
            "sweep": sweep,
            "bijection": bijection,
            "classes": classes,
        }

    def check(self, out, expected, inputs):
        shared = [classify.ClassificationReport.FIELDS.index(k) for k in SHARED_FLAGS]
        checks = [
            (f"lrs count n={n}", got == want)
            for n, got, want in zip((1, 2, 3, 4), out["lrs"], expected["lrs"])
        ]
        checks += [
            (f"lic count n={n}", got == want)
            for n, got, want in zip((1, 2, 3), out["lic"], expected["lic"])
        ]
        for i, vs, vc, back, rt, fs, fc in out["sweep"]:
            checks.append((
                f"size-4 structure {i}",
                vs and vc and back and rt and all(fs[k] == fc[k] for k in shared),
            ))
        checks.append(("size-4 sweep complete", len(out["sweep"]) == expected["lrs"][3]))
        checks.append((
            "classification digest",
            _digest([row[5:] for row in out["sweep"]]) == expected["flags_digest"],
        ))
        checks += [(f"C bijection n={n + 1}", ok) for n, ok in enumerate(out["bijection"])]
        checks.append(("25 iso classes at n=3 on both sides",
                       out["classes"] == expected["classes"]))
        return Outcome(*_gate(checks), _digest(out))


# --- tower ---------------------------------------------------------------

class Tower:
    """Iterated Szendrei expansions: the accept path on large valid carriers."""

    name = "tower"

    def setup(self, seed, data):
        fx = fixtures.all_fixtures()
        bases = [
            (name, functor.build_C(fx[name]), levels)
            for name, levels in (("ex6_6", 4), ("ex6_7", 4))
        ]
        bases += [(b["name"], io.parse_structure(b["text"]), b["levels"])
                  for b in data["tower_bases"]]
        # The seed orders the towers.  It does not pick relabelled census
        # members: their level costs differ by labelling, which moved the
        # median level latency by half from seed to seed.
        random.Random(seed).shuffle(bases)
        return bases

    def verdicts(self, inputs, clock):
        plan = [(name, base, k) for name, base, levels in inputs
                for k in range(1, levels + 1)]
        rows = []
        current = {}
        for name, base, k in clock.items(plan):
            t = current.get(name, base)
            sz = szendrei.expand_constellation(t)
            g = functor.build_G(sz)
            coherent = functor.build_C(
                szendrei.expand_semigroupoid(functor.build_G(t))) == sz
            flags = classify.classify_constellation(sz).flags()
            rows.append({
                "name": name,
                "k": k,
                "sizes": [len(sz.carrier), len(sz.order), len(sz.table.comp)],
                "valid": sz.validate().valid,
                "g_valid": g.validate().valid,
                "roundtrip": functor.roundtrip_check(sz).equal,
                "coherent": coherent,
                "flags": [flags[f] for f in classify.ClassificationReport.FIELDS],
            })
            current[name] = sz
        return rows

    def check(self, out, expected, inputs):
        want = {(r["name"], r["k"]): r for r in expected["levels"]}
        checks = []
        for r in out:
            label = f"Sz^{r['k']} of {r['name']}"
            exp = want.get((r["name"], r["k"]))
            checks.append((f"{label}: valid on both sides, round trip, coherence",
                           r["valid"] and r["g_valid"] and r["roundtrip"] and r["coherent"]))
            checks.append((f"{label}: sizes and classification",
                           exp is not None and exp["sizes"] == r["sizes"]
                           and exp["flags"] == r["flags"]))
        checks.append(("every level ran", len(out) == len(want)))
        return Outcome(*_gate(checks), _digest(out))


# --- mutants -------------------------------------------------------------

class Mutants:
    """Single-edit mutants through the ``constella verify`` path."""

    name = "mutants"

    def setup(self, seed, data):
        return mutants.mutant_items(data, seed)

    def verdicts(self, inputs, clock):
        results = []
        for text, _ in clock.items(inputs):
            try:
                s = io.parse_structure(text)
                report = s.validate()
                io.render_report(valid=report.valid, violations=report.violations)
                results.append(",".join(sorted(report.axioms())))
            except io.ParseError:
                results.append(mutants.PARSE_ERROR)
            except Exception as exc:  # an unexpected error is a wrong verdict
                results.append(f"!{type(exc).__name__}: {exc}")
        return results

    def check(self, out, expected, inputs):
        checks = []
        for i, ((_, want), got) in enumerate(zip(inputs, out)):
            if want is True:
                ok = got == ""
            elif want is False:
                ok = got != "" and not got.startswith("!")
            else:
                ok = got == want
            checks.append((f"mutant {i}", ok))
        checks.append(("every mutant has a verdict", len(out) == len(inputs)))
        small = out[:expected["small_items"]]
        checks.append(("exhaustive n<=3 axiom digest",
                       _digest(small) == expected["small_digest"]))
        return Outcome(*_gate(checks), _digest(out))


WORKLOADS = {w.name: w for w in (Battery(), Census(), Tower(), Mutants())}

