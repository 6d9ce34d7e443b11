"""Self-tests of the benchmark harness (not of the program).

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite: the traced/untraced comparison
starts fresh interpreters and takes as long as the mutants workload.  Every
traced benchmark run makes the same comparison on its own workload.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import constella  # noqa: E402

import mutants  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DATA = json.loads((HERE / "data" / "seed_commit.json").read_text())


def bindings():
    """Every function bound in a constella module, by (module, name)."""
    return {(m.__name__, attr): value
            for m in tracer._constella_modules()
            for attr, value in vars(m).items() if callable(value)}


class TracerInstallation(unittest.TestCase):
    def test_install_rebinds_every_importer_and_uninstall_restores(self):
        before = bindings()
        t = tracer.Tracer("selftest")
        t.install()
        try:
            wrapped = set(tracer.installed_wrappers())
            # build_C is defined in functor and imported by morphism,
            # theorems, cli and the package namespace.
            for module in ("constella.functor", "constella.morphism",
                           "constella.theorems", "constella.cli", "constella"):
                self.assertIn((module, "build_C"), wrapped)
            s = constella.fixtures.ex6_6()
            self.assertTrue(constella.functor.build_C(s).validate().valid)
            self.assertGreater(t.calls["functor.build_C"], 0)
            self.assertGreater(t.calls["constellation.check_locally_inductive"], 0)
        finally:
            t.uninstall()
        self.assertEqual(tracer.installed_wrappers(), [])
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_self_times_add_up_to_the_root_spans(self):
        t = tracer.Tracer("selftest")
        t.install()
        try:
            constella.theorems.check_roundtrip(2)
        finally:
            t.uninstall()
        roots = sum(end - start for _, _, start, end, parent, _, _ in t.spans
                    if parent is None)
        self.assertAlmostEqual(t.self_sum(), roots, places=6)
        ids = [span[0] for span in t.spans]
        self.assertEqual(len(ids), len(set(ids)))


class MutantInputs(unittest.TestCase):
    small = DATA["expected"]["mutants"]["small_items"]

    def test_same_seed_same_mutants(self):
        self.assertEqual(mutants.mutant_items(DATA, 7), mutants.mutant_items(DATA, 7))

    def test_other_seed_changes_only_the_sampled_part(self):
        a = mutants.mutant_items(DATA, 7)
        b = mutants.mutant_items(DATA, 8)
        self.assertEqual(len(a), len(b))
        self.assertEqual(a[:self.small], b[:self.small])
        self.assertNotEqual(a[self.small:], b[self.small:])

    def test_gate_reports_a_wrong_verdict(self):
        items = mutants.mutant_items(DATA, 7)
        w = workloads.WORKLOADS["mutants"]
        expected = DATA["expected"]["mutants"]
        right = [want if isinstance(want, str) else ("" if want else "x")
                 for _, want in items]
        # Fake verdicts that meet every per-item expectation: only the
        # recorded axiom digest of the exhaustive part tells them apart.
        self.assertEqual(w.check(right, expected, items).failures,
                         ["exhaustive n<=3 axiom digest"])
        flipped = list(right)
        flipped[0] = "" if flipped[0] else "c1"
        self.assertIn("mutant 0", w.check(flipped, expected, items).failures)


class TracedEqualsUntraced(unittest.TestCase):
    def test_digests(self):
        plain = run.child("mutants", 3, "run", 170)
        traced = run.child("mutants", 3, "trace", 170)
        self.assertEqual(plain["failures"], [])
        self.assertEqual(traced["failures"], [])
        self.assertEqual(plain["digest"], traced["digest"])


if __name__ == "__main__":
    unittest.main()
