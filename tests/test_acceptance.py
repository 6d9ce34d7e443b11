"""Acceptance gate: one test per criterion, one printed line per criterion.

All checks are exact (no tolerances: every assertion is set or structure
equality on finite data).  Census-backed criteria run the full size-3
census; morphism-space criteria run at size 2 as specified.
"""

from constella import fixtures
from constella.constellation import (
    OrderedConstellation,
    check_constellation,
    check_locally_inductive,
)
from constella.core import PartialTable, check_left_restriction, check_semigroupoid
from constella.functor import build_C
from constella.morphism import (
    MorphismMap,
    is_inductive_preradiant,
    is_inductive_radiant,
    is_premorphism,
    is_restriction_morphism,
)
from constella.theorems import (
    check_census_bijectivity,
    check_classification_golden,
    check_fixture_validation,
    check_morphism_bijection,
    check_roundtrip,
    check_section7,
    check_szendrei_coherence,
    check_universal_property,
)


def _report(number, result):
    print(f"ACCEPT {number} {result.line()}")
    assert result.ok, result.detail


def test_criterion_1_fixture_validation():
    _report(1, check_fixture_validation())


def test_criterion_2_classification_golden():
    _report(2, check_classification_golden())


def test_criterion_3_roundtrip_census():
    _report(3, check_roundtrip(3))


def test_criterion_4_morphism_category_isomorphism():
    _report(4, check_morphism_bijection(2))


def test_criterion_5_szendrei_coherence():
    _report(5, check_szendrei_coherence())


def test_criterion_6_universal_property():
    _report(6, check_universal_property(2))


def test_criterion_7_section7_equivalences():
    _report(7, check_section7(3))


def test_criterion_8_census_bijectivity():
    _report(8, check_census_bijectivity(3))


def _mutate_lrs(s, comp_change=None, comp_drop=None, plus_change=None):
    comp = dict(s.table.comp)
    if comp_change:
        key, value = comp_change
        comp[key] = value
    if comp_drop:
        del comp[comp_drop]
    plus = dict(s.plus)
    if plus_change:
        plus[plus_change[0]] = plus_change[1]
    return PartialTable(s.carrier, comp), plus


def _mutate_constellation(t, comp_change=None, comp_drop=None,
                          plus_change=None, order_add=None, order_drop=None):
    table, plus = _mutate_lrs(t, comp_change, comp_drop, plus_change)
    order = set(t.order)
    if order_add:
        order.add(order_add)
    if order_drop:
        order.discard(order_drop)
    return OrderedConstellation(table, plus, order)


S_MUTATIONS = [
    ("s1", "pair_split_plus", {"comp_drop": ("e", "e")}),
    ("s2", "pair_split_plus", {"comp_drop": ("f", "e")}),
    ("s3", "pair_split_plus", {"comp_drop": ("e", "f")}),
]

LR_MUTATIONS = [
    ("lr1", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("lr2", "pair_split_plus", {"comp_change": (("e", "f"), "f")}),
    ("lr3", "pair_constant_plus", {"comp_change": (("f", "f"), "e")}),
    ("lr4", "ex6_6", {"comp_change": (("x", "e"), "e")}),
]

CONSTELLATION_MUTATIONS = [
    ("c1", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("c2", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("c3", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("c4", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("wo1", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("wo2", "ex6_3", {"plus_change": ("0", "e")}),
    ("wo3", "pair_split_plus", {"plus_change": ("e", "f")}),
    ("wo4", "ex6_6", {"order_add": ("e", "x")}),
    ("wo5", "pair_split_plus", {"order_drop": ("e", "f")}),
    ("wo6", "pair_split_plus", {"comp_drop": ("e", "e")}),
    ("wo7", "pair_split_plus", {"comp_change": (("e", "e"), "f")}),
    ("wo8", "pair_split_plus", {"comp_drop": ("e", "e")}),
    ("wo9", "pair_split_plus", {"comp_drop": ("e", "e")}),
]

# One image of the identity map of a fixture moved: (axiom, checker,
# fixture, (x, y)) maps x to y.  rm and pm maps act on the fixture, ir and
# ip maps on its constellation.
MORPHISM_MUTATIONS = [
    ("rm1", "rm", "ex6_3", ("0", "e")),
    ("rm2", "rm", "ex6_6", ("x", "y")),
    ("pm1", "pm", "ex6_3", ("0", "e")),
    ("pm2", "pm", "ex6_4", ("s", "e")),
    ("ir1", "ir", "ex6_4", ("s", "e")),
    ("ir2", "ir", "ex6_6", ("x", "y")),
    ("ir3", "ir", "ex6_3", ("0", "e")),
    ("ir4", "ir", "ex6_3", ("e", "f")),
    ("ip1", "ip", "ex6_6", ("e", "x+")),
    ("ip2", "ip", "ex6_4", ("s", "e")),
    ("ip3", "ip", "ex6_6", ("x", "x+")),
    ("ip4", "ip", "ex6_3", ("e", "f")),
    ("ip5", "ip", "ex6_6", ("y+", "x+")),
    ("plus-image", "ip", "pair_constant_plus", ("f", "e")),
]

MORPHISM_CHECKERS = {
    "rm": is_restriction_morphism,
    "pm": is_premorphism,
    "ir": is_inductive_radiant,
    "ip": is_inductive_preradiant,
}


def test_criterion_9_mutation_sensitivity():
    fx = fixtures.all_fixtures()
    missed = []

    for axiom, name, mutation in S_MUTATIONS:
        table, _ = _mutate_lrs(fx[name], **mutation)
        if axiom not in check_semigroupoid(table).axioms():
            missed.append(axiom)

    for axiom, name, mutation in LR_MUTATIONS:
        table, plus = _mutate_lrs(fx[name], **mutation)
        if axiom not in check_left_restriction(table, plus).axioms():
            missed.append(axiom)

    for axiom, name, mutation in CONSTELLATION_MUTATIONS:
        t = _mutate_constellation(build_C(fx[name]), **mutation)
        report = check_constellation(t).merged(check_locally_inductive(t))
        if axiom not in report.axioms():
            missed.append(axiom)

    for axiom, kind, name, (x, y) in MORPHISM_MUTATIONS:
        s = fx[name]
        f = {z: z for z in s.carrier}
        f[x] = y
        source = build_C(s) if kind in ("ir", "ip") else s
        if axiom not in MORPHISM_CHECKERS[kind](
                MorphismMap(source, source, f)).axioms():
            missed.append(axiom)

    ok = not missed
    print(f"ACCEPT 9 {'PASS' if ok else 'FAIL'} mutation-sensitivity  "
          f"({'34 axioms named' if ok else f'missed: {missed}'})")
    assert ok, f"mutations not named: {missed}"
