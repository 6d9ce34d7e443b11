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

    s = fx["ex6_6"]
    c = build_C(s)
    broken_s = {x: x for x in s.carrier}
    broken_s["e"] = "x"
    broken_c = dict(broken_s)
    for prefix, report in (
        ("rm", is_restriction_morphism(MorphismMap(s, s, broken_s))),
        ("pm", is_premorphism(MorphismMap(s, s, broken_s))),
        ("ir", is_inductive_radiant(MorphismMap(c, c, broken_c))),
        ("ip", is_inductive_preradiant(MorphismMap(c, c, broken_c))),
    ):
        if not any(axiom.startswith(prefix) for axiom in report.axioms()):
            missed.append(prefix)

    ok = not missed
    print(f"ACCEPT 9 {'PASS' if ok else 'FAIL'} mutation-sensitivity  "
          f"({'24 axioms named' if ok else f'missed: {missed}'})")
    assert ok, f"mutations not named: {missed}"
