from itertools import product

import pytest

from constella import fixtures
from constella.core import (
    InvalidOrderError,
    LeftRestrictionSemigroupoid,
    PartialTable,
    check_left_restriction,
    check_semigroupoid,
    idempotents,
    identity_kind,
    natural_order,
)


def _ref_natural_order_by_witness(s):
    """The natural order in its witness form, on the labelled views:
    a <= b iff e b = a for some e in S+."""
    comp = s.table.comp
    image = set(s.plus.values())
    return frozenset(
        (a, b)
        for a, b in product(s.carrier, repeat=2)
        if any(comp.get((e, b)) == a for e in image)
    )


def test_table_rejects_empty_carrier():
    with pytest.raises(ValueError):
        PartialTable([], {})


def test_table_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        PartialTable(["a", "a"], {})


def test_table_rejects_foreign_entries():
    with pytest.raises(ValueError):
        PartialTable(["a"], {("a", "b"): "a"})
    with pytest.raises(ValueError):
        PartialTable(["a"], {("a", "a"): "b"})


def test_undefined_pair_is_distinct_outcome():
    t = PartialTable(["a", "b"], {("a", "a"): "a"})
    assert t.product("a", "a") == "a"
    assert t.product("a", "b") is None
    assert not t.is_defined("a", "b")


def test_labels_outside_the_carrier_give_no_product():
    t = PartialTable(["a", "b"], {("a", "a"): "a", ("a", "b"): "b"})
    assert t.product("a", "b") == "b" and t.is_defined("a", "b")
    for a, b in (("z", "a"), ("a", "z"), ("z", "z"), (0, 1)):
        assert t.product(a, b) is None
        assert not t.is_defined(a, b)


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_fixture_passes_semigroupoid_check(name):
    s = fixtures.all_fixtures()[name]
    assert check_semigroupoid(s.table).valid


def test_singleton_idempotent_is_valid():
    t = PartialTable(["e"], {("e", "e"): "e"})
    assert check_semigroupoid(t).valid


def test_twist_table_violates_closure_at_s1():
    t = PartialTable(["a", "b"], {("a", "b"): "a", ("b", "a"): "b"})
    report = check_semigroupoid(t)
    assert not report.valid
    assert ("s1", ("a", "b", "a")) in {(v.axiom, v.witness) for v in report.violations}


@pytest.mark.parametrize("name", ["pair_split_plus", "pair_constant_plus", "ex6_3"])
def test_left_restriction_fixtures_valid(name):
    s = fixtures.all_fixtures()[name]
    assert check_left_restriction(s.table, s.plus).valid


def test_same_table_two_restriction_structures():
    # one partial table can carry several valid plus maps
    split = fixtures.pair_split_plus()
    constant = fixtures.pair_constant_plus()
    assert split.table == constant.table
    assert split.plus != constant.plus
    assert split.validate().valid and constant.validate().valid


def test_natural_order_ex6_3():
    s = fixtures.ex6_3()
    reflexive = {(x, x) for x in s.carrier}
    assert natural_order(s) == frozenset(reflexive | {("0", "e"), ("0", "f")})


def test_natural_order_singleton():
    assert natural_order(fixtures.singleton()) == frozenset({("e", "e")})


def test_natural_order_ex6_5_is_discrete():
    s = fixtures.ex6_5()
    assert natural_order(s) == frozenset({("x", "x"), ("x+", "x+")})


def test_natural_order_raises_on_axiom_breaking_structures():
    # the derived relation fails antisymmetry when the lr axioms do not hold
    table = PartialTable(
        ["a", "b"],
        {("a", "a"): "a", ("b", "b"): "b", ("a", "b"): "a", ("b", "a"): "b"},
    )
    broken = LeftRestrictionSemigroupoid(table, {"a": "a", "b": "b"})
    assert not broken.validate().valid
    with pytest.raises(InvalidOrderError):
        natural_order(broken)


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_natural_order_matches_witness_form(name):
    s = fixtures.all_fixtures()[name]
    assert natural_order(s) == _ref_natural_order_by_witness(s)


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_plus_image_laws(name):
    # each plus-element is idempotent and its own plus; products with a
    # plus-element on the right exist exactly when the full product does
    s = fixtures.all_fixtures()[name]
    comp = s.table.comp
    for e in s.plus_image():
        assert comp.get((e, e)) == e
        assert s.plus[e] == e
    for a in s.carrier:
        for b in s.carrier:
            assert ((a, b) in s.table.defined) == (
                (a, s.plus[b]) in s.table.defined
            )
    for (a, b) in s.table.defined:
        ab = comp[(a, b)]
        assert s.plus[comp[(a, s.plus[b])]] == s.plus[ab]
        assert comp.get((s.plus[ab], s.plus[a])) == s.plus[ab]


def test_idempotents():
    assert idempotents(fixtures.ex6_3().table) == ("0", "e", "f")
    assert idempotents(fixtures.ex6_6().table) == ("e", "x+", "y+")
    assert idempotents(fixtures.singleton().table) == ("e",)


def test_identity_kind_examples():
    assert identity_kind(fixtures.ex6_5().table, "x+") == "both"
    assert identity_kind(fixtures.ex6_6().table, "e") == "left"
    assert identity_kind(fixtures.ex6_3().table, "e") == "none"
    with pytest.raises(ValueError):
        identity_kind(fixtures.ex6_3().table, "zz")


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_at_most_one_identity_per_side(name):
    s = fixtures.all_fixtures()[name]
    table = s.table
    ids = [x for x in s.carrier if identity_kind(table, x) == "both"]
    for a in s.carrier:
        assert len([e for e in ids if (e, a) in table.defined]) <= 1
        assert len([e for e in ids if (a, e) in table.defined]) <= 1


def test_checked_constructor_rejects_bad_plus():
    s = fixtures.ex6_3()
    bad_plus = dict(s.plus, e="f")
    with pytest.raises(ValueError):
        LeftRestrictionSemigroupoid.checked(s.table, bad_plus)


def test_structure_equality_is_literal():
    a, b = fixtures.ex6_3(), fixtures.ex6_3()
    assert a == b and hash(a) == hash(b)
    assert fixtures.ex6_3() != fixtures.ex6_4()
