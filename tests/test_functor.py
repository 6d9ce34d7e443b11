from itertools import chain

import pytest

from constella import fixtures
from constella.constellation import OrderedConstellation
from constella.core import LeftRestrictionSemigroupoid, PartialTable
from constella.enumerate import (
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from constella.functor import build_C, build_G, roundtrip_check
from constella.io import parse_structure, serialize_structure
from constella.szendrei import expand_constellation, expand_semigroupoid
from test_constellation import _ref_pseudo_product


def test_build_C_ex6_5_keeps_all_pairs():
    s = fixtures.ex6_5()
    c = build_C(s)
    assert c.table.defined == s.table.defined
    assert c.table.comp == s.table.comp


def test_build_C_ex6_3_composable_pairs():
    c = build_C(fixtures.ex6_3())
    expected = {(x, x) for x in c.carrier} | {("0", "e"), ("0", "f")}
    assert c.table.defined == frozenset(expected)
    assert all(c.table.comp[p] == p[0] for p in expected)


def test_build_C_singleton_is_identical():
    s = fixtures.singleton()
    c = build_C(s)
    assert c.table == s.table and c.plus == s.plus


@pytest.mark.parametrize("name", ["ex6_3", "ex6_6", "singleton"])
def test_build_G_recovers_the_table(name):
    s = fixtures.all_fixtures()[name]
    assert build_G(build_C(s)) == s


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_roundtrips_are_literal(name):
    s = fixtures.all_fixtures()[name]
    assert roundtrip_check(s).equal
    assert roundtrip_check(build_C(s)).equal


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_pseudo_product_agrees_with_composition(name):
    s = fixtures.all_fixtures()[name]
    c = build_C(s)
    for (a, b) in s.table.defined:
        assert _ref_pseudo_product(c, a, b) == s.table.comp[(a, b)]


def test_roundtrip_report_shape():
    r = roundtrip_check(fixtures.ex6_4())
    assert r.equal and r.mismatches == ()
    with pytest.raises(TypeError):
        roundtrip_check("not a structure")


# --- one stored form, whatever the route that built it ---


def _rebuilt(x):
    """x rebuilt by the public constructors from its labelled views."""
    table = PartialTable(x.carrier, x.table.comp)
    if isinstance(x, OrderedConstellation):
        return OrderedConstellation(table, x.plus, x.order)
    return LeftRestrictionSemigroupoid(table, x.plus)


def _assert_same(a, b):
    assert a == b and hash(a) == hash(b)
    assert a.table == b.table and hash(a.table) == hash(b.table)


def test_every_construction_route_stores_the_same_structure():
    fx = list(fixtures.all_fixtures().values())
    base = build_C(fixtures.ex6_7())
    sz = expand_constellation(base)
    sz2 = expand_constellation(sz)
    lrs = {n: list(enumerate_lr_semigroupoids(n)) for n in (1, 2, 3)}
    lic = {n: list(enumerate_li_constellations(n)) for n in (1, 2, 3)}
    structures = [*fx, *map(build_C, fx), sz, sz2, build_G(sz), build_G(sz2),
                  *chain(*lrs.values()), *chain(*lic.values())]
    parsed = 0
    for x in structures:
        _assert_same(_rebuilt(x), x)
        if all(isinstance(e, str) for e in x.carrier) \
                and list(x.carrier) == sorted(x.carrier):
            _assert_same(parse_structure(serialize_structure(x)), x)
            parsed += 1
    assert parsed > 250
    # the functors against the census of the other side
    for n in (1, 2, 3):
        census = {t: t for t in lic[n]}
        for s in lrs[n]:
            c = build_C(s)
            _assert_same(census[c], c)
            _assert_same(build_G(c), s)
    # the two routes to the expansion of a constellation
    for t in (base, sz):
        _assert_same(build_C(expand_semigroupoid(build_G(t))),
                     expand_constellation(t))


def _state(x):
    """What a change to a structure would show: its validation report, its
    corestrictions for a constellation, and its hash."""
    cores = x.corestrictions() if isinstance(x, OrderedConstellation) else None
    return x.validate().violations, cores, hash(x), hash(x.table)


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_the_labelled_views_are_copies(name):
    twin = fixtures.all_fixtures()[name]
    for x, y in ((fixtures.all_fixtures()[name], twin),
                 (build_C(twin), build_C(twin))):
        before = _state(x)
        other = x.carrier[-1]
        for key in x.table.comp:
            x.table.comp[key] = other
        x.table.comp.clear()
        for key in x.carrier:
            x.plus[key] = other
        x.plus.clear()
        if isinstance(x, OrderedConstellation):
            assert isinstance(x.order, frozenset)
        assert _state(x) == before
        assert x == y and hash(x) == hash(y)
        assert x.table.comp == y.table.comp and x.plus == y.plus
