"""Property-based checks over random tables and census samples."""

from itertools import islice, product

from hypothesis import given, settings
from hypothesis import strategies as st

from constella import fixtures
from constella.constellation import (
    OrderedConstellation,
    _c34_violations,
    check_constellation,
    corestriction,
)
from constella.coded import _positions
from constella.core import (
    PartialTable,
    _lr_violations,
    _named_report,
    check_left_restriction,
    check_semigroupoid,
    holds,
    natural_order,
)
from constella.enumerate import (
    are_isomorphic,
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from constella.functor import build_C, build_G
from constella.io import parse_structure, serialize_structure
from constella.szendrei import expand_constellation
from test_core import _ref_natural_order_by_witness
from test_exactness import coded_table, relabel

LABELS = ("a", "b", "c")

CENSUS_LRS = list(enumerate_lr_semigroupoids(1)) + list(enumerate_lr_semigroupoids(2))
CENSUS_LIC = list(enumerate_li_constellations(1)) + list(enumerate_li_constellations(2))


@st.composite
def partial_tables(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    carrier = LABELS[:n]
    pairs = sorted(product(carrier, repeat=2))
    comp = draw(
        st.dictionaries(st.sampled_from(pairs), st.sampled_from(carrier), max_size=9)
    )
    return PartialTable(carrier, comp)


@st.composite
def tables_with_plus(draw):
    t = draw(partial_tables())
    plus = {x: draw(st.sampled_from(t.carrier)) for x in t.carrier}
    return t, plus


@given(partial_tables())
def test_semigroupoid_report_is_consistent(t):
    report = check_semigroupoid(t)
    assert report.valid == (not report.violations)
    members = set(t.carrier)
    for v in report.violations:
        assert v.axiom in {"s1", "s2", "s3"}
        assert set(v.witness) <= members
    again = check_semigroupoid(t)
    assert [ (v.axiom, v.witness) for v in report.violations ] == \
           [ (v.axiom, v.witness) for v in again.violations ]


def _first(carrier, violations):
    """The first coded violation, named through the carrier, or None."""
    named = _named_report(carrier, islice(violations, 1)).violations
    return named[0] if named else None


@given(tables_with_plus())
def test_lr_report_agrees_with_fast_predicate(tp):
    # the census's fail-fast use of the generator against the full report
    t, plus = tp
    report = check_left_restriction(t, plus)
    _, val = coded_table(t)
    coded = [_positions(t.carrier)[plus[x]] for x in t.carrier]
    assert holds(_lr_violations(val, coded)) == report.valid
    assert _first(t.carrier, _lr_violations(val, coded)) == \
        (report.violations[0] if report.violations else None)


@given(st.sampled_from(CENSUS_LRS))
def test_natural_order_definitions_agree(s):
    assert natural_order(s) == _ref_natural_order_by_witness(s)


@given(st.sampled_from(CENSUS_LRS))
def test_serialize_parse_identity_on_census(s):
    assert parse_structure(serialize_structure(s)) == s


@given(st.sampled_from(CENSUS_LIC))
def test_serialize_parse_identity_on_constellations(t):
    assert parse_structure(serialize_structure(t)) == t


@given(st.sampled_from(CENSUS_LRS))
def test_roundtrip_on_census(s):
    assert build_G(build_C(s)) == s


@given(st.sampled_from(CENSUS_LIC))
def test_constellation_roundtrip_on_census(t):
    assert build_C(build_G(t)) == t


@given(st.sampled_from(CENSUS_LIC), st.data())
def test_constellation_c34_fast_predicate_agrees(t, data):
    # the census's fail-fast c3/c4 check against the full report
    plus = {x: data.draw(st.sampled_from(t.carrier)) for x in t.carrier}
    candidate = OrderedConstellation(t.table, plus, t.order)
    c34 = [v for v in check_constellation(candidate).violations
           if v.axiom in {"c3", "c4"}]
    _, val = coded_table(t.table)
    coded = [_positions(t.carrier)[plus[x]] for x in t.carrier]
    assert holds(_c34_violations(val, coded)) == (not c34)
    assert _first(t.carrier, _c34_violations(val, coded)) == \
        (c34[0] if c34 else None)


@given(st.sampled_from(CENSUS_LRS), st.permutations(LABELS[:2]))
def test_relabelings_are_isomorphic(s, image):
    if len(s.carrier) != 2:
        return
    mapping = dict(zip(s.carrier, image))
    other = relabel(s, mapping, tuple(sorted(image)))
    ok, found = are_isomorphic(s, other)
    assert ok and relabel(s, found, other.carrier) == other


@settings(max_examples=30)
@given(st.permutations(["s", "y", "y+"]))
def test_meet_fold_is_order_independent(ordering):
    t = build_C(fixtures.ex6_7())
    acc = t.plus[ordering[0]]
    for a in ordering[1:]:
        c = corestriction(t, acc, t.plus[a])
        assert c.exists
        acc = c.value
    assert acc == "y+"


@given(st.sampled_from(CENSUS_LIC))
def test_expansion_is_locally_inductive(t):
    assert expand_constellation(t).validate().valid
