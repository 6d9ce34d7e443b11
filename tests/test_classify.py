import pytest

from constella import fixtures
from constella.classify import (
    classify_constellation,
    classify_semigroupoid,
    derive_plus_from_inverses,
    detect_inverse_semigroupoid,
    detect_semigroup,
    has_right_inverses,
)
from constella.core import check_left_restriction
from constella.enumerate import enumerate_semigroupoids
from constella.functor import build_C
from test_exactness import _ref_detect_category, _ref_pseudo_inverses

GOLDEN = {
    "ex6_3": (True, False, False),
    "ex6_4": (False, False, False),
    "ex6_5": (False, True, True),
    "ex6_6": (True, True, False),
    "ex6_7": (False, True, False),
}


@pytest.mark.parametrize("name,expected", sorted(GOLDEN.items()))
def test_constellation_golden_verdicts(name, expected):
    report = classify_constellation(build_C(fixtures.all_fixtures()[name]))
    assert (report.nd, report.lc, report.unitary) == expected


@pytest.mark.parametrize("name,expected", sorted(GOLDEN.items()))
def test_semigroupoid_side_agrees(name, expected):
    report = classify_semigroupoid(fixtures.all_fixtures()[name])
    assert (report.nd, report.lc, report.unitary) == expected


def test_singleton_satisfies_everything():
    report = classify_semigroupoid(fixtures.singleton())
    assert all(report.flags().values())


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_unitary_implies_locally_complete(name):
    report = classify_constellation(build_C(fixtures.all_fixtures()[name]))
    assert not report.unitary or report.lc
    assert report.is_category == (report.nd and report.unitary)


def test_failed_predicates_carry_witnesses():
    report = classify_constellation(build_C(fixtures.ex6_5()))
    assert report.witnesses["nd"] == ("x",)


def test_detect_category_examples():
    assert _ref_detect_category(fixtures.singleton().table) == \
        ({"e": "e"}, {"e": "e"})
    domain, _ = _ref_detect_category(fixtures.discrete2().table)
    assert domain == {"1a": "1a", "1b": "1b"}
    for name in ("ex6_3", "ex6_4", "ex6_5", "ex6_6", "ex6_7"):
        table = fixtures.all_fixtures()[name].table
        assert _ref_detect_category(table) is None, name


def test_detect_category_composability_rule():
    domain, codomain = _ref_detect_category(fixtures.z2().table)
    assert domain == {"1": "1", "g": "1"}
    assert codomain == {"1": "1", "g": "1"}


def test_detect_semigroup():
    assert detect_semigroup(fixtures.ex6_3().table)
    assert not detect_semigroup(fixtures.ex6_5().table)
    assert detect_semigroup(fixtures.singleton().table)


def test_pseudo_inverses_in_z2():
    table = fixtures.z2().table
    assert _ref_pseudo_inverses(table, "g") == ["g"]
    check = detect_inverse_semigroupoid(table)
    assert check.ok and check.inverse == {"1": "1", "g": "g"}


def test_semilattice_is_inverse():
    # every element of a commutative idempotent table is its own inverse
    check = detect_inverse_semigroupoid(fixtures.ex6_3().table)
    assert check.ok
    assert check.inverse == {"0": "0", "e": "e", "f": "f"}


def test_non_regular_elements_block_inverse_detection():
    check = detect_inverse_semigroupoid(fixtures.ex6_4().table)
    assert not check.ok and check.witness[0] == "s"


def test_derive_plus_from_inverses():
    table = fixtures.z2().table
    inverse = detect_inverse_semigroupoid(table).inverse
    plus = derive_plus_from_inverses(table, inverse)
    assert plus == {"1": "1", "g": "1"}
    assert check_left_restriction(table, plus).valid
    sing = fixtures.singleton().table
    assert derive_plus_from_inverses(sing, {"e": "e"}) == {"e": "e"}


def test_every_inverse_table_in_the_census_yields_valid_plus():
    for n in (1, 2, 3):
        for table in enumerate_semigroupoids(n):
            check = detect_inverse_semigroupoid(table)
            if check.ok:
                plus = derive_plus_from_inverses(table, check.inverse)
                assert check_left_restriction(table, plus).valid


def test_right_inverses_examples():
    assert has_right_inverses(build_C(fixtures.z2())).ok
    assert has_right_inverses(build_C(fixtures.singleton())).ok
    check = has_right_inverses(build_C(fixtures.ex6_6()))
    assert not check.ok and check.witness == ("x",)


def test_right_inverses_depend_on_plus():
    # same inverse table, non-canonical plus: no right inverses upstairs
    report = classify_semigroupoid(fixtures.pair_constant_plus())
    assert report.is_inverse_semigroupoid and not report.has_right_inverses
    report = classify_semigroupoid(fixtures.pair_split_plus())
    assert report.is_inverse_semigroupoid and report.has_right_inverses
