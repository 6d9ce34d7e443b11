"""The battery's failure branches: each check reports FAIL, with its
detail line, when one name it calls is replaced by a faulty one."""

import pytest

from constella import fixtures, theorems
from constella.constellation import OrderedConstellation
from constella.core import LeftRestrictionSemigroupoid, PartialTable
from constella.functor import RoundTripReport, roundtrip_check
from constella.morphism import MorphismMap
from constella.szendrei import MeetUndefinedError

real_build_C = theorems.build_C
real_build_G = theorems.build_G
real_enumerate = theorems.enumerate_morphisms
real_extend = theorems.extend
real_expand = theorems.expand_semigroupoid


def _without_a_product(x):
    """x with the product x+ x of its first element x undefined: one row
    changed, and x fails its axioms."""
    a = x.carrier[0]
    comp = x.table.comp
    del comp[x.plus[a], a]
    table = PartialTable(x.carrier, comp)
    if isinstance(x, OrderedConstellation):
        return OrderedConstellation(table, x.plus, x.order)
    return LeftRestrictionSemigroupoid(table, x.plus)


class _Flipped:
    """A classification report with the nd flag negated."""

    def __init__(self, report):
        self.report = report

    def __getattr__(self, name):
        value = getattr(self.report, name)
        return not value if name == "nd" else value


def _flip_nd(classify):
    return lambda t: _Flipped(classify(t))


def _moved(m, i):
    """m with the image of its i-th source element moved one step along
    the target carrier."""
    images = list(m.images)
    images[i] = (images[i] + 1) % len(m.target.carrier)
    values = m.target.carrier
    return MorphismMap(m.source, m.target, {
        x: values[y] for x, y in zip(m.source.carrier, images)})


def _enumerate_dropping(kinds, which):
    """enumerate_morphisms with the maps which(source, target, maps) names
    left out for the given kinds."""
    def fake(kind, source, target, cap=None):
        maps = real_enumerate(kind, source, target, cap)
        if kind not in kinds:
            return maps
        dropped = which(source, target, maps)
        return tuple(m for m in maps if m.images not in dropped)
    return fake


def _last(source, target, maps):
    return {maps[-1].images} if maps else set()


def _identity(source, target, maps):
    return {tuple(range(len(source.carrier)))} if source == target else set()


def _between_distinct_pairs(source, target, maps):
    """Every map between two different 2-element structures: then f: A ->
    singleton and g: singleton -> B compose to a map outside rm(A, B)."""
    if source != target and len(source.carrier) == len(target.carrier) == 2:
        return {m.images for m in maps}
    return set()


def _an_extra_radiant(kind, source, target, cap=None):
    """ir maps with, after each, a copy that differs only on an element
    outside the image of iota (a plus-element (A, e) with |A| = 2, or an
    element with |A| > 2): the copy restricts to the same preradiant."""
    maps = real_enumerate(kind, source, target, cap)
    if kind != "ir" or len(target.carrier) < 2:
        return maps
    outside = [i for i, el in enumerate(source.carrier)
               if len(el.subset) > 2
               or (len(el.subset) == 2 and source.plus_row[i] == i)]
    if not outside:
        return maps
    return tuple(x for m in maps for x in (m, _moved(m, outside[0])))


def _extension_of_another(phi, expansion=None):
    """The extension of the next preradiant with the same endpoints, a
    radiant that restricts to that preradiant and not to phi."""
    maps = real_enumerate("ip", phi.source, phi.target)
    other = maps[(maps.index(phi) + 1) % len(maps)]
    return real_extend(other, expansion)


def _moved_extension(phi, expansion=None):
    Phi = real_extend(phi, expansion)
    return _moved(Phi, len(Phi.source.carrier) - 1)


def _raising(*args):
    raise MeetUndefinedError("no meet")


def _broken_for_constellations(x):
    if isinstance(x, OrderedConstellation):
        return RoundTripReport(False, ("order",))
    return roundtrip_check(x)


FIXTURE_NAMES = list(fixtures.all_fixtures())

CASES = {
    "fixture-validation": (
        theorems.check_fixture_validation, (), "build_C",
        lambda s: _without_a_product(real_build_C(s)),
        f"failing: {[name + ':C' for name in FIXTURE_NAMES]}"),
    "classification-golden": (
        theorems.check_classification_golden, (), "classify_constellation",
        _flip_nd(theorems.classify_constellation),
        f"mismatches: {[f'{name}.nd' for name in theorems.GOLDEN_VERDICTS]}"),
    "roundtrip-G-invalid": (
        theorems.check_roundtrip, (1,), "build_G",
        lambda t: _without_a_product(real_build_G(t)),
        "G output invalid at size 1"),
    "roundtrip-fixture": (
        theorems.check_roundtrip, (1,), "roundtrip_check",
        _broken_for_constellations, "fixture round trip broke"),
    "bijection-rm-ir": (
        theorems.check_morphism_bijection, (2,), "enumerate_morphisms",
        _enumerate_dropping({"ir"}, _last), "rm != ir on a pair (1 vs 0)"),
    "bijection-pm-ip": (
        theorems.check_morphism_bijection, (2,), "enumerate_morphisms",
        _enumerate_dropping({"ip"}, _last), "pm != ip on a pair (1 vs 0)"),
    "bijection-rm-in-pm": (
        theorems.check_morphism_bijection, (2,), "enumerate_morphisms",
        _enumerate_dropping({"pm", "ip"}, _last),
        "a restriction morphism is not a premorphism"),
    "bijection-identity": (
        theorems.check_morphism_bijection, (2,), "enumerate_morphisms",
        _enumerate_dropping({"rm", "ir"}, _identity), "identity missing"),
    "bijection-composition": (
        theorems.check_morphism_bijection, (2,), "enumerate_morphisms",
        _enumerate_dropping({"rm", "ir"}, _between_distinct_pairs),
        "composition left the class"),
    "szendrei-coherence": (
        theorems.check_szendrei_coherence, (), "expand_semigroupoid",
        lambda s: real_expand(fixtures.all_fixtures()[FIXTURE_NAMES[-1]]),
        FIXTURE_NAMES[0]),
    "universal-not-a-radiant": (
        theorems.check_universal_property, (2,), "extend",
        _moved_extension, "extension is not a radiant"),
    "universal-not-restricting": (
        theorems.check_universal_property, (2,), "extend",
        _extension_of_another, "extension does not restrict to phi"),
    "universal-not-unique": (
        theorems.check_universal_property, (2,), "enumerate_morphisms",
        _an_extra_radiant, "extension is not unique"),
    "universal-witness": (
        theorems.check_universal_property, (2,), "evaluate_through",
        _raising, "generation witness disagrees"),
    "universal-restriction": (
        theorems.check_universal_property, (2,), "enumerate_morphisms",
        _enumerate_dropping({"ip"}, _last),
        "radiant restriction is not a preradiant"),
    "section7": (
        theorems.check_section7, (1,), "classify_constellation",
        _flip_nd(theorems.classify_constellation),
        "nd disagrees across the correspondence"),
    "census-bijectivity": (
        theorems.check_census_bijectivity, (2,), "build_C",
        lambda s: _without_a_product(real_build_C(s)),
        "C is not a bijection at size 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_faulty_name_makes_the_check_fail(case, monkeypatch):
    check, args, name, fault, detail = CASES[case]
    assert check(*args).ok
    monkeypatch.setattr(theorems, name, fault)
    result = check(*args)
    assert result.ok is False
    assert result.detail == detail
