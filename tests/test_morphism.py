import random
from collections import Counter
from itertools import product

import pytest

from constella import enumerate as enumerate_module
from constella import fixtures, morphism
from constella.constellation import (
    NonUniqueError,
    NotApplicableError,
    OrderedConstellation,
    corestriction,
    restriction,
)
from constella.core import LeftRestrictionSemigroupoid, PartialTable, Violation
from constella.enumerate import (
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from constella.functor import build_C
from constella.szendrei import expand_constellation, extend, iota
from constella.morphism import (
    CapExceededError,
    MorphismMap,
    check_morphism,
    compose,
    enumerate_morphisms,
    identity_morphism,
    is_inductive_preradiant,
    is_inductive_radiant,
    is_premorphism,
    is_restriction_morphism,
    transport,
)
from test_constellation import _ref_pseudo_product


def test_map_must_be_total_and_land_in_target():
    s = fixtures.ex6_5()
    with pytest.raises(ValueError):
        MorphismMap(s, s, {"x": "x"})
    with pytest.raises(ValueError):
        MorphismMap(s, s, {"x": "zz", "x+": "x+"})


def test_same_function_different_plus_structures():
    sing = fixtures.singleton()
    m_split = MorphismMap(sing, fixtures.pair_split_plus(), {"e": "e"})
    m_const = MorphismMap(sing, fixtures.pair_constant_plus(), {"e": "e"})
    assert is_restriction_morphism(m_split).valid
    report = is_restriction_morphism(m_const)
    assert not report.valid and report.axioms() == {"rm2"}


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_identity_is_a_morphism_of_every_class(name):
    s = fixtures.all_fixtures()[name]
    assert is_restriction_morphism(identity_morphism(s)).valid
    assert is_premorphism(identity_morphism(s)).valid
    c = build_C(s)
    assert is_inductive_radiant(identity_morphism(c)).valid
    assert is_inductive_preradiant(identity_morphism(c)).valid


def test_enumerate_restriction_morphisms_from_singleton():
    found = enumerate_morphisms("rm", fixtures.singleton(),
                                fixtures.pair_split_plus())
    assert sorted(m.mapping["e"] for m in found) == ["e", "f"]
    found = enumerate_morphisms("rm", fixtures.singleton(),
                                fixtures.pair_constant_plus())
    assert [m.mapping["e"] for m in found] == ["f"]


def test_enumerate_any_into_singleton():
    found = enumerate_morphisms("any", fixtures.ex6_3(), fixtures.singleton())
    assert len(found) == 1


def test_enumerate_counts_on_ex6_5():
    s = fixtures.ex6_5()
    assert len(enumerate_morphisms("rm", s, s)) == 2
    assert len(enumerate_morphisms("pm", s, s)) == 2


def test_enumerate_cap():
    s = fixtures.ex6_6()
    with pytest.raises(CapExceededError):
        enumerate_morphisms("rm", s, s, cap=10)


def test_kind_names_other_than_the_four_and_any_are_refused():
    s = fixtures.ex6_5()
    with pytest.raises(ValueError, match="unknown morphism kind 'restriction'"):
        enumerate_morphisms("restriction", s, s)


def test_cap_bounds_the_full_map_space_before_any_search():
    s = fixtures.ex6_5()
    space = len(s.carrier) ** len(s.carrier)
    assert len(enumerate_morphisms("rm", s, s, cap=space)) == 2
    # ir on semigroupoids would fail the type check; the cap comes first
    with pytest.raises(CapExceededError):
        enumerate_morphisms("ir", s, s, cap=space - 1)
    with pytest.raises(TypeError):
        enumerate_morphisms("ir", s, s, cap=space)


def test_one_cap_error_type():
    assert morphism.CapExceededError is enumerate_module.CapExceededError


# --- reference: the axiom instances over the labelled structures ---
#
# The checkers build their instances on carrier indices from the stored
# rows.  These are the labelled scans they replaced, on the labelled views
# and the public operations (corestriction, restriction, and the
# pseudo-product of test_constellation._ref_pseudo_product):
# the same instances, with the same witnesses, in carrier order.


def _ref_products(axiom, S, test):
    comp = S.table.comp
    for a, b in product(S.carrier, repeat=2):
        ab = comp.get((a, b))
        if ab is not None:
            yield axiom, (a, b), (a, b, ab), test


def _ref_elements(axiom, S, test):
    for a, a_plus in S.plus.items():
        yield axiom, (a,), (a, a_plus), test


def _ref_order_pairs(axiom, T, L):
    source, order = T.order, L.order

    def test(f, a, b):
        return (f[a], f[b]) in order
    for pair in product(T.carrier, repeat=2):
        if pair in source:
            yield axiom, pair, pair, test


def _ref_corestrictions(axiom, T, L):
    target = L.corestrictions()

    def test(f, x, e, c):
        r = target.get((f[x], f[e]))  # None unless f(e) is in L+
        return r is not None and r.exists and r.value == f[c]
    for e in T.plus_image():
        for x in T.carrier:
            r = corestriction(T, x, e)
            if r.exists:
                yield axiom, (x, e), (x, e, r.value), test


def _ref_multiplicative(comp):
    def test(f, a, b, ab):
        return comp.get((f[a], f[b])) == f[ab]
    return test


def _ref_weakly_multiplicative(product, plus):
    def test(f, a, b, ab):
        lhs = product.get((f[a], f[b]))
        return lhs is not None and lhs == product.get((plus[f[a]], f[ab]))
    return test


def _ref_commutes_with_plus(plus):
    def test(f, a, a_plus):
        return f[a_plus] == plus[f[a]]
    return test


def _ref_rm(S, T):
    yield from _ref_products("rm1", S, _ref_multiplicative(T.table.comp))
    yield from _ref_elements("rm2", S, _ref_commutes_with_plus(T.plus))


def _ref_pm(S, T):
    comp, plus = T.table.comp, T.plus

    def pm2(f, a, a_plus):
        e = plus[f[a]]
        return comp.get((plus[e], f[a_plus])) == e

    yield from _ref_products("pm1", S, _ref_weakly_multiplicative(comp, plus))
    yield from _ref_elements("pm2", S, pm2)


def _ref_ir(T, L):
    yield from _ref_products("ir1", T, _ref_multiplicative(L.table.comp))
    yield from _ref_elements("ir2", T, _ref_commutes_with_plus(L.plus))
    yield from _ref_order_pairs("ir3", T, L)
    yield from _ref_corestrictions("ir4", T, L)


def _ref_ip(T, L):
    pseudo = {(a, b): _ref_pseudo_product(L, a, b)
              for a, b in product(L.carrier, repeat=2)}
    plus, order, image = L.plus, L.order, set(L.plus_image())

    def ip2(f, a, a_plus):
        return (plus[f[a]], f[a_plus]) in order

    def ip5(f, e, x, r):
        if f[e] not in image:
            return False
        m = corestriction(L, f[e], plus[f[x]])
        return m.exists and m.value == plus[f[r]]

    def plus_image(f, e):
        return f[e] in image

    yield from _ref_products("ip1", T, _ref_weakly_multiplicative(pseudo, plus))
    yield from _ref_elements("ip2", T, ip2)
    yield from _ref_order_pairs("ip3", T, L)
    yield from _ref_corestrictions("ip4", T, L)
    for e in T.plus_image():
        for x in T.carrier:
            try:
                r = restriction(T, e, x)
            except (NotApplicableError, NonUniqueError):
                continue
            yield "ip5", (e, x), (e, x, r), ip5
    for e in T.plus_image():
        yield "plus-image", (e,), (e,), plus_image


_REFERENCE = {"rm": _ref_rm, "pm": _ref_pm, "ir": _ref_ir, "ip": _ref_ip}


def _reference_violations(kind, m):
    f = m.mapping
    return tuple(Violation(axiom, witness) for axiom, witness, support, test
                 in _REFERENCE[kind](m.source, m.target)
                 if not test(f, *support))


def _brute_force(kind, S, T):
    """Reference: every total map, in lexicographic order, kept when the
    reference instances all hold.  The instances are built once per pair,
    as the reference checker would build them for each map."""
    instances = list(_REFERENCE[kind](S, T))
    found = []
    for images in product(T.carrier, repeat=len(S.carrier)):
        f = dict(zip(S.carrier, images))
        if all(test(f, *support) for _, _, support, test in instances):
            found.append(MorphismMap(S, T, f))
    return tuple(found)


def _oracle_cases(census_lrs_2, census_lic_2):
    """(kind, source, target): all four kinds on census and fixture pairs,
    and the constellation kinds from each expansion Sz(T) to T2."""
    fx = list(fixtures.lr_fixtures().values())
    for S1, S2 in list(product(census_lrs_2, repeat=2)) + list(product(fx, repeat=2)):
        C1, C2 = build_C(S1), build_C(S2)
        yield from (("rm", S1, S2), ("pm", S1, S2), ("ir", C1, C2), ("ip", C1, C2))
    for T, T2 in product(census_lic_2, repeat=2):
        sz = expand_constellation(T)
        yield from (("ir", sz, T2), ("ip", sz, T2))


def test_search_matches_brute_force(census_lrs_2, census_lic_2):
    cases = list(_oracle_cases(census_lrs_2, census_lic_2))
    assert len(cases) == 796
    for kind, source, target in cases:
        assert enumerate_morphisms(kind, source, target) == \
            _brute_force(kind, source, target)


def _edited(rng, x):
    """x with one to three random table cells and perhaps one plus image
    changed: a structure of the same kind that mostly fails its axioms."""
    carrier, comp, plus = x.carrier, x.table.comp, x.plus
    for _ in range(rng.randint(1, 3)):
        pair = rng.choice(carrier), rng.choice(carrier)
        value = rng.choice((None,) + carrier)
        if value is None:
            comp.pop(pair, None)
        else:
            comp[pair] = value
    if rng.random() < 0.5:
        plus[rng.choice(carrier)] = rng.choice(carrier)
    parts = (PartialTable(carrier, comp), plus)
    if isinstance(x, OrderedConstellation):
        parts += (x.order,)
    return type(x)(*parts)


def test_checkers_match_the_reference_on_random_maps(census_lrs_2, census_lic_2):
    rng = random.Random(20261019)
    lrs = census_lrs_2 + list(enumerate_lr_semigroupoids(3)) + \
        list(fixtures.lr_fixtures().values())
    lic = census_lic_2 + list(enumerate_li_constellations(3)) + \
        [build_C(s) for s in fixtures.lr_fixtures().values()] + \
        [expand_constellation(t) for t in census_lic_2]
    seen = Counter()
    for _ in range(1500):
        for kinds, pool in ((("rm", "pm"), lrs), (("ir", "ip"), lic)):
            S = rng.choice(pool)
            T = S if rng.random() < 0.3 else rng.choice(pool)
            if rng.random() < 0.5:
                S = _edited(rng, S)
            if rng.random() < 0.5:
                T = _edited(rng, T)
            if S.carrier == T.carrier and rng.random() < 0.5:
                # the identity with at most one image moved
                mapping = {x: x for x in S.carrier}
                mapping[rng.choice(S.carrier)] = rng.choice(T.carrier)
            else:
                mapping = {x: rng.choice(T.carrier) for x in S.carrier}
            m = MorphismMap(S, T, mapping)
            for kind in kinds:
                got = check_morphism(kind, m).violations
                assert got == _reference_violations(kind, m), (kind, m)
                seen.update(v.axiom for v in got)
                seen[kind, not got] += 1
    axioms = {"rm1", "rm2", "pm1", "pm2", "ir1", "ir2", "ir3", "ir4",
              "ip1", "ip2", "ip3", "ip4", "ip5", "plus-image"}
    assert axioms <= set(seen)
    assert all(seen[kind, True] > 10 for kind in ("rm", "pm", "ir", "ip"))


def test_every_restriction_morphism_is_a_premorphism(census_lrs_2):
    for s1, s2 in product(census_lrs_2[:6], repeat=2):
        for m in enumerate_morphisms("rm", s1, s2):
            assert is_premorphism(m).valid


def test_premorphism_counterexample_by_single_image_mutation():
    s = fixtures.ex6_6()
    mapping = {x: x for x in s.carrier}
    mapping["x+"] = "y+"
    report = is_premorphism(MorphismMap(s, s, mapping))
    assert report.axioms() == {"pm2"}


def test_radiant_counterexample_by_single_image_mutation():
    c = build_C(fixtures.ex6_6())
    mapping = {x: x for x in c.carrier}
    mapping["e"] = "x"
    assert not is_inductive_radiant(MorphismMap(c, c, mapping)).valid
    assert not is_inductive_preradiant(MorphismMap(c, c, mapping)).valid


def test_preradiant_checker_reports_plus_image():
    c = build_C(fixtures.ex6_5())
    mapping = {"x+": "x", "x": "x"}
    report = is_inductive_preradiant(MorphismMap(c, c, mapping))
    assert "plus-image" in report.axioms()


@pytest.mark.parametrize("name", sorted(fixtures.lr_fixtures()))
def test_transport_and_involution(name):
    s = fixtures.lr_fixtures()[name]
    for m in enumerate_morphisms("rm", s, s):
        up = transport(m, "C")
        assert is_inductive_radiant(up).valid
        assert transport(up, "G") == m
    for m in enumerate_morphisms("pm", s, s):
        up = transport(m, "C")
        assert is_inductive_preradiant(up).valid
        assert transport(up, "G") == m


@pytest.mark.parametrize("name", sorted(fixtures.lr_fixtures()))
def test_preradiants_transport_to_premorphisms(name):
    c = build_C(fixtures.lr_fixtures()[name])
    for m in enumerate_morphisms("ip", c, c):
        assert is_premorphism(transport(m, "G")).valid


def test_compose_identity_is_neutral():
    s = fixtures.ex6_3()
    for m in enumerate_morphisms("rm", s, s):
        assert compose(m, identity_morphism(s)) == m
        assert compose(identity_morphism(s), m) == m


def test_compose_requires_matching_middle():
    m1 = identity_morphism(fixtures.ex6_3())
    m2 = identity_morphism(fixtures.ex6_5())
    with pytest.raises(ValueError):
        compose(m2, m1)


def test_composition_stays_in_class(census_lrs_2):
    small = census_lrs_2[:5]
    for s1, s2, s3 in product(small, repeat=3):
        pm12 = enumerate_morphisms("pm", s1, s2)
        pm23 = enumerate_morphisms("pm", s2, s3)
        for f in pm12:
            for g in pm23:
                assert is_premorphism(compose(g, f)).valid


def test_radiant_after_preradiant_is_preradiant(census_lic_2):
    small = census_lic_2[:5]
    for t1, t2, t3 in product(small, repeat=3):
        ips = enumerate_morphisms("ip", t1, t2)
        irs = enumerate_morphisms("ir", t2, t3)
        for f in ips:
            for g in irs:
                assert is_inductive_preradiant(compose(g, f)).valid


def test_premorphisms_preserve_plus_image_and_order(census_lrs_2):
    from constella.core import natural_order

    for s1, s2 in product(census_lrs_2[:6], repeat=2):
        order2 = natural_order(s2)
        for m in enumerate_morphisms("pm", s1, s2):
            image2 = set(s2.plus.values())
            for e in set(s1.plus.values()):
                assert m.mapping[e] in image2
            for (a, b) in natural_order(s1):
                assert (m.mapping[a], m.mapping[b]) in order2


def _maps_by_origin():
    """One map on ex6_6 or its constellation from each way a map is made."""
    s = fixtures.ex6_6()
    t = build_C(s)
    sz = expand_constellation(t)
    found = enumerate_morphisms("pm", s, s)
    return {
        "constructor": MorphismMap(s, s, {x: s.carrier[0] for x in s.carrier}),
        "search": found[-1],
        "compose": compose(found[-1], found[1]),
        "iota": iota(t, sz),
        "extend": extend(enumerate_morphisms("ip", t, t)[-1], sz),
    }


@pytest.mark.parametrize(
    "origin", ["constructor", "search", "compose", "iota", "extend"])
def test_the_labelled_map_views_are_copies(origin):
    m = _maps_by_origin()[origin]
    kinds = (("rm", "pm") if isinstance(m.source, LeftRestrictionSemigroupoid)
             else ("ir", "ip"))

    def state():
        return (hash(m), m.images, dict(m.mapping), m.as_function(),
                [check_morphism(kind, m).violations for kind in kinds])

    before = state()
    view, other = m.mapping, m.target.carrier[-1]
    for x in view:
        view[x] = other
    view.clear()
    assert state() == before
    twin = MorphismMap(m.source, m.target, m.mapping)
    assert twin == m and hash(twin) == hash(m)
