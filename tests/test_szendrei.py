import pytest

from constella import fixtures
from constella.constellation import corestriction, pseudo_product
from constella.functor import build_C, build_G
from constella.morphism import (
    MorphismMap,
    compose,
    identity_morphism,
    is_inductive_preradiant,
    is_inductive_radiant,
)
from constella.szendrei import (
    Compose,
    Corestrict,
    Leaf,
    MeetUndefinedError,
    Plus,
    SzendreiElement,
    evaluate_term,
    expand_constellation,
    expand_semigroupoid,
    extend,
    generation_decomposition,
    iota,
)


def C(name):
    return build_C(fixtures.all_fixtures()[name])


def test_szendrei_element_invariants():
    with pytest.raises(ValueError):
        SzendreiElement({"a"}, "b")
    a = SzendreiElement({"x", "x+"}, "x")
    b = SzendreiElement(["x+", "x"], "x")
    assert a == b and hash(a) == hash(b)
    assert str(a) == "x_x+'x"


def test_expand_singleton():
    sz = expand_semigroupoid(fixtures.singleton())
    el = SzendreiElement({"e"}, "e")
    assert sz.carrier == (el,)
    assert sz.table.comp == {(el, el): el}


def test_expand_ex6_5_has_three_elements():
    sz = expand_semigroupoid(fixtures.ex6_5())
    assert set(sz.carrier) == {
        SzendreiElement({"x+"}, "x+"),
        SzendreiElement({"x+", "x"}, "x+"),
        SzendreiElement({"x+", "x"}, "x"),
    }


def test_expand_ex6_3_size():
    # plus is the identity there, so every subset is a singleton
    assert len(expand_semigroupoid(fixtures.ex6_3()).carrier) == 3


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_expansions_pass_all_checks(name):
    s = fixtures.all_fixtures()[name]
    assert expand_semigroupoid(s).validate().valid
    assert expand_constellation(build_C(s)).validate().valid


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_expansion_values_are_carrier_members(name):
    s = fixtures.all_fixtures()[name]
    t = build_C(s)
    for sz in (expand_semigroupoid(s), expand_constellation(t),
               expand_constellation(expand_constellation(t))):
        members = {id(p) for p in sz.carrier}
        assert all(id(v) in members for v in sz.table.comp.values())
        assert all(id(v) in members for v in sz.plus.values())


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_expansion_coherence_identities(name):
    s = fixtures.all_fixtures()[name]
    t = build_C(s)
    sz_t = expand_constellation(t)
    assert sz_t == build_C(expand_semigroupoid(s))
    assert sz_t == build_C(expand_semigroupoid(build_G(t)))


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_expansion_order_matches_both_characterizations(name):
    s = fixtures.all_fixtures()[name]
    t = build_C(s)
    sz = expand_constellation(t)
    comp = t.table.comp
    for p in sz.carrier:
        for q in sz.carrier:
            a, b = p.anchor, q.anchor
            a_plus = t.plus[a]
            formula = (a, b) in t.order and all(
                comp.get((a_plus, y)) in p.subset for y in q.subset
            )
            assert ((p, q) in sz.order) == formula


def test_iota_formulas_and_injectivity():
    t = C("ex6_5")
    emb = iota(t)
    assert emb.mapping["x"] == SzendreiElement({"x+", "x"}, "x")
    assert emb.mapping["x+"] == SzendreiElement({"x+"}, "x+")
    sing = C("singleton")
    assert iota(sing).mapping["e"] == SzendreiElement({"e"}, "e")
    for name in sorted(fixtures.all_fixtures()):
        m = iota(C(name))
        assert len(set(m.mapping.values())) == len(m.mapping)
        assert is_inductive_preradiant(m).valid


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_iota_pseudo_product_identity(name):
    # iota(x) ⊗ iota(y) = iota(x)+ ⊗ iota(x ⊗ y) whenever x|y+ exists
    t = C(name)
    sz = expand_constellation(t)
    emb = iota(t, sz).mapping
    for x in t.carrier:
        for y in t.carrier:
            c = corestriction(t, x, t.plus[y])
            if not c.exists:
                continue
            xy = pseudo_product(t, x, y)
            lhs = pseudo_product(sz, emb[x], emb[y])
            rhs = pseudo_product(sz, sz.plus[emb[x]], emb[xy])
            assert lhs == rhs is not None


def test_generation_decomposition_examples():
    t = C("ex6_5")
    sz = expand_constellation(t)
    e_only = SzendreiElement({"x+"}, "x+")
    both_plus = SzendreiElement({"x+", "x"}, "x+")
    both_x = SzendreiElement({"x+", "x"}, "x")
    assert isinstance(generation_decomposition(sz, e_only), Leaf)
    term = generation_decomposition(sz, both_plus)
    assert isinstance(term, Plus) and isinstance(term.inner, Leaf)
    assert term.inner.element == "x"
    term = generation_decomposition(sz, both_x)
    assert isinstance(term, Leaf) and term.element == "x"
    for el in sz.carrier:
        term = generation_decomposition(sz, el)
        assert evaluate_term(term, t, sz) == el
    # an element with a three-member subset needs corestriction + composition
    t3 = C("ex6_7")
    sz3 = expand_constellation(t3)
    wide = SzendreiElement({"y", "y+", "s"}, "y")
    term = generation_decomposition(sz3, wide)
    assert isinstance(term, Compose) and isinstance(term.left, Corestrict)
    assert evaluate_term(term, t3, sz3) == wide


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_generation_witnesses_evaluate_back(name):
    t = C(name)
    sz = expand_constellation(t)
    for el in sz.carrier:
        assert evaluate_term(generation_decomposition(sz, el), t, sz) == el


def test_generation_rejects_foreign_element():
    sz = expand_constellation(C("singleton"))
    with pytest.raises(ValueError):
        generation_decomposition(sz, SzendreiElement({"zz"}, "zz"))


def test_corestrict_term_evaluation_uses_the_expansion():
    t = C("ex6_3")
    sz = expand_constellation(t)
    term = Corestrict(Plus(Leaf("e")), Plus(Leaf("f")))
    assert evaluate_term(term, t, sz) == SzendreiElement({"0"}, "0")


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_extend_identity_is_anchor_projection(name):
    t = C(name)
    sz = expand_constellation(t)
    big = extend(identity_morphism(t), sz)
    assert is_inductive_radiant(big).valid
    assert all(big.mapping[el] == el.anchor for el in sz.carrier)
    emb = iota(t, sz)
    assert compose(big, emb).mapping == {x: x for x in t.carrier}


def test_extend_iota_restricts_to_iota():
    t = C("ex6_5")
    sz = expand_constellation(t)
    emb = iota(t, sz)
    big = extend(emb)
    assert compose(big, emb).mapping == emb.mapping


def test_extend_meet_fold_ignores_subset_order():
    t = C("ex6_6")
    sz = expand_constellation(t)
    phi = identity_morphism(t)
    big = extend(phi, sz)
    for el in sz.carrier:
        for ordering in _orderings(sorted(el.subset)):
            acc = t.plus[ordering[0]]
            ok = True
            for a in ordering[1:]:
                c = corestriction(t, acc, t.plus[a])
                if not c.exists:
                    ok = False
                    break
                acc = c.value
            assert ok
            assert t.table.comp[(acc, el.anchor)] == big.mapping[el]


def _orderings(items):
    from itertools import permutations

    return list(permutations(items))


def test_extend_rejects_component_crossing_images():
    t = C("ex6_6")
    mapping = {x: x for x in t.carrier}
    mapping["x"] = "e"  # x+ and e live in different components
    bad = MorphismMap(t, t, mapping)
    assert not is_inductive_preradiant(bad).valid
    with pytest.raises(MeetUndefinedError):
        extend(bad)
