import random
from collections import Counter
from itertools import chain, combinations, product

import pytest

from constella import fixtures
from constella.constellation import OrderedConstellation, corestriction
from constella.core import LeftRestrictionSemigroupoid, PartialTable
from constella.enumerate import (
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from constella.functor import build_C, build_G
from constella.groups import cyclic_group, symmetric_group_3
from constella.morphism import (
    CapExceededError,
    MorphismMap,
    compose,
    enumerate_morphisms,
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
    _expansion_size,
    evaluate_through,
    expand_constellation,
    expand_semigroupoid,
    extend,
    generation_decomposition,
    iota,
)
from test_constellation import _ref_pseudo_product


def C(name):
    return build_C(fixtures.all_fixtures()[name])


GROUPS = {**{f"Z_{n}": cyclic_group(n) for n in range(2, 7)},
          "S_3": symmetric_group_3()}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_expansions_meet_their_closed_forms(name):
    # For a group G of order n, Sz(G) = {(A, g) : 1, g in A} has
    # (n + 1) 2^(n-2) elements and 2^(n-1) plus-elements, the (A, 1)
    # (Szendrei 1989).
    g = GROUPS[name]
    n = len(g.carrier)
    sz, sz_c = expand_semigroupoid(g), expand_constellation(build_C(g))
    assert len(sz.carrier) == (n + 1) * 2 ** (n - 2)
    image = sz.plus_image()
    assert len(image) == 2 ** (n - 1)
    assert {p.anchor for p in image} == {g.carrier[g.plus_row[0]]}
    assert g.validate().valid
    assert sz.validate().valid and sz_c.validate().valid
    assert build_C(sz) == sz_c


def test_expansion_size_is_the_closed_form():
    census = [s for n in (1, 2, 3) for s in enumerate_lr_semigroupoids(n)]
    for s in [*fixtures.all_fixtures().values(), *GROUPS.values(), *census]:
        assert _expansion_size(s.plus_row) == len(expand_semigroupoid(s).carrier)
    # read from the closed form only: Sz(Z_30) is never built
    assert _expansion_size(cyclic_group(30).plus_row) == 31 * 2**28


def test_oversized_expansions_are_refused_before_they_are_built(monkeypatch):
    s = cyclic_group(5)  # |Sz| = 48: 2,304 table cells
    t = build_C(s)
    monkeypatch.setenv("CONSTELLA_CAP", "2303")
    with monkeypatch.context() as m:
        # the subsets A are drawn after the cap check, so never here
        m.setattr("constella.szendrei.combinations", None)
        for expand, x in ((expand_semigroupoid, s), (expand_constellation, t)):
            with pytest.raises(CapExceededError, match="48 elements .* cap 2303"):
                expand(x)
    monkeypatch.setenv("CONSTELLA_CAP", "2304")
    assert len(expand_semigroupoid(s).carrier) == 48
    assert len(expand_constellation(t).carrier) == 48
    # values up to 8 set the census size cap, not this one
    monkeypatch.setenv("CONSTELLA_CAP", "8")
    assert len(expand_semigroupoid(s).carrier) == 48


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
            xy = _ref_pseudo_product(t, x, y)
            lhs = _ref_pseudo_product(sz, emb[x], emb[y])
            rhs = _ref_pseudo_product(sz, sz.plus[emb[x]], emb[xy])
            assert lhs == rhs is not None


def _ref_evaluate_term(term, base, sz):
    """A term evaluated inside the expansion sz of the constellation base,
    each leaf x sent to iota(x)."""
    return evaluate_through(term, iota(base, sz).mapping, sz)


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
        assert _ref_evaluate_term(term, t, sz) == el
    # an element with a three-member subset needs corestriction + composition
    t3 = C("ex6_7")
    sz3 = expand_constellation(t3)
    wide = SzendreiElement({"y", "y+", "s"}, "y")
    term = generation_decomposition(sz3, wide)
    assert isinstance(term, Compose) and isinstance(term.left, Corestrict)
    assert _ref_evaluate_term(term, t3, sz3) == wide


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_generation_witnesses_evaluate_back(name):
    t = C(name)
    sz = expand_constellation(t)
    for el in sz.carrier:
        assert _ref_evaluate_term(generation_decomposition(sz, el), t, sz) == el


@pytest.mark.parametrize("base", ["ex6_7", "Z_5"])
def test_the_term_list_builds_the_positions_once(base, monkeypatch):
    # theorems decomposes every element of an expansion; the positions are
    # built at most once over the walk, with the expansion's index, and
    # each term is the one a call on a fresh copy of the expansion gives
    import constella.constellation as constellation_module
    import constella.szendrei as szendrei_module
    t = build_C(fixtures.ex6_7() if base == "ex6_7" else cyclic_group(5))
    sz = expand_constellation(t)
    built = []
    for module in (constellation_module, szendrei_module):
        monkeypatch.setattr(module, "_positions",
                            lambda c, f=module._positions: built.append(c)
                            or f(c))
    terms = [generation_decomposition(sz, el) for el in sz.carrier]
    assert len(terms) == len(sz.carrier) == (12 if base == "ex6_7" else 48)
    assert len(built) <= 1
    fresh = [generation_decomposition(expand_constellation(t), el)
             for el in sz.carrier]
    assert list(map(repr, terms)) == list(map(repr, fresh))


def test_generation_rejects_foreign_element():
    sz = expand_constellation(C("singleton"))
    with pytest.raises(ValueError):
        generation_decomposition(sz, SzendreiElement({"zz"}, "zz"))


def test_corestrict_term_evaluation_uses_the_expansion():
    t = C("ex6_3")
    sz = expand_constellation(t)
    term = Corestrict(Plus(Leaf("e")), Plus(Leaf("f")))
    assert _ref_evaluate_term(term, t, sz) == SzendreiElement({"0"}, "0")


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


# --- the labelled constructions, kept as the reference ---
#
# These are the expansion carriers (every (A, a) built as an element and
# sorted on the elements' own keys), the expansions, iota and extend as
# they were written on the labelled views (comp, plus, order) and the
# public constructors, which check and code the labelled tables.  One
# change: the semigroupoid expansion looks up the products of a subset in
# carrier order, where it iterated the frozenset, whose order depends on
# the hash seed for str labels, so that the KeyError names a
# seed-independent pair.


def _ref_sz_carrier(carrier, plus):
    """All (A, a) over the plus-classes, in one canonical order."""
    classes = {}
    for x in carrier:
        classes.setdefault(plus[x], []).append(x)
    elements = []
    for e, members in classes.items():
        rest = [x for x in members if x != e]
        for k in range(len(rest) + 1):
            for combo in combinations(sorted(rest), k):
                subset = frozenset(combo) | {e}
                for a in subset:
                    elements.append(SzendreiElement(subset, a))
    return tuple(sorted(elements))


def _ref_member_lookup(carrier):
    index = {(p.subset, p.anchor): p for p in carrier}

    def member(subset, anchor):
        found = index.get((frozenset(subset), anchor))
        return found if found is not None else SzendreiElement(subset, anchor)

    return member


def _ref_expand_semigroupoid(s):
    comp, base_plus = s.table.comp, s.plus
    carrier = _ref_sz_carrier(s.carrier, base_plus)
    member = _ref_member_lookup(carrier)
    sz_comp = {}
    for p in carrier:
        for q in carrier:
            ab = comp.get((p.anchor, q.anchor))
            if ab is None:
                continue
            ab_plus = base_plus[ab]
            A = [x for x in s.carrier if x in p.subset]
            B = [y for y in s.carrier if y in q.subset]
            subset = {comp[(ab_plus, x)] for x in A}
            subset |= {comp[(p.anchor, y)] for y in B}
            sz_comp[(p, q)] = member(subset, ab)
    plus = {p: member(p.subset, base_plus[p.anchor]) for p in carrier}
    return LeftRestrictionSemigroupoid(PartialTable(carrier, sz_comp), plus)


def _ref_expand_constellation(t):
    comp, base_plus, base_order = t.table.comp, t.plus, t.order
    carrier = _ref_sz_carrier(t.carrier, base_plus)
    member = _ref_member_lookup(carrier)
    sz_comp = {}
    for p in carrier:
        for q in carrier:
            ab = comp.get((p.anchor, q.anchor))
            if ab is None:
                continue
            images = [comp.get((p.anchor, y)) for y in q.subset]
            if any(img is None or img not in p.subset for img in images):
                continue
            sz_comp[(p, q)] = member(p.subset, ab)
    plus = {p: member(p.subset, base_plus[p.anchor]) for p in carrier}
    order = set()
    for p in carrier:
        for q in carrier:
            if (p.anchor, q.anchor) not in base_order:
                continue
            a_plus = base_plus[p.anchor]
            images = [comp.get((a_plus, y)) for y in q.subset]
            if any(img is None or img not in p.subset for img in images):
                continue
            order.add((p, q))
    return OrderedConstellation(PartialTable(carrier, sz_comp), plus, order)


def _ref_iota(t, expansion):
    plus = t.plus
    mapping = {x: SzendreiElement({plus[x], x}, x) for x in t.carrier}
    return MorphismMap(t, expansion, mapping)


def _ref_meet_fold(target, elements):
    acc = elements[0]
    for e in elements[1:]:
        c = corestriction(target, acc, e)
        if not c.exists:
            raise MeetUndefinedError(f"no meet of {acc!r} and {e!r}")
        acc = c.value
    return acc


def _ref_extend(phi, expansion):
    target, f = phi.target, phi.mapping
    comp, plus = target.table.comp, target.plus
    mapping = {}
    for el in expansion.carrier:
        plusses = [plus[f[a]] for a in sorted(el.subset)]
        m = _ref_meet_fold(target, plusses)
        value = comp.get((m, f[el.anchor]))
        if value is None:
            raise MeetUndefinedError(
                f"{m!r} does not compose with {f[el.anchor]!r}"
            )
        mapping[el] = value
    return MorphismMap(expansion, target, mapping)


def _outcome(f, *args):
    """f(*args), or the type and text of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the outcome compared is the type and text
        return type(exc), str(exc)


def _failed(outcome):
    return isinstance(outcome, tuple)


def _assert_members(m):
    """Every image of the map m is a member of its target's carrier."""
    members = {id(p) for p in m.target.carrier}
    assert all(id(v) in members for v in m.mapping.values())


def _shifts(t):
    """The identity and the maps x -> the element one or two places after
    x in the carrier (cyclically), which may fail the meet fold."""
    c = t.carrier
    for k in range(min(len(c), 3)):
        yield MorphismMap(t, t, {x: c[(i + k) % len(c)] for i, x in enumerate(c)})


def _assert_matches(x):
    """The expansion of x, and for a constellation iota and the extensions
    of iota and of _shifts(x), equal the reference's, or fail with the same
    exception type and text; returns the expansion's outcome."""
    lrs = isinstance(x, LeftRestrictionSemigroupoid)
    got = _outcome(expand_semigroupoid if lrs else expand_constellation, x)
    want = _outcome(_ref_expand_semigroupoid if lrs
                    else _ref_expand_constellation, x)
    assert got == want, x
    if lrs or _failed(got):
        return got
    emb = iota(x, got)
    assert emb == _ref_iota(x, got)
    _assert_members(emb)
    for phi in (emb, *_shifts(x)):
        assert _outcome(extend, phi, got) == _outcome(_ref_extend, phi, got), x
    return got


def _census(n):
    lrs = [s for k in range(1, n + 1) for s in enumerate_lr_semigroupoids(k)]
    lic = [t for k in range(1, n + 1) for t in enumerate_li_constellations(k)]
    return lrs, lic


def test_expansions_match_the_labelled_references():
    fx = list(fixtures.all_fixtures().values())
    lrs, lic = _census(3)
    lrs, lic = [*fx, *lrs], [*map(build_C, fx), *lic]
    t = build_C(fixtures.ex6_7())
    for _ in range(3):
        t = _assert_matches(t)
        lic.append(t)
        lrs.append(build_G(t))
    for x in chain(lrs, lic):
        assert not _failed(_assert_matches(x))


def test_expansion_carriers_are_in_the_order_of_the_labelled_reference():
    # the index-keyed sort against the sort of the elements themselves,
    # on str carriers and on the Szendrei carriers of iterated expansions
    lrs = [*fixtures.all_fixtures().values(), *GROUPS.values()]
    lic = list(map(build_C, lrs))
    t = build_C(fixtures.ex6_7())
    for _ in range(3):
        t = expand_constellation(t)
        lic.append(t)
        lrs.append(build_G(t))
    for x in chain(lrs, lic):
        expand = (expand_semigroupoid
                  if isinstance(x, LeftRestrictionSemigroupoid)
                  else expand_constellation)
        assert expand(x).carrier == _ref_sz_carrier(x.carrier, x.plus), x


def test_extensions_match_the_reference_on_the_universal_property_pairs(
        census_lic_2):
    extended = 0
    for T, T2 in product(census_lic_2, repeat=2):
        sz = expand_constellation(T)
        for phi in enumerate_morphisms("ip", T, T2):
            big = extend(phi, sz)
            assert big == _ref_extend(phi, sz)
            _assert_members(big)
            extended += 1
    assert extended == 172


def _table_edits(table):
    carrier, comp = table.carrier, table.comp
    for a, b in product(carrier, repeat=2):
        for v in (None, *carrier):
            if comp.get((a, b)) != v:
                edited = {k: w for k, w in comp.items() if k != (a, b)}
                if v is not None:
                    edited[a, b] = v
                yield PartialTable(carrier, edited)


def _edits(x):
    """Every single edit of x: a table cell, a plus image, or (for a
    constellation) one order pair, where the order stays a partial order."""
    if isinstance(x, LeftRestrictionSemigroupoid):
        def build(table=x.table, plus=x.plus):
            return LeftRestrictionSemigroupoid(table, plus)
    else:
        def build(table=x.table, plus=x.plus, order=x.order):
            return OrderedConstellation(table, plus, order)
    for table in _table_edits(x.table):
        yield build(table=table)
    for a, e in product(x.carrier, repeat=2):
        if x.plus[a] != e:
            yield build(plus={**x.plus, a: e})
    if not isinstance(x, LeftRestrictionSemigroupoid):
        for pair in product(x.carrier, repeat=2):
            if pair[0] != pair[1]:
                try:
                    yield build(order=x.order ^ {pair})
                except ValueError:  # not a partial order
                    pass


def _kind(outcome):
    if not _failed(outcome):
        return "built"
    kind, text = outcome
    if kind is KeyError:
        return "KeyError"
    return f"{kind.__name__}: {text.split(':')[0].split(' (')[0]}"


# Outcomes of the expansions on the single edits of the n <= 2 censuses.
EXPANSION_EDIT_OUTCOMES = {
    "lrs": {"built": 33, "KeyError": 42, "ValueError: comp entry": 12,
            "ValueError: anchor must belong to the subset": 4},
    "lic": {"built": 54, "ValueError: order is not a partial order": 47,
            "ValueError: anchor must belong to the subset": 6},
}


@pytest.mark.parametrize("kind", ["lrs", "lic"])
def test_expansions_match_the_reference_on_every_single_edit(
        kind, census_lrs_2, census_lic_2):
    census = census_lrs_2 if kind == "lrs" else census_lic_2
    kinds = Counter(_kind(_assert_matches(x))
                    for x in chain.from_iterable(map(_edits, census)))
    assert kinds == EXPANSION_EDIT_OUTCOMES[kind]


def _random_structure(rng, lrs):
    carrier = ("0", "1", "2")
    comp = {(a, b): rng.choice(carrier) for a, b in product(carrier, repeat=2)
            if rng.random() < 0.6}
    plus = {x: rng.choice(carrier) for x in carrier}
    table = PartialTable(carrier, comp)
    if lrs:
        return LeftRestrictionSemigroupoid(table, plus)
    # an order inside a random linear order, closed under transitivity
    rank = rng.sample(carrier, 3)
    order = {(x, x) for x in carrier}
    order |= {(a, b) for a, b in product(carrier, repeat=2)
              if rank.index(a) < rank.index(b) and rng.random() < 0.5}
    order |= {(a, c) for a, b in order for b2, c in order if b == b2}
    return OrderedConstellation(table, plus, order)


def _near_census(rng, census):
    """A census member with one to three random table cell or plus edits
    (an edit may leave its cell or image as it was)."""
    x = rng.choice(census)
    carrier, comp, plus = x.carrier, x.table.comp, x.plus
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(carrier), rng.choice(carrier)
        if rng.random() < 0.2:
            plus[a] = b
        elif rng.random() < 0.3:
            comp.pop((a, b), None)
        else:
            comp[a, b] = rng.choice(carrier)
    table = PartialTable(carrier, comp)
    if isinstance(x, LeftRestrictionSemigroupoid):
        return LeftRestrictionSemigroupoid(table, plus)
    return OrderedConstellation(table, plus, x.order)


def test_expansions_match_the_reference_on_random_invalid_structures():
    rng = random.Random(1919)
    lrs3, lic3 = (list(enumerate_lr_semigroupoids(3)),
                  list(enumerate_li_constellations(3)))
    kinds = Counter()
    for _ in range(300):
        for kind, census in (("lrs", lrs3), ("lic", lic3)):
            kinds[kind, _kind(_assert_matches(_random_structure(
                rng, kind == "lrs")))] += 1
            kinds[kind, _kind(_assert_matches(_near_census(rng, census)))] += 1
    assert kinds == {
        ("lrs", "built"): 88, ("lrs", "KeyError"): 441,
        ("lrs", "ValueError: comp entry"): 53,
        ("lrs", "ValueError: anchor must belong to the subset"): 18,
        ("lic", "built"): 149,
        ("lic", "ValueError: order is not a partial order"): 236,
        ("lic", "ValueError: anchor must belong to the subset"): 215}
