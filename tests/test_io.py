import pytest
from hypothesis import given
from hypothesis import strategies as st

from constella import fixtures
from constella.constellation import OrderedConstellation
from constella.core import LeftRestrictionSemigroupoid
from constella.enumerate import enumerate_li_constellations
from constella.functor import build_C
from constella.groups import cyclic_group
from constella.io import (
    ParseError,
    element_labels,
    parse_morphism_text,
    parse_structure,
    render_report,
    serialize_morphism,
    serialize_structure,
)
from constella.szendrei import expand_constellation, expand_semigroupoid


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_serialize_parse_roundtrip_semigroupoid(name):
    s = fixtures.all_fixtures()[name]
    text = serialize_structure(s)
    assert parse_structure(text) == s
    assert serialize_structure(parse_structure(text)) == text


@pytest.mark.parametrize("name", sorted(fixtures.all_fixtures()))
def test_serialize_parse_roundtrip_constellation(name):
    t = build_C(fixtures.all_fixtures()[name])
    text = serialize_structure(t)
    assert parse_structure(text) == t
    assert serialize_structure(parse_structure(text)) == text


def test_fixture_files_match_builders(fixture_dir):
    for name, s in fixtures.all_fixtures().items():
        text = (fixture_dir / f"{name}.sgpd").read_text()
        assert parse_structure(text) == s, name


def test_singleton_serialization_is_byte_exact():
    expected = "kind semigroupoid\nelements e\nplus e e\ncomp e e e\n"
    assert serialize_structure(fixtures.singleton()) == expected


def test_constellation_serialization_emits_derived_order():
    text = serialize_structure(build_C(fixtures.ex6_3()))
    assert "order 0 e" in text and "order 0 f" in text


def test_comments_and_blank_lines_are_ignored():
    text = "# header\nkind semigroupoid\n\nelements e  # trailing\nplus e e\ncomp e e e\n"
    s = parse_structure(text)
    assert isinstance(s, LeftRestrictionSemigroupoid)
    assert s.carrier == ("e",)


def test_order_lines_build_the_closure():
    text = (
        "kind constellation\nelements a b c\n"
        "plus a a\nplus b b\nplus c c\n"
        "comp a a a\ncomp b b b\ncomp c c c\n"
        "order a b\norder b c\n"
    )
    t = parse_structure(text)
    assert isinstance(t, OrderedConstellation)
    assert ("a", "c") in t.order
    assert ("a", "a") in t.order


def test_serializer_emits_transitive_reduction():
    text = (
        "kind constellation\nelements a b c\n"
        "plus a a\nplus b b\nplus c c\n"
        "comp a a a\ncomp b b b\ncomp c c c\n"
        "order a b\norder b c\n"
    )
    out = serialize_structure(parse_structure(text))
    assert "order a b" in out and "order b c" in out
    assert "order a c" not in out and "order a a" not in out


def _ref_transitive_reduction(order):
    """The covering pairs of an order given by its labelled pairs."""
    strict = {(a, b) for a, b in order if a != b}
    reduced = set()
    for a, b in strict:
        if not any((a, z) in strict and (z, b) in strict for z in
                   {p[1] for p in strict if p[0] == a}):
            reduced.add((a, b))
    return reduced


def test_serialized_order_is_the_labelled_transitive_reduction():
    # the n <= 3 census, Sz^1-Sz^3 of C(ex6_7) and Sz(C(Z_5))
    lic = [t for n in (1, 2, 3) for t in enumerate_li_constellations(n)]
    t = build_C(fixtures.ex6_7())
    for _ in range(3):
        t = expand_constellation(t)
        lic.append(t)
    lic.append(expand_constellation(build_C(cyclic_group(5))))
    for t in lic:
        labels = element_labels(t.carrier)
        want = sorted(f"order {labels[a]} {labels[b]}"
                      for a, b in _ref_transitive_reduction(t.order))
        lines = serialize_structure(t).splitlines()
        assert [line for line in lines if line.startswith("order ")] == want


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty file"),
        ("kind widget\n", "kind"),
        ("kind semigroupoid\nelements\n", "empty elements"),
        ("kind semigroupoid\nelements a a\nplus a a\n", "repeated"),
        ("kind semigroupoid\nelements a^b\nplus a^b a^b\n", "bad element id"),
        ("kind semigroupoid\nelements a\nplus a a\ncomp a a a\ncomp a a a\n",
         "duplicate comp"),
        ("kind semigroupoid\nelements a\nplus a a\norder a a\n",
         "not allowed"),
        ("kind semigroupoid\nelements a\nplus a a\nplus a a\n",
         "duplicate plus"),
        ("kind semigroupoid\nelements a\n", "missing plus"),
        ("kind semigroupoid\nelements a\nplus a b\n", "unknown element"),
        ("kind semigroupoid\nelements a\nplus a a\nwidget a\n", "unknown directive"),
        ("kind constellation\nelements a b\nplus a a\nplus b b\n"
         "comp a a a\ncomp b b b\norder a b\norder b a\n", "not a partial order"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert fragment in str(err.value)


def test_parse_error_carries_line_numbers():
    text = "kind semigroupoid\nelements a\nplus a a\ncomp a a b\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 4


def test_unknown_element_in_order_lines_names_the_first():
    bad = [f"order a z{i}" for i in range(20)]
    text = "kind constellation\nelements a\nplus a a\n" + "\n".join(bad)
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert str(err.value) == "line 4: unknown element 'z0'"


def test_expansion_labels_are_valid_ids():
    sz = expand_semigroupoid(fixtures.ex6_5())
    labels = element_labels(sz.carrier)
    text = serialize_structure(sz)
    reparsed = parse_structure(text)
    assert len(reparsed.carrier) == len(sz.carrier)
    assert sorted(labels.values()) == list(reparsed.carrier)


def test_morphism_parse_and_serialize():
    fx = fixtures.all_fixtures()
    structures = {"a.sgpd": fx["singleton"], "b.sgpd": fx["pair_split_plus"]}
    text = "source a.sgpd\ntarget b.sgpd\nmap e f\n"
    src_path, tgt_path, src, tgt, mapping = parse_morphism_text(
        text, structures.__getitem__
    )
    assert (src_path, tgt_path) == ("a.sgpd", "b.sgpd")
    assert mapping == {"e": "f"}
    out = serialize_morphism(src_path, tgt_path, mapping, src.carrier)
    assert out == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("target b.sgpd\nmap e e\n", "source and target"),
        ("source a.sgpd\ntarget b.sgpd\n", "not total"),
        ("source a.sgpd\ntarget b.sgpd\nmap e e\nmap e f\n", "duplicate map"),
        ("source a.sgpd\ntarget b.sgpd\nmap e zz\n", "not in target"),
        ("source a.sgpd\ntarget b.sgpd\nmap zz e\nmap e e\n", "not in source"),
    ],
)
def test_morphism_parse_errors(text, fragment):
    fx = fixtures.all_fixtures()
    structures = {"a.sgpd": fx["singleton"], "b.sgpd": fx["pair_split_plus"]}
    with pytest.raises(ParseError) as err:
        parse_morphism_text(text, structures.__getitem__)
    assert fragment in str(err.value)


def test_report_rendering_is_stable():
    from constella.core import Violation

    doc = render_report(
        valid=False,
        violations=[Violation("lr2", ("b", "a")), Violation("lr1", ("a",))],
        counts={"size": 2},
    )
    assert doc.index('"lr1"') < doc.index('"lr2"')
    assert doc == render_report(
        valid=False,
        violations=[Violation("lr1", ("a",)), Violation("lr2", ("b", "a"))],
        counts={"size": 2},
    )


def test_nested_expansion_serializes():
    szsz = expand_constellation(expand_constellation(build_C(fixtures.ex6_7())))
    assert len(szsz.carrier) == 20
    text = serialize_structure(szsz)
    reparsed = parse_structure(text)
    assert reparsed.validate().valid
    assert serialize_structure(reparsed) == text


# Fuzzing the structure parser: every text parses or raises ParseError, and
# on what parses, serialize∘parse is a fixed point.

_TOKENS = st.sampled_from([
    "kind", "elements", "plus", "comp", "order", "semigroupoid",
    "constellation", "a", "b", "c", "a+", "b'", "_", "#", "a#b", "a^b", "",
])


@st.composite
def _structure_texts(draw):
    """Texts shaped like structure files: a kind line, an elements line, and
    plus, comp and order lines over a few ids.  Half of them are then
    damaged: lines dropped, repeated, shuffled or mixed with arbitrary
    ones."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "a+", "b'", "1"]),
                        min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(["semigroupoid", "constellation"]))
    member = st.sampled_from(ids)
    lines = [f"kind {kind}", "elements " + " ".join(ids)]
    lines += [f"plus {x} {draw(member)}" for x in ids]
    comp = draw(st.dictionaries(st.tuples(member, member), member, max_size=6))
    lines += [f"comp {a} {b} {c}" for (a, b), c in comp.items()]
    if kind == "constellation":
        lines += draw(st.lists(st.builds("order {} {}".format, member, member),
                               max_size=3))
    if draw(st.booleans()):
        junk = st.one_of(st.lists(_TOKENS, max_size=4).map(" ".join),
                         st.text(max_size=12))
        lines = draw(st.lists(st.sampled_from(lines) | junk, max_size=12))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", " # c\n"]))


def _parses_or_rejects(text):
    try:
        s = parse_structure(text)
    except ParseError:
        return
    canonical = serialize_structure(s)
    again = parse_structure(canonical)
    assert again == s
    assert serialize_structure(again) == canonical


@given(_structure_texts())
def test_structure_shaped_texts_parse_or_raise_parse_error(text):
    _parses_or_rejects(text)


@given(st.text(max_size=200))
def test_arbitrary_texts_parse_or_raise_parse_error(text):
    _parses_or_rejects(text)


# Fuzzing the morphism parser the same way: every text parses or raises
# ParseError, and on what parses, parse∘serialize gives the same morphism.

_MORPHISM_FILES = {"a.sgpd": "singleton", "b.sgpd": "pair_split_plus"}


def _load_fixture(ref):
    return fixtures.all_fixtures()[_MORPHISM_FILES.get(ref, "ex6_3")]


@st.composite
def _morphism_texts(draw):
    """Texts shaped like morphism files: source and target lines, a map
    line from each source element into the target, and maybe one more map
    line over a few ids.  Half of them are then damaged as the structure texts
    are."""
    ref = st.sampled_from([*_MORPHISM_FILES, "c.sgpd"])
    label = st.sampled_from(["e", "f", "0", "zz"])
    source, target = draw(ref), draw(ref)
    value = st.sampled_from(_load_fixture(target).carrier)
    lines = [f"source {source}", f"target {target}"]
    lines += [f"map {x} {draw(value)}" for x in _load_fixture(source).carrier]
    lines += draw(st.lists(st.builds("map {} {}".format, label, label),
                           max_size=1))
    if draw(st.booleans()):
        junk = st.one_of(
            st.lists(st.sampled_from(["source", "target", "map", "e", "f",
                                      "a.sgpd", "#", ""]), max_size=4).map(" ".join),
            st.text(max_size=12))
        lines = draw(st.lists(st.sampled_from(lines) | junk, max_size=8))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n", " # c\n"]))


def _morphism_parses_or_rejects(text):
    try:
        parsed = parse_morphism_text(text, _load_fixture)
    except ParseError:
        return
    source_path, target_path, source, target, mapping = parsed
    assert set(mapping) == set(source.carrier)
    assert set(mapping.values()) <= set(target.carrier)
    text = serialize_morphism(source_path, target_path, mapping, source.carrier)
    assert parse_morphism_text(text, _load_fixture) == parsed


@given(_morphism_texts())
def test_morphism_shaped_texts_parse_or_raise_parse_error(text):
    _morphism_parses_or_rejects(text)


@given(st.text(max_size=200))
def test_arbitrary_morphism_texts_parse_or_raise_parse_error(text):
    _morphism_parses_or_rejects(text)
