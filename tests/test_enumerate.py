import gc
import hashlib
import tracemalloc
from collections import Counter
from itertools import chain, permutations, product
from math import factorial

import pytest

from constella import fixtures
from constella.cli import _record
from constella.coded import _table_rows
from constella.constellation import (
    OrderedConstellation,
    _c12_violations,
    _c34_violations,
)
from constella.core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _lr_violations,
    _s_violations,
    check_semigroupoid,
    holds,
)
from constella.enumerate import (
    CapExceededError,
    _plus_maps,
    are_isomorphic,
    canonical_form,
    carrier_labels,
    dedupe_up_to_iso,
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
    enumerate_semigroupoids,
)
from constella.functor import build_C
from constella.szendrei import expand_constellation
from constella.tables import (
    _least_tables,
    _reading_rows,
    _table_codes,
    _tables,
)
from constella.theorems import FROZEN_CENSUS_COUNTS
from test_exactness import (
    _c12_reference,
    _c34_reference,
    _index_reference,
    _lr_reference,
    _order_reference,
    _s_reference,
    coded_table,
    relabel,
)

LRS_4_DIGEST = \
    "d5a5a7e3431a8e2a605c52c92d2b218574d8df8c74515c1f2a27b21374b5a041"
LIC_4_DIGEST = \
    "df962000b5a9100167c4182763cad26c085f6beb9abce6889e178a920eab59ef"


def test_singleton_census():
    tables = list(enumerate_semigroupoids(1))
    assert len(tables) == 2  # empty table and the idempotent
    lrs = list(enumerate_lr_semigroupoids(1))
    assert len(lrs) == 1
    # the empty-composition table fails lr1, so only the idempotent survives
    assert lrs[0].table.comp == {("0", "0"): "0"}
    assert len(list(enumerate_li_constellations(1))) == 1


def test_census_counts_are_frozen():
    assert len(list(enumerate_lr_semigroupoids(2))) == 9
    assert len(list(enumerate_li_constellations(2))) == 9


# Bytes a held n = 4 lic census took, as _held_census measures them, with
# each structure stored labelled (a comp dict per table, a plus dict and an
# order frozenset per structure), on Python 3.11.
LABELLED_LIC_4_BYTES = 3_975_376
# The census as it is stored, with each distinct row, plus map, up-list and
# up held once (enumerate.py), took 671,184 bytes on Python 3.11, against
# 2,549,504 with none of them shared.  The bound allows 10% more.
SHARED_LIC_4_BYTES = 671_184 * 11 // 10


def _held_census(census, n):
    """(list(census(n)), the bytes that list holds): the memory allocated
    while it is built and still in use once it is, under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        structures = list(census(n))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return structures, held


@pytest.fixture(scope="module")
def lic_4_held():
    """The n = 4 lic census, built under tracemalloc, and its held bytes."""
    return _held_census(enumerate_li_constellations, 4)


@pytest.fixture(scope="module")
def census_4(lic_4_held):
    """The n = 4 censuses (lrs, lic), built once for this module."""
    return list(enumerate_lr_semigroupoids(4)), lic_4_held[0]


def test_a_held_census_takes_no_more_memory_than_a_labelled_one(lic_4_held):
    # Structures store their rows coded by carrier index and share the
    # census's tables; the labelled views are built on access, not held.
    structures, held = lic_4_held
    assert len(structures) == 3021
    assert held <= LABELLED_LIC_4_BYTES, held
    assert held <= SHARED_LIC_4_BYTES, held


def _held_once(values):
    """Whether each distinct value among values is one object."""
    values = list(values)
    return len({id(v) for v in values}) == len(set(values))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_distinct_row_plus_and_up_list_is_held_once(n, request):
    if n == 4:
        lrs, lic = request.getfixturevalue("census_4")
    else:
        lrs = list(enumerate_lr_semigroupoids(n))
        lic = list(enumerate_li_constellations(n))
    for census in (lrs, lic):
        assert _held_once(row for s in census for row in s.table.rows)
        assert _held_once(s.plus_row for s in census)
    assert _held_once(above for t in lic for above in t.up)
    assert _held_once(t.up for t in lic)


def test_each_table_and_plus_has_at_most_one_valid_order(census_4):
    # The census tries each (table, plus) pair with a superset of its valid
    # orders and yields every one that passes; one per pair keeps the
    # stream that of the filter over every partial order.
    for n, pairs in ((1, 1), (2, 9), (3, 130), (4, 3021)):
        census = census_4[1] if n == 4 else enumerate_li_constellations(n)
        orders = Counter(
            (t.table, frozenset(t.plus.items())) for t in census)
        assert len(orders) == pairs
        assert set(orders.values()) == {1}


def _ref_all_partial_orders(carrier):
    """Every partial order on the carrier, as frozensets of pairs: the
    reflexive relations that are antisymmetric and transitive."""
    reflexive = {(a, a) for a in carrier}
    strict = [(a, b) for a, b in product(carrier, repeat=2) if a != b]
    orders = []
    for mask in range(1 << len(strict)):
        order = reflexive | {p for i, p in enumerate(strict) if mask >> i & 1}
        if all((b, a) not in order for a, b in order if a != b) and all(
                (a, d) in order for a, b in order for c, d in order if b == c):
            orders.append(frozenset(order))
    return orders


def _reference_li_constellations(n):
    # every plus map and every partial order of the carrier for each table
    # passing c1/c2, filtered by the reference scans of c3/c4, wo1-wo3 and
    # then wo4-wo9
    carrier = carrier_labels(n)
    orders = _ref_all_partial_orders(carrier)
    for table in _tables(carrier, _c12_violations):
        for images in product(carrier, repeat=n):
            plus = dict(zip(carrier, images))
            if not holds(_c34_reference(table, plus)):
                continue
            for order in orders:
                if not holds(_order_reference(table, plus, order)):
                    continue
                t = OrderedConstellation(table, plus, order)
                if holds(_index_reference(t)):
                    yield t


def _reference_lr_semigroupoids(n):
    # every plus map for each table of the unpruned search passing s1-s3,
    # filtered by the reference scan of lr1-lr4
    carrier = carrier_labels(n)
    for table in _tables(carrier, _s_violations):
        for images in product(carrier, repeat=n):
            plus = dict(zip(carrier, images))
            if holds(_lr_reference(table, plus)):
                yield LeftRestrictionSemigroupoid(table, plus)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pruned_lrs_census_gives_the_stream_of_the_full_filter(n):
    built = list(enumerate_lr_semigroupoids(n))
    reference = list(_reference_lr_semigroupoids(n))
    assert [(s.table, s.plus) for s in built] == \
        [(s.table, s.plus) for s in reference]


def _assert_unit_lemma(x):
    """x+ x = x, x+ x+ = x+ and (x+)+ = x+ for every x."""
    comp, plus = x.table.comp, x.plus
    for a in x.carrier:
        e = plus[a]
        assert comp.get((e, a)) == a and comp.get((e, e)) == e, (x, a)
        assert plus[e] == e, (x, a)


def test_unit_lemma_on_both_censuses(census_4):
    for census in (enumerate_lr_semigroupoids, enumerate_li_constellations):
        for n in (1, 2, 3):
            for x in census(n):
                _assert_unit_lemma(x)
    for x in chain(*census_4):
        _assert_unit_lemma(x)


def _has_units(val):
    every = range(len(val))
    return all(any(val[e][x] == x and val[e][e] == e for e in every)
               for x in every)


@pytest.mark.parametrize(
    "violations", [_s_violations, _c12_violations], ids=["s", "c12"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_pruning_drops_exactly_the_tables_without_units(n, violations):
    # the censuses' table search yields the unpruned stream less the
    # tables on which some x has no e with ex = x and ee = e
    carrier = carrier_labels(n)
    full = list(_table_codes(carrier, violations))
    kept = [t for t in full if _has_units(t)]
    assert list(_table_codes(carrier, violations, True)) == kept
    assert 0 < len(kept) < len(full)


def test_unit_cut_is_exact_on_every_assignment():
    # with a generator that reports nothing, every value assignment the
    # choices allow is kept, so the cut alone decides which survive: it
    # must keep exactly those on which every x has a unit
    def nothing(D, val, rows):
        return iter(())

    cut = 0
    for n in (1, 2, 3):
        pairs = list(product(range(n), repeat=2))
        for mask in range(1 << len(pairs)):
            defined = [p for q, p in enumerate(pairs) if mask >> q & 1]
            every = _least_tables(n, nothing, defined, [])
            kept = [t for t in every
                    if _has_units(_table_rows(n, zip(defined, t)))]
            assert _least_tables(n, nothing, defined, [], True) == kept
            cut += len(every) - len(kept)
    assert cut > 0


def test_semigroupoid_census_keeps_the_unpruned_search():
    tables = list(enumerate_semigroupoids(4))
    assert len(tables) == 8108
    assert _stream_digest(tables) == S_4_DIGEST


@pytest.mark.parametrize("n", [1, 2, 3])
def test_built_orders_give_the_stream_of_the_all_orders_filter(n):
    built = list(enumerate_li_constellations(n))
    reference = list(_reference_li_constellations(n))
    assert [(t.table, t.plus, t.order) for t in built] == \
        [(t.table, t.plus, t.order) for t in reference]


def _assert_order_lemma(t):
    """What _candidate_orders builds from: e+ = e on T+, the order on T+
    is {(e, f) : ef defined}, and the down-set of an element of T+ lies
    inside T+."""
    image = set(t.plus_image())
    assert all(t.plus[e] == e for e in image), t
    assert {(e, f) for e, f in t.order if e in image and f in image} == \
        {(e, f) for e, f in t.table.defined if e in image and f in image}, t
    assert all(y in image for y, x in t.order if x in image), t


def test_order_lemma_on_the_census(census_4):
    for n in (1, 2, 3):
        for t in enumerate_li_constellations(n):
            _assert_order_lemma(t)
    for t in census_4[1]:
        _assert_order_lemma(t)


def test_order_lemma_on_the_valid_single_edits():
    # the valid items of the n <= 3 single-edit oracle in test_exactness,
    # which are exactly the edits landing in the census
    from test_exactness import (
        SINGLE_EDIT_COUNTS, _census, _lic_edits, _lrs_edits)

    lrs, lic = _census(3)
    checked = 0
    for census, edits, to_lic in ((lrs, _lrs_edits, build_C),
                                  (lic, _lic_edits, lambda t: t)):
        members = set(census)
        for base in census:
            for edited in edits(base):
                if edited in members:
                    _assert_order_lemma(to_lic(edited))
                    checked += 1
    assert checked == sum(valid for _, valid in SINGLE_EDIT_COUNTS.values())


def test_order_lemma_on_fixtures_and_expansions(all_fixtures):
    for s in all_fixtures.values():
        _assert_order_lemma(build_C(s))
    t = build_C(fixtures.ex6_7())
    for _ in range(3):
        t = expand_constellation(t)
        _assert_order_lemma(t)


def _records_digest(structures):
    return hashlib.sha256(
        "".join(_record(s) + "\n" for s in structures).encode()).hexdigest()


def test_size_4_census_streams_are_frozen(census_4):
    # the records `constella enumerate --kind {lrs,lic} --size 4` prints,
    # as the filter over every partial order produced them
    lrs, lic = census_4
    assert _records_digest(lrs) == LRS_4_DIGEST
    assert _records_digest(lic) == LIC_4_DIGEST


def test_build_C_is_a_bijection_onto_the_size_4_census(census_4):
    lrs, lic = census_4
    images = {build_C(s) for s in lrs}
    assert len(images) == len(lrs) == len(lic) == 3021
    assert images == set(lic)


def test_pruned_enumeration_matches_naive_oracle():
    for n in (1, 2):
        carrier = carrier_labels(n)
        pairs = sorted(product(carrier, repeat=2))
        naive = set()
        for mask in range(1 << len(pairs)):
            defined = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            for values in product(carrier, repeat=len(defined)):
                t = PartialTable(carrier, dict(zip(defined, values)))
                if check_semigroupoid(t).valid:
                    naive.add(t)
        assert set(enumerate_semigroupoids(n)) == naive


def test_enumeration_is_deterministic_and_duplicate_free():
    first = list(enumerate_lr_semigroupoids(2))
    second = list(enumerate_lr_semigroupoids(2))
    assert first == second
    assert len(set(first)) == len(first)
    lic = list(enumerate_li_constellations(2))
    assert len(set(lic)) == len(lic)


def test_all_structures_in_census_are_valid():
    for s in enumerate_lr_semigroupoids(2):
        assert s.validate().valid
    for t in enumerate_li_constellations(2):
        assert t.validate().valid


def test_partial_order_counts():
    assert len(_ref_all_partial_orders(carrier_labels(1))) == 1
    assert len(_ref_all_partial_orders(carrier_labels(2))) == 3
    assert len(_ref_all_partial_orders(carrier_labels(3))) == 19


def test_size_cap():
    with pytest.raises(CapExceededError):
        list(enumerate_semigroupoids(5))
    with pytest.raises(ValueError):
        list(enumerate_semigroupoids(0))


def test_isomorphic_to_itself_and_relabelings():
    s = fixtures.ex6_3()
    ok, perm = are_isomorphic(s, s)
    assert ok and perm == {x: x for x in s.carrier}
    swapped = relabel(s, {"0": "0", "e": "f", "f": "e"}, s.carrier)
    ok, perm = are_isomorphic(s, swapped)
    assert ok
    # bare tables too, as relabel takes them
    ok, perm = are_isomorphic(s.table, swapped.table)
    assert ok and relabel(s.table, perm, s.carrier) == swapped.table


def test_size_mismatch_is_a_fast_false():
    assert are_isomorphic(fixtures.ex6_3(), fixtures.ex6_5()) == (False, None)


def test_isomorphism_search_is_capped_at_eight():
    from constella.core import LeftRestrictionSemigroupoid

    labels = [str(i) for i in range(9)]
    table = PartialTable(labels, {(x, x): x for x in labels})
    big = LeftRestrictionSemigroupoid(table, {x: x for x in labels})
    with pytest.raises(CapExceededError):
        are_isomorphic(big, big)
    # a size mismatch is decided before the cap
    assert are_isomorphic(big, fixtures.singleton()) == (False, None)


def test_isomorphism_respects_plus():
    split = fixtures.pair_split_plus()
    constant = fixtures.pair_constant_plus()
    assert are_isomorphic(split, constant) == (False, None)


def test_census_contains_relabeled_ex6_5():
    target = build_C(fixtures.ex6_5())
    census = list(enumerate_li_constellations(2))
    assert any(are_isomorphic(t, target)[0] for t in census)


def _search_isomorphism(a, b):
    """The reference search: the first relabelling of a's carrier onto b's
    that maps a onto b, or None."""
    for image in permutations(b.carrier):
        mapping = dict(zip(a.carrier, image))
        if relabel(a, mapping, b.carrier) == b:
            return mapping
    return None


def _pairwise_dedupe(structures):
    reps = []
    for s in structures:
        if not any(_search_isomorphism(s, r) for r in reps):
            reps.append(s)
    return reps


@pytest.mark.parametrize("census", [
    enumerate_lr_semigroupoids, enumerate_li_constellations], ids=["lrs", "lic"])
def test_canonical_dedupe_matches_the_pairwise_scan(census):
    structures = list(census(3))
    reps = dedupe_up_to_iso(structures)
    assert reps == _pairwise_dedupe(structures)
    assert len(reps) == 25


def _automorphisms(s):
    """|Aut(s)|: the relabellings of the carrier that fix s."""
    return sum(relabel(s, dict(zip(s.carrier, image)), s.carrier) == s
               for image in permutations(s.carrier))


def _small_censuses():
    for census in (enumerate_lr_semigroupoids, enumerate_li_constellations):
        for n in (1, 2, 3):
            yield from census(n)


def test_canonical_count_is_the_automorphism_count():
    fixed = list(fixtures.all_fixtures().values())
    structures = [*_small_censuses(), *fixed, *map(build_C, fixed)]
    for s in structures:
        assert canonical_form(s)[2] == _automorphisms(s)


def test_canonical_relabelling_reaches_the_key():
    for s in _small_censuses():
        key, mapping, _ = canonical_form(s)
        canonical = relabel(s, mapping, range(len(s.carrier)))
        again, identity, _ = canonical_form(canonical)
        assert again == key and identity == {i: i for i in canonical.carrier}


def test_isomorphism_mapping_carries_a_onto_b():
    # b runs over every relabelling of a, so a mapping composed the wrong
    # way round (b's relabelling, then the inverse of a's) fails somewhere
    for a in _small_censuses():
        for image in permutations(a.carrier):
            b = relabel(a, dict(zip(a.carrier, image)), a.carrier)
            ok, mapping = are_isomorphic(a, b)
            assert ok and relabel(a, mapping, b.carrier) == b


@pytest.mark.parametrize("census", [
    enumerate_lr_semigroupoids, enumerate_li_constellations], ids=["lrs", "lic"])
def test_orbit_stabilizer_sums_recount_the_census(census):
    # Each class representative s stands for n!/|Aut(s)| labelled structures.
    for n in (1, 2, 3):
        labelled = list(census(n))
        orbits = [factorial(n) // canonical_form(s)[2]
                  for s in dedupe_up_to_iso(labelled)]
        assert sum(orbits) == len(labelled) == FROZEN_CENSUS_COUNTS[n]


def test_dedupe_is_capped_at_eight():
    from constella.core import LeftRestrictionSemigroupoid

    labels = [str(i) for i in range(9)]
    table = PartialTable(labels, {(x, x): x for x in labels})
    big = LeftRestrictionSemigroupoid(table, {x: x for x in labels})
    with pytest.raises(CapExceededError):
        dedupe_up_to_iso([big])


def test_dedupe_up_to_iso():
    census = list(enumerate_lr_semigroupoids(2))
    reps = dedupe_up_to_iso(census)
    assert len(reps) == 5
    for s in census:
        assert sum(are_isomorphic(s, r)[0] for r in reps) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("table_violations, survives", [
    (_s_violations, lambda val, plus: holds(_lr_violations(val, plus))),
    (_c12_violations, lambda val, plus: holds(_c34_violations(val, plus))),
], ids=["lrs", "lic"])
def test_pruned_plus_maps_keep_every_survivor_in_order(n, table_violations, survives):
    # reference: the full n^n product of plus maps, filtered by the checker
    carrier = carrier_labels(n)
    for table in _tables(carrier, table_violations):
        _, val = coded_table(table)
        full = product(range(n), repeat=n)
        assert [p for p in _plus_maps(val) if survives(val, p)] == \
            [p for p in full if survives(val, p)]


def _reference_tables(carrier, violations):
    # the unpruned search: every carrier value for every defined pair, and
    # the full reference scan after every assigned value
    violations = REFERENCES[violations]
    pairs = sorted(product(carrier, repeat=2))
    for mask in range(1 << len(pairs)):
        defined = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        D = frozenset(defined)
        comp = {}

        def assign(i):
            if i == len(defined):
                yield PartialTable(carrier, comp)
                return
            for value in carrier:
                comp[defined[i]] = value
                if holds(violations(carrier, D, comp)):
                    yield from assign(i + 1)
            del comp[defined[i]]

        yield from assign(0)


TABLE_GENERATORS = pytest.mark.parametrize(
    "violations", [_s_violations, _c12_violations], ids=["s", "c12"])
REFERENCES = {_s_violations: _s_reference, _c12_violations: _c12_reference}


@TABLE_GENERATORS
@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_search_matches_the_unpruned_search(n, violations):
    carrier = carrier_labels(n)
    assert list(_tables(carrier, violations)) == \
        list(_reference_tables(carrier, violations))


def _stream_digest(tables):
    digest = hashlib.sha256()
    for t in tables:
        digest.update(repr(list(t.comp.items())).encode() + b"\n")
    return digest.hexdigest()


# recorded from the search that visited every defined-pair set and every
# table on it; the digest reads each comp's keys in order
S_4_DIGEST = \
    "ac5d3e2d42452094a8552c6cb1ccc3f4a3b31195389c8a16390f2dd5a6470929"


@pytest.mark.parametrize("violations, count, digest", [
    (_s_violations, 8108, S_4_DIGEST),
    (_c12_violations, 46696,
     "1b78636067b07c2f4e757e061ab645663621155efe4e18a47acadbc03d06cd87"),
], ids=["s", "c12"])
def test_size_4_table_streams_are_frozen(violations, count, digest):
    tables = list(_tables(carrier_labels(4), violations))
    assert len(tables) == count
    assert _stream_digest(tables) == digest


@TABLE_GENERATORS
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_least_masks_keep_exactly_the_lex_least_tables(n, violations):
    # the complete tables the search accepts, against the reference search's
    # tables on each defined-pair set that no relabelling makes smaller,
    # kept when no relabelling fixing the set makes them lex-smaller
    # (values by carrier index, in pair order)
    carrier = carrier_labels(n)
    accepted = {}

    def recording(D, val, rows):
        found = list(violations(D, val, rows))
        defined = frozenset((carrier[a], carrier[b]) for a, b in _cells(D))
        comp = {(carrier[a], carrier[b]): carrier[val[a][b]]
                for a, b in _cells(D) if val[a][b] is not None}
        if not found and len(comp) == len(defined):
            accepted.setdefault(defined, []).append(comp)
        return iter(found)

    assert list(_tables(carrier, recording)) == \
        list(_tables(carrier, violations))

    index = {x: i for i, x in enumerate(carrier)}
    pairs = sorted(product(carrier, repeat=2))
    bit = {pair: 1 << q for q, pair in enumerate(pairs)}
    relabellings = [dict(zip(carrier, image))
                    for image in permutations(carrier)]
    reference = {}
    for t in _reference_tables(carrier, violations):
        reference.setdefault(t.defined, []).append(t.comp)
    expected = {}
    for mask in range(1, 1 << len(pairs)):  # the empty table is not checked
        defined = [pair for pair in pairs if mask & bit[pair]]
        images = [{(p[a], p[b]) for a, b in defined} for p in relabellings]
        if min(sum(bit[pair] for pair in image) for image in images) < mask:
            continue
        stabilizer = [p for p, image in zip(relabellings, images)
                      if image == set(defined)]

        def code(comp):
            return [index[comp[key]] for key in defined]

        least = [
            comp for comp in reference.get(frozenset(defined), [])
            if all(code({(p[a], p[b]): p[c] for (a, b), c in comp.items()})
                   >= code(comp) for p in stabilizer)
        ]
        if least:
            expected[frozenset(defined)] = least
    assert accepted == expected


def _tables_and_mutants():
    """Fixture and census tables (n <= 2), each with its single edits: one
    value changed, one defined pair dropped, one undefined pair added."""
    tables = [s.table for s in fixtures.all_fixtures().values()]
    for n in (1, 2):
        carrier = carrier_labels(n)
        tables += _tables(carrier, _s_violations)
        tables += _tables(carrier, _c12_violations)
    for table in tables:
        yield table
        carrier, comp = table.carrier, table.comp
        for key in product(carrier, repeat=2):
            if key in comp:
                yield PartialTable(
                    carrier, {k: v for k, v in comp.items() if k != key})
            for value in carrier:
                if comp.get(key) != value:
                    yield PartialTable(carrier, {**comp, key: value})


def _cells(D):
    """The defined pairs (a, b) of boolean rows D, in index order."""
    return [(a, b) for a, row in enumerate(D) for b, d in enumerate(row) if d]


@TABLE_GENERATORS
def test_listed_rows_match_the_default_scan(violations):
    for t in _tables_and_mutants():
        D, val = coded_table(t)
        every = range(len(val))
        rows = [(s, x, every) for s in every for x in every]
        assert list(violations(D, val, rows)) == list(violations(D, val))


@TABLE_GENERATORS
def test_reading_rows_cover_exactly_the_instances_reading_the_pair(violations):
    for t in _tables_and_mutants():
        D, val = coded_table(t)
        full = list(violations(D, val))
        for a, b in _cells(D):
            rows = _reading_rows(val, a, b)
            reading = {v for v in full if (a, b) in _keys_read(val, v[1])}
            assert set(violations(D, val, rows)) == reading


def _keys_read(val, instance):
    s, x, r = instance
    return {(s, x), (x, r), (val[s][x], r), (s, val[x][r])}


@TABLE_GENERATORS
@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_table_has_no_violations(n, violations):
    pairs = list(product(range(n), repeat=2))
    for mask in range(1 << len(pairs)):
        D = [[False] * n for _ in range(n)]
        for i, (a, b) in enumerate(pairs):
            D[a][b] = bool(mask >> i & 1)
        assert holds(violations(D, [[None] * n for _ in range(n)]))


def test_table_search_is_capped_at_five_elements():
    with pytest.raises(CapExceededError):
        next(_tables(carrier_labels(6), _s_violations))
