"""The fast paths of the checkers against the plain statements they replace.

- Every checker runs its axiom generator on the structure coded by carrier
  index (values as rows of indices, plus as a list, the order as boolean
  rows) and names the witnesses back.  The dict-based scans over the
  labelled structure that the generators replaced are kept here as the
  reference: on str, int, tuple and Szendrei carriers, valid or not, each
  checker must report the reference scan's violations in the same order.
- The OrderedConstellation constructor checks its order on up-lists in
  index order (core._order_rows_problem); the plain scan over all pairs
  of pairs, in carrier order, is kept here as the reference.
- Szendrei elements keep their sort key and build their repr from it;
  here both are recomputed from scratch, recursively.
- wo1 visits only the pairs of order pairs whose products are defined;
  the plain double loop over the order pairs is kept here as the
  reference.
- Every scan runs in carrier order, so a report does not depend on the
  hash seed; here two interpreters with different seeds must agree.
- Every single edit of a census structure is valid exactly when it lands
  in the census.
- render_report writes its JSON text directly; json.dumps(doc, indent=2)
  of the same document is kept here as the reference.
- build_C, build_G, roundtrip_check and both classifiers run on rows
  coded by carrier index.  The labelled constructions, round trip and
  classifiers they replaced are kept here as the reference: outputs,
  mismatch names, flags, witnesses and exception types must agree, on
  valid structures and on every single edit of the n <= 3 censuses.
- check_semigroupoid and check_constellation run the s1-s3 and c1/c2
  generators only on the rows the byte-row test (suspects._suspect_rows)
  cannot pass.  The full scan is the reference: the rows the test yields
  must be exactly the rows on which the generator yields something, in
  index order, and the generator on them must give the full scan's
  violations in order.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain, islice, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import constella
from constella import fixtures
from constella.classify import (
    InverseCheck,
    _category,
    _identity_flags,
    _pseudo_inverses,
    classify_constellation,
    classify_semigroupoid,
    detect_inverse_semigroupoid,
    detect_semigroup,
    has_right_inverses,
)
from constella.constellation import (
    CorestrictionResult,
    OrderedConstellation,
    _c12_violations,
    check_constellation,
    check_locally_inductive,
)
from constella import suspects
from constella.coded import _defined_rows
from constella.suspects import (
    _byte_row_mismatches,
    _suspect_rows,
    _wo1_rows,
    _wo_suspects,
)
from constella.core import (
    InvalidOrderError,
    LeftRestrictionSemigroupoid,
    PartialTable,
    Violation,
    _named_report,
    _s_violations,
    check_left_restriction,
    check_semigroupoid,
    holds,
    idempotents,
    is_left_identity,
    is_right_identity,
    natural_order,
)
from constella.functor import build_C, build_G, roundtrip_check
from constella.groups import cyclic_group
from constella.io import render_report, serialize_structure
from constella.szendrei import (
    SzendreiElement,
    expand_constellation,
    expand_semigroupoid,
)
from constella.theorems import _census_lic, _census_lrs


def relabel(x, mapping, carrier):
    """Copy of x, a PartialTable or a structure (a table with plus, and an
    order for a constellation), with its elements renamed by mapping onto
    the given carrier."""
    table = x if isinstance(x, PartialTable) else x.table
    renamed = PartialTable(carrier, {
        (mapping[a], mapping[b]): mapping[c] for (a, b), c in table.comp.items()})
    if x is table:
        return renamed
    parts = (renamed, {mapping[a]: mapping[b] for a, b in x.plus.items()})
    if hasattr(x, "order"):
        parts += (frozenset((mapping[a], mapping[b]) for a, b in x.order),)
    return type(x)(*parts)


def coded_table(t):
    """(D, val): the table t coded by carrier index, as the checkers read
    it for the table generators."""
    return _defined_rows(t.rows), t.rows


# --- reference scans: the axiom generators over the labelled structure ---

def _s_reference(carrier, D, comp, rows=None):
    """s1-s3 on a table whose defined pairs D are fixed.

    comp may still lack the values of some pairs in D: a triple is reported
    once the assigned values already break it.  rows, an iterable of
    (s, x, rs), limits the triples to (s, x, r) for r in rs; by default
    every (s, x, carrier) in carrier order.
    """
    if rows is None:
        rows = product(carrier, carrier, (carrier,))
    for s, x, rs in rows:
        sx = comp.get((s, x))
        sx_defined = (s, x) in D
        for r in rs:
            xr = comp.get((x, r))
            trig1 = sx_defined and (xr is not None or (x, r) in D)
            trig2 = sx is not None and (sx, r) in D
            trig3 = xr is not None and (s, xr) in D
            if not (trig1 or trig2 or trig3):
                continue
            if trig1 and (sx is None or (sx, r) in D) \
                    and (xr is None or (s, xr) in D):
                left, right = comp.get((sx, r)), comp.get((s, xr))
                if left is None or right is None or left == right:
                    continue
            for axiom, trig in (("s1", trig1), ("s2", trig2), ("s3", trig3)):
                if trig:
                    yield Violation(axiom, (s, x, r))


def _c12_reference(carrier, D, comp, rows=None):
    """c1 and c2 on a table whose defined pairs D are fixed, with comp and
    rows as for _s_reference."""
    if rows is None:
        rows = product(carrier, carrier, (carrier,))
    for x, y, zs in rows:
        xy = comp.get((x, y))
        xy_defined = (x, y) in D
        for z in zs:
            yz = comp.get((y, z))
            lhs = xy_defined and (yz is not None or (y, z) in D)
            if yz is not None and lhs != ((x, yz) in D):
                yield Violation("c1", (x, y, z))
            if not lhs:
                continue
            left = comp.get((xy, z))
            right = comp.get((x, yz))
            if left is not None and right is not None:
                if left != right:
                    yield Violation("c2", (x, y, z))
            elif (xy is not None and (xy, z) not in D) \
                    or (yz is not None and (x, yz) not in D):
                yield Violation("c2", (x, y, z))


def _lr_reference(t, plus):
    """lr1-lr4, each over its elements and pairs in carrier order."""
    D = t.defined
    comp = t.comp
    plus_values = set(plus.values())
    image = [e for e in t.carrier if e in plus_values]

    for s in t.carrier:
        e = plus[s]
        if comp.get((e, s)) != s:
            yield Violation("lr1", (s,))

    for e, f in product(image, repeat=2):
        d1, d2 = (e, f) in D, (f, e) in D
        if d1 != d2 or (d1 and comp[(e, f)] != comp[(f, e)]):
            yield Violation("lr2", (e, f))

    for e in image:
        for s in t.carrier:
            if (e, s) not in D:
                continue
            lhs = plus[comp[(e, s)]]
            rhs = comp.get((e, plus[s]))
            if rhs is None or lhs != rhs:
                yield Violation("lr3", (e, s))

    for s, x in product(t.carrier, repeat=2):
        st = comp.get((s, x))
        if st is None:
            continue
        lhs = comp.get((s, plus[x]))
        rhs = comp.get((plus[st], s))
        if lhs is None or rhs is None or lhs != rhs:
            yield Violation("lr4", (s, x))


def _c34_reference(table, plus):
    D = table.defined
    comp = table.comp
    plus_values = set(plus.values())
    image = [e for e in table.carrier if e in plus_values]

    for e in image:
        for x in table.carrier:
            acts = comp.get((e, x)) == x
            if acts != (e == plus[x]):
                yield Violation("c3", (e, x))

    for e in image:
        for x in table.carrier:
            if (x, e) in D and comp[(x, e)] != x:
                yield Violation("c4", (x, e))


def _order_reference(table, plus, order):
    """wo1-wo3; wo1 and wo2 run over the order pairs in carrier order."""
    D = table.defined
    comp = table.comp
    carrier = table.carrier
    up = [(x, [y for y in carrier if (x, y) in order]) for x in carrier]

    for x, ys in up:
        row = [(x2, comp[x, x2], y2s) for x2, y2s in up if (x, x2) in D]
        for y in ys:
            for x2, xx2, y2s in row:
                for y2 in y2s:
                    yy2 = comp.get((y, y2))
                    if yy2 is not None and (xx2, yy2) not in order:
                        yield Violation("wo1", (x, y, x2, y2))

    for x, ys in up:
        for y in ys:
            if (plus[x], plus[y]) not in order:
                yield Violation("wo2", (x, y))

    restrictions = {}
    for y, xs in up:
        e = plus[y]
        for x in xs:
            restrictions[x, e] = restrictions.get((x, e), 0) + 1
    for e in filter(set(plus.values()).__contains__, carrier):
        for x in carrier:
            if (e, plus[x]) in order and restrictions.get((x, e)) != 1:
                yield Violation("wo3", (e, x))


def _reference_maximum(order, elements):
    for m in elements:
        if all((y, m) in order for y in elements):
            return m
    return None


def _reference_corestrictions(t):
    """{(x, e): x|e} from the down-sets, taken in carrier order."""
    carrier, order, D = t.carrier, t.order, t.table.defined
    cores = {}
    for e in t.plus_image():
        for x in carrier:
            cands = [y for y in carrier if (y, x) in order and (y, e) in D]
            m = _reference_maximum(order, cands)
            cores[x, e] = (CorestrictionResult.empty() if not cands
                           else CorestrictionResult.no_maximum(cands)
                           if m is None else CorestrictionResult.of(m))
    return cores


def _reference_components(t):
    """The partition of T+ under the zig-zag closure of the order, by union
    and find; groups in carrier order of their first elements."""
    image = list(t.plus_image())
    parent = {e: e for e in image}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in t.order:
        if a != b and a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for e in image:
        groups.setdefault(find(e), []).append(e)
    return list(groups.values())


def _index_reference(t):
    """wo4-wo9 from a dict of corestrictions; wo5 and wo7 run over the
    defined pairs in carrier order."""
    comp = t.table.comp
    order = t.order
    carrier = t.carrier
    plus = t.plus
    image = t.plus_image()
    cores = _reference_corestrictions(t)

    for x in carrier:
        for e in image:
            if cores[x, e].kind == "no_maximum":
                yield Violation("wo4", (x, e))

    defined = [(x, y, comp[x, y]) for x, y in product(carrier, repeat=2)
               if (x, y) in comp]

    for e in image:
        for x, y, xy in defined:
            if cores[xy, e].has_candidates != cores[y, e].has_candidates:
                yield Violation("wo5", (x, y, e))

    for e in image:
        for f in image:
            if (f, e) not in order:
                continue
            for x in carrier:
                if cores[x, e].has_candidates != cores[x, f].has_candidates:
                    yield Violation("wo6", (x, e, f))

    for e in image:
        for x, y, xy in defined:
            core = cores[xy, e]
            if not core.has_candidates:
                continue
            m_xy, m_y = core.value, cores[y, e].value
            m_x = None if m_y is None else cores[x, plus[m_y]].value
            if m_xy is None or m_x is None or plus[m_xy] != plus[m_x]:
                yield Violation("wo7", (x, y, e))

    restrictions = {}
    for f in image:
        for y in carrier:
            if (y, f) in order:
                restrictions.setdefault((f, plus[y]), []).append(y)
    for e in image:
        for f in image:
            if (e, f) not in order:
                continue
            found = restrictions.get((f, e), ())
            m = cores[e, f].value
            if len(found) != 1 or m is None or found[0] != m:
                yield Violation("wo8", (e, f))

    component = {e: i for i, group in enumerate(_reference_components(t))
                 for e in group}
    lower = {e: {g for g in image if (g, e) in order} for e in image}
    for e in image:
        for f in image:
            if component[e] != component[f]:
                if cores[e, f].has_candidates:
                    yield Violation("wo9", (e, f))
                continue
            m = cores[e, f].value
            common = lower[e] & lower[f]
            if m not in common or not common <= lower[m]:
                yield Violation("wo9", (e, f))


# Reference reports in the order the checkers give them.

def _s_scan(t):
    return tuple(_s_reference(t.carrier, t.defined, t.comp))


def _c12_scan(t):
    return tuple(_c12_reference(t.carrier, t.defined, t.comp))


def _lr_scan(s):
    return tuple(_lr_reference(s.table, s.plus))


def _order_scan(t):
    return tuple(_order_reference(t.table, t.plus, t.order))


def _wo_scan(t):
    return _order_scan(t) + tuple(_index_reference(t))


def _assert_table_checkers_match(t):
    """check_semigroupoid, and c1/c2 of check_constellation on t with the
    identity plus and the discrete order, against the reference scans."""
    assert check_semigroupoid(t).violations == _s_scan(t)
    c = _discrete(t)
    assert check_constellation(c).violations == \
        _c12_scan(t) + tuple(_c34_reference(t, c.plus))


def _assert_lrs_checkers_match(s):
    assert check_semigroupoid(s.table).violations == _s_scan(s.table)
    assert check_left_restriction(s.table, s.plus).violations == _lr_scan(s)


def _assert_lic_checkers_match(t):
    assert check_constellation(t).violations == \
        _c12_scan(t.table) + tuple(_c34_reference(t.table, t.plus))
    assert check_locally_inductive(t).violations == _wo_scan(t)


def _census(n):
    lrs = [s for k in range(1, n + 1) for s in _census_lrs(k)]
    lic = [t for k in range(1, n + 1) for t in _census_lic(k)]
    return lrs, lic


def _ex6_7_expansions():
    t = build_C(fixtures.ex6_7())
    sz = expand_constellation(t)
    g = build_G(t)
    gsz = expand_semigroupoid(g)
    return [sz, expand_constellation(sz), gsz, expand_semigroupoid(gsz)]


def _on_tuples(x):
    """x with each element e of a str carrier renamed (e,)."""
    if not isinstance(x.carrier[0], str):
        return x
    mapping = {e: (e,) for e in x.carrier}
    return relabel(x, mapping, tuple(mapping.values()))


def _on_ints(x):
    """x with each element of its carrier renamed by a distinct int, in an
    order unlike the carrier's."""
    mapping = {e: 7 * (len(x.carrier) - i) for i, e in enumerate(x.carrier)}
    return relabel(x, mapping, tuple(mapping.values()))


def _discrete(table):
    """table with the identity plus map and the discrete order."""
    return OrderedConstellation(
        table, {x: x for x in table.carrier}, {(x, x) for x in table.carrier})


def _table_edits(table):
    """Every table that differs from table in one pair: a value changed,
    dropped or added."""
    carrier = table.carrier
    for pair in product(carrier, repeat=2):
        old = table.comp.get(pair)
        for value in (None,) + carrier:
            if value == old:
                continue
            comp = dict(table.comp)
            if value is None:
                del comp[pair]
            else:
                comp[pair] = value
            yield PartialTable(carrier, comp)


def _sample_tables():
    lrs, lic = _census(3)
    fx = fixtures.all_fixtures().values()
    yield from (s.table for s in fx)
    yield from (build_C(s).table for s in fx)
    yield from (s.table for s in lrs)
    yield from (t.table for t in lic)
    yield from (x.table for x in _ex6_7_expansions())


def test_defined_is_the_set_of_comp_keys():
    # comp is the one stored form of the defined pairs; defined reads it
    count = 0
    for table in _sample_tables():
        defined = table.defined
        assert isinstance(defined, frozenset)
        assert defined == frozenset(table.comp)
        assert {defined: table}[frozenset(table.comp)] is table
        for a, b in product(table.carrier, repeat=2):
            assert table.is_defined(a, b) == ((a, b) in defined)
        with pytest.raises(AttributeError):
            table.defined = frozenset()
        count += 1
    assert count > 300


def test_every_carrier_type_reports_the_reference_sequence():
    # One path for every carrier: str labels, ints in an order unlike the
    # carrier's, 1-tuples and Szendrei pairs, each on valid structures and
    # on their table and plus edits.
    base = build_C(fixtures.ex6_7())
    sz = _ex6_7_expansions()[0]
    failing = set()
    for t in (base, _on_ints(base), _on_tuples(base), sz):
        for table in chain(islice(_table_edits(t.table), None, None, 11),
                           (t.table,)):
            _assert_lrs_checkers_match(LeftRestrictionSemigroupoid(table, t.plus))
            c = OrderedConstellation(table, t.plus, t.order)
            _assert_lic_checkers_match(c)
            failing.update(v.axiom for v in c.validate().violations)
        for plus in _plus_edits(t.plus, t.carrier):
            _assert_lic_checkers_match(OrderedConstellation(t.table, plus, t.order))
    assert len(failing) > 10


def _defined_in_carrier_order(table):
    defined = table.defined
    return [p for p in product(table.carrier, repeat=2) if p in defined]


def test_coded_scans_name_witnesses_and_sort_keys_back():
    for x in (_on_tuples(build_C(fixtures.ex6_7())), *_ex6_7_expansions()):
        _, val = coded_table(x.table)
        found = (("-", (a, b)) for a, row in enumerate(val)
                 for b, v in enumerate(row) if v is not None)
        witnesses = [v.witness for v in _named_report(x.carrier, found).violations]
        assert witnesses == _defined_in_carrier_order(x.table)


def test_coded_scans_match_the_direct_scans():
    tables = list(_sample_tables())
    assert sorted({len(t.carrier) for t in tables})[-3:] == [6, 12, 20]
    for t in tables:
        _assert_table_checkers_match(t)


def test_coded_scans_match_on_every_single_edit():
    lrs, lic = _census(2)
    failing = 0
    for base in chain(lrs, lic):
        for t in _table_edits(base.table):
            _assert_table_checkers_match(t)
            failing += not holds(_s_reference(t.carrier, t.defined, t.comp))
    assert failing > 0


def _sample_structures():
    fx = fixtures.all_fixtures().values()
    sz, szsz, gsz, gszsz = _ex6_7_expansions()
    return [*fx, gsz, gszsz], [*map(build_C, fx), sz, szsz]


def test_coded_structure_scans_match_the_direct_scans():
    lrs, lic = _sample_structures()
    assert [len(x.carrier) for x in lrs[-2:] + lic[-2:]] == [12, 20, 12, 20]
    for s in lrs:
        _assert_lrs_checkers_match(s)
    for t in lic:
        _assert_lic_checkers_match(t)


def test_coded_structure_scans_match_on_every_single_edit():
    lrs, lic = _census(2)
    axioms = set()
    for s in chain.from_iterable(map(_lrs_edits, lrs)):
        _assert_lrs_checkers_match(s)
        axioms.update(v.axiom for v in _lr_scan(s))
    # At n <= 2 every down-set is a chain, so x|e always has a maximum; the
    # order edits at n = 3 add the wo4 failures.
    edits = chain(chain.from_iterable(map(_lic_edits, lic)),
                  chain.from_iterable(map(_order_edits, _census_lic(3))))
    for t in edits:
        _assert_lic_checkers_match(t)
        axioms.update(v.axiom for v in _wo_scan(t))
    assert axioms == {"lr1", "lr2", "lr3", "lr4", *(f"wo{i}" for i in range(1, 10))}


def test_checkers_report_the_coded_scans():
    for s in fixtures.all_fixtures().values():
        c = _on_tuples(build_C(s))
        for table in _table_edits(c.table):
            _assert_table_checkers_match(table)
            _assert_lrs_checkers_match(LeftRestrictionSemigroupoid(table, c.plus))
            _assert_lic_checkers_match(OrderedConstellation(table, c.plus, c.order))


# Drawn structures: a carrier of ints, strs or tuples in any order, a
# partial table, a plus map and a partial order, valid or not; or a census
# structure renamed onto such a carrier.

_CARRIERS = st.integers(min_value=1, max_value=4).flatmap(lambda n: st.one_of(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n, unique=True),
    st.lists(st.text(alphabet="ab+", min_size=1, max_size=2), min_size=n, max_size=n,
             unique=True),
    st.lists(st.tuples(st.integers(0, 3)), min_size=n, max_size=n,
             unique=True),
)).map(tuple)


@st.composite
def _drawn_structures(draw):
    carrier = draw(_CARRIERS)
    n = len(carrier)
    census = _census(min(n, 3))[draw(st.integers(0, 1))]
    same_size = [x for x in census if len(x.carrier) == n]
    if same_size and draw(st.booleans()):
        x = draw(st.sampled_from(same_size))
        image = draw(st.permutations(carrier))
        x = relabel(x, dict(zip(x.carrier, image)), carrier)
        if isinstance(x, OrderedConstellation):
            return x.table, x.plus, x.order
        return x.table, x.plus, None
    pairs = list(product(carrier, repeat=2))
    comp = draw(st.dictionaries(
        st.sampled_from(pairs), st.sampled_from(carrier), max_size=n * n))
    plus = {x: draw(st.sampled_from(carrier)) for x in carrier}
    # a partial order: pairs that climb a drawn ranking, closed
    rank = draw(st.permutations(range(n)))
    below = draw(st.sets(st.sampled_from(pairs), max_size=n * n))
    order = {(a, a) for a in carrier} | {
        (a, b) for a, b in below
        if rank[carrier.index(a)] < rank[carrier.index(b)]}
    while True:
        closed = order | {(a, d) for a, b in order for c, d in order if b == c}
        if closed == order:
            break
        order = closed
    return PartialTable(carrier, comp), plus, order


@given(_drawn_structures())
def test_checkers_report_the_reference_scans_on_drawn_structures(drawn):
    table, plus, order = drawn
    _assert_lrs_checkers_match(LeftRestrictionSemigroupoid(table, plus))
    if order is not None:
        _assert_lic_checkers_match(OrderedConstellation(table, plus, order))
    members = set(table.carrier)
    for v in check_semigroupoid(table).violations:
        assert set(v.witness) <= members


def _wo1_reference(t):
    """wo1 as the plain double loop over the order pairs in carrier order."""
    comp, order = t.table.comp, t.order
    pairs = [p for p in product(t.carrier, repeat=2) if p in order]
    for x, y in pairs:
        for x2, y2 in pairs:
            if (x, x2) in comp and (y, y2) in comp \
                    and (comp[x, x2], comp[y, y2]) not in order:
                yield Violation("wo1", (x, y, x2, y2))


def test_wo1_matches_the_double_loop_over_order_pairs():
    sz, szsz = _ex6_7_expansions()[:2]
    edits = chain.from_iterable(map(_order_edits, _census(3)[1]))
    failing = 0
    for t in chain(edits, (sz, szsz)):
        wo1 = tuple(v for v in check_locally_inductive(t).violations
                    if v.axiom == "wo1")
        assert wo1 == tuple(_wo1_reference(t))
        failing += bool(wo1)
    assert failing > 0




def _fixture_edits():
    """Every table, plus and order edit of the fixtures, on both sides."""
    for s in fixtures.all_fixtures().values():
        yield from _lrs_edits(s)
        yield from _lic_edits(build_C(s))


def _fixture_edit_reports():
    return [x.validate().violations for x in _fixture_edits()]


_SEEDED_REPORTS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_exactness import _fixture_edit_reports
reports = _fixture_edit_reports()
print(sum(map(len, reports)), hashlib.sha256(repr(reports).encode()).hexdigest())
"""


def test_reports_do_not_depend_on_the_hash_seed():
    # The fixtures' str labels hash differently under each seed, so a
    # checker loop over a set would order its violations differently.
    src = str(Path(constella.__file__).parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH"))))}
        outputs.append(subprocess.run(
            [sys.executable, "-c", _SEEDED_REPORTS, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert outputs[0] == outputs[1]
    assert int(outputs[0].split()[0]) > 0


def _pair_scan(pairs, carrier):
    """The partial-order check as a plain scan over all pairs of pairs, each
    in carrier order."""
    position = {x: i for i, x in enumerate(carrier)}
    pairs = sorted(pairs, key=lambda p: (position[p[0]], position[p[1]]))
    for a in carrier:
        if (a, a) not in pairs:
            return f"not reflexive at {a!r}"
    for a, b in pairs:
        if a != b and (b, a) in pairs:
            return f"not antisymmetric at {(a, b)!r}"
    for a, b in pairs:
        for c, d in pairs:
            if b == c and (a, d) not in pairs:
                return f"not transitive at {(a, b, d)!r}"
    return None


def _order_problem(rel, carrier):
    """The OrderedConstellation constructor's complaint about rel as the
    order of the empty table on carrier, or None when it accepts it."""
    try:
        OrderedConstellation(PartialTable(carrier, {}),
                             {x: x for x in carrier}, rel)
    except ValueError as error:
        return str(error).removeprefix("order is not a partial order: ")
    return None


def _relations(labels):
    pairs = list(product(labels, repeat=2))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


def test_partial_order_check_matches_the_pair_scan_exhaustively():
    outcomes = set()
    for n in (1, 2, 3):
        carrier = tuple("abc"[:n])
        for rel in _relations(carrier):
            expected = _pair_scan(rel, carrier)
            assert _order_problem(rel, carrier) == expected
            outcomes.add(None if expected is None else expected.split(" at")[0])
    # Pairs that name an element outside the carrier are rejected first.
    for rel in _relations(("a", "b", "z")):
        if any("z" in pair for pair in rel):
            assert _order_problem(rel, ("a", "b")).endswith(
                " leaves the carrier")
        else:
            assert _order_problem(rel, ("a", "b")) == \
                _pair_scan(rel, ("a", "b"))
    assert outcomes == {None, "not reflexive", "not antisymmetric",
                        "not transitive"}


def test_partial_order_check_matches_the_pair_scan_on_a_sample():
    rng = random.Random(20261018)
    carrier = tuple("abcde")
    universe = carrier + ("z",)
    transitive_failures = leaving = 0
    for _ in range(3000):
        rel = {(a, a) for a in carrier if rng.random() < 0.97}
        density = rng.random()
        for a, b in product(universe, repeat=2):
            if a != b and rng.random() < density * 0.3:
                if rng.random() < 0.9 and (b, a) in rel:
                    continue
                rel.add((a, b))
        problem = _order_problem(rel, carrier)
        if any("z" in pair for pair in rel):
            assert problem.endswith(" leaves the carrier")
            leaving += 1
            continue
        expected = _pair_scan(rel, carrier)
        assert problem == expected
        transitive_failures += bool(expected and "transitive" in expected)
    assert transitive_failures > 100 and leaving


def _ref_key(x):
    if not isinstance(x, SzendreiElement):
        return x
    members = sorted(x.subset, key=_ref_key)
    return (len(members), tuple(map(_ref_key, members)), _ref_key(x.anchor))


def _ref_repr(x):
    if not isinstance(x, SzendreiElement):
        return repr(x)
    members = sorted(x.subset, key=_ref_key)
    inner = ", ".join(map(_ref_repr, members))
    return f"SzendreiElement([{inner}], {_ref_repr(x.anchor)})"


def test_kept_keys_and_reprs_match_fresh_elements():
    t = build_C(fixtures.ex6_7())
    levels = [expand_constellation(t)]
    for _ in range(2):
        levels.append(expand_constellation(levels[-1]))
    for sz in levels:
        carrier = sz.carrier
        assert list(carrier) == sorted(carrier, key=_ref_key)
        for p in carrier:
            fresh = SzendreiElement(set(p.subset), p.anchor)
            assert fresh == p and hash(fresh) == hash(p)
            assert p.sort_key() == fresh.sort_key()
            assert repr(p) == repr(fresh) == _ref_repr(p)
            assert str(p) == str(fresh)
            assert _ref_key(p) == (
                len(p.subset),
                tuple(map(_ref_key, p.sort_key()[1])),
                _ref_key(p.anchor),
            )


def test_third_expansion_serialization_is_frozen():
    t = build_C(fixtures.ex6_7())
    sz3 = expand_constellation(expand_constellation(expand_constellation(t)))
    text = serialize_structure(sz3)
    assert (len(sz3.carrier), len(sz3.order), len(sz3.table.comp)) == (30, 176, 180)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c1d2e12e22aaa931c11d1e4d340c6a7344939101d7f6a88493654dbf16e01dd6")


def _plus_edits(plus, carrier):
    for x in carrier:
        for p in carrier:
            if p != plus[x]:
                yield {**plus, x: p}


def _lrs_edits(s):
    for table in _table_edits(s.table):
        yield LeftRestrictionSemigroupoid(table, s.plus)
    for plus in _plus_edits(s.plus, s.carrier):
        yield LeftRestrictionSemigroupoid(s.table, plus)


def _lic_edits(t):
    """Table, plus and order edits.  An order edit that leaves the partial
    orders builds no constellation, so it is skipped."""
    for table in _table_edits(t.table):
        yield OrderedConstellation(table, t.plus, t.order)
    for plus in _plus_edits(t.plus, t.carrier):
        yield OrderedConstellation(t.table, plus, t.order)
    yield from _order_edits(t)


def _order_edits(t):
    for a, b in product(t.carrier, repeat=2):
        order = t.order ^ {(a, b)}
        if a != b and _pair_scan(order, t.carrier) is None:
            yield OrderedConstellation(t.table, t.plus, order)


SINGLE_EDIT_COUNTS = {"lrs": (4381, 224), "lic": (5027, 148)}


@pytest.mark.parametrize("kind", ["lrs", "lic"])
def test_single_edits_are_valid_exactly_in_the_census(kind):
    lrs, lic = _census(3)
    census, edits = (lrs, _lrs_edits) if kind == "lrs" else (lic, _lic_edits)
    members = set(census)
    total = valid = 0
    for base in census:
        for edited in edits(base):
            inside = edited in members
            assert edited.validate().valid == inside, (base, edited)
            total += 1
            valid += inside
    assert (total, valid) == SINGLE_EDIT_COUNTS[kind]


def _json_report(valid=None, violations=None, classification=None,
                 counts=None):
    """The report render_report writes, as json.dumps formats it."""
    doc = {} if valid is None else {"valid": valid}
    doc["violations"] = [
        {"axiom": v.axiom,
         "witness": [w if isinstance(w, str) else str(w) for w in v.witness]}
        for v in sorted(violations or (),
                        key=lambda v: (v.axiom, repr(v.witness)))
    ]
    doc["classification"] = classification or {}
    doc["counts"] = counts or {}
    return json.dumps(doc, indent=2) + "\n"


def _reported_structures():
    lrs, lic = _census(2)
    yield from chain.from_iterable(map(_lrs_edits, lrs))
    yield from chain.from_iterable(map(_lic_edits, lic))
    yield from _fixture_edits()
    # Szendrei elements are not strings, so their witnesses go through
    # str(); every seventh table edit keeps this part of the suite short.
    sz = expand_constellation(build_C(fixtures.ex6_7()))
    for table in islice(_table_edits(sz.table), None, None, 7):
        yield OrderedConstellation(table, sz.plus, sz.order)


def _classification(s):
    c = (classify_semigroupoid(s) if isinstance(s, LeftRestrictionSemigroupoid)
         else classify_constellation(s))
    return dict(c.flags(), witnesses={
        key: [w if isinstance(w, str) else str(w) for w in value]
        for key, value in sorted(c.witnesses.items())})


def test_rendered_reports_match_json_dumps():
    calls = [{}, {"valid": True, "violations": []},
             {"valid": False, "violations": [Violation("wo4", ())]},
             {"valid": False, "violations": [
                 Violation("lr1", ('q"uote',)),
                 Violation("lr2", ("back\\slash", "caf\u00e9", "\u2603\U0001f600")),
                 Violation("s1", ("tab\tnew\nline", "\x00"))]},
             {"valid": True, "counts": {"kind": "lic", "size": 3, "count": 130,
                                        "up_to_iso": True}}]
    for s in fixtures.all_fixtures().values():
        for x in (s, build_C(s)):
            calls.append({"valid": True, "classification": _classification(x)})
    failing = set()
    for x in _reported_structures():
        report = x.validate()
        failing.update(v.axiom for v in report.violations)
        calls.append({"valid": report.valid, "violations": report.violations})
    for kwargs in calls:
        assert render_report(**kwargs) == _json_report(**kwargs), kwargs
    assert len(failing) == 20  # every axiom, s1-s3, lr1-lr4, c1-c4, wo1-wo9


# --- the labelled constructions, round trip and classifiers ---

def _natural_order_reference(s):
    comp, plus = s.table.comp, s.plus
    rel = frozenset((a, b) for a, b in product(s.carrier, repeat=2)
                    if comp.get((plus[a], b)) == a)
    problem = _pair_scan(rel, s.carrier)
    if problem is not None:
        raise InvalidOrderError(problem)
    return rel


def _build_C_reference(s):
    table, plus = s.table.comp, s.plus
    comp = {}
    for a, b in product(s.carrier, repeat=2):
        if table.get((a, plus[b])) == a:
            comp[(a, b)] = table[(a, b)]
    return OrderedConstellation(
        PartialTable(s.carrier, comp), plus, _natural_order_reference(s))


def _build_G_reference(t):
    """x ⊗ y = (x|y+) y, read from the reference corestrictions."""
    cores = _reference_corestrictions(t)
    comp, plus = t.table.comp, t.plus
    pseudo = {}
    for x, y in product(t.carrier, repeat=2):
        m = cores[x, plus[y]].value
        if m is not None:
            pseudo[x, y] = comp[m, y]
    return LeftRestrictionSemigroupoid(PartialTable(t.carrier, pseudo), plus)


def _roundtrip_reference(x):
    """The mismatch names of the labelled double conversion."""
    if isinstance(x, LeftRestrictionSemigroupoid):
        back = _build_G_reference(_build_C_reference(x))
        names = ("carrier", "defined", "comp", "plus")
    else:
        back = _build_C_reference(_build_G_reference(x))
        names = ("carrier", "defined", "comp", "plus", "order")
    fields = {
        "carrier": (x.carrier, back.carrier),
        "defined": (x.table.comp.keys(), back.table.comp.keys()),
        "comp": (x.table.comp, back.table.comp),
        "plus": (x.plus, back.plus),
        "order": (getattr(x, "order", None), getattr(back, "order", None)),
    }
    return tuple(name for name in names if fields[name][0] != fields[name][1])


def _identities_reference(table):
    return [x for x in table.carrier
            if is_left_identity(table, x) and is_right_identity(table, x)]


def _category_reference(table):
    """(domain, codomain) as dicts when the table is a category, else
    None, on the labelled table."""
    identities = _identities_reference(table)
    comp = table.comp
    domain, codomain = {}, {}
    for x in table.carrier:
        d = [e for e in identities if (x, e) in comp]
        r = [e for e in identities if (e, x) in comp]
        if len(d) != 1 or len(r) != 1:
            return None
        domain[x], codomain[x] = d[0], r[0]
    for x, y in product(table.carrier, repeat=2):
        if ((x, y) in comp) != (domain[x] == codomain[y]):
            return None
    return domain, codomain


def _ref_detect_category(table):
    """classify._category on the table's rows and its two-sided
    identities, as classify_semigroupoid runs it, named through the
    carrier: (domain, codomain) as dicts, or None."""
    val, carrier = table.rows, table.carrier
    left, right = _identity_flags(val)
    found = _category(val, [x for x in range(len(val)) if left[x] and right[x]])
    if found is None:
        return None
    return tuple(dict(zip(carrier, map(carrier.__getitem__, side)))
                 for side in found)


def _ref_pseudo_inverses(table, x):
    """classify._pseudo_inverses at x, named through the carrier."""
    carrier = table.carrier
    return [carrier[w]
            for w in _pseudo_inverses(table.rows, carrier.index(x))]


def _pseudo_inverses_reference(table, x):
    comp = table.comp
    out = []
    for w in table.carrier:
        xw, wx = comp.get((x, w)), comp.get((w, x))
        if xw is not None and wx is not None \
                and comp.get((xw, x)) == x and comp.get((wx, w)) == w:
            out.append(w)
    return out


def _inverse_reference(table):
    found = [(x, _pseudo_inverses_reference(table, x)) for x in table.carrier]
    witness = next(((x, tuple(inv)) for x, inv in found if len(inv) != 1),
                   None)
    comp = table.comp
    commute = all(comp.get((f, e)) == comp[e, f]
                  for e, f in product(idempotents(table), repeat=2)
                  if (e, f) in comp)
    if (witness is None) != (all(inv for _, inv in found) and commute):
        raise AssertionError("the two inverse criteria disagree")
    if witness is not None:
        return InverseCheck(False, witness=witness)
    return InverseCheck(True, inverse={x: inv[0] for x, inv in found})


def _right_inverse_reference(carrier, is_inverse):
    inverse = {}
    for x in carrier:
        w = next((w for w in carrier if is_inverse(x, w)), None)
        if w is None:
            return InverseCheck(False, witness=(x,))
        inverse[x] = w
    return InverseCheck(True, inverse=inverse)


def _first_failing(carrier, holds_at):
    return next(((x,) for x in carrier if not holds_at(x)), None)


def _classify_semigroupoid_reference(s):
    """(flags, witnesses) as the labelled classifier computed them."""
    table, comp, carrier, plus = s.table, s.table.comp, s.carrier, s.plus
    image = set(plus.values())
    identities = _identities_reference(table)
    witnesses = {
        "nd": _first_failing(carrier, lambda x: any(
            (x, w) in comp for w in carrier)),
        "lc": _first_failing(carrier, lambda x: any(
            e in image and is_left_identity(table, e) and (e, x) in comp
            for e in carrier)),
        "unitary": _first_failing(carrier, lambda x: any(
            (e, x) in comp for e in identities)),
    }
    right = _right_inverse_reference(carrier, lambda x, w: (
        comp.get((x, plus[w])) == x and comp.get((x, w)) == plus[x]))
    witnesses["has_right_inverses"] = right.witness
    flags = {name: witnesses[name] is None
             for name in ("nd", "lc", "unitary")}
    flags.update(
        is_category=_category_reference(table) is not None,
        is_semigroup=len(comp) == len(carrier) ** 2,
        is_inverse_semigroupoid=_inverse_reference(table).ok,
        has_right_inverses=right.ok)
    return flags, {k: w for k, w in witnesses.items() if w is not None}


def _classify_constellation_reference(t):
    """(flags, witnesses) as the labelled classifier computed them, from
    the reference corestrictions and components."""
    carrier, order, comp, plus = t.carrier, t.order, t.table.comp, t.plus
    image = t.plus_image()
    cores = _reference_corestrictions(t)
    components = [(group, _reference_maximum(order, group))
                  for group in _reference_components(t)]
    witnesses = {"nd": _first_failing(carrier, lambda x: any(
        cores[x, e].has_candidates for e in image))}
    witnesses["lc"] = next(
        ((group[0],) for group, top in components if top is None), None)
    witnesses["unitary"] = witnesses["lc"] or next((
        (x, top) for _, top in components for x in carrier
        if cores[x, top].has_candidates and cores[x, top].value != x), None)
    def has_meet(e, f):
        lower = [g for g in image if (g, e) in order and (g, f) in order]
        return any(all((z, m) in order for z in lower) for m in lower)

    semilattice = len(components) == 1 and all(
        has_meet(e, f) for e, f in product(image, repeat=2))
    right = _right_inverse_reference(
        carrier, lambda x, w: comp.get((x, w)) == plus[x])
    witnesses["has_right_inverses"] = right.witness
    flags = {name: witnesses[name] is None
             for name in ("nd", "lc", "unitary")}
    flags.update(
        is_category=flags["nd"] and flags["unitary"],
        is_semigroup=flags["nd"] and semilattice,
        is_inverse_semigroupoid=right.ok,
        has_right_inverses=right.ok)
    return flags, {k: w for k, w in witnesses.items() if w is not None}


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the outcome compared is the type
        return type(exc)


def _roundtrip_outcome(x):
    report = _outcome(roundtrip_check, x)
    if isinstance(report, type):
        return report
    assert report.equal == (not report.mismatches)
    return report.mismatches


def _classification_outcome(x):
    lrs = isinstance(x, LeftRestrictionSemigroupoid)
    report = _outcome(
        classify_semigroupoid if lrs else classify_constellation, x)
    if isinstance(report, type):
        return report
    return report.flags(), report.witnesses


def _classification_reference(x):
    lrs = isinstance(x, LeftRestrictionSemigroupoid)
    return _outcome(_classify_semigroupoid_reference if lrs
                    else _classify_constellation_reference, x)


def _same_structure(a, b):
    """Literal equality, with comp keyed in the same order."""
    return a == b and list(a.table.comp) == list(b.table.comp)


def _sweep_structures():
    """Fixtures, both censuses at n <= 4, and Sz^1-Sz^3 of C(ex6_6) and
    C(ex6_7) with their G images."""
    fx = list(fixtures.all_fixtures().values())
    lrs, lic = _census(4)
    lrs, lic = [*fx, *lrs], [*map(build_C, fx), *lic]
    for name in ("ex6_6", "ex6_7"):
        t = build_C(fixtures.all_fixtures()[name])
        for _ in range(3):
            t = expand_constellation(t)
            lic.append(t)
            lrs.append(build_G(t))
    return lrs, lic


def test_sweep_matches_the_labelled_references():
    lrs, lic = _sweep_structures()
    assert len(lrs) == len(lic) == 1 + 9 + 130 + 3021 + 10 + 6
    for s in lrs:
        c = build_C(s)
        assert _same_structure(c, _build_C_reference(s))
        assert natural_order(s) == c.order
        assert _roundtrip_outcome(s) == _roundtrip_reference(s) == ()
        assert _classification_outcome(s) == _classification_reference(s)
    for t in lic:
        assert _same_structure(build_G(t), _build_G_reference(t))
        assert _roundtrip_outcome(t) == _roundtrip_reference(t) == ()
        assert _classification_outcome(t) == _classification_reference(t)


def test_detectors_match_the_labelled_references():
    lrs, lic = _census(3)
    tables = {x.table for x in chain(lrs, lic, *_sample_structures())}
    found = Counter()
    for table in tables:
        category = _ref_detect_category(table)
        assert category == _category_reference(table)
        got, want = (_inverse_fields(_outcome(f, table)) for f in (
            detect_inverse_semigroupoid, _inverse_reference))
        assert got == want
        for x in table.carrier:
            assert _ref_pseudo_inverses(table, x) == \
                _pseudo_inverses_reference(table, x)
        found.update(category=category is not None,
                     inverse=got is not AssertionError and got[0],
                     broken=got is AssertionError,
                     semigroup=detect_semigroup(table))
    for t in chain(lic, _sample_structures()[1]):
        comp, plus = t.table.comp, t.plus
        want = _right_inverse_reference(
            t.carrier, lambda x, w: comp.get((x, w)) == plus[x])
        assert _inverse_fields(has_right_inverses(t)) == _inverse_fields(want)
    assert min(found.values()) > 10 and len(found) == 4


def _inverse_fields(check):
    """An InverseCheck as a tuple, or the exception type raised instead."""
    if isinstance(check, type):
        return check
    return check.ok, check.inverse, check.witness


# Outcomes of roundtrip_check on the single edits of the n <= 3 censuses:
# mismatch names, or the type of the exception the round trip raises.
ROUNDTRIP_EDIT_OUTCOMES = {
    "lrs": {(): 608, ("comp",): 168, ("defined", "comp"): 1308,
            "InvalidOrderError": 1653, "KeyError": 644},
    "lic": {(): 466, ("order",): 782, ("defined", "comp"): 1018,
            ("defined", "comp", "order"): 250,
            "InvalidOrderError": 1611, "KeyError": 900},
}


@pytest.mark.parametrize("kind", ["lrs", "lic"])
def test_sweep_matches_the_references_on_every_single_edit(kind):
    lrs, lic = _census(3)
    census, edits = (lrs, _lrs_edits) if kind == "lrs" else (lic, _lic_edits)
    outcomes = Counter()
    for base in census:
        for x in edits(base):
            got = _roundtrip_outcome(x)
            assert got == _outcome(_roundtrip_reference, x), x
            assert _classification_outcome(x) == \
                _classification_reference(x), x
            outcomes[got if isinstance(got, tuple) else got.__name__] += 1
    assert outcomes == ROUNDTRIP_EDIT_OUTCOMES[kind]


# --- the byte-row test: the rows the s1-s3 and c1/c2 scans visit ---

GENERATORS = ((_s_violations, False), (_c12_violations, True))


def _assert_rows_exact(val, violations, masked, lefts=None):
    """The rows _byte_row_mismatches yields on the coded table val are the
    rows on which the generator yields something, in index order, and the
    generator on them gives the full scan's violations in order.  lefts
    limits both to those left factors (for carriers too large to scan in
    full).  Returns the number of violations."""
    D, every = _defined_rows(val), range(len(val))
    lefts = every if lefts is None else sorted(lefts)
    full = list(violations(D, val, product(lefts, every, (every,))))
    rows = [row for row in _byte_row_mismatches(val, masked)
            if row[0] in lefts]
    assert all(rs == every for _, _, rs in rows)
    assert [row[:2] for row in rows] == \
        list(dict.fromkeys(w[:2] for _, w in full))
    assert list(violations(D, val, rows)) == full
    return len(full)


def _edit(val, a, b, v):
    """The coded table val with the cell (a, b) set to v."""
    rows = list(val)
    rows[a] = val[a][:b] + (v,) + val[a][b + 1:]
    return tuple(rows)


def _cell_edits(val):
    """val with one cell changed, to None or to an index, in every way."""
    every = range(len(val))
    for a, b in product(every, every):
        for v in (None, *every):
            if v != val[a][b]:
                yield _edit(val, a, b, v)


def _seeded_edits(val, seed, count):
    """count copies of val, each with one or two cells changed at random."""
    rng, n = random.Random(seed), len(val)
    for _ in range(count):
        rows = [list(row) for row in val]
        for _ in range(rng.randint(1, 2)):
            rows[rng.randrange(n)][rng.randrange(n)] = \
                rng.choice([None, *range(n)])
        yield tuple(map(tuple, rows))


def test_suspect_rows_are_exact_on_every_single_edit_of_the_census():
    for violations, masked in GENERATORS:
        failing = 0
        for x in chain(*_census(3)):
            val = x.table.rows
            found = _assert_rows_exact(val, violations, masked)
            # a census member fails only the other side's axioms
            assert found == 0 or isinstance(x, OrderedConstellation) != masked
            for edit in _cell_edits(val):
                failing += _assert_rows_exact(edit, violations, masked) > 0
        assert failing > 2000


def _fixture_images():
    for s in fixtures.all_fixtures().values():
        t = build_C(s)
        sz_s, sz_t = expand_semigroupoid(s), expand_constellation(t)
        szsz_t = expand_constellation(sz_t)
        yield from (s, t, sz_s, expand_semigroupoid(sz_s), sz_t, szsz_t,
                    build_G(sz_t), build_G(szsz_t))


def test_suspect_rows_are_exact_on_the_fixture_images():
    sizes = set()
    for x in _fixture_images():
        for violations, masked in GENERATORS:
            found = _assert_rows_exact(x.table.rows, violations, masked)
            assert found == 0 or isinstance(x, OrderedConstellation) != masked
        sizes.add(len(x.carrier))
    assert max(sizes) == 20


def test_suspect_rows_are_exact_on_seeded_edits_of_an_expanded_group():
    s = expand_semigroupoid(cyclic_group(5))
    failing = 0
    for x in (s, build_C(s)):
        for edit in _seeded_edits(x.table.rows, 5, 12):
            for violations, masked in GENERATORS:
                failing += _assert_rows_exact(edit, violations, masked) > 0
    assert len(s.carrier) == 48 and failing == 48


def test_suspect_rows_are_exact_at_the_crossover():
    # The byte-row test starts at 8 elements, so the census (n <= 4) and
    # the small mutants scan every row as before.
    s = expand_semigroupoid(cyclic_group(3))
    t = build_C(s)
    assert len(s.carrier) == 8
    seven = cyclic_group(7).table.rows
    assert _suspect_rows(seven, False) is None
    assert _suspect_rows(seven, True) is None
    failing = 0
    for x in (s, t):
        val = x.table.rows
        assert list(_suspect_rows(val, False)) == \
            list(_byte_row_mismatches(val, False))
        for edit in chain([val], _cell_edits(val)):
            for violations, masked in GENERATORS:
                failing += _assert_rows_exact(edit, violations, masked) > 0
    assert failing > 1000


def _union_of_groups(sizes):
    """The coded table of the disjoint union of the cyclic groups Z_m for m
    in sizes, each on consecutive indices: a category with one object per
    group, products across groups undefined."""
    rows = []
    start = 0
    for m in sizes:
        for i in range(m):
            row = [None] * sum(sizes)
            for j in range(m):
                row[start + j] = start + (i + j) % m
            rows.append(tuple(row))
        start += m
    return tuple(rows)


def test_suspect_rows_are_exact_at_the_byte_bound():
    # 254 elements need the bytes 0-253, N = 254 and U = 255; at 255 the
    # checkers scan every row.
    assert _suspect_rows(_union_of_groups([200, 55]), False) is None
    val = _union_of_groups([120, 90, 40, 4])
    n = len(val)
    assert n == 254
    for masked in (False, True):
        assert list(_suspect_rows(val, masked)) == []
    edits = [(0, 1, None), (5, 130, 253), (253, 253, 0), (250, 251, 7),
             (211, 212, 252)]
    failing = 0
    for a, b, v in edits:
        edited = _edit(val, a, b, v)
        # Each left factor is tested on its own, so a sample of them is
        # checked in full: the edited row, the indices the edit names, the
        # last index, and one in another group.
        lefts = {a, b, v or 0, 253, 60}
        for violations, masked in GENERATORS:
            failing += _assert_rows_exact(edited, violations, masked,
                                          lefts) > 0
    assert failing == 10


# --- the wo tests: the groups the wo1, wo4, wo5 and wo7 scans visit ---

def _assert_wo_groups_kept(t):
    """check_locally_inductive reports the reference scan on t; the bit-row
    test keeps exactly the x at which the scan reports wo1, the byte-column
    test exactly the e at which it reports wo4 or wo5 and every e at which
    it reports wo7, each list in index order; and the index holds the
    reference corestrictions.  Returns the axioms that fail."""
    scan = _wo_scan(t)
    assert check_locally_inductive(t).violations == scan
    position = {x: i for i, x in enumerate(t.carrier)}
    failing = {}
    for v in scan:
        failing.setdefault(v.axiom, set()).add(v.witness)

    def at(axiom, i):
        return {position[w[i]] for w in failing.get(axiom, ())}

    cores, val = t._index(), t.table.rows
    rows = _wo1_rows(val, t.up)
    if rows is not None:
        assert rows == sorted(at("wo1", 0))
    kept = _wo_suspects(val, t.plus_row, cores)
    if kept is not None:
        wo4, wo5, wo7 = kept
        assert wo4 == sorted(at("wo4", 1)) and wo5 == sorted(at("wo5", 2))
        assert wo7 == sorted(wo7) and at("wo7", 2) <= set(wo7)
        # exact on the e at which wo4 and wo5 hold
        assert set(wo7) - set(wo4 + wo5) == at("wo7", 2) - set(wo4 + wo5)
    for (x, e), core in _reference_corestrictions(t).items():
        i, k = position[x], position[e]
        assert cores.some[k][i] == core.has_candidates
        m = cores.top[k][i]
        assert core == (CorestrictionResult.of(t.carrier[m]) if m is not None
                        else core if core.kind == "no_maximum"
                        else CorestrictionResult.empty())
    return set(failing)


@pytest.fixture(params=["shipped", "at 8"])
def wo_gate(request, monkeypatch):
    """The byte-column test with its shipped gate, and with the gate
    lowered to the byte rows' 8 elements, so it runs on the small
    expansions too."""
    if request.param == "at 8":
        monkeypatch.setattr(suspects, "_BYTE_COLUMNS", suspects._BYTE_ROWS)
    return request.param


def _expanded_group(order):
    return build_C(expand_semigroupoid(cyclic_group(order)))


@pytest.mark.parametrize("name", ["C(Sz(Z_3))", "Sz^2(C(ex6_6))"])
def test_wo_tests_keep_every_failing_group_on_every_single_edit(name,
                                                                 wo_gate):
    t = _expanded_group(3) if name == "C(Sz(Z_3))" else \
        expand_constellation(expand_constellation(build_C(fixtures.ex6_6())))
    assert len(t.carrier) == (8 if name == "C(Sz(Z_3))" else 9)
    assert _assert_wo_groups_kept(t) == set()
    axioms, edits = set(), 0
    for edit in _lic_edits(t):
        axioms |= _assert_wo_groups_kept(edit)
        edits += 1
    assert edits == {"C(Sz(Z_3))": 582, "Sz^2(C(ex6_6))": 818}[name]
    assert axioms == {f"wo{i}" for i in range(1, 10)}


def _seeded_lic_edits(t, seed, count):
    """count single edits of t drawn at random: a table cell set to None or
    to an element, a plus value changed, or an order pair added or removed
    where that leaves a partial order."""
    rng, carrier = random.Random(seed), t.carrier
    made = 0
    while made < count:
        a, b, v = (rng.choice(carrier) for _ in range(3))
        kind = made % 3
        try:
            if kind == 0:
                comp = dict(t.table.comp)
                if rng.random() < 0.3:
                    comp.pop((a, b), None)
                else:
                    comp[a, b] = v
                yield OrderedConstellation(PartialTable(carrier, comp),
                                           t.plus, t.order)
            elif kind == 1:
                yield OrderedConstellation(t.table, {**t.plus, a: v}, t.order)
            elif a != b:
                yield OrderedConstellation(t.table, t.plus,
                                           t.order ^ {(a, b)})
            else:
                continue
        except ValueError:  # the edited relation is no partial order
            continue
        made += 1


def test_wo_tests_keep_every_failing_group_on_seeded_edits_of_a_large_expansion():
    t = _expanded_group(5)
    assert len(t.carrier) == 48
    assert suspects._wo_suspects(t.table.rows, t.plus_row, t._index()) == \
        ([], [], [])
    axioms = _assert_wo_groups_kept(t)
    for edit in _seeded_lic_edits(t, 28, 30):
        axioms |= _assert_wo_groups_kept(edit)
    assert {"wo1", "wo4", "wo5", "wo7"} <= axioms


def test_wo_tests_keep_every_failing_group_on_the_fixture_images(wo_gate):
    sizes = set()
    for x in _fixture_images():
        if isinstance(x, OrderedConstellation):
            assert _assert_wo_groups_kept(x) == set()
            sizes.add(len(x.carrier))
    assert max(sizes) == 20 and min(sizes) < 8


def _random_constellation(rng, n):
    """A constellation on n elements drawn at random, valid or not: a
    partial table and a plus map, each entry an index or undefined, and
    the partial order closing a random set of pairs a < b."""
    carrier = tuple(range(n))
    comp = {(a, b): rng.randrange(n) for a, b in product(carrier, repeat=2)
            if rng.random() < 0.4}
    up = [{a} | {b for b in carrier if b > a and rng.random() < 0.15}
          for a in carrier]
    for a in reversed(carrier):  # close upward, from the top
        up[a] = up[a].union(*(up[b] for b in up[a] if b != a))
    return OrderedConstellation(
        PartialTable(carrier, comp),
        {a: rng.choice([a, rng.randrange(n)]) for a in carrier},
        {(a, b) for a in carrier for b in up[a]})


def test_wo_tests_keep_every_failing_group_on_random_structures(wo_gate):
    rng, axioms = random.Random(2828), set()
    for _ in range(120):
        axioms |= _assert_wo_groups_kept(_random_constellation(
            rng, rng.randrange(8, 17)))
    assert axioms == {f"wo{i}" for i in range(1, 10)}


def test_the_wo_tests_start_at_their_gates():
    # The bit-row test starts at 8 elements and the byte-column test at
    # 16, so the census (n <= 4) and the small mutants scan every group as
    # before; at 7 elements both return None, for every group.
    assert (suspects._BYTE_ROWS, suspects._BYTE_COLUMNS) == \
        (range(8, 255), range(16, 255))
    for t in (build_C(cyclic_group(7)), _expanded_group(3)):
        val, n = t.table.rows, len(t.carrier)
        assert _wo1_rows(val, t.up) == (None if n == 7 else [])
        assert _wo_suspects(val, t.plus_row, t._index()) is None
