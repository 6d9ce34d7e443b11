"""The fast paths of the checkers against the plain statements they replace.

- The full checks run on the structure relabelled by carrier index
  (core._scan_by_index) unless every element is a str or an int; here the
  same generators also run on the labelled structure, and the two must
  yield the same violations in the same order.  Census structures are
  moved onto 1-tuples first, which are neither str nor int, so that the
  coded path runs on them.
- _check_partial_order tests transitivity through successor lists; the
  plain scan over all pairs of pairs is kept here as the reference.
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
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import chain, islice, product
from pathlib import Path

import pytest

import constella
from constella import fixtures
from constella.classify import classify_constellation, classify_semigroupoid
from constella.constellation import (
    OrderedConstellation,
    _c12_violations,
    _c34_violations,
    _index_violations,
    _order_violations,
    check_constellation,
    check_locally_inductive,
)
from constella.core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    Violation,
    _check_partial_order,
    _lr_violations,
    _s_violations,
    _scan_by_index,
    _table_scan,
    check_left_restriction,
    check_semigroupoid,
    holds,
    relabel,
)
from constella.functor import build_C, build_G
from constella.io import render_report, serialize_structure
from constella.szendrei import (
    SzendreiElement,
    expand_constellation,
    expand_semigroupoid,
)
from constella.theorems import _census_lic, _census_lrs


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
    """x with each element e renamed (e,): a carrier that hashes in C but
    is neither str nor int, so that _scan_by_index relabels it."""
    if not isinstance(x.carrier[0], str):
        return x
    mapping = {e: (e,) for e in x.carrier}
    return relabel(x, mapping, tuple(mapping.values()))


# Scans as _scan_by_index runs them: scan(x) for a table or structure x.
_s_scan = _table_scan(_s_violations)
_c12_scan = _table_scan(_c12_violations)
TABLE_SCANS = (_s_scan, _c12_scan)


def _lr_scan(s):
    return _lr_violations(s.table, s.plus)


def _order_scan(t):
    return _order_violations(t.table, t.plus, t.order)


def _direct(scan, x):
    return tuple(scan(x))


def _coded(scan, x):
    assert not isinstance(x.carrier[0], (str, int))
    return tuple(_scan_by_index(scan, x))


def _assert_coded_matches_direct(scans, x):
    x = _on_tuples(x)
    for scan in scans:
        assert _coded(scan, x) == _direct(scan, x)


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


def test_str_and_int_carriers_are_scanned_directly():
    def scan(x):
        return [x]
    for x in (fixtures.ex6_7(), build_C(fixtures.ex6_7()),
              PartialTable((0, 1), {(0, 1): 1})):
        assert _scan_by_index(scan, x) == [x]


def _defined_in_carrier_order(table):
    return [p for p in product(table.carrier, repeat=2) if p in table.defined]


def test_coded_scans_name_witnesses_and_sort_keys_back():
    def pairs(x):
        assert x.carrier == tuple(range(len(x.carrier)))
        for pair in _defined_in_carrier_order(x.table):
            yield Violation("-", pair)
    for x in (_on_tuples(build_C(fixtures.ex6_7())), *_ex6_7_expansions()):
        witnesses = [v.witness for v in _scan_by_index(pairs, x)]
        assert witnesses == _defined_in_carrier_order(x.table)


def test_coded_scans_match_the_direct_scans():
    tables = list(_sample_tables())
    assert sorted({len(t.carrier) for t in tables})[-3:] == [6, 12, 20]
    for t in tables:
        _assert_coded_matches_direct(TABLE_SCANS, t)


def test_coded_scans_match_on_every_single_edit():
    lrs, lic = _census(2)
    failing = 0
    for base in chain(lrs, lic):
        for t in _table_edits(base.table):
            _assert_coded_matches_direct(TABLE_SCANS, t)
            failing += not holds(_s_violations(t.carrier, t.defined, t.comp))
    assert failing > 0


def _sample_structures():
    fx = fixtures.all_fixtures().values()
    sz, szsz, gsz, gszsz = _ex6_7_expansions()
    return [*fx, gsz, gszsz], [*map(build_C, fx), sz, szsz]


def test_coded_structure_scans_match_the_direct_scans():
    lrs, lic = _sample_structures()
    assert [len(x.carrier) for x in lrs[-2:] + lic[-2:]] == [12, 20, 12, 20]
    for s in lrs:
        _assert_coded_matches_direct((_lr_scan,), s)
    for t in lic:
        _assert_coded_matches_direct((_order_scan, _index_violations), t)


def test_coded_structure_scans_match_on_every_single_edit():
    lrs, lic = _census(2)
    axioms = set()
    for s in chain.from_iterable(map(_lrs_edits, lrs)):
        _assert_coded_matches_direct((_lr_scan,), s)
        axioms.update(v.axiom for v in _lr_scan(s))
    # At n <= 2 every down-set is a chain, so x|e always has a maximum; the
    # order edits at n = 3 add the wo4 failures.
    edits = chain(chain.from_iterable(map(_lic_edits, lic)),
                  chain.from_iterable(map(_order_edits, _census_lic(3))))
    for t in edits:
        _assert_coded_matches_direct((_order_scan, _index_violations), t)
        axioms.update(v.axiom for v in _order_scan(t))
        axioms.update(v.axiom for v in _index_violations(t))
    assert axioms == {"lr1", "lr2", "lr3", "lr4", *(f"wo{i}" for i in range(1, 10))}


def test_checkers_report_the_coded_scans():
    for s in fixtures.all_fixtures().values():
        c = _on_tuples(build_C(s))
        for table in _table_edits(c.table):
            assert check_semigroupoid(table).violations == _direct(
                _s_scan, table)
            assert check_left_restriction(table, c.plus).violations == \
                _direct(_lr_scan, LeftRestrictionSemigroupoid(table, c.plus))
            t = _discrete(table)
            c34 = tuple(_c34_violations(table, t.plus))
            assert check_constellation(t).violations == _direct(
                _c12_scan, table) + c34
            t = OrderedConstellation(table, c.plus, c.order)
            assert check_locally_inductive(t).violations == _direct(
                _order_scan, t) + _direct(_index_violations, t)


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
        wo1 = tuple(v for v in _order_scan(t) if v.axiom == "wo1")
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
    """The partial-order check as a plain scan over all pairs of pairs."""
    pairs = frozenset(pairs)
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
            assert _check_partial_order(rel, carrier) == expected
            outcomes.add(None if expected is None else expected.split(" at")[0])
    # Pairs that name an element outside the carrier do not raise.
    for rel in _relations(("a", "b", "z")):
        assert _check_partial_order(rel, ("a", "b")) == _pair_scan(rel, ("a", "b"))
    assert outcomes == {None, "not reflexive", "not antisymmetric",
                        "not transitive"}


def test_partial_order_check_matches_the_pair_scan_on_a_sample():
    rng = random.Random(20261018)
    carrier = tuple("abcde")
    universe = carrier + ("z",)
    transitive_failures = 0
    for _ in range(3000):
        rel = {(a, a) for a in carrier if rng.random() < 0.97}
        density = rng.random()
        for a, b in product(universe, repeat=2):
            if a != b and rng.random() < density * 0.3:
                if rng.random() < 0.9 and (b, a) in rel:
                    continue
                rel.add((a, b))
        expected = _pair_scan(rel, carrier)
        assert _check_partial_order(rel, carrier) == expected
        transitive_failures += bool(expected and "transitive" in expected)
    assert transitive_failures > 100


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
    for pair in product(t.carrier, repeat=2):
        order = t.order ^ {pair}
        if pair[0] != pair[1] and _check_partial_order(order, t.carrier) is None:
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
