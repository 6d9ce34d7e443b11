"""Exhaustive generation of all valid structures on small carriers.

Both censuses draw their tables from the table search of tables.py, each
with the checker's own generator of its table axioms (s1-s3, or c1/c2),
and pair each table with plus maps that draw x+ from its units of x, the e
with ex = x and ee = e: on both sides x+ is such a unit (the unit lemma,
proved at _plus_maps).  So the censuses also search only the tables on
which every x has a unit, which the table search prunes by orbit and by
branch.  The tables cut carry no plus map, so each census yields what it
yielded before; enumerate_semigroupoids keeps the unpruned search.  The
remaining axioms are decided by the same generators the reporting
checkers collect, stopped at the first violation.  The whole search runs
on carrier indices, on the coded tables, plus maps and orders those
generators read, and each structure it yields stores them as they are
(_from_rows), with one table shared by the structures on it.

A census holds each distinct stored value once: each census call keeps
one dict of the values its structures store, each the first instance
met.  These are the rows of the tables (at most (n + 1)^n, a value or
None in each column), the plus maps (at most n^n) and, on the
constellation side, the up-lists (at most 2^(n-1) for each x, one per set
of elements above x) and the up tuples (at most one per partial order).
The dict lives as long as the call and is read only for a table or a
structure that is yielded, so a rejected candidate costs no lookup.  It
changes no value and no order of the stream.

On the constellation side the order is built from the (table, plus) pair
rather than searched among all partial orders (_candidate_orders).  The
axioms force e+ = e on T+, fix the order on T+ as e <= f iff ef is
defined, and make the down-set of each x outside T+ the set of its
restrictions, one y with y+ = e for each e <= x+.  Only those down-sets
are chosen among; wo1-wo9 still decide every candidate.
"""

import os
from itertools import chain, permutations, product

from .coded import _corestriction_index, _order_rows, _positions
from .constellation import (
    OrderedConstellation,
    _c12_violations,
    _c34_violations,
    _index_violations,
    _order_violations,
)
from .core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _from_rows,
    _lr_violations,
    _order_rows_problem,
    _s_violations,
    holds,
)
from .tables import CapExceededError, _table_codes, _tables

__all__ = [
    "CapExceededError",
    "DEFAULT_SIZE_CAP",
    "cap_from_env",
    "carrier_labels",
    "enumerate_semigroupoids",
    "enumerate_lr_semigroupoids",
    "enumerate_li_constellations",
    "are_isomorphic",
    "canonical_form",
    "dedupe_up_to_iso",
]

DEFAULT_SIZE_CAP = 4


def cap_from_env():
    """The integer value of CONSTELLA_CAP, or None when it is unset."""
    raw = os.environ.get("CONSTELLA_CAP")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CapExceededError(
            f"CONSTELLA_CAP must be an integer, got {raw!r}") from None


def carrier_labels(n):
    return tuple(str(i) for i in range(n))


def _check_cap(n, cap):
    if cap is None:  # CONSTELLA_CAP values up to 8 cap the census size
        value = cap_from_env()
        cap = value if value is not None and value <= 8 else DEFAULT_SIZE_CAP
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > cap:
        raise CapExceededError(f"size {n} exceeds cap {cap}")


def _plus_maps(val):
    """Plus maps of a coded table, as tuples of carrier indices, with every
    x+ drawn from the units of x, the e with ex = x and ee = e, in the
    lexicographic order of the full n^n product.

    The unit lemma: x+ x = x and x+ x+ = x+ on both sides.
    - Semigroupoid side: lr1 gives x+ x = x.  Then lr3 at (e, t) = (x+, x)
      makes x+ x+ defined, with x+ = (x+ x)+ = x+ x+.
    - Constellation side: c3 gives x+ x = x.  As in _candidate_orders, c3
      and then c4 give (x+)+ = x+.  Then c3 at (x+, x+) gives
      x+ x+ = x+.
    """
    every = range(len(val))
    return product(*([e for e in every if val[e][x] == x and val[e][e] == e]
                     for x in every))


def enumerate_semigroupoids(n, cap=None):
    """All partial tables on n labels satisfying closure-associativity."""
    _check_cap(n, cap)
    yield from _tables(carrier_labels(n), _s_violations)


def enumerate_lr_semigroupoids(n, cap=None):
    """All left restriction semigroupoids on n labels.

    The search runs on carrier indices, and the structures it yields store
    its rows and plus maps as they are."""
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    pool = {}  # each distinct row and plus map once
    for val in _table_codes(carrier, _s_violations, True):
        table = None
        for plus in _plus_maps(val):
            if holds(_lr_violations(val, plus)):
                if table is None:
                    table = _from_rows(PartialTable, carrier,
                                       tuple(map(pool.setdefault, val, val)))
                yield _from_rows(LeftRestrictionSemigroupoid, table,
                                 pool.setdefault(plus, plus))


def enumerate_li_constellations(n, cap=None):
    """All locally inductive ordered constellations on n labels.

    Generated directly from the constellation axioms, independently of the
    semigroupoid census, so the two counts can serve as oracles for each
    other.  Each (table, plus) pair passing c1-c4 is tried only with the
    orders of _candidate_orders, a superset of its valid orders, and every
    candidate is then decided by wo1-wo9.  A pair has at most one valid
    order, so the stream is the one a filter over every partial order of
    the carrier yields.
    """
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    position = _positions(carrier)
    pool = {}  # each distinct row, plus map, up-list and up once
    for val in _table_codes(carrier, _c12_violations, True):
        table = None
        for plus in _plus_maps(val):
            if not holds(_c34_violations(val, plus)):
                continue
            for le, up, down in _candidate_orders(val, plus):
                if not holds(_order_violations(val, plus, le, up)):
                    continue
                cores = _corestriction_index(position, val, plus, le, down)
                if not holds(_index_violations(val, plus, cores)):
                    continue
                if table is None:
                    table = _from_rows(PartialTable, carrier,
                                       tuple(map(pool.setdefault, val, val)))
                up = tuple(map(pool.setdefault, up, up))
                yield _from_rows(OrderedConstellation, table,
                                 pool.setdefault(plus, plus),
                                 pool.setdefault(up, up))


def _candidate_orders(val, plus):
    """The partial orders, as the (le, up, down) rows of coded._order_rows,
    of the form every locally inductive order of a coded (table, plus)
    pair has, given that c1-c4 hold: nothing when some e in T+ has
    e+ != e; otherwise e <= f iff ef is defined, for e, f in T+, and for
    each x outside T+ the down-set {x} | {y_e : e < x+ in T+}, one y_e with
    y_e+ = e drawn for each such e.  The choices run in carrier order, the
    last x and e fastest.

    Why every valid order has this form.  Write x|e for the corestriction
    (the maximum of the y <= x with ye defined), e, f for elements of T+.

    - e+ = e: c3 for the plus-element e+ and x = e gives e+e = e; so e+e
      is defined, and c4 for the plus-element e gives e+e = e+.
    - ef defined implies e <= f: the candidates for e|f lie in the down-set
      of e and include e, so e|f = e.  By wo9 a nonempty e|f is the meet
      of e and f in one plus-component, a common lower bound: e <= f.
    - e <= f implies ef defined: since f+ = f, wo3 gives exactly one y <= f
      with y+ = e, and e is one.  wo8 makes it e|f, so e is a candidate
      for e|f, that is, ef is defined.
    - y <= x implies y+ <= x+ (wo2), and for each e <= x+ exactly one
      y <= x has y+ = e (wo3).  So the down-set of x is {y_e : e <= x+},
      with y_(x+) = x.
    - For x in T+ and y <= x: wo2 gives y+ <= x+ = x, and both y and y+
      are a z <= x with z+ = y+, as (y+)+ = y+.  wo3 allows only one, so
      y = y+: the down-set of x lies inside T+, where the order is fixed
      above.
    """
    n = len(val)
    image = set(plus)
    if any(plus[e] != e for e in image):
        return
    fibre = {e: [y for y in range(n) if plus[y] == e] for e in image}
    fixed = [(e, f) for e in image for f in image if val[e][f] is not None]
    slots = []  # one list of pairs (y_e, x) per x outside T+ and e < x+
    for x in range(n):
        if x in image:
            continue
        fixed.append((x, x))
        top = plus[x]
        slots += [[(y, x) for y in fibre[e]] for e in range(n)
                  if e in image and e != top and val[e][top] is not None]
    for chosen in product(*slots):
        le, up, down = _order_rows(chain(fixed, chosen), n)
        if _order_rows_problem(range(n), le, up) is None:
            yield le, up, down


def are_isomorphic(a, b):
    """(True, mapping) when a relabelling maps comp, plus, definedness (and
    order) of a onto b, else (False, None); decided by canonical keys.  The
    mapping is a's canonical relabelling followed by the inverse of b's."""
    if type(a) is not type(b) or len(a.carrier) != len(b.carrier):
        return False, None
    key, to_key, _ = canonical_form(a)
    other, from_key, _ = canonical_form(b)
    if key != other:
        return False, None
    back = {i: y for y, i in from_key.items()}
    return True, {x: back[i] for x, i in to_key.items()}


def canonical_form(structure):
    """(key, relabelling, |Aut|) from one pass over the n! relabellings of
    the carrier of structure, a PartialTable or a structure, by 0..n-1.

    The key is the type with the least label-free encoding: two structures
    have the same key exactly when they are isomorphic.  The relabelling
    ({element: index}) is the first that reaches the key.  Those that reach
    it are one coset p Aut(structure), so their count is |Aut|.
    """
    carrier = structure.carrier
    if len(carrier) > 8:
        raise CapExceededError("isomorphism search capped at 8 elements")
    rows = getattr(structure, "table", structure).rows
    cells = [(a, b, v) for a, row in enumerate(rows)
             for b, v in enumerate(row) if v is not None]
    plus = tuple(enumerate(getattr(structure, "plus_row", ())))
    order = [(a, b) for a, above in enumerate(getattr(structure, "up", ()))
             for b in above]

    def encoded(p):
        return (
            tuple(sorted((p[a], p[b], p[c]) for a, b, c in cells)),
            tuple(sorted((p[x], p[e]) for x, e in plus)),
            tuple(sorted((p[a], p[b]) for a, b in order)),
        )

    relabellings = list(permutations(range(len(carrier))))
    codes = list(map(encoded, relabellings))
    least = min(codes)
    first = dict(zip(carrier, relabellings[codes.index(least)]))
    return (type(structure), least), first, codes.count(least)


def dedupe_up_to_iso(structures):
    """Deterministic list of isomorphism-class representatives: the first
    structure met of each class, in input order."""
    reps = {}
    for s in structures:
        reps.setdefault(canonical_form(s)[0], s)
    return list(reps.values())
