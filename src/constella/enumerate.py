"""Exhaustive generation of all valid structures on small carriers.

Tables are generated by choosing a defined-pair subset D, then assigning
values depth-first.  Each defined pair ab draws its value only from the v
with Ldom(v) = Ldom(a) and Rdom(b) a subset of Rdom(v), which s1-s3 and
c1/c2 both impose (a D with an empty choice is skipped).  After each
assignment the reporting checker's own violation generator (s1-s3, or
c1/c2 on the constellation side) runs on the rows of instances that read
the new value, and the branch is cut at its first violation (core.holds):
on a partial table the generators report only instances that are already
broken, and on a complete one exactly the failing instances, so every
other instance still holds.  The stream is exactly the set of valid
structures, in a deterministic order and duplicate-free.

None of these conditions names a label, so relabelling the carrier maps
valid tables to valid tables.  The search therefore visits only the least
D of each orbit under the n! relabellings, and there only the tables that
are lex-least under the relabellings fixing that D; every other table is
rebuilt by relabelling a kept one and put back in search order (_tables).

Each table is paired only with plus maps that draw x+ from {e : ex = x},
a condition both lr1 and c3 impose.  The remaining axioms are decided by
the same generators the reporting checkers collect, stopped at the first
violation.  The whole search runs on carrier indices, on the coded tables,
plus maps and orders those generators read; labels are attached only to
the tables and structures it yields.

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
    _check_partial_order,
    _lr_violations,
    _s_violations,
    holds,
)

__all__ = [
    "CapExceededError",
    "DEFAULT_SIZE_CAP",
    "cap_from_env",
    "carrier_labels",
    "all_partial_orders",
    "enumerate_semigroupoids",
    "enumerate_lr_semigroupoids",
    "enumerate_li_constellations",
    "are_isomorphic",
    "canonical_form",
    "dedupe_up_to_iso",
]

DEFAULT_SIZE_CAP = 4

# _tables keeps one byte per defined-pair mask: a permutation index below
# _EMPTY (n! <= 120), _EMPTY for a mask whose orbit holds no table, and
# _UNSEEN before the mask's orbit is searched.
_MAX_TABLE_CARRIER = 5
_EMPTY = 254
_UNSEEN = 255


class CapExceededError(RuntimeError):
    """A size or candidate count above its cap, or an unreadable cap."""


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


def size_cap_from_env(default=DEFAULT_SIZE_CAP):
    """CONSTELLA_CAP values up to 8 act as the census size cap."""
    value = cap_from_env()
    return value if value is not None and value <= 8 else default


def carrier_labels(n):
    return tuple(str(i) for i in range(n))


def _check_cap(n, cap):
    if cap is None:
        cap = size_cap_from_env()
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > cap:
        raise CapExceededError(f"size {n} exceeds cap {cap}")


def _tables(carrier, violations):
    """The tables of _table_codes(carrier, violations) as PartialTables,
    each comp keyed in mask order."""
    for keys, _, values in _table_codes(carrier, violations):
        yield _labelled_table(carrier, keys, values)


def _table_codes(carrier, violations):
    """All tables on the carrier on which the coded generator
    violations(D, val, rows) yields nothing, in mask order and then in
    carrier order of the values, each as (keys, defined, values): its
    defined pairs in mask order, as pairs of elements (one list shared by
    the tables of a mask) and as pairs of carrier indices, and the bytes of
    the indices of their values.

    Relabelling the carrier by a permutation h maps the valid tables on a
    defined-pair mask m one to one onto those on h(m): s1-s3, c1/c2 and
    the _value_choices filter are stated without reference to labels.  So
    only the least mask of each orbit (the first one met in mask order) is
    searched, and there only for the tables that no permutation fixing the
    mask maps to a lex-smaller one (values compared by carrier index, in
    mask order): a value is dropped as soon as some such permutation makes
    the assigned prefix smaller.  Every table on a mask h(rep) is then
    h(g(t)) for g fixing rep and t a kept table, and these are rebuilt,
    deduplicated and sorted, which is the order the full search yields.

    On the searched mask each defined pair takes its values from
    _value_choices, and a mask in which some pair has none is skipped with
    its orbit.  After each assigned value the generator runs on the rows
    that read it (_reading_rows), and a branch is cut at its first
    violation.  This is exact: every instance held before the assignment,
    and only those reading the new value can change.  The empty table is
    not checked, as no instance triggers on it.

    The per-mask state is one byte (the permutation that carries the
    orbit's least mask to it), so carriers are limited to 5 elements.
    """
    n = len(carrier)
    if n > _MAX_TABLE_CARRIER:
        raise CapExceededError(
            f"table search capped at {_MAX_TABLE_CARRIER} elements")
    pairs = sorted(product(carrier, repeat=2))
    position = {pair: q for q, pair in enumerate(pairs)}
    index = {x: i for i, x in enumerate(carrier)}
    coded = [(index[a], index[b]) for a, b in pairs]
    perms = list(permutations(range(n)))  # perms[0] is the identity
    number = {p: k for k, p in enumerate(perms)}
    inverse = [number[tuple(sorted(range(n), key=p.__getitem__))]
               for p in perms]
    # moved[k][q]: the bit of pair q relabelled by perms[k]
    moved = [[position[carrier[p[index[a]]], carrier[p[index[b]]]]
              for a, b in pairs] for p in perms]
    # bytewise[k][c][v]: the byte v at byte c of a mask relabelled by
    # perms[k], so that a mask is relabelled by a few lookups
    bytewise = [[_relabelled_bytes(bit_images[c:c + 8])
                 for c in range(0, len(pairs), 8)] for bit_images in moved]

    def bits(mask):
        return [q for q in range(len(pairs)) if mask >> q & 1]

    def image(k, mask):
        out = 0
        for table in bytewise[k]:
            out |= table[mask & 255]
            mask >>= 8
        return out

    def slots(k, src, dst):
        # perms[k] carries a table on bits src to one on bits dst whose
        # j-th value is perms[k] of the source's slots[j]-th value
        where = {q: j for j, q in enumerate(src)}
        back = moved[inverse[k]]
        return [where[back[q]] for q in dst]

    orbit_of = bytearray([_UNSEEN]) * (1 << len(pairs))
    searched = {}  # least mask -> (its bits, its stabilizer, kept tables)
    for mask in range(1 << len(pairs)):
        k = orbit_of[mask]
        if k == _EMPTY:
            continue
        qs = bits(mask)
        if k == _UNSEEN:  # the least mask of its orbit
            images = [image(h, mask) for h in range(len(perms))]
            stabilizer = [g for g, m in enumerate(images) if m == mask]
            kept = _least_tables(
                n, violations, [coded[q] for q in qs],
                [(perms[g], slots(g, qs, qs)) for g in stabilizer[1:]])
            for h, m in enumerate(images):
                if orbit_of[m] == _UNSEEN:
                    orbit_of[m] = h if kept else _EMPTY
            if not kept:
                continue
            searched[mask] = qs, stabilizer, kept
            k = 0
        rep_qs, stabilizer, kept = searched[image(inverse[k], mask)]
        tables = set()
        for g in stabilizer:
            hg = number[tuple(perms[k][i] for i in perms[g])]
            p, src = perms[hg], slots(hg, rep_qs, qs)
            tables.update(bytes(p[t[s]] for s in src) for t in kept)
        keys = [pairs[q] for q in qs]
        defined = [coded[q] for q in qs]
        for t in sorted(tables):
            yield keys, defined, t


def _labelled_table(carrier, keys, values):
    """The PartialTable of a coded table, keyed in the order of keys."""
    return PartialTable(
        carrier, {key: carrier[v] for key, v in zip(keys, values)})


def _table_rows(n, defined, values):
    """A coded table as rows: val[a][b] is the value of (a, b), else None."""
    val = [[None] * n for _ in range(n)]
    for (a, b), v in zip(defined, values):
        val[a][b] = v
    return val


def _relabelled_bytes(bit_images):
    """For each byte value, the mask of the bit_images of its set bits."""
    table = [0] * (1 << len(bit_images))
    for v in range(1, len(table)):
        low = v & -v
        table[v] = table[v ^ low] | 1 << bit_images[low.bit_length() - 1]
    return table


def _least_tables(n, violations, defined, symmetries):
    """The valid tables on the defined pairs (carrier indices), as bytes of
    value indices, that no symmetry (g, slots) maps to a lex-smaller table;
    g(t) has g[t[slots[j]]] at position j."""
    choices = _value_choices(n, defined)
    if choices is None:
        return []
    D = [[False] * n for _ in range(n)]
    for a, b in defined:
        D[a][b] = True
    val = [[None] * n for _ in range(n)]
    values = []
    kept = []

    def smaller_image():
        last = len(values)
        for g, slots in symmetries:
            for j in range(last):
                s = slots[j]
                if s >= last:
                    break
                v = g[values[s]]
                if v != values[j]:
                    if v < values[j]:
                        return True
                    break
        return False

    def assign(i):
        if i == len(defined):
            kept.append(bytes(values))
            return
        a, b = defined[i]
        for value in choices[i]:
            values.append(value)
            if not smaller_image():
                val[a][b] = value
                if holds(violations(D, val, _reading_rows(val, a, b))):
                    assign(i + 1)
            values.pop()
        val[a][b] = None

    assign(0)
    return kept


def _value_choices(n, defined):
    """For each defined pair (a, b) of carrier indices, in order, the values
    v in index order with Ldom(v) = Ldom(a) and Rdom(b) a subset of
    Rdom(v); None when some pair has no such value.

    Ldom(v) = {s : sv defined} and Rdom(v) = {r : vr defined}.  Both
    s1-s3 and c1/c2 impose this on v = ab: an s with sa defined has s(ab)
    defined and conversely (s1, s3; c1), and an r with br defined has
    (ab)r defined (s1; c2).
    """
    ldom = [set() for _ in range(n)]
    rdom = [set() for _ in range(n)]
    for s, x in defined:
        ldom[x].add(s)
        rdom[s].add(x)
    choices = []
    for a, b in defined:
        values = [v for v in range(n)
                  if ldom[v] == ldom[a] and rdom[b] <= rdom[v]]
        if not values:
            return None
        choices.append(values)
    return choices


def _reading_rows(val, a, b):
    """The rows (s, x, rs) of the instances (s, x, r) of a coded table whose
    verdict reads val[a][b]: as sx in (a, b, r), as xr in (s, a, b), as
    (sx)r in (s, x, b) with sx = a, and as s(xr) in (a, x, r) with
    xr = b."""
    every = range(len(val))
    yield a, b, every
    only_b = (b,)
    for s in every:
        yield s, a, only_b
    for s, row in enumerate(val):
        for x, value in enumerate(row):
            if value == a:
                yield s, x, only_b
    for x, row in enumerate(val):
        rs = [r for r, value in enumerate(row) if value == b]
        if rs:
            yield a, x, rs


def _plus_maps(val):
    """Plus maps of a coded table, as tuples of carrier indices, with every
    x+ drawn from {e : ex = x}, in the lexicographic order of the full n^n
    product.

    ex = x is necessary for e = x+: it is lr1 on the semigroupoid side and
    one direction of c3 on the constellation side.
    """
    every = range(len(val))
    return product(*([e for e in every if val[e][x] == x] for x in every))


def _labelled_plus(carrier, plus):
    return {x: carrier[e] for x, e in zip(carrier, plus)}


def enumerate_semigroupoids(n, cap=None):
    """All partial tables on n labels satisfying closure-associativity."""
    _check_cap(n, cap)
    yield from _tables(carrier_labels(n), _s_violations)


def enumerate_lr_semigroupoids(n, cap=None):
    """All left restriction semigroupoids on n labels.

    The search runs on carrier indices; labels are attached only to the
    tables and structures it yields."""
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    for keys, defined, values in _table_codes(carrier, _s_violations):
        val = _table_rows(n, defined, values)
        table = None
        for plus in _plus_maps(val):
            if holds(_lr_violations(val, plus)):
                if table is None:
                    table = _labelled_table(carrier, keys, values)
                yield LeftRestrictionSemigroupoid(
                    table, _labelled_plus(carrier, plus))


def all_partial_orders(carrier):
    """Every partial order on the carrier, as frozensets of pairs."""
    carrier = tuple(carrier)
    reflexive = {(a, a) for a in carrier}
    strict = sorted(
        (a, b) for a, b in product(carrier, repeat=2) if a != b
    )
    orders = []
    for mask in range(1 << len(strict)):
        chosen = {strict[i] for i in range(len(strict)) if mask >> i & 1}
        order = frozenset(chosen | reflexive)
        if _check_partial_order(order, carrier) is None:
            orders.append(order)
    return orders


def enumerate_li_constellations(n, cap=None):
    """All locally inductive ordered constellations on n labels.

    Generated directly from the constellation axioms, independently of the
    semigroupoid census, so the two counts can serve as oracles for each
    other.  Each (table, plus) pair passing c1-c4 is tried only with the
    orders of _candidate_orders, a superset of its valid orders, and every
    candidate is then decided by wo1-wo9.  A pair has at most one valid
    order, so the stream is the one a filter over every partial order
    (all_partial_orders) yields.
    """
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    position = _positions(carrier)
    pair = [[(x, y) for y in carrier] for x in carrier]
    for keys, defined, values in _table_codes(carrier, _c12_violations):
        val = _table_rows(n, defined, values)
        table = None
        for plus in _plus_maps(val):
            if not holds(_c34_violations(val, plus)):
                continue
            for order in _candidate_orders(val, plus):
                le, up, down = _order_rows(order, n)
                if not holds(_order_violations(val, plus, le, up)):
                    continue
                cores = _corestriction_index(position, val, plus, le, down)
                if not holds(_index_violations(val, plus, le, down, cores)):
                    continue
                if table is None:
                    table = _labelled_table(carrier, keys, values)
                yield OrderedConstellation._trusted(
                    table, _labelled_plus(carrier, plus),
                    (pair[a][b] for a, b in order))


def _candidate_orders(val, plus):
    """The partial orders, as sets of pairs of carrier indices, of the form
    every locally inductive order of a coded (table, plus) pair has, given
    that c1-c4 hold: nothing when some e in T+ has e+ != e; otherwise
    e <= f iff ef is defined, for e, f in T+, and for each x outside T+ the
    down-set {x} | {y_e : e < x+ in T+}, one y_e with y_e+ = e drawn for
    each such e.  The choices run in carrier order, the last x and e
    fastest.

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
        order = frozenset(chain(fixed, chosen))
        if _check_partial_order(order, range(n)) is None:
            yield order


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
    comp = getattr(structure, "table", structure).comp.items()
    plus = getattr(structure, "plus", {}).items()
    order = getattr(structure, "order", ())

    def encoded(image):
        p = dict(zip(carrier, image))
        return (
            tuple(sorted((p[a], p[b], p[c]) for (a, b), c in comp)),
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
