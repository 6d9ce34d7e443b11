"""The census's table search: every partial table on a small carrier that a
violation generator accepts.

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
tables, in a deterministic order and duplicate-free.

None of these conditions names a label, so relabelling the carrier maps
valid tables to valid tables.  The search therefore visits only the least
D of each orbit under the n! relabellings, and there only the tables that
are lex-least under the relabellings fixing that D; every other table is
rebuilt by relabelling a kept one and put back in search order (_tables).

The two censuses (enumerate.py) ask in addition for tables on which every
x has a unit, an e with ex = x and ee = e, a condition that names no label
either: they skip the orbit of a D in which some x has no e with ex and ee
defined, and cut a branch once the values assigned leave some x no e with
ex and ee each unassigned or equal to x and e (_least_tables).
"""

from itertools import permutations, product

from .coded import _table_rows
from .core import PartialTable, _from_rows, holds

# _tables keeps one byte per defined-pair mask: a permutation index below
# _EMPTY (n! <= 120), _EMPTY for a mask whose orbit holds no table, and
# _UNSEEN before the mask's orbit is searched.
_MAX_TABLE_CARRIER = 5
_EMPTY = 254
_UNSEEN = 255


class CapExceededError(RuntimeError):
    """A size or candidate count above its cap, or an unreadable cap: the
    package's one cap error, which enumerate and morphism re-export."""


def _tables(carrier, violations):
    """The tables of _table_codes(carrier, violations) as PartialTables."""
    for val in _table_codes(carrier, violations):
        yield _from_rows(PartialTable, carrier, val)


def _table_codes(carrier, violations, units=False):
    """All tables on the carrier on which the coded generator
    violations(D, val, rows) yields nothing, and with units, on which every
    x has a unit, in mask order and then in carrier order of the values,
    each as its value rows (coded._table_rows).

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
    its orbit, as is, with units, a mask in which some x has no e with ex
    and ee defined.  After each assigned value the generator runs on the
    rows that read it (_reading_rows), and a branch is cut at its first
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
                [(perms[g], slots(g, qs, qs)) for g in stabilizer[1:]], units)
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
        defined = [coded[q] for q in qs]
        for t in sorted(tables):
            yield _table_rows(n, zip(defined, t))


def _relabelled_bytes(bit_images):
    """For each byte value, the mask of the bit_images of its set bits."""
    table = [0] * (1 << len(bit_images))
    for v in range(1, len(table)):
        low = v & -v
        table[v] = table[v ^ low] | 1 << bit_images[low.bit_length() - 1]
    return table


def _least_tables(n, violations, defined, symmetries, units=False):
    """The valid tables on the defined pairs (carrier indices), as bytes of
    value indices, that no symmetry (g, slots) maps to a lex-smaller table;
    g(t) has g[t[slots[j]]] at position j.  With units, only the tables on
    which every x has a unit, an e with ex = x and ee = e.

    A unit e of x needs ex and ee defined, so a mask that leaves some x no
    such e has no table kept.  While values are assigned, e stays a
    possible unit of x as long as ex and ee are each unassigned or equal to
    x and e.  Only the cell (a, b) just assigned can end that, when its
    value is not b: an off-diagonal cell for a in column b, a diagonal one
    for a in every column.  Those columns are rechecked, and the branch is
    cut when one has no possible unit left.
    """
    choices = _value_choices(n, defined)
    if choices is None:
        return []
    D = [[False] * n for _ in range(n)]
    for a, b in defined:
        D[a][b] = True
    possible = None
    if units:
        # possible[x]: the e with ex and ee defined; columns[e]: the x with
        # e in possible[x]
        possible = [[e for e in range(n) if D[e][x] and D[e][e]]
                    for x in range(n)]
        if not all(possible):
            return []
        columns = [[x for x in range(n) if e in possible[x]]
                   for e in range(n)]
    val = [[None] * n for _ in range(n)]
    values = []
    kept = []

    def no_unit_left(a, b, value):
        if possible is None or value == b:
            return False
        return not all(
            any(val[e][x] in (None, x) and val[e][e] in (None, e)
                for e in possible[x])
            for x in (columns[a] if a == b else (b,)))

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
                if not no_unit_left(a, b, value) and \
                        holds(violations(D, val, _reading_rows(val, a, b))):
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
