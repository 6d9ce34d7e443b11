"""The coded form in which every structure is stored, and what is derived
from it.

The elements of a carrier are numbered by their position in it.  A table
is stored as rows of value indices (val[a][b], None where the product is
undefined), a plus map as a tuple of indices, and an order as up-lists
(up[x], the y >= x in index order).  The axiom generators, functors,
classifiers and morphism checkers read these fields and name their
witnesses back through the carrier (core._named_report); the labelled
comp, plus and order are views built from them on each access.  From
the up-lists come the boolean rows (le[x][y] when x <= y) and the
down-lists, which a constellation keeps with its corestriction index
(_Index), built on first use.  A subset A of a carrier is coded as the
bitmask of its indices, as a Szendrei expansion codes its elements
(A, a), and so is each image uA (_subset_images).  The s1-s3 and c1/c2
checkers scan only the rows that a byte-row test of the table cannot pass
(_suspect_rows).
"""

from operator import eq

# The carrier sizes on which _suspect_rows tests rows as bytes: below 8
# elements the full scan costs no more (as measured on single-cell edits),
# and above 254 a byte cannot hold the n + 2 symbols.
_BYTE_ROWS = range(8, 255)


def _positions(carrier):
    """{element: its index in the carrier}."""
    return {x: i for i, x in enumerate(carrier)}


def _comp_rows(carrier, comp):
    """(carrier, rows): a labelled table checked and coded by carrier
    index, as PartialTable stores it."""
    carrier = tuple(carrier)
    if not carrier:
        raise ValueError("carrier must be nonempty")
    position = _positions(carrier)
    if len(position) != len(carrier):
        raise ValueError("carrier ids must be distinct")
    cells = []
    for (a, b), c in dict(comp).items():
        cell = position.get(a), position.get(b), position.get(c)
        if None in cell:
            raise ValueError(f"comp entry {(a, b, c)!r} leaves the carrier")
        cells.append((cell[:2], cell[2]))
    return carrier, _table_rows(len(carrier), cells)


def _plus_row(carrier, plus):
    """A labelled plus map checked total on the carrier with image inside
    it, and coded by carrier index: a tuple of indices, as the structures
    store it."""
    plus = dict(plus)
    position = _positions(carrier)
    if plus.keys() != position.keys():
        raise ValueError("plus must be total on the carrier")
    if not all(e in position for e in plus.values()):
        raise ValueError("plus image leaves the carrier")
    return tuple([position[plus[x]] for x in carrier])


def _up_lists(carrier, order):
    """The up-lists of an order given by its pairs, each once, checked
    inside the carrier, as a constellation stores them.  Of the pairs that
    leave the carrier, the least by its text is named, so the message does
    not depend on the hash seed."""
    position = _positions(carrier)
    leaving = [repr((a, b)) for a, b in order
               if a not in position or b not in position]
    if leaving:
        raise ValueError(f"order pair {min(leaving)} leaves the carrier")
    return _order_rows(((position[a], position[b]) for a, b in order),
                       len(position))[1]


def _table_rows(n, cells):
    """The value rows of a table on n elements from its cells ((a, b), v),
    in carrier indices: val[a][b] is v, None where no cell is given."""
    val = [[None] * n for _ in range(n)]
    for (a, b), v in cells:
        val[a][b] = v
    return tuple([tuple(row) for row in val])


def _defined_rows(val):
    """Boolean rows: D[a][b] is true when val[a][b] is defined."""
    return [[v is not None for v in row] for row in val]


def _suspect_rows(val, masked):
    """The list of rows (a, b, every) on which s1-s3 (masked false, as
    core._s_violations states them) or c1/c2 (masked true, as
    constellation._c12_violations states them) can fail, for a complete
    table coded by carrier index, in index order; None, for every row, on
    a carrier outside _BYTE_ROWS.  Here every is range(n) and r ranges
    over it.

    Each row of val is coded as bytes, one per column: a defined value
    keeps its index and an undefined one is N = n.  For a left factor a,
    the table that sends each index v to the index of av, or to U = n + 1
    where av is undefined, and N to N, translates the row of b into the
    row of a(br): N where br is undefined, U where br is defined and a(br)
    is not, and the index of a(br) elsewhere.  It is compared with the
    expected row: the row of ab when ab is defined, else b's domain
    pattern, U where br is defined and N elsewhere.  The rows of all b are
    joined into one blob, so one translate and one comparison test every
    row of a; on the c side only the positions with br defined count (a
    mask fixed per table).  A left factor that fails yields its failing
    rows only.

    A row passes exactly when its generator yields nothing on it.  U and
    N are no index, and the table is complete (ab is defined exactly when
    val[a][b] is not None), so column by column:

    s1-s3, ab undefined: only s3 can trigger, at r with br and a(br)
    defined, where an index meets U.  Elsewhere both entries are N (br
    undefined) or U (a(br) undefined).
    s1-s3, ab defined: nothing triggers where br and (ab)r are undefined,
    and there both entries are N.  A triggered r yields nothing exactly
    when br, (ab)r and a(br) are defined and (ab)r = a(br), where the two
    indices agree.  Otherwise the entries differ: N meets an index where
    br is undefined and (ab)r defined (s2); U meets an index or N where
    a(br) is undefined (s1); an index meets N where a(br) is defined and
    (ab)r is not (s1 and s3).
    c1/c2: nothing is yielded where br is undefined, the masked columns.
    Where br is defined: with ab undefined, c1 fails exactly where a(br)
    is defined, where an index meets U; with ab defined, c1 or c2 fails
    unless a(br) and (ab)r are defined and equal, where the entries agree.

    The n + 2 symbols fit a byte while n <= 254.  The rows come in index
    order and only rows that yield nothing are left out, so the
    violations come in the sequence the full scan gives.
    """
    n = len(val)
    if n not in _BYTE_ROWS:
        return None
    return list(_byte_row_mismatches(val, masked))


def _byte_row_mismatches(val, masked):
    """The rows of _suspect_rows on any carrier of at most 254 elements."""
    n = len(val)
    every = range(n)
    fixed = bytes(range(n, 256))  # N, and the bytes no row holds
    rows = [bytes([n if v is None else v for v in row]) for row in val]
    blob = b"".join(rows)
    domains = [row.translate(bytes([n + 1]) * n + fixed) for row in rows]
    undefined = bytes(range(n)) + bytes([n + 1]) + fixed[1:]  # N to U
    if masked:
        mask = int.from_bytes(blob.translate(b"\xff" * n + bytes(256 - n)),
                              "big")
    for a, va in enumerate(val):
        got = blob.translate(rows[a].translate(undefined) + fixed)
        want = b"".join([domains[b] if v is None else rows[v]
                         for b, v in enumerate(va)])
        if got == want:
            continue
        if masked:
            diff = (int.from_bytes(got, "big")
                    ^ int.from_bytes(want, "big")) & mask
            if not diff:
                continue
            got, want = diff.to_bytes(n * n, "big"), bytes(n * n)
        for b in every:
            i = b * n
            if got[i:i + n] != want[i:i + n]:
                yield a, b, every


def _order_rows(pairs, n):
    """(le, up, down) for an order on range(n) given by its pairs, each
    once, with up as a constellation stores it (a tuple of tuples)."""
    up = [[] for _ in range(n)]
    for a, b in sorted(pairs):
        up[a].append(b)
    up = tuple([tuple(above) for above in up])
    return _le_rows(up), up, _down_lists(up)


def _le_rows(up):
    """The boolean rows of an order given by its up-lists: le[x][y] is true
    when x <= y."""
    le = [[False] * len(up) for _ in up]
    for row, above in zip(le, up):
        for y in above:
            row[y] = True
    return le


def _down_lists(up):
    """The down-lists of an order given by its up-lists, in index order."""
    down = [[] for _ in up]
    for x, above in enumerate(up):
        for y in above:
            down[y].append(x)
    return down


def _subset_images(val, masks):
    """For the table rows val of a carrier and the bitmasks of subsets A of
    its indices: images[u][i] is uA = {ux : x in A} for A = masks[i], as a
    bitmask, computed once per u and distinct A, or, where some ux is
    undefined, ~x < 0 for the first such x in index order (so
    image | mask == mask fails)."""
    subsets = {mask: _indices(mask) for mask in masks}
    images = []
    for row in val:
        by_mask = {}
        for mask, xs in subsets.items():
            image = 0
            for x in xs:
                v = row[x]
                if v is None:
                    image = ~x
                    break
                image |= 1 << v
            by_mask[mask] = image
        images.append([by_mask[mask] for mask in masks])
    return images


def _indices(mask):
    """The indices in a bitmask, in index order."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


class _Index:
    """A constellation's corestriction index, coded by carrier index, with
    the order rows it is built from.

    For e in T+ and x in T: some[e][x] is true when x|e has candidates,
    the y <= x with ye defined, and top[e][x] is their maximum, None when
    there is none.  Both hold a row for each e in T+ only, as the wo checks
    read them; image lists T+ in index order, position maps each element
    to its index, and le and down are the order's boolean rows and
    down-lists.
    """

    __slots__ = ("position", "image", "top", "some", "le", "down")

    def __init__(self, position, image, top, some, le, down):
        self.position = position
        self.image = image
        self.top = top
        self.some = some
        self.le = le
        self.down = down


def _corestriction_index(position, val, plus, le, down):
    """The _Index of a coded constellation: the candidates for x|e are the y
    in the down-set of x with ye defined, in index order."""
    n = len(val)
    image = tuple(sorted(set(plus)))
    top = [None] * n
    some = [None] * n
    for e in image:
        composable = [row[e] is not None for row in val]
        top[e] = top_e = [None] * n
        some[e] = some_e = [False] * n
        for x, below in enumerate(down):
            cands = [y for y in below if composable[y]]
            if cands:
                some_e[x] = True
                top_e[x] = _maximum(le, cands)
    return _Index(position, image, top, some, le, down)


def _maximum(le, elements):
    """The first of the coded elements above all of them, or None."""
    for m in elements:
        for y in elements:
            if not le[y][m]:
                break
        else:
            return m
    return None


def _restrictions(plus, down, e, x):
    """The y <= x with y+ = e, in index order, for a constellation coded by
    carrier index (plus and its order's down-lists): exactly one when the
    restriction e|x exists."""
    return [y for y in down[x] if plus[y] == e]


def _identity_line(x, line):
    """Whether x acts as an identity along line, its row or its column in
    a coded table: xx = x, and every entry is s at s or None."""
    return line[x] == x and \
        sum(map(eq, line, range(len(line)))) + line.count(None) == len(line)


def _components(image, le):
    """The plus-components of a coded constellation as (group, maximum)
    pairs: the classes of T+ (image, in index order) under the zig-zag
    closure of the order, in index order of their first elements, each in
    index order, with its maximum (None when it has none)."""
    component = {}
    groups = []
    for e in image:
        if e in component:
            continue
        group = [e]
        component[e] = len(groups)
        for a in group:  # grows while it is read
            for b in image:
                if b not in component and (le[a][b] or le[b][a]):
                    component[b] = len(groups)
                    group.append(b)
        group.sort()
        groups.append(group)
    return [(group, _maximum(le, group)) for group in groups]
