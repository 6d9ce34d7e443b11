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
(A, a), and so is each image uA (_subset_images) and each down-set the
corestriction index reads.  The tests that let a checker scan only the
groups of instances that can fail read this form too; they live in
suspects: the byte-row test of s1-s3 and c1/c2, the bit-row test of wo1
(each defined pair one bit) and the byte-column test of wo4, wo5 and wo7.
They share one gate, 8 to 254 elements (suspects._BYTE_ROWS), and the
byte-column test starts at 16; below the gate, the census among them, the
full scans run.
"""

from operator import eq


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
    """The _Index of a coded constellation.  The candidates for x|e, the y
    <= x with ye defined, are below[x] & composable: x is their maximum
    when xe is defined, else the one whose down-set holds them all."""
    n = len(val)
    image = tuple(sorted(set(plus)))
    below = []
    for ys in down:
        mask = 0
        for y in ys:
            mask |= 1 << y
        below.append(mask)
    top = [None] * n
    some = [None] * n
    rows = {}  # each distinct some row is held once
    for e in image:
        top[e] = top_e = [None] * n
        some_e = [False] * n
        composable = 0
        for x, row in enumerate(val):
            if row[e] is not None:
                composable |= 1 << x
                some_e[x], top_e[x] = True, x
        for x, mask in enumerate(below):
            if not some_e[x] and mask & composable:
                some_e[x] = True
                top_e[x] = _top(below, mask & composable)
        some[e] = rows.setdefault(bytes(some_e), some_e)
    return _Index(position, image, top, some, le, down)


def _top(below, mask):
    """The member of mask whose down-set (below) holds mask, or None."""
    # tried from the least index, where the expansions put large elements
    rest = mask
    while rest:
        m = (rest & -rest).bit_length() - 1
        if not mask & ~below[m]:
            return m
        rest &= rest - 1
    return None


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
