"""Structures coded by carrier index, as the axiom generators read them.

The elements of a carrier are numbered by their position in it.  A table
is coded as rows of value indices (val[a][b], None where the product is
undefined), a plus map as a list of indices, and an order as boolean rows
(le[x][y] when x <= y) with up-lists and down-lists in index order.  Each
checker builds this view once per check and names the witnesses back
through the carrier (core._named_report); the census builds it directly
on indices.  A constellation's corestriction index is kept in the same
coding (_Index).
"""


def _positions(carrier):
    """{element: its index in the carrier}."""
    return {x: i for i, x in enumerate(carrier)}


def _value_rows(table, position):
    """The table's values as rows of carrier indices: val[a][b] is the index
    of the product of the elements at a and b, None where it is undefined."""
    n = len(table.carrier)
    val = [[None] * n for _ in range(n)]
    for (a, b), c in table.comp.items():
        val[position[a]][position[b]] = position[c]
    return val


def _defined_rows(val):
    """Boolean rows: D[a][b] is true when val[a][b] is defined."""
    return [[v is not None for v in row] for row in val]


def _coded_plus(carrier, plus, position):
    """The plus map as a list of carrier indices, in carrier order."""
    return [position[plus[x]] for x in carrier]


def _coded(t):
    """The constellation t coded by carrier index, as the axiom generators
    read it: (position, val, plus, le, up, down), with position its
    element -> index map, val and plus as _value_rows and _coded_plus give
    them, and the order as _order_rows gives it."""
    position = _positions(t.carrier)
    order = ((position[a], position[b]) for a, b in t.order)
    return (position, _value_rows(t.table, position),
            _coded_plus(t.carrier, t.plus, position),
            *_order_rows(order, len(position)))


def _order_rows(pairs, n):
    """(le, up, down) for an order on range(n) given by its pairs, each
    once: le[x][y] is true when x <= y, up[x] lists the y >= x and down[x]
    the y <= x, in index order."""
    le = [[False] * n for _ in range(n)]
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for a, b in sorted(pairs):
        le[a][b] = True
        up[a].append(b)
        down[b].append(a)
    return le, up, down


def _down_lists(up):
    """The down-lists of an order given by its up-lists, in index order."""
    down = [[] for _ in up]
    for x, above in enumerate(up):
        for y in above:
            down[y].append(x)
    return down


class _Index:
    """A constellation's corestriction index, coded by carrier index.

    For e in T+ and x in T: some[e][x] is true when x|e has candidates,
    the y <= x with ye defined, and top[e][x] is their maximum, None when
    there is none.  Both hold a row for each e in T+ only, as the wo checks
    read them; image lists T+ in index order, and position maps each
    element to its index.
    """

    __slots__ = ("position", "image", "top", "some")

    def __init__(self, position, image, top, some):
        self.position = position
        self.image = image
        self.top = top
        self.some = some


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
    return _Index(position, image, top, some)


def _maximum(le, elements):
    """The first of the coded elements above all of them, or None."""
    for m in elements:
        for y in elements:
            if not le[y][m]:
                break
        else:
            return m
    return None


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
