"""Left constellations and the locally inductive axioms.

An OrderedConstellation carries a partial table (its composition), a total
plus map and an explicit partial order, all stored coded by carrier index.
Corestriction is the maximum of an explicit candidate set, so a missing
maximum is a first-class diagnostic rather than an exception during
enumeration filtering.

Each constellation keeps one derived structure, its corestriction index,
built on first use (coded._Index): for every x in T and e in T+, whether
x|e has candidates and their maximum, with the order's rows.  Everything
else is derived from it where it is read, each fact by one function: the
restriction scan (coded._restrictions), the plus-components
(coded._components) and the pseudo-product rows (_pseudo_rows).

Each axiom family is one lazy violation generator: the reporting checkers
collect it, and the census stops it at the first violation (core.holds).
"""

from itertools import chain, product

from .coded import (
    _components,
    _corestriction_index,
    _defined_rows,
    _down_lists,
    _le_rows,
    _plus_row,
    _positions,
    _restrictions,
    _up_lists,
)
from .core import _PlusStructure, _named_report, _order_rows_problem
from .suspects import _suspect_rows, _wo1_rows, _wo_suspects

__all__ = [
    "OrderedConstellation",
    "CorestrictionResult",
    "NotApplicableError",
    "NonUniqueError",
    "check_constellation",
    "check_locally_inductive",
    "restriction",
    "corestriction",
    "corestriction_candidates",
    "plus_components",
    "meet",
]


class NotApplicableError(ValueError):
    """Arguments outside the operation's precondition."""


class NonUniqueError(Exception):
    """The wo3 scan found zero or several candidates on a bad structure."""


class CorestrictionResult:
    """Outcome of a corestriction: a value, empty, or no-maximum.

    ``NoMaximum`` carries the nonempty candidate set as a witness; it never
    occurs on a structure that passed wo4.
    """

    __slots__ = ("kind", "value", "candidates")

    def __init__(self, kind, value=None, candidates=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "candidates", candidates)

    def __setattr__(self, name, value):
        raise AttributeError("CorestrictionResult is immutable")

    @classmethod
    def of(cls, value):
        return cls("value", value=value)

    @classmethod
    def empty(cls):
        return _EMPTY

    @classmethod
    def no_maximum(cls, candidates):
        return cls("no_maximum", candidates=frozenset(candidates))

    @property
    def exists(self):
        return self.kind == "value"

    @property
    def has_candidates(self):
        """Some y <= x composes with e (the value may still be missing)."""
        return self.kind != "empty"

    def __eq__(self, other):
        return (
            isinstance(other, CorestrictionResult)
            and (self.kind, self.value, self.candidates)
            == (other.kind, other.value, other.candidates)
        )

    def __hash__(self):
        return hash((self.kind, self.value, self.candidates))

    def __repr__(self):
        if self.kind == "value":
            return f"CorestrictionResult.of({self.value!r})"
        if self.kind == "empty":
            return "CorestrictionResult.empty()"
        return f"CorestrictionResult.no_maximum({set(self.candidates)!r})"


# Results are immutable, so every empty x|e is this one object.
_EMPTY = CorestrictionResult("empty")


class OrderedConstellation(_PlusStructure):
    """Partial table + plus map + partial order on one carrier.

    The constructor validates shape and that ``order`` is a partial order;
    the constellation and locally-inductive axioms are separate checks.
    The order is stored as up-lists, ``order`` being their labelled view:
    up[x] holds the indices of the y >= x in index order.  core._from_rows
    takes them only from callers that have proved them a partial order:
    the census builds its candidate orders that way, build_C takes the
    natural order its core has checked (it raises InvalidOrderError when
    that is not one), and parse_structure checks every order line against
    the carrier, closes them and rejects cycles.
    """

    __slots__ = ("up", "_cores")

    def __init__(self, table, plus, order):
        plus_row = _plus_row(table.carrier, plus)
        up = _up_lists(table.carrier, frozenset(order))
        problem = _order_rows_problem(table.carrier, _le_rows(up), up)
        if problem is not None:
            raise ValueError(f"order is not a partial order: {problem}")
        self._keep(table, plus_row, up)

    def _keep(self, table, plus_row, up):
        super()._keep(table, plus_row)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "_cores", None)

    @property
    def order(self):
        """The order as a frozenset of pairs (a, b) with a <= b: a new set
        built from the up-lists on each access."""
        c = self.carrier
        return frozenset((c[a], c[b]) for a, above in enumerate(self.up)
                         for b in above)

    def _index(self):
        """The corestriction index (_Index), built on first use and kept,
        since the structure is immutable."""
        cores = self._cores
        if cores is None:
            up = self.up
            cores = _corestriction_index(
                _positions(self.carrier), self.table.rows, self.plus_row,
                _le_rows(up), _down_lists(up))
            object.__setattr__(self, "_cores", cores)
        return cores

    def corestrictions(self):
        """{(x, e): x|e as a CorestrictionResult} for x in T and e in T+: the
        labelled view of the corestriction index, built on each call."""
        cores = self._index()
        carrier = self.carrier
        return {(carrier[x], carrier[e]): _result(self, cores, x, e)
                for e in cores.image for x in range(len(carrier))}

    def components(self):
        """The plus-components as (group, maximum) pairs, the maximum None
        when there is none: coded._components named, on each call."""
        cores, name = self._index(), self.carrier.__getitem__
        return tuple((tuple(map(name, group)), None if m is None else name(m))
                     for group, m in _components(cores.image, cores.le))

    def validate(self):
        return check_constellation(self).merged(check_locally_inductive(self))

    def __eq__(self, other):
        return (
            isinstance(other, OrderedConstellation)
            and self.table == other.table
            and self.plus_row == other.plus_row
            and self.up == other.up
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.table, self.plus_row, self.up))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"OrderedConstellation({list(self.carrier)!r})"


def _result(t, cores, x, e):
    """x|e at the indices x, e as a CorestrictionResult on t's elements."""
    if not cores.some[e][x]:
        return _EMPTY
    m = cores.top[e][x]
    if m is None:
        return CorestrictionResult.no_maximum(
            corestriction_candidates(t, t.carrier[x], t.carrier[e]))
    return CorestrictionResult.of(t.carrier[m])


def check_constellation(t):
    """Check c1-c4.

    c1: xy and yz are both defined iff yz and x(yz) are.
    c2: if xy and yz are defined then (xy)z is, and x(yz) = (xy)z.
    c3: for e in T+: ex defined with ex = x iff e = x+.
    c4: for e in T+: xe defined implies xe = x.

    The c1/c2 scan visits only the rows (x, y) a byte-row test cannot pass
    (suspects._suspect_rows), and codes its defined pairs only when a row is
    left.
    """
    val = t.table.rows
    rows = _suspect_rows(val, True)
    found = () if rows == [] else \
        _c12_violations(_defined_rows(val), val, rows)
    return _named_report(t.carrier, chain(
        found, _c34_violations(val, t.plus_row)))


def _c12_violations(D, val, rows=None):
    """c1 and c2 on a table coded by carrier index whose defined pairs are
    fixed (D and val as for core._s_violations).  Yields (axiom, (x, y, z)).

    val may still lack the values of some defined pairs, as during the
    census's table search: an instance is reported once the assigned values
    already break it, so on a complete table these are exactly the failing
    instances.  rows, an iterable of (x, y, zs), limits the instances to
    (x, y, z) for z in zs; by default every (x, y, all indices) in index
    order.
    """
    if rows is None:
        every = range(len(val))
        rows = product(every, every, (every,))
    for x, y, zs in rows:
        vx, dx, vy, dy = val[x], D[x], val[y], D[y]
        if not dx[y]:  # only c1 can fail, where x(yz) is defined
            for z in zs:
                yz = vy[z]
                if yz is not None and dx[yz]:
                    yield "c1", (x, y, z)
            continue
        xy = vx[y]
        if xy is None:
            vxy = dxy = None
        else:
            vxy, dxy = val[xy], D[xy]
        for z in zs:
            yz = vy[z]
            lhs = dy[z]
            if yz is not None and lhs != dx[yz]:
                yield "c1", (x, y, z)
            if not lhs:
                continue
            left = None if xy is None else vxy[z]
            right = None if yz is None else vx[yz]
            if left is not None and right is not None:
                if left != right:
                    yield "c2", (x, y, z)
            elif (xy is not None and not dxy[z]) \
                    or (yz is not None and not dx[yz]):
                yield "c2", (x, y, z)


def _c34_violations(val, plus):
    """c3 and c4 on a table and plus map coded by carrier index."""
    every = range(len(val))
    image = sorted(set(plus))

    for e in image:
        for x, ex in enumerate(val[e]):
            if (ex == x) != (e == plus[x]):
                yield "c3", (e, x)

    for e in image:
        for x in every:
            xe = val[x][e]
            if xe is not None and xe != x:
                yield "c4", (x, e)


def corestriction_candidates(t, x, e):
    """The set { y : y <= x and ye is defined }, in carrier order."""
    cores = t._index()
    i, k = cores.position.get(x), cores.position.get(e)
    if i is None or k is None:
        return ()
    val = t.table.rows
    return tuple(t.carrier[y] for y in cores.down[i] if val[y][k] is not None)


def corestriction(t, x, e):
    """Corestriction x|e: the maximum element below x composable with e,
    read from the corestriction index, which covers x in T and e in T+."""
    cores = t._index()
    i, k = cores.position.get(x), cores.position.get(e)
    if i is None or k not in cores.image:
        raise NotApplicableError(f"{e!r} is not in T+ or {x!r} is not in T")
    return _result(t, cores, i, k)


def restriction(t, e, x):
    """Restriction e|x: the unique y <= x with y+ = e, found by scan so
    the closed form (e|x = ex) stays a testable theorem."""
    cores = t._index()
    position, plus = cores.position, t.plus_row
    k = position.get(e)
    if k not in cores.image or not cores.le[k][plus[position[x]]]:
        raise NotApplicableError(f"restriction of {x!r} to {e!r} not applicable")
    found = _restrictions(plus, cores.down, k, position[x])
    if len(found) != 1:
        raise NonUniqueError(f"{len(found)} candidates for {e!r}|{x!r}")
    return t.carrier[found[0]]


def _pseudo_rows(val, plus, top):
    """(rows, missing) on a coded constellation and the top rows of its
    index: rows[x][y] = (x|y+) y, None where x|y+ has no maximum m or my
    is undefined; missing is the first such (m, y) with m, else None."""
    rows, missing = [], None
    for x in range(len(val)):
        row = []
        for y, e in enumerate(plus):
            m = top[e][x]
            v = None if m is None else val[m][y]
            if v is None and m is not None and missing is None:
                missing = m, y
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows), missing


def plus_components(t):
    """Partition of T+ under the zig-zag closure of the order."""
    return tuple(group for group, _ in t.components())


def meet(t, e, f):
    """Meet of two plus-elements via corestriction; None across components."""
    cores = t._index()
    i, k = cores.position.get(e), cores.position.get(f)
    if i not in cores.image or k not in cores.image:
        raise NotApplicableError("meet is defined on T+ only")
    if not any(i in group and k in group
               for group, _ in _components(cores.image, cores.le)):
        return None
    m = cores.top[k][i]
    return None if m is None else t.carrier[m]


def check_locally_inductive(t):
    """Check wo1-wo9 for an ordered constellation.

    wo1: x <= y, x2 <= y2 with xx2 and yy2 defined imply xx2 <= yy2.
    wo2: x <= y implies x+ <= y+.
    wo3: e <= x+ implies exactly one y <= x has y+ = e.
    wo4: x|e has a maximum whenever it is nonempty.
    wo5: xy defined: (xy)|e is nonempty iff y|e is.
    wo6: f <= e: x|e is nonempty iff x|f is.
    wo7: xy defined, (xy)|e nonempty: (xy)|e and x|(y|e)+ exist, same plus.
    wo8: e <= f: the restriction of f to e (the y <= f with y+ = e) is e|f.
    wo9: e|f is the meet of e and f in T+ in one plus-component, else empty.

    Here e and f range over T+, and x|e is the corestriction, the index
    entry (x, e): the maximum of its candidates, the y <= x with ye
    defined; it is nonempty when it has candidates.  The existence guards
    are tested on the candidate sets, so each axiom is decided
    independently of wo4.
    """
    cores = t._index()
    val, plus = t.table.rows, t.plus_row
    return _named_report(t.carrier, chain(
        _order_violations(val, plus, cores.le, t.up),
        _index_violations(val, plus, cores)))


def _order_violations(val, plus, le, up):
    """wo1-wo3 on a constellation coded by carrier index (val, plus and the
    order as le and up-lists), which read no corestriction, so the census
    can test them before it builds the index.  wo1 and wo2 run over the
    order pairs in index order; wo1 only over the x its bit-row test
    (suspects._wo1_rows) cannot pass."""
    every = range(len(val))
    wo1 = _wo1_rows(val, up)

    # wo1 visits only the x2 with xx2 and the y2 with yy2 defined; each row
    # is built when its x is reached, for the census's early exits
    for x in every if wo1 is None else wo1:
        row = [(x2, le[xx2], up[x2]) for x2, xx2 in enumerate(val[x])
               if xx2 is not None]
        for y in up[x]:
            vy = val[y]
            for x2, above, y2s in row:
                for y2 in y2s:
                    yy2 = vy[y2]
                    if yy2 is not None and not above[yy2]:
                        yield "wo1", (x, y, x2, y2)

    for x in every:
        above = le[plus[x]]
        for y in up[x]:
            if not above[plus[y]]:
                yield "wo2", (x, y)

    # wo3 counts, for each x and e, the y <= x with y+ = e
    restrictions = [[0] * len(val) for _ in every]
    for y in every:
        e = plus[y]
        for x in up[y]:
            restrictions[x][e] += 1
    for e in sorted(set(plus)):
        for x in every:
            if le[e][plus[x]] and restrictions[x][e] != 1:
                yield "wo3", (e, x)


def _index_violations(val, plus, cores):
    """wo4-wo9 on a coded constellation, read from its corestriction index
    cores (coded._Index) and the order rows it holds.  wo5 and wo7 run over
    the defined pairs in index order; wo4, wo5 and wo7 only over the e
    their byte-column test (suspects._wo_suspects) cannot pass."""
    every = range(len(val))
    image, le, top, some = cores.image, cores.le, cores.top, cores.some
    wo4, wo5, wo7 = _wo_suspects(val, plus, cores) or (image,) * 3

    for x in every:
        for e in wo4:
            if some[e][x] and top[e][x] is None:
                yield "wo4", (x, e)

    defined = [(x, y, xy) for x in every for y, xy in enumerate(val[x])
               if xy is not None] if wo5 or wo7 else ()

    for e in wo5:
        some_e = some[e]
        for x, y, xy in defined:
            if some_e[xy] != some_e[y]:
                yield "wo5", (x, y, e)

    for e in image:
        for f in cores.down[e]:  # some[f] is None off T+
            if some[f] is not None and some[e] != some[f]:
                for x in every:
                    if some[e][x] != some[f][x]:
                        yield "wo6", (x, e, f)

    for e in wo7:
        some_e, top_e = some[e], top[e]
        for x, y, xy in defined:
            if not some_e[xy]:
                continue
            m_xy, m_y = top_e[xy], top_e[y]
            m_x = None if m_y is None else top[plus[m_y]][x]
            if m_xy is None or m_x is None or plus[m_xy] != plus[m_x]:
                yield "wo7", (x, y, e)

    # wo8: the restriction of f to e, the y <= f with y+ = e, is e|f; the
    # down-set of each f is grouped by plus once
    restrictions = {}
    for f in image:
        restrictions[f] = groups = {}
        for y in cores.down[f]:
            groups.setdefault(plus[y], []).append(y)
    for e in image:
        for f in image:
            if le[e][f] and restrictions[f].get(e) != [top[f][e]]:
                yield "wo8", (e, f)

    # wo9: the corestriction restricted to T+ is exactly the partial meet
    # of the local semilattice: within a component it is the meet (a lower
    # bound in T+ of e and f above all their common lower bounds in T+),
    # across components it must not exist.  With lower[e] the bitmask of
    # the g <= e in T+ (the g with a some row), m is the meet exactly when
    # m is in T+ and lower[m] is lower[e] & lower[f]: m lies in lower[m],
    # and when m <= e, f, so does every g <= m.
    component = {e: i for i, (group, _) in enumerate(_components(image, le))
                 for e in group}
    lower = {e: sum([1 << g for g in cores.down[e] if some[g] is not None])
             for e in image}
    for e in image:
        for f in image:
            if component[e] != component[f]:
                if some[f][e]:
                    yield "wo9", (e, f)
            elif lower.get(top[f][e]) != lower[e] & lower[f]:
                yield "wo9", (e, f)
