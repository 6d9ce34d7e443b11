"""Left constellations and the locally inductive axioms.

An OrderedConstellation carries a partial table (its composition), a total
plus map and an explicit partial order.  Restriction is computed by scan
with a uniqueness assertion.  Corestriction is the maximum of an explicit
candidate set, so a missing maximum is a first-class diagnostic rather than
an exception during enumeration filtering.

Each constellation builds one corestriction index on first use, coded by
carrier index (coded._Index): for every x in T and e in T+, whether x|e
has candidates and their maximum.  The wo checks, pseudo-product, meets,
build_G, the classifiers and the radiant checks read it directly, and
corestrictions() gives its labelled view.

Each axiom family is one lazy violation generator: the reporting checkers
collect it, and the census stops it at the first violation (core.holds).
"""

from itertools import chain, product

from .coded import (
    _coded,
    _coded_plus,
    _components,
    _corestriction_index,
    _defined_rows,
    _order_rows,
    _positions,
    _value_rows,
)
from .core import _PlusStructure, _check_partial_order, _named_report

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
    "pseudo_product",
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
        self.kind = kind
        self.value = value
        self.candidates = candidates

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


# Results are never mutated, so every empty x|e is this one object.
_EMPTY = CorestrictionResult("empty")


class OrderedConstellation(_PlusStructure):
    """Partial table + plus map + partial order on one carrier.

    The constructor validates shape and that ``order`` is a partial order;
    the constellation and locally-inductive axioms are separate checks.
    """

    __slots__ = ("order", "_cores", "_components")

    def __init__(self, table, plus, order):
        super().__init__(table, plus)
        members = set(table.carrier)
        order = frozenset(order)
        for a, b in order:
            if a not in members or b not in members:
                raise ValueError(f"order pair {(a, b)!r} leaves the carrier")
        problem = _check_partial_order(order, table.carrier)
        if problem is not None:
            raise ValueError(f"order is not a partial order: {problem}")
        self._keep_order(order)

    @classmethod
    def _trusted(cls, table, plus, order):
        """The constellation the constructor would build, without its order
        checks (every pair inside the carrier, a partial order).

        Only for callers that have just proved ``order`` a partial order on
        the carrier: the census builds its candidate orders that way,
        build_C takes the natural order its core has checked (it raises
        InvalidOrderError when that is not one), and parse_structure checks
        every order line against the carrier, closes them and rejects
        cycles.  The plus map is still checked for shape."""
        t = cls.__new__(cls)
        _PlusStructure.__init__(t, table, plus)
        t._keep_order(frozenset(order))
        return t

    def _keep_order(self, order):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_cores", None)
        object.__setattr__(self, "_components", None)

    def _index(self, rows=None):
        """The corestriction index (_Index), built on first use from rows,
        the coded view _coded(self), and kept, since the structure is
        immutable."""
        cores = self._cores
        if cores is None:
            position, val, plus, le, _, down = rows or _coded(self)
            cores = _corestriction_index(position, val, plus, le, down)
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
        """The plus-components as (group, maximum) pairs, built on first use;
        the maximum is None when the component has none."""
        components = self._components
        if components is None:
            position = _positions(self.carrier)
            le = _order_rows(((position[a], position[b]) for a, b in self.order),
                             len(position))[0]
            image = sorted({position[e] for e in self.plus.values()})
            name = self.carrier.__getitem__
            components = tuple(
                (tuple(map(name, group)), None if top is None else name(top))
                for group, top in _components(image, le))
            object.__setattr__(self, "_components", components)
        return components

    def validate(self):
        rows = _coded(self)
        return check_constellation(self, rows).merged(
            check_locally_inductive(self, rows))

    def __eq__(self, other):
        return (
            isinstance(other, OrderedConstellation)
            and self.table == other.table
            and self.plus == other.plus
            and self.order == other.order
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.table, frozenset(self.plus.items()), self.order))
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


def check_constellation(t, rows=None):
    """Check c1-c4.

    c1: xy and yz are both defined iff yz and x(yz) are.
    c2: if xy and yz are defined then (xy)z is, and x(yz) = (xy)z.
    c3: for e in T+: ex defined with ex = x iff e = x+.
    c4: for e in T+: xe defined implies xe = x.

    rows, the coded view _coded(t), saves coding t.
    """
    if rows is None:
        position = _positions(t.carrier)
        rows = (position, _value_rows(t.table, position),
                _coded_plus(t.carrier, t.plus, position))
    val, plus = rows[1], rows[2]
    return _named_report(t.carrier, chain(
        _c12_violations(_defined_rows(val), val), _c34_violations(val, plus)))


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
    return tuple(
        y for y in t.carrier if (y, x) in t.order and (y, e) in t.table.comp
    )


def corestriction(t, x, e):
    """Corestriction x|e: the maximum element below x composable with e.

    Read from the corestriction index, which covers x in T and e in T+.
    """
    cores = t._index()
    i, k = cores.position.get(x), cores.position.get(e)
    if i is None or k not in cores.image:
        raise NotApplicableError(f"{e!r} is not in T+ or {x!r} is not in T")
    return _result(t, cores, i, k)


def restriction(t, e, x):
    """Restriction e|x: the unique y <= x with y+ = e.

    Found by scan so the closed form (e|x = ex) stays a testable theorem.
    """
    image = set(t.plus.values())
    if e not in image or (e, t.plus[x]) not in t.order:
        raise NotApplicableError(f"restriction of {x!r} to {e!r} not applicable")
    found = [y for y in t.carrier if (y, x) in t.order and t.plus[y] == e]
    if len(found) != 1:
        raise NonUniqueError(f"{len(found)} candidates for {e!r}|{x!r}")
    return found[0]


def pseudo_product(t, a, b):
    """(a|b+) b, or None when the corestriction or the pair is missing."""
    cores = t._index()
    m = cores.top[cores.position[t.plus[b]]][cores.position[a]]
    if m is None:
        return None
    return t.table.comp.get((t.carrier[m], b))


def plus_components(t):
    """Partition of T+ under the zig-zag closure of the order."""
    return tuple(group for group, _ in t.components())


def meet(t, e, f):
    """Meet of two plus-elements via corestriction; None across components."""
    image = set(t.plus.values())
    if e not in image or f not in image:
        raise NotApplicableError("meet is defined on T+ only")
    if not any(e in group and f in group for group, _ in t.components()):
        return None
    cores = t._index()
    m = cores.top[cores.position[f]][cores.position[e]]
    return None if m is None else t.carrier[m]


def check_locally_inductive(t, rows=None):
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
    independently of wo4.  rows, the coded view _coded(t), saves coding t.
    """
    rows = rows or _coded(t)
    _, val, plus, le, up, down = rows
    return _named_report(t.carrier, chain(
        _order_violations(val, plus, le, up),
        _index_violations(val, plus, le, down, t._index(rows))))


def _order_violations(val, plus, le, up):
    """wo1-wo3 on a constellation coded by carrier index (val, plus and the
    order as le and up-lists), which read no corestriction, so the census
    can test them before it builds the index.  wo1 and wo2 run over the
    order pairs in index order."""
    every = range(len(val))

    # wo1 visits only the x2 with xx2 and the y2 with yy2 defined; each row
    # is built when its x is reached, for the census's early exits
    for x in every:
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


def _index_violations(val, plus, le, down, cores):
    """wo4-wo9 on a coded constellation, read from its corestriction index
    cores (coded._Index).  wo5 and wo7 run over the defined pairs in index
    order."""
    every = range(len(val))
    image = cores.image
    top, some = cores.top, cores.some

    for x in every:
        for e in image:
            if some[e][x] and top[e][x] is None:
                yield "wo4", (x, e)

    defined = [(x, y, xy) for x in every for y, xy in enumerate(val[x])
               if xy is not None]

    for e in image:
        some_e = some[e]
        for x, y, xy in defined:
            if some_e[xy] != some_e[y]:
                yield "wo5", (x, y, e)

    for e in image:
        for f in image:
            if le[f][e] and some[e] != some[f]:
                some_e, some_f = some[e], some[f]
                for x in every:
                    if some_e[x] != some_f[x]:
                        yield "wo6", (x, e, f)

    for e in image:
        some_e, top_e = some[e], top[e]
        for x, y, xy in defined:
            if not some_e[xy]:
                continue
            m_xy, m_y = top_e[xy], top_e[y]
            m_x = None if m_y is None else top[plus[m_y]][x]
            if m_xy is None or m_x is None or plus[m_xy] != plus[m_x]:
                yield "wo7", (x, y, e)

    # wo8 compares the restriction of f to e, the y <= f with y+ = e, with
    # e|f
    for e in image:
        for f in image:
            if not le[e][f]:
                continue
            found = [y for y in down[f] if plus[y] == e]
            m = top[f][e]
            if len(found) != 1 or m is None or found[0] != m:
                yield "wo8", (e, f)

    # wo9: the corestriction restricted to T+ is exactly the partial meet
    # of the local semilattice: within a component it is the meet (a lower
    # bound in T+ of e and f above all their common lower bounds in T+),
    # across components it must not exist.
    component = {e: i for i, (group, _) in enumerate(_components(image, le))
                 for e in group}
    lower = {e: {g for g in image if le[g][e]} for e in image}
    for e in image:
        for f in image:
            if component[e] != component[f]:
                if some[f][e]:
                    yield "wo9", (e, f)
                continue
            m = top[f][e]
            common = lower[e] & lower[f]
            if m not in common or not common <= lower[m]:
                yield "wo9", (e, f)
