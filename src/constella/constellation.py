"""Left constellations and the locally inductive axioms.

An OrderedConstellation carries a partial table (its composition), a total
plus map and an explicit partial order.  Restriction is computed by scan
with a uniqueness assertion.  Corestriction is the maximum of an explicit
candidate set, so a missing maximum is a first-class diagnostic rather than
an exception during enumeration filtering.

Each constellation builds one corestriction index on first use: x|e for
every x in T and e in T+, and the plus-components with their maxima.  The
wo checks, pseudo-product, meets, build_G, the radiant checks and the
classifiers all read it instead of rescanning.

Each axiom family is one lazy violation generator: the reporting checkers
collect it, and the census stops it at the first violation (core.holds).
"""

from itertools import chain, product

from .core import (
    Violation,
    ValidationReport,
    _PlusStructure,
    _check_partial_order,
    _scan_by_index,
    _table_scan,
)

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
        build_C takes natural_order's relation, which raises InvalidOrderError
        when it is not one, and parse_structure checks every order line
        against the carrier, closes them and rejects cycles.  The plus map
        is still checked for shape.
        """
        t = cls.__new__(cls)
        _PlusStructure.__init__(t, table, plus)
        t._keep_order(frozenset(order))
        return t

    def _keep_order(self, order):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_cores", None)
        object.__setattr__(self, "_components", None)

    def corestrictions(self):
        """The index {(x, e): x|e as a CorestrictionResult}, x in T, e in T+.

        Built on first use from the down-sets, each taken once in carrier
        order: the candidates for (x, e) are the y in the down-set of x with
        ye defined, the tuple corestriction_candidates scans for.  Kept,
        since the structure is immutable.
        """
        cores = self._cores
        if cores is None:
            carrier, order, D = self.carrier, self.order, self.table.defined
            below = [(x, [y for y in carrier if (y, x) in order])
                     for x in carrier]
            cores = {}
            for e in self.plus_image():
                for x, down in below:
                    cores[x, e] = _corestriction_of(
                        self, [y for y in down if (y, e) in D])
            object.__setattr__(self, "_cores", cores)
        return cores

    def components(self):
        """The plus-components as (group, maximum) pairs, built on first use;
        the maximum is None when the component has none."""
        components = self._components
        if components is None:
            components = tuple(
                (group, _maximum(self, group)) for group in plus_components(self)
            )
            object.__setattr__(self, "_components", components)
        return components

    def validate(self):
        return check_constellation(self).merged(check_locally_inductive(self))

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


def check_constellation(t):
    """Check c1-c4.

    c1: xy and yz are both defined iff yz and x(yz) are.
    c2: if xy and yz are defined then (xy)z is, and x(yz) = (xy)z.
    c3: for e in T+: ex defined with ex = x iff e = x+.
    c4: for e in T+: xe defined implies xe = x.
    """
    return ValidationReport(chain(
        _scan_by_index(_table_scan(_c12_violations), t.table),
        _c34_violations(t.table, t.plus),
    ))


def _c12_violations(carrier, D, comp, rows=None):
    """c1 and c2 on a table whose defined pairs D are fixed.

    comp may still lack the values of some pairs in D, as during the
    census's table search: an instance is reported once the assigned values
    already break it, so on a complete table these are exactly the failing
    instances.  rows, an iterable of (x, y, zs), limits the instances to
    (x, y, z) for z in zs; by default every (x, y, carrier) in carrier
    order.
    """
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


def _c34_violations(table, plus):
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


def corestriction_candidates(t, x, e):
    """The set { y : y <= x and ye is defined }, in carrier order."""
    return tuple(
        y for y in t.carrier if (y, x) in t.order and (y, e) in t.table.defined
    )


def _maximum(t, elements):
    order = t.order
    for m in elements:
        for y in elements:
            if (y, m) not in order:
                break
        else:
            return m
    return None


def _corestriction_of(t, cands):
    """x|e from its candidates, in carrier order."""
    if not cands:
        return _EMPTY
    m = _maximum(t, cands)
    if m is None:
        return CorestrictionResult.no_maximum(cands)
    return CorestrictionResult.of(m)


def corestriction(t, x, e):
    """Corestriction x|e: the maximum element below x composable with e.

    Read from the corestriction index, which covers x in T and e in T+.
    """
    result = t.corestrictions().get((x, e))
    if result is None:
        raise NotApplicableError(f"{e!r} is not in T+ or {x!r} is not in T")
    return result


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
    c = t.corestrictions()[a, t.plus[b]]
    if not c.exists:
        return None
    return t.table.comp.get((c.value, b))


def plus_components(t):
    """Partition of T+ under the zig-zag closure of the order."""
    image = list(t.plus_image())
    parent = {e: e for e in image}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in t.order:
        if a != b and a in parent and b in parent:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
    # groups are inserted in the carrier order of their first elements
    groups = {}
    for e in image:
        groups.setdefault(find(e), []).append(e)
    return tuple(map(tuple, groups.values()))


def meet(t, e, f):
    """Meet of two plus-elements via corestriction; None across components."""
    image = set(t.plus.values())
    if e not in image or f not in image:
        raise NotApplicableError("meet is defined on T+ only")
    if not any(e in group and f in group for group, _ in t.components()):
        return None
    return t.corestrictions()[e, f].value


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
    return ValidationReport(_scan_by_index(
        lambda c: chain(_order_violations(c.table, c.plus, c.order),
                        _index_violations(c)),
        t))


def _order_violations(table, plus, order):
    """wo1-wo3, which read no corestriction, so the census can test them
    before it builds the constellation.  wo1 and wo2 run over the order
    pairs in carrier order."""
    D = table.defined
    comp = table.comp
    carrier = table.carrier
    up = [(x, [y for y in carrier if (x, y) in order]) for x in carrier]

    # wo1 visits only the x2 with (x, x2) and the y2 with (y, y2) defined;
    # each row is built when its x is reached, for the census's early exits
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

    # wo3 counts, for each x and e, the y <= x with y+ = e
    restrictions = {}
    for y, xs in up:
        e = plus[y]
        for x in xs:
            restrictions[x, e] = restrictions.get((x, e), 0) + 1
    for e in filter(set(plus.values()).__contains__, carrier):
        for x in carrier:
            if (e, plus[x]) in order and restrictions.get((x, e)) != 1:
                yield Violation("wo3", (e, x))


def _index_violations(t):
    """wo4-wo9, read from the constellation's corestriction index: x|e has
    candidates when its entry is not the shared empty result.  wo5 and wo7
    run over the defined pairs in carrier order."""
    comp = t.table.comp
    order = t.order
    carrier = t.carrier
    plus = t.plus
    image = t.plus_image()
    cores = t.corestrictions()

    for x in carrier:
        for e in image:
            if cores[x, e].kind == "no_maximum":
                yield Violation("wo4", (x, e))

    defined = [(x, y, comp[x, y]) for x, y in product(carrier, repeat=2)
               if (x, y) in comp]

    for e in image:
        for x, y, xy in defined:
            if (cores[xy, e] is _EMPTY) != (cores[y, e] is _EMPTY):
                yield Violation("wo5", (x, y, e))

    for e in image:
        for f in image:
            if (f, e) not in order:
                continue
            for x in carrier:
                if (cores[x, e] is _EMPTY) != (cores[x, f] is _EMPTY):
                    yield Violation("wo6", (x, e, f))

    for e in image:
        for x, y, xy in defined:
            core = cores[xy, e]
            if core is _EMPTY:
                continue
            m_xy, m_y = core.value, cores[y, e].value
            m_x = None if m_y is None else cores[x, plus[m_y]].value
            if m_xy is None or m_x is None or plus[m_xy] != plus[m_x]:
                yield Violation("wo7", (x, y, e))

    # wo8 reads the restrictions of each f in T+: the y <= f by their plus
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

    # wo9: the corestriction restricted to T+ is exactly the partial meet
    # of the local semilattice: within a component it is the meet (a lower
    # bound in T+ of e and f above all their common lower bounds in T+),
    # across components it must not exist.
    component = {
        e: i for i, (group, _) in enumerate(t.components()) for e in group
    }
    lower = {e: {g for g in image if (g, e) in order} for e in image}
    for e in image:
        for f in image:
            if component[e] != component[f]:
                if cores[e, f] is not _EMPTY:
                    yield Violation("wo9", (e, f))
                continue
            m = cores[e, f].value
            common = lower[e] & lower[f]
            if m not in common or not common <= lower[m]:
                yield Violation("wo9", (e, f))
