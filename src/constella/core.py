"""Finite partial composition tables and the left restriction axioms.

Structures live on a small finite carrier and are stored coded by carrier
index (coded.py), the one stored form: a table as rows of value indices,
None where a pair is undefined, and a plus map as a tuple of indices.  The
public constructors check their labelled input and code it once;
_from_rows stores rows the caller has built in index space (the census,
the functors, the parser).  The labelled ``comp``, ``defined`` and
``plus`` are views built from the rows on each access, so changing one
changes no structure.  Nothing here ever encodes "undefined" as a carrier
element.

Every axiom checker runs its generator on the stored rows and names the
witnesses back through the carrier (_named_report).
"""

from itertools import compress, product, repeat
from operator import eq

from .coded import (
    _comp_rows,
    _defined_rows,
    _identity_line,
    _plus_row,
)
from .suspects import _suspect_rows

__all__ = [
    "PartialTable",
    "LeftRestrictionSemigroupoid",
    "Violation",
    "ValidationReport",
    "InvalidOrderError",
    "check_semigroupoid",
    "check_left_restriction",
    "holds",
    "natural_order",
    "idempotents",
    "identity_kind",
    "is_left_identity",
    "is_right_identity",
]


class InvalidOrderError(Exception):
    """The derived relation is not a partial order (checker bug upstream)."""


class Violation:
    """One failed axiom instance: axiom id plus the witnessing tuple."""

    __slots__ = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)

    def __eq__(self, other):
        return (
            isinstance(other, Violation)
            and self.axiom == other.axiom
            and self.witness == other.witness
        )

    def __hash__(self):
        return hash((self.axiom, self.witness))

    def __repr__(self):
        return f"Violation({self.axiom!r}, {self.witness!r})"


class ValidationReport:
    """Complete list of axiom violations; empty means the structure passed."""

    __slots__ = ("violations",)

    def __init__(self, violations=()):
        self.violations = tuple(violations)

    @property
    def valid(self):
        return not self.violations

    def axioms(self):
        return {v.axiom for v in self.violations}

    def merged(self, other):
        return ValidationReport(self.violations + other.violations)

    def __repr__(self):
        if self.valid:
            return "ValidationReport(valid)"
        return f"ValidationReport({list(self.violations)!r})"


class PartialTable:
    """A carrier together with a partial binary operation.

    ``carrier`` is an ordered tuple of distinct element ids; ``rows``, the
    one stored form, holds the table coded by carrier index: rows[a][b] is
    the index of the product of the elements at a and b, None where the
    pair is undefined.  ``comp`` and ``defined`` are labelled views of it.
    Immutable; equality and hash are literal (same carrier, same rows).
    """

    __slots__ = ("carrier", "rows", "_hash")

    def __init__(self, carrier, comp):
        self._keep(*_comp_rows(carrier, comp))

    def _keep(self, carrier, rows):
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PartialTable is immutable")

    @property
    def comp(self):
        """{(a, b): ab} over the defined pairs, in carrier order: a new dict
        built from the rows on each access."""
        c = self.carrier
        return {(c[a], c[b]): c[v] for a, row in enumerate(self.rows)
                for b, v in enumerate(row) if v is not None}

    def product(self, a, b):
        """Value of a*b, read from the row of a, or None when the pair is
        undefined or a or b is not in the carrier."""
        c = self.carrier
        v = self.rows[c.index(a)][c.index(b)] if a in c and b in c else None
        return None if v is None else c[v]

    @property
    def defined(self):
        """The defined pairs, as a frozenset built from the rows."""
        return frozenset(self.comp)

    def is_defined(self, a, b):
        c = self.carrier
        return a in c and b in c and \
            self.rows[c.index(a)][c.index(b)] is not None

    def __eq__(self, other):
        return (
            isinstance(other, PartialTable)
            and self.carrier == other.carrier
            and self.rows == other.rows
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.carrier, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        pairs = sum(len(row) - row.count(None) for row in self.rows)
        return f"PartialTable({list(self.carrier)!r}, {pairs} pairs)"


class _PlusStructure:
    """A partial table with a total unary plus map on its carrier: the
    immutable shape shared by semigroupoids and constellations.

    ``plus_row`` stores the map coded by carrier index (plus_row[x] is the
    index of x+), and ``plus`` is its labelled view.  The constructor
    checks only shape (plus total, image inside carrier).
    """

    __slots__ = ("table", "plus_row", "_hash")

    def __init__(self, table, plus):
        self._keep(table, _plus_row(table.carrier, plus))

    def _keep(self, table, plus_row):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "plus_row", plus_row)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def carrier(self):
        return self.table.carrier

    @property
    def plus(self):
        """{x: x+}: a new dict built from plus_row on each access."""
        c = self.carrier
        return {x: c[e] for x, e in zip(c, self.plus_row)}

    def plus_image(self):
        """S^+, in carrier order."""
        return tuple([self.carrier[e] for e in sorted(set(self.plus_row))])


def _from_rows(cls, *fields):
    """The cls (a table, a structure or a map) stored as fields, the
    arguments of its _keep, without its constructor's checks.

    Only for fields built by a caller that has checked them or derived
    them from a checked structure: a tuple of distinct elements and a
    tuple of tuples of their indices or None (a table), a table and a
    tuple of carrier indices (plus), and for a constellation the up-lists
    (tuples) of a partial order; for a morphism.MorphismMap, its source,
    target and a tuple of target indices, one per source element in
    carrier order.
    """
    x = cls.__new__(cls)
    x._keep(*fields)
    return x


class LeftRestrictionSemigroupoid(_PlusStructure):
    """A partial table with a total unary ``plus`` map on the carrier.

    Use :func:`validate` or the individual checkers for the axioms.
    """

    __slots__ = ()

    def validate(self):
        return check_semigroupoid(self.table).merged(
            check_left_restriction(self.table, self.plus))

    @classmethod
    def checked(cls, table, plus):
        s = cls(table, plus)
        report = s.validate()
        if not report.valid:
            raise ValueError(f"axioms fail: {sorted(report.axioms())}")
        return s

    def __eq__(self, other):
        return (
            isinstance(other, LeftRestrictionSemigroupoid)
            and self.table == other.table
            and self.plus_row == other.plus_row
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.table, self.plus_row))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"LeftRestrictionSemigroupoid({list(self.carrier)!r})"


def check_semigroupoid(t):
    """Check the closure-style associativity of a partial table.

    For a triple (s, x, r) the law triggers when any of these holds:

      s1: sx and xr are defined,
      s2: sx and (sx)r are defined,
      s3: xr and s(xr) are defined.

    A triggered triple must have all four pairs defined with
    (sx)r = s(xr).  Every failing (clause, triple) is reported.  The scan
    visits only the rows (s, x) a byte-row test cannot pass
    (suspects._suspect_rows), and codes its defined pairs only when a row is
    left.
    """
    val = t.rows
    rows = _suspect_rows(val, False)
    found = () if rows == [] else _s_violations(_defined_rows(val), val, rows)
    return _named_report(t.carrier, found)


def _named_report(carrier, found):
    """The report of the coded violations found, each (axiom, witness) with
    a witness of carrier indices, named back through the carrier.

    Every axiom generator runs on its structure's rows, coded by carrier
    index (see coded), which is exact.  The axioms compare elements only
    for equality, definedness, plus and order, and name no label (see
    tables._tables), so the index bijection maps the failing instances
    of the coded structure onto those of the structure itself.  Every
    generator visits elements and pairs in index order, which is carrier
    order, so the named witnesses come in the sequence a scan of the
    labelled structure in carrier order gives.  The witnesses and the
    report are built from lists, so each tuple is allocated at its final
    size.
    """
    return ValidationReport([Violation(axiom, [carrier[i] for i in witness])
                             for axiom, witness in found])


def _s_violations(D, val, rows=None):
    """s1-s3 on a table coded by carrier index whose defined pairs are fixed:
    D[a][b] is true when ab is defined, and val[a][b] is its value, None
    while it is unassigned.  Yields (axiom, (s, x, r)).

    val may still lack the values of some defined pairs, as during the
    census's table search: a triple is reported once the assigned values
    already break it, so on a complete table these are exactly the failing
    triples.  rows, an iterable of (s, x, rs), limits the triples to
    (s, x, r) for r in rs; by default every (s, x, all indices) in index
    order.
    """
    if rows is None:
        every = range(len(val))
        rows = product(every, every, (every,))
    for s, x, rs in rows:
        vs, ds, vx, dx = val[s], D[s], val[x], D[x]
        if not ds[x]:  # only s3 can trigger
            for r in rs:
                xr = vx[r]
                if xr is not None and ds[xr]:
                    yield "s3", (s, x, r)
            continue
        sx = vs[x]
        if sx is None:
            vsx = dsx = None
        else:
            vsx, dsx = val[sx], D[sx]
        for r in rs:
            xr = vx[r]
            trig1 = dx[r]
            trig2 = sx is not None and dsx[r]
            trig3 = xr is not None and ds[xr]
            if not (trig1 or trig2 or trig3):
                continue
            if trig1 and (sx is None or dsx[r]) and (xr is None or ds[xr]):
                left = None if sx is None else vsx[r]
                right = None if xr is None else vs[xr]
                if left is None or right is None or left == right:
                    continue
            for axiom, trig in (("s1", trig1), ("s2", trig2), ("s3", trig3)):
                if trig:
                    yield axiom, (s, x, r)


def check_left_restriction(t, plus):
    """Check lr1-lr4 for a table plus a total unary map.

    lr1: s+ s defined and equal to s.
    lr2: e f defined iff f e defined, and then e f = f e  (e, f in S+).
    lr3: e t defined implies e t+ defined and (e t)+ = e t+  (e in S+).
    lr4: s t defined implies s t+ and (s t)+ s defined with s t+ = (s t)+ s.

    The plus map, a mapping, is first checked for shape and coded.
    """
    return _named_report(
        t.carrier, _lr_violations(t.rows, _plus_row(t.carrier, plus)))


def holds(violations):
    """True when a violation generator yields nothing; stops at the first."""
    return next(iter(violations), None) is None


def _lr_violations(val, plus):
    """lr1-lr4 on a table and plus map coded by carrier index, each over its
    elements and pairs in index order."""
    every = range(len(val))
    image = sorted(set(plus))

    for s in every:
        if val[plus[s]][s] != s:
            yield "lr1", (s,)

    for e in image:
        for f in image:
            ef, fe = val[e][f], val[f][e]
            if ef != fe:
                yield "lr2", (e, f)

    for e in image:
        for s, es in enumerate(val[e]):
            if es is None:
                continue
            rhs = val[e][plus[s]]
            if rhs is None or plus[es] != rhs:
                yield "lr3", (e, s)

    for s in every:
        for x, st in enumerate(val[s]):
            if st is None:
                continue
            lhs = val[s][plus[x]]
            rhs = val[plus[st]][s]
            if lhs is None or rhs is None or lhs != rhs:
                yield "lr4", (s, x)


def _order_rows_problem(carrier, le, up):
    """The first failure of an order coded as le and up-lists
    (coded._order_rows) to be a partial order, named through the carrier,
    or None for a partial order.  Reflexivity, antisymmetry and
    transitivity are checked in turn, each over the elements or the order
    pairs in index order, which is carrier order, so the text does not
    depend on the hash seed."""
    for a, row in enumerate(le):
        if not row[a]:
            return f"not reflexive at {carrier[a]!r}"
    strict = [(a, b) for a, above in enumerate(up) for b in above if b != a]
    for a, b in strict:
        if le[b][a]:
            return f"not antisymmetric at {(carrier[a], carrier[b])!r}"
    for a, b in strict:  # b <= b adds nothing to check
        row = le[a]
        for d in up[b]:
            if not row[d]:
                return ("not transitive at "
                        f"{(carrier[a], carrier[b], carrier[d])!r}")
    return None


def natural_order(s):
    """The relation  a <= b  iff  a+ b is defined and equals a.

    Raises InvalidOrderError if the result is not a partial order, which
    cannot happen once the lr axioms hold; it flags a checker bug.
    """
    up = _natural_rows(s.carrier, s.table.rows, s.plus_row)[1]
    name = s.carrier.__getitem__
    return frozenset((name(a), name(b))
                     for a, above in enumerate(up) for b in above)


def _natural_rows(carrier, val, plus):
    """The natural order of a semigroupoid coded by carrier index, as le
    and up-lists (coded._order_rows): a <= b iff a+ b = a.  Raises
    InvalidOrderError, naming its first failure through the carrier, when
    it is not a partial order."""
    every = range(len(val))
    le = [list(map(eq, val[e], repeat(a))) for a, e in enumerate(plus)]
    up = tuple([tuple(list(compress(every, row))) for row in le])
    problem = _order_rows_problem(carrier, le, up)
    if problem is not None:
        raise InvalidOrderError(problem)
    return le, up


def idempotents(t):
    """Elements x with xx defined and xx = x, in carrier order."""
    return tuple(x for i, (x, row) in enumerate(zip(t.carrier, t.rows))
                 if row[i] == i)


def is_left_identity(t, x):
    """xx = x, and xs = s wherever xs is defined."""
    if x not in t.carrier:
        return False
    i = t.carrier.index(x)
    return _identity_line(i, t.rows[i])


def is_right_identity(t, x):
    """xx = x, and sx = s wherever sx is defined."""
    if x not in t.carrier:
        return False
    i = t.carrier.index(x)
    return _identity_line(i, [row[i] for row in t.rows])


def identity_kind(t, x):
    """Classify x as 'none', 'left', 'right' or 'both'."""
    if x not in t.carrier:
        raise ValueError(f"{x!r} not in carrier")
    left, right = is_left_identity(t, x), is_right_identity(t, x)
    if left and right:
        return "both"
    if left:
        return "left"
    if right:
        return "right"
    return "none"
