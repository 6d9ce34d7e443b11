"""Finite partial composition tables and the left restriction axioms.

Structures live on a small finite carrier.  Composition is a partial map
stored explicitly: a pair is either in the ``defined`` set with a value, or
it is absent.  Nothing here ever encodes "undefined" as a carrier element.
"""

from itertools import product

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
    "natural_order_by_witness",
    "idempotents",
    "identity_kind",
    "is_left_identity",
    "is_right_identity",
]


class InvalidOrderError(Exception):
    """The derived relation is not a partial order (checker bug upstream)."""


def _freeze(witness):
    return tuple(witness)


class Violation:
    """One failed axiom instance: axiom id plus the witnessing tuple."""

    __slots__ = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = _freeze(witness)

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

    ``carrier`` is an ordered tuple of distinct element ids, ``comp`` maps
    exactly the defined pairs to carrier elements.  Instances are treated as
    immutable; equality and hash are literal (same carrier, same table).
    """

    __slots__ = ("carrier", "comp", "defined", "_hash")

    def __init__(self, carrier, comp):
        carrier = tuple(carrier)
        if not carrier:
            raise ValueError("carrier must be nonempty")
        if len(set(carrier)) != len(carrier):
            raise ValueError("carrier ids must be distinct")
        comp = dict(comp)
        members = set(carrier)
        for (a, b), c in comp.items():
            if a not in members or b not in members or c not in members:
                raise ValueError(f"comp entry {(a, b, c)!r} leaves the carrier")
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "defined", frozenset(comp))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PartialTable is immutable")

    def product(self, a, b):
        """Value of a*b, or None when the pair is undefined."""
        return self.comp.get((a, b))

    def is_defined(self, a, b):
        return (a, b) in self.defined

    def __eq__(self, other):
        return (
            isinstance(other, PartialTable)
            and self.carrier == other.carrier
            and self.comp == other.comp
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.carrier, frozenset(self.comp.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"PartialTable({list(self.carrier)!r}, {len(self.comp)} pairs)"


class _PlusStructure:
    """A partial table with a total unary ``plus`` map on its carrier: the
    immutable shape shared by semigroupoids and constellations.

    The constructor checks only shape (plus total, image inside carrier).
    """

    __slots__ = ("table", "plus", "_hash")

    def __init__(self, table, plus):
        plus = dict(plus)
        members = set(table.carrier)
        if set(plus) != members:
            raise ValueError("plus must be total on the carrier")
        if not set(plus.values()) <= members:
            raise ValueError("plus image leaves the carrier")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def carrier(self):
        return self.table.carrier

    def plus_image(self):
        """S^+, in carrier order."""
        image = set(self.plus.values())
        return tuple(filter(image.__contains__, self.carrier))


class LeftRestrictionSemigroupoid(_PlusStructure):
    """A partial table with a total unary ``plus`` map on the carrier.

    Use :func:`validate` or the individual checkers for the axioms.
    """

    __slots__ = ()

    def validate(self):
        return check_semigroupoid(self.table).merged(
            check_left_restriction(self.table, self.plus)
        )

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
            and self.plus == other.plus
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.table, frozenset(self.plus.items())))
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
    (sx)r = s(xr).  Every failing (clause, triple) is reported.
    """
    return ValidationReport(_scan_by_index(_table_scan(_s_violations), t))


def _table_scan(violations):
    """A scan for _scan_by_index from a table generator such as
    _s_violations, which reads carrier, defined pairs and comp."""
    return lambda t: violations(t.carrier, t.defined, t.comp)


def relabel(x, mapping, carrier):
    """Copy of x, a PartialTable or a structure (a table with plus, and an
    order for a constellation), with its elements renamed by mapping onto
    the given carrier."""
    table = x if isinstance(x, PartialTable) else x.table
    renamed = PartialTable(carrier, {
        (mapping[a], mapping[b]): mapping[c] for (a, b), c in table.comp.items()})
    if x is table:
        return renamed
    parts = (renamed, {mapping[a]: mapping[b] for a, b in x.plus.items()})
    if hasattr(x, "order"):
        parts += (frozenset((mapping[a], mapping[b]) for a, b in x.order),)
    return type(x)(*parts)


_HASHED_IN_C = frozenset((str, int))


def _scan_by_index(scan, x):
    """The violations scan(x) yields, run on x relabelled by carrier index,
    with each witness named back through the carrier.

    x is a PartialTable or a structure.  Its relabelled copy has carrier
    range(n) and int keys, which hash in C where elements such as Szendrei
    pairs hash in Python.  The relabelling is exact: the axioms compare
    elements only for equality, definedness and order and name no label
    (see enumerate._tables), so the index bijection maps the failing
    instances onto the failing instances.  Every scan runs over elements
    and pairs in carrier order, and the index map is monotone in carrier
    order, so the coded scan yields them in the direct scan's sequence.

    When every element is a str or an int, which hash in C already, the
    scan runs on x itself.
    """
    carrier = x.carrier
    if _HASHED_IN_C.issuperset(map(type, carrier)):
        return scan(x)
    n = len(carrier)
    coded = relabel(x, dict(zip(carrier, range(n))), range(n))
    return (Violation(v.axiom, tuple(carrier[i] for i in v.witness))
            for v in scan(coded))


def _s_violations(carrier, D, comp, rows=None):
    """s1-s3 on a table whose defined pairs D are fixed.

    comp may still lack the values of some pairs in D, as during the
    census's table search: a triple is reported once the assigned values
    already break it, so on a complete table these are exactly the failing
    triples.  rows, an iterable of (s, x, rs), limits the triples to
    (s, x, r) for r in rs; by default every (s, x, carrier) in carrier
    order.
    """
    if rows is None:
        rows = product(carrier, carrier, (carrier,))
    for s, x, rs in rows:
        sx = comp.get((s, x))
        sx_defined = (s, x) in D
        for r in rs:
            xr = comp.get((x, r))
            trig1 = sx_defined and (xr is not None or (x, r) in D)
            trig2 = sx is not None and (sx, r) in D
            trig3 = xr is not None and (s, xr) in D
            if not (trig1 or trig2 or trig3):
                continue
            if trig1 and (sx is None or (sx, r) in D) \
                    and (xr is None or (s, xr) in D):
                left, right = comp.get((sx, r)), comp.get((s, xr))
                if left is None or right is None or left == right:
                    continue
            for axiom, trig in (("s1", trig1), ("s2", trig2), ("s3", trig3)):
                if trig:
                    yield Violation(axiom, (s, x, r))


def check_left_restriction(t, plus):
    """Check lr1-lr4 for a table plus a total unary map.

    lr1: s+ s defined and equal to s.
    lr2: e f defined iff f e defined, and then e f = f e  (e, f in S+).
    lr3: e t defined implies e t+ defined and (e t)+ = e t+  (e in S+).
    lr4: s t defined implies s t+ and (s t)+ s defined with s t+ = (s t)+ s.
    """
    return ValidationReport(_scan_by_index(
        lambda s: _lr_violations(s.table, s.plus),
        LeftRestrictionSemigroupoid(t, plus)))


def holds(violations):
    """True when a violation generator yields nothing; stops at the first."""
    return next(iter(violations), None) is None


def _lr_violations(t, plus):
    """lr1-lr4, each over its elements and pairs in carrier order."""
    D = t.defined
    comp = t.comp
    plus_values = set(plus.values())
    image = [e for e in t.carrier if e in plus_values]

    for s in t.carrier:
        e = plus[s]
        if comp.get((e, s)) != s:
            yield Violation("lr1", (s,))

    for e, f in product(image, repeat=2):
        d1, d2 = (e, f) in D, (f, e) in D
        if d1 != d2 or (d1 and comp[(e, f)] != comp[(f, e)]):
            yield Violation("lr2", (e, f))

    for e in image:
        for s in t.carrier:
            if (e, s) not in D:
                continue
            lhs = plus[comp[(e, s)]]
            rhs = comp.get((e, plus[s]))
            if rhs is None or lhs != rhs:
                yield Violation("lr3", (e, s))

    for s, x in product(t.carrier, repeat=2):
        st = comp.get((s, x))
        if st is None:
            continue
        lhs = comp.get((s, plus[x]))
        rhs = comp.get((plus[st], s))
        if lhs is None or rhs is None or lhs != rhs:
            yield Violation("lr4", (s, x))


def _check_partial_order(pairs, carrier):
    pairs = frozenset(pairs)
    for a in carrier:
        if (a, a) not in pairs:
            return f"not reflexive at {a!r}"
    for a, b in pairs:
        if a != b and (b, a) in pairs:
            return f"not antisymmetric at {(a, b)!r}"
    # Transitivity through successor lists: above[b] holds the d with
    # (b, d) in pairs, in the order of the iteration over pairs, so the
    # first failure found is that of the plain scan over all pairs of pairs.
    above = {}
    for c, d in pairs:
        above.setdefault(c, []).append(d)
    for a, b in pairs:
        for d in above.get(b, ()):
            if (a, d) not in pairs:
                return f"not transitive at {(a, b, d)!r}"
    return None


def natural_order(s):
    """The relation  a <= b  iff  a+ b is defined and equals a.

    Raises InvalidOrderError if the result is not a partial order, which
    cannot happen once the lr axioms hold; it flags a checker bug.
    """
    comp = s.table.comp
    rel = frozenset(
        (a, b)
        for a, b in product(s.carrier, repeat=2)
        if comp.get((s.plus[a], b)) == a
    )
    problem = _check_partial_order(rel, s.carrier)
    if problem is not None:
        raise InvalidOrderError(problem)
    return rel


def natural_order_by_witness(s):
    """Same relation via the witness form: some e in S+ has e b = a.

    Kept separate from :func:`natural_order` so the two definitions can be
    compared as an invariant.
    """
    comp = s.table.comp
    image = set(s.plus.values())
    return frozenset(
        (a, b)
        for a, b in product(s.carrier, repeat=2)
        if any(comp.get((e, b)) == a for e in image)
    )


def idempotents(t):
    """Elements x with xx defined and xx = x, in carrier order."""
    return tuple(x for x in t.carrier if t.comp.get((x, x)) == x)


def is_left_identity(t, x):
    if t.comp.get((x, x)) != x:
        return False
    return all(t.comp[(x, s)] == s for s in t.carrier if (x, s) in t.defined)


def is_right_identity(t, x):
    if t.comp.get((x, x)) != x:
        return False
    return all(t.comp[(s, x)] == s for s in t.carrier if (s, x) in t.defined)


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
