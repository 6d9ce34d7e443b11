"""Predicates carving out categories, semigroups and inverse structures.

Semigroupoid-side and constellation-side classifiers are computed from
their own definitions; the agreement between the two sides is a theorem
that the test-suite checks, never an implementation shortcut.

Each classifier reads its structure's stored rows, coded by carrier index
(coded.py), and computes each derived fact from them once per call: the
left and right identity flags, the pseudo-inverse lists and the
plus-components; the order rows come with the corestriction index.
Witnesses are named back through the carrier.  The public detectors read
the rows of the table they are given and run the same cores.
"""

from .coded import _components, _identity_line

__all__ = [
    "ClassificationReport",
    "InverseCheck",
    "classify_constellation",
    "classify_semigroupoid",
    "detect_semigroup",
    "detect_inverse_semigroupoid",
    "derive_plus_from_inverses",
    "has_right_inverses",
]


class ClassificationReport:
    FIELDS = (
        "nd",
        "lc",
        "unitary",
        "is_category",
        "is_semigroup",
        "is_inverse_semigroupoid",
        "has_right_inverses",
    )

    __slots__ = FIELDS + ("witnesses",)

    def __init__(self, nd, lc, unitary, is_category, is_semigroup,
                 is_inverse_semigroupoid, has_right_inverses, witnesses):
        self.nd = nd
        self.lc = lc
        self.unitary = unitary
        self.is_category = is_category
        self.is_semigroup = is_semigroup
        self.is_inverse_semigroupoid = is_inverse_semigroupoid
        self.has_right_inverses = has_right_inverses
        self.witnesses = dict(witnesses)

    def flags(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    def __repr__(self):
        on = [name for name in self.FIELDS if getattr(self, name)]
        return f"ClassificationReport({', '.join(on) or 'nothing'})"


class InverseCheck:
    __slots__ = ("ok", "inverse", "witness")

    def __init__(self, ok, inverse=None, witness=None):
        self.ok = ok
        self.inverse = inverse
        self.witness = witness

    def __repr__(self):
        return f"InverseCheck({self.ok})"


def _witness(witnesses, name, witness):
    """True when witness is None, else False with witness kept under name."""
    if witness is None:
        return True
    witnesses[name] = witness
    return False


def _first(carrier, elements):
    """(x,) for the first index x of elements, named, or None."""
    x = next(iter(elements), None)
    return None if x is None else (carrier[x],)


def _right_inverse_check(carrier, inverse):
    """The InverseCheck of inverse[x], the first right inverse of x or
    None, by index."""
    missing = _first(carrier, (x for x, w in enumerate(inverse) if w is None))
    if missing is not None:
        return InverseCheck(False, witness=missing)
    return InverseCheck(True, inverse={
        x: carrier[w] for x, w in zip(carrier, inverse)})


def _meet_semilattice(image, le, components):
    """Is all of (T+, <=) one meet-semilattice (single component, meets)."""
    if len(components) != 1:
        return False
    lower = {e: {g for g in image if le[g][e]} for e in image}
    for e in image:
        for f in image:
            common = lower[e] & lower[f]
            if not any(common <= lower[m] for m in common):
                return False
    return True


def has_right_inverses(t):
    """Every x composes with some w in the constellation to give x+."""
    return _right_inverse_check(
        t.carrier, _constellation_inverses(t.table.rows, t.plus_row))


def _constellation_inverses(val, plus):
    """For each x of a coded constellation, the first w with xw = x+."""
    return [row.index(e) if e in row else None for row, e in zip(val, plus)]


def classify_constellation(t):
    """All section-level predicates of an ordered constellation."""
    carrier = t.carrier
    val, plus = t.table.rows, t.plus_row
    cores = t._index()
    image, some, top, le = cores.image, cores.some, cores.top, cores.le
    components = _components(image, le)
    every = range(len(carrier))
    witnesses = {}
    nd = _witness(witnesses, "nd", _first(carrier, (
        x for x in every if not any(some[e][x] for e in image))))
    lc = _witness(witnesses, "lc", next(
        ((carrier[group[0]],) for group, m in components if m is None), None))
    unitary = _witness(witnesses, "unitary", witnesses.get("lc") or next((
        (carrier[x], carrier[m]) for _, m in components for x in every
        if some[m][x] and top[m][x] != x), None))
    right_inv = _right_inverse_check(
        carrier, _constellation_inverses(val, plus))
    _witness(witnesses, "has_right_inverses", right_inv.witness)
    return ClassificationReport(
        nd=nd,
        lc=lc,
        unitary=unitary,
        is_category=nd and unitary,
        is_semigroup=nd and _meet_semilattice(image, le, components),
        is_inverse_semigroupoid=right_inv.ok,
        has_right_inverses=right_inv.ok,
        witnesses=witnesses,
    )


def _identity_flags(val):
    """(left, right) for a coded table: left[x] when xx = x and xs = s
    wherever xs is defined, right[x] when xx = x and sx = s wherever sx is
    defined."""
    return ([_identity_line(x, row) for x, row in enumerate(val)],
            [_identity_line(x, column) for x, column in enumerate(zip(*val))])


def _category(val, identities):
    """(domain, codomain) as index lists when each x composes on each side
    with exactly one of the identities and xy is defined exactly when the
    domain of x is the codomain of y, else None."""
    domain, codomain = [], []
    for x, row in enumerate(val):
        d = [e for e in identities if row[e] is not None]
        r = [e for e in identities if val[e][x] is not None]
        if len(d) != 1 or len(r) != 1:
            return None
        domain.append(d[0])
        codomain.append(r[0])
    for x, row in enumerate(val):
        for y, xy in enumerate(row):
            if (xy is not None) != (domain[x] == codomain[y]):
                return None
    return domain, codomain


def detect_semigroup(table):
    """A semigroup is a table with every pair defined."""
    return all(None not in row for row in table.rows)


def _pseudo_inverses(val, x):
    """The w of a coded table with xwx = x and wxw = w, in index order."""
    out = []
    for w, xw in enumerate(val[x]):
        wx = val[w][x]
        if xw is not None and wx is not None \
                and val[xw][x] == x and val[wx][w] == w:
            out.append(w)
    return out


def _idempotents_commute(val):
    idempotents = [e for e, row in enumerate(val) if row[e] == e]
    return all(val[e][f] is None or val[f][e] == val[e][f]
               for e in idempotents for f in idempotents)


def detect_inverse_semigroupoid(table):
    """Unique pseudo-inverses everywhere, cross-checked independently.

    The direct search must agree with (regular and idempotents commute);
    disagreement would mean one of the two checkers is wrong, so it raises.
    Both read the one list of pseudo-inverses of each element.
    """
    return _inverse_check(table.carrier, table.rows)


def _inverse_check(carrier, val):
    """detect_inverse_semigroupoid on the table coded as val."""
    found = [_pseudo_inverses(val, x) for x in range(len(val))]
    name = carrier.__getitem__
    witness = next(((name(x), tuple(map(name, inv)))
                    for x, inv in enumerate(found) if len(inv) != 1), None)
    ok = witness is None
    regular = all(found)
    indirect = regular and _idempotents_commute(val)
    if ok != indirect:
        raise AssertionError(
            "pseudo-inverse uniqueness and the commuting-idempotents "
            "criterion disagree; one checker is broken"
        )
    if not ok:
        return InverseCheck(False, witness=witness)
    return InverseCheck(True, inverse={
        x: name(inv[0]) for x, inv in zip(carrier, found)})


def derive_plus_from_inverses(table, inverse):
    """The plus map x -> x x^{-1} induced by an inverse structure."""
    comp = table.comp
    plus = {}
    for x in table.carrier:
        value = comp.get((x, inverse[x]))
        if value is None:
            raise ValueError(f"{x!r} does not compose with its inverse")
        plus[x] = value
    return plus


def classify_semigroupoid(s):
    """Classification computed from the semigroupoid table alone.

    The right inverses are those of the associated constellation, read off
    the table: some w with x w+ = x and x w = x+.
    """
    carrier = s.carrier
    val, plus = s.table.rows, s.plus_row
    every = range(len(val))
    left, right = _identity_flags(val)
    identities = [e for e in every if left[e] and right[e]]
    image = set(plus)
    units = [e for e in every if e in image and left[e]]
    witnesses = {}
    nd = _witness(witnesses, "nd", _first(carrier, (
        x for x, row in enumerate(val) if row.count(None) == len(row))))
    lc = _witness(witnesses, "lc", _first(carrier, (
        x for x in every if all(val[e][x] is None for e in units))))
    unitary = _witness(witnesses, "unitary", _first(carrier, (
        x for x in every if all(val[e][x] is None for e in identities))))
    right_inv = _right_inverse_check(carrier, [
        next((w for w, v in enumerate(row)
              if row[plus[w]] == x and v == plus[x]), None)
        for x, row in enumerate(val)])
    _witness(witnesses, "has_right_inverses", right_inv.witness)
    return ClassificationReport(
        nd=nd,
        lc=lc,
        unitary=unitary,
        is_category=_category(val, identities) is not None,
        is_semigroup=detect_semigroup(s.table),
        is_inverse_semigroupoid=_inverse_check(carrier, val).ok,
        has_right_inverses=right_inv.ok,
        witnesses=witnesses,
    )
