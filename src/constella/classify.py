"""Predicates carving out categories, semigroups and inverse structures.

Semigroupoid-side and constellation-side classifiers are computed from
their own definitions; the agreement between the two sides is a theorem
that the test-suite checks, never an implementation shortcut.
"""

from itertools import product

from .core import idempotents, is_left_identity, is_right_identity

__all__ = [
    "ClassificationReport",
    "CategoryCheck",
    "InverseCheck",
    "classify_constellation",
    "classify_semigroupoid",
    "detect_category",
    "detect_semigroup",
    "detect_inverse_semigroupoid",
    "derive_plus_from_inverses",
    "has_right_inverses",
    "pseudo_inverses",
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


class CategoryCheck:
    __slots__ = ("ok", "domain", "codomain")

    def __init__(self, ok, domain=None, codomain=None):
        self.ok = ok
        self.domain = domain
        self.codomain = codomain

    def __repr__(self):
        return f"CategoryCheck({self.ok})"


class InverseCheck:
    __slots__ = ("ok", "inverse", "witness")

    def __init__(self, ok, inverse=None, witness=None):
        self.ok = ok
        self.inverse = inverse
        self.witness = witness

    def __repr__(self):
        return f"InverseCheck({self.ok})"


def _constellation_nd(t):
    image = t.plus_image()
    cores = t.corestrictions()
    for x in t.carrier:
        if not any(cores[x, e].has_candidates for e in image):
            return False, (x,)
    return True, None


def _constellation_lc(t):
    for group, top in t.components():
        if top is None:
            return False, (group[0],)
    return True, None


def _constellation_unitary(t):
    lc, witness = _constellation_lc(t)
    if not lc:
        return False, witness
    cores = t.corestrictions()
    for _, top in t.components():
        for x in t.carrier:
            c = cores[x, top]
            if c.has_candidates and c.value != x:
                return False, (x, top)
    return True, None


def _meet_semilattice(t):
    """Is all of (T+, <=) one meet-semilattice (single component, meets)."""
    if len(t.components()) != 1:
        return False
    image = t.plus_image()
    for e, f in product(image, repeat=2):
        lower = [g for g in image if (g, e) in t.order and (g, f) in t.order]
        if not any(all((z, m) in t.order for z in lower) for m in lower):
            return False
    return True


def has_right_inverses(t):
    """Every x composes with some w in the constellation to give x+."""
    comp = t.table.comp
    inverse = {}
    for x in t.carrier:
        w = next(
            (w for w in t.carrier if comp.get((x, w)) == t.plus[x]), None
        )
        if w is None:
            return InverseCheck(False, witness=(x,))
        inverse[x] = w
    return InverseCheck(True, inverse=inverse)


def classify_constellation(t):
    """All section-level predicates of an ordered constellation."""
    witnesses = {}
    nd, w = _constellation_nd(t)
    if w:
        witnesses["nd"] = w
    lc, w = _constellation_lc(t)
    if w:
        witnesses["lc"] = w
    unitary, w = _constellation_unitary(t)
    if w:
        witnesses["unitary"] = w
    semilattice = _meet_semilattice(t)
    right_inv = has_right_inverses(t)
    if not right_inv.ok:
        witnesses["has_right_inverses"] = right_inv.witness
    return ClassificationReport(
        nd=nd,
        lc=lc,
        unitary=unitary,
        is_category=nd and unitary,
        is_semigroup=nd and semilattice,
        is_inverse_semigroupoid=right_inv.ok,
        has_right_inverses=right_inv.ok,
        witnesses=witnesses,
    )


def _identities(table):
    return [
        x for x in table.carrier
        if is_left_identity(table, x) and is_right_identity(table, x)
    ]


def detect_category(table):
    """Category structure = total domain/codomain identity assignments.

    Returns the unique identity acting on each side of every element when
    both exist everywhere.
    """
    identities = _identities(table)
    domain = {}
    codomain = {}
    for x in table.carrier:
        d = [e for e in identities if (x, e) in table.defined]
        r = [e for e in identities if (e, x) in table.defined]
        if len(d) != 1 or len(r) != 1:
            return CategoryCheck(False)
        domain[x], codomain[x] = d[0], r[0]
    for x, y in product(table.carrier, repeat=2):
        if ((x, y) in table.defined) != (domain[x] == codomain[y]):
            return CategoryCheck(False)
    return CategoryCheck(True, domain=domain, codomain=codomain)


def detect_semigroup(table):
    """A semigroup is a table with every pair defined."""
    n = len(table.carrier)
    return len(table.defined) == n * n


def pseudo_inverses(table, x):
    """All w with xwx = x and wxw = w (all intermediate pairs defined)."""
    comp = table.comp
    out = []
    for w in table.carrier:
        xw = comp.get((x, w))
        wx = comp.get((w, x))
        if xw is None or wx is None:
            continue
        if comp.get((xw, x)) == x and comp.get((wx, w)) == w:
            out.append(w)
    return out


def _idempotents_commute(table):
    comp = table.comp
    for e, f in product(idempotents(table), repeat=2):
        if (e, f) in table.defined:
            if comp.get((f, e)) != comp[(e, f)]:
                return False
    return True


def detect_inverse_semigroupoid(table):
    """Unique pseudo-inverses everywhere, cross-checked independently.

    The direct search must agree with (regular and idempotents commute);
    disagreement would mean one of the two checkers is wrong, so it raises.
    """
    inverse = {}
    ok = True
    witness = None
    for x in table.carrier:
        inv = pseudo_inverses(table, x)
        if len(inv) != 1:
            ok = False
            witness = (x, tuple(inv))
            break
        inverse[x] = inv[0]
    regular = all(pseudo_inverses(table, x) for x in table.carrier)
    indirect = regular and _idempotents_commute(table)
    if ok != indirect:
        raise AssertionError(
            "pseudo-inverse uniqueness and the commuting-idempotents "
            "criterion disagree; one checker is broken"
        )
    if not ok:
        return InverseCheck(False, witness=witness)
    return InverseCheck(True, inverse=inverse)


def derive_plus_from_inverses(table, inverse):
    """The plus map x -> x x^{-1} induced by an inverse structure."""
    plus = {}
    for x in table.carrier:
        value = table.comp.get((x, inverse[x]))
        if value is None:
            raise ValueError(f"{x!r} does not compose with its inverse")
        plus[x] = value
    return plus


def _semigroupoid_nd(s):
    for x in s.carrier:
        if not any((x, w) in s.table.defined for w in s.carrier):
            return False, (x,)
    return True, None


def _semigroupoid_lc(s):
    image = set(s.plus.values())
    for x in s.carrier:
        if not any(
            e in image and is_left_identity(s.table, e)
            and (e, x) in s.table.defined
            for e in s.carrier
        ):
            return False, (x,)
    return True, None


def _semigroupoid_unitary(s):
    identities = _identities(s.table)
    for x in s.carrier:
        if not any((e, x) in s.table.defined for e in identities):
            return False, (x,)
    return True, None


def _semigroupoid_right_inverses(s):
    """Right inverses of the associated constellation, read off the table:
    some w with x w+ = x and x w = x+."""
    comp = s.table.comp
    inverse = {}
    for x in s.carrier:
        w = next(
            (
                w
                for w in s.carrier
                if comp.get((x, s.plus[w])) == x and comp.get((x, w)) == s.plus[x]
            ),
            None,
        )
        if w is None:
            return InverseCheck(False, witness=(x,))
        inverse[x] = w
    return InverseCheck(True, inverse=inverse)


def classify_semigroupoid(s):
    """Classification computed from the semigroupoid table alone."""
    witnesses = {}
    nd, w = _semigroupoid_nd(s)
    if w:
        witnesses["nd"] = w
    lc, w = _semigroupoid_lc(s)
    if w:
        witnesses["lc"] = w
    unitary, w = _semigroupoid_unitary(s)
    if w:
        witnesses["unitary"] = w
    category = detect_category(s.table)
    inverse = detect_inverse_semigroupoid(s.table)
    right_inv = _semigroupoid_right_inverses(s)
    if not right_inv.ok:
        witnesses["has_right_inverses"] = right_inv.witness
    return ClassificationReport(
        nd=nd,
        lc=lc,
        unitary=unitary,
        is_category=category.ok,
        is_semigroup=detect_semigroup(s.table),
        is_inverse_semigroupoid=inverse.ok,
        has_right_inverses=right_inv.ok,
        witnesses=witnesses,
    )
