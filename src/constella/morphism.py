"""Total maps between structures and the four morphism classes.

Each axiom is written once, as ordered instances ``(axiom, witness,
support, test)`` on carrier indices (coded.py): ``support`` lists the
source indices the instance reads, ``witness`` those it names, and
``test(f, *support)`` decides it once they have images, where f is a map
as MorphismMap stores it, f[x] the target index of the image of x.  The
instances are built from the stored rows of the source, in index order,
and their tests read the stored rows of the target: its table rows,
plus_row and the order rows of its corestriction index.  The reporting
checkers run every instance on the stored images and name each failure
through the source carrier (core._named_report); no checker assumes the
map already belongs to a smaller class, so single-image mutations produce
meaningful named violations.

enumerate_morphisms is a backtracking search over the same instances: it
assigns images in source index order, trying target indices in order,
tests each instance once the last element of its support has an image and
cuts the branch at the first failure.  Accepted maps come out in the
lexicographic order of the |T|^|S| total maps, each stored as its images.
"""

from .coded import _positions, _restrictions
from .constellation import OrderedConstellation, _pseudo_rows
from .core import LeftRestrictionSemigroupoid, _from_rows, _named_report
from .enumerate import CapExceededError, cap_from_env
from .functor import build_C, build_G

__all__ = [
    "MorphismMap",
    "CapExceededError",
    "MORPHISM_KINDS",
    "check_morphism",
    "is_restriction_morphism",
    "is_premorphism",
    "is_inductive_radiant",
    "is_inductive_preradiant",
    "enumerate_morphisms",
    "transport",
    "compose",
    "identity_morphism",
    "DEFAULT_MAP_CAP",
]

DEFAULT_MAP_CAP = 10**7


class MorphismMap:
    """A total function between the carriers of two fixed structures.

    The source and target structures are part of the identity: the same
    function may be a morphism for one plus-structure and not another.
    ``images``, the one stored form, holds the target index of the image
    of each source element, in carrier order; ``mapping`` is its labelled
    view.  The constructor checks the mapping total on the source carrier
    with image inside the target's and codes it once; core._from_rows
    stores images built by the search, composition, iota and extend.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source, target, mapping):
        mapping = dict(mapping)
        if set(mapping) != set(source.carrier):
            raise ValueError("mapping must be total on the source carrier")
        position = _positions(target.carrier)
        if not all(y in position for y in mapping.values()):
            raise ValueError("mapping image leaves the target carrier")
        self._keep(source, target,
                   tuple([position[mapping[x]] for x in source.carrier]))

    def _keep(self, source, target, images):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("MorphismMap is immutable")

    @property
    def mapping(self):
        """{x: f(x)} in source carrier order: a new dict on each access."""
        values = self.target.carrier
        return {x: values[y] for x, y in zip(self.source.carrier, self.images)}

    def __call__(self, x):
        return self.mapping[x]

    def as_function(self):
        return frozenset(self.mapping.items())

    def __eq__(self, other):
        return (
            isinstance(other, MorphismMap)
            and self.source == other.source
            and self.target == other.target
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.source, self.target, self.images))

    def __repr__(self):
        return f"MorphismMap({self.mapping!r})"


def identity_morphism(s):
    return _from_rows(MorphismMap, s, s, tuple(range(len(s.carrier))))


def _require(source, target, cls):
    if not (isinstance(source, cls) and isinstance(target, cls)):
        raise TypeError(f"morphism endpoints must be {cls.__name__}")


# --- instance builders: one instance per axiom and witness, in index order


def _products(axiom, S, test):
    """One instance per defined product ab of the source, reading a, b, ab."""
    for a, row in enumerate(S.table.rows):
        for b, ab in enumerate(row):
            if ab is not None:
                yield axiom, (a, b), (a, b, ab), test


def _elements(axiom, S, test):
    """One instance per source element a, reading a and a+."""
    for a, a_plus in enumerate(S.plus_row):
        yield axiom, (a,), (a, a_plus), test


def _order_pairs(axiom, T, L):
    """ir3/ip3: a <= b implies f(a) <= f(b)."""
    le = L._index().le

    def test(f, a, b):
        return le[f[a]][f[b]]
    for a, above in enumerate(T.up):
        for b in above:
            yield axiom, (a, b), (a, b), test


def _corestrictions(axiom, T, L):
    """ir4/ip4: f(e) is in L+ and f(x|e) = f(x)|f(e), whenever x|e exists.
    Both sides are read from the corestriction indexes, whose rows cover
    the e in T+ and L+ only."""
    source, top = T._index(), L._index().top

    def test(f, x, e, c):
        row = top[f[e]]
        return row is not None and row[f[x]] == f[c]
    for e in source.image:
        for x, m in enumerate(source.top[e]):
            if m is not None:
                yield axiom, (x, e), (x, e, m), test


def _multiplicative(val):
    """rm1/ir1: f(a)f(b) is defined and equals f(ab)."""
    def test(f, a, b, ab):
        return val[f[a]][f[b]] == f[ab]
    return test


def _weakly_multiplicative(rows, plus):
    """pm1/ip1: f(a)f(b) = f(a)+ f(ab), both sides defined, for the product
    whose rows are given (composition for pm1, pseudo-product for ip1)."""
    def test(f, a, b, ab):
        lhs = rows[f[a]][f[b]]
        return lhs is not None and lhs == rows[plus[f[a]]][f[ab]]
    return test


def _commutes_with_plus(plus):
    """rm2/ir2: f(a+) = f(a)+."""
    def test(f, a, a_plus):
        return f[a_plus] == plus[f[a]]
    return test


def _rm_instances(S, T):
    yield from _products("rm1", S, _multiplicative(T.table.rows))
    yield from _elements("rm2", S, _commutes_with_plus(T.plus_row))


def _pm_instances(S, T):
    val, plus = T.table.rows, T.plus_row

    def pm2(f, a, a_plus):
        # f(a)+ <= f(a+) in the natural order: (f(a)+)+ f(a+) = f(a)+
        e = plus[f[a]]
        return val[plus[e]][f[a_plus]] == e

    yield from _products("pm1", S, _weakly_multiplicative(val, plus))
    yield from _elements("pm2", S, pm2)


def _ir_instances(T, L):
    yield from _products("ir1", T, _multiplicative(L.table.rows))
    yield from _elements("ir2", T, _commutes_with_plus(L.plus_row))
    yield from _order_pairs("ir3", T, L)
    yield from _corestrictions("ir4", T, L)


def _ip_instances(T, L):
    plus, cores = L.plus_row, L._index()
    le, top, image = cores.le, cores.top, frozenset(cores.image)
    pseudo, _ = _pseudo_rows(L.table.rows, plus, top)

    def ip2(f, a, a_plus):
        return le[plus[f[a]]][f[a_plus]]

    def ip5(f, e, x, r):
        # f(e)|f(x)+ = f(e|x)+, with f(e) in L+
        return f[e] in image and top[plus[f[x]]][f[e]] == plus[f[r]]

    def plus_image(f, e):
        return f[e] in image

    yield from _products("ip1", T, _weakly_multiplicative(pseudo, plus))
    yield from _elements("ip2", T, ip2)
    yield from _order_pairs("ip3", T, L)
    yield from _corestrictions("ip4", T, L)
    source, t_plus = T._index(), T.plus_row
    for e in source.image:
        for x, x_plus in enumerate(t_plus):
            # the restriction e|x, if e <= x+
            if source.le[e][x_plus]:
                found = _restrictions(t_plus, source.down, e, x)
                if len(found) == 1:
                    yield "ip5", (e, x), (e, x, found[0]), ip5
    # derived requirement: plus-elements land on plus-elements
    for e in source.image:
        yield "plus-image", (e,), (e,), plus_image


MORPHISM_KINDS = {
    "rm": (LeftRestrictionSemigroupoid, _rm_instances),
    "pm": (LeftRestrictionSemigroupoid, _pm_instances),
    "ir": (OrderedConstellation, _ir_instances),
    "ip": (OrderedConstellation, _ip_instances),
}


def _instances(kind, source, target):
    cls, build = MORPHISM_KINDS[kind]
    _require(source, target, cls)
    return build(source, target)


def check_morphism(kind, m):
    """Every failing instance of the axioms of kind (rm, pm, ir or ip)."""
    f = m.images
    return _named_report(m.source.carrier, (
        (axiom, witness)
        for axiom, witness, support, test in _instances(kind, m.source, m.target)
        if not test(f, *support)))


def is_restriction_morphism(m):
    """rm1: maps defined products to defined products, preserving them.
    rm2: commutes with plus."""
    return check_morphism("rm", m)


def is_premorphism(m):
    """pm1: f(s)f(t) = f(s)+ f(st) with both sides defined, when st is.
    pm2: f(s)+ <= f(s+) in the target's natural order."""
    return check_morphism("pm", m)


def is_inductive_radiant(m):
    """ir1: preserves composition; ir2: commutes with plus;
    ir3: preserves order; ir4: preserves corestrictions."""
    return check_morphism("ir", m)


def is_inductive_preradiant(m):
    """ip1-ip5, plus the derived requirement that plus-elements map into
    the target's plus-elements (reported as 'plus-image')."""
    return check_morphism("ip", m)


def _search(k, n, instances):
    """Depth-first over the images of source indices 0..k-1 among target
    indices 0..n-1, in index order; yields each map f (f[x] the image of
    x, one list reassigned in place) that passes every instance, in
    lexicographic order."""
    due = [[] for _ in range(k)]
    for _, _, support, test in instances:
        due[max(support)].append((test, support))
    f = [None] * k

    def assign(i):
        if i == k:
            yield f
            return
        tests = due[i]
        for y in range(n):
            f[i] = y
            if all(test(f, *support) for test, support in tests):
                yield from assign(i + 1)

    return assign(0)


def _map_cap():
    """The cap on candidate maps and on expansion table cells:
    CONSTELLA_CAP when it is above 8 (values up to 8 cap the census size),
    else DEFAULT_MAP_CAP."""
    value = cap_from_env()
    return value if value is not None and value > 8 else DEFAULT_MAP_CAP


def enumerate_morphisms(kind, source, target, cap=None):
    """All total maps source -> target passing the named checker.

    kind is one of rm, pm, ir, ip, or "any" for every total map.  The
    candidate space |target| ** |source| must stay within cap, although the
    search visits only the branches no axiom instance has cut.
    """
    if cap is None:
        cap = _map_cap()
    n, k = len(target.carrier), len(source.carrier)
    if n**k > cap:
        raise CapExceededError(f"{n}^{k} candidate maps exceed cap {cap}")
    if kind != "any" and kind not in MORPHISM_KINDS:
        raise ValueError(f"unknown morphism kind {kind!r}")
    instances = () if kind == "any" else _instances(kind, source, target)
    return tuple(_from_rows(MorphismMap, source, target, tuple(f))
                 for f in _search(k, n, instances))


def transport(m, direction):
    """Rebase a morphism along the object constructions.

    direction "C": semigroupoid morphism -> constellation morphism;
    direction "G": the other way.  The underlying images are unchanged.
    """
    if direction == "C":
        _require(m.source, m.target, LeftRestrictionSemigroupoid)
        return _from_rows(MorphismMap, build_C(m.source), build_C(m.target),
                          m.images)
    if direction == "G":
        _require(m.source, m.target, OrderedConstellation)
        return _from_rows(MorphismMap, build_G(m.source), build_G(m.target),
                          m.images)
    raise ValueError(f"direction must be 'C' or 'G', got {direction!r}")


def compose(m2, m1):
    """Function composition m2 after m1; requires matching middle structure."""
    if m1.target != m2.source:
        raise ValueError("target of the first morphism must equal source of the second")
    g = m2.images
    return _from_rows(MorphismMap, m1.source, m2.target,
                      tuple([g[y] for y in m1.images]))
