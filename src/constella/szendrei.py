"""Szendrei expansions, the embedding into them, and the universal extension.

Elements of an expansion are pairs (A, a): A a finite subset of the carrier
whose members share one plus-value e with e in A, and a in A.  Expansions of
semigroupoids and of constellations are built over the same canonical
carrier so the two composite constructions agree literally.
"""

from itertools import combinations

from .coded import _positions
from .constellation import OrderedConstellation, corestriction
from .core import LeftRestrictionSemigroupoid, PartialTable
from .morphism import MorphismMap

__all__ = [
    "SzendreiElement",
    "MeetUndefinedError",
    "expand_semigroupoid",
    "expand_constellation",
    "iota",
    "generation_decomposition",
    "evaluate_term",
    "evaluate_through",
    "extend",
    "Term",
    "Leaf",
    "Plus",
    "Corestrict",
    "Compose",
]


class MeetUndefinedError(RuntimeError):
    """The corestriction fold in the extension failed; the input preradiant
    or a structure is invalid."""


class SzendreiElement:
    """Pair (subset, anchor) with anchor inside the subset.

    The element is immutable, so its hash and its sort key are computed
    once, when it is built, and kept.  On an iterated expansion the subset
    holds elements of the level below, whose keys are themselves kept:
    sorting a carrier then costs one tuple comparison per step, not one
    nested sort per level.  The repr is built from the key on demand.
    """

    __slots__ = ("subset", "anchor", "_hash", "_key")

    def __init__(self, subset, anchor):
        subset = frozenset(subset)
        if anchor not in subset:
            raise ValueError("anchor must belong to the subset")
        members = sorted(subset)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "_hash", hash((subset, anchor)))
        object.__setattr__(self, "_key", (len(subset), tuple(members), anchor))

    def __setattr__(self, name, value):
        raise AttributeError("SzendreiElement is immutable")

    def sort_key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def __eq__(self, other):
        return (
            isinstance(other, SzendreiElement)
            and self.subset == other.subset
            and self.anchor == other.anchor
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "_".join(map(str, self._key[1])) + "'" + str(self.anchor)

    def __repr__(self):
        return f"SzendreiElement({list(self._key[1])!r}, {self.anchor!r})"


def _sz_carrier(carrier, plus):
    """All (A, a) over the plus-classes, in one canonical order."""
    classes = {}
    for x in carrier:
        classes.setdefault(plus[x], []).append(x)
    elements = []
    for e, members in classes.items():
        rest = [x for x in members if x != e]
        for k in range(len(rest) + 1):
            for combo in combinations(sorted(rest), k):
                subset = frozenset(combo) | {e}
                for a in subset:
                    elements.append(SzendreiElement(subset, a))
    return tuple(sorted(elements))


def _member_lookup(carrier):
    """(subset, anchor) -> the carrier's own element, so that the tables of
    an expansion hold carrier members and their lookups match by identity.
    A pair outside the carrier (from an invalid input) is built fresh, for
    the table constructor to reject."""
    index = {(p.subset, p.anchor): p for p in carrier}

    def member(subset, anchor):
        found = index.get((frozenset(subset), anchor))
        return found if found is not None else SzendreiElement(subset, anchor)

    return member


def expand_semigroupoid(s):
    """Expansion of a left restriction semigroupoid.

    (A,a)(B,b) = ((ab)+ A ∪ aB, ab) when ab is defined; plus keeps the
    subset and applies the base plus to the anchor.
    """
    comp, base_plus = s.table.comp, s.plus
    carrier = _sz_carrier(s.carrier, base_plus)
    member = _member_lookup(carrier)
    sz_comp = {}
    for p in carrier:
        for q in carrier:
            ab = comp.get((p.anchor, q.anchor))
            if ab is None:
                continue
            ab_plus = base_plus[ab]
            subset = {comp[(ab_plus, x)] for x in p.subset}
            subset |= {comp[(p.anchor, y)] for y in q.subset}
            sz_comp[(p, q)] = member(subset, ab)
    plus = {p: member(p.subset, base_plus[p.anchor]) for p in carrier}
    return LeftRestrictionSemigroupoid(PartialTable(carrier, sz_comp), plus)


def expand_constellation(t):
    """Expansion of an ordered constellation.

    (A,a)(B,b) = (A, ab) when ab is defined and aB ⊆ A; the order is
    (A,a) <= (B,b) iff a <= b and a+ B ⊆ A, products taken in t.
    """
    comp, base_plus, base_order = t.table.comp, t.plus, t.order
    carrier = _sz_carrier(t.carrier, base_plus)
    member = _member_lookup(carrier)
    sz_comp = {}
    for p in carrier:
        for q in carrier:
            ab = comp.get((p.anchor, q.anchor))
            if ab is None:
                continue
            images = [comp.get((p.anchor, y)) for y in q.subset]
            if any(img is None or img not in p.subset for img in images):
                continue
            sz_comp[(p, q)] = member(p.subset, ab)
    plus = {p: member(p.subset, base_plus[p.anchor]) for p in carrier}
    order = set()
    for p in carrier:
        for q in carrier:
            if (p.anchor, q.anchor) not in base_order:
                continue
            a_plus = base_plus[p.anchor]
            images = [comp.get((a_plus, y)) for y in q.subset]
            if any(img is None or img not in p.subset for img in images):
                continue
            order.add((p, q))
    return OrderedConstellation(PartialTable(carrier, sz_comp), plus, order)


def iota(t, expansion=None):
    """The embedding x -> ({x+, x}, x) into the expansion of t."""
    if expansion is None:
        expansion = expand_constellation(t)
    plus = t.plus
    mapping = {x: SzendreiElement({plus[x], x}, x) for x in t.carrier}
    return MorphismMap(t, expansion, mapping)


class Term:
    """Expression over the generators of an expansion."""

    __slots__ = ()


class Leaf(Term):
    __slots__ = ("element",)

    def __init__(self, element):
        object.__setattr__(self, "element", element)

    def __repr__(self):
        return f"iota({self.element!r})"


class Plus(Term):
    __slots__ = ("inner",)

    def __init__(self, inner):
        object.__setattr__(self, "inner", inner)

    def __repr__(self):
        return f"({self.inner!r})+"


class Corestrict(Term):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __repr__(self):
        return f"({self.left!r}|{self.right!r})"


class Compose(Term):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __repr__(self):
        return f"({self.left!r} {self.right!r})"


def generation_decomposition(sz, el):
    """A term over iota-images, plus and corestriction evaluating to el.

    Follows the shape (A,a) = (iota(a1)+ | ... | iota(an)+) iota(a) where
    a1..an run over A minus the shared plus-element.
    """
    if el not in set(sz.carrier):
        raise ValueError(f"{el!r} is not in the expansion")
    anchor_plus = sz.plus[el].anchor
    if el.subset == frozenset({anchor_plus, el.anchor}):
        return Leaf(el.anchor)
    rest = sorted(x for x in el.subset if x != anchor_plus)
    folded = Plus(Leaf(rest[0]))
    for x in rest[1:]:
        folded = Corestrict(folded, Plus(Leaf(x)))
    if el.anchor == anchor_plus:
        return folded
    return Compose(folded, Leaf(el.anchor))


def evaluate_term(term, base, sz):
    """Evaluate a term inside the expansion sz of the constellation base."""
    return evaluate_through(term, iota(base, sz).mapping, sz)


def evaluate_through(term, leaves, target):
    """Evaluate a term in the constellation target, sending each leaf
    element x to leaves[x]."""
    carrier, val, plus = target.carrier, target.table.rows, target.plus_row
    position = _positions(carrier)

    def value(term):
        if isinstance(term, Leaf):
            return leaves[term.element]
        if isinstance(term, Plus):
            return carrier[plus[position[value(term.inner)]]]
        if isinstance(term, Corestrict):
            left, right = value(term.left), value(term.right)
            c = corestriction(target, left, right)
            if not c.exists:
                raise MeetUndefinedError(f"corestriction missing for {term!r}")
            return c.value
        if isinstance(term, Compose):
            left, right = value(term.left), value(term.right)
            v = val[position[left]][position[right]]
            if v is None:
                raise MeetUndefinedError(f"composition missing for {term!r}")
            return carrier[v]
        raise TypeError(f"unknown term {term!r}")

    return value(term)


def _meet_fold(target, elements):
    """Left fold of the corestriction over plus-elements of the target."""
    acc = elements[0]
    for e in elements[1:]:
        c = corestriction(target, acc, e)
        if not c.exists:
            raise MeetUndefinedError(f"no meet of {acc!r} and {e!r}")
        acc = c.value
    return acc


def extend(phi, expansion=None):
    """The unique radiant on the expansion agreeing with phi through iota.

    phi must be an inductive preradiant T -> L; the result maps (A, x) to
    (meet of phi(a)+ over a in A) phi(x), with the meet folded over the
    canonical subset order.
    """
    t, target, f = phi.source, phi.target, phi.mapping
    if expansion is None:
        expansion = expand_constellation(t)
    comp, plus = target.table.comp, target.plus
    mapping = {}
    for el in expansion.carrier:
        plusses = [plus[f[a]] for a in sorted(el.subset)]
        m = _meet_fold(target, plusses)
        value = comp.get((m, f[el.anchor]))
        if value is None:
            raise MeetUndefinedError(
                f"{m!r} does not compose with {f[el.anchor]!r}"
            )
        mapping[el] = value
    return MorphismMap(expansion, target, mapping)
