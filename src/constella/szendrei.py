"""Szendrei expansions, the embedding into them, and the universal extension.

Elements of an expansion are pairs (A, a): A a finite subset of the carrier
whose members share one plus-value e with e in A, and a in A.  Expansions of
semigroupoids and of constellations are built over the same canonical
carrier so the two composite constructions agree literally.

Both expansions are built in index space from the stored rows of their
base (coded.py).  Each element (A, a) is generated as its code (bitmask
of A, index of a), sorted on integer keys and then built once, with one
dict from its code to its index in the carrier; each uA = {ux : x in A}
is a bitmask, computed once per u and A:

  in Sz(S), (A,a)(B,b) = ((ab)+A union aB, ab) when ab is defined;
  in Sz(T), (A,a)(B,b) = (A, ab) when ab is defined and aB is inside A;
  in Sz(T), (A,a) <= (B,b) iff a <= b and a+B is inside A.

The rows are stored as they are (core._from_rows), after the checks the
public constructors made on the labelled tables: the same exceptions,
texts and precedence.  iota finds its images by position in the carrier,
and extend reads the target's rows, plus_row and corestriction index; both
store the target indices they find as the map's images.
"""

from collections import Counter
from itertools import combinations

from .coded import _indices, _le_rows, _positions, _subset_images
from .constellation import OrderedConstellation, corestriction
from .core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _from_rows,
    _order_rows_problem,
)
from .morphism import CapExceededError, MorphismMap, _map_cap

__all__ = [
    "SzendreiElement",
    "MeetUndefinedError",
    "expand_semigroupoid",
    "expand_constellation",
    "iota",
    "generation_decomposition",
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
    once, when it is built, and kept; the repr is built from the key on
    demand.  The expansions sort their carriers on index keys, not on
    these (_coded_carrier).
    """

    __slots__ = ("subset", "anchor", "_hash", "_key")

    def __init__(self, subset, anchor):
        subset = frozenset(subset)
        if anchor not in subset:
            raise ValueError("anchor must belong to the subset")
        _fill(self, subset, tuple(sorted(subset)), anchor)

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


def _fill(el, subset, members, anchor):
    """el, its fields set to (subset, anchor), members its sorted subset."""
    object.__setattr__(el, "subset", subset)
    object.__setattr__(el, "anchor", anchor)
    object.__setattr__(el, "_hash", hash((subset, anchor)))
    object.__setattr__(el, "_key", (len(subset), members, anchor))
    return el


def _expansion_size(plus):
    """The number of (A, a) _coded_carrier lists over a plus map coded by
    index, from the closed form.  The class of e, the x with x+ = e, holds
    m elements other than e; each j of them with e make a subset A of
    j + 1 elements, each an anchor a, so the class gives
    sum_j C(m, j) (j + 1) = (m + 2) 2^(m-1) elements: (k + 1) 2^(k-2) for
    a class of k elements that holds e."""
    size = 0
    for e, k in Counter(plus).items():
        m = k - (plus[e] == e)
        size += (m + 2) << m >> 1
    return size


def _coded_carrier(carrier, val, plus):
    """The expansion's carrier over a base coded by index (val, plus), with
    its coding (sz, anchors, masks, images, code): sz[i] = (A, a), anchors[i]
    the index of a, masks[i] the bitmask of A's indices, images as
    coded._subset_images gives them, and code[masks[i], anchors[i]] = i.  An
    expansion with more table cells than the map cap (morphism._map_cap) is
    refused with CapExceededError before any element is built.

    The codes are sorted on (|A|, the ranks of A's members in increasing
    order, the rank of a), a rank being a position in the sorted base
    carrier: on totally ordered labels, the order of the elements' own
    keys.  sz repeats an element only when two plus-elements are each
    other's plus, e+ = f and f+ = e, and then the plus of ({e}, e) is no
    element, which _sz_plus_row rejects before anything reads the repeat.
    """
    size, cap = _expansion_size(plus), _map_cap()
    if size * size > cap:
        raise CapExceededError(
            f"an expansion of {size} elements has {size}^2 table cells, "
            f"which exceed cap {cap}")
    order = sorted(range(len(carrier)), key=carrier.__getitem__)
    rank = {x: r for r, x in enumerate(order)}
    keys = []
    for e in set(plus):
        rest = [rank[x] for x, f in enumerate(plus) if f == e and x != e]
        for k in range(len(rest) + 1):
            for combo in combinations(rest, k):
                ranks = tuple(sorted((rank[e], *combo)))
                keys.extend([(k + 1, ranks, r) for r in ranks])
    sz, anchors, masks, shared = [], [], [], {}
    for _, ranks, r in sorted(keys):
        if ranks not in shared:  # once per subset A
            members = tuple([carrier[order[q]] for q in ranks])
            mask = sum([1 << order[q] for q in ranks])
            shared[ranks] = frozenset(members), members, mask
        subset, members, mask = shared[ranks]
        sz.append(_fill(object.__new__(SzendreiElement), subset, members,
                        carrier[order[r]]))
        anchors.append(order[r])
        masks.append(mask)
    code = {key: i for i, key in enumerate(zip(masks, anchors))}
    return tuple(sz), anchors, masks, _subset_images(val, masks), code


def _sz_plus_row(anchors, masks, plus, code):
    """(A, a)+ = (A, a+) coded by index, checked inside the carrier at each
    (A, a) in carrier order.  (A, a+) is an element whenever a+ is in A,
    so a+ outside A (an invalid plus map) is the one failure, and it
    raises the ValueError the labelled construction raised."""
    try:
        return tuple([code[mask, plus[a]] for a, mask in zip(anchors, masks)])
    except KeyError:
        raise ValueError("anchor must belong to the subset") from None


def expand_semigroupoid(s):
    """Expansion of a left restriction semigroupoid.

    (A,a)(B,b) = ((ab)+ A union aB, ab) when ab is defined; plus keeps the
    subset and applies the base plus to the anchor.

    On an invalid base it raises what the labelled construction raised:
    KeyError for the first product (in carrier order, the left subset
    before the right) that needs an undefined ux, then the plus check of
    _sz_plus_row, then ValueError for the first product that leaves the
    carrier.
    """
    carrier, val, plus = s.carrier, s.table.rows, s.plus_row
    sz, anchors, masks, images, code = _coded_carrier(carrier, val, plus)
    rows, leaving = [], None
    for i, a in enumerate(anchors):
        va, a_images, row = val[a], images[a], [None] * len(sz)
        for j, b in enumerate(anchors):
            ab = va[b]
            if ab is None:
                continue
            left, right = images[plus[ab]][i], a_images[j]
            if left < 0:
                raise KeyError((carrier[plus[ab]], carrier[~left]))
            if right < 0:
                raise KeyError((carrier[a], carrier[~right]))
            row[j] = k = code.get((left | right, ab))
            if k is None and leaving is None:
                leaving = i, j, left | right, ab
        rows.append(tuple(row))
    plus_row = _sz_plus_row(anchors, masks, plus, code)
    if leaving is not None:
        i, j, mask, ab = leaving
        entry = sz[i], sz[j], SzendreiElement(
            [carrier[x] for x in _indices(mask)], carrier[ab])
        raise ValueError(f"comp entry {entry!r} leaves the carrier")
    return _from_rows(LeftRestrictionSemigroupoid,
                      _from_rows(PartialTable, sz, tuple(rows)), plus_row)


def expand_constellation(t):
    """Expansion of an ordered constellation.

    (A,a)(B,b) = (A, ab) when ab is defined and aB is inside A; the order
    is (A,a) <= (B,b) iff a <= b and a+ B is inside A (products in t).

    On an invalid base it raises what the labelled construction raised:
    the plus check of _sz_plus_row, then ValueError when the order is not
    a partial order.
    """
    carrier, val, plus = t.carrier, t.table.rows, t.plus_row
    sz, anchors, masks, images, code = _coded_carrier(carrier, val, plus)
    le = _le_rows(t.up)
    rows, up = [], []
    for i, a in enumerate(anchors):
        mask, va, a_images, row = masks[i], val[a], images[a], [None] * len(sz)
        for j, b in enumerate(anchors):
            ab = va[b]
            if ab is not None and a_images[j] | mask == mask:
                row[j] = code[mask, ab]
        rows.append(tuple(row))
        above, plus_images = le[a], images[plus[a]]
        up.append(tuple([j for j, b in enumerate(anchors)
                         if above[b] and plus_images[j] | mask == mask]))
    plus_row = _sz_plus_row(anchors, masks, plus, code)
    up = tuple(up)
    problem = _order_rows_problem(sz, _le_rows(up), up)
    if problem is not None:
        raise ValueError(f"order is not a partial order: {problem}")
    return _from_rows(OrderedConstellation,
                      _from_rows(PartialTable, sz, tuple(rows)), plus_row, up)


def iota(t, expansion=None):
    """The embedding x -> ({x+, x}, x) into the expansion of t, onto the
    expansion's own members, found by their positions in its carrier."""
    if expansion is None:
        expansion = expand_constellation(t)
    position, carrier = _positions(expansion.carrier), t.carrier
    images = tuple([position.get(SzendreiElement({carrier[e], x}, x))
                    for x, e in zip(carrier, t.plus_row)])
    if None in images:
        raise ValueError("mapping image leaves the target carrier")
    return _from_rows(MorphismMap, t, expansion, images)


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
    a1..an run over A minus the shared plus-element.  The element is found
    through the positions the expansion's corestriction index keeps, so a
    caller that walks the carrier builds them once.
    """
    i = sz._index().position.get(el)
    if i is None:
        raise ValueError(f"{el!r} is not in the expansion")
    anchor_plus = sz.carrier[sz.plus_row[i]].anchor
    if el.subset == frozenset({anchor_plus, el.anchor}):
        return Leaf(el.anchor)
    rest = sorted(x for x in el.subset if x != anchor_plus)
    folded = Plus(Leaf(rest[0]))
    for x in rest[1:]:
        folded = Corestrict(folded, Plus(Leaf(x)))
    if el.anchor == anchor_plus:
        return folded
    return Compose(folded, Leaf(el.anchor))


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


def extend(phi, expansion=None):
    """The unique radiant on the expansion agreeing with phi through iota.

    phi must be an inductive preradiant T -> L; the result maps (A, x) to
    (meet of phi(a)+ over a in A) phi(x), with the meet folded over the
    canonical subset order, each step x|e read from the target's
    corestriction index.
    """
    t, target = phi.source, phi.target
    if expansion is None:
        expansion = expand_constellation(t)
    carrier, val, plus = target.carrier, target.table.rows, target.plus_row
    top = target._index().top
    image = dict(zip(t.carrier, phi.images))
    image_plus = {a: plus[y] for a, y in image.items()}
    images = []
    for el in expansion.carrier:
        members = el.sort_key()[1]
        plusses = [image_plus[a] for a in members]
        m = plusses[0]
        for e in plusses[1:]:
            if top[e][m] is None:
                raise MeetUndefinedError(
                    f"no meet of {carrier[m]!r} and {carrier[e]!r}")
            m = top[e][m]
        value = val[m][image[el.anchor]]
        if value is None:
            raise MeetUndefinedError(
                f"{carrier[m]!r} does not compose with "
                f"{carrier[image[el.anchor]]!r}")
        images.append(value)
    return _from_rows(MorphismMap, expansion, target, tuple(images))
