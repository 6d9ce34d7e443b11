"""The mutually inverse object constructions between the two worlds.

build_C turns a left restriction semigroupoid into an ordered constellation
(composable pairs are those with s t+ = s, order is the natural one);
build_G goes back via the pseudo-product.  Carrier labels are preserved
verbatim so the round trips are literal equalities, not isomorphisms.
"""

from itertools import product

from .constellation import OrderedConstellation
from .core import LeftRestrictionSemigroupoid, PartialTable, natural_order

__all__ = ["build_C", "build_G", "roundtrip_check", "RoundTripReport"]


class RoundTripReport:
    __slots__ = ("equal", "mismatches")

    def __init__(self, equal, mismatches=()):
        self.equal = equal
        self.mismatches = tuple(mismatches)

    def __repr__(self):
        return f"RoundTripReport({self.equal}, {list(self.mismatches)!r})"


def build_C(s):
    """Constellation on the same carrier: s • t = st when s t+ = s."""
    comp = {}
    for a, b in product(s.carrier, repeat=2):
        if s.table.comp.get((a, s.plus[b])) == a:
            comp[(a, b)] = s.table.comp[(a, b)]
    # natural_order raises unless its relation is a partial order
    return OrderedConstellation._trusted(
        PartialTable(s.carrier, comp), s.plus, natural_order(s)
    )


def build_G(t):
    """Semigroupoid on the same carrier via the pseudo-product.

    x ⊗ y = (x|y+) y, defined whenever the corestriction x|y+ exists.
    """
    cores = t._index()
    carrier, comp = t.carrier, t.table.comp
    plus = [cores.position[t.plus[y]] for y in carrier]
    pseudo = {}
    for i, x in enumerate(carrier):
        for y, e in zip(carrier, plus):
            m = cores.top[e][i]
            if m is not None:
                pseudo[x, y] = comp[carrier[m], y]
    return LeftRestrictionSemigroupoid(PartialTable(carrier, pseudo), t.plus)


def roundtrip_check(x):
    """Compare a structure with its double conversion, field by field."""
    if isinstance(x, LeftRestrictionSemigroupoid):
        back = build_G(build_C(x))
        fields = [
            ("carrier", x.carrier, back.carrier),
            ("defined", x.table.comp.keys(), back.table.comp.keys()),
            ("comp", x.table.comp, back.table.comp),
            ("plus", x.plus, back.plus),
        ]
    elif isinstance(x, OrderedConstellation):
        back = build_C(build_G(x))
        fields = [
            ("carrier", x.carrier, back.carrier),
            ("defined", x.table.comp.keys(), back.table.comp.keys()),
            ("comp", x.table.comp, back.table.comp),
            ("plus", x.plus, back.plus),
            ("order", x.order, back.order),
        ]
    else:
        raise TypeError(f"unsupported structure {type(x).__name__}")
    mismatches = tuple(name for name, old, new in fields if old != new)
    return RoundTripReport(not mismatches, mismatches)
