"""The mutually inverse object constructions between the two worlds.

build_C turns a left restriction semigroupoid into an ordered constellation
(composable pairs are those with s t+ = s, order is the natural one);
build_G goes back via the pseudo-product.  Carrier labels are preserved
verbatim so the round trips are literal equalities, not isomorphisms.

Each functor is one core on the stored rows of a structure (coded.py):
_c_rows gives the composable-pair rows and the up-lists of the natural
order, constellation._pseudo_rows the pseudo-product rows.  build_C and
build_G store their core's output as it is, with the plus tuple shared;
roundtrip_check applies the two functors back to back, build_G(build_C(x))
or build_C(build_G(x)), and compares the stored rows with those of x.
"""

from .constellation import OrderedConstellation, _pseudo_rows
from .core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _from_rows,
    _natural_rows,
)

__all__ = ["build_C", "build_G", "roundtrip_check", "RoundTripReport"]


class RoundTripReport:
    __slots__ = ("equal", "mismatches")

    def __init__(self, equal, mismatches=()):
        self.equal = equal
        self.mismatches = tuple(mismatches)

    def __repr__(self):
        return f"RoundTripReport({self.equal}, {list(self.mismatches)!r})"


def _c_rows(carrier, val, plus):
    """build_C's core on a semigroupoid coded by carrier index: (comp, up),
    comp[s][t] = st where s t+ = s (else None), as a tuple of tuples, and
    the up-lists of the natural order as core._natural_rows gives them.

    Raises KeyError for a pair s, t with s t+ = s and st undefined, named
    through the carrier as a lookup of the labelled table would, and
    InvalidOrderError when the natural order is not a partial order.
    """
    comp = []
    for s, row in enumerate(val):
        out = [None] * len(row)
        for t, e in enumerate(plus):
            if row[e] == s:
                if row[t] is None:
                    raise KeyError((carrier[s], carrier[t]))
                out[t] = row[t]
        comp.append(tuple(out))
    return tuple(comp), _natural_rows(carrier, val, plus)[1]


def build_C(s):
    """Constellation on the same carrier: s . t = st when s t+ = s."""
    comp, up = _c_rows(s.carrier, s.table.rows, s.plus_row)
    # _c_rows has raised unless its order is a partial order
    return _from_rows(OrderedConstellation,
                      _from_rows(PartialTable, s.carrier, comp), s.plus_row, up)


def build_G(t):
    """Semigroupoid on the same carrier via the pseudo-product.

    x * y = (x|y+) y, defined whenever the corestriction x|y+ exists, as
    constellation._pseudo_rows gives it from the corestriction index.
    Raises KeyError for the first pair with x|y+ but no (x|y+) y, named
    through the carrier as a lookup of the labelled table would.
    """
    pseudo, missing = _pseudo_rows(t.table.rows, t.plus_row, t._index().top)
    if missing is not None:
        raise KeyError(tuple(map(t.carrier.__getitem__, missing)))
    return _from_rows(LeftRestrictionSemigroupoid,
                      _from_rows(PartialTable, t.carrier, pseudo), t.plus_row)


def roundtrip_check(x):
    """Compare a structure with its double conversion, field by field.

    The fields are carrier, defined, comp, plus and, for a constellation,
    order.  Both conversions keep the carrier and the plus map as they
    are, so only the other fields are compared, as rows coded by carrier
    index.
    """
    if isinstance(x, LeftRestrictionSemigroupoid):
        back = build_G(build_C(x))
    elif isinstance(x, OrderedConstellation):
        back = build_C(build_G(x))
    else:
        raise TypeError(f"unsupported structure {type(x).__name__}")
    rows, val = back.table.rows, x.table.rows
    defined = any((u is None) != (v is None)
                  for back_row, row in zip(rows, val)
                  for u, v in zip(back_row, row))
    fields = [("defined", defined), ("comp", rows != val)]
    if isinstance(x, OrderedConstellation):
        fields.append(("order", back.up != x.up))
    mismatches = tuple(name for name, differs in fields if differs)
    return RoundTripReport(not mismatches, mismatches)
