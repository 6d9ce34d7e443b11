"""The mutually inverse object constructions between the two worlds.

build_C turns a left restriction semigroupoid into an ordered constellation
(composable pairs are those with s t+ = s, order is the natural one);
build_G goes back via the pseudo-product.  Carrier labels are preserved
verbatim so the round trips are literal equalities, not isomorphisms.

Each functor is one core on structures coded by carrier index (coded.py):
_c_rows gives the composable-pair rows and the natural-order rows, _g_rows
the pseudo-product rows, read from the corestriction index.  build_C and
build_G label their core's output; roundtrip_check runs the two cores back
to back and compares rows, with no labelled structure in between.
"""

from .coded import (
    _coded,
    _coded_plus,
    _corestriction_index,
    _down_lists,
    _value_rows,
)
from .constellation import OrderedConstellation
from .core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _coded_structure,
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
    """build_C's core on a semigroupoid coded by carrier index: (comp, le,
    up), comp[s][t] = st where s t+ = s (else None) and the natural order
    as core._natural_rows gives it.

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
        comp.append(out)
    return (comp, *_natural_rows(carrier, val, plus))


def _g_rows(carrier, val, plus, cores):
    """build_G's core on a constellation coded by carrier index, with its
    corestriction index cores (coded._Index): the pseudo-product rows,
    x ⊗ y = (x|y+) y, None where x|y+ has no maximum.

    Raises KeyError for a pair with (x|y+) y undefined, named through the
    carrier as a lookup of the labelled table would.
    """
    top = cores.top
    pseudo = []
    for x in range(len(val)):
        out = []
        for y, e in enumerate(plus):
            m = top[e][x]
            if m is not None and val[m][y] is None:
                raise KeyError((carrier[m], carrier[y]))
            out.append(None if m is None else val[m][y])
        pseudo.append(out)
    return pseudo


def _labelled_table(carrier, rows):
    """The PartialTable of coded value rows, keyed in carrier order."""
    return PartialTable._trusted(carrier, {
        (carrier[a], carrier[b]): carrier[v]
        for a, row in enumerate(rows) for b, v in enumerate(row)
        if v is not None})


def build_C(s):
    """Constellation on the same carrier: s • t = st when s t+ = s."""
    carrier = s.carrier
    _, val, plus = _coded_structure(s)
    comp, _, up = _c_rows(carrier, val, plus)
    # _c_rows has raised unless its order is a partial order
    return OrderedConstellation._trusted(
        _labelled_table(carrier, comp), s.plus,
        [(carrier[a], carrier[b]) for a, above in enumerate(up)
         for b in above])


def build_G(t):
    """Semigroupoid on the same carrier via the pseudo-product.

    x ⊗ y = (x|y+) y, defined whenever the corestriction x|y+ exists.
    """
    cores = t._index()  # codes t only when the index is not yet built
    position = cores.position
    pseudo = _g_rows(t.carrier, _value_rows(t.table, position),
                     _coded_plus(t.carrier, t.plus, position), cores)
    return LeftRestrictionSemigroupoid(
        _labelled_table(t.carrier, pseudo), t.plus)


def roundtrip_check(x):
    """Compare a structure with its double conversion, field by field.

    The fields are carrier, defined, comp, plus and, for a constellation,
    order.  Both conversions keep the carrier and the plus map as they
    are, so only the other fields are compared, as rows coded by carrier
    index.
    """
    if isinstance(x, LeftRestrictionSemigroupoid):
        position, val, plus = _coded_structure(x)
        comp, le, up = _c_rows(x.carrier, val, plus)
        cores = _corestriction_index(position, comp, plus, le,
                                     _down_lists(up))
        back, order = _g_rows(x.carrier, comp, plus, cores), None
    elif isinstance(x, OrderedConstellation):
        rows = _coded(x)
        _, val, plus, le, _, _ = rows
        pseudo = _g_rows(x.carrier, val, plus, x._index(rows))
        back, back_le, _ = _c_rows(x.carrier, pseudo, plus)
        order = back_le != le
    else:
        raise TypeError(f"unsupported structure {type(x).__name__}")
    defined = any((u is None) != (v is None)
                  for back_row, row in zip(back, val)
                  for u, v in zip(back_row, row))
    fields = [("defined", defined), ("comp", back != val)]
    if order is not None:
        fields.append(("order", order))
    mismatches = tuple(name for name, differs in fields if differs)
    return RoundTripReport(not mismatches, mismatches)
