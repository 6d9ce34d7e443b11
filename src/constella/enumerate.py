"""Exhaustive generation of all valid structures on small carriers.

Tables are generated by choosing a defined-pair subset D, then assigning
values depth-first.  Each defined pair ab draws its value only from the v
with Ldom(v) = Ldom(a) and Rdom(b) a subset of Rdom(v), which s1-s3 and
c1/c2 both impose (a D with an empty choice is skipped).  After each
assignment the reporting checker's own violation generator (s1-s3, or
c1/c2 on the constellation side) runs on the rows of instances that read
the new value, and the branch is cut at its first violation (core.holds):
on a partial table the generators report only instances that are already
broken, and on a complete one exactly the failing instances, so every
other instance still holds.  The stream is exactly the set of valid
structures, in a deterministic order and duplicate-free.

Each table is paired only with plus maps that draw x+ from {e : ex = x},
a condition both lr1 and c3 impose.  The remaining axioms are decided by
the same generators the reporting checkers collect, stopped at the first
violation.
"""

import os
from itertools import product

from .constellation import (
    OrderedConstellation,
    _c12_violations,
    _c34_violations,
    _li_violations,
)
from .core import (
    LeftRestrictionSemigroupoid,
    PartialTable,
    _check_partial_order,
    _lr_violations,
    _s_violations,
    holds,
)

__all__ = [
    "CapExceededError",
    "DEFAULT_SIZE_CAP",
    "cap_from_env",
    "carrier_labels",
    "all_partial_orders",
    "enumerate_semigroupoids",
    "enumerate_lr_semigroupoids",
    "enumerate_li_constellations",
    "are_isomorphic",
    "dedupe_up_to_iso",
]

DEFAULT_SIZE_CAP = 4


class CapExceededError(RuntimeError):
    """A size or candidate count above its cap, or an unreadable cap."""


def cap_from_env():
    """The integer value of CONSTELLA_CAP, or None when it is unset."""
    raw = os.environ.get("CONSTELLA_CAP")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise CapExceededError(
            f"CONSTELLA_CAP must be an integer, got {raw!r}") from None


def size_cap_from_env(default=DEFAULT_SIZE_CAP):
    """CONSTELLA_CAP values up to 8 act as the census size cap."""
    value = cap_from_env()
    return value if value is not None and value <= 8 else default


def carrier_labels(n):
    return tuple(str(i) for i in range(n))


def _check_cap(n, cap):
    if cap is None:
        cap = size_cap_from_env()
    if n < 1:
        raise ValueError("carrier size must be at least 1")
    if n > cap:
        raise CapExceededError(f"size {n} exceeds cap {cap}")


def _tables(carrier, violations):
    """All tables on the carrier on which the generator violations(carrier,
    D, comp, rows) yields nothing, in mask order and then in carrier order
    of the values.

    Each defined pair takes its values from _value_choices, and a mask in
    which some pair has none is skipped.  After each assigned value the
    generator runs on the rows that read it (_reading_rows), and a branch is
    cut at its first violation.  This is exact: every instance held before
    the assignment, and only those reading the new value can change.  The
    empty table is not checked, as no instance triggers on it.
    """
    pairs = sorted(product(carrier, repeat=2))
    n_pairs = len(pairs)
    for mask in range(1 << n_pairs):
        defined = [pairs[i] for i in range(n_pairs) if mask >> i & 1]
        choices = _value_choices(carrier, defined)
        if choices is None:
            continue
        D = frozenset(defined)
        comp = {}

        def assign(i):
            if i == len(defined):
                yield PartialTable(carrier, comp)
                return
            key = a, b = defined[i]
            for value in choices[i]:
                comp[key] = value
                rows = _reading_rows(carrier, comp, a, b)
                if holds(violations(carrier, D, comp, rows)):
                    yield from assign(i + 1)
            del comp[key]

        yield from assign(0)


def _value_choices(carrier, defined):
    """For each defined pair (a, b), in order, the values v in carrier order
    with Ldom(v) = Ldom(a) and Rdom(b) a subset of Rdom(v); None when some
    pair has no such value.

    Ldom(v) = {s : sv defined} and Rdom(v) = {r : vr defined}.  Both
    s1-s3 and c1/c2 impose this on v = ab: an s with sa defined has s(ab)
    defined and conversely (s1, s3; c1), and an r with br defined has
    (ab)r defined (s1; c2).
    """
    ldom = {v: set() for v in carrier}
    rdom = {v: set() for v in carrier}
    for s, x in defined:
        ldom[x].add(s)
        rdom[s].add(x)
    choices = []
    for a, b in defined:
        values = [v for v in carrier
                  if ldom[v] == ldom[a] and rdom[b] <= rdom[v]]
        if not values:
            return None
        choices.append(values)
    return choices


def _reading_rows(carrier, comp, a, b):
    """The rows (s, x, rs) of the instances (s, x, r) whose verdict reads
    comp[(a, b)]: as sx in (a, b, r), as xr in (s, a, b), as (sx)r in
    (s, x, b) with sx = a, and as s(xr) in (a, x, r) with xr = b."""
    yield a, b, carrier
    only_b = (b,)
    for s in carrier:
        yield s, a, only_b
    for (s, x), value in comp.items():
        if value == a:
            yield s, x, only_b
    for x in carrier:
        rs = [r for r in carrier if comp.get((x, r)) == b]
        if rs:
            yield a, x, rs


def _plus_maps(table):
    """Plus maps with every x+ drawn from {e : ex = x}, in the lexicographic
    order of the full n^n product.

    ex = x is necessary for e = x+: it is lr1 on the semigroupoid side and
    one direction of c3 on the constellation side.
    """
    comp, carrier = table.comp, table.carrier
    choices = [[e for e in carrier if comp.get((e, x)) == x] for x in carrier]
    for images in product(*choices):
        yield dict(zip(carrier, images))


def enumerate_semigroupoids(n, cap=None):
    """All partial tables on n labels satisfying closure-associativity."""
    _check_cap(n, cap)
    yield from _tables(carrier_labels(n), _s_violations)


def enumerate_lr_semigroupoids(n, cap=None):
    """All left restriction semigroupoids on n labels."""
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    for table in _tables(carrier, _s_violations):
        for plus in _plus_maps(table):
            if holds(_lr_violations(table, plus)):
                yield LeftRestrictionSemigroupoid(table, plus)


def all_partial_orders(carrier):
    """Every partial order on the carrier, as frozensets of pairs."""
    carrier = tuple(carrier)
    reflexive = {(a, a) for a in carrier}
    strict = sorted(
        (a, b) for a, b in product(carrier, repeat=2) if a != b
    )
    orders = []
    for mask in range(1 << len(strict)):
        chosen = {strict[i] for i in range(len(strict)) if mask >> i & 1}
        order = frozenset(chosen | reflexive)
        if _check_partial_order(order, carrier) is None:
            orders.append(order)
    return orders


def enumerate_li_constellations(n, cap=None):
    """All locally inductive ordered constellations on n labels.

    Generated directly from the constellation axioms, independently of the
    semigroupoid census, so the two counts can serve as oracles for each
    other.
    """
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    orders = all_partial_orders(carrier)
    for table in _tables(carrier, _c12_violations):
        for plus in _plus_maps(table):
            if not holds(_c34_violations(table, plus)):
                continue
            for order in orders:
                t = OrderedConstellation(table, plus, order)
                if holds(_li_violations(t)):
                    yield t


def _permutations(src, dst):
    from itertools import permutations

    for image in permutations(dst):
        yield dict(zip(src, image))


def relabel(structure, mapping, carrier):
    """Copy of the structure with elements renamed by mapping."""
    table = PartialTable(
        carrier,
        {(mapping[a], mapping[b]): mapping[c]
         for (a, b), c in structure.table.comp.items()},
    )
    plus = {mapping[a]: mapping[b] for a, b in structure.plus.items()}
    if isinstance(structure, OrderedConstellation):
        order = frozenset((mapping[a], mapping[b]) for a, b in structure.order)
        return OrderedConstellation(table, plus, order)
    return LeftRestrictionSemigroupoid(table, plus)


def are_isomorphic(a, b):
    """Permutation search respecting comp, plus, definedness (and order).

    Returns (True, mapping) or (False, None).
    """
    if type(a) is not type(b):
        return False, None
    if len(a.carrier) != len(b.carrier):
        return False, None
    if len(a.carrier) > 8:
        raise CapExceededError("isomorphism search capped at 8 elements")
    for perm in _permutations(a.carrier, b.carrier):
        if relabel(a, perm, b.carrier) == b:
            return True, perm
    return False, None


def dedupe_up_to_iso(structures):
    """Deterministic list of isomorphism-class representatives."""
    reps = []
    for s in structures:
        if not any(are_isomorphic(s, r)[0] for r in reps):
            reps.append(s)
    return reps
