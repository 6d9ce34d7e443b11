"""Exhaustive generation of all valid structures on small carriers.

Tables are generated by choosing a defined-pair subset, then assigning
values depth-first with a conservative three-valued axiom check after each
assignment; a branch is cut as soon as some instance of the axioms is
definitely violated.  The leaf check is complete, so the stream is exactly
the set of valid structures, in a deterministic order and duplicate-free.
"""

import os
from itertools import product

from .constellation import OrderedConstellation, check_locally_inductive
from .core import LeftRestrictionSemigroupoid, PartialTable

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


def _no_assoc_violation(carrier, D, comp):
    """Conservative check of the closure-associativity on a partial table.

    Memberships are fully known (D is fixed); values may be unassigned.
    Returns False only when some triggered triple can no longer be repaired.
    """
    for s, t, r in product(carrier, repeat=3):
        st = comp.get((s, t))
        tr = comp.get((t, r))
        trig = ((s, t) in D and (t, r) in D) \
            or (st is not None and (st, r) in D) \
            or (tr is not None and (s, tr) in D)
        if not trig:
            continue
        if (s, t) not in D or (t, r) not in D:
            return False
        if st is not None and (st, r) not in D:
            return False
        if tr is not None and (s, tr) not in D:
            return False
        if st is not None and tr is not None:
            v1, v2 = comp.get((st, r)), comp.get((s, tr))
            if v1 is not None and v2 is not None and v1 != v2:
                return False
    return True


def _no_c12_violation(carrier, D, comp):
    """Same idea for the constellation laws c1 and c2."""
    for x, y, z in product(carrier, repeat=3):
        xy = comp.get((x, y))
        yz = comp.get((y, z))
        if (x, y) in D and (y, z) in D:
            if yz is not None and (x, yz) not in D:
                return False
            if xy is not None and (xy, z) not in D:
                return False
            if xy is not None and yz is not None:
                v1, v2 = comp.get((xy, z)), comp.get((x, yz))
                if v1 is not None and v2 is not None and v1 != v2:
                    return False
        elif yz is not None and (x, yz) in D:
            return False
    return True


def _tables(carrier, partial_check):
    """All tables on the carrier whose completed form passes partial_check."""
    pairs = sorted(product(carrier, repeat=2))
    n_pairs = len(pairs)
    for mask in range(1 << n_pairs):
        defined = [pairs[i] for i in range(n_pairs) if mask >> i & 1]
        D = frozenset(defined)
        comp = {}

        def assign(i):
            if i == len(defined):
                yield PartialTable(carrier, comp)
                return
            key = defined[i]
            for value in carrier:
                comp[key] = value
                if partial_check(carrier, D, comp):
                    yield from assign(i + 1)
            del comp[key]

        if partial_check(carrier, D, comp):
            yield from assign(0)


def _plus_maps(carrier):
    for images in product(carrier, repeat=len(carrier)):
        yield dict(zip(carrier, images))


def _passes_lr(table, plus):
    comp = table.comp
    D = table.defined
    for s in table.carrier:
        if comp.get((plus[s], s)) != s:
            return False
    image = sorted(set(plus.values()))
    for e in image:
        for f in image:
            d1, d2 = (e, f) in D, (f, e) in D
            if d1 != d2 or (d1 and comp[(e, f)] != comp[(f, e)]):
                return False
    for e in image:
        for s in table.carrier:
            if (e, s) in D:
                rhs = comp.get((e, plus[s]))
                if rhs is None or plus[comp[(e, s)]] != rhs:
                    return False
    for (s, x) in D:
        st = comp[(s, x)]
        lhs = comp.get((s, plus[x]))
        if lhs is None or comp.get((plus[st], s)) != lhs:
            return False
    return True


def _passes_c34(table, plus):
    comp = table.comp
    D = table.defined
    image = set(plus.values())
    for e in image:
        for x in table.carrier:
            if (comp.get((e, x)) == x) != (e == plus[x]):
                return False
            if (x, e) in D and comp[(x, e)] != x:
                return False
    return True


def enumerate_semigroupoids(n, cap=None):
    """All partial tables on n labels satisfying closure-associativity."""
    _check_cap(n, cap)
    yield from _tables(carrier_labels(n), _no_assoc_violation)


def enumerate_lr_semigroupoids(n, cap=None):
    """All left restriction semigroupoids on n labels."""
    _check_cap(n, cap)
    carrier = carrier_labels(n)
    for table in _tables(carrier, _no_assoc_violation):
        for plus in _plus_maps(carrier):
            if _passes_lr(table, plus):
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
        ok = True
        for a, b in chosen:
            if (b, a) in chosen:
                ok = False
                break
        if not ok:
            continue
        for a, b in chosen:
            for c, d in chosen:
                if b == c and (a, d) not in chosen:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            orders.append(frozenset(chosen | reflexive))
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
    for table in _tables(carrier, _no_c12_violation):
        for plus in _plus_maps(carrier):
            if not _passes_c34(table, plus):
                continue
            for order in orders:
                t = OrderedConstellation(table, plus, order)
                if check_locally_inductive(t).valid:
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
