"""Finite groups as left restriction semigroupoids, for the expansion
family whose sizes have closed forms (Szendrei 1989).

A group is a one-object structure whose plus sends every element to the
identity.  No workload of the CLI reads this module; the tests check the
expansions of these groups against their closed forms.
"""

from .core import LeftRestrictionSemigroupoid, PartialTable

__all__ = ["cyclic_group", "symmetric_group_3"]


def _group(elements, product, identity):
    """The group on elements, product(g, h) the label of gh, as an lrs with
    x+ the identity."""
    comp = {(g, h): product(g, h) for g in elements for h in elements}
    return LeftRestrictionSemigroupoid(
        PartialTable(elements, comp), dict.fromkeys(elements, identity))


def cyclic_group(n):
    """Z_n on the labels 0..n-1, with x+ = 0."""
    labels = [str(k) for k in range(n)]
    return _group(labels, lambda g, h: str((int(g) + int(h)) % n), "0")


def symmetric_group_3():
    """S_3 as the permutations of 012, each written as its images of 0, 1
    and 2, composed right to left ((gh)(i) = g(h(i))), with x+ = 012."""
    labels = ["012", "021", "102", "120", "201", "210"]
    return _group(labels, lambda g, h: "".join(g[int(i)] for i in h), "012")
