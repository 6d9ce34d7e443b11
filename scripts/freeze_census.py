#!/usr/bin/env python3
"""Recompute the census regression constants with two independent routes.

Prints, for each size: the count of left restriction semigroupoids from
the pruned enumerator, the same census recounted by a naive full-product
enumeration with the complete checker at every leaf, and the count of
locally inductive constellations from the separate constellation-side
enumerator.  All three must agree before a constant is frozen in
constella.theorems.FROZEN_CENSUS_COUNTS.  The isomorphism-class counts of
the two sides (lrs_classes, lic_classes) are printed after them and must
agree too, and so must the orbit-stabilizer recounts (lrs_orbit_sum,
lic_orbit_sum): the sum of n!/|Aut(s)| over the class representatives s,
which must equal the labelled counts.

The naive route visits (n+1)^(n^2) tables (every defined-pair set with
every value assignment), so above NAIVE_MAX_SIZE it is skipped with that
count printed; there the two enumerators and
constella.theorems.check_census_bijectivity (build_C a bijection between
the censuses) are the routes that must agree.
"""

import argparse
import time
from itertools import product
from math import factorial

from constella.core import (
    PartialTable,
    check_left_restriction,
    check_semigroupoid,
)
from constella.enumerate import (
    canonical_form,
    carrier_labels,
    dedupe_up_to_iso,
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)

NAIVE_MAX_SIZE = 3


def naive_lr_count(n):
    carrier = carrier_labels(n)
    pairs = sorted(product(carrier, repeat=2))
    count = 0
    for mask in range(1 << len(pairs)):
        defined = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        for values in product(carrier, repeat=len(defined)):
            table = PartialTable(carrier, dict(zip(defined, values)))
            if not check_semigroupoid(table).valid:
                continue
            for images in product(carrier, repeat=n):
                plus = dict(zip(carrier, images))
                if check_left_restriction(table, plus).valid:
                    count += 1
    return count


def orbit_sum(reps, n):
    """The sum of n!/|Aut(s)| over the class representatives, with |Aut(s)|
    counted by canonical_form."""
    return sum(factorial(n) // canonical_form(s)[2] for s in reps)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=3)
    parser.add_argument("--skip-naive", action="store_true",
                        help="skip the slow naive recount")
    args = parser.parse_args()

    for n in range(1, args.max_size + 1):
        t0 = time.time()
        lrs = list(enumerate_lr_semigroupoids(n, cap=args.max_size))
        lic = list(enumerate_li_constellations(n, cap=args.max_size))
        line = f"size {n}: lrs={len(lrs)} lic={len(lic)}"
        if n > NAIVE_MAX_SIZE:
            line += f" naive=skipped ({n + 1}^{n * n} tables)"
        elif not args.skip_naive:
            line += f" naive={naive_lr_count(n)}"
        lrs_reps, lic_reps = dedupe_up_to_iso(lrs), dedupe_up_to_iso(lic)
        line += (f" lrs_classes={len(lrs_reps)} lic_classes={len(lic_reps)}"
                 f" lrs_orbit_sum={orbit_sum(lrs_reps, n)}"
                 f" lic_orbit_sum={orbit_sum(lic_reps, n)}")
        print(line + f"  [{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
