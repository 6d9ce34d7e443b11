"""Desk-scale verification suite: every headline statement, run exhaustively.

Each check returns a TheoremResult; run_all executes the whole battery.
Census-backed checks take their size bound from the caller so the CLI can
dial the effort up or down.  Counts for the census are frozen regression
constants; see FROZEN_CENSUS_COUNTS.
"""

from functools import lru_cache
from itertools import chain, product

from . import fixtures
from .classify import (
    classify_constellation,
    classify_semigroupoid,
    derive_plus_from_inverses,
    detect_inverse_semigroupoid,
)
from .constellation import corestriction
from .core import idempotents
from .enumerate import (
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from .functor import build_C, build_G, roundtrip_check
from .morphism import enumerate_morphisms, identity_morphism
from .szendrei import (
    MeetUndefinedError,
    SzendreiElement,
    evaluate_through,
    expand_constellation,
    expand_semigroupoid,
    extend,
    generation_decomposition,
    iota,
)

__all__ = ["TheoremResult", "run_all", "FROZEN_CENSUS_COUNTS"]

# Regression constants: number of left restriction semigroupoids on n
# labeled elements.  No external ground truth exists; the values were
# computed by the in-repo enumerator and independently confirmed by (a) a
# naive full-product enumeration with the complete checker at every leaf
# and (b) the equal count of locally inductive constellations produced by
# the separate constellation-side enumerator (scripts/freeze_census.py).
# Size 4 is out of reach of (a); there build_C was also checked to be a
# bijection between the two censuses (check_census_bijectivity(4)).
FROZEN_CENSUS_COUNTS = {1: 1, 2: 9, 3: 130, 4: 3021}


class TheoremResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}" + (
            f"  ({self.detail})" if self.detail else ""
        )

    def __repr__(self):
        return f"TheoremResult({self.name!r}, {self.ok})"


@lru_cache(maxsize=None)
def _census_lrs(n):
    return tuple(enumerate_lr_semigroupoids(n, cap=max(n, 4)))


@lru_cache(maxsize=None)
def _census_lic(n):
    return tuple(enumerate_li_constellations(n, cap=max(n, 4)))


def _sizes(limit):
    return tuple(range(1, limit + 1))


def check_fixture_validation():
    """Every shipped structure passes its axioms; so does its constellation."""
    bad = []
    for name, s in fixtures.all_fixtures().items():
        if not s.validate().valid:
            bad.append(name)
            continue
        if not build_C(s).validate().valid:
            bad.append(name + ":C")
    return TheoremResult(
        "fixture-validation", not bad,
        "all structures valid" if not bad else f"failing: {bad}",
    )


GOLDEN_VERDICTS = {
    "ex6_3": {"nd": True, "lc": False, "unitary": False},
    "ex6_4": {"nd": False, "lc": False, "unitary": False},
    "ex6_5": {"nd": False, "lc": True, "unitary": True},
    "ex6_6": {"nd": True, "lc": True, "unitary": False},
    "ex6_7": {"nd": False, "lc": True, "unitary": False},
}


def check_classification_golden():
    """The nd/lc/unitary verdicts of the five showcase fixtures."""
    bad = []
    fx = fixtures.all_fixtures()
    for name, expected in GOLDEN_VERDICTS.items():
        report = classify_constellation(build_C(fx[name]))
        for field, value in expected.items():
            if getattr(report, field) != value:
                bad.append(f"{name}.{field}")
    return TheoremResult(
        "classification-golden", not bad,
        "verdicts match" if not bad else f"mismatches: {bad}",
    )


def check_roundtrip(size):
    """G(C(S)) = S and C(G(T)) = T, literally, fixtures and census; the
    converted structures must themselves pass all axioms."""
    count = 0
    for s in list(fixtures.all_fixtures().values()):
        if not roundtrip_check(s).equal or not roundtrip_check(build_C(s)).equal:
            return TheoremResult("roundtrip", False, "fixture round trip broke")
        count += 2
    for n in _sizes(size):
        for s in _census_lrs(n):
            if not roundtrip_check(s).equal:
                return TheoremResult("roundtrip", False, f"census size {n}")
            if not build_C(s).validate().valid:
                return TheoremResult("roundtrip", False,
                                     f"C output invalid at size {n}")
            count += 1
        for t in _census_lic(n):
            if not roundtrip_check(t).equal:
                return TheoremResult("roundtrip", False, f"census size {n}")
            if not build_G(t).validate().valid:
                return TheoremResult("roundtrip", False,
                                     f"G output invalid at size {n}")
            count += 1
    return TheoremResult("roundtrip", True, f"{count} round trips")


def _function_set(morphisms):
    return {m.images for m in morphisms}


def check_morphism_bijection(size):
    """Restriction morphisms = inductive radiants and premorphisms =
    preradiants, as function sets, over census pairs and fixture pairs;
    identities and composition correspond.  C(S) keeps the carrier of S,
    so maps on either side are compared by their images."""
    small = []
    for n in _sizes(min(size, 2)):
        small.extend(_census_lrs(n))
    fx = list(fixtures.lr_fixtures().values())
    constellation = {S: build_C(S) for S in chain(small, fx)}
    pairs = list(product(small, repeat=2))
    pairs.extend(product(fx, repeat=2))
    checked = 0
    rm_maps = {}
    for S1, S2 in pairs:
        C1, C2 = constellation[S1], constellation[S2]
        rm = rm_maps[S1, S2] = _function_set(enumerate_morphisms("rm", S1, S2))
        ir = _function_set(enumerate_morphisms("ir", C1, C2))
        if rm != ir:
            return TheoremResult("morphism-bijection", False,
                                 f"rm != ir on a pair ({len(rm)} vs {len(ir)})")
        pm = _function_set(enumerate_morphisms("pm", S1, S2))
        ip = _function_set(enumerate_morphisms("ip", C1, C2))
        if pm != ip:
            return TheoremResult("morphism-bijection", False,
                                 f"pm != ip on a pair ({len(pm)} vs {len(ip)})")
        if not rm <= pm:
            return TheoremResult("morphism-bijection", False,
                                 "a restriction morphism is not a premorphism")
        if S1 == S2 and identity_morphism(S1).images not in rm:
            return TheoremResult("morphism-bijection", False, "identity missing")
        checked += 1
    # composition corresponds on census triples (all in rm_maps already)
    for S1, S2, S3 in product(small, repeat=3):
        rm13 = rm_maps[S1, S3]
        for f in rm_maps[S1, S2]:
            for g in rm_maps[S2, S3]:
                if tuple([g[y] for y in f]) not in rm13:
                    return TheoremResult("morphism-bijection", False,
                                         "composition left the class")
    return TheoremResult("morphism-bijection", True, f"{checked} pairs")


def _sz_plus_elements(sz):
    return [sz.carrier[e] for e, e_plus in enumerate(sz.plus_row) if e_plus == e]


def check_szendrei_coherence():
    """C(Sz(S)) = Sz(C(S)) literally, and the closed forms for
    restriction and corestriction inside expansions, elementwise."""
    for name, s in fixtures.all_fixtures().items():
        t = build_C(s)
        sz = expand_constellation(t)
        if build_C(expand_semigroupoid(s)) != sz:
            return TheoremResult("szendrei-coherence", False, name)
        comp, t_plus, sz_plus, sz_order = t.table.comp, t.plus, sz.plus, sz.order
        # restriction closed form: (E,e)|(A,a) = (E, e|a) = (E, ea)
        for p in _sz_plus_elements(sz):
            for q in sz.carrier:
                if (p, sz_plus[q]) not in sz_order:
                    continue
                found = [r for r in sz.carrier
                         if (r, q) in sz_order and sz_plus[r] == p]
                expected = SzendreiElement(
                    p.subset, comp[(p.anchor, q.anchor)]
                )
                if found != [expected]:
                    return TheoremResult("szendrei-coherence", False,
                                         f"{name}: restriction closed form")
        # corestriction closed form:
        # (A,a)|(E,e) = ((a|e)+ A union (a|e) E, a|e) when a|e exists
        for q in sz.carrier:
            for p in _sz_plus_elements(sz):
                c_base = corestriction(t, q.anchor, p.anchor)
                c_sz = corestriction(sz, q, p)
                if not c_base.exists:
                    if c_sz.exists:
                        return TheoremResult("szendrei-coherence", False,
                                             f"{name}: spurious corestriction")
                    continue
                ae = c_base.value
                ae_plus = t_plus[ae]
                subset = {comp[(ae_plus, x)] for x in q.subset}
                subset |= {comp[(ae, y)] for y in p.subset}
                expected = SzendreiElement(subset, ae)
                if not c_sz.exists or c_sz.value != expected:
                    return TheoremResult("szendrei-coherence", False,
                                         f"{name}: corestriction closed form")
    return TheoremResult("szendrei-coherence", True, "all fixtures")


def check_universal_property(size):
    """Every enumerated preradiant extends to a unique radiant on the
    expansion; every radiant from the expansion restricts to a preradiant.
    The search tests the same axiom instances as the checkers, so a map is
    a radiant (a preradiant) exactly when it is among the enumerated ones;
    maps are compared and composed on their images."""
    small = []
    for n in _sizes(min(size, 2)):
        small.extend(_census_lic(n))
    extended = restricted = 0
    for T in small:
        sz = expand_constellation(T)
        emb = iota(T, sz).images
        terms = [generation_decomposition(sz, el) for el in sz.carrier]
        for T2 in small:
            restricting_to = {}  # the radiants restricting to each function
            for psi in _function_set(enumerate_morphisms("ir", sz, T2)):
                restricting_to.setdefault(
                    tuple([psi[y] for y in emb]), []).append(psi)
            preradiants = enumerate_morphisms("ip", T, T2)
            for phi in preradiants:
                Phi = extend(phi, sz).images
                rho = tuple([Phi[y] for y in emb])
                found = restricting_to.get(rho, ())
                if Phi not in found:
                    return TheoremResult("universal-property", False,
                                         "extension is not a radiant")
                # Phi, a radiant, restricts to phi iff rho is phi, and it
                # is unique, extensionally, when it is the only one found ...
                if rho != phi.images:
                    return TheoremResult("universal-property", False,
                                         "extension does not restrict to phi")
                if len(found) > 1:
                    return TheoremResult("universal-property", False,
                                         "extension is not unique")
                # ... and through generation witnesses
                leaves, values = phi.mapping, T2.carrier
                for term, y in zip(terms, Phi):
                    try:
                        agrees = evaluate_through(term, leaves, T2) == values[y]
                    except MeetUndefinedError:
                        agrees = False
                    if not agrees:
                        return TheoremResult("universal-property", False,
                                             "generation witness disagrees")
                extended += 1
            images = _function_set(preradiants)
            for rho, found in restricting_to.items():
                if rho not in images:
                    return TheoremResult(
                        "universal-property", False,
                        "radiant restriction is not a preradiant")
                restricted += len(found)
    return TheoremResult(
        "universal-property", True,
        f"{extended} preradiants extended, {restricted} radiants restricted",
    )


def _section7_one(s):
    c = build_C(s)
    rs = classify_semigroupoid(s)
    rc = classify_constellation(c)
    for field in ("nd", "lc", "unitary", "is_category", "is_semigroup"):
        if getattr(rs, field) != getattr(rc, field):
            return f"{field} disagrees across the correspondence"
    # semigroup: table total <=> nd + meet-semilattice <=> all corestrictions
    all_co = all(r.has_candidates for r in c.corestrictions().values())
    if rc.is_semigroup != all_co:
        return "semigroup three-way equivalence broke"
    # inverse structures: right inverses <=> inverse table with canonical plus
    inv = detect_inverse_semigroupoid(s.table)
    canonical = inv.ok and derive_plus_from_inverses(s.table, inv.inverse) == s.plus
    if rc.has_right_inverses != canonical:
        return "right-inverse correspondence broke"
    if rc.has_right_inverses:
        g = build_G(c)
        if set(idempotents(g.table)) != set(g.plus.values()):
            return "idempotents of G(T) are not exactly the plus-elements"
    # locally complete + right inverses => non-degenerate and unitary
    if rc.lc and rc.has_right_inverses and not (rc.nd and rc.unitary):
        return "locally complete right-inverse constellation not unitary"
    return None


def check_section7(size):
    """Identity-based characterizations and the inverse/category/semigroup
    detections, both sides computed independently, fixtures plus census."""
    structures = list(fixtures.all_fixtures().values())
    for n in _sizes(size):
        structures.extend(_census_lrs(n))
    for s in structures:
        problem = _section7_one(s)
        if problem:
            return TheoremResult("section7-equivalences", False, problem)
    return TheoremResult("section7-equivalences", True,
                         f"{len(structures)} structures")


def check_census_bijectivity(size):
    """Equal counts on both sides of the correspondence, frozen constants,
    and build_C a bijection between the censuses."""
    details = []
    for n in _sizes(size):
        lrs = _census_lrs(n)
        lic = _census_lic(n)
        if len(lrs) != len(lic):
            return TheoremResult("census-bijectivity", False,
                                 f"counts differ at size {n}")
        expected = FROZEN_CENSUS_COUNTS.get(n)
        if expected is not None and len(lrs) != expected:
            return TheoremResult(
                "census-bijectivity", False,
                f"size {n}: {len(lrs)} != frozen {expected}")
        images = {build_C(s) for s in lrs}
        if len(images) != len(lrs) or images != set(lic):
            return TheoremResult("census-bijectivity", False,
                                 f"C is not a bijection at size {n}")
        details.append(f"{n}:{len(lrs)}")
    return TheoremResult("census-bijectivity", True, " ".join(details))


def run_all(size=3):
    """The full battery at the given census size bound."""
    return [
        check_fixture_validation(),
        check_classification_golden(),
        check_roundtrip(size),
        check_morphism_bijection(size),
        check_szendrei_coherence(),
        check_universal_property(size),
        check_section7(size),
        check_census_bijectivity(size),
    ]
