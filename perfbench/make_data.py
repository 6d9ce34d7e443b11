"""Record the benchmark's inputs and known answers from the program.

Run once, at the commit whose answers become the reference:

    python3 perfbench/make_data.py

It writes perfbench/data/seed_commit.json.  Headline answers that are known
independently of the code (census counts, battery lines, tower sizes) are
asserted here before anything is written; the rest (classification digest,
violated-axiom digests of mutants) is recorded as the regression reference.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from constella import enumerate as enum, fixtures, functor, io, szendrei  # noqa: E402

import mutants  # noqa: E402
import workloads  # noqa: E402

BATTERY_LINES = [
    "PASS fixture-validation  (all structures valid)",
    "PASS classification-golden  (verdicts match)",
    "PASS roundtrip  (300 round trips)",
    "PASS morphism-bijection  (149 pairs)",
    "PASS szendrei-coherence  (all fixtures)",
    "PASS universal-property  (172 preradiants extended, 172 radiants restricted)",
    "PASS section7-equivalences  (150 structures)",
    "PASS census-bijectivity  (1:1 2:9 3:130)",
]


def verdict_of(text):
    try:
        report = io.parse_structure(text).validate()
    except io.ParseError:
        return mutants.PARSE_ERROR
    return ",".join(sorted(report.axioms()))


def interned(verdicts):
    table = sorted(set(verdicts))
    pos = {v: i for i, v in enumerate(table)}
    return table, [pos[v] for v in verdicts]


def big_structures():
    fx = fixtures.all_fixtures()
    sz_ex6_7 = szendrei.expand_constellation(functor.build_C(fx["ex6_7"]))
    # Serializing Sz(Sz(T)) directly fails on nested element labels, so the
    # inner expansion is relabelled through its text form first.
    sz_ex6_6 = io.parse_structure(io.serialize_structure(
        szendrei.expand_constellation(functor.build_C(fx["ex6_6"]))))
    sz2_ex6_6 = szendrei.expand_constellation(sz_ex6_6)
    out = {}
    for name, s in (("sz_ex6_7", sz_ex6_7), ("sz2_ex6_6", sz2_ex6_6)):
        text = io.serialize_structure(s)
        st = mutants.parse_text(text)
        verdicts = [verdict_of(mutants.render_text(mutants.apply_edit(st, e)))
                    for e in mutants.edits(st)]
        table, index = interned(verdicts)
        out[name] = {"text": text, "verdicts": table, "index": index}
    return out


def tower_bases(lic3):
    """The first n = 3 structure of each Szendrei growth pattern."""
    by_growth = {}
    for t in lic3:
        sizes, cur = [], t
        for _ in range(3):
            cur = szendrei.expand_constellation(cur)
            sizes.append(len(cur.carrier))
        by_growth.setdefault(tuple(sizes), t)
    # The largest pattern reaches 35 elements at k = 4; stop it at 24.
    return [{"name": f"lic3-grow{sizes[-1]}", "text": io.serialize_structure(t),
             "levels": 3 if sizes[-1] > 20 else 4}
            for sizes, t in sorted(by_growth.items())]


def main():
    lrs3 = [s for n in (1, 2, 3) for s in enum.enumerate_lr_semigroupoids(n)]
    lic3 = list(enum.enumerate_li_constellations(3))
    lic = [t for n in (1, 2) for t in enum.enumerate_li_constellations(n)] + lic3
    data = {
        "census": {
            "lrs": [io.serialize_structure(s) for s in lrs3],
            "lic": [io.serialize_structure(t) for t in lic],
        },
        "big": big_structures(),
        "tower_bases": tower_bases(lic3),
    }
    clock = workloads.Clock()
    expected = {}

    battery = workloads.WORKLOADS["battery"].verdicts(None, clock)
    assert battery["lines"] == BATTERY_LINES and battery["code"] == 0, battery
    expected["battery"] = {"lines": BATTERY_LINES}

    census = workloads.WORKLOADS["census"].verdicts({"order": range(3021)}, clock)
    assert census["lrs"] == [1, 9, 130, 3021] and census["lic"] == [1, 9, 130], census
    assert census["classes"] == [25, 25] and all(census["bijection"]), census
    expected["census"] = {
        "lrs": census["lrs"],
        "lic": census["lic"],
        "classes": census["classes"],
        "flags_digest": workloads._digest([row[5:] for row in census["sweep"]]),
    }

    tw = workloads.WORKLOADS["tower"]
    rows = tw.verdicts(tw.setup(0, data), clock)
    ex6_7 = [r["sizes"] for r in rows if r["name"] == "ex6_7"]
    assert ex6_7 == [[12, 28, 30], [20, 77, 80], [30, 176, 180], [42, 352, 357]], ex6_7
    assert all(r["valid"] and r["g_valid"] and r["roundtrip"] and r["coherent"]
               for r in rows)
    expected["tower"] = {"levels": sorted(
        ({k: r[k] for k in ("name", "k", "sizes", "flags")} for r in rows),
        key=lambda r: (r["name"], r["k"]))}

    small = mutants.small_items(data["census"])
    verdicts = [verdict_of(text) for text, _ in small]
    for (_, want), got in zip(small, verdicts):
        assert (got == want) if want == mutants.PARSE_ERROR else (got == "") == want
    expected["mutants"] = {
        "small_items": len(small),
        "small_valid": sum(v == "" for v in verdicts),
        "small_digest": workloads._digest(verdicts),
    }
    data["expected"] = expected
    path = HERE / "data" / "seed_commit.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, separators=(",", ":"), sort_keys=True) + "\n")
    print(f"wrote {path}: {len(small)} small mutants, "
          f"{expected['mutants']['small_valid']} valid")


if __name__ == "__main__":
    main()
