"""Batch front-end: verify, convert, expand, classify, check morphisms,
enumerate censuses and run the theorem battery.

Exit codes: 0 success / true, 1 invalid / false, 2 usage or parse error.
Every verb is deterministic; identical inputs give byte-identical output.
The environment variable CONSTELLA_CAP overrides the guard rails: values
up to 8 set the census size cap, larger values the cap on candidate maps
and on the table cells of an expansion.
"""

import json
import os
import sys
from pathlib import Path

from .classify import classify_constellation, classify_semigroupoid
from .constellation import OrderedConstellation
from .core import LeftRestrictionSemigroupoid
from .enumerate import (
    CapExceededError,
    _check_cap,
    dedupe_up_to_iso,
    enumerate_li_constellations,
    enumerate_lr_semigroupoids,
)
from .functor import build_C, build_G, roundtrip_check
from .io import (
    ParseError,
    element_labels,
    parse_morphism_text,
    parse_structure,
    render_report,
    serialize_morphism,
    serialize_structure,
)
from .morphism import (
    MORPHISM_KINDS,
    MorphismMap,
    check_morphism,
    is_inductive_preradiant,
)
from .szendrei import expand_constellation, expand_semigroupoid, extend, iota
from .theorems import run_all

USAGE_ERROR = 2


def _load(path):
    return parse_structure(Path(path).read_text(encoding="utf-8"))


def _reported_invalid(report):
    """Print a failing report; True when it fails."""
    if not report.valid:
        sys.stdout.write(render_report(valid=False, violations=report.violations))
    return not report.valid


def cmd_verify(args):
    s = _load(args.file)
    report = s.validate()
    sys.stdout.write(render_report(valid=report.valid, violations=report.violations))
    return 0 if report.valid else 1


def cmd_convert(args):
    s = _load(args.file)
    if args.to == "constellation":
        if not isinstance(s, LeftRestrictionSemigroupoid):
            raise ParseError("convert --to constellation expects a semigroupoid file")
        if _reported_invalid(s.validate()):
            return 1
        sys.stdout.write(serialize_structure(build_C(s)))
        return 0
    if not isinstance(s, OrderedConstellation):
        raise ParseError("convert --to semigroupoid expects a constellation file")
    if _reported_invalid(s.validate()):
        return 1
    sys.stdout.write(serialize_structure(build_G(s)))
    return 0


def cmd_roundtrip(args):
    s = _load(args.file)
    if _reported_invalid(s.validate()):
        return 1
    rt = roundtrip_check(s)
    sys.stdout.write(render_report(valid=rt.equal))
    return 0 if rt.equal else 1


def cmd_expand(args):
    s = _load(args.file)
    if _reported_invalid(s.validate()):
        return 1
    if isinstance(s, LeftRestrictionSemigroupoid):
        if args.iota:
            raise ParseError("--iota applies to constellation files")
        sys.stdout.write(serialize_structure(expand_semigroupoid(s)))
        return 0
    sz = expand_constellation(s)
    sys.stdout.write(serialize_structure(sz))
    if args.iota:
        labels = element_labels(sz.carrier)
        mapping = iota(s, sz).mapping
        sys.stdout.write("\n")
        sys.stdout.write(
            serialize_morphism(
                args.file,
                "-",
                {x: labels[y] for x, y in mapping.items()},
                s.carrier,
                comment="embedding into the expansion printed above",
            )
        )
    return 0


def _load_morphism(path):
    base = Path(path).parent

    def load(ref):
        return _load(ref if os.path.isabs(ref) else base / ref)

    text = Path(path).read_text(encoding="utf-8")
    return parse_morphism_text(text, load)


def cmd_extend(args):
    src_path, tgt_path, src, tgt, mapping = _load_morphism(args.phi)
    if not isinstance(src, OrderedConstellation) or not isinstance(
        tgt, OrderedConstellation
    ):
        raise ParseError("extend expects a morphism between constellation files")
    if _reported_invalid(src.validate()) or _reported_invalid(tgt.validate()):
        return 1
    phi = MorphismMap(src, tgt, mapping)
    if _reported_invalid(is_inductive_preradiant(phi)):
        return 1
    sz = expand_constellation(src)
    sys.stdout.write(
        serialize_morphism(
            src_path,
            tgt_path,
            extend(phi, sz).mapping,
            sz.carrier,
            labels=element_labels(sz.carrier),
            comment="radiant on the expansion of the source file",
        )
    )
    return 0


def cmd_classify(args):
    s = _load(args.file)
    if _reported_invalid(s.validate()):
        return 1
    if isinstance(s, LeftRestrictionSemigroupoid):
        c = classify_semigroupoid(s)
    else:
        c = classify_constellation(s)
    doc = dict(c.flags())
    doc["witnesses"] = {
        key: [w if isinstance(w, str) else str(w) for w in value]
        for key, value in sorted(c.witnesses.items())
    }
    sys.stdout.write(render_report(valid=True, classification=doc))
    return 0


def cmd_check_morphism(args):
    cls, _ = MORPHISM_KINDS[args.kind]
    _, _, src, tgt, mapping = _load_morphism(args.file)
    if not (isinstance(src, cls) and isinstance(tgt, cls)):
        raise ParseError(
            f"check-morphism --kind {args.kind} expects "
            f"{'semigroupoid' if cls is LeftRestrictionSemigroupoid else 'constellation'} files"
        )
    report = check_morphism(args.kind, MorphismMap(src, tgt, mapping))
    sys.stdout.write(render_report(valid=report.valid, violations=report.violations))
    return 0 if report.valid else 1


def _record(structure):
    labels = element_labels(structure.carrier)
    doc = {
        "kind": "semigroupoid"
        if isinstance(structure, LeftRestrictionSemigroupoid)
        else "constellation",
        "elements": sorted(labels.values()),
        "plus": sorted(
            [labels[a], labels[b]] for a, b in structure.plus.items()
        ),
        "comp": sorted(
            [labels[a], labels[b], labels[c]]
            for (a, b), c in structure.table.comp.items()
        ),
    }
    if isinstance(structure, OrderedConstellation):
        doc["order"] = sorted(
            [labels[a], labels[b]] for a, b in structure.order if a != b
        )
    return json.dumps(doc, sort_keys=False)


def _check_size(args):
    if args.size < 1:
        raise ParseError("--size must be at least 1")


def cmd_enumerate(args):
    _check_size(args)
    gen = (
        enumerate_lr_semigroupoids
        if args.kind == "lrs"
        else enumerate_li_constellations
    )
    # a stream; the generators check the cap on their first next
    structures = gen(args.size)
    if args.up_to_iso:
        structures = dedupe_up_to_iso(structures)
    if args.count_only:
        count = sum(1 for _ in structures)
        counts = {"kind": args.kind, "size": args.size, "count": count}
        if args.up_to_iso:
            counts["up_to_iso"] = True
        sys.stdout.write(render_report(valid=True, counts=counts))
        return 0
    for s in structures:
        sys.stdout.write(_record(s) + "\n")
    return 0


def cmd_theorems(args):
    _check_size(args)
    _check_cap(args.size, None)
    results = run_all(args.size)
    for r in results:
        sys.stdout.write(r.line() + "\n")
    return 0 if all(r.ok for r in results) else 1


def _parser():
    import argparse  # here, so that importing the package leaves it out

    p = argparse.ArgumentParser(
        prog="constella",
        description="finite workbench for restriction semigroupoids and constellations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("verify", help="run all applicable axiom checkers")
    q.add_argument("file")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("convert", help="apply the object constructions")
    q.add_argument("--to", required=True, choices=["constellation", "semigroupoid"])
    q.add_argument("file")
    q.set_defaults(func=cmd_convert)

    q = sub.add_parser("roundtrip", help="assert double conversion is the identity")
    q.add_argument("file")
    q.set_defaults(func=cmd_roundtrip)

    q = sub.add_parser("expand", help="Szendrei expansion")
    q.add_argument("--iota", action="store_true",
                   help="also print the embedding as a morphism file")
    q.add_argument("file")
    q.set_defaults(func=cmd_expand)

    q = sub.add_parser("extend", help="extend a preradiant over the expansion")
    q.add_argument("--phi", required=True, metavar="MORPHISM_FILE")
    q.set_defaults(func=cmd_extend)

    q = sub.add_parser("classify", help="print the classification report")
    q.add_argument("file")
    q.set_defaults(func=cmd_classify)

    q = sub.add_parser("check-morphism", help="run one morphism checker")
    q.add_argument("--kind", required=True, choices=sorted(MORPHISM_KINDS))
    q.add_argument("file")
    q.set_defaults(func=cmd_check_morphism)

    q = sub.add_parser("enumerate", help="census of structures on n labels")
    q.add_argument("--kind", required=True, choices=["lrs", "lic"])
    q.add_argument("--size", required=True, type=int)
    q.add_argument("--count-only", action="store_true")
    q.add_argument("--up-to-iso", action="store_true")
    q.set_defaults(func=cmd_enumerate)

    q = sub.add_parser("theorems", help="run the desk-scale theorem battery")
    q.add_argument("--size", type=int, default=3)
    q.set_defaults(func=cmd_theorems)

    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does: that ends the
        # output, not the run.  Stdout goes to devnull so that the flush at
        # interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ParseError, OSError, UnicodeDecodeError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
