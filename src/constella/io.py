"""Text formats and machine-readable reports.

Structure files are UTF-8 and line oriented; ``#`` starts a comment and
tokens are whitespace separated::

    kind semigroupoid | constellation
    elements a b c
    plus a e            # one line per element
    comp a b c          # a*b = c; absence means undefined
    order a b           # constellation only; reflexive pairs implied

Serialization is canonical (sorted elements, sorted lines, transitively
reduced order) so files are byte-stable and good for golden tests.
"""

import json
import re

from .constellation import OrderedConstellation
from .core import LeftRestrictionSemigroupoid, PartialTable

__all__ = [
    "ParseError",
    "parse_structure",
    "serialize_structure",
    "parse_morphism_text",
    "serialize_morphism",
    "render_report",
    "element_labels",
]

_ID = re.compile(r"[A-Za-z0-9_+']+\Z")


class ParseError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        where = "" if line is None else f"line {line}: "
        super().__init__(f"{where}{message}")


def _tokenize(text):
    """(line number, tokens) for each line that has tokens."""
    numbered = enumerate(text.splitlines(), start=1)
    return [(i, tokens) for i, raw in numbered
            if (tokens := raw.split("#", 1)[0].split())]


def parse_structure(text):
    """Parse a structure file into a semigroupoid or a constellation.

    Returns a LeftRestrictionSemigroupoid or an OrderedConstellation.  For
    constellations the stored order is the reflexive-transitive closure of
    the order lines.
    """
    lines = _tokenize(text)
    if not lines:
        raise ParseError("empty file")
    ln, head = lines[0]
    if head[0] != "kind" or len(head) != 2 or head[1] not in (
        "semigroupoid",
        "constellation",
    ):
        raise ParseError("expected 'kind semigroupoid|constellation'", ln)
    kind = head[1]

    elements = None
    elements_ln = None
    plus = {}
    comp = {}
    order = []

    for ln, tokens in lines[1:]:
        tag, rest = tokens[0], tokens[1:]
        if tag == "elements":
            if elements is not None:
                raise ParseError("duplicate elements line", ln)
            if not rest:
                raise ParseError("empty elements list", ln)
            for el in rest:
                if not _ID.match(el):
                    raise ParseError(f"bad element id {el!r}", ln)
            if len(set(rest)) != len(rest):
                raise ParseError("repeated element id", ln)
            elements, elements_ln = rest, ln
        elif tag == "plus":
            if len(rest) != 2:
                raise ParseError("plus expects two tokens", ln)
            if rest[0] in plus:
                raise ParseError(f"duplicate plus line for {rest[0]!r}", ln)
            plus[rest[0]] = (rest[1], ln)
        elif tag == "comp":
            if len(rest) != 3:
                raise ParseError("comp expects three tokens", ln)
            key = (rest[0], rest[1])
            if key in comp:
                raise ParseError(f"duplicate comp line for {key!r}", ln)
            comp[key] = (rest[2], ln)
        elif tag == "order":
            if kind == "semigroupoid":
                raise ParseError("order lines are not allowed for kind semigroupoid", ln)
            if len(rest) != 2:
                raise ParseError("order expects two tokens", ln)
            order.append((rest[0], rest[1], ln))
        else:
            raise ParseError(f"unknown directive {tag!r}", ln)

    if elements is None:
        raise ParseError("missing elements line")
    members = set(elements)

    def unknown(ln, *els):
        bad = next(el for el in els if el not in members)
        return ParseError(f"unknown element {bad!r}", ln)

    for el, (val, ln) in plus.items():
        if el not in members or val not in members:
            raise unknown(ln, el, val)
    # every plus key is known, so plus is total when it has as many keys
    if len(plus) != len(members):
        missing = next(el for el in elements if el not in plus)
        raise ParseError(f"missing plus line for {missing!r}", elements_ln)
    for (a, b), (c, ln) in comp.items():
        if a not in members or b not in members or c not in members:
            raise unknown(ln, a, b, c)
    for a, b, ln in order:
        if a not in members or b not in members:
            raise unknown(ln, a, b)

    carrier = tuple(sorted(elements))
    table = PartialTable(carrier, {k: v for k, (v, _) in comp.items()})
    plus_map = {k: v for k, (v, _) in plus.items()}

    if kind == "semigroupoid":
        return LeftRestrictionSemigroupoid(table, plus_map)

    above = _reachable([(a, b) for a, b, _ in order], carrier)
    cycles = [(a, b) for a in carrier for b in above[a]
              if b != a and a in above[b]]
    if cycles:
        # the first pair in carrier order, which is sorted
        a, b = min(cycles)
        raise ParseError("order is not a partial order: "
                         f"cycle through {a!r} and {b!r}")
    closed = frozenset((a, b) for a in carrier for b in above[a])
    return OrderedConstellation._trusted(table, plus_map, closed)


def _reachable(pairs, carrier):
    """{a: the set of b with (a, b) in the reflexive-transitive closure of
    pairs}, one search along the successor lists from each element."""
    successors = {a: [] for a in carrier}
    for a, b in pairs:
        successors[a].append(b)
    above = {}
    for a in carrier:
        seen = {a}
        todo = [a]
        while todo:
            for b in successors[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        above[a] = seen
    return above


def _transitive_reduction(order):
    strict = {(a, b) for a, b in order if a != b}
    reduced = set()
    for a, b in strict:
        if not any((a, z) in strict and (z, b) in strict for z in
                   {p[1] for p in strict if p[0] == a}):
            reduced.add((a, b))
    return reduced


def element_labels(carrier):
    """Printable ids for carrier elements; non-string carriers get z0, z1...

    Non-string elements render via str() when that yields a valid, unique
    id (the expansion labels are built to).  Returns an ordered dict.
    """
    labels = {}
    used = set()
    fallback = False
    for el in carrier:
        text = el if isinstance(el, str) else str(el)
        if not _ID.match(text) or text in used:
            fallback = True
            break
        labels[el] = text
        used.add(text)
    if fallback:
        labels = {el: f"z{i}" for i, el in enumerate(carrier)}
    return labels


def serialize_structure(s):
    """Canonical text form; inverse of parse_structure on canonical files."""
    if isinstance(s, LeftRestrictionSemigroupoid):
        kind, order = "semigroupoid", None
    elif isinstance(s, OrderedConstellation):
        kind, order = "constellation", s.order
    else:
        raise TypeError(f"unsupported structure {type(s).__name__}")
    labels = element_labels(s.carrier)
    names = sorted(labels.values())
    lines = [f"kind {kind}", "elements " + " ".join(names)]
    for el in sorted(s.carrier, key=lambda e: labels[e]):
        lines.append(f"plus {labels[el]} {labels[s.plus[el]]}")
    comp_lines = sorted(
        f"comp {labels[a]} {labels[b]} {labels[c]}"
        for (a, b), c in s.table.comp.items()
    )
    lines.extend(comp_lines)
    if order is not None:
        order_lines = sorted(
            f"order {labels[a]} {labels[b]}"
            for a, b in _transitive_reduction(order)
        )
        lines.extend(order_lines)
    return "\n".join(lines) + "\n"


def parse_morphism_text(text, load):
    """Parse a morphism file; ``load(path)`` supplies the referenced structures.

    Returns (source_path, target_path, source, target, mapping).
    """
    source = target = None
    mapping = {}
    for ln, tokens in _tokenize(text):
        tag, rest = tokens[0], tokens[1:]
        if tag == "source":
            if len(rest) != 1 or source is not None:
                raise ParseError("bad source line", ln)
            source = rest[0]
        elif tag == "target":
            if len(rest) != 1 or target is not None:
                raise ParseError("bad target line", ln)
            target = rest[0]
        elif tag == "map":
            if len(rest) != 2:
                raise ParseError("map expects two tokens", ln)
            if rest[0] in mapping:
                raise ParseError(f"duplicate map line for {rest[0]!r}", ln)
            mapping[rest[0]] = rest[1]
        else:
            raise ParseError(f"unknown directive {tag!r}", ln)
    if source is None or target is None:
        raise ParseError("morphism file needs source and target lines")
    src = load(source)
    tgt = load(target)
    missing = [el for el in src.carrier if el not in mapping]
    if missing:
        raise ParseError(f"map not total, missing {missing[0]!r}")
    extra = [el for el in mapping if el not in src.carrier]
    if extra:
        raise ParseError(f"map key {extra[0]!r} not in source carrier")
    bad = [v for v in mapping.values() if v not in set(tgt.carrier)]
    if bad:
        raise ParseError(f"map value {bad[0]!r} not in target carrier")
    return source, target, src, tgt, mapping


def serialize_morphism(source_path, target_path, mapping, source_carrier,
                       labels=None, comment=None):
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"source {source_path}")
    lines.append(f"target {target_path}")
    labels = labels or {}
    for el in source_carrier:
        key = labels.get(el, el if isinstance(el, str) else str(el))
        val = mapping[el]
        val = val if isinstance(val, str) else str(val)
        lines.append(f"map {key} {val}")
    return "\n".join(lines) + "\n"


def _witness_text(witness):
    return [w if isinstance(w, str) else str(w) for w in witness]


# json's C string quoter, the one json.dumps uses for ensure_ascii output
_quote = json.encoder.encode_basestring_ascii


def _violation_entry(v):
    """One violation as json.dumps(indent=2) writes it in the report."""
    items = ",\n        ".join(map(_quote, _witness_text(v.witness)))
    witness = f"[\n        {items}\n      ]" if items else "[]"
    return (f'    {{\n      "axiom": {_quote(v.axiom)},\n'
            f'      "witness": {witness}\n    }}')


def _nested(doc):
    """json.dumps(doc, indent=2) one level down."""
    return json.dumps(doc, indent=2).replace("\n", "\n  ") if doc else "{}"


def render_report(valid=None, violations=None, classification=None,
                  counts=None):
    """Stable-keyed JSON document for CLI output and golden tests.

    The text is json.dumps(doc, indent=2) of the document with the keys
    valid (a bool, left out when None), violations (sorted, each an axiom
    and its witness as strings), classification and counts.  The
    violations are written directly, because json writes indented output
    with its pure-Python encoder, which costs as much as validating a small
    structure.
    """
    entries = sorted(violations or (),
                     key=lambda v: (v.axiom, repr(v.witness)))
    listed = ",\n".join(map(_violation_entry, entries))
    parts = ["{\n"]
    if valid is not None:
        parts.append(f'  "valid": {"true" if valid else "false"},\n')
    parts.append(f'  "violations": [\n{listed}\n  ],\n' if listed
                 else '  "violations": [],\n')
    parts.append(f'  "classification": {_nested(classification)},\n')
    parts.append(f'  "counts": {_nested(counts)}\n}}\n')
    return "".join(parts)
