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

from .coded import _le_rows, _positions, _table_rows
from .constellation import OrderedConstellation
from .core import LeftRestrictionSemigroupoid, PartialTable, _from_rows

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
    the order lines.  Every line is checked here, so the structure is
    stored from rows built on the checked tokens (_from_rows).
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
    position = _positions(carrier)
    table = _from_rows(PartialTable, carrier, _table_rows(len(carrier), [
        ((position[a], position[b]), position[c])
        for (a, b), (c, _) in comp.items()]))
    plus_row = tuple([position[plus[x][0]] for x in carrier])

    if kind == "semigroupoid":
        return _from_rows(LeftRestrictionSemigroupoid, table, plus_row)

    above = _reachable([(position[a], position[b]) for a, b, _ in order],
                       len(carrier))
    cycles = [(a, b) for a, reached in enumerate(above) for b in reached
              if b != a and a in above[b]]
    if cycles:
        # the first pair in carrier order, which is sorted
        a, b = min(cycles)
        raise ParseError("order is not a partial order: "
                         f"cycle through {carrier[a]!r} and {carrier[b]!r}")
    up = tuple([tuple(sorted(reached)) for reached in above])
    return _from_rows(OrderedConstellation, table, plus_row, up)


def _reachable(pairs, n):
    """For each a in range(n), the set of b with (a, b) in the
    reflexive-transitive closure of pairs, one search along the successor
    lists from each element."""
    successors = [[] for _ in range(n)]
    for a, b in pairs:
        successors[a].append(b)
    above = []
    for a in range(n):
        seen = {a}
        todo = [a]
        while todo:
            for b in successors[todo.pop()]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        above.append(seen)
    return above


def _covers(up):
    """The covering pairs (a, b) of an order given by its up-lists: b in
    up[a], b != a, and no z of up[a] other than a and b has z <= b."""
    le = _le_rows(up)
    return [(a, b) for a, above in enumerate(up) for b in above if b != a
            and not any(le[z][b] for z in above if z != a and z != b)]


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
        kind, up = "semigroupoid", None
    elif isinstance(s, OrderedConstellation):
        kind, up = "constellation", s.up
    else:
        raise TypeError(f"unsupported structure {type(s).__name__}")
    labels = element_labels(s.carrier)
    names = sorted(labels.values())
    lines = [f"kind {kind}", "elements " + " ".join(names)]
    plus = s.plus
    for el in sorted(s.carrier, key=lambda e: labels[e]):
        lines.append(f"plus {labels[el]} {labels[plus[el]]}")
    comp_lines = sorted(
        f"comp {labels[a]} {labels[b]} {labels[c]}"
        for (a, b), c in s.table.comp.items()
    )
    lines.extend(comp_lines)
    if up is not None:
        name = [labels[x] for x in s.carrier]
        lines.extend(sorted(f"order {name[a]} {name[b]}"
                            for a, b in _covers(up)))
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
