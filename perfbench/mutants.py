"""Single-edit mutants of structure files, built from text alone.

The harness keeps its own small model of a structure file (kind, sorted
elements, plus map, comp table, order lines) so that mutants and their
expected verdicts are produced without calling the program under test.
"""

import random
from itertools import product


def parse_text(text):
    """Read a canonical structure file into a plain dict."""
    st = {"kind": None, "elements": [], "plus": {}, "comp": {}, "order": None}
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        tag, rest = tokens[0], tokens[1:]
        if tag == "kind":
            st["kind"] = rest[0]
            if rest[0] == "constellation":
                st["order"] = set()
        elif tag == "elements":
            st["elements"] = sorted(rest)
        elif tag == "plus":
            st["plus"][rest[0]] = rest[1]
        elif tag == "comp":
            st["comp"][(rest[0], rest[1])] = rest[2]
        elif tag == "order":
            st["order"].add((rest[0], rest[1]))
    return st


def render_text(st):
    """Canonical text of a structure dict: sorted lines, as the program writes."""
    lines = [f"kind {st['kind']}", "elements " + " ".join(st["elements"])]
    lines.extend(f"plus {x} {st['plus'][x]}" for x in st["elements"])
    lines.extend(sorted(f"comp {a} {b} {c}" for (a, b), c in st["comp"].items()))
    if st["order"] is not None:
        lines.extend(sorted(f"order {a} {b}" for a, b in st["order"]))
    return "\n".join(lines) + "\n"


def closure(pairs, elements):
    """Reflexive-transitive closure of a set of pairs."""
    closed = set(pairs) | {(a, a) for a in elements}
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c, d in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return frozenset(closed)


def has_cycle(st):
    if st["order"] is None:
        return False
    closed = closure(st["order"], st["elements"])
    return any(a != b and (b, a) in closed for a, b in closed)


def key(st):
    """Identity of the structure a file denotes (order taken up to closure)."""
    order = None if st["order"] is None else closure(st["order"], st["elements"])
    return (
        st["kind"],
        tuple(st["elements"]),
        frozenset(st["plus"].items()),
        frozenset(st["comp"].items()),
        order,
    )


def edits(st):
    """Every single edit of a structure, in a fixed order.

    An edit changes one product, drops or adds one comp line, changes one
    plus value, or (constellations) drops or adds one order line.
    """
    els = st["elements"]
    for a, b in product(els, repeat=2):
        if (a, b) in st["comp"]:
            for c in els:
                if c != st["comp"][(a, b)]:
                    yield ("comp", a, b, c)
            yield ("drop", a, b)
        else:
            for c in els:
                yield ("comp", a, b, c)
    for x in els:
        for p in els:
            if p != st["plus"][x]:
                yield ("plus", x, p)
    if st["order"] is not None:
        for a, b in product(els, repeat=2):
            if a != b:
                yield ("unorder" if (a, b) in st["order"] else "order", a, b)


def apply_edit(st, edit):
    out = {
        "kind": st["kind"],
        "elements": st["elements"],
        "plus": dict(st["plus"]),
        "comp": dict(st["comp"]),
        "order": None if st["order"] is None else set(st["order"]),
    }
    tag = edit[0]
    if tag == "comp":
        out["comp"][(edit[1], edit[2])] = edit[3]
    elif tag == "drop":
        del out["comp"][(edit[1], edit[2])]
    elif tag == "plus":
        out["plus"][edit[1]] = edit[2]
    elif tag == "order":
        out["order"].add((edit[1], edit[2]))
    elif tag == "unorder":
        out["order"].discard((edit[1], edit[2]))
    else:
        raise ValueError(f"unknown edit {edit!r}")
    return out


PARSE_ERROR = "!ParseError"


def small_items(census):
    """Exhaustive part: every edit of every census structure with n <= 3.

    ``census`` maps "lrs"/"lic" to lists of canonical texts.  Each item is
    (text, expected) where expected is PARSE_ERROR for an order cycle and
    otherwise True/False for "the edited structure is in the census".
    """
    known = set()
    bases = []
    for kind in ("lrs", "lic"):
        for text in census[kind]:
            st = parse_text(text)
            known.add(key(st))
            bases.append(st)
    items = []
    for st in bases:
        for edit in edits(st):
            m = apply_edit(st, edit)
            expected = PARSE_ERROR if has_cycle(m) else key(m) in known
            items.append((render_text(m), expected))
    return items


def big_items(text, digests, count, rng):
    """Seed-drawn part: ``count`` edits of one larger structure.

    ``digests[i]`` is the recorded verdict of the i-th edit in edits()
    order: PARSE_ERROR or the comma-joined sorted violated axiom names.
    """
    st = parse_text(text)
    population = list(edits(st))
    if len(population) != len(digests):
        raise ValueError("recorded digests do not match the edit list")
    # One edit drawn from each of ``count`` equal consecutive blocks of the
    # edit list, so every seed samples the kinds of edit in the same shares.
    bounds = [len(population) * i // count for i in range(count + 1)]
    chosen = [rng.randrange(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return [(render_text(apply_edit(st, population[i])), digests[i]) for i in chosen]


def mutant_items(data, seed, sample=300):
    """The mutants workload input: exhaustive small part + seeded samples."""
    items = small_items(data["census"])
    rng = random.Random(seed)
    for name in sorted(data["big"]):
        big = data["big"][name]
        items.extend(big_items(big["text"], expand_digests(big), sample, rng))
    return items


def expand_digests(big):
    """Recorded digests are stored interned: a table plus one index per edit."""
    table = big["verdicts"]
    return [table[i] for i in big["index"]]
