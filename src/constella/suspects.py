"""The group tests: a checker scans only the groups of axiom instances
its test cannot pass, each test proved in its docstring to leave out only
groups on which the scan yields nothing, so every report is the full
scan's.  Below the gates, the census among them, the full scans run."""

# The carrier sizes on which the byte-row and bit-row tests run: below 8
# elements the full scan costs no more (as measured on single-cell edits),
# and above 254 a byte cannot hold the n + 2 symbols.  The byte-column test
# of wo4, wo5 and wo7 pays from 16 elements: on the 9- to 15-element
# expansions it costs about what those scans cost, and on their edits,
# where most e fail anyway, more.
_BYTE_ROWS = range(8, 255)
_BYTE_COLUMNS = range(16, 255)


def _suspect_rows(val, masked):
    """The list of rows (a, b, every) on which s1-s3 (masked false, as
    core._s_violations states them) or c1/c2 (masked true, as
    constellation._c12_violations states them) can fail, for a complete
    table coded by carrier index, in index order; None, for every row, on
    a carrier outside _BYTE_ROWS.  Here every is range(n) and r ranges
    over it.

    Each row of val is coded as bytes, one per column: a defined value
    keeps its index and an undefined one is N = n.  For a left factor a,
    the table that sends each index v to the index of av, or to U = n + 1
    where av is undefined, and N to N, translates the row of b into the
    row of a(br): N where br is undefined, U where br is defined and a(br)
    is not, and the index of a(br) elsewhere.  It is compared with the
    expected row: the row of ab when ab is defined, else b's domain
    pattern, U where br is defined and N elsewhere.  The rows of all b are
    joined into one blob, so one translate and one comparison test every
    row of a; on the c side only the positions with br defined count (a
    mask fixed per table).  A left factor that fails yields its failing
    rows only.

    A row passes exactly when its generator yields nothing on it.  U and
    N are no index, and the table is complete (ab is defined exactly when
    val[a][b] is not None), so column by column:

    s1-s3, ab undefined: only s3 can trigger, at r with br and a(br)
    defined, where an index meets U.  Elsewhere both entries are N (br
    undefined) or U (a(br) undefined).
    s1-s3, ab defined: nothing triggers where br and (ab)r are undefined,
    and there both entries are N.  A triggered r yields nothing exactly
    when br, (ab)r and a(br) are defined and (ab)r = a(br), where the two
    indices agree.  Otherwise the entries differ: N meets an index where
    br is undefined and (ab)r defined (s2); U meets an index or N where
    a(br) is undefined (s1); an index meets N where a(br) is defined and
    (ab)r is not (s1 and s3).
    c1/c2: nothing is yielded where br is undefined, the masked columns.
    Where br is defined: with ab undefined, c1 fails exactly where a(br)
    is defined, where an index meets U; with ab defined, c1 or c2 fails
    unless a(br) and (ab)r are defined and equal, where the entries agree.

    The n + 2 symbols fit a byte while n <= 254.  The rows come in index
    order and only rows that yield nothing are left out, so the
    violations come in the sequence the full scan gives.
    """
    n = len(val)
    if n not in _BYTE_ROWS:
        return None
    return list(_byte_row_mismatches(val, masked))


def _byte_row_mismatches(val, masked):
    """The rows of _suspect_rows on any carrier of at most 254 elements."""
    n = len(val)
    every = range(n)
    fixed = bytes(range(n, 256))  # N, and the bytes no row holds
    rows = [bytes([n if v is None else v for v in row]) for row in val]
    blob = b"".join(rows)
    domains = [row.translate(bytes([n + 1]) * n + fixed) for row in rows]
    undefined = bytes(range(n)) + bytes([n + 1]) + fixed[1:]  # N to U
    if masked:
        mask = int.from_bytes(blob.translate(b"\xff" * n + bytes(256 - n)),
                              "big")
    for a, va in enumerate(val):
        got = blob.translate(rows[a].translate(undefined) + fixed)
        want = b"".join([domains[b] if v is None else rows[v]
                         for b, v in enumerate(va)])
        if got == want:
            continue
        if masked:
            diff = (int.from_bytes(got, "big")
                    ^ int.from_bytes(want, "big")) & mask
            if not diff:
                continue
            got, want = diff.to_bytes(n * n, "big"), bytes(n * n)
        for b in every:
            i = b * n
            if got[i:i + n] != want[i:i + n]:
                yield a, b, every


def _wo1_rows(val, up):
    """The x at which wo1 (constellation._order_violations) can fail, in
    index order; None outside _BYTE_ROWS.

    An instance with y = x and y2 = x2 holds, so a failing one has y or y2
    raised (in an up-list longer than one).  Each defined (y, y2) with one
    raised is a bit; R, C and V mask these by row, column and value, and
    RU[x], CU[x2] and VU[w] OR them over up[x], up[x2] and up[w].  Then
    RU[x] & CU[x2] & ~VU[xx2] holds exactly the failing instances at
    (x, x2), so an x left out yields nothing.
    """
    n = len(val)
    if n not in _BYTE_ROWS:
        return None
    raised = [False] * n
    for above in up:
        if len(above) > 1:
            for y in above:
                raised[y] = True
    every, columns = range(n), [y2 for y2 in range(n) if raised[y2]]
    R, C, V = [0] * n, [0] * n, [0] * n
    bit = 1
    for y, row in enumerate(val):
        for y2 in every if raised[y] else columns:
            w = row[y2]
            if w is not None:
                R[y] |= bit
                C[y2] |= bit
                V[w] |= bit
                bit <<= 1
    RU, CU, VU = [0] * n, [0] * n, [0] * n
    for x, above in enumerate(up):
        for y in above:
            RU[x] |= R[y]
            CU[x] |= C[y]
            VU[x] |= V[y]
    rows = []
    for x, row in enumerate(val):
        ru = RU[x]
        if ru:
            for x2, w in enumerate(row):
                if w is not None and ru & CU[x2] & ~VU[w]:
                    rows.append(x)
                    break
    return rows


def _wo_suspects(val, plus, cores):
    """(wo4, wo5, wo7), each the e in T+ at which that axiom can fail
    (constellation._index_violations), in index order; None outside
    _BYTE_COLUMNS.

    wo4 fails where some[e][x] holds and top[e][x] is None, and top is
    None wherever some fails: so exactly where top[e] has more None than
    some[e] has False.  blob holds xy column by column, N = n where it is
    undefined, and ys holds y where it is defined; sent through some[e]
    (N to 2), they are equal exactly where wo5 holds at e.  rows[f][x] is
    the plus of top[f][x], N for None, and rows[N] is all N.  Where wo7
    yields at (x, y, e), some[e][xy] holds, so on an e that passes wo4
    (else e is kept) rows[e][xy] is the plus of (xy)|e, and
    rows[rows[e][y]][x] is N or another plus.  So an e left out yields
    nothing, and where wo5 holds at e the two differ only where wo7
    yields.  The n + 1 symbols fit a byte.
    """
    n = len(val)
    if n not in _BYTE_COLUMNS:
        return None
    image, top, some = cores.image, cores.top, cores.some
    fixed = bytes(range(n, 256))  # N, and the bytes no entry holds
    blob = b"".join([bytes([n if v is None else v for v in column])
                     for column in zip(*val)])
    defined = int.from_bytes(blob.translate(b"\xff" * n + bytes(256 - n)),
                             "big")
    ys = (int.from_bytes(b"".join([bytes([y]) * n for y in range(n)]), "big")
          & defined | int.from_bytes(bytes([n]) * (n * n), "big") & ~defined
          ).to_bytes(n * n, "big")
    rows = [None] * n + [bytes([n]) * n]
    for f in image:
        rows[f] = bytes([n if m is None else plus[m] for m in top[f]])
    wo4, wo5, wo7, fails, twos = [], [], [], {}, b"\x02" * (256 - n)
    for e in image:
        bad = top[e].count(None) != some[e].count(False)
        if bad:
            wo4.append(e)
        some_e = bytes(some[e])  # tested once per distinct row
        if some_e not in fails:
            table = some_e + twos
            fails[some_e] = blob.translate(table) != ys.translate(table)
        if fails[some_e]:
            wo5.append(e)
        if bad or defined & (
                int.from_bytes(blob.translate(rows[e] + fixed), "big")
                ^ int.from_bytes(b"".join(map(rows.__getitem__, rows[e])),
                                 "big")):
            wo7.append(e)
    return wo4, wo5, wo7
