"""Isomorphism search between two tables: joint colour refinement, then
backtracking over one :class:`SearchState` that individualizes, propagates and
undoes to a mark (the partition-backtrack shape of McKay & Piperno, "Practical
graph isomorphism, II", J. Symbolic Comput. 2014)."""

from __future__ import annotations

from collections import Counter
from operator import add, itemgetter

from .core import CayleyTable, derived, green_relations, number_classes
from .errors import SearchBudgetExceededError, SearchResultError


class IsoMap:
    """A bijection between two carriers of the same kind, given by its images
    and checked, where a reader needs it, with :func:`verify_morphism`.

    kind is "elements", "subsets" (indexed by mask - 1) or "components".
    """

    def __init__(self, kind: str, forward: tuple[int, ...]):
        self.kind = kind
        self.forward = forward

    def __eq__(self, other) -> bool:
        return type(other) is IsoMap and vars(self) == vars(other)


def verify_morphism(a: CayleyTable, b: CayleyTable, forward) -> bool:
    if sorted(forward) != list(range(b.order)) or a.order != b.order:
        return False
    # row x of a relabelled by forward must equal row forward[x] of b read
    # along forward; itemgetter does the lookups of a whole row in C
    along = itemgetter(*forward)
    tb = b.table
    return all(itemgetter(*row)(forward) == along(tb[fx]) for row, fx in zip(a.table, forward))


# -- invariant colouring -----------------------------------------------------


def _order_profile(t: CayleyTable, x: int) -> tuple[int, int]:
    # (tail length, cycle length) of x, x^2, x^3, ...
    seen = {x: 1}
    y = x
    k = 1
    while True:
        y = t.table[y][x]
        k += 1
        if y in seen:
            return (seen[y], k - seen[y])
        seen[y] = k


@derived
def _base_signature(t: CayleyTable) -> list:
    g = green_relations(t)
    lsz = Counter(g.lclass)
    rsz = Counter(g.rclass)
    hsz = Counter(g.hclass)
    dsz = Counter(g.dclass)
    return [
        (
            _order_profile(t, x),
            g.idempotent[x],
            lsz[g.lclass[x]],
            rsz[g.rclass[x]],
            hsz[g.hclass[x]],
            dsz[g.dclass[x]],
        )
        for x in range(t.order)
    ]


def _canon_pair(rawa: list, rawb: list) -> tuple[list[int], list[int]]:
    # one colour per distinct signature, shared by both tables; only the
    # partition matters, so colours are numbered in order of first appearance
    colors = number_classes(rawa + rawb)
    return colors[: len(rawa)], colors[len(rawa) :]


# tables up to this order keep their neighbourhoods as bytes: every element
# index, and so every colour, fits in one byte
BYTE_ORDER = 256
# a byte that is 0 turns into one flag bit, any other byte into 0
_ZERO_TO_FLAG = {bit: bytes([bit]) + bytes(255) for bit in (8, 4, 2, 1)}


@derived
def _neighbourhoods(t: CayleyTable) -> list:
    """Per element x: the row x*y, the column y*x, and for each y four bits
    telling whether x*y == x, x*y == y, y*x == x and y*x == y.

    Up to ``BYTE_ORDER`` elements each of the three is a ``bytes``, and the
    flags of all pairs come from four whole-table passes: a product equals
    x or y exactly where XOR against the table of x's or of y's is 0.
    """
    tbl = t.table
    if t.order > BYTE_ORDER:
        out = []
        for x, (row, col) in enumerate(zip(tbl, zip(*tbl))):
            flags = [
                8 * (xy == x) + 4 * (xy == y) + 2 * (yx == x) + (yx == y)
                for y, (xy, yx) in enumerate(zip(row, col))
            ]
            out.append((row, col, flags))
        return out
    n = t.order
    rows = [bytes(row) for row in tbl]
    cols = [bytes(col) for col in zip(*tbl)]
    prods = int.from_bytes(b"".join(rows), "big")
    transposed = int.from_bytes(b"".join(cols), "big")
    xs = int.from_bytes(b"".join(bytes([x]) * n for x in range(n)), "big")
    ys = int.from_bytes(bytes(range(n)) * n, "big")

    def flag(diff: int, bit: int) -> int:
        return int.from_bytes(diff.to_bytes(n * n, "big").translate(_ZERO_TO_FLAG[bit]), "big")

    flags = flag(prods ^ xs, 8) | flag(prods ^ ys, 4) | flag(transposed ^ xs, 2) | flag(transposed ^ ys, 1)
    flags = flags.to_bytes(n * n, "big")
    return [(row, col, flags[x * n : x * n + n]) for x, (row, col) in enumerate(zip(rows, cols))]


def _refine_bytes(hoods: list, colors: list[int]) -> list:
    # each neighbour y of x as four bytes (c_y, c_xy, c_yx, flags) read as
    # one int; the sorted keys are x's neighbourhood multiset
    lookup = bytes(colors).ljust(256, b"\0")
    keys = bytearray(4 * len(colors))
    keys[0::4] = bytes(colors)
    out = []
    for x, (row, col, flags) in enumerate(hoods):
        keys[1::4] = row.translate(lookup)
        keys[2::4] = col.translate(lookup)
        keys[3::4] = flags
        out.append((colors[x], tuple(sorted(memoryview(keys).cast("I")))))
    return out


def _refine_ints(hoods: list, colors: list[int]) -> list:
    # each neighbour y of x as one int, ((c_y * m + c_xy) * m + c_yx) * 16 + flags,
    # exact for colours below m; the sorted keys are x's neighbourhood multiset
    m = max(colors) + 1
    cy = [c * m * m * 16 for c in colors]
    cxy = [c * m * 16 for c in colors]
    cyx = [c * 16 for c in colors]
    out = []
    for x, (row, col, flags) in enumerate(hoods):
        keys = map(add, map(add, cy, map(cxy.__getitem__, row)), map(add, map(cyx.__getitem__, col), flags))
        out.append((colors[x], tuple(sorted(keys))))
    return out


def _joint_colors(a: CayleyTable, b: CayleyTable) -> tuple[list[int], list[int]]:
    """Colour both tables together so equal colours mean 'possibly matched'.

    Starting from Green-class sizes and power orders, each round splits a
    colour by the multiset of (colour of y, colour of x*y, colour of y*x,
    which of x*y and y*x equal x or y) over all y, until no colour splits.
    Each such 4-tuple is encoded as one exact integer, four bytes up to
    ``BYTE_ORDER`` elements and an integer over the number of colours in
    play above, so a multiset is a sorted tuple of ints; both encodings are
    injective, so the partitions and their numbering are those of the
    tuples themselves.  Sound for pruning because every ingredient is
    isomorphism-invariant.  Stops early once some colour covers different
    numbers of elements in the two tables: refinement only splits colours,
    so the tables cannot be isomorphic.
    """
    ca, cb = _canon_pair(_base_signature(a), _base_signature(b))
    if sorted(ca) != sorted(cb):
        return ca, cb
    ha, hb = _neighbourhoods(a), _neighbourhoods(b)
    refine = _refine_bytes if a.order <= BYTE_ORDER else _refine_ints
    count = len(set(ca))
    while True:
        ca, cb = _canon_pair(refine(ha, ca), refine(hb, cb))
        if sorted(ca) != sorted(cb):
            return ca, cb
        new_count = len(set(ca))
        if new_count == count:
            return ca, cb
        count = new_count


# -- backtracking ------------------------------------------------------------


class SearchState:
    """A partial isomorphism from ``a`` onto ``b`` that respects the joint
    colours ``ca`` and ``cb``, and the steps that extend and retract it.

    ``fwd`` and ``back`` hold the map and its inverse (-1 where unassigned),
    ``trail`` the assigned elements of ``a`` in assignment order, and
    ``left`` the unassigned elements per colour, equal on both sides.
    ``nodes`` counts the candidates tried, and ``witness`` is the last
    element left with no surviving candidate at a branch point (-1 before
    there is one); the driver keeps both.
    """

    def __init__(self, a: CayleyTable, b: CayleyTable, ca: list[int], cb: list[int]):
        n = a.order
        self.n = n
        self.ca, self.cb = ca, cb
        ncolors = max(ca) + 1
        self.members: list[list[int]] = [[] for _ in range(ncolors)]  # elements of a per colour
        self.cand: list[list[int]] = [[] for _ in range(ncolors)]  # elements of b per colour
        for x, (c, d) in enumerate(zip(ca, cb)):
            self.members[c].append(x)
            self.cand[d].append(x)
        self.left = [len(m) for m in self.members]
        self.ta, self.tb = a.table, b.table
        # columns as tuples: the byte columns of the colouring are slower to subscript
        self.cola = list(zip(*a.table))
        self.colb = list(zip(*b.table))
        self.fwd = [-1] * n
        self.back = [-1] * n
        self.trail: list[int] = []
        # preimages in b, built on first read by dead_end: col_pre[y][v]
        # masks the w with w*y == v, row_pre[y][v] the w with y*w == v
        self.col_pre: list = [None] * n
        self.row_pre: list = [None] * n
        self.nodes = 0
        self.witness = -1

    def individualize(self, i: int, j: int) -> bool:
        """Map ``i`` to ``j``, then propagate through the product; False on
        a contradiction, which leaves a partial assignment for :meth:`undo`.

        Every product of a newly assigned element with the trail of elements
        already assigned is checked against the trail on the spot, and only
        an unassigned product is assigned in turn, so the trail is also the
        work queue.
        """
        fwd, back, left, trail, ca, cb = self.fwd, self.back, self.left, self.trail, self.ca, self.cb
        ta, tb, cola, colb = self.ta, self.tb, self.cola, self.colb
        fwd[i] = j
        back[j] = i
        left[ca[i]] -= 1
        k = len(trail)
        trail.append(i)
        while k < len(trail):
            x = trail[k]
            y = fwd[x]
            # x and the elements processed before it, newest first (those
            # queued after x meet x when they are processed), along the row
            # of x and then along its column
            for line_a, line_b in ((ta[x], tb[y]), (cola[x], colb[y])):
                for z in trail[k::-1]:
                    p = line_a[z]
                    q = line_b[fwd[z]]
                    fp = fwd[p]
                    if fp >= 0:
                        if fp != q:
                            return False
                    elif back[q] >= 0 or cb[q] != ca[p]:
                        return False
                    else:
                        fwd[p] = q
                        back[q] = p
                        left[ca[p]] -= 1
                        trail.append(p)
            k += 1
        return True

    def undo(self, mark: int) -> None:
        """Unassign the trail after its first ``mark`` elements."""
        fwd, back, left, ca, trail = self.fwd, self.back, self.left, self.ca, self.trail
        for x in trail[mark:]:
            back[fwd[x]] = -1
            fwd[x] = -1
            left[ca[x]] += 1
        del trail[mark:]

    def branch(self) -> tuple[int, list[int]]:
        """The element to branch on, the first unassigned element of a colour
        with the fewest unassigned elements, and its free candidates in ``b``."""
        fwd, back, left = self.fwd, self.back, self.left
        fewest = min(k for k in left if k)
        best = min(next(i for i in self.members[c] if fwd[i] < 0) for c, k in enumerate(left) if k == fewest)
        return best, [j for j in self.cand[self.ca[best]] if back[j] < 0]

    def dead_end(self, w: int) -> bool:
        """Whether no free v of ``b`` in the colour of the unassigned ``w``
        has v*f(z) == f(w*z) and f(z)*v == f(z*w) for every assigned z whose
        product with w is assigned (forward checking, Haralick & Elliott
        1980): an AND of preimage masks of ``b``, each line built on first
        read."""
        fwd, back = self.fwd, self.back
        m = sum(1 << j for j in self.cand[self.ca[w]] if back[j] < 0)
        sides = ((self.ta[w], self.colb, self.col_pre), (self.cola[w], self.tb, self.row_pre))
        for z in self.trail:
            fz = fwd[z]
            for line, lines_b, pres in sides:
                v = fwd[line[z]]
                if v >= 0:
                    pre = pres[fz]
                    if pre is None:
                        pre = pres[fz] = [0] * self.n
                        for u, x in enumerate(lines_b[fz]):
                            pre[x] |= 1 << u
                    m &= pre[v]
            if not m:
                return True
        return False


# search nodes one call may expand before it raises instead of answering
MAX_NODES = 2_000_000


def _extend(state: SearchState, results: list, limit: int, kind: str) -> None:
    # depth first below the current node, until ``limit`` maps are found
    if len(state.trail) == state.n:
        results.append(tuple(state.fwd))
        return
    w = state.witness
    if w >= 0 and state.fwd[w] < 0 and state.dead_end(w):
        return
    i, candidates = state.branch()
    mark = len(state.trail)
    survived = False
    for j in candidates:
        state.nodes += 1
        if state.nodes > MAX_NODES:
            raise SearchBudgetExceededError(state.nodes, state.n, kind)
        if state.individualize(i, j):
            survived = True
            _extend(state, results, limit, kind)
        state.undo(mark)
        if len(results) >= limit:
            return
    if not survived:
        state.witness = i


def find_isomorphisms(a: CayleyTable, b: CayleyTable, limit: int = 8, kind: str = "elements") -> list[IsoMap]:
    """Up to ``limit`` verified isomorphisms from ``a`` onto ``b``, labelled
    ``kind``: depth first over the :class:`SearchState` steps, on the colours
    of :func:`_joint_colors`.  No map means the tables are not isomorphic;
    running out of ``MAX_NODES`` raises instead, and so does a result that
    fails verification."""
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if a.order != b.order:
        return []
    ca, cb = _joint_colors(a, b)
    if sorted(ca) != sorted(cb):
        return []
    results: list[tuple[int, ...]] = []
    _extend(SearchState(a, b, ca, cb), results, limit, kind)
    out = []
    for forward in results:
        if not verify_morphism(a, b, forward):
            raise SearchResultError(
                f"{kind} isomorphism search returned {list(forward)}, which is not an isomorphism"
            )
        out.append(IsoMap(kind, forward))
    return out
