"""Independent brute-force oracles.

These deliberately avoid the library's ideal-set computations: Green
relations are decided by mutual divisibility, products by literal set
comprehension, regularity by scanning for a witness, automorphisms by
trying every permutation, and the small semigroups by trying every table.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product

from crglobal.core import CayleyTable
from crglobal.search import _base_signature, _canon_pair, _joint_colors


def _in_left_ideal(t, n: int, x: int, y: int) -> bool:
    # x in S^1 y
    return x == y or any(t[s][y] == x for s in range(n))


def _in_right_ideal(t, n: int, x: int, y: int) -> bool:
    return x == y or any(t[y][s] == x for s in range(n))


def _in_two_sided(t, n: int, x: int, y: int) -> bool:
    if x == y or _in_left_ideal(t, n, x, y) or _in_right_ideal(t, n, x, y):
        return True
    return any(t[t[s][y]][r] == x for s in range(n) for r in range(n))


def oracle_l_related(s: CayleyTable, a: int, b: int) -> bool:
    return _in_left_ideal(s.table, s.order, a, b) and _in_left_ideal(s.table, s.order, b, a)


def oracle_r_related(s: CayleyTable, a: int, b: int) -> bool:
    return _in_right_ideal(s.table, s.order, a, b) and _in_right_ideal(s.table, s.order, b, a)


def oracle_h_related(s: CayleyTable, a: int, b: int) -> bool:
    return oracle_l_related(s, a, b) and oracle_r_related(s, a, b)


def oracle_d_related(s: CayleyTable, a: int, b: int) -> bool:
    return any(oracle_l_related(s, a, c) and oracle_r_related(s, c, b) for c in range(s.order))


def oracle_j_related(s: CayleyTable, a: int, b: int) -> bool:
    return _in_two_sided(s.table, s.order, a, b) and _in_two_sided(s.table, s.order, b, a)


def partition(ids) -> set[frozenset[int]]:
    groups: dict = {}
    for i, c in enumerate(ids):
        groups.setdefault(c, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def oracle_partition(s: CayleyTable, related) -> set[frozenset[int]]:
    classes = []
    left = set(range(s.order))
    while left:
        a = min(left)
        cls = {b for b in range(s.order) if related(s, a, b)}
        classes.append(frozenset(cls))
        left -= cls
    return set(classes)


def oracle_subset_product(s: CayleyTable, a: set[int], b: set[int]) -> set[int]:
    return {s.table[x][y] for x in a for y in b}


def oracle_idset_product(dec, xs: frozenset[int], ys: frozenset[int]) -> frozenset[int]:
    """Setwise product of two supports inside the structure semilattice."""
    t = dec.semilattice.table
    return frozenset({t[x][y] for x in xs for y in ys})


def oracle_completely_regular(s: CayleyTable) -> bool:
    t = s.table
    n = s.order
    return all(
        any(t[t[a][x]][a] == a and t[a][x] == t[x][a] for x in range(n)) for a in range(n)
    )


def oracle_leq(s: CayleyTable, a: int, b: int) -> bool:
    t = s.table
    es = [e for e in range(s.order) if t[e][e] == e]
    return any(t[e][b] == a for e in es) and any(t[b][f] == a for f in es)


def oracle_is_isomorphism(ta, tb, forward) -> bool:
    """forward is a bijection with forward[x*y] == forward[x]*forward[y],
    checked by a literal loop over two tables given as nested sequences."""
    n = len(ta)
    if len(tb) != n or sorted(forward) != list(range(n)):
        return False
    return all(forward[ta[x][y]] == tb[forward[x]][forward[y]] for x in range(n) for y in range(n))


def oracle_automorphism_count(s: CayleyTable) -> int:
    """Number of automorphisms, by trying all n! permutations."""
    return sum(
        oracle_is_isomorphism(s.table, s.table, perm) for perm in permutations(range(s.order))
    )


def oracle_power_rows(s: CayleyTable) -> list[list[int]]:
    """The power semigroup's product over mask-1 indices, from literal set
    products."""
    subsets = [
        {e for e in range(s.order) if mask >> e & 1} for mask in range(1, 1 << s.order)
    ]
    index = {frozenset(a): i for i, a in enumerate(subsets)}
    return [[index[frozenset(oracle_subset_product(s, a, b))] for b in subsets] for a in subsets]


def oracle_dual(s: CayleyTable) -> CayleyTable:
    """The opposite semigroup S^op, x *op y = y * x, by transposing the table."""
    n = s.order
    return CayleyTable(n, tuple(tuple(s.table[y][x] for y in range(n)) for x in range(n)), s.labels)


def oracle_mask(elements) -> int:
    return sum(1 << e for e in set(elements))


def _first_occurrence(keys) -> tuple[int, ...]:
    seen: dict = {}
    return tuple(seen.setdefault(k, len(seen)) for k in keys)


def oracle_neighbourhoods(t: CayleyTable) -> list:
    """Per element x: the row x*y, the column y*x, and the flags
    8*(x*y == x) + 4*(x*y == y) + 2*(y*x == x) + (y*x == y) for each y, by
    literal loops over the table."""
    tbl = t.table
    rng = range(t.order)
    return [
        (
            [tbl[x][y] for y in rng],
            [tbl[y][x] for y in rng],
            [8 * (tbl[x][y] == x) + 4 * (tbl[x][y] == y) + 2 * (tbl[y][x] == x) + (tbl[y][x] == y) for y in rng],
        )
        for x in rng
    ]


def oracle_refine_once(hoods: list, colors: list[int]) -> list:
    """One refinement round of :func:`oracle_joint_colors`: each element's
    colour with the Counter of its neighbour tuples."""
    get = colors.__getitem__
    return [
        (colors[x], frozenset(Counter(zip(colors, map(get, row), map(get, col), flags)).items()))
        for x, (row, col, flags) in enumerate(hoods)
    ]


def oracle_joint_colors(a: CayleyTable, b: CayleyTable) -> tuple[list[int], list[int]]:
    """The joint colour refinement of the isomorphism search, each
    neighbourhood kept as a Counter of (colour of y, colour of x*y, colour of
    y*x, flags) tuples: the reference for the search's byte and integer
    keys.  It starts from the search's own base signatures, and from
    neighbourhoods built by literal loops."""
    same = a.table == b.table
    basea = _base_signature(a)
    ca, cb = _canon_pair(basea, basea if same else _base_signature(b))
    if sorted(ca) != sorted(cb):
        return ca, cb
    ha = oracle_neighbourhoods(a)
    hb = ha if same else oracle_neighbourhoods(b)
    count = len(set(ca))
    while True:
        rawa = oracle_refine_once(ha, ca)
        ca, cb = _canon_pair(rawa, rawa if same else oracle_refine_once(hb, cb))
        if sorted(ca) != sorted(cb):
            return ca, cb
        new_count = len(set(ca))
        if new_count == count:
            return ca, cb
        count = new_count


def oracle_find_isomorphisms(a: CayleyTable, b: CayleyTable, limit: int) -> list[tuple[int, ...]]:
    """The isomorphism search without the dead-end lookahead: the reference
    for the maps :func:`find_isomorphisms` returns, and for their order.  It
    has the search's colours, branching rule and candidate order; each
    assignment is closed under products by a plain work queue, and nothing
    else prunes."""
    if a.order != b.order:
        return []
    ca, cb = _joint_colors(a, b)
    if sorted(ca) != sorted(cb):
        return []
    n = a.order
    ta, tb = a.table, b.table
    fwd = [-1] * n
    used = [False] * n
    trail: list[int] = []
    results: list[tuple[int, ...]] = []

    def assign(i: int, j: int) -> bool:
        # i -> j and every product it forces; False on a contradiction
        queue = [(i, j)]
        while queue:
            p, q = queue.pop()
            if fwd[p] >= 0:
                if fwd[p] != q:
                    return False
                continue
            if used[q] or cb[q] != ca[p]:
                return False
            fwd[p] = q
            used[q] = True
            trail.append(p)
            for z in trail:
                queue.append((ta[p][z], tb[q][fwd[z]]))
                queue.append((ta[z][p], tb[fwd[z]][q]))
        return True

    def dfs() -> None:
        free = [x for x in range(n) if fwd[x] < 0]
        if not free:
            results.append(tuple(fwd))
            return
        sizes = Counter(ca[x] for x in free)
        fewest = min(sizes.values())
        i = min(x for x in free if sizes[ca[x]] == fewest)
        mark = len(trail)
        for j in [j for j in range(n) if cb[j] == ca[i] and not used[j]]:
            if assign(i, j):
                dfs()
            for x in trail[mark:]:
                used[fwd[x]] = False
                fwd[x] = -1
            del trail[mark:]
            if len(results) >= limit:
                return

    dfs()
    return results


def oracle_power_green(s: CayleyTable) -> tuple[tuple[int, ...], ...]:
    """L, R, H and D class vectors of the power semigroup over mask-1
    indices, classes numbered in order of first occurrence.

    A is L-related to B when {A} with every X*A equals {B} with every X*B,
    all from literal set products; D is L followed by R.
    """
    subsets = [
        frozenset(e for e in range(s.order) if mask >> e & 1) for mask in range(1, 1 << s.order)
    ]
    prod = {(a, b): frozenset(oracle_subset_product(s, a, b)) for a in subsets for b in subsets}
    lclass = _first_occurrence(frozenset({a} | {prod[x, a] for x in subsets}) for a in subsets)
    rclass = _first_occurrence(frozenset({a} | {prod[a, x] for x in subsets}) for a in subsets)
    hclass = _first_occurrence(zip(lclass, rclass))
    size = len(subsets)
    dclass = _first_occurrence(
        frozenset(
            b for b in range(size) if any(lclass[a] == lclass[c] and rclass[c] == rclass[b] for c in range(size))
        )
        for a in range(size)
    )
    return lclass, rclass, hclass, dclass


def oracle_chunks(t: CayleyTable, mask: int) -> list[int]:
    """D-classes of the subset A inside A itself, as masks, lowest first.

    a ~ b when each lies in the other's two-sided ideal in A^1, from literal
    products over A (D = J in a finite semigroup).  A class sits below every
    class it absorbs on both sides, so the lowest absorbs the most classes.
    """
    tab = t.table
    elems = [e for e in range(t.order) if mask >> e & 1]
    ideal = {
        a: {a}
        | {tab[x][a] for x in elems}
        | {tab[a][y] for y in elems}
        | {tab[tab[x][a]][y] for x in elems for y in elems}
        for a in elems
    }
    classes: list[list[int]] = []
    for a in elems:
        home = next((c for c in classes if a in ideal[c[0]] and c[0] in ideal[a]), None)
        if home is None:
            classes.append([a])
        else:
            home.append(a)

    def absorbs(low, high) -> bool:
        return all(tab[x][y] in low and tab[y][x] in low for x in low for y in high)

    return [oracle_mask(c) for c in sorted(classes, key=lambda c: -sum(absorbs(c, d) for d in classes))]


def oracle_associative_tables(n: int):
    """Every associative n x n table over 0..n-1, by trying all n^(n*n)."""
    for flat in product(range(n), repeat=n * n):
        t = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n)):
            yield t


def oracle_relabel_least(t) -> tuple[tuple[int, ...], ...]:
    """The lexicographically least table among all n! relabellings of ``t``."""
    n = len(t)
    out = []
    for perm in permutations(range(n)):
        # perm[x] is the new name of x
        rows = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                rows[perm[x]][perm[y]] = perm[t[x][y]]
        out.append(tuple(tuple(r) for r in rows))
    return min(out)


def oracle_small_semigroups(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """One table per isomorphism class of order ``n``: the least relabelling
    of each associative table, deduplicated and sorted."""
    return sorted({oracle_relabel_least(t) for t in oracle_associative_tables(n)})
