"""Constructors and enumerators for the verification corpus.

Everything here returns validated tables.  The corpus is deterministic: same
members, same names, same order on every run.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import lru_cache

from .core import CayleyTable, validate_table
from .errors import BadSpecError, OrderTooLargeError


def left_zero(n: int) -> CayleyTable:
    _positive(n)
    return validate_table([[i] * n for i in range(n)])


def right_zero(n: int) -> CayleyTable:
    _positive(n)
    return validate_table([list(range(n)) for _ in range(n)])


def cyclic_group(n: int) -> CayleyTable:
    _positive(n)
    return validate_table([[(i + j) % n for j in range(n)] for i in range(n)])


def klein_four() -> CayleyTable:
    return direct_product(cyclic_group(2), cyclic_group(2))


def chain_semilattice(n: int) -> CayleyTable:
    _positive(n)
    return validate_table([[min(i, j) for j in range(n)] for i in range(n)])


def rect_band(p: int, q: int) -> CayleyTable:
    """Elements (i, u) with (i, u)*(j, v) = (i, v), flattened as i*q + u."""
    _positive(p)
    _positive(q)
    rows = []
    for i in range(p):
        for _u in range(q):
            rows.append([i * q + v for _j in range(p) for v in range(q)])
    labels = [f"({i},{u})" for i in range(p) for u in range(q)]
    return validate_table(rows, labels)


def direct_product(a: CayleyTable, b: CayleyTable) -> CayleyTable:
    na, nb = a.order, b.order
    rows = []
    for i in range(na):
        for u in range(nb):
            rows.append([a.table[i][j] * nb + b.table[u][v] for j in range(na) for v in range(nb)])
    return validate_table(rows)


def adjoin_identity(s: CayleyTable) -> CayleyTable:
    """Add a fresh two-sided identity as the last element."""
    n = s.order
    rows = [list(row) + [i] for i, row in enumerate(s.table)]
    rows.append(list(range(n + 1)))
    return validate_table(rows)


def _group_inverses(g: CayleyTable) -> tuple[int, list[int]]:
    identity = None
    for e in range(g.order):
        if all(g.table[e][x] == x == g.table[x][e] for x in range(g.order)):
            identity = e
            break
    if identity is None:
        raise BadSpecError("sandwich construction needs a group: no identity")
    inv = [-1] * g.order
    for x in range(g.order):
        for y in range(g.order):
            if g.table[x][y] == identity and g.table[y][x] == identity:
                inv[x] = y
                break
        if inv[x] < 0:
            raise BadSpecError(f"sandwich construction needs a group: {x} has no inverse")
    return identity, inv


def rees_matrix(g: CayleyTable, sandwich: Sequence[Sequence[int]]) -> CayleyTable:
    """Completely simple semigroup over the group ``g`` with the given
    sandwich matrix (rows indexed by the right coordinate, columns by the
    left one).  The matrix is normalized so its first row and column are the
    identity before building."""
    lam = len(sandwich)
    if lam == 0 or len(set(len(r) for r in sandwich)) != 1:
        raise BadSpecError("sandwich matrix must be rectangular and nonempty")
    ii = len(sandwich[0])
    for row in sandwich:
        for v in row:
            if not 0 <= v < g.order:
                raise BadSpecError(f"sandwich entry {v} is not a group element")
    identity, inv = _group_inverses(g)
    t = g.table
    p = [
        [t[t[inv[sandwich[l][0]]][sandwich[l][i]]][t[inv[sandwich[0][i]]][sandwich[0][0]]] for i in range(ii)]
        for l in range(lam)
    ]
    size = ii * g.order * lam

    def idx(i: int, x: int, l: int) -> int:
        return (i * g.order + x) * lam + l

    rows = [[0] * size for _ in range(size)]
    for i in range(ii):
        for x in range(g.order):
            for l in range(lam):
                for j in range(ii):
                    for y in range(g.order):
                        for m in range(lam):
                            rows[idx(i, x, l)][idx(j, y, m)] = idx(i, t[t[x][p[l][j]]][y], m)
    labels = [f"({i},{x},{l})" for i in range(ii) for x in range(g.order) for l in range(lam)]
    return validate_table(rows, labels)


def strong_semilattice(
    y: CayleyTable,
    components: Sequence[CayleyTable],
    homs: dict[tuple[int, int], Sequence[int]],
) -> CayleyTable:
    """Glue components along the semilattice ``y`` using the structure maps.

    ``homs[(a, b)]`` carries component ``a`` into component ``b`` and must be
    present for every strictly comparable pair a > b; maps must be
    homomorphisms and compose along chains.
    """
    ty = y.table
    k = y.order
    for a in range(k):
        if ty[a][a] != a:
            raise BadSpecError("structure table is not idempotent")
        for b in range(k):
            if ty[a][b] != ty[b][a]:
                raise BadSpecError("structure table is not commutative")
    if len(components) != k:
        raise BadSpecError(f"{len(components)} components for {k} semilattice elements")

    def hom(a: int, b: int) -> Sequence[int]:
        if a == b:
            return tuple(range(components[a].order))
        m = homs.get((a, b))
        if m is None:
            raise BadSpecError(f"missing structure map {a}->{b}")
        return m

    for (a, b), m in homs.items():
        if ty[a][b] != b or a == b:
            raise BadSpecError(f"structure map {a}->{b} does not descend the semilattice")
        src, dst = components[a], components[b]
        if len(m) != src.order or any(not 0 <= v < dst.order for v in m):
            raise BadSpecError(f"structure map {a}->{b} has the wrong shape")
        for x in range(src.order):
            for z in range(src.order):
                if m[src.table[x][z]] != dst.table[m[x]][m[z]]:
                    raise BadSpecError(f"structure map {a}->{b} is not a homomorphism")
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if a != b and b != c and ty[a][b] == b and ty[b][c] == c:
                    ab, bc, ac = hom(a, b), hom(b, c), hom(a, c)
                    if any(bc[ab[x]] != ac[x] for x in range(components[a].order)):
                        raise BadSpecError(f"structure maps do not compose along {a}>{b}>{c}")

    offsets = []
    total = 0
    for comp in components:
        offsets.append(total)
        total += comp.order
    rows = [[0] * total for _ in range(total)]
    for a in range(k):
        for b in range(k):
            c = ty[a][b]
            ha, hb = hom(a, c), hom(b, c)
            for x in range(components[a].order):
                for z in range(components[b].order):
                    rows[offsets[a] + x][offsets[b] + z] = offsets[c] + components[c].table[ha[x]][hb[z]]
    return validate_table(rows)


def _positive(n: int) -> None:
    if n < 1:
        raise BadSpecError(f"size must be positive, got {n}")


def _relabellings(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Each permutation ``perm`` of 0..n-1, identity first, with its inverse:
    element i of a relabelled table stands for element ``perm[i]``."""
    return [(perm, sorted(range(n), key=perm.__getitem__)) for perm in itertools.permutations(range(n))]


def canonical_form(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of the table over all permutations."""
    rng = range(len(rows))
    relabelled = (tuple(tuple(inv[rows[perm[i]][perm[j]]] for j in rng) for i in rng) for perm, inv in _relabellings(len(rows)))
    return min(relabelled)


def enumerate_small(n: int) -> list[CayleyTable]:
    """Every semigroup of order ``n`` <= 3, one table per isomorphism class.

    Backtracking: the table is filled cell by cell in row-major order, and a
    value is kept only while every associativity triple whose four products
    are already filled holds, and no relabelling reads lexicographically
    smaller on the cells filled so far.  So each complete table is its own
    :func:`canonical_form`, and the fill finds the classes in ascending order.
    """
    if n > 3:
        raise OrderTooLargeError(f"exhaustive enumeration is capped at order 3, got {n}")
    _positive(n)
    rng = range(n)
    t: list[list[int | None]] = [[None] * n for _ in rng]
    cells = [(i, j) for i in rng for j in rng]
    # per non-identity relabelling: the cell that each cell of the relabelled table reads
    moved = [(inv, [(perm[i], perm[j]) for i, j in cells]) for perm, inv in _relabellings(n)[1:]]
    found: list[CayleyTable] = []

    def consistent() -> bool:
        for x in rng:
            tx = t[x]
            for y in rng:
                xy = tx[y]
                if xy is None:
                    continue
                txy, ty = t[xy], t[y]
                for z in rng:
                    yz = ty[z]
                    if yz is None:
                        continue
                    left, right = txy[z], tx[yz]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def lex_least() -> bool:
        # the first cell where a relabelling differs decides, while both cells are filled
        for inv, sources in moved:
            for (i, j), (a, b) in zip(cells, sources):
                mine, theirs = t[i][j], t[a][b]
                if mine is None or theirs is None:
                    break
                if inv[theirs] != mine:
                    if inv[theirs] < mine:
                        return False
                    break
        return True

    def fill(cell: int) -> None:
        if cell == n * n:
            found.append(CayleyTable(n, tuple(map(tuple, t))))
            return
        row = t[cell // n]
        for v in rng:
            row[cell % n] = v
            if consistent() and lex_least():
                fill(cell + 1)
        row[cell % n] = None

    fill(0)
    return found


def _collapse_hom(src: CayleyTable, target_element: int) -> tuple[int, ...]:
    return tuple(target_element for _ in range(src.order))


def _named_small_families() -> list[tuple[str, CayleyTable]]:
    trivial = left_zero(1)
    l2, r2, z2 = left_zero(2), right_zero(2), cyclic_group(2)
    l3, r3, z3 = left_zero(3), right_zero(3), cyclic_group(3)
    chain2, chain3 = chain_semilattice(2), chain_semilattice(3)
    vee = validate_table([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    null2 = validate_table([[0, 0], [0, 0]])
    clifford3 = strong_semilattice(chain2, [trivial, z2], {(1, 0): _collapse_hom(z2, 0)})
    lz2_over_zero = strong_semilattice(chain2, [trivial, l2], {(1, 0): _collapse_hom(l2, 0)})
    rz2_over_zero = strong_semilattice(chain2, [trivial, r2], {(1, 0): _collapse_hom(r2, 0)})
    point_over_lz2 = strong_semilattice(chain2, [l2, trivial], {(1, 0): (0,)})
    point_over_rz2 = strong_semilattice(chain2, [r2, trivial], {(1, 0): (0,)})
    rb22 = rect_band(2, 2)
    rees_z2 = rees_matrix(z2, [[0], [0]])
    z2_over_lz2 = strong_semilattice(chain2, [l2, z2], {(1, 0): _collapse_hom(z2, 0)})
    lz2_tower = strong_semilattice(chain2, [l2, l2], {(1, 0): (0, 1)})
    rz2_tower = strong_semilattice(chain2, [r2, r2], {(1, 0): (0, 1)})
    z3_over_zero = strong_semilattice(chain2, [trivial, z3], {(1, 0): _collapse_hom(z3, 0)})
    vee_lz2_top = strong_semilattice(
        vee, [trivial, l2, trivial], {(1, 0): _collapse_hom(l2, 0), (2, 0): (0,)}
    )
    rb22_over_zero = strong_semilattice(chain2, [trivial, rb22], {(1, 0): _collapse_hom(rb22, 0)})
    tower_z2_lz2_zero = strong_semilattice(
        chain3,
        [trivial, l2, z2],
        {
            (2, 1): _collapse_hom(z2, 0),
            (1, 0): _collapse_hom(l2, 0),
            (2, 0): _collapse_hom(z2, 0),
        },
    )
    rees_z3 = rees_matrix(z3, [[0], [0]])
    rb22_over_lz2 = strong_semilattice(
        chain2, [l2, rb22], {(1, 0): tuple(i for i in range(2) for _ in range(2))}
    )
    return [
        ("trivial", trivial),
        ("left-zero-2", l2),
        ("right-zero-2", r2),
        ("cyclic-2", z2),
        ("chain-2", chain2),
        ("null-2", null2),
        ("left-zero-3", l3),
        ("right-zero-3", r3),
        ("cyclic-3", z3),
        ("chain-3", chain3),
        ("vee-semilattice", vee),
        ("clifford-3", clifford3),
        ("lz2-over-zero", lz2_over_zero),
        ("rz2-over-zero", rz2_over_zero),
        ("point-over-lz2", point_over_lz2),
        ("point-over-rz2", point_over_rz2),
        ("cyclic-4", cyclic_group(4)),
        ("klein-4", klein_four()),
        ("rect-band-2-2", rb22),
        ("rees-z2-2x1", rees_z2),
        ("z2-over-lz2", z2_over_lz2),
        ("lz2-tower", lz2_tower),
        ("rz2-tower", rz2_tower),
        ("z3-over-zero", z3_over_zero),
        ("vee-lz2-top", vee_lz2_top),
        ("lz3-monoid", adjoin_identity(l3)),
        ("rz3-monoid", adjoin_identity(r3)),
        ("cyclic-5", cyclic_group(5)),
        ("left-zero-5", left_zero(5)),
        ("rb22-over-zero", rb22_over_zero),
        ("tower-z2-lz2-zero", tower_z2_lz2_zero),
        ("cyclic-6", cyclic_group(6)),
        ("sym-3", _symmetric_3()),
        ("rect-band-2-3", rect_band(2, 3)),
        ("rees-z3-2x1", rees_z3),
        ("rb22-over-lz2", rb22_over_lz2),
        ("tower-12", tower_12()),
    ]


def _symmetric_3() -> CayleyTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return validate_table(rows)


def tower_12() -> CayleyTable:
    """An order-12 completely regular semigroup on a three-element chain."""
    z3 = cyclic_group(3)
    l3 = left_zero(3)
    big = direct_product(z3, l3)  # a left group of order 9
    l2 = left_zero(2)
    trivial = left_zero(1)
    # flattened as group-major, so index % 3 is the left-zero coordinate;
    # a map into a left zero semigroup may only depend on that coordinate
    top_to_mid = tuple((i % 3) % 2 for i in range(9))
    return strong_semilattice(
        chain_semilattice(3),
        [trivial, l2, big],
        {
            (2, 1): top_to_mid,
            (1, 0): _collapse_hom(l2, 0),
            (2, 0): tuple(0 for _ in range(9)),
        },
    )


@lru_cache(maxsize=None)
def corpus(profile: str = "full") -> tuple[tuple[str, CayleyTable], ...]:
    """Deterministic named corpus; ``quick`` keeps only orders up to 4."""
    if profile not in ("full", "quick"):
        raise BadSpecError(f"unknown corpus profile {profile!r}")
    named = _named_small_families()
    known = {canonical_form(s.table) for _, s in named if s.order == 3}
    extras = [s for s in enumerate_small(3) if s.table not in known]
    members = named + [(f"order3-{i:02d}", s) for i, s in enumerate(extras)]
    if profile == "quick":
        members = [(name, s) for name, s in members if s.order <= 4]
    return tuple(members)
