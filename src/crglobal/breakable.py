"""Subsemigroups whose short products stay among their factors.

A subsemigroup is breakable when every pair product is one of the two
factors; the weaker triple condition allows one extra shape, a two-element
group on top of the chain.  Both classes admit product-level
characterizations that are scanned by brute force here.  Subsets are int
masks.
"""

from __future__ import annotations

from .core import CayleyTable, bits, derived, green_relations, is_subsemigroup_mask
from .errors import NotA3Error, NotIdempotentError, NotSubsemigroupError
from .power import Power, positions, power_of
from .structure import decompose, id_set_mask

TWO_GROUP_TOP = "two-group-top"


class BreakableForm:
    """Chain decomposition of a qualifying subsemigroup, bottom chunk first.

    Lower chunks absorb higher ones on both sides; every chunk is a left or
    right zero set except possibly the last, which may be a two-element group.
    """

    def __init__(self, chunks: tuple[int, ...], kinds: tuple[str, ...]):
        self.chunks = chunks
        self.kinds = kinds

    @property
    def has_group_top(self) -> bool:
        return bool(self.kinds) and self.kinds[-1] == TWO_GROUP_TOP


def satisfies_an_mask(s: CayleyTable, mask: int, n: int) -> bool:
    """All length-``n`` products over the subset land among their own factors."""
    if not is_subsemigroup_mask(s, mask):
        raise NotSubsemigroupError("the product condition is defined for subsemigroups")
    if n < 2:
        raise ValueError("the condition starts at length 2")
    return _products_among_factors(s.table, mask, n)


def is_a3_mask(s: CayleyTable, mask: int) -> bool:
    """The subset is closed and satisfies the triple condition; unlike
    ``satisfies_an_mask``, a subset that is not closed gives False."""
    return is_subsemigroup_mask(s, mask) and _products_among_factors(s.table, mask, 3)


def _products_among_factors(t, mask: int, n: int) -> bool:
    # the scan of satisfies_an_mask, for a mask already known to be closed
    elems = tuple(bits(mask))

    def scan(prefix_product: int, allowed: int, depth: int) -> bool:
        if depth == n:
            return bool((allowed >> prefix_product) & 1)
        for a in elems:
            nxt = t[prefix_product][a] if depth else a
            if not scan(nxt, allowed | (1 << a), depth + 1):
                return False
        return True

    return scan(0, 0, 0)


@derived
def enumerate_a3_masks(s: CayleyTable) -> dict[int, None]:
    """The triple-condition subsemigroups ascending, as the keys of a dict so
    that membership is one lookup, like the two enumerations below."""
    # A is closed exactly when A*A lies inside A
    squares = power_of(s).squares
    t = s.table
    return dict.fromkeys(m for m in range(1, 1 << s.order) if squares[m] | m == m and _products_among_factors(t, m, 3))


@derived
def enumerate_a2_masks(s: CayleyTable) -> dict[int, None]:
    """The pair-condition subsemigroups, filtered from the triple-condition
    ones: ab in {a, b} gives abc in {ab, c}, inside {a, b, c}."""
    t = s.table
    return dict.fromkeys(m for m in enumerate_a3_masks(s) if _products_among_factors(t, m, 2))


@derived
def enumerate_a2bar_masks(s: CayleyTable) -> dict[int, None]:
    """Breakable subsemigroups supported on a single component."""
    dec = decompose(s)
    return dict.fromkeys(m for m in enumerate_a2_masks(s) if len(id_set_mask(m, dec)) == 1)


def structural_form(s: CayleyTable, am: int) -> BreakableForm:
    """Chain-of-chunks shape of the subset ``am`` satisfying the triple
    condition, its chunks as masks.

    The subset A, viewed as a semigroup of its own, satisfies x*x*x = x, so
    it is completely regular and its D-classes, the chunks, form a chain in
    which lower chunks absorb higher ones.  Each chunk is A meet a D-class of
    ``s``, in any finite semigroup: if e lies in a lower left zero chunk and
    f = b*b in a higher one, then e*f lies in e's chunk, so e*f = e and
    e <=_L f.  Were e J f as well, finiteness would give e L f, so f*e = f
    would lie in e's chunk, a contradiction.  The right zero case is dual,
    and only the top chunk may be neither.
    """
    if not is_a3_mask(s, am):
        raise NotA3Error("structural form needs the triple-product condition")
    t = s.table
    dclass = green_relations(s).dclass
    chunks: dict[int, int] = {}
    for e in bits(am):
        chunks[dclass[e]] = chunks.get(dclass[e], 0) | 1 << e
    reps = {m: (m & -m).bit_length() - 1 for m in chunks.values()}
    # a chunk's rank counts the chunks holding its representative's product with theirs
    rank = {m: sum((d >> t[r][reps[m]]) & 1 for d, r in reps.items()) for m in reps}
    ordered = sorted(reps, key=rank.__getitem__)
    if sorted(rank.values()) != list(range(1, len(ordered) + 1)):
        raise NotA3Error("component support is not a chain")
    kinds = []
    for m in ordered:
        elems = tuple(bits(m))
        if all(t[x][y] == x for x in elems for y in elems):
            kinds.append("left-zero")
        elif all(t[x][y] == y for x in elems for y in elems):
            kinds.append("right-zero")
        elif m == ordered[-1] and len(elems) == 2:
            kinds.append(TWO_GROUP_TOP)
        else:
            raise NotA3Error("non-zero chunk off the top of the chain")
    return BreakableForm(tuple(ordered), tuple(kinds))


def a3_counterexample(p: Power, am: int) -> int | None:
    """First B with B*B = B*A = A but B != A, or None when A is rigid."""
    if not p.is_idempotent_mask(am):
        raise NotIdempotentError("the rigidity scan applies to idempotent subsets")
    for bm in positions(p.squares, am):
        if bm != am and p.product_mask(bm, am) == am:
            return bm
    return None


def a3_characterization(p: Power, am: int) -> bool:
    return a3_counterexample(p, am) is None


def a2_counterexample(p: Power, am: int) -> int | None:
    """First B with A*S = B*S and B*A = A*B = A whose square moves, or None."""
    if not is_a3_mask(p.base, am):
        raise NotA3Error("the idempotency scan applies below the triple-product class")
    ideals = p.right_ideals
    squares = p.squares
    for bm in positions(ideals, ideals[am]):
        if squares[bm] != bm and p.product_mask(bm, am) == am and p.product_mask(am, bm) == am:
            return bm
    return None


def a2_characterization(p: Power, am: int) -> bool:
    return a2_counterexample(p, am) is None


def left_zero_subset_masks(s: CayleyTable) -> list[int]:
    """All left zero subsemigroups ascending, as masks (singleton idempotents
    included); each satisfies the pair condition, since ab = a."""
    t = s.table
    return [m for m in enumerate_a2_masks(s) if all(t[i][j] == i for i in bits(m) for j in bits(m))]
