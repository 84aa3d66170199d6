"""Subsemigroups whose short products stay among their factors.

A subsemigroup is breakable when every pair product is one of the two
factors; the weaker triple condition allows one extra shape, a two-element
group on top of the chain.  Both classes admit product-level
characterizations that are scanned by brute force here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import CayleyTable, Subset, bits, is_left_zero, is_right_zero, is_subsemigroup_mask, mask_of, restrict
from .errors import NotA3Error, NotIdempotentError, NotSubsemigroupError, OrderTooLargeError
from .power import MAX_ORDER, Power, positions
from .structure import decompose, id_set_mask

TWO_GROUP_TOP = "two-group-top"


@dataclass(frozen=True)
class BreakableForm:
    """Chain decomposition of a qualifying subsemigroup, bottom chunk first.

    Lower chunks absorb higher ones on both sides; every chunk is a left or
    right zero set except possibly the last, which may be a two-element group.
    """

    chunks: tuple[Subset, ...]
    kinds: tuple[str, ...]

    @property
    def has_group_top(self) -> bool:
        return bool(self.kinds) and self.kinds[-1] == TWO_GROUP_TOP

    def union_mask(self) -> int:
        m = 0
        for c in self.chunks:
            m |= c.mask
        return m


def satisfies_an_mask(s: CayleyTable, mask: int, n: int) -> bool:
    if not is_subsemigroup_mask(s, mask):
        raise NotSubsemigroupError("the product condition is defined for subsemigroups")
    t = s.table
    elems = tuple(bits(mask))
    if n < 2:
        raise ValueError("the condition starts at length 2")

    def scan(prefix_product: int, allowed: int, depth: int) -> bool:
        if depth == n:
            return bool((allowed >> prefix_product) & 1)
        for a in elems:
            nxt = t[prefix_product][a] if depth else a
            if not scan(nxt, allowed | (1 << a), depth + 1):
                return False
        return True

    return scan(0, 0, 0)


def satisfies_an(s: CayleyTable, a: Subset, n: int) -> bool:
    """All length-``n`` products over ``a`` land among their own factors."""
    return satisfies_an_mask(s, a.mask, n)


@lru_cache(maxsize=None)
def enumerate_a3_masks(s: CayleyTable) -> list[int]:
    if s.order > MAX_ORDER:
        raise OrderTooLargeError(f"order {s.order} exceeds the subset-scan bound {MAX_ORDER}")
    out = []
    for m in range(1, 1 << s.order):
        if is_subsemigroup_mask(s, m) and satisfies_an_mask(s, m, 3):
            out.append(m)
    return out


@lru_cache(maxsize=None)
def enumerate_a2_masks(s: CayleyTable) -> list[int]:
    """The pair-condition subsemigroups, filtered from the triple-condition
    ones: ab in {a, b} gives abc in {ab, c}, inside {a, b, c}."""
    return [m for m in enumerate_a3_masks(s) if satisfies_an_mask(s, m, 2)]


@lru_cache(maxsize=None)
def enumerate_a2bar_masks(s: CayleyTable) -> list[int]:
    """Breakable subsemigroups supported on a single component."""
    dec = decompose(s)
    return [m for m in enumerate_a2_masks(s) if len(id_set_mask(m, dec)) == 1]


def enumerate_a2(s: CayleyTable) -> list[Subset]:
    return [Subset(s.order, m) for m in enumerate_a2_masks(s)]


def enumerate_a3(s: CayleyTable) -> list[Subset]:
    return [Subset(s.order, m) for m in enumerate_a3_masks(s)]


def enumerate_a2bar(s: CayleyTable) -> list[Subset]:
    return [Subset(s.order, m) for m in enumerate_a2bar_masks(s)]


def structural_form(s: CayleyTable, a: Subset) -> BreakableForm:
    """Chain-of-chunks shape of a subset satisfying the triple condition.

    The subset, viewed as a semigroup of its own, satisfies x*x*x = x, so it
    is completely regular and decomposes into completely simple components
    over a chain; those components are the chunks.
    """
    if not (is_subsemigroup_mask(s, a.mask) and satisfies_an_mask(s, a.mask, 3)):
        raise NotA3Error("structural form needs the triple-product condition")
    elems = list(bits(a.mask))
    sub = restrict(s, elems)
    dec = decompose(sub)
    k = dec.count
    for x in range(k):
        for y in range(k):
            if not (dec.leq(x, y) or dec.leq(y, x)):
                raise NotA3Error("component support is not a chain")
    order = sorted(range(k), key=lambda c: sum(1 for d in range(k) if dec.leq(d, c)))
    chunks = []
    kinds = []
    for pos, cid in enumerate(order):
        local = dec.component_elements(cid)
        chunk = Subset.of(s.order, (elems[i] for i in local))
        sub_comp = restrict(sub, local)
        if is_left_zero(sub_comp):
            kind = "left-zero"
        elif is_right_zero(sub_comp):
            kind = "right-zero"
        else:
            if pos != k - 1 or sub_comp.order != 2:
                raise NotA3Error("non-zero chunk off the top of the chain")
            kind = TWO_GROUP_TOP
        chunks.append(chunk)
        kinds.append(kind)
    return BreakableForm(tuple(chunks), tuple(kinds))


def a3_counterexample(p: Power, a: Subset) -> Subset | None:
    """First B with B*B = B*A = A but B != A, or None when A is rigid."""
    am = a.mask
    if not p.is_idempotent_mask(am):
        raise NotIdempotentError("the rigidity scan applies to idempotent subsets")
    for bm in positions(p.squares(), am):
        if bm != am and p.product_mask(bm, am) == am:
            return Subset(p.n, bm)
    return None


def a3_characterization(p: Power, a: Subset) -> bool:
    return a3_counterexample(p, a) is None


def a2_counterexample(p: Power, a: Subset) -> Subset | None:
    """First B with A*S = B*S and B*A = A*B = A whose square moves, or None."""
    am = a.mask
    if not (is_subsemigroup_mask(p.base, am) and satisfies_an_mask(p.base, am, 3)):
        raise NotA3Error("the idempotency scan applies below the triple-product class")
    ideals = p.right_ideals()
    squares = p.squares()
    for bm in positions(ideals, ideals[am]):
        if squares[bm] != bm and p.product_mask(bm, am) == am and p.product_mask(am, bm) == am:
            return Subset(p.n, bm)
    return None


def a2_characterization(p: Power, a: Subset) -> bool:
    return a2_counterexample(p, a) is None


def left_zero_subset_masks(s: CayleyTable) -> list[int]:
    """All left zero subsemigroups, as masks (singleton idempotents included)."""
    t = s.table
    idem = mask_of(e for e in range(s.order) if t[e][e] == e)
    out = []
    for m in range(1, 1 << s.order):
        if m & ~idem:
            continue
        if all(t[i][j] == i for i in bits(m) for j in bits(m)):
            out.append(m)
    return out
