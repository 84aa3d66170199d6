"""Validated Cayley-table semigroups: Green's relations, complete regularity,
and the natural partial order.

Elements are the indices 0..n-1; a semigroup is just its n x n product table.
Subsets of the carrier are n-bit int masks.  Data derived from a table is
kept on the table instance, see :func:`derived`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import wraps

from .errors import (
    EmptySubsetError,
    EntryOutOfRangeError,
    NotAssociativeError,
    NotCompletelyRegularError,
    NotSubsemigroupError,
    ParentMismatchError,
    TableShapeError,
)


class CayleyTable:
    """A product table on 0..order-1, equal and hashed by (order, table, labels)."""

    def __init__(self, order: int, table: tuple[tuple[int, ...], ...], labels: tuple[str, ...] | None = None):
        self.order = order
        self.table = table
        self.labels = labels
        # filled by @derived functions; freed with the table, not shared by equal tables
        self._derived = {}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CayleyTable):
            return NotImplemented
        return (self.order, self.table, self.labels) == (other.order, other.table, other.labels)

    def __hash__(self) -> int:
        return hash((self.order, self.table, self.labels))

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def __repr__(self) -> str:
        return f"CayleyTable(order={self.order})"


def bits(mask: int):
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int):
    """Yield the nonempty submasks of ``mask``, descending."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def derived(fn):
    """Compute ``fn(s)`` once per table instance and keep it in ``s._derived``,
    freed with the table; an equal table built separately computes its own.
    Every caller gets the same value, so callers must not mutate it."""

    @wraps(fn)
    def cached(s: "CayleyTable"):
        try:
            return s._derived[fn]
        except KeyError:
            value = s._derived[fn] = fn(s)
            return value

    return cached


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def subset_or(images: Sequence[int]) -> list[int]:
    """``out[B]`` is the OR of ``images[j]`` over the bits j of B, for every
    mask B below ``1 << len(images)``: one doubling per image, since the
    masks with j as highest bit are those below ``1 << j`` with j added."""
    out = [0]
    for img in images:
        out += [v | img for v in out]
    return out


def check_subset_mask(s: CayleyTable, mask: int) -> int:
    """``mask`` itself, once checked to be a nonempty subset of the carrier."""
    if mask == 0:
        raise EmptySubsetError("subsets here must be nonempty")
    if mask < 0 or mask >> s.order:
        raise ParentMismatchError(f"mask {mask:#x} is not a subset of the order-{s.order} carrier")
    return mask


class GreenData:
    """Per element: its L-, R-, H- and D-class ids, whether it is idempotent,
    and the identity of its H-class where that is a group, else None."""

    def __init__(self, lclass: tuple[int, ...], rclass: tuple[int, ...], hclass: tuple[int, ...], dclass: tuple[int, ...],
                 idempotent: tuple[bool, ...], local_identity: tuple[int | None, ...]):
        self.lclass = lclass
        self.rclass = rclass
        self.hclass = hclass
        self.dclass = dclass
        self.idempotent = idempotent
        self.local_identity = local_identity


class NaturalOrder:
    """``leq[a][b]`` says a <= b, and ``maximal[a]`` that nothing is above a."""

    def __init__(self, leq: tuple[tuple[bool, ...], ...], maximal: tuple[bool, ...]):
        self.leq = leq
        self.maximal = maximal


def validate_table(raw: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> CayleyTable:
    """Check shape, entry range and associativity; return the table of tuples."""
    if not isinstance(raw, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in raw):
        raise TableShapeError("table must be a list of rows, each a list of entries")
    rows = [tuple(row) for row in raw]
    n = len(rows)
    if n == 0:
        raise TableShapeError("table has no rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise TableShapeError(f"row {i} has {len(row)} entries, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise EntryOutOfRangeError(i, j, v, n)
    t = tuple(rows)
    for i in range(n):
        ti = t[i]
        for j in range(n):
            tij = t[ti[j]]
            tj = t[j]
            for k in range(n):
                if tij[k] != ti[tj[k]]:
                    raise NotAssociativeError(i, j, k)
    lab = None
    if labels is not None:
        if not isinstance(labels, (list, tuple)):
            raise TableShapeError("labels must be a list")
        lab = tuple(str(x) for x in labels)
        if len(lab) != n:
            raise TableShapeError(f"{len(lab)} labels for {n} elements")
        if len(set(lab)) != n:
            raise TableShapeError("labels must be distinct")
    return CayleyTable(n, t, lab)


def idempotents(s: CayleyTable) -> tuple[int, ...]:
    return tuple(a for a in range(s.order) if s.table[a][a] == a)


def number_classes(keys: Iterable) -> list[int]:
    """Class ids of ``keys`` in order of first occurrence, so the first key
    of each class names it."""
    ids: dict = {}
    return [ids.setdefault(k, len(ids)) for k in keys]


@derived
def green_relations(s: CayleyTable) -> GreenData:
    """L/R/H classes by principal-ideal equality, D as L∘R, plus per-element
    group data.

    ``local_identity`` is filled exactly for the elements whose H-class is a
    group (detected by a*a staying H-related to a).
    """
    n = s.order
    t = s.table
    rng = range(n)
    # S^1 a is column a with a, a S^1 is row a with a
    lideal = [frozenset(col).union((a,)) for a, col in enumerate(zip(*t))]
    rideal = [frozenset(row).union((a,)) for a, row in enumerate(t)]
    lclass = tuple(number_classes(lideal))
    rclass = tuple(number_classes(rideal))
    hclass = tuple(number_classes(zip(lclass, rclass)))
    # a D b iff a L c R b for some c: the D-class of a is the union of the
    # R-classes that meet the L-class of a
    r_meeting: dict[int, set[int]] = {}
    for a in rng:
        r_meeting.setdefault(lclass[a], set()).add(rclass[a])
    dclass = tuple(number_classes([frozenset(r_meeting[lclass[a]]) for a in rng]))

    idem = tuple(t[a][a] == a for a in rng)
    local_identity: list[int | None] = [None] * n
    h_members: dict[int, list[int]] = {}
    for a in rng:
        h_members.setdefault(hclass[a], []).append(a)
    for members in h_members.values():
        a0 = members[0]
        if hclass[t[a0][a0]] != hclass[a0]:
            continue
        es = [e for e in members if idem[e]]
        if len(es) != 1:
            continue  # a group H-class has exactly one idempotent
        for a in members:
            local_identity[a] = es[0]
    return GreenData(lclass, rclass, hclass, dclass, idem, tuple(local_identity))


def is_completely_regular(s: CayleyTable) -> bool:
    """True iff every H-class is a group."""
    g = green_relations(s)
    return all(e is not None for e in g.local_identity)


def is_completely_simple(s: CayleyTable) -> bool:
    """True iff the identity a = (a*x)^0 * a holds for all a, x."""
    if not is_completely_regular(s):
        raise NotCompletelyRegularError("complete simplicity is checked for completely regular input")
    g = green_relations(s)
    t = s.table
    for a in range(s.order):
        for x in range(s.order):
            e = g.local_identity[t[a][x]]
            if t[e][a] != a:
                return False
    return True


def is_left_zero(s: CayleyTable) -> bool:
    return all(s.table[i][j] == i for i in range(s.order) for j in range(s.order))


def is_right_zero(s: CayleyTable) -> bool:
    return all(s.table[i][j] == j for i in range(s.order) for j in range(s.order))


@derived
def natural_order(s: CayleyTable) -> NaturalOrder:
    """a <= b iff a = e*b = b*f for some idempotents e, f."""
    n = s.order
    t = s.table
    es = idempotents(s)
    leq = []
    for a in range(n):
        row = []
        for b in range(n):
            row.append(any(t[e][b] == a for e in es) and any(t[b][f] == a for f in es))
        leq.append(tuple(row))
    maximal = tuple(not any(leq[a][b] and b != a for b in range(n)) for a in range(n))
    return NaturalOrder(tuple(leq), maximal)


def is_subsemigroup_mask(s: CayleyTable, mask: int) -> bool:
    check_subset_mask(s, mask)
    t = s.table
    for i in bits(mask):
        row = t[i]
        for j in bits(mask):
            if not (mask >> row[j]) & 1:
                return False
    return True


def restrict(s: CayleyTable, elements: Sequence[int]) -> CayleyTable:
    """Sub-table on ``elements`` (which must be closed), reindexed by position."""
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    rows = []
    for a in elems:
        row = []
        for b in elems:
            p = s.table[a][b]
            if p not in index:
                raise NotSubsemigroupError(f"{a}*{b}={p} escapes the subset")
            row.append(index[p])
        rows.append(tuple(row))
    lab = tuple(s.label(e) for e in elems) if s.labels is not None else None
    return CayleyTable(len(elems), tuple(rows), lab)
