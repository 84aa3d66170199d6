"""The power semigroup of a finite semigroup, computed over bitmasks.

Subset products come from per-element translate rows: ``row_i[B]`` is the
mask of {i}*B for every mask B, and A*B is the OR of ``row_i[B]`` over the
elements i of A.  The rows, the vectors of squares B*B and right ideals B*S
and the list of idempotent subsets are built with the power semigroup, the
vectors by :func:`subset_or`, and stored as compact arrays (order 12:
12 x 4096 entries); :func:`power_of` keeps one power semigroup per table.
Each size bound is a module constant, checked where the structure it
protects is built.  The order/cover/Green structure is computed on demand;
Green classes come from :func:`green_relations` of the materialized power
table only.  Subsets are int masks throughout.
"""

from __future__ import annotations

import sys
from array import array

from .core import CayleyTable, GreenData, check_subset_mask, derived, green_relations, subset_or
from .errors import NotComparableError, NotIdempotentError, OrderTooLargeError

# masks are stored as 16-bit array entries
MAX_ORDER = 16
# elements of the materialized power table, (2^n - 1)^2 Python ints at order n:
# power_table(left_zero(n)) peaks at 17, 21, 49 and 168 MB for n = 8..11, about
# 4x per order, so a 200 MB budget admits bases up to order 11
MAX_TABLE_SIZE = (1 << 11) - 1
# base order up to which power_green runs green_relations on the power table
MAX_GREEN_ORDER = 8


class Power:
    """Power semigroup of ``base``: ``rows[i][B]`` is {i}*B, ``squares[B]``
    is B*B and ``right_ideals[B]`` is B*S, each 0 at the empty mask."""

    def __init__(self, base: CayleyTable):
        if base.order > MAX_ORDER:
            raise OrderTooLargeError(f"order {base.order} exceeds the enumeration bound {MAX_ORDER}")
        self.base = base
        self.n = base.order
        self.full_mask = full = (1 << self.n) - 1
        t = base.table
        self.rows = [array("H", subset_or([1 << x for x in row])) for row in t]
        # with A = a + {j}, a below j: A*A = a*a | a*{j} | {j}*A
        sq = array("H", [0])
        for j, row in enumerate(self.rows):
            col = subset_or([1 << t[x][j] for x in range(j)])
            sq += array("H", [s | c | r for s, c, r in zip(sq, col, row[1 << j : 2 << j])])
        self.squares = sq
        self.right_ideals = array("H", subset_or([row[full] for row in self.rows]))
        self._idempotents = [m for m in range(1, full + 1) if sq[m] == m]

    # -- products ---------------------------------------------------------

    def product_mask(self, am: int, bm: int) -> int:
        rows = self.rows
        out = 0
        while am:
            low = am & -am
            out |= rows[low.bit_length() - 1][bm]
            am ^= low
        return out

    def is_idempotent_mask(self, m: int) -> bool:
        return self.squares[check_subset_mask(self.base, m)] == m

    # -- idempotent subsets and their order --------------------------------

    def idempotent_masks(self) -> list[int]:
        return self._idempotents

    def ep_leq_mask(self, am: int, bm: int) -> bool:
        if not (self.is_idempotent_mask(am) and self.is_idempotent_mask(bm)):
            raise NotIdempotentError("the order is defined on idempotent subsets only")
        return self.product_mask(am, bm) == am and self.product_mask(bm, am) == am

    def ep_lt_mask(self, am: int, bm: int) -> bool:
        return self.ep_leq_mask(am, bm) and am != bm

    def covers(self, am: int, bm: int) -> bool:
        """True iff no idempotent subset sits strictly between A and B; the
        strict order itself excludes C = A and C = B."""
        if not self.ep_lt_mask(am, bm):
            raise NotComparableError("cover checks need a strictly ordered pair")
        for cm in self.idempotent_masks():
            if self.ep_lt_mask(am, cm) and self.ep_lt_mask(cm, bm):
                return False
        return True

    # -- Green structure ---------------------------------------------------

    def h_class(self, am: int) -> list[int]:
        """H-class of A in the power semigroup, read from :meth:`power_green`,
        so a base above ``MAX_GREEN_ORDER`` is refused."""
        check_subset_mask(self.base, am)
        hclass = self.power_green().hclass
        return [i + 1 for i in positions(hclass, hclass[am - 1])]

    def power_green(self) -> GreenData:
        """Green classes over every nonempty subset, indexed by mask - 1:
        :func:`green_relations` of the materialized power table."""
        check_green_order(self.n)
        return green_relations(power_table(self.base))


def check_green_order(n: int) -> None:
    """Refuse a base above the order at which :meth:`Power.power_green` runs."""
    if n > MAX_GREEN_ORDER:
        raise OrderTooLargeError(f"order {n} exceeds the power-Green bound {MAX_GREEN_ORDER}")


@derived
def power_of(s: CayleyTable) -> Power:
    """The power semigroup of ``s``, built once per table instance."""
    return Power(s)


@derived
def power_table(s: CayleyTable) -> CayleyTable:
    """The power semigroup materialized over mask-1 indices.

    Each row is one int of 16-bit lanes, lane B holding the mask of A*B:
    the OR of the translate rows of the elements of A.  Subtracting a lane
    of ones turns masks into indices without a borrow, since a product of
    nonempty subsets is nonempty.
    """
    size = (1 << s.order) - 1
    if size > MAX_TABLE_SIZE:
        raise OrderTooLargeError(f"power semigroup has {size} elements, bound is {MAX_TABLE_SIZE}")
    order = sys.byteorder  # the byte order of array("H")
    lanes = subset_or([int.from_bytes(row, order) for row in power_of(s).rows])
    # lane 0, the empty mask, is 0 in every row and is dropped
    ones = int.from_bytes(array("H", [0] + [1] * size), order)
    width = 2 * (size + 1)
    # entries are read from one list, so that equal entries share one int
    # object also above 256, past CPython's shared small ints
    shared = list(range(size)).__getitem__
    rows = []
    for lane in lanes[1:]:
        row = array("H")
        row.frombytes((lane - ones).to_bytes(width, order))
        rows.append(tuple(map(shared, row[1:])))
    return CayleyTable(size, tuple(rows))


def positions(vector: array | tuple[int, ...], value: int):
    """Ascending indices i with ``vector[i] == value``; the scan runs in C."""
    i = -1
    while True:
        try:
            i = vector.index(value, i + 1)
        except ValueError:
            return
        yield i
