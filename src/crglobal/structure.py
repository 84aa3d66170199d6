"""Semilattice decomposition of a completely regular semigroup.

The D-classes of a completely regular semigroup are completely simple, and
the quotient by D is a semilattice; the decomposition records both, plus a
kind tag per component (left zero / right zero / neither), and reads the
order of the semilattice once: the components strictly below and strictly
above each component, and the zero components.  Each zero component is
partitioned by sandwich behaviour.  Components and supports are int masks
over the carrier.
"""

from __future__ import annotations

from .core import CayleyTable, bits, check_subset_mask, derived, green_relations, is_completely_regular, is_completely_simple, is_left_zero, is_right_zero, mask_of, natural_order, restrict
from .errors import DecompositionError, NotCompletelyRegularError, WrongComponentKindError

LEFT_ZERO = "left-zero"
RIGHT_ZERO = "right-zero"
CS0 = "cs0"


class Decomposition:
    def __init__(self, base: CayleyTable, semilattice: CayleyTable, component_of: tuple[int, ...], components: tuple[int, ...],
                 classification: tuple[str, ...], below: tuple[frozenset[int], ...], above: tuple[frozenset[int], ...],
                 zero_components: tuple[int, ...]):
        self.base = base
        self.semilattice = semilattice
        self.component_of = component_of
        self.components = components
        self.classification = classification
        self.below = below
        self.above = above
        self.zero_components = zero_components

    @property
    def count(self) -> int:
        return self.semilattice.order

    def component_elements(self, alpha: int) -> tuple[int, ...]:
        return tuple(bits(self.components[alpha]))


@derived
def decompose(s: CayleyTable) -> Decomposition:
    """Split a completely regular semigroup into its completely simple components."""
    if not is_completely_regular(s):
        raise NotCompletelyRegularError("decomposition requires a completely regular semigroup")
    g = green_relations(s)
    n = s.order
    members: dict[int, list[int]] = {}
    for a in range(n):
        members.setdefault(g.dclass[a], []).append(a)
    # component ids ordered by smallest contained element
    ordered = sorted(members.values(), key=min)
    component_of = [0] * n
    comps = []
    for cid, elems in enumerate(ordered):
        comps.append(mask_of(elems))
        for a in elems:
            component_of[a] = cid
    reps = [min(elems) for elems in ordered]
    k = len(ordered)
    y_rows = tuple(
        tuple(component_of[s.table[reps[a]][reps[b]]] for b in range(k)) for a in range(k)
    )
    semilattice = CayleyTable(k, y_rows)
    _check_semilattice(semilattice)
    for a in range(n):
        for b in range(n):
            if component_of[s.table[a][b]] != y_rows[component_of[a]][component_of[b]]:
                raise DecompositionError(f"product {a}*{b} leaves the expected component")
    tags = []
    for cid, elems in enumerate(ordered):
        sub = restrict(s, elems)
        if is_left_zero(sub):
            tags.append(LEFT_ZERO)
        elif is_right_zero(sub):
            tags.append(RIGHT_ZERO)
        elif is_completely_simple(sub):
            tags.append(CS0)
        else:
            raise DecompositionError(f"component {cid} is not completely simple")
    # beta <= alpha in the semilattice exactly when alpha*beta = beta
    below = tuple(frozenset(b for b in range(k) if y_rows[a][b] == b != a) for a in range(k))
    above = tuple(frozenset(b for b in range(k) if y_rows[a][b] == a != b) for a in range(k))
    zeros = tuple(c for c, tag in enumerate(tags) if tag != CS0)
    return Decomposition(s, semilattice, tuple(component_of), tuple(comps), tuple(tags), below, above, zeros)


def _check_semilattice(y: CayleyTable) -> None:
    t = y.table
    for a in range(y.order):
        if t[a][a] != a:
            raise DecompositionError("quotient is not idempotent")
        for b in range(y.order):
            if t[a][b] != t[b][a]:
                raise DecompositionError("quotient is not commutative")


def id_set_mask(mask: int, dec: Decomposition) -> frozenset[int]:
    """Components meeting the subset: its support in the semilattice."""
    return frozenset({dec.component_of[e] for e in bits(check_subset_mask(dec.base, mask))})


class RhoPartition:
    """Partition of one left/right zero component by sandwich behaviour.

    Two elements fall in one block when both are maximal for the natural
    order and conjugating by them agrees against every element of every
    strictly comparable component; non-maximal elements sit alone.
    """

    def __init__(self, blocks: tuple[tuple[int, ...], ...]):
        self.blocks = blocks

    def block_containing(self, element: int) -> tuple[int, ...] | None:
        for block in self.blocks:
            if element in block:
                return block
        return None


@derived
def _sandwich_partitions(s: CayleyTable) -> dict[int, RhoPartition]:
    """The sandwich partition of each left or right zero component of ``s``."""
    dec = decompose(s)
    maximal = natural_order(s).maximal
    t = s.table
    out = {}
    for alpha in dec.zero_components:
        lower = [b for beta in sorted(dec.below[alpha]) for b in dec.component_elements(beta)]
        upper = [c for gamma in sorted(dec.above[alpha]) for c in dec.component_elements(gamma)]
        elems = dec.component_elements(alpha)
        groups: dict = {}
        blocks: list[tuple[int, ...]] = []
        for a in elems:
            if maximal[a]:
                key = (tuple(t[t[a][b]][a] for b in lower), tuple(t[t[c][a]][c] for c in upper))
                groups.setdefault(key, []).append(a)
            else:
                blocks.append((a,))
        blocks.extend(tuple(v) for v in groups.values())
        blocks.sort(key=lambda blk: blk[0])
        out[alpha] = RhoPartition(tuple(blocks))
    return out


def rho_partition(dec: Decomposition, alpha: int) -> RhoPartition:
    if alpha not in dec.zero_components:
        raise WrongComponentKindError(f"component {alpha} is {dec.classification[alpha]}, need a left or right zero component")
    return _sandwich_partitions(dec.base)[alpha]
