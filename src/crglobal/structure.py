"""Semilattice decomposition of a completely regular semigroup.

The D-classes of a completely regular semigroup are completely simple, and
the quotient by D is a semilattice; the decomposition records both, plus a
kind tag per component (left zero / right zero / neither).  Components and
supports are int masks over the carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CayleyTable, bits, check_subset_mask, derived, green_relations, is_completely_regular, is_completely_simple, is_left_zero, is_right_zero, mask_of, restrict
from .errors import DecompositionError, NotCompletelyRegularError

LEFT_ZERO = "left-zero"
RIGHT_ZERO = "right-zero"
CS0 = "cs0"


@dataclass(frozen=True)
class Decomposition:
    base: CayleyTable
    semilattice: CayleyTable
    component_of: tuple[int, ...]
    components: tuple[int, ...]
    classification: tuple[str, ...]

    @property
    def count(self) -> int:
        return self.semilattice.order

    def component_elements(self, alpha: int) -> tuple[int, ...]:
        return tuple(bits(self.components[alpha]))

    def leq(self, alpha: int, beta: int) -> bool:
        """alpha <= beta in the structure semilattice."""
        return self.semilattice.table[alpha][beta] == alpha

    def lt(self, alpha: int, beta: int) -> bool:
        return alpha != beta and self.leq(alpha, beta)


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
    return Decomposition(s, semilattice, tuple(component_of), tuple(comps), tuple(tags))


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
