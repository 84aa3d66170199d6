"""Closed forms for the idempotent subsets of small families, and for the
H-classes of the subgroups of a group.

Each expectation is computed from the element table alone, never from
``crglobal.power``; the power semigroup gives only the values under test,
``power_of(s).idempotent_masks()`` and ``power_of(s).h_class(m)``.
"""

import pytest

from crglobal import families
from crglobal.core import CayleyTable
from crglobal.power import Power, power_of


def mask_of(elements):
    return sum(1 << x for x in set(elements))


def elements_of(mask, n):
    return [x for x in range(n) if mask >> x & 1]


def idempotent_mismatches(s, expected):
    """The masks in exactly one of ``power_of(s).idempotent_masks()`` and ``expected``."""
    return sorted(set(power_of(s).idempotent_masks()) ^ set(expected))


def group_inverses(s):
    """The identity and the inverse of each element when ``s`` is a group, else None."""
    n, t = s.order, s.table
    identities = [e for e in range(n) if all(t[e][x] == x == t[x][e] for x in range(n))]
    if not identities:
        return None
    e = identities[0]
    inverse = [next((y for y in range(n) if t[x][y] == e == t[y][x]), None) for x in range(n)]
    return None if None in inverse else (e, inverse)


def subgroups(s, e, inverse):
    """The subsets that hold the identity and are closed under products and inverses."""
    n, t = s.order, s.table
    out = []
    for m in range(1, 1 << n):
        elems = elements_of(m, n)
        if m >> e & 1 and all(m >> inverse[x] & 1 and all(m >> t[x][y] & 1 for y in elems) for x in elems):
            out.append(m)
    return out


def rectangles(s):
    """The subsets I' x J' of a rectangular band, over nonempty sets of rows
    I' and columns J': a and b share a row when ab = b, and a column when ba = b."""
    n, t = s.order, s.table
    rows = sorted({mask_of(b for b in range(n) if t[a][b] == b) for a in range(n)})
    cols = sorted({mask_of(b for b in range(n) if t[b][a] == b) for a in range(n)})
    out = set()
    for rsel in range(1, 1 << len(rows)):
        for csel in range(1, 1 << len(cols)):
            # rows are disjoint masks, and so are columns
            r = sum(row for i, row in enumerate(rows) if rsel >> i & 1)
            c = sum(col for j, col in enumerate(cols) if csel >> j & 1)
            out.add(r & c)
    return out


def coset(s, g, hm):
    """The left coset gH as a mask."""
    return mask_of(s.table[g][h] for h in elements_of(hm, s.order))


def normalizer(s, hm):
    """The g with gH = Hg."""
    n, t = s.order, s.table
    return [g for g in range(n) if coset(s, g, hm) == mask_of(t[h][g] for h in elements_of(hm, n))]


def h_class_mismatches(s, e, inverse):
    """(H, C) for each subgroup H and each mask C in exactly one of
    ``power_of(s).h_class(H)`` and the cosets gH over g in N_G(H)."""
    out = []
    for hm in subgroups(s, e, inverse):
        cosets = {coset(s, g, hm) for g in normalizer(s, hm)}
        out += [(hm, c) for c in sorted(set(power_of(s).h_class(hm)) ^ cosets)]
    return out


def corpus_groups():
    return [(name, s, group_inverses(s)) for name, s in families.corpus("full") if group_inverses(s)]


def order_8_groups():
    # products at MAX_GREEN_ORDER, the largest base whose power Green classes are read
    z2 = families.cyclic_group(2)
    groups = [
        ("z2-x-z4", families.direct_product(z2, families.cyclic_group(4))),
        ("z2-x-z2-x-z2", families.direct_product(families.klein_four(), z2)),
    ]
    return [(name, s, group_inverses(s)) for name, s in groups]


def test_the_idempotent_subsets_of_a_group_are_its_subgroups():
    groups = corpus_groups()
    # the trivial group and seven more
    assert len(groups) == 8
    for name, s, (e, inverse) in groups:
        assert idempotent_mismatches(s, subgroups(s, e, inverse)) == [], name


def test_the_h_class_of_a_subgroup_is_its_cosets_in_the_normalizer():
    # the H-class of H in P(G) is {gH : g in N_G(H)}, with [N_G(H) : H] members
    sizes = {}
    for name, s, (e, inverse) in corpus_groups() + order_8_groups():
        assert h_class_mismatches(s, e, inverse) == [], name
        hs = subgroups(s, e, inverse)
        sizes[name] = [len(power_of(s).h_class(hm)) for hm in hs]
        assert [size * hm.bit_count() for size, hm in zip(sizes[name], hs)] == [len(normalizer(s, hm)) for hm in hs]
    assert sizes["sym-3"] == [6, 1, 1, 2, 1, 1]
    assert sizes["z2-x-z4"] == [8, 4, 2, 4, 4, 2, 2, 1]
    assert len(sizes["z2-x-z2-x-z2"]) == 16


@pytest.mark.parametrize("p, q", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_a_rectangular_band_has_a_rectangle_of_idempotent_subsets(p, q):
    s = families.rect_band(p, q)
    count = ((1 << p) - 1) * ((1 << q) - 1)
    assert len(rectangles(s)) == len(power_of(s).idempotent_masks()) == count
    assert idempotent_mismatches(s, rectangles(s)) == []


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("build", [families.left_zero, families.chain_semilattice])
def test_every_nonempty_subset_of_a_left_zero_semigroup_or_chain_is_idempotent(build, n):
    s = build(n)
    assert idempotent_mismatches(s, range(1, 1 << n)) == []
    assert len(power_of(s).idempotent_masks()) == (1 << n) - 1


def test_a_planted_translate_row_entry_fails_the_closed_form():
    # negative control: the power semigroup of cyclic-3 built from a table
    # with one wrong product 1*1, so the translate row of 1 is wrong on every
    # subset holding 1; the subgroup and the coset oracles must see the difference
    _, s, (e, inverse) = next(g for g in corpus_groups() if g[0] == "cyclic-3")
    t = CayleyTable(s.order, s.table, s.labels)
    rows = [list(row) for row in s.table]
    assert rows[1][1] != e
    rows[1][1] = e
    t._derived[power_of.__wrapped__] = Power(CayleyTable(s.order, tuple(map(tuple, rows))))
    assert idempotent_mismatches(t, subgroups(t, e, inverse)) != []
    assert idempotent_mismatches(s, subgroups(s, e, inverse)) == []
    # with 1*1 = 0 the singleton {1} leaves the H-class of the trivial subgroup
    assert h_class_mismatches(t, e, inverse) == [(0b001, 0b010)]
    assert h_class_mismatches(s, e, inverse) == []
