import itertools

import pytest
from oracles import oracle_associative_tables, oracle_dual, oracle_relabel_least, oracle_small_semigroups

from crglobal import families
from crglobal.core import green_relations, is_completely_regular, is_completely_simple, is_left_zero, restrict, validate_table
from crglobal.errors import BadSpecError, OrderTooLargeError
from crglobal.families import (
    canonical_form,
    chain_semilattice,
    corpus,
    cyclic_group,
    direct_product,
    enumerate_small,
    left_zero,
    rect_band,
    rees_matrix,
    strong_semilattice,
)
from crglobal.globaldet import find_isomorphisms
from crglobal.structure import decompose


def test_left_zero_table():
    assert left_zero(2).table == ((0, 0), (1, 1))


def test_rect_band_product_rule():
    rb = rect_band(2, 3)
    for i in range(2):
        for u in range(3):
            for j in range(2):
                for v in range(3):
                    assert rb.table[i * 3 + u][j * 3 + v] == i * 3 + v


def test_rees_matrix_example():
    z2 = cyclic_group(2)
    s = rees_matrix(z2, [[0], [0]])
    assert s.order == 4
    assert is_completely_simple(s)
    g = green_relations(s)
    h = [x for x in range(4) if g.hclass[x] == g.hclass[0]]
    assert len(h) == 2
    assert find_isomorphisms(restrict(s, h), z2)


def test_rees_matrix_normalization_is_inert():
    z2 = cyclic_group(2)
    assert rees_matrix(z2, [[0], [1]]).table == rees_matrix(z2, [[0], [0]]).table


def test_rees_matrix_rejects_non_group():
    with pytest.raises(BadSpecError):
        rees_matrix(left_zero(2), [[0]])
    with pytest.raises(BadSpecError):
        rees_matrix(cyclic_group(2), [[0, 2]])


def test_rees_matrix_with_nontrivial_sandwich():
    z2 = cyclic_group(2)
    s = rees_matrix(z2, [[0, 0], [0, 1]])
    assert s.order == 8
    assert is_completely_simple(s)
    dec = decompose(s)
    assert dec.count == 1
    g = green_relations(s)
    for e in range(s.order):
        h = [x for x in range(s.order) if g.hclass[x] == g.hclass[e]]
        assert find_isomorphisms(restrict(s, h), z2)


def test_strong_semilattice_clifford(named):
    z2 = cyclic_group(2)
    built = strong_semilattice(chain_semilattice(2), [left_zero(1), z2], {(1, 0): (0, 0)})
    assert built.table == named["clifford-3"].table


def test_strong_semilattice_rejects_bad_hom():
    z2 = cyclic_group(2)
    with pytest.raises(BadSpecError):
        strong_semilattice(chain_semilattice(2), [z2, z2], {(1, 0): (0, 1, 0)})
    with pytest.raises(BadSpecError):
        strong_semilattice(chain_semilattice(2), [z2, z2], {})
    # swap of the two group elements is a homomorphism only if it fixes 0
    with pytest.raises(BadSpecError):
        strong_semilattice(chain_semilattice(2), [z2, z2], {(1, 0): (1, 0)})


def test_strong_semilattice_rejects_non_composing_homs():
    l2 = left_zero(2)
    point = left_zero(1)
    # 2 > 1 > 0; going 2->1->0 lands on element 0, the direct map says 1
    with pytest.raises(BadSpecError):
        strong_semilattice(
            chain_semilattice(3),
            [l2, l2, point],
            {(2, 1): (0,), (1, 0): (0, 1), (2, 0): (1,)},
        )


def test_strong_semilattice_decomposes_back(cr6):
    specs = [
        (chain_semilattice(2), [left_zero(1), cyclic_group(2)], {(1, 0): (0, 0)}),
        (chain_semilattice(2), [left_zero(2), cyclic_group(2)], {(1, 0): (0, 0)}),
        (
            chain_semilattice(3),
            [left_zero(1), left_zero(2), cyclic_group(2)],
            {(2, 1): (0, 0), (1, 0): (0, 0), (2, 0): (0, 0)},
        ),
    ]
    for y, comps, homs in specs:
        built = strong_semilattice(y, comps, homs)
        dec = decompose(built)
        assert dec.count == y.order
        assert find_isomorphisms(dec.semilattice, y)
        got_sizes = sorted(len(dec.component_elements(a)) for a in range(dec.count))
        assert got_sizes == sorted(c.order for c in comps)


def test_direct_product_preserves_regularity(cr4):
    pool = [s for _, s in cr4][:6]
    for a, b in itertools.combinations(pool, 2):
        assert is_completely_regular(direct_product(a, b))


@pytest.mark.parametrize(
    "make",
    [
        lambda: left_zero(0),
        lambda: families.right_zero(0),
        lambda: cyclic_group(0),
        lambda: chain_semilattice(-1),
        lambda: rect_band(2, 0),
        lambda: enumerate_small(0),
    ],
)
def test_constructors_reject_nonpositive_sizes(make):
    with pytest.raises(BadSpecError):
        make()


def test_enumerate_small_counts():
    assert len(enumerate_small(1)) == 1
    assert len(enumerate_small(2)) == 5
    assert len(enumerate_small(3)) == 24
    with pytest.raises(OrderTooLargeError):
        enumerate_small(4)


def test_enumerate_small_labeled_counts():
    # secondary anchor: raw associative-table counts before deduplication
    for n, want in ((2, 8), (3, 113)):
        assert sum(1 for _ in oracle_associative_tables(n)) == want


def test_enumerate_small_matches_brute_force():
    for n in (1, 2, 3):
        assert [s.table for s in enumerate_small(n)] == oracle_small_semigroups(n)


def test_enumerate_small_classes_up_to_duality():
    # OEIS A001423: semigroups up to isomorphism or anti-isomorphism
    for n, want in ((1, 1), (2, 4), (3, 18)):
        pairs = {
            frozenset((s.table, oracle_relabel_least(oracle_dual(s).table)))
            for s in enumerate_small(n)
        }
        assert len(pairs) == want


def test_enumerate_small_filter():
    crs = [s for s in enumerate_small(2) if is_completely_regular(s)]
    assert len(crs) == 4  # the null semigroup is the only non-regular class


def test_corpus_is_deterministic_and_valid(corpus_members):
    again = list(corpus())
    assert [(n, s.table) for n, s in corpus_members] == [(n, s.table) for n, s in again]
    for name, s in corpus_members:
        assert validate_table(s.table).table == s.table, name


def test_corpus_contains_required_members(named):
    for required in (
        "trivial",
        "left-zero-2",
        "right-zero-2",
        "cyclic-2",
        "cyclic-3",
        "clifford-3",
        "rect-band-2-2",
        "rees-z2-2x1",
        "null-2",
    ):
        assert required in named


def test_corpus_order3_members_cover_every_class(corpus_members):
    order3 = [s for _, s in corpus_members if s.order == 3]
    canon = {canonical_form(s.table) for s in order3}
    assert len(canon) == len(order3) == 24


def test_corpus_order2_members_cover_every_class(corpus_members):
    order2 = [s for _, s in corpus_members if s.order == 2]
    assert {canonical_form(s.table) for s in order2} == {
        canonical_form(s.table) for s in enumerate_small(2)
    }


def test_corpus_quick_profile(named):
    quick = corpus("quick")
    assert all(s.order <= 4 for _, s in quick)
    assert dict(quick)["clifford-3"].table == named["clifford-3"].table
    with pytest.raises(BadSpecError):
        corpus("fancy")


def test_tower_12():
    s = families.tower_12()
    assert s.order == 12
    assert is_completely_regular(s)
    dec = decompose(s)
    assert dec.count == 3
    assert not is_left_zero(s)
