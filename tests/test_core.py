import pytest

from oracles import (
    oracle_completely_regular,
    oracle_d_related,
    oracle_h_related,
    oracle_j_related,
    oracle_l_related,
    oracle_leq,
    oracle_partition,
    oracle_r_related,
    partition,
)

from crglobal import families
from crglobal.core import (
    green_relations,
    is_completely_regular,
    is_completely_simple,
    is_left_zero,
    is_right_zero,
    natural_order,
    restrict,
    validate_table,
)
from crglobal.errors import (
    EntryOutOfRangeError,
    NotAssociativeError,
    NotCompletelyRegularError,
    NotSubsemigroupError,
    TableShapeError,
)


def test_validate_trivial():
    s = validate_table([[0]])
    assert s.order == 1


def test_validate_left_zero():
    s = validate_table([[0, 0], [1, 1]])
    assert is_left_zero(s)


def test_validate_rejects_non_square():
    with pytest.raises(TableShapeError):
        validate_table([[0, 1], [1, 1], [0]])


def test_validate_rejects_repeated_labels():
    with pytest.raises(TableShapeError):
        validate_table([[0, 1], [1, 0]], ["a", "a"])
    assert validate_table([[0, 1], [1, 0]], ["a", "b"]).labels == ("a", "b")


def test_validate_rejects_out_of_range():
    with pytest.raises(EntryOutOfRangeError) as exc:
        validate_table([[0, 2], [1, 1]])
    assert exc.value.row == 0 and exc.value.col == 1


def test_validate_rejects_bool_entries():
    with pytest.raises(EntryOutOfRangeError):
        validate_table([[True, 0], [0, 0]])


def test_validate_reports_first_failing_triple():
    with pytest.raises(NotAssociativeError) as exc:
        validate_table([[0, 0], [1, 1]][::-1])  # rows swapped: 0*0=1 etc.
    assert exc.value.triple == (0, 0, 0)


def test_validate_non_associative_triple():
    with pytest.raises(NotAssociativeError) as exc:
        validate_table([[0, 0], [1, 0]])
    assert exc.value.triple == (1, 0, 1)


def test_green_left_zero_2():
    g = green_relations(families.left_zero(2))
    assert partition(g.lclass) == {frozenset({0, 1})}
    assert partition(g.rclass) == {frozenset({0}), frozenset({1})}
    assert partition(g.hclass) == {frozenset({0}), frozenset({1})}
    assert partition(g.dclass) == {frozenset({0, 1})}


def test_green_cyclic_2():
    g = green_relations(families.cyclic_group(2))
    assert partition(g.hclass) == {frozenset({0, 1})}
    assert g.local_identity[1] == 0


def test_green_rect_band():
    g = green_relations(families.rect_band(2, 2))
    assert len(partition(g.hclass)) == 4
    assert len(partition(g.lclass)) == 2
    assert len(partition(g.rclass)) == 2
    assert len(partition(g.dclass)) == 1


def test_green_matches_divisibility_oracle(corpus_members):
    for name, s in corpus_members:
        if s.order > 6:
            continue
        g = green_relations(s)
        assert partition(g.lclass) == oracle_partition(s, oracle_l_related), name
        assert partition(g.rclass) == oracle_partition(s, oracle_r_related), name
        assert partition(g.hclass) == oracle_partition(s, oracle_h_related), name
        assert partition(g.dclass) == oracle_partition(s, oracle_d_related), name


def test_j_matches_oracle_and_d_on_completely_regular(cr6):
    for name, s in cr6:
        assert partition(green_relations(s).dclass) == oracle_partition(s, oracle_j_related), name


def test_completely_regular_matches_witness_oracle(corpus_members):
    for name, s in corpus_members:
        if s.order > 6:
            continue
        assert is_completely_regular(s) == oracle_completely_regular(s), name


def test_local_identity_inverse_laws(cr6):
    for name, s in cr6:
        g = green_relations(s)
        t = s.table
        for a in range(s.order):
            e = g.local_identity[a]
            assert t[e][a] == a == t[a][e], name
            assert g.idempotent[e] and g.hclass[e] == g.hclass[a], name
            # the H-class of a is a group: a has exactly one inverse in it
            inverses = [x for x in range(s.order) if g.hclass[x] == g.hclass[a] and t[a][x] == e == t[x][a]]
            assert len(inverses) == 1, (name, a)


def test_completely_simple_examples():
    assert is_completely_simple(families.rect_band(2, 2))
    assert is_completely_simple(families.cyclic_group(5))
    assert not is_completely_simple(families.chain_semilattice(2))
    with pytest.raises(NotCompletelyRegularError):
        is_completely_simple(validate_table([[0, 0], [0, 0]]))


def test_left_right_zero_identities():
    assert is_left_zero(families.left_zero(2))
    assert not is_right_zero(families.left_zero(2))
    assert is_right_zero(families.right_zero(3))
    z2 = families.cyclic_group(2)
    assert not is_left_zero(z2) and not is_right_zero(z2)


def test_natural_order_clifford(named):
    c3 = named["clifford-3"]  # 0 is the zero, {1,2} the group on top
    order = natural_order(c3)
    assert order.leq[0][1] and order.leq[0][2]
    assert not order.leq[1][2] and not order.leq[2][1]
    assert order.maximal == (False, True, True)


def test_natural_order_trivial_on_completely_simple(cr6):
    for name, s in cr6:
        if not is_completely_simple(s):
            continue
        order = natural_order(s)
        for a in range(s.order):
            for b in range(s.order):
                assert order.leq[a][b] == (a == b), name


def test_natural_order_singleton():
    order = natural_order(families.left_zero(1))
    assert order.leq == ((True,),) and order.maximal == (True,)


def test_natural_order_is_partial_order_and_matches_oracle(cr6):
    for name, s in cr6:
        order = natural_order(s)
        n = s.order
        for a in range(n):
            assert order.leq[a][a], name
            for b in range(n):
                assert order.leq[a][b] == oracle_leq(s, a, b), name
                if a != b and order.leq[a][b]:
                    assert not order.leq[b][a], name
                for c in range(n):
                    if order.leq[a][b] and order.leq[b][c]:
                        assert order.leq[a][c], name


def test_restrict_rejects_open_subset():
    with pytest.raises(NotSubsemigroupError):
        restrict(families.cyclic_group(4), [1, 2])
