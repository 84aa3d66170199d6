import random

import pytest

from oracles import oracle_idset_product

from crglobal import families
from crglobal.core import is_left_zero, is_right_zero, is_completely_simple, restrict, validate_table
from crglobal.errors import EmptySubsetError, NotCompletelyRegularError, ParentMismatchError
from crglobal.structure import CS0, LEFT_ZERO, decompose, id_set_mask
from crglobal.globaldet import power_of


def test_decompose_clifford(named):
    dec = decompose(named["clifford-3"])
    assert dec.count == 2
    assert dec.components == (0b001, 0b110)
    assert dec.classification == (LEFT_ZERO, CS0)
    assert dec.semilattice.table == ((0, 0), (0, 1))


def test_decompose_rect_band():
    dec = decompose(families.rect_band(2, 2))
    assert dec.count == 1
    assert dec.classification == (CS0,)


def test_decompose_left_zero():
    dec = decompose(families.left_zero(2))
    assert dec.count == 1
    assert dec.classification == (LEFT_ZERO,)


def test_decompose_rejects_non_regular():
    with pytest.raises(NotCompletelyRegularError):
        decompose(validate_table([[0, 0], [0, 0]]))


def test_singleton_components_tagged_left_zero():
    dec = decompose(families.chain_semilattice(3))
    assert dec.classification == (LEFT_ZERO,) * 3


def test_id_set_examples(named):
    c3 = named["clifford-3"]
    dec = decompose(c3)
    assert id_set_mask(0b011, dec) == frozenset({0, 1})
    assert id_set_mask(0b111, dec) == frozenset({0, 1})
    assert id_set_mask(0b100, dec) == frozenset({1})
    with pytest.raises(EmptySubsetError):
        id_set_mask(0, dec)
    with pytest.raises(ParentMismatchError):
        id_set_mask(0b1111, dec)
    with pytest.raises(ParentMismatchError):
        id_set_mask(-1, dec)


def test_components_are_completely_simple_and_cs0_is_neither_zero(cr6):
    for name, s in cr6:
        dec = decompose(s)
        for alpha in range(dec.count):
            sub = restrict(s, dec.component_elements(alpha))
            assert is_completely_simple(sub), name
            if dec.classification[alpha] == CS0:
                assert not is_left_zero(sub) and not is_right_zero(sub), name


def test_products_respect_semilattice(cr6):
    for name, s in cr6:
        dec = decompose(s)
        y = dec.semilattice.table
        for a in range(s.order):
            for b in range(s.order):
                assert (
                    dec.component_of[s.table[a][b]]
                    == y[dec.component_of[a]][dec.component_of[b]]
                ), name


def test_support_of_product_is_product_of_supports(cr6):
    for name, s in cr6:
        dec = decompose(s)
        p = power_of(s)
        full = (1 << s.order) - 1
        for am in range(1, full + 1):
            for bm in range(1, full + 1):
                left = id_set_mask(p.product_mask(am, bm), dec)
                right = oracle_idset_product(dec, id_set_mask(am, dec), id_set_mask(bm, dec))
                assert left == right, (name, am, bm)


def test_support_product_random_pairs_order_12():
    s = families.tower_12()
    dec = decompose(s)
    p = power_of(s)
    full = (1 << s.order) - 1
    rng = random.Random(0)
    for _ in range(300):
        am = rng.randrange(1, full + 1)
        bm = rng.randrange(1, full + 1)
        left = id_set_mask(p.product_mask(am, bm), dec)
        right = oracle_idset_product(dec, id_set_mask(am, dec), id_set_mask(bm, dec))
        assert left == right, (am, bm)


def test_natural_order_identity_within_components(cr6):
    from crglobal.core import natural_order

    for name, s in cr6:
        dec = decompose(s)
        order = natural_order(s)
        for alpha in range(dec.count):
            elems = dec.component_elements(alpha)
            for a in elems:
                for b in elems:
                    assert order.leq[a][b] == (a == b), name
