import random

import pytest

from oracles import oracle_dual, oracle_mask, oracle_power_green, oracle_power_rows, oracle_subset_product

from crglobal import families, power
from crglobal.breakable import a2_counterexample, a3_counterexample, satisfies_an_mask, structural_form
from crglobal.core import bits, is_completely_regular, is_subsemigroup_mask
from crglobal.errors import (
    EmptySubsetError,
    NotComparableError,
    NotIdempotentError,
    NotLeftZeroError,
    OrderTooLargeError,
    ParentMismatchError,
)
from crglobal.globaldet import power_of
from crglobal.verify import cr_members
from crglobal.power import Power, h_class_of_idempotent_singleton, h_class_of_left_zero_set, power_table


def test_product_examples():
    l2 = power_of(families.left_zero(2))
    assert l2.product_mask(0b11, 0b01) == 0b11
    z2 = power_of(families.cyclic_group(2))
    assert z2.product_mask(0b10, 0b10) == 0b01
    z3 = power_of(families.cyclic_group(3))
    assert z3.product_mask(0b110, 0b110) == 0b111


def test_mask_entry_points_check_parent_and_emptiness():
    # mask 0 squares to itself and absorbs every product, so unchecked it
    # would pass as an idempotent below everything; a mask outside the
    # carrier would be read past the end of the product vectors
    p = power_of(families.cyclic_group(2))
    entry_points = [
        lambda m: p.covers(m, 0b11),
        lambda m: p.covers(0b01, m),
        p.is_idempotent_mask,
        lambda m: p.ep_leq_mask(m, 0b01),
        lambda m: p.ep_leq_mask(0b01, m),
        lambda m: p.ep_lt_mask(m, 0b01),
        lambda m: p.ep_lt_mask(m, m),
        p.h_class,
        lambda m: h_class_of_left_zero_set(p, m),
        lambda m: a3_counterexample(p, m),
        lambda m: a2_counterexample(p, m),
        lambda m: is_subsemigroup_mask(p.base, m),
        lambda m: satisfies_an_mask(p.base, m, 2),
        lambda m: structural_form(p.base, m),
    ]
    for call in entry_points:
        with pytest.raises(EmptySubsetError):
            call(0)
        for foreign in (0b111, 0b100, -1):
            with pytest.raises(ParentMismatchError):
                call(foreign)


def test_product_matches_set_oracle(cr4):
    for name, s in cr4:
        p = power_of(s)
        full = (1 << s.order) - 1
        for am in range(1, full + 1):
            for bm in range(1, full + 1):
                want = oracle_subset_product(s, set(bits(am)), set(bits(bm)))
                got = set(bits(p.product_mask(am, bm)))
                assert got == want, (name, am, bm)


def test_product_associative_exhaustive_small(corpus_members):
    for name, s in corpus_members:
        if s.order > 5:
            continue
        p = power_of(s)
        full = (1 << s.order) - 1
        for am in range(1, full + 1):
            for bm in range(1, full + 1):
                ab = p.product_mask(am, bm)
                for cm in range(1, full + 1):
                    assert p.product_mask(ab, cm) == p.product_mask(am, p.product_mask(bm, cm)), name


def test_product_associative_random_order_12():
    p = power_of(families.tower_12())
    full = (1 << 12) - 1
    rng = random.Random(1)
    for _ in range(500):
        am, bm, cm = (rng.randrange(1, full + 1) for _ in range(3))
        assert p.product_mask(p.product_mask(am, bm), cm) == p.product_mask(am, p.product_mask(bm, cm))


def test_singleton_embedding(cr6):
    for name, s in cr6:
        p = power_of(s)
        for a in range(s.order):
            for b in range(s.order):
                assert p.product_mask(1 << a, 1 << b) == 1 << s.table[a][b], name


def test_idempotent_subset_examples():
    z2 = power_of(families.cyclic_group(2))
    assert z2.is_idempotent_mask(0b11)
    assert not z2.is_idempotent_mask(0b10)
    l2 = power_of(families.left_zero(2))
    assert l2.is_idempotent_mask(0b11)


def test_enumerate_ep_counts(named):
    assert power_of(families.left_zero(2)).idempotent_masks() == [1, 2, 3]
    assert power_of(families.cyclic_group(2)).idempotent_masks() == [1, 3]
    assert power_of(families.left_zero(1)).idempotent_masks() == [1]
    assert len(power_of(named["clifford-3"]).idempotent_masks()) == 5


def test_enumerate_ep_bound():
    # the vectors are built with the power semigroup, so the bound is checked
    # there: the bound itself is admitted and one above it refused
    assert len(power_of(families.left_zero(16)).squares) == 1 << 16
    with pytest.raises(OrderTooLargeError):
        power_of(families.left_zero(17))


def test_table_bound_admits_order_11_and_refuses_order_12(monkeypatch):
    # the build is replaced by a sentinel, so no large table is made; a bound
    # half or twice as large fails one of the two cases
    class Built(Exception):
        pass

    def build(s):
        raise Built

    monkeypatch.setattr(power, "power_of", build)
    with pytest.raises(Built):
        power_table(families.left_zero(11))
    with pytest.raises(OrderTooLargeError):
        power_table(families.left_zero(12))


def test_table_rows_match_set_products(cr5):
    # the lane-packed rows against literal set products, then against
    # product_mask at order 9, where masks no longer fit in one byte
    for name, s in cr5:
        assert [list(row) for row in power_table(s).table] == oracle_power_rows(s), name
    s = families.rect_band(3, 3)
    p = power_of(s)
    rows = power_table(s).table
    size = p.full_mask
    assert size == 511
    for am in range(1, size + 1):
        assert rows[am - 1] == tuple(p.product_mask(am, bm) - 1 for bm in range(1, size + 1)), am
    # equal entries are one int object, not one object per cell
    assert len({id(v) for row in rows for v in row}) == len({v for row in rows for v in row})


def test_ep_order_examples(named):
    c3 = power_of(named["clifford-3"])
    z, e = 0b001, 0b010
    assert c3.ep_leq_mask(z, e)
    assert c3.ep_leq_mask(e, e)
    z2 = power_of(families.cyclic_group(2))
    assert not z2.ep_leq_mask(0b01, 0b11)
    with pytest.raises(NotIdempotentError):
        z2.ep_leq_mask(0b10, 0b11)


def test_covers_examples(named):
    c3 = power_of(named["clifford-3"])
    ze, e, full = 0b011, 0b010, 0b111
    assert c3.covers(ze, e)
    # the full subset sits below {e} but {z,e} intervenes
    assert c3.ep_lt_mask(full, e)
    assert not c3.covers(full, e)
    with pytest.raises(NotComparableError):
        c3.covers(e, ze)


def test_h_class_of_idempotent_singleton_examples():
    z2 = families.cyclic_group(2)
    got = h_class_of_idempotent_singleton(power_of(z2), 0)
    assert sorted(got) == [1, 2]
    l2 = families.left_zero(2)
    assert sorted(h_class_of_idempotent_singleton(power_of(l2), 0)) == [1]
    t = families.left_zero(1)
    assert sorted(h_class_of_idempotent_singleton(power_of(t), 0)) == [1]
    with pytest.raises(NotIdempotentError):
        h_class_of_idempotent_singleton(power_of(families.cyclic_group(2)), 1)


def test_h_class_of_left_zero_set_examples():
    l2 = families.left_zero(2)
    assert sorted(h_class_of_left_zero_set(power_of(l2), 0b11)) == [3]
    rb = families.rect_band(2, 2)
    # an L-class {(0,0),(1,0)} is a left zero subsemigroup: indices 0 and 2
    e_set = 0b0101
    assert sorted(h_class_of_left_zero_set(power_of(rb), e_set)) == [e_set]
    with pytest.raises(NotLeftZeroError):
        h_class_of_left_zero_set(power_of(rb), 0b0011)


def test_right_ideal_examples():
    l2 = power_of(families.left_zero(2))
    assert l2.right_ideals[0b01] == 0b01
    z2 = power_of(families.cyclic_group(2))
    assert z2.right_ideals[0b10] == 0b11
    chain = power_of(families.chain_semilattice(2))
    assert chain.right_ideals[0b10] == 0b11
    assert chain.right_ideals[0b01] == 0b01


def test_power_green_left_zero():
    pg = power_of(families.left_zero(2)).power_green()
    # the power of a left zero semigroup is left zero: one L-class, singleton R
    assert len(set(pg.lclass)) == 1
    assert len(set(pg.rclass)) == 3
    assert len(set(pg.dclass)) == 1


def test_power_green_bound():
    with pytest.raises(OrderTooLargeError):
        power_of(families.tower_12()).power_green()


def test_power_green_matches_set_product_oracle(cr5, corpus_members):
    # on completely regular bases and on the others alike; h_class is read
    # against the oracle's classes, not against power_green itself
    others = [(name, s) for name, s in corpus_members if s.order <= 3 and not is_completely_regular(s)]
    assert others
    for name, s in cr5 + others:
        p = power_of(s)
        pg = p.power_green()
        want = oracle_power_green(s)
        assert (pg.lclass, pg.rclass, pg.hclass, pg.dclass) == want, name
        hclass = want[2]
        for am in range(1, p.full_mask + 1):
            whole = [m for m in range(1, p.full_mask + 1) if hclass[m - 1] == hclass[am - 1]]
            assert p.h_class(am) == whole, (name, am)


def test_h_class_refuses_where_power_green_refuses():
    s = families.tower_12()
    p = power_of(s)
    e = next(e for e in range(s.order) if s.table[e][e] == e)
    with pytest.raises(OrderTooLargeError):
        h_class_of_idempotent_singleton(p, e)
    with pytest.raises(OrderTooLargeError):
        h_class_of_left_zero_set(p, 1 << e)


def _elements(mask):
    return {e for e in range(mask.bit_length()) if mask >> e & 1}


def _check_duality(s, pairs):
    p, q = Power(s), Power(oracle_dual(s))
    for am, bm in pairs:
        assert q.product_mask(am, bm) == p.product_mask(bm, am), (am, bm)


def test_product_duality_exhaustive_small(corpus_members):
    checked = 0
    for name, s in cr_members(corpus_members, 5):
        full = (1 << s.order) - 1
        _check_duality(s, ((am, bm) for am in range(1, full + 1) for bm in range(1, full + 1)))
        checked += 1
    assert checked >= 30


def test_product_duality_sampled_order_8_and_12():
    rng = random.Random(5)
    for s in (families.tower_12(), families.rect_band(2, 4)):
        full = (1 << s.order) - 1
        _check_duality(s, [(rng.randrange(1, full + 1), rng.randrange(1, full + 1)) for _ in range(2000)])


def test_squares_and_right_ideals_match_set_oracle(corpus_members):
    for name, s in corpus_members:
        if s.order > 6:
            continue
        p = Power(s)
        squares, ideals = p.squares, p.right_ideals
        assert len(squares) == len(ideals) == 1 << s.order, name
        carrier = set(range(s.order))
        for m in range(1, 1 << s.order):
            a = _elements(m)
            assert squares[m] == oracle_mask(oracle_subset_product(s, a, a)), (name, m)
            assert ideals[m] == oracle_mask(oracle_subset_product(s, a, carrier)), (name, m)


def test_product_refuses_order_above_enumeration_bound():
    with pytest.raises(OrderTooLargeError):
        Power(families.left_zero(17))
