import sys
from collections import Counter

import pytest
from oracles import oracle_chunks, oracle_dual

from crglobal import families, statements
from crglobal.breakable import (
    a2_characterization,
    a2_counterexample,
    a3_characterization,
    a3_counterexample,
    enumerate_a2_masks,
    enumerate_a2bar_masks,
    enumerate_a3_masks,
    is_a3_mask,
    left_zero_subset_masks,
    satisfies_an_mask,
    structural_form,
)
from crglobal.core import CayleyTable
from crglobal.errors import NotA3Error, NotIdempotentError, NotSubsemigroupError, OrderTooLargeError, ParentMismatchError
from crglobal.globaldet import extract_theta, lift
from crglobal.power import power_of
from crglobal.search import IsoMap
from crglobal.statements import verify_member_statements, verify_statement_suite
from crglobal.structure import decompose


def test_satisfies_an_examples():
    z2 = families.cyclic_group(2)
    assert satisfies_an_mask(z2, 0b11, 3)
    assert not satisfies_an_mask(z2, 0b11, 2)
    z3 = families.cyclic_group(3)
    assert not satisfies_an_mask(z3, 0b111, 3)
    l3 = families.left_zero(3)
    assert satisfies_an_mask(l3, 0b101, 2)


def test_satisfies_an_requires_closure():
    with pytest.raises(NotSubsemigroupError):
        satisfies_an_mask(families.cyclic_group(2), 0b10, 2)


def test_enumerate_counts(named):
    l2 = families.left_zero(2)
    assert list(enumerate_a2_masks(l2)) == [1, 2, 3]
    assert list(enumerate_a2bar_masks(l2)) == [1, 2, 3]
    z2 = families.cyclic_group(2)
    assert list(enumerate_a3_masks(z2)) == [1, 3]
    assert list(enumerate_a2_masks(z2)) == [1]
    c3 = named["clifford-3"]
    assert list(enumerate_a2_masks(c3)) == [1, 2, 3]
    assert list(enumerate_a3_masks(c3)) == [1, 2, 3, 6, 7]
    assert list(enumerate_a2bar_masks(c3)) == [1, 2]


def test_enumerate_bound():
    with pytest.raises(OrderTooLargeError):
        enumerate_a3_masks(families.left_zero(17))


def test_each_enumeration_is_cached_once_per_table(named):
    # each value is computed once per table instance: count runs of each
    # body across the statements, direct calls and the a2bar chain
    s = named["clifford-3"]
    fresh = CayleyTable(s.order, s.table, s.labels)
    identity = tuple(range(s.order))
    psi = lift(IsoMap("elements", identity))
    theta = extract_theta(psi, decompose(fresh), decompose(fresh))
    cached = (
        enumerate_a3_masks,
        enumerate_a2_masks,
        enumerate_a2bar_masks,
        statements._support_groups,
        statements._sandwiches,
    )
    bodies = {fn.__wrapped__.__code__: fn.__name__ for fn in cached}
    runs = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            runs[bodies[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        verify_member_statements(fresh)
        enumerate_a2_masks(fresh)
        enumerate_a2bar_masks(fresh)
        verify_statement_suite(fresh, fresh, psi, theta)
        verify_member_statements(fresh)
        verify_statement_suite(fresh, fresh, psi, theta)
    finally:
        sys.setprofile(None)
    assert runs == {fn.__name__: 1 for fn in cached}


def test_containment_chain(cr6):
    for name, s in cr6:
        ep = set(power_of(s).idempotent_masks())
        a2 = set(enumerate_a2_masks(s))
        a3 = set(enumerate_a3_masks(s))
        a2bar = set(enumerate_a2bar_masks(s))
        assert a2bar <= a2 <= a3 <= ep, name


def test_the_triple_enumeration_is_its_definition_over_every_subset(corpus_members):
    # the enumeration filters the idempotent subsets; the definition is read
    # over every nonempty subset, so closed subsets that are not idempotent,
    # and members that are not completely regular, are covered too
    extra = [(f"order-{s.order}", s) for s in (families.rect_band(2, 4), families.left_zero(8), families.tower_12())]
    for name, s in corpus_members + extra:
        assert list(enumerate_a3_masks(s)) == [m for m in range(1, 1 << s.order) if is_a3_mask(s, m)], name


def test_structural_form_clifford(named):
    c3 = named["clifford-3"]
    form = structural_form(c3, 0b111)
    assert form.chunks == (0b001, 0b110)
    assert form.kinds == ("left-zero", "two-group-top")
    assert form.has_group_top
    pair = structural_form(c3, 0b011)
    assert pair.chunks == (0b001, 0b010)
    assert pair.kinds == ("left-zero", "left-zero")
    single = structural_form(c3, 0b010)
    assert single.chunks == (0b010,) and not single.has_group_top


def test_structural_form_rejects_non_a3():
    with pytest.raises(NotA3Error):
        structural_form(families.cyclic_group(3), 0b111)


def test_structural_form_refuses_subsets_of_other_carriers():
    # a mask with a bit past the carrier would index past the table
    z2 = families.cyclic_group(2)
    for am in (0b111, 0b100, -1):
        with pytest.raises(ParentMismatchError):
            structural_form(z2, am)


def test_structural_form_group_top_only_without_pair_condition(cr6):
    for name, s in cr6:
        a2 = set(enumerate_a2_masks(s))
        for am in enumerate_a3_masks(s):
            form = structural_form(s, am)
            assert form.has_group_top == (am not in a2), (name, am)


def test_structural_form_matches_chunk_oracle(corpus_members):
    # chunks read from the base D-classes against the subset's own
    # D-classes, on regular and non-regular bases alike
    tables = [s for _, s in corpus_members]
    tables += [s for n in (1, 2, 3) for s in families.enumerate_small(n)]
    tables += [families.rect_band(2, 4)]
    assert any(s.order == 12 for s in tables)  # tower-12
    tables += [oracle_dual(s) for s in tables]
    for s in tables:
        for am in enumerate_a3_masks(s):
            assert list(structural_form(s, am).chunks) == oracle_chunks(s, am), (s.table, am)


def test_a3_characterization_examples():
    z2 = families.cyclic_group(2)
    assert a3_characterization(power_of(z2), 0b11)
    z3 = families.cyclic_group(3)
    witness = a3_counterexample(power_of(z3), 0b111)
    p = power_of(z3)
    assert witness is not None and witness != 0b111
    assert p.product_mask(witness, witness) == 0b111
    assert p.product_mask(witness, 0b111) == 0b111
    assert a3_characterization(power_of(z2), 0b01)
    with pytest.raises(NotIdempotentError):
        a3_characterization(power_of(z2), 0b10)


def test_a2_characterization_examples(named):
    c3 = named["clifford-3"]
    p = power_of(c3)
    assert not a2_characterization(p, 0b111)
    witness = a2_counterexample(p, 0b111)
    assert p.product_mask(witness, witness) != witness
    assert a2_characterization(p, 0b011)
    assert a2_characterization(p, 0b001)
    with pytest.raises(NotA3Error):
        a2_characterization(p, 0b101)


def test_characterizations_match_direct_conditions(cr5):
    from crglobal.core import is_subsemigroup_mask

    for name, s in cr5:
        p = power_of(s)
        for am in p.idempotent_masks():
            direct3 = is_subsemigroup_mask(s, am) and satisfies_an_mask(s, am, 3)
            assert a3_characterization(p, am) == direct3, (name, am)
            if direct3:
                direct2 = satisfies_an_mask(s, am, 2)
                assert a2_characterization(p, am) == direct2, (name, am)


def test_even_condition_implies_pair_and_odd_implies_triple(cr4):
    from crglobal.core import is_subsemigroup_mask

    for name, s in cr4:
        full = (1 << s.order) - 1
        for am in range(1, full + 1):
            if not is_subsemigroup_mask(s, am):
                continue
            if satisfies_an_mask(s, am, 4):
                assert satisfies_an_mask(s, am, 2), (name, am)
            if satisfies_an_mask(s, am, 5):
                assert satisfies_an_mask(s, am, 3), (name, am)


def test_left_zero_subset_masks():
    rb = families.rect_band(2, 2)
    got = left_zero_subset_masks(rb)
    # L-classes {0,2} and {1,3} are left zero, as is every idempotent alone
    assert 0b0101 in got and 0b1010 in got
    assert all((1 << e) in got for e in range(4))
    assert 0b0011 not in got
