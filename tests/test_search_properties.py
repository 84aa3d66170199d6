"""The dead-end lookahead of the isomorphism search removes no map: on
element tables and power tables, ``find_isomorphisms`` returns the maps of
the reference search without the lookahead, in the same order."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from oracles import oracle_find_isomorphisms  # noqa: E402
from test_globaldet import relabel  # noqa: E402

from crglobal import families  # noqa: E402
from crglobal.globaldet import find_isomorphisms, power_table  # noqa: E402

ORDERS: dict = {}
for name, s in families.corpus():
    if s.order <= 6:
        ORDERS.setdefault(s.order, []).append((name, s))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def same_maps(a, b, limit: int, kind: str = "elements") -> bool:
    return [m.forward for m in find_isomorphisms(a, b, limit, kind)] == oracle_find_isomorphisms(a, b, limit)


def seeded_relabelling(t, seed: int):
    perm = list(range(t.order))
    random.Random(seed).shuffle(perm)
    return relabel(t, perm)


def test_search_returns_the_reference_maps_on_corpus_members():
    for members in ORDERS.values():
        for name, s in members:
            for seed in (1, 2, 3):
                t = seeded_relabelling(s, seed)
                assert same_maps(s, t, 8), (name, seed)
                assert same_maps(power_table(s), power_table(t), 8, "subsets"), (name, seed)


@st.composite
def member_pairs(draw):
    # a member against a relabelling of itself, or of a member of its order;
    # the order is drawn first, so the few large members are drawn as often
    # as the many of order 3
    order = draw(st.sampled_from(sorted(ORDERS)))
    name, s = draw(st.sampled_from(ORDERS[order]))
    other, t = draw(st.sampled_from([(name, s)] + ORDERS[order]))
    return name, s, other, t, draw(st.permutations(range(s.order))), draw(st.booleans())


@PROPERTY
@given(member_pairs())
def test_search_returns_the_reference_maps(case):
    # hypothesis reports both members, the relabelling and the table kind
    name, s, other, t, perm, power = case
    a, b = s, relabel(t, perm)
    if power:
        assert same_maps(power_table(a), power_table(b), 8, "subsets"), (name, other)
    else:
        assert same_maps(a, b, 8), (name, other)


def test_search_returns_every_reference_map_on_small_semigroups():
    # every semigroup of order <= 3 against every one of its order, as
    # labelled and seeded-relabelled, elements and subsets
    members = [s for order in (1, 2, 3) for s in families.enumerate_small(order)]
    assert len(members) == 30
    for k, s in enumerate(members):
        for t in members:
            if t.order != s.order:
                continue
            for b in (t, seeded_relabelling(t, k)):
                assert same_maps(s, b, 10**6), (s.table, b.table)
                assert same_maps(power_table(s), power_table(b), 10**6, "subsets"), (s.table, b.table)
