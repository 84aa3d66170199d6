import gc
import hashlib
import importlib
import importlib.util
import inspect
import itertools
import json
import random
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest
from conftest import NON_CR_TABLE
from oracles import (
    oracle_automorphism_count,
    oracle_base_signature,
    oracle_is_isomorphism,
    oracle_joint_colors,
    oracle_neighbourhoods,
    oracle_power_rows,
    oracle_refine_once,
)

from crglobal import families, globaldet, power, search, statements, structure, verify
from crglobal.breakable import BreakableForm, enumerate_a2bar_masks
from crglobal.cli import main, table_to_json
from crglobal.core import CayleyTable, GreenData, bits, green_relations, is_left_zero, natural_order, validate_table
from crglobal.errors import (
    EtaNotMorphismError,
    OrderTooLargeError,
    ParentMismatchError,
    PsiImageNotSingletonError,
    SearchBudgetExceededError,
    SearchResultError,
    ThetaNotSingletonError,
    WrongComponentKindError,
)
from crglobal.globaldet import (
    construct_eta,
    extract_theta,
    is_singleton_preserving,
    lift,
    power_table,
    psi_image_mask,
)
from crglobal.search import IsoMap, find_isomorphisms, verify_morphism
from crglobal.statements import (
    STATEMENTS,
    Record,
    verify_member_statements,
    verify_statement_suite,
)
from crglobal.structure import LEFT_ZERO, RIGHT_ZERO, Decomposition, decompose, rho_partition
from crglobal.verify import (
    SweepResult,
    check_a3_equivalence,
    check_member_statements,
    collect_psis,
    coverage_records,
    cr_members,
    global_sweep,
    run_all,
)


def statement_ids(*sides):
    """The statements of ``sides``, in the order of ``STATEMENTS``."""
    return [name for name, side in STATEMENTS if side in sides]


def psis_of(s, s2, limit=8):
    """The subset isomorphisms that ``collect_psis`` finds."""
    return collect_psis(s, s2, limit)[1]


def test_find_isomorphisms_counts():
    l2 = families.left_zero(2)
    assert len(find_isomorphisms(l2, l2)) == 2
    assert find_isomorphisms(families.cyclic_group(2), l2) == []
    z3 = families.cyclic_group(3)
    maps = find_isomorphisms(z3, z3)
    assert sorted(m.forward for m in maps) == [(0, 1, 2), (0, 2, 1)]


def test_find_isomorphisms_respects_limit():
    l5 = families.left_zero(5)
    assert len(find_isomorphisms(l5, l5, limit=3)) == 3


def test_find_isomorphisms_rejects_limit_below_one():
    l2 = families.left_zero(2)
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            find_isomorphisms(l2, l2, limit=limit)


def test_find_isomorphisms_takes_a_limit_of_one():
    # the least limit the search admits: left-zero-3 has six automorphisms
    l3 = families.left_zero(3)
    assert len(find_isomorphisms(l3, l3, limit=1)) == 1


def test_iso_maps_with_other_images_differ():
    # negative control for IsoMap equality: one kind, other images
    assert IsoMap("elements", (0, 1)) != IsoMap("elements", (1, 0))
    assert IsoMap("elements", (0, 1)) == IsoMap("elements", (0, 1))


def test_find_isomorphisms_budget(monkeypatch):
    monkeypatch.setattr(search, "MAX_NODES", 0)
    z3 = families.cyclic_group(3)
    with pytest.raises(SearchBudgetExceededError):
        find_isomorphisms(z3, z3)


def test_find_isomorphisms_budget_message(monkeypatch):
    monkeypatch.setattr(search, "MAX_NODES", 2)
    p = power_table(families.left_zero(3))  # a left zero semigroup with 7! automorphisms
    with pytest.raises(SearchBudgetExceededError) as info:
        find_isomorphisms(p, p, kind="subsets")
    assert str(info.value) == "subsets isomorphism search on carriers of order 7 gave up after 3 nodes"
    assert (info.value.nodes, info.value.order, info.value.kind) == (3, 7, "subsets")


def test_find_isomorphisms_raises_on_unverified_result(monkeypatch):
    monkeypatch.setattr(search, "verify_morphism", lambda a, b, forward: False)
    z3 = families.cyclic_group(3)
    with pytest.raises(SearchResultError):
        find_isomorphisms(z3, z3)


def relabel(s, perm):
    """The table with element i renamed perm[i]."""
    n = s.order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[s.table[i][j]]
    return validate_table(rows)


def test_derived_data_is_freed_with_its_table(named):
    # the data lives on the table instance, so nothing module-level keeps it
    fresh = relabel(named["z2-over-lz2"], [3, 1, 0, 2])
    power_table(fresh)
    verify_member_statements(fresh)
    statements._support_groups(fresh)
    decompose(fresh)
    enumerate_a2bar_masks(fresh)
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


@pytest.fixture(scope="module")
def rect_band_pair(named):
    # both sides relabelled: this pair once ran past 2,000,000 search nodes
    t = named["rect-band-2-3"]
    return relabel(t, [1, 2, 3, 5, 4, 0]), relabel(t, [1, 2, 0, 3, 5, 4])


def test_relabelled_rect_band_power_search_is_small(rect_band_pair, monkeypatch):
    monkeypatch.setattr(search, "MAX_NODES", 1000)
    a, b = rect_band_pair
    maps = find_isomorphisms(power_table(a), power_table(b), kind="subsets")
    assert len(maps) == 8


def test_globaliso_relabelled_rect_band(rect_band_pair, tmp_path, capsys):
    paths = []
    for name, t in zip("AB", rect_band_pair):
        path = tmp_path / f"{name}.json"
        path.write_text(table_to_json(name, t))
        paths.append(str(path))
    assert main(["globaliso", *paths, "--max-order", "6"]) == 0


@pytest.mark.parametrize("name", ["lz3-monoid", "rz3-monoid"])
def test_monoid_power_self_pair_is_small(named, name, monkeypatch):
    # the identity {1} and {1,a} differ only in which products equal a factor
    monkeypatch.setattr(search, "MAX_NODES", 1000)
    p = power_table(named[name])
    assert len(find_isomorphisms(p, p, kind="subsets")) == 6


def test_joint_colors_match_the_counter_reference(cr5):
    # byte keys split and number the colours exactly as Counters of
    # neighbour tuples do: relabelled and self pairs, then same-order pairs
    # that are not isomorphic, each as tables and as power tables
    pairs = []
    for k, (_, s) in enumerate(cr5):
        perm = list(range(s.order))
        random.Random(k).shuffle(perm)
        t = relabel(s, perm)
        pairs += [(s, t), (s, s), (power_table(s), power_table(t))]
    for (_, a), (_, b) in itertools.combinations(cr5, 2):
        if a.order == b.order:
            pairs += [(a, b), (power_table(a), power_table(b))]
    splits = 0
    for a, b in pairs:
        ca, cb = search._joint_colors(a, b)
        assert (ca, cb) == oracle_joint_colors(a, b), (a.table, b.table)
        splits += sorted(ca) != sorted(cb)
    assert splits > 0
    # one round from seeded colourings, which need not be stable, so that
    # keys of neighbours with unequal products must differ
    rng = random.Random(0)
    for a, _ in pairs:
        hoods = search._neighbourhoods(a)
        for m in (2, 3, 5):
            colors = [rng.randrange(m) for _ in range(a.order)]
            new = search._refine_bytes(hoods, colors)
            want = oracle_refine_once(oracle_neighbourhoods(a), colors)
            assert search._canon_pair(new, new) == search._canon_pair(want, want)


def test_joint_colors_match_the_counter_reference_on_both_sides_of_the_byte_limit():
    # P(rect_band(2, 4)) has 255 elements, the most the byte keys take, and
    # the power table of an order-9 monoid has 511, which take integer keys
    s = families.rect_band(2, 4)
    perm = list(range(s.order))
    random.Random(8).shuffle(perm)
    big = power_table(families.adjoin_identity(families.left_zero(8)))
    pairs = [(power_table(s), power_table(relabel(s, perm))), (big, big)]
    assert [a.order for a, _ in pairs] == [255, 511] and search.BYTE_ORDER == 256
    for a, b in pairs:
        ca, cb = search._joint_colors(a, b)
        assert len(set(ca)) > 1
        assert (ca, cb) == oracle_joint_colors(a, b), a.order


def test_base_signature_splits_tables_as_the_six_field_reference(corpus_members):
    # idempotency is the order profile (1, 1), and Green's lemma gives
    # |H| = |L|*|R|/|D|, so dropping both fields keeps every partition; the
    # signatures of all tables are numbered together, as the joint colours are
    tables = [t for _, s in corpus_members if s.order <= 6 for t in (s, power_table(s))]
    tables += [s for n in (1, 2, 3) for s in families.enumerate_small(n)]
    tables += [power_table(families.rect_band(2, 4)), power_table(families.adjoin_identity(families.left_zero(8)))]

    def partitions(signature):
        joint = [key for t in tables for key in signature(t)]
        return [search._canon_pair(signature(t), [])[0] for t in tables], search._canon_pair(joint, [])[0]

    want = partitions(oracle_base_signature)
    assert partitions(search._base_signature) == want
    # control: without the R-class size, some table splits otherwise
    no_rsz = partitions(lambda t: [(profile, l, d) for profile, l, _, d in search._base_signature(t)])
    assert no_rsz[0] != want[0] and no_rsz[1] != want[1]


def test_refine_keys_tell_apart_nearby_neighbourhoods():
    # elements 0 and 1 share a colour; each pair of neighbourhoods below
    # differs from a fixed one at one neighbour, or in the products of two
    # neighbours, and the two elements must get one refined colour exactly
    # when their multisets of neighbour tuples agree, under either encoding
    colors = [0, 0, 1, 2]
    n = len(colors)
    base = ([3, 2, 1, 0], [1, 3, 0, 2], [5, 0, 9, 3])

    def hood(edits, encode):
        row, col, flags = (list(v) for v in base)
        for y, (a, b, f) in edits.items():
            row[y], col[y], flags[y] = a, b, f
        return encode(row), encode(col), encode(flags)

    def tuples(h):
        row, col, flags = h
        return Counter(zip(colors, [colors[p] for p in row], [colors[p] for p in col], flags))

    groups = [[{y: (a, b, f)} for a in range(n) for b in range(n) for f in (0, 1, 8, 15)] for y in range(n)]
    for y, z in itertools.combinations(range(n), 2):
        groups.append([{y: (a, base[1][y], 0), z: (c, base[1][z], 0)} for a in range(n) for c in range(n)])
        groups.append([{y: (base[0][y], a, 0), z: (base[0][z], c, 0)} for a in range(n) for c in range(n)])
    for refine, encode in ((search._refine_bytes, bytes), (search._refine_ints, list)):
        for group in groups:
            for e1, e2 in itertools.combinations(group, 2):
                h1, h2 = hood(e1, encode), hood(e2, encode)
                first, second = refine([h1, h2], colors)
                assert (first == second) == (tuples(h1) == tuples(h2)), (refine.__name__, e1, e2)


def test_automorphism_counts_match_brute_force(cr5):
    for name, s in cr5:
        assert len(find_isomorphisms(s, s, limit=10**6)) == oracle_automorphism_count(s), name


# Power pairs whose search tree is pinned: (member, relabelling of the second
# side, nodes the search expands, sha256 of the repr of the forward tuples of
# the maps it returns, in order).  Propagation order and per-node speed may
# change freely; a change that prunes on purpose updates the node counts and
# digests and says so in CHANGES.md.
PINNED_TREES = {
    "rees-z3-2x1": ("rees-z3-2x1", [0, 4, 1, 3, 2, 5], 1676, "ad24eb6d6e1b5be4d9761286800505b7f63f57f21cfcbfaf811050fefae5b6b5"),
    # among the 720 relabellings, one of the largest trees without the
    # dead-end lookahead (15,558 nodes)
    "rees-z3-2x1-deep": (
        "rees-z3-2x1",
        [4, 2, 5, 3, 0, 1],
        2154,
        "ffae1d6465b4b4e17509c38e828e9ca47158ca7909791bb9b19d89a237667fce",
    ),
    "cyclic-5": ("cyclic-5", [2, 3, 4, 0, 1], 422, "7fa3e01f04ab1d2d6b14563d16d8523f2e2612bd5449f0e5f058ae43a800999d"),
    "left-zero-5": ("left-zero-5", [2, 3, 4, 0, 1], 49, "8a43bf5d22b48d43c92b8faaa19793dfb40700c4ac6ad874bfd1946e5c2d3d4e"),
}


@pytest.mark.parametrize("name, perm, nodes, digest", PINNED_TREES.values(), ids=PINNED_TREES.keys())
def test_power_search_tree_is_pinned(named, monkeypatch, name, perm, nodes, digest):
    s = named[name]
    pa, pb = power_table(s), power_table(relabel(s, perm))
    monkeypatch.setattr(search, "MAX_NODES", nodes - 1)
    with pytest.raises(SearchBudgetExceededError) as info:
        find_isomorphisms(pa, pb, kind="subsets")
    assert info.value.nodes == nodes
    monkeypatch.setattr(search, "MAX_NODES", nodes)
    maps = find_isomorphisms(pa, pb, kind="subsets")
    assert hashlib.sha256(repr([m.forward for m in maps]).encode()).hexdigest() == digest


def search_snapshot(state):
    return [list(state.fwd), list(state.back), list(state.left), list(state.trail)]


def try_each_candidate(state, outcomes, depth):
    """individualize(i, j) and then undo(mark) for every candidate j of the
    branch point, checking that each leaves the state as it was; below a
    surviving candidate, the same for the next ``depth - 1`` levels."""
    i, candidates = state.branch()
    mark = len(state.trail)
    before = search_snapshot(state)
    for j in candidates:
        survived = state.individualize(i, j)
        outcomes[survived] += 1
        if survived and depth > 1 and len(state.trail) < state.n:
            try_each_candidate(state, outcomes, depth - 1)
        state.undo(mark)
        assert search_snapshot(state) == before, (i, j, mark)


def test_undo_restores_the_state_after_every_candidate(named, cr5):
    # the map, its inverse, the per-colour counts and the trail return to
    # their earlier values whether propagation succeeded or stopped at a
    # contradiction halfway; every first-level candidate is tried, and every
    # candidate below it down to the third level, where propagation also fails
    pairs = [(power_table(named[name]), power_table(relabel(named[name], perm))) for name, perm, _, _ in PINNED_TREES.values()]
    pairs += [(s, s) for _, s in cr5]
    outcomes = Counter()
    for a, b in pairs:
        try_each_candidate(search.SearchState(a, b, *search._joint_colors(a, b)), outcomes, 3)
    assert outcomes[True] and outcomes[False], outcomes


def test_the_traced_search_is_the_search():
    # the benchmark's tracer wraps the search as globaldet.find_isomorphisms
    # and names each span by the bound ``kind`` and ``limit`` arguments
    assert globaldet.find_isomorphisms is search.find_isomorphisms
    assert {"limit", "kind"} <= set(inspect.signature(globaldet.find_isomorphisms).parameters)
    # every traced name resolves on crglobal.<module>, and is the global its
    # defining module calls, which the tracer replaces by identity
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod, name in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(f"crglobal.{mod}"), name)
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, (mod, name)
    for mod, cls, name in spans.METHODS:
        assert callable(getattr(getattr(importlib.import_module(f"crglobal.{mod}"), cls), name)), (mod, cls, name)


def test_power_search_is_complete_on_small_semigroups():
    # every semigroup of order <= 3, regular or not: the search finds every
    # automorphism of P(S), and every isomorphism P(S) -> P(pi S)
    members = [s for order in (1, 2, 3) for s in families.enumerate_small(order)]
    assert len(members) == 30
    for k, s in enumerate(members):
        p = power_table(s)
        count = oracle_automorphism_count(p)
        assert len(find_isomorphisms(p, p, limit=10**6, kind="subsets")) == count, s.table
        perm = list(range(s.order))
        random.Random(k).shuffle(perm)
        t = relabel(s, perm)
        maps = find_isomorphisms(p, power_table(t), limit=10**6, kind="subsets")
        assert len(maps) == count, (s.table, perm)
        rows, rows_t = oracle_power_rows(s), oracle_power_rows(t)
        for m in maps:
            assert oracle_is_isomorphism(rows, rows_t, m.forward), (s.table, perm)


def test_power_search_finds_relabelled_copies(cr6):
    for name, s in cr6:
        rows = oracle_power_rows(s)
        for seed in (1, 2, 3):
            perm = list(range(s.order))
            random.Random(seed).shuffle(perm)
            t = relabel(s, perm)
            maps = find_isomorphisms(power_table(s), power_table(t), kind="subsets")
            assert maps, (name, perm)
            rows_t = oracle_power_rows(t)
            for m in maps:
                assert oracle_is_isomorphism(rows, rows_t, m.forward), (name, perm)


def test_find_isomorphisms_verifies():
    for m in find_isomorphisms(families.klein_four(), families.klein_four(), limit=30):
        assert verify_morphism(families.klein_four(), families.klein_four(), m.forward)


def test_klein_not_isomorphic_to_cyclic_4():
    assert find_isomorphisms(families.klein_four(), families.cyclic_group(4)) == []


def test_power_table_examples():
    pl2 = power_table(families.left_zero(2))
    assert pl2.order == 3 and is_left_zero(pl2)
    pz2 = power_table(families.cyclic_group(2))
    assert pz2.table == ((0, 1, 2), (1, 0, 2), (2, 2, 2))
    assert power_table(families.left_zero(1)).order == 1
    with pytest.raises(OrderTooLargeError):
        power_table(families.left_zero(16))


def test_lift_examples():
    l2 = families.left_zero(2)
    ident, swap = find_isomorphisms(l2, l2)
    assert lift(ident).forward == (0, 1, 2)
    # swap exchanges the singletons and fixes the full subset
    assert lift(swap).forward == (1, 0, 2)
    assert is_singleton_preserving(lift(swap), 2)


def test_lift_refuses_maps_that_are_not_element_maps(named):
    p = power_table(families.cyclic_group(2))
    psi = find_isomorphisms(p, p, kind="subsets")[0]
    with pytest.raises(ValueError, match="lift needs an element map, got a subsets map"):
        lift(psi)
    c3 = named["clifford-3"]
    dec = decompose(c3)
    theta = extract_theta(psis_of(c3, c3)[0], dec, dec)
    assert theta.kind == "components"
    with pytest.raises(ValueError, match="lift needs an element map, got a components map"):
        lift(theta)


def test_lift_is_always_a_power_isomorphism(cr4):
    pool = [s for _, s in cr4]
    for s in pool[:8]:
        for s2 in pool[:8]:
            if s.order != s2.order:
                continue
            for phi in find_isomorphisms(s, s2, limit=4):
                psi = lift(phi)
                assert verify_morphism(power_table(s), power_table(s2), psi.forward)


def test_extract_theta_identity(named):
    c3 = named["clifford-3"]
    dec = decompose(c3)
    psis = psis_of(c3, c3)
    theta = extract_theta(psis[0], dec, dec)
    assert theta.forward == (0, 1)
    assert verify_morphism(dec.semilattice, dec.semilattice, theta.forward)


def test_extract_theta_on_left_zero_automorphism():
    l2 = families.left_zero(2)
    dec = decompose(l2)
    # {a} -> {a,b}, {b} -> {a}, {a,b} -> {b}: ignores singletons entirely
    psi = IsoMap("subsets", (2, 0, 1))
    assert verify_morphism(power_table(l2), power_table(l2), psi.forward)
    theta = extract_theta(psi, dec, dec)
    assert theta.forward == (0,)
    assert not is_singleton_preserving(psi, 2)


def test_extract_theta_relabeled_clifford(named):
    c3 = named["clifford-3"]
    perm = (2, 0, 1)
    inv = (1, 2, 0)
    relabeled = validate_table(
        [[perm[c3.table[inv[i]][inv[j]]] for j in range(3)] for i in range(3)]
    )
    phi = find_isomorphisms(c3, relabeled)
    assert phi
    theta = extract_theta(lift(phi[0]), decompose(c3), decompose(relabeled))
    assert sorted(theta.forward) == [0, 1]


# the refusal of a subset map that is a bijection but no power isomorphism
BROKEN_PRODUCT = "subset map breaks the product"


def skip_premise(monkeypatch):
    """Let the transfer take a subset map without checking that it is a
    power isomorphism, to reach the refusals behind that check."""
    monkeypatch.setattr(globaldet, "_check_power_isomorphism", lambda psi, s, s2: None)


def test_extract_theta_flags_fake_psi(named, monkeypatch):
    c3 = named["clifford-3"]
    dec = decompose(c3)
    size = 7
    with pytest.raises(ThetaNotSingletonError, match="subset map is not a bijection"):
        extract_theta(IsoMap("subsets", (0,) * size), dec, dec)
    # transpose singletons {z} and {e} across components: not an isomorphism;
    # behind the premise check, the component map check refuses it too
    forward = list(range(size))
    forward[0], forward[1] = forward[1], forward[0]
    fake = IsoMap("subsets", tuple(forward))
    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT):
        extract_theta(fake, dec, dec)
    skip_premise(monkeypatch)
    with pytest.raises(ThetaNotSingletonError, match="component map is not a semilattice isomorphism"):
        extract_theta(fake, dec, dec)


def test_extract_theta_refuses_non_homomorphic_component_map(named, monkeypatch):
    # swapping the singletons {0} and {1} keeps every component inside one
    # component, but the induced map on the semilattice is no homomorphism
    s = named["vee-semilattice"]
    dec = decompose(s)
    forward = list(range((1 << s.order) - 1))
    forward[0], forward[1] = forward[1], forward[0]
    fake = IsoMap("subsets", tuple(forward))
    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT):
        extract_theta(fake, dec, dec)
    skip_premise(monkeypatch)
    with pytest.raises(ThetaNotSingletonError, match="component map is not"):
        extract_theta(fake, dec, dec)


@pytest.mark.parametrize("psi_order, order", [(2, 3), (3, 2)])
def test_the_transfer_refuses_a_subset_map_of_another_carrier(psi_order, order):
    # a subset map of P(left_zero(psi_order)) passed with the tables of
    # left_zero(order): too short it once raised IndexError, too long it was
    # accepted and passed every record; both are refused, as is a pair of
    # tables of different orders
    source = families.left_zero(psi_order)
    psi = lift(find_isomorphisms(source, source)[0])
    s = families.left_zero(order)
    dec = decompose(s)
    theta, _ = construct_eta(lift(find_isomorphisms(s, s)[0]), dec, dec)
    for call in (extract_theta, construct_eta):
        with pytest.raises(ParentMismatchError):
            call(psi, dec, dec)
        with pytest.raises(ParentMismatchError):
            call(psi, decompose(source), dec)
    with pytest.raises(ParentMismatchError):
        verify_statement_suite(s, s, psi, theta)
    with pytest.raises(ParentMismatchError):
        verify_statement_suite(source, s, psi, theta)


@pytest.mark.parametrize("forward", [(9,) * 7, (-1,) * 7, (7, *range(1, 7))], ids=["above", "negative", "one-above"])
def test_the_transfer_refuses_a_subset_map_with_an_entry_out_of_range(named, forward):
    # a map of the right length with an entry outside 0..2^n - 2: the suite
    # once raised a bare IndexError on an entry above and read a negative
    # entry as the empty mask
    s = named["clifford-3"]
    dec = decompose(s)
    theta = extract_theta(lift(find_isomorphisms(s, s)[0]), dec, dec)
    psi = IsoMap("subsets", forward)
    for call in (extract_theta, construct_eta):
        with pytest.raises(ParentMismatchError, match="entries"):
            call(psi, dec, dec)
    with pytest.raises(ParentMismatchError, match="entries"):
        verify_statement_suite(s, s, psi, theta)


def test_statement_suite_refuses_a_component_map_of_another_table(named):
    # the one-component map of rect_band(2, 2) passed with a two-component
    # member once raised a bare IndexError inside the suite
    rb = families.rect_band(2, 2)
    theta = extract_theta(lift(find_isomorphisms(rb, rb)[0]), decompose(rb), decompose(rb))
    for name in ("clifford-3", "lz2-tower"):
        s = named[name]
        psi = lift(find_isomorphisms(s, s)[0])
        with pytest.raises(ParentMismatchError, match=r"component map \[0\]"):
            verify_statement_suite(s, s, psi, theta)
        # the right length, but not a permutation of the components
        with pytest.raises(ParentMismatchError, match=r"component map \[0, 0\]"):
            verify_statement_suite(s, s, psi, IsoMap("components", (0, 0)))


def test_construct_eta_refuses_lifted_non_automorphism(named, monkeypatch):
    s = named["cyclic-3"]
    dec = decompose(s)
    psi = lift(IsoMap("elements", (1, 0, 2)))
    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT):
        construct_eta(psi, dec, dec)
    skip_premise(monkeypatch)
    with pytest.raises(EtaNotMorphismError):
        construct_eta(psi, dec, dec)


@pytest.mark.parametrize("error, theta_fails", [(ThetaNotSingletonError, True), (EtaNotMorphismError, False)])
def test_sweep_files_a_refused_transfer(named, monkeypatch, error, theta_fails):
    # construct_eta extracts theta first, so only its refusal fails both records
    def refuse(psi, dec_a, dec_b):
        raise error("refused")

    monkeypatch.setattr(verify, "construct_eta", refuse)
    result = global_sweep([("cyclic-2", named["cyclic-2"])])
    thetas = [r for r in result.records if r.check == "theta-extraction"]
    etas = [r for r in result.records if r.check == "eta-construction"]
    assert thetas and len(thetas) == len(etas) == result.psi_total
    assert all((r.ok, r.witness) == (False, "refused") for r in etas)
    want = (False, "refused") if theta_fails else (True, None)
    assert all((r.ok, r.witness) == want for r in thetas)


def maximal_in(dec, alpha):
    """Which elements of component ``alpha`` are maximal in the natural order."""
    maximal = natural_order(dec.base).maximal
    return tuple(maximal[a] for a in dec.component_elements(alpha))


def test_rho_partition_examples(named):
    dec = decompose(named["point-over-lz2"])
    rho = rho_partition(dec, 0)
    assert rho.blocks == ((0,), (1,))
    assert maximal_in(dec, 0) == (False, True)
    dec2 = decompose(named["lz2-over-zero"])
    assert rho_partition(dec2, 1).blocks == ((1, 2),)
    assert rho_partition(dec2, 0).blocks == ((0,),)
    dec3 = decompose(named["clifford-3"])
    with pytest.raises(WrongComponentKindError):
        rho_partition(dec3, 1)


def test_rho_partition_standalone_left_zero():
    dec = decompose(families.left_zero(2))
    assert rho_partition(dec, 0).blocks == ((0, 1),)


def test_rho_partition_lower_sandwich_splits_maximal_pair(named):
    # both top elements are maximal, but they conjugate the bottom
    # differently, so the sandwich condition separates them
    dec = decompose(named["lz2-tower"])
    rho = rho_partition(dec, 1)
    assert maximal_in(dec, 1) == (True, True)
    assert rho.blocks == ((2,), (3,))


def test_rho_partition_ignores_incomparable_components(named):
    # the sibling component is incomparable and imposes no constraint
    dec = decompose(named["vee-lz2-top"])
    assert rho_partition(dec, 1).blocks == ((1, 2),)


def test_rho_partition_right_zero_sandwich_split(named):
    dec = decompose(named["rz2-tower"])
    top = rho_partition(dec, 1)
    assert maximal_in(dec, 1) == (True, True)
    assert top.blocks == ((2,), (3,))
    assert rho_partition(dec, 0).blocks == ((0,), (1,))


def test_adjoined_identity_members_force_singleton_images(named):
    # every zero-component element sits below the identity, so every subset
    # isomorphism must send its singleton to a singleton
    s = named["lz3-monoid"]
    dec = decompose(s)
    assert dec.classification == ("left-zero", "left-zero")
    psis = psis_of(s, s)
    assert len(psis) == 6  # the three bottom elements permute freely
    for psi in psis:
        assert is_singleton_preserving(psi, s.order)
        _, eta = construct_eta(psi, dec, dec)
        assert verify_morphism(s, s, eta.forward)


def test_rho_blocks_commute_with_automorphisms(cr5):
    for name, s in cr5:
        dec = decompose(s)
        zero_comps = [
            c for c in range(dec.count) if dec.classification[c] in ("left-zero", "right-zero")
        ]
        if not zero_comps:
            continue
        family = {
            frozenset(block)
            for alpha in zero_comps
            for block in rho_partition(dec, alpha).blocks
        }
        for phi in find_isomorphisms(s, s, limit=6):
            # an automorphism permutes the blocks of the whole partition family
            mapped = {frozenset(phi.forward[x] for x in blk) for blk in family}
            assert mapped == family, name


def test_construct_eta_left_zero_all_automorphisms():
    l2 = families.left_zero(2)
    dec = decompose(l2)
    psis = psis_of(l2, l2)
    assert len(psis) == 6
    nonsingleton = [p for p in psis if not is_singleton_preserving(p, 2)]
    assert len(nonsingleton) == 4
    for psi in psis:
        _, eta = construct_eta(psi, dec, dec)
        assert verify_morphism(l2, l2, eta.forward) and sorted(eta.forward) == [0, 1]


def test_construct_eta_equals_phi_on_single_cs0_component():
    rb = families.rect_band(2, 2)
    dec = decompose(rb)
    for phi in find_isomorphisms(rb, rb, limit=8):
        _, eta = construct_eta(lift(phi), dec, dec)
        assert eta.forward == phi.forward


def test_construct_eta_trivial():
    t = families.left_zero(1)
    dec = decompose(t)
    theta, eta = construct_eta(psis_of(t, t)[0], dec, dec)
    assert eta.forward == (0,)
    assert theta == extract_theta(psis_of(t, t)[0], dec, dec)


def test_construct_eta_deterministic(named):
    s = named["tower-z2-lz2-zero"]
    dec = decompose(s)
    psis = psis_of(s, s)
    for psi in psis:
        first = construct_eta(psi, dec, dec)
        second = construct_eta(psi, dec, dec)
        assert first == second


def test_construct_eta_rejects_fake_psi(named, monkeypatch):
    c3 = named["clifford-3"]
    dec = decompose(c3)
    forward = list(range(7))
    forward[2 - 1], forward[6 - 1] = forward[6 - 1], forward[2 - 1]  # swap {e} with {e,a}
    fake = IsoMap("subsets", tuple(forward))
    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT + " 0x2"):
        construct_eta(fake, dec, dec)
    skip_premise(monkeypatch)
    with pytest.raises(PsiImageNotSingletonError, match="element 1 of a non-zero component"):
        construct_eta(fake, dec, dec)


def test_block_choice_independent_of_image_element(cr5):
    for name, s in cr5:
        dec = decompose(s)
        zero_comps = [
            c for c in range(dec.count) if dec.classification[c] in ("left-zero", "right-zero")
        ]
        if not zero_comps:
            continue
        for psi in psis_of(s, s, limit=4):
            for alpha in zero_comps:
                rho = rho_partition(dec, alpha)
                for a in dec.component_elements(alpha):
                    img = psi_image_mask(psi, 1 << a)
                    targets = {rho.block_containing(x) for x in bits(img)}
                    assert len(targets) == 1, (name, a)


def run_suite(s, s2, psi):
    """The statement suite on ``psi`` with the component map extracted from
    it, or with the error that refused the extraction."""
    try:
        theta = extract_theta(psi, decompose(s), decompose(s2))
    except ThetaNotSingletonError as exc:
        theta = exc
    return verify_statement_suite(s, s2, psi, theta)


def test_statement_suite_all_pass_and_counts(named):
    pairs = [
        ("left-zero-2", "left-zero-2"),
        ("clifford-3", "clifford-3"),
        ("cyclic-2", "cyclic-2"),
        ("point-over-lz2", "point-over-lz2"),
    ]
    for na, nb in pairs:
        s, s2 = named[na], named[nb]
        records = verify_member_statements(s)
        assert [r.check for r in records] == statement_ids("member")
        assert all(r.ok for r in records), [r for r in records if not r.ok]
        for psi in psis_of(s, s2, limit=4):
            records = run_suite(s, s2, psi)
            assert [r.check for r in records] == statement_ids("psi")
            assert all(r.ok for r in records), [r for r in records if not r.ok]


def test_statement_suite_vacuous_statements_have_zero_instances(named):
    s = named["cyclic-2"]  # one component, nothing comparable
    psi = psis_of(s, s)[0]
    by_name = {r.check: r for r in run_suite(s, s, psi) + verify_member_statements(s)}
    assert by_name["preimage-sandwich-transfer"].instances == 0
    assert by_name["pair-chain-image-union"].instances == 0
    assert by_name["rigid-top-two-group"].instances > 0


# Subset maps that are bijections but not power isomorphisms: the lift of an
# element isomorphism S -> pi(S) with the images of two masks of one component
# of S swapped.  Rows: (member, pi, the two masks, sha256 of the repr of the
# (check, instances, ok, witness) tuples of the suite's records).  The
# digests were measured on the 30-record suite that also copied in the
# statements that never read the map, with its rows cut down to the
# statements that read it, so these records are unchanged from that suite.
# Together they make ten statements fail.
BROKEN_PSIS = [
    ("rb22-over-lz2", [5, 4, 3, 2, 1, 0], 0x4, 0x18, "a5a2d0f3d8c82ac634de398be9096c588f311e177d85284245b5fe0b26fae6fb"),
    ("rb22-over-zero", [1, 0, 4, 2, 3], 0x2, 0xC, "91cbf88a060f720eab426f93f53ee80d3e4d2b6cd2d452a877576df4899dea60"),
    ("lz3-monoid", [2, 3, 0, 1], 0x1, 0x3, "11bae4ddf0070ef6957174a91d406c00ce3766eb31a316ad73ced8460f9e3540"),
    ("z2-over-lz2", [3, 1, 0, 2], 0x1, 0x3, "7088209f3df0e33dc2d22a9c0f2b2f4b92114624f79b665c5fb34ebc37e1e2bd"),
]


@pytest.mark.parametrize("name, perm, m1, m2, digest", BROKEN_PSIS, ids=[row[0] for row in BROKEN_PSIS])
def test_statement_suite_records_on_a_broken_map(named, name, perm, m1, m2, digest):
    s = named[name]
    t = relabel(s, perm)
    assert any((m1 | m2) & ~comp == 0 for comp in decompose(s).components)
    lifted = lift(find_isomorphisms(s, t)[0])
    forward = list(lifted.forward)
    forward[m1 - 1], forward[m2 - 1] = forward[m2 - 1], forward[m1 - 1]
    psi = IsoMap("subsets", tuple(forward))
    # the transfer refuses the broken map, so the suite reads the unbroken map's component map
    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT):
        extract_theta(psi, decompose(s), decompose(t))
    records = verify_statement_suite(s, t, psi, extract_theta(lifted, decompose(s), decompose(t)))
    assert [r.check for r in records] == statement_ids("psi")
    assert any(not r.ok for r in records)
    assert all(r.ok == (r.witness is None) for r in records)
    rows = [(r.check, r.instances, r.ok, r.witness) for r in records]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, rows


def test_the_transfer_refuses_every_transposed_non_isomorphism():
    # each subset isomorphism of a CR member of order 2 to 5 with two masks
    # transposed, 5 per map: the transfer refuses the mutant exactly when
    # the power tables say it is no automorphism of P(S)
    rng = random.Random(0)
    refused = transferred = 0
    for name, s in cr_members(list(families.corpus()), 5):
        if s.order < 2:
            continue
        dec, p = decompose(s), power_table(s)
        for psi in psis_of(s, s):
            for _ in range(5):
                forward = list(psi.forward)
                i, j = rng.sample(range(len(forward)), 2)
                forward[i], forward[j] = forward[j], forward[i]
                mutant = IsoMap("subsets", tuple(forward))
                if verify_morphism(p, p, mutant.forward):
                    _, eta = construct_eta(mutant, dec, dec)
                    assert verify_morphism(s, s, eta.forward), name
                    transferred += 1
                else:
                    with pytest.raises(ThetaNotSingletonError, match=BROKEN_PRODUCT):
                        construct_eta(mutant, dec, dec)
                    refused += 1
    assert (refused, transferred) == (648, 277)


def test_no_power_iso_between_distinct_globals():
    z2 = families.cyclic_group(2)
    l2 = families.left_zero(2)
    assert collect_psis(z2, l2) == ([], [])
    assert find_isomorphisms(power_table(z2), power_table(l2)) == []


def test_sweep_records_that_nonisomorphic_pairs_have_nonisomorphic_powers(named):
    result = global_sweep([("cyclic-2", named["cyclic-2"]), ("left-zero-2", named["left-zero-2"])])
    [rec] = [r for r in result.records if r.check == "power-nonisomorphic"]
    assert rec == Record("power-nonisomorphic", "cyclic-2|left-zero-2", 1, True)


def test_power_nonisomorphic_record_fails_when_a_subset_map_exists(named, monkeypatch):
    # negative control: an element search that misses the maps of an
    # isomorphic pair leaves the power search's maps as counterexamples
    def no_element_maps(a, b, limit=8, kind="elements"):
        return [] if kind == "elements" else find_isomorphisms(a, b, limit=limit, kind=kind)

    monkeypatch.setattr(verify, "find_isomorphisms", no_element_maps)
    result = global_sweep([("cyclic-3", named["cyclic-3"])])
    [rec] = [r for r in result.records if r.check == "power-nonisomorphic"]
    assert (rec.scope, rec.ok) == ("cyclic-3|cyclic-3", False)
    assert rec.witness == f"{result.psi_total} subset isomorphisms found" and result.psi_total > 0
    # the maps found are still transferred and checked
    eta_records = [r for r in result.records if r.check == "eta-construction"]
    assert len(eta_records) == result.psi_total and all(r.ok for r in eta_records)


def fresh(t):
    """An equal table that shares no derived data with ``t``."""
    return CayleyTable(t.order, t.table, t.labels)


def test_member_statements_run_once_per_member(cr4, monkeypatch):
    # run_all checks the statements that read only S once per sweep member,
    # never inside the suite that runs once per map
    shape_runs = []
    in_suite = []
    shape_checks = statements._a3_shape_checks

    def counting_shape_checks(checks, s):
        shape_runs.append((s, bool(in_suite)))
        return shape_checks(checks, s)

    suites = []

    def recording_suite(s, s2, psi, theta):
        in_suite.append(psi)
        try:
            records = verify_statement_suite(s, s2, psi, theta)
        finally:
            in_suite.pop()
        suites.append((s, s2, psi, records))
        return records

    monkeypatch.setattr(statements, "_a3_shape_checks", counting_shape_checks)
    monkeypatch.setattr(verify, "verify_statement_suite", recording_suite)
    run_all("quick")
    members = [s for _, s in cr_members(families.corpus("quick"), 4)]
    assert len(suites) > len(members)
    assert [t for t, _ in shape_runs] == members
    assert not any(inside for _, inside in shape_runs)

    # the per-table data of the checks that run once per map is built once
    # per table, and the suite gives the same records on fresh tables
    members = [(name, fresh(s)) for name, s in cr4]
    watched = {getattr(statements, name).__wrapped__.__code__: name for name in ("_support_groups", "_sandwiches")}
    builds = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            builds[watched[frame.f_code], frame.f_locals["s"]] += 1

    suites.clear()
    shape_runs.clear()
    sys.setprofile(profile)
    try:
        global_sweep(members)
    finally:
        sys.setprofile(None)
    sides = {s for _, s in members}
    assert shape_runs == []
    assert set(builds.values()) == {1}, builds
    assert {t for name, t in builds if name == "_support_groups"} == {s for s, _, _, _ in suites}
    assert {t for name, t in builds if name == "_sandwiches"} <= sides
    for s, s2, psi, records in suites:
        assert run_suite(fresh(s), fresh(s2), psi) == records


def test_statements_is_the_order_of_every_runner_and_of_coverage(named):
    # one row per statement, and each runner returns its side's rows in table order
    ids = [name for name, _ in STATEMENTS]
    assert len(ids) == len(set(ids)) == 34
    assert {side for _, side in STATEMENTS} == {"family", "member", "psi"}
    s = named["lz2-over-zero"]
    assert [r.check for r in check_member_statements([("lz2-over-zero", s)])] == statement_ids("family", "member")
    non_cr = [("injected-non-cr", NON_CR_TABLE)]
    assert [r.check for r in check_member_statements(non_cr)] == statement_ids("family", "member")
    assert [r.check for r in verify_member_statements(s)] == statement_ids("member")
    assert [r.check for r in run_suite(s, s, psis_of(s, s)[0])] == statement_ids("psi")
    coverage = [r.scope for r in run_all("quick") if r.check == "statement-coverage"]
    assert coverage == ids


def test_an_injected_member_adds_no_coverage(planted_non_cr, monkeypatch):
    # the injected member fails its 23 statements with no instance counted,
    # so every coverage row equals the run without it
    def coverage(records):
        return [r for r in records if r.check == "statement-coverage"]

    injected = run_all("quick")
    monkeypatch.undo()
    clean = run_all("quick")
    bad = [r for r in injected if not r.ok]
    assert len(bad) == 23 and all((r.scope, r.instances) == ("injected-non-cr", 0) for r in bad)
    assert coverage(injected) == coverage(clean)


def test_coverage_fails_every_statement_without_instances():
    # negative control for the coverage test: no records, no instances
    witness = "statement never instantiated over the sweep"
    assert [(r.check, r.scope, r.instances, r.ok, r.witness) for r in coverage_records([])] == [
        ("statement-coverage", name, 0, False, witness) for name, _ in STATEMENTS
    ]


@pytest.mark.parametrize(
    "psi_total, nonsingleton, ok", [(20, 1, True), (19, 0, False)], ids=["at-the-floors", "one-below"]
)
def test_sweep_floors_pass_exactly_from_their_values(monkeypatch, psi_total, nonsingleton, ok):
    # each floor record passes with its count at the floor and fails one below
    monkeypatch.setattr(verify, "global_sweep", lambda members: SweepResult([], psi_total, nonsingleton))
    floors = [(r.check, r.instances, r.ok, r.witness) for r in run_all("quick") if r.scope == "sweep"]
    assert floors == [
        ("psi-instance-floor", psi_total, ok, None if ok else f"only {psi_total} subset isomorphisms"),
        ("nonsingleton-psi-on-left-zero", nonsingleton, ok, None if ok else "no such isomorphism found"),
    ]


def test_a_refused_component_map_counts_no_instance(named):
    s = named["lz2-over-zero"]
    psi = psis_of(s, s)[0]
    records = verify_statement_suite(s, s, psi, ThetaNotSingletonError("refused"))
    needs_map = [r for r in records if r.check in ("cs0-singleton-restriction", "cross-sandwich-singleton", "rho-image-transfer")]
    assert [(r.instances, r.ok, r.witness) for r in needs_map] == [(0, False, "component map unavailable: refused")] * 3
    # preimage-sandwich-transfer reads only psi and its preimage, so it counts as many instances as with the map
    with_map = verify_statement_suite(s, s, psi, extract_theta(psi, decompose(s), decompose(s)))
    for found in (records, with_map):
        assert [(r.instances, r.ok) for r in found if r.check == "preimage-sandwich-transfer"] == [(2, True)]


def test_member_statements_have_one_record_per_sweep_member():
    records = run_all("quick")
    members = [name for name, _ in cr_members(families.corpus("quick"), 4)]
    coverage = {r.scope: r.instances for r in records if r.check == "statement-coverage"}
    for check in statement_ids("family", "member"):
        mine = [r for r in records if r.check == check]
        assert [r.scope for r in mine] == members, check
        assert coverage[check] == sum(r.instances for r in mine), check
    for check in statement_ids("psi"):
        assert coverage[check] == sum(r.instances for r in records if r.check == check and "#psi" in r.scope)


def test_verify_reports_statements_and_sweep_records_only():
    # one claim mechanism: every per-member or per-map record is a statement
    # with a coverage record, and the rest are the six sweep-level checks
    records = run_all("quick")
    statements = {name for name, _ in STATEMENTS}
    sweep_level = {
        "power-nonisomorphic",
        "theta-extraction",
        "eta-construction",
        "statement-coverage",
        "psi-instance-floor",
        "nonsingleton-psi-on-left-zero",
    }
    assert {r.check for r in records} <= statements | sweep_level
    assert sorted(r.scope for r in records if r.check == "statement-coverage") == sorted(statements)


def test_a_non_regular_table_fails_the_triple_scan_off_hypothesis():
    # the triple-product scan is sharp: on the null semigroup of order 2, off
    # the completely regular hypothesis, it disagrees with the direct check
    checks = {check: Record(check) for check in statement_ids("family")}
    check_a3_equivalence(checks, NON_CR_TABLE)
    rec = checks["a3-characterization-equivalence"]
    assert (rec.instances, rec.ok, rec.witness) == (1, False, "subset 0x1 is in the class but the scan disagrees")


def plant_sandwich_fault(monkeypatch, target):
    """Make every table equal to ``target`` report one wrong element sandwich
    {a}*B*{a}, with a in a zero component: one fact the member statement
    ``rho-sandwich-collapse`` reads.  The wrong value goes into the
    ``_sandwiches`` slot of each such table as the table first reads it,
    and the slot is restored after the test."""
    build = statements._sandwiches
    slot = build.__wrapped__
    planted = []

    def sandwiches(s):
        out = build(s)
        if s == target and not any(out is p for p in planted):
            dec = decompose(s)
            a, beta = next(k for k in out if dec.classification[dec.component_of[k[0]]] in (LEFT_ZERO, RIGHT_ZERO))
            (bm, rhs), *rest = out[a, beta]
            out = {**out, (a, beta): [(bm, rhs ^ 1), *rest]}
            monkeypatch.setitem(s._derived, slot, out)
            planted.append(out)
        return out

    monkeypatch.setattr(statements, "_sandwiches", sandwiches)


def test_a_planted_fault_fails_a_member_statement(named, tmp_path, capsys, monkeypatch):
    # negative control: a wrong sandwich of one member fails that member's
    # record, and both commands report a falsified statement
    name = "lz2-over-zero"
    plant_sandwich_fault(monkeypatch, named[name])
    [rec] = [r for r in check_member_statements([(name, named[name])]) if not r.ok]
    assert (rec.check, rec.scope, rec.ok) == ("rho-sandwich-collapse", name, False) and rec.witness
    assert main(["verify", "--profile", "quick"]) == 3
    failed = [r for r in map(json.loads, capsys.readouterr().out.splitlines()) if not r["ok"]]
    assert [(r["check"], r["scope"]) for r in failed if r["check"] in statement_ids("member")] == [
        ("rho-sandwich-collapse", name)
    ]
    path = tmp_path / f"{name}.json"
    path.write_text(table_to_json(name, named[name]))
    assert main(["globaliso", str(path), str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"FAIL rho-sandwich-collapse: {rec.witness}"
    assert lines[1].startswith("psi 0: ")
    assert sum(line.startswith("FAIL") for line in lines) == 1


def test_a_planted_local_identity_fails_rigid_cube_identity(named):
    # negative control for the identity half of rigid-cube-identity: on
    # left-zero-2 every cube is its element, so only a local identity that
    # leaves the subset can fail it
    t = fresh(named["left-zero-2"])
    g = green_relations(t)
    assert g.local_identity == (0, 1)
    t._derived[green_relations.__wrapped__] = GreenData(g.lclass, g.rclass, g.hclass, g.dclass, (1, 1))
    [rec] = [r for r in verify_member_statements(t) if r.check == "rigid-cube-identity"]
    assert (rec.instances, rec.ok, rec.witness) == (4, False, "a=0 in 0x1: cube 0, identity 1")


def test_a_planted_sandwich_block_fails_rho_lower_translation(named):
    # negative control for rho-lower-translation: on lz2-tower, 2 and 3 of
    # the upper left zero component translate the lower one differently, so
    # a block that joins them must fail the record
    t = fresh(named["lz2-tower"])
    partitions = structure._sandwich_partitions(t)
    assert partitions[1].blocks == ((2,), (3,))
    planted = {**partitions, 1: structure.RhoPartition(((2, 3),))}
    t._derived[structure._sandwich_partitions.__wrapped__] = planted
    [rec] = [r for r in verify_member_statements(t) if r.check == "rho-lower-translation"]
    assert (rec.instances, rec.ok, rec.witness) == (2, False, "2 and 3 translate 0 differently")


def test_a_dropped_semilattice_relation_fails_a_member_statement(cr6):
    # negative control for the decomposition layer: drop one comparable pair
    # alpha < beta from the derived decomposition of a fresh table, and the
    # member statements of that table must fail at least one record
    caught = Counter()
    faults = missed = 0
    for name, s in cr6:
        for alpha, aboves in enumerate(decompose(s).above):
            for beta in sorted(aboves):
                t = fresh(s)
                dec = decompose(t)
                below = list(dec.below)
                above = list(dec.above)
                below[beta] -= {alpha}
                above[alpha] -= {beta}
                t._derived[decompose.__wrapped__] = Decomposition(
                    dec.base, dec.semilattice, dec.component_of, dec.components, dec.classification,
                    tuple(below), tuple(above), dec.zero_components,
                )
                failed = {r.check for r in check_member_statements([(name, t)]) if not r.ok}
                faults += 1
                missed += not failed
                caught.update(failed)
    assert faults >= 27 and missed == 0, f"{faults - missed}/{faults} caught; per record: {dict(caught)}"


def test_a_planted_chunk_kind_fails_only_its_structural_form(named, cr4, capsys, monkeypatch):
    # negative control for a characterization family: one wrong chunk kind in
    # the chain form of one subset of one member fails that member's
    # structural-form record and nothing else
    name, mask = "left-zero-3", 0b011
    target = named[name]
    real = statements.structural_form

    def structural_form(s, am):
        form = real(s, am)
        if s == target and am == mask:
            return BreakableForm(form.chunks, ("right-zero",) * len(form.kinds))
        return form

    monkeypatch.setattr(statements, "structural_form", structural_form)
    failed = [(r.check, r.scope, r.witness) for r in check_member_statements(cr4) if not r.ok]
    assert failed == [("structural-form", name, "subset 0x3: right zero chunk is not right zero")]
    assert main(["verify", "--profile", "quick"]) == 3
    failed = [(r["check"], r["scope"]) for r in map(json.loads, capsys.readouterr().out.splitlines()) if not r["ok"]]
    assert failed == [("structural-form", name)]


def test_a_planted_non_absorbing_chain_fails_structural_form(named, cr4, monkeypatch):
    # negative control for either half of the absorption test: the left zero
    # pair {0, 1} given as two stacked chunks has 0*1 = 0 but 1*0 = 1, so
    # only the second product tells the chain is not absorbing
    name, mask = "left-zero-3", 0b011
    target = named[name]
    real = statements.structural_form

    def structural_form(s, am):
        if s == target and am == mask:
            return BreakableForm((0b001, 0b010), ("left-zero", "left-zero"))
        return real(s, am)

    monkeypatch.setattr(statements, "structural_form", structural_form)
    failed = [(r.check, r.scope, r.witness) for r in check_member_statements(cr4) if not r.ok]
    assert failed == [("structural-form", name, "subset 0x3: absorption fails at (0,1)")]


def test_a_non_group_top_fails_the_form_problem():
    # negative control for the group-top test: on the null semigroup of
    # order 2, 1*1 = 0 is the one idempotent, so only 1*0 != 1 tells that
    # {0, 1} is not a two-element group
    form = BreakableForm((0b11,), ("two-group-top",))
    assert statements._form_problem(NON_CR_TABLE.table, 0b11, form, False) == "group top is not a two-element group"


def test_a_planted_one_sided_absorption_fails_rigid_lower_slice_zero(named):
    # negative control for the absorption of rigid-lower-slice-zero: left-zero-2
    # decomposed as chain-2 puts {0} below {1}, and 0*1 = 0 but 1*0 = 1, so
    # only the second product tells that the lower slice does not absorb
    t = fresh(named["left-zero-2"])
    chain = decompose(named["chain-2"])
    t._derived[decompose.__wrapped__] = Decomposition(
        t, chain.semilattice, chain.component_of, chain.components, chain.classification,
        chain.below, chain.above, chain.zero_components,
    )
    [rec] = [r for r in verify_member_statements(t) if r.check == "rigid-lower-slice-zero"]
    assert (rec.instances, rec.ok, rec.witness) == (2, False, "absorption fails for 0,1 in 0x3")


def test_a_planted_missed_cover_fails_drop_nonmaximal_covers(named, cr4, monkeypatch):
    # negative control for the cover conjunct of drop-nonmaximal-covers: the
    # reduced subset is in the pair class and strictly above, so only a cover
    # test that answers False can fail the record
    name = "lz2-over-zero"
    target = named[name]
    real = power.Power.covers
    planted = []

    def covers(self, am, bm):
        if self.base == target and not planted:
            planted.append((am, bm))
            return False
        return real(self, am, bm)

    monkeypatch.setattr(power.Power, "covers", covers)
    failed = [(r.check, r.scope, r.witness) for r in check_member_statements(cr4) if not r.ok]
    assert failed == [("drop-nonmaximal-covers", name, "dropping 0 from 0x3 is not an immediate successor")]
    assert planted == [(0b011, 0b010)]


def test_transfer_work_is_done_once_per_table_and_map(cr5):
    # each sandwich partition is built once per table instance, and the
    # component map is extracted once per map, by construct_eta
    members = [(name, fresh(s)) for name, s in cr5]
    watched = {structure.RhoPartition.__init__.__code__: "partitions", extract_theta.__code__: "thetas"}
    runs = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            runs[watched[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = global_sweep(members)
    finally:
        sys.setprofile(None)
    zero_components = sum(
        tag in (LEFT_ZERO, RIGHT_ZERO) for _, s in members for tag in decompose(s).classification
    )
    assert runs["partitions"] == zero_components
    assert runs["thetas"] == result.psi_total > 0, (runs, result.psi_total)


def test_sweep_and_globaliso_transfer_each_map_through_transfer_map(cr4, named, tmp_path, capsys, monkeypatch):
    # one path from a subset map to its records: wrap transfer_map wherever a
    # crglobal module holds it, and both drivers call it once per map
    real = verify.transfer_map
    calls = []

    def transfer_map(s, s2, psi):
        calls.append(psi)
        return real(s, s2, psi)

    for key, module in list(sys.modules.items()):
        if key == "crglobal" or key.startswith("crglobal."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, transfer_map)
    result = global_sweep(cr4)
    assert len(calls) == result.psi_total > 0
    calls.clear()
    path = tmp_path / "lz2-over-zero.json"
    path.write_text(table_to_json("lz2-over-zero", named["lz2-over-zero"]))
    assert main(["globaliso", str(path), str(path)]) == 0
    maps = [line for line in capsys.readouterr().out.splitlines() if line.startswith("psi ")]
    assert len(calls) == len(maps) > 1


def test_sweep_runs_one_element_search_per_pair(cr5):
    # the power-nonisomorphic record reads the element search that
    # collect_psis ran for the pair; the sweep runs no second one
    limits = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is find_isomorphisms.__code__ and frame.f_locals["kind"] == "elements":
            limits.append(frame.f_locals["limit"])

    sys.setprofile(profile)
    try:
        global_sweep(cr5)
    finally:
        sys.setprofile(None)
    pairs = sum(s.order == t.order for i, (_, s) in enumerate(cr5) for _, t in cr5[i:])
    assert len(limits) == pairs and 1 not in limits, (len(limits), pairs)


def test_search_invariants_are_computed_once_per_table(cr4):
    # the colouring's base signature and neighbourhood rows are kept on each
    # table instance: the members and the power table of each member
    members = [(name, fresh(s)) for name, s in cr4]
    watched = (search._base_signature, search._neighbourhoods)
    bodies = {getattr(fn, "__wrapped__", fn).__code__: fn.__name__ for fn in watched}
    runs = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            runs[bodies[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        global_sweep(members)
    finally:
        sys.setprofile(None)
    instances = 2 * len(members)
    assert set(runs) == {fn.__name__ for fn in watched}
    assert all(count <= instances for count in runs.values()), (runs, instances)
