"""Property test: on a relabelled copy of a completely regular corpus member
of order <= 5, the element search finds exactly the automorphisms that brute
force counts, and every subset isomorphism transfers to a verified element
isomorphism."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from oracles import oracle_automorphism_count  # noqa: E402
from test_globaldet import relabel  # noqa: E402

from crglobal import families  # noqa: E402
from crglobal.globaldet import construct_eta  # noqa: E402
from crglobal.search import find_isomorphisms  # noqa: E402
from crglobal.structure import decompose  # noqa: E402
from crglobal.verify import collect_psis, cr_members  # noqa: E402

MEMBERS = cr_members(list(families.corpus()), 5)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@st.composite
def relabelled_members(draw):
    name, s = draw(st.sampled_from(MEMBERS))
    return name, s, draw(st.permutations(range(s.order)))


@PROPERTY
@given(relabelled_members())
def test_transfer_on_relabelled_copies(case):
    # hypothesis reports the member's name and the falsifying permutation
    name, s, perm = case
    t = relabel(s, perm)
    assert len(find_isomorphisms(s, t, limit=10**6)) == oracle_automorphism_count(s), name
    dec_s, dec_t = decompose(s), decompose(t)
    for psi in collect_psis(s, t)[1]:
        assert construct_eta(psi, dec_s, dec_t).eta.verified, name
