"""``core.subset_or`` against a literal OR over the bits of each mask, on
element masks and on the multi-lane ints that ``Power.table`` passes: one
int of 16-bit lanes per translate row."""

import sys
from array import array

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crglobal.core import bits, subset_or  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

masks = st.integers(min_value=0, max_value=0xFFFF)
lane_ints = st.lists(masks, min_size=1, max_size=64).map(lambda lanes: int.from_bytes(array("H", lanes), sys.byteorder))


@PROPERTY
@given(st.lists(st.one_of(masks, lane_ints), max_size=8))
def test_subset_or_is_the_or_over_the_bits(images):
    out = subset_or(images)
    assert len(out) == 1 << len(images)
    for mask, value in enumerate(out):
        want = 0
        for j in bits(mask):
            want |= images[j]
        assert value == want, (images, mask)
