"""Property tests over randomly generated inputs (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import brute_line_count
from lxray import count_connecting_lines


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(2), st.fractions(0, 4, max_denominator=12)),
    st.tuples(st.just(3), st.fractions(0, "5/2", max_denominator=12))))
def test_count_connecting_lines_matches_pair_scan(case):
    d, r = case
    assert count_connecting_lines(r, d) == brute_line_count(r, d)
