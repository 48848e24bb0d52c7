"""Property tests over randomly generated inputs (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import brute_line_count, random_int_grid
from lxray import (Plane, count_connecting_lines, forward_family, make_plan,
                   recon_annulus, recon_shells)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(2), st.fractions(0, 4, max_denominator=12)),
    st.tuples(st.just(3), st.fractions(0, "5/2", max_denominator=12))))
def test_count_connecting_lines_matches_pair_scan(case):
    d, r = case
    assert count_connecting_lines(r, d) == brute_line_count(r, d)


def _independent(ab):
    a, b = ab  # some 2x2 minor of (a, b) is nonzero
    return any(a[i] * b[j] != a[j] * b[i]
               for i in range(3) for j in range(i + 1, 3))


@st.composite
def round_trip_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 4 if d < 4 else 2, max_denominator=6))
    plane = None
    if d == 3 and draw(st.booleans()):
        vec = st.tuples(*[st.integers(-2, 2)] * 3)
        plane = Plane(*draw(st.tuples(vec, vec).filter(_independent)))
    alpha = beta = None
    if draw(st.booleans()):  # annuli reach the support radius: beta >= r
        beta = r + draw(st.fractions(0, 2, max_denominator=4))
        alpha = beta * draw(st.fractions(0, 1, max_denominator=4))
    return d, r, plane, alpha, beta, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(round_trip_cases())
def test_shell_sweep_round_trip_is_bit_exact(case):
    d, r, plane, alpha, beta, seed = case
    f = random_int_grid(d, r, seed)
    plan = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    g = forward_family(f, plan.rays.items())
    assert plan.ray_keys() == set(g.entries)
    rec = (recon_annulus(g, plan) if beta is not None
           else recon_shells(g, plan))
    assert set(rec.values) == set(plan.points)
    assert all(rec.values[z] == f.get(z) for z in plan.points)
