import itertools
import math
from fractions import Fraction

import pytest

import lxray.lattice
import lxray.rays
from conftest import (brute_line_count, brute_separation_margin,
                      count_lines_through_origin, unbounded_ray_witnesses)
from lxray import counting
from lxray import (BudgetError, PreconditionError, ball_count,
                   canonical_primitives, count_connecting_lines,
                   enumerate_ball, farey_asymptotic_report, farey_count,
                   primitive, separation_margin, ray_key, verify_count_bounds)
from lxray.counting import DEFAULT_LENS_BUDGET, primitive_count


def test_count_connecting_lines_examples():
    assert count_connecting_lines(1) == 6
    assert count_connecting_lines(0) == 0
    assert count_connecting_lines(2) == 40


def test_count_connecting_lines_against_oracle():
    for r in (1, 2, 3, 4):
        assert count_connecting_lines(r) == brute_line_count(r)
    assert count_connecting_lines(1, d=3) == brute_line_count(1, d=3)
    assert count_connecting_lines(2, d=3) == brute_line_count(2, d=3)
    for r, d in ((Fraction(5, 2), 2), (Fraction(7, 3), 3),
                 (1, 4), (Fraction(3, 2), 4)):
        assert count_connecting_lines(r, d) == brute_line_count(r, d)


@pytest.mark.parametrize("d, r, count", [
    (2, 8, 8900), (2, 12, 44352), (2, 16, 144628), (3, 3, 5389), (3, 4, 24097),
    # beyond the pair-scan oracle's reach, pinned on the per-direction lens
    (2, 65, 40_158_064), (3, 20, 406_044_925), (4, 7, 60_614_000),
    (3, Fraction(13, 2), 514_741), (4, Fraction(9, 2), 1_800_632),
    (6, 2, 112_296)])
def test_count_connecting_lines_pinned(d, r, count):
    assert count_connecting_lines(r, d) == count


@pytest.mark.parametrize("d, r, count", [
    (2, 16, 144628), (3, 4, 24097), (6, 2, 112_296)])
def test_count_connecting_lines_lists_no_direction(monkeypatch, d, r, count):
    # one ball listing (the rows) and orbit representatives from their
    # tails: no per-direction listing of the canonical primitives
    balls = []
    real = counting.enumerate_ball

    def counted(*args, **kwargs):
        balls.append(args)
        return real(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("the count listed the canonical primitives")

    monkeypatch.setattr(counting, "enumerate_ball", counted)
    monkeypatch.setattr(counting, "canonical_primitives", forbidden)
    assert count_connecting_lines(r, d) == count
    assert balls == [(d, r)]


def test_count_connecting_lines_monotone():
    counts = [count_connecting_lines(r) for r in (1, 2, 3, 4, 5)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_count_connecting_lines_budget():
    with pytest.raises(BudgetError):
        count_connecting_lines(10, budget=100)


def lens_steps(d, r):
    """Directions x rows: canonical primitives of norm <= 2r times the
    distinct first-(d-1)-coordinate prefixes of the r-ball."""
    rows = len({z[:-1] for z in enumerate_ball(d, r)})
    return len(canonical_primitives(2 * r, d)) * rows


def test_count_connecting_lines_budget_is_lens_steps():
    steps = lens_steps(2, 3)
    assert count_connecting_lines(3, budget=steps) == brute_line_count(3)
    with pytest.raises(BudgetError):
        count_connecting_lines(3, budget=steps - 1)
    with pytest.raises(PreconditionError):
        count_connecting_lines(2, d=1)


@pytest.mark.parametrize("d, r", [(2, 65), (3, 14), (4, 7)])
def test_default_budget_admits_old_pair_limits(d, r):
    # the largest radii the former 90M point-pair default admitted
    assert lens_steps(d, r) <= DEFAULT_LENS_BUDGET


def test_count_lines_through_origin_examples():
    assert count_lines_through_origin(1) == 2
    assert count_lines_through_origin(1.5) == 4


def test_count_lines_through_origin_against_primitives():
    for r in (1, 2, 3, 5, 8):
        assert count_lines_through_origin(r) == len(canonical_primitives(r))
    assert count_lines_through_origin(2, d=3) == len(canonical_primitives(2, d=3))


def test_verify_count_bounds():
    rep = verify_count_bounds(1)
    assert rep.lower_bound == 1 and rep.count == 6 and rep.passed
    rep = verify_count_bounds(4)
    assert rep.lower_bound == 91
    assert rep.upper_bound == 2401
    assert rep.passed
    rep8 = verify_count_bounds(8)
    assert rep8.lower_bound == ball_count(2, 4) * (1 + ball_count(2, 4)) // 2 == 1225
    assert rep8.passed


def test_separation_margin_equality_case():
    # zeta=(1,0), z=(3,1): 1*10 - 9 = 1, so the minimum is exactly 1
    assert separation_margin(10) == 1
    assert separation_margin(5, d=3) == 1


def test_separation_margin_against_pair_scan():
    for R, d in ((10, 2), (Fraction(7, 2), 2), (3, 3), (2, 4)):
        assert separation_margin(R, d) == brute_separation_margin(R, d)
    with pytest.raises(PreconditionError):
        separation_margin(Fraction(1, 2))


def _orbit(zeta):
    """The canonical primitives that signed coordinate permutations map zeta to."""
    return frozenset(
        primitive(tuple(s * zeta[i] for s, i in zip(signs, perm)))
        for perm in itertools.permutations(range(len(zeta)))
        for signs in itertools.product((1, -1), repeat=len(zeta)))


@pytest.mark.parametrize("R, d", [(20, 2), (Fraction(13, 2), 3), (3, 4)])
def test_separation_scans_one_direction_per_orbit(monkeypatch, R, d):
    seen = []
    scan = counting._direction_minimum

    def counted(zeta, cols, norms):
        seen.append(_orbit(zeta))
        return scan(zeta, cols, norms)

    monkeypatch.setattr(counting, "_direction_minimum", counted)
    assert separation_margin(R, d) == 1
    orbits = {_orbit(zeta) for zeta in canonical_primitives(R, d)}
    assert len(seen) == len(orbits) and set(seen) == orbits


def test_counting_kernels_call_no_primitive(monkeypatch):
    # the canonical primitives come from one gcd column, not per point
    calls = []
    real = lxray.lattice.primitive

    def counted(z):
        calls.append(z)
        return real(z)

    for mod in (lxray.lattice, lxray.rays, counting):
        if hasattr(mod, "primitive"):
            monkeypatch.setattr(mod, "primitive", counted)
    assert verify_count_bounds(8).count == 8900
    assert separation_margin(5) == 1
    assert calls == []


def separation_pairs(d, R):
    """Canonical primitives of norm <= R times nonzero ball points."""
    return len(canonical_primitives(R, d)) * (len(enumerate_ball(d, R)) - 1)


@pytest.mark.parametrize("R, d", [(5, 2), (Fraction(5, 2), 3), (2, 4)])
def test_separation_budget_is_pairs(R, d):
    pairs = separation_pairs(d, R)
    assert separation_margin(R, d, budget=pairs) == 1
    with pytest.raises(BudgetError):
        separation_margin(R, d, budget=pairs - 1)


def test_separation_budget():
    with pytest.raises(BudgetError):
        separation_margin(100, budget=1000)


def test_budgets_refuse_before_building_a_ball(monkeypatch):
    def no_ball(*args, **kwargs):
        raise AssertionError("a ball was built before the budget check")

    monkeypatch.setattr(counting, "enumerate_ball", no_ball)
    with pytest.raises(BudgetError):
        count_connecting_lines(3000)
    with pytest.raises(BudgetError):
        verify_count_bounds(3000)
    with pytest.raises(BudgetError):
        separation_margin(3000)
    with pytest.raises(BudgetError):
        count_connecting_lines(40, d=4)
    with pytest.raises(BudgetError):
        separation_margin(10 ** 6, d=3)


def test_primitive_count_examples():
    assert [primitive_count(r) for r in (0, Fraction(1, 2), 1, Fraction(3, 2), 2)] \
        == [0, 0, 2, 4, 4]
    assert primitive_count(150) == len(canonical_primitives(150))
    assert primitive_count(9, d=3) == len(canonical_primitives(9, d=3))


def test_farey_asymptotic_values():
    # the ratio is a function of the count: nothing is counted twice
    assert farey_asymptotic_report(farey_count(1), 1) == \
        pytest.approx(math.pi ** 2 / 3)
    assert farey_asymptotic_report(farey_count(3), 3) == \
        pytest.approx(4 * math.pi ** 2 / 27)


def test_unbounded_ray_witnesses():
    z = (1, 0)
    rays = unbounded_ray_witnesses(z, 50)
    keys = {ray_key(ray) for ray in rays}
    assert len(keys) == 50
    assert all(ray.base == z for ray in rays)


def test_count_report_serialization():
    rep = verify_count_bounds(2)
    obj = rep.to_dict()
    assert obj["r"] == "2" and obj["passed"] is True
    assert obj["count"] == 40
