import math
import random
import time
from fractions import Fraction

import pytest

from conftest import brute_ball, farey_set, prim_norm_le, shell_points
from lxray import (BudgetError, Plane, PreconditionError, as_fraction,
                   ball_count, build_shells, coordinate_plane, enumerate_ball,
                   farey_count, primitive, totient_sieve, totient_sum)
from lxray.cli import BALL_BUDGET
from lxray.lattice import (FAREY_ENUM_BUDGET, box_ids, box_index, box_points,
                           count_within, mobius_sieve)


@pytest.mark.parametrize("bad", ["abc", "1/0", float("nan"), float("inf"), [1]])
def test_as_fraction_rejects_non_rationals(bad):
    with pytest.raises(PreconditionError):
        as_fraction(bad)


def test_enumerate_ball_examples():
    assert enumerate_ball(2, 0) == [(0, 0)]
    assert len(enumerate_ball(2, 1)) == 5
    assert len(enumerate_ball(2, 2)) == 13


def test_enumerate_ball_is_lexicographic():
    pts = enumerate_ball(2, Fraction(7, 2))
    assert pts == sorted(pts)
    pts3 = enumerate_ball(3, 2)
    assert pts3 == sorted(pts3)


@pytest.mark.parametrize("r", [0, 1, Fraction(3, 2), 2, 2.5, Fraction(7, 2), 3.999])
def test_enumerate_ball_against_box_scan(r):
    assert set(enumerate_ball(2, r)) == set(brute_ball(2, r))


def test_enumerate_ball_against_box_scan_3d():
    assert set(enumerate_ball(3, Fraction(5, 2))) == set(brute_ball(3, Fraction(5, 2)))


def test_enumerate_ball_center_symmetry():
    # the ball is symmetric about its center, the origin: swapping and
    # negating coordinates map it onto itself
    rng = random.Random(0)
    for _ in range(10):
        d = rng.choice((2, 3))
        r = Fraction(rng.randint(0, 30), rng.randint(1, 6))
        pts = set(enumerate_ball(d, r))
        assert {z[::-1] for z in pts} == pts
        assert {tuple(-c for c in z) for z in pts} == pts


def test_enumerate_ball_errors():
    with pytest.raises(PreconditionError):
        enumerate_ball(2, -1)
    with pytest.raises(PreconditionError):
        enumerate_ball(1, 1)


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((0, 3)) == (0, 1)
    assert primitive((-2, -2)) == (1, 1)
    with pytest.raises(PreconditionError):
        primitive((0, 0))


def test_primitive_scale_invariance():
    rng = random.Random(1)
    for _ in range(200):
        z = tuple(rng.randint(-9, 9) for _ in range(rng.choice([2, 3, 4])))
        if all(c == 0 for c in z):
            continue
        for k in (-3, -1, 2, 5):
            assert primitive(tuple(k * c for c in z)) == primitive(z)


def test_prim_norm_le_examples():
    assert prim_norm_le((1, 1), 2)
    assert not prim_norm_le((3, 4), 4)
    assert prim_norm_le((3, 4), 5)


def test_build_shells_ball_two():
    dec = build_shells(enumerate_ball(2, 2))
    assert [len(s) for s in dec.shells] == [4, 4, 4, 1]
    assert list(dec.norms2) == [4, 2, 1, 0]
    assert dec.shells[-1] == ((0, 0),)


def test_build_shells_single_point_and_empty():
    dec = build_shells([(3, 1)])
    assert len(dec) == 1 and dec.shells[0] == ((3, 1),)
    empty = build_shells([])
    assert len(empty) == 0


def test_build_shells_ball_one_contents():
    dec = build_shells(enumerate_ball(2, 1))
    assert set(dec.shells[0]) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert dec.shells[1] == ((0, 0),)


def test_build_shells_properties():
    rng = random.Random(2)
    pts = list({(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(40)})
    dec = build_shells(pts)
    assert sorted(shell_points(dec)) == sorted(pts)
    assert all(a > b for a, b in zip(dec.norms2, dec.norms2[1:]))
    for shell, n2 in zip(dec.shells, dec.norms2):
        for z in shell:
            assert z[0] * z[0] + z[1] * z[1] == n2


@pytest.mark.parametrize("plane", [Plane((1, 1, 0), (0, 1, 1)),
                                   Plane((1, 2, -1), (2, 0, 3)),
                                   coordinate_plane(3)])
def test_build_shells_matches_fraction_grouping(plane):
    pts = enumerate_ball(3, 4)
    groups = {}  # one Fraction per point, grouped and sorted by Fraction
    for z in pts:
        groups.setdefault(Fraction(plane.scaled_inplane_norm2(z), plane.det),
                          []).append(z)
    ordered = sorted(groups.items(), key=lambda kv: kv[0], reverse=True)
    dec = build_shells(pts, plane=plane)
    assert dec.shells == tuple(tuple(sorted(g)) for _, g in ordered)
    assert dec.norms2 == tuple(n for n, _ in ordered)
    assert all(type(n) is Fraction for n in dec.norms2)


def test_build_shells_rejects_duplicates():
    with pytest.raises(PreconditionError):
        build_shells([(0, 0), (0, 0)])


def test_farey_set_examples():
    assert farey_set(1) == {Fraction(0)}
    assert farey_set(3) == {Fraction(0), Fraction(1, 3), Fraction(1, 2),
                            Fraction(2, 3)}
    with pytest.raises(PreconditionError):
        farey_set(0)
    with pytest.raises(PreconditionError):
        farey_set(3, d=3)


def test_farey_count_examples():
    assert farey_count(1, 2) == 1
    assert farey_count(3, 2) == 4
    assert farey_count(5, 2) == 10


def test_farey_count_matches_set_and_sieve():
    for n in (1, 2, 3, 7, 20, 60):
        assert farey_count(n, 2) == len(farey_set(n))
    for n in (1, 10, 137, 1000):
        assert farey_count(n, 2) == totient_sum(n)


def test_totient_sieve_against_trial_division():
    def phi_slow(q):
        return sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1)

    phi = totient_sieve(300)
    for q in range(1, 301):
        assert phi[q] == phi_slow(q)


def test_farey_count_higher_dimension():
    # definitional triple loop, written out independently
    def brute(n):
        c = 0
        for q in range(1, n + 1):
            for p1 in range(q):
                for p2 in range(q):
                    if math.gcd(math.gcd(p1, p2), q) == 1:
                        c += 1
        return c

    for n in (1, 2, 3, 8):
        assert farey_count(n, 3) == brute(n)


def test_farey_count_budget():
    with pytest.raises(BudgetError):
        farey_count(10_000, 3)
    # the work sum stops at the budget instead of running to n
    with pytest.raises(BudgetError):
        farey_count(10 ** 10)


def test_farey_budget_boundary_is_the_tuple_count():
    # the budget caps the level's tuple count sum_{q<=n} q^(d-1): n* is the
    # last level whose count fits, and one level more is refused
    for d, expected in ((2, 10953), (3, 564), (4, 123)):
        n, tuples = 0, 0
        while tuples + (n + 1) ** (d - 1) <= FAREY_ENUM_BUDGET:
            n += 1
            tuples += n ** (d - 1)
        assert n == expected
        assert farey_count(n, d) > 0
        with pytest.raises(BudgetError, match="budget"):
            farey_count(n + 1, d)
    assert farey_count(10953) == totient_sum(10953)


def test_enumerate_ball_refuses_a_ball_past_its_budget():
    # d coordinates per point: admitted up to the budget, refused past it
    # before any point is listed
    assert len(enumerate_ball(2, 144, BALL_BUDGET)) == 65101  # 130,202 of 2**17
    for d, r in ((2, 145), (3, 22), (4, 10), (2, 10 ** 400), (256, 1)):
        with pytest.raises(BudgetError, match="budget of 131072"):
            enumerate_ball(d, r, BALL_BUDGET)
    assert len(enumerate_ball(255, 1, BALL_BUDGET)) == 511
    assert len(enumerate_ball(4, 10)) == 49689  # no budget given
    # below radius 1 the ball is the origin, in any dimension
    assert enumerate_ball(5000, Fraction(1, 2)) == [(0,) * 5000]
    with pytest.raises(BudgetError):
        enumerate_ball(5000, Fraction(1, 2), 4999)


def test_mobius_sieve_against_factorisation():
    def mu_slow(n):
        sign, p = 1, 2
        while n > 1:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    mu = mobius_sieve(300)
    assert mu[0] == 0
    for n in range(1, 301):
        assert mu[n] == mu_slow(n)


def test_ball_count_is_enumeration_size():
    for d, r in ((2, 0), (2, Fraction(7, 2)), (3, 4), (4, Fraction(5, 2))):
        assert ball_count(d, r) == len(enumerate_ball(d, r)) == len(brute_ball(d, r))
    with pytest.raises(PreconditionError):
        ball_count(1, 3)
    with pytest.raises(PreconditionError):
        ball_count(2, -1)


@pytest.mark.parametrize("d, r", [(2, 0), (2, Fraction(7, 2)), (3, 3), (4, 2)])
def test_box_ids_round_trip_through_box_points(d, r):
    r2 = Fraction(r) ** 2
    place, offset, size = box_index(d, r2.numerator, r2.denominator)
    pts = enumerate_ball(d, r)
    random.Random(d).shuffle(pts)
    ids = box_ids(pts, place, offset)
    assert ids == [offset + sum(a * b for a, b in zip(z, place)) for z in pts]
    assert all(0 <= i < size for i in ids)
    assert list(box_points(ids, place, offset)) == pts
    assert box_ids([], place, offset) == []
    assert list(box_points([], place, offset)) == []


def test_count_within_the_unit_ball_takes_no_step_per_coordinate():
    # every coordinate is 0 or +-1: the origin and 2d unit vectors
    t0 = time.perf_counter()
    assert count_within(2_000_000, Fraction(1), 150_000_000) == 4_000_001
    assert time.perf_counter() - t0 < 0.1
