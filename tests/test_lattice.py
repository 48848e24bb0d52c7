import math
import random
from fractions import Fraction

import pytest

from conftest import brute_ball
from lxray import (BudgetError, Plane, PreconditionError, as_fraction,
                   ball_count, build_shells, coordinate_plane, enumerate_ball,
                   farey_count, farey_set, prim_norm_le, primitive,
                   totient_sieve, totient_sum)
from lxray.lattice import mobius_sieve


@pytest.mark.parametrize("bad", ["abc", "1/0", float("nan"), float("inf"), [1]])
def test_as_fraction_rejects_non_rationals(bad):
    with pytest.raises(PreconditionError):
        as_fraction(bad)


def test_enumerate_ball_examples():
    assert enumerate_ball(2, 0) == [(0, 0)]
    assert len(enumerate_ball(2, 1)) == 5
    assert len(enumerate_ball(2, 2)) == 13


def test_enumerate_ball_is_lexicographic():
    pts = enumerate_ball(2, 3, center=(2, -1))
    assert pts == sorted(pts)
    pts3 = enumerate_ball(3, 2)
    assert pts3 == sorted(pts3)


@pytest.mark.parametrize("r", [0, 1, Fraction(3, 2), 2, 2.5, Fraction(7, 2), 3.999])
def test_enumerate_ball_against_box_scan(r):
    assert set(enumerate_ball(2, r)) == set(brute_ball(2, r))


def test_enumerate_ball_against_box_scan_3d():
    assert set(enumerate_ball(3, Fraction(5, 2))) == set(brute_ball(3, Fraction(5, 2)))


def test_enumerate_ball_center_symmetry():
    rng = random.Random(0)
    for _ in range(10):
        c = (rng.randint(-5, 5), rng.randint(-5, 5))
        n = len(enumerate_ball(2, 3, center=c))
        assert n == len(enumerate_ball(2, 3, center=(c[1], c[0])))
        assert n == len(enumerate_ball(2, 3, center=(-c[0], -c[1])))
        assert n == len(enumerate_ball(2, 3, center=(0, 0)))


def test_enumerate_ball_errors():
    with pytest.raises(PreconditionError):
        enumerate_ball(2, 1, center=(0, 0, 0))
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
    origin = (Fraction(1, 2), Fraction(-1, 3))
    dec = build_shells(pts, origin=origin)
    assert sorted(dec.points()) == sorted(pts)
    assert all(a > b for a, b in zip(dec.norms2, dec.norms2[1:]))
    for shell, n2 in zip(dec.shells, dec.norms2):
        for z in shell:
            delta = (z[0] - origin[0], z[1] - origin[1])
            assert delta[0] * delta[0] + delta[1] * delta[1] == n2


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
    assert farey_set(1).points == {Fraction(0)}
    assert farey_set(3).points == {Fraction(0), Fraction(1, 3), Fraction(1, 2),
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
        assert farey_count(n, 2) == len(farey_set(n).points)
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
