import random
from fractions import Fraction

import pytest

from conftest import on_line, shell_points
from lxray import (Plane, PreconditionError, Ray, coordinate_plane,
                   effectively_irrational, enumerate_ball, make_plan, norm2,
                   perp_family, perp_ray, points_on_ray, ray_key)


def test_perp_ray_examples():
    assert perp_ray((1, 0)) == Ray((1, 0), (0, 1))
    assert perp_ray((0, 0)) == Ray((0, 0), (1, 0))
    # canonical sign: first nonzero entry positive
    assert perp_ray((2, 2)) == Ray((2, 2), (1, -1))


def test_perp_ray_closest_point_property():
    for z in enumerate_ball(2, 4):
        if z == (0, 0):
            continue
        ray = perp_ray(z)
        assert sum(a * b for a, b in zip(ray.dir, z)) == 0
        for other in points_on_ray(ray, 10):
            if other != z:
                assert norm2(other) > norm2(z)


def test_ray_key_line_invariance():
    rng = random.Random(3)
    for _ in range(100):
        z = (rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
        if all(c == 0 for c in z):
            continue
        ray = perp_ray(z)
        key = ray_key(ray)
        for k in (-5, -1, 1, 7):
            shifted = Ray(tuple(b + k * p for b, p in zip(ray.base, ray.dir)),
                          ray.dir)
            assert ray_key(shifted) == key
        assert 0 <= sum(a * b for a, b in zip(key.base, key.dir)) < norm2(key.dir)


def test_plane_validation():
    with pytest.raises(PreconditionError):
        Plane((1, 2, 0), (2, 4, 0))
    with pytest.raises(PreconditionError):
        Plane((0, 0, 0), (1, 0, 0))
    pl = Plane((1, 1, 0), (0, 1, 1))
    assert pl.det == 3


def plane_ray(z, plane):
    """z's ray in the perpendicular family of the plane."""
    return perp_family([z], plane)[0][1]


def test_perp_ray_in_plane_matches_standard_family():
    for d in (2, 3):
        pl = coordinate_plane(d)
        for z in enumerate_ball(d, 3):
            assert plane_ray(z, pl) == perp_ray(z)


def test_perp_ray_in_plane_examples():
    pl = Plane((1, 0, 0), (0, 1, 0))
    assert plane_ray((1, 2, 5), pl) == Ray((1, 2, 5), (2, -1, 0))
    pl2 = Plane((1, 1, 0), (0, 1, 1))
    assert plane_ray((0, 0, 0), pl2) == Ray((0, 0, 0), (1, 1, 0))


def test_perp_ray_in_plane_orthogonality():
    pl = Plane((1, 1, 0), (0, 1, 1))
    for z in enumerate_ball(3, 3):
        ray = plane_ray(z, pl)
        # direction is orthogonal to z's in-plane component: check dir . z == 0
        # in the nondegenerate branch (dir lies in the plane, so the
        # perpendicular component contributes nothing)
        if (sum(a * b for a, b in zip(z, pl.a)) != 0
                or sum(a * b for a, b in zip(z, pl.b)) != 0):
            assert sum(a * b for a, b in zip(ray.dir, z)) == 0


def test_points_on_ray_examples():
    assert points_on_ray(perp_ray((1, 0)), 2) == [(1, -1), (1, 0), (1, 1)]
    assert points_on_ray(perp_ray((0, 2)), 2) == [(0, 2)]
    assert points_on_ray(Ray((5, 5), (1, 0)), 0) == []


def test_points_on_ray_against_scan():
    rng = random.Random(4)
    ball = enumerate_ball(2, 6)
    for _ in range(50):
        z = ball[rng.randrange(len(ball))]
        ray = perp_ray(z)
        expected = sorted(p for p in ball if on_line(p, ray))
        assert sorted(points_on_ray(ray, 6)) == expected


def test_points_on_ray_with_center_and_rational_radius():
    # the ray (0, 0) + k(1, 0) against the ball about (4, 0), translated
    # so that the ball's center is the origin
    ray = Ray((-4, 0), (1, 0))
    got = points_on_ray(ray, Fraction(3, 2))
    assert got == [(-1, 0), (0, 0), (1, 0)]


def test_effectively_irrational_examples():
    assert effectively_irrational((5, 2), 1)
    assert not effectively_irrational((1, 0), 1)
    assert effectively_irrational((21, 1), 10)
    with pytest.raises(PreconditionError):
        effectively_irrational((2, 4), 1)  # not primitive


def test_slice_key_examples():
    pl = coordinate_plane(3)
    assert pl.slice_key((4, -1, 7)) == (0, 0, 7)
    assert {pl.slice_key(z) for z in [(1, 2, 7), (0, 0, 7), (-3, 1, 7)]} \
        == {(0, 0, 7)}
    # d=2: the orthogonal complement is trivial, one slice for everything
    pl2 = coordinate_plane(2)
    assert {pl2.slice_key(z) for z in enumerate_ball(2, 2)} == {(0, 0)}
    # general plane: z and z - a + b land in the same slice
    pl3 = Plane((1, 1, 0), (0, 1, 1))
    assert pl3.slice_key((1, 0, 0)) == pl3.slice_key((0, 0, 1))


def test_group_slices_partitions():
    pl = Plane((1, 1, 0), (0, 1, 1))
    pts = enumerate_ball(3, 3)
    slices = make_plan(3, 3, plane=pl).slices
    groups = {k: shell_points(dec) for k, dec in slices.items()}
    collected = [z for grp in groups.values() for z in grp]
    assert sorted(collected) == sorted(pts)
    for grp in groups.values():
        z0 = grp[0]
        for z in grp[1:]:
            diff = tuple(a - b for a, b in zip(z, z0))
            # difference lies in span{a, b}: projection preserves its norm
            assert Fraction(pl.scaled_inplane_norm2(diff), pl.det) == norm2(diff)


def test_perp_family_injective():
    pts = enumerate_ball(2, 6)
    fam = perp_family(pts)
    assert len({ray_key(ray) for _, ray in fam}) == len(pts)
    pl = Plane((1, 1, 0), (0, 1, 1))
    pts3 = enumerate_ball(3, 4)
    fam3 = perp_family(pts3, pl)
    assert len({ray_key(ray) for _, ray in fam3}) == len(pts3)


def test_perp_family_sizes():
    assert len(perp_family(enumerate_ball(2, 1))) == 5
    annulus = [z for z in enumerate_ball(2, 2) if 1 <= norm2(z) <= 4]
    assert len(perp_family(annulus)) == 12
    assert perp_family([]) == []
