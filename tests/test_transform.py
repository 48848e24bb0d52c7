import math
import random
from operator import is_

import pytest

from conftest import brute_forward, random_int_grid, table_weight, values_equal
from lxray import (GridFunction, PreconditionError, Ray, ZeroWeightError,
                   constant_weight, effectively_irrational, enumerate_ball,
                   forward, forward_family, forward_weighted, make_plan, norm2,
                   perp_family, perp_ray, project_and_bin, ray_key)


def ones(d, r):
    return GridFunction(d, r, {z: 1.0 for z in enumerate_ball(d, r)})


def test_forward_examples():
    point = GridFunction(2, 1, {(0, 0): 1.0})
    assert forward(point, perp_ray((1, 0))) == 0.0
    assert forward(ones(2, 1), Ray((0, 0), (0, 1))) == 3.0
    assert forward(GridFunction(2, 3), perp_ray((1, 2))) == 0.0


def test_forward_against_support_scan():
    rng = random.Random(5)
    f = random_int_grid(2, 5, seed=6)
    ball = enumerate_ball(2, 5)
    for _ in range(60):
        ray = perp_ray(ball[rng.randrange(len(ball))])
        assert forward(f, ray) == brute_forward(f, ray)


def test_forward_dimension_mismatch():
    with pytest.raises(PreconditionError):
        forward(GridFunction(3, 1), perp_ray((1, 0)))


def test_forward_weighted_examples():
    f = ones(2, 1)
    ray = Ray((0, 0), (0, 1))
    assert forward_weighted(f, ray, constant_weight(1.0)) == forward(f, ray)
    point = GridFunction(2, 1, {(0, 0): 1.0})
    assert forward_weighted(point, Ray((0, 0), (0, 1)), constant_weight(2.0)) == 2.0
    got = forward_weighted(f, ray, lambda z, d: 1.0 + norm2(z))
    assert got == 5.0


def test_table_weight():
    ray = Ray((0, 0), (0, 1))
    table = {((0, y), (0, 1)): float(2 + y) for y in (-1, 0, 1)}
    got = forward_weighted(ones(2, 1), ray, table_weight(table))
    assert got == (2 - 1) + 2 + (2 + 1)


def test_forward_weighted_zero_weight():
    f = ones(2, 1)
    with pytest.raises(ZeroWeightError):
        forward_weighted(f, Ray((0, 0), (0, 1)), lambda z, d: float(z != (0, 0)))
    with pytest.raises(ZeroWeightError):
        constant_weight(0.0)
    for c in (math.inf, -math.inf, math.nan):
        with pytest.raises(PreconditionError, match="finite"):
            constant_weight(c)


def test_forward_family_point_phantom():
    f = GridFunction(2, 1, {(0, 0): 1.0})
    fam = perp_family(enumerate_ball(2, 1))
    sino = forward_family(f, fam)
    assert len(sino.entries) == 5
    for z, ray in fam:
        expected = 1.0 if z == (0, 0) else 0.0
        assert sino.entries[ray_key(ray)] == expected


def test_forward_family_checks_dimension_and_weight():
    fam = perp_family(enumerate_ball(2, 1))
    for weight in (None, constant_weight(1.0)):
        with pytest.raises(PreconditionError):
            forward_family(GridFunction(3, 1), fam, weight=weight)
    with pytest.raises(ZeroWeightError):
        forward_family(ones(2, 1), fam, weight=lambda z, d: float(z != (0, 0)))


def test_forward_family_direction_with_zero_index_step():
    # both directions step the linear index of the box [-m, m]^d by 0
    cases = [(GridFunction(3, 0, {(0, 0, 0): 3.0}), Ray((-1, 0, 1), (1, 0, -1))),
             (GridFunction(2, "5/2", {(0, 0): 3.0}), Ray((-1, 5), (1, -5)))]
    for f, ray in cases:
        assert forward_family(f, [(ray.base, ray)]).entries[ray_key(ray)] == 3.0


def test_forward_family_edge_cases():
    empty = forward_family(GridFunction(2, 2), [])
    assert empty.entries == {}
    f = ones(2, 2)
    assert forward(f, perp_ray((2, 0))) == 1.0


def test_forward_family_keeps_plain_pairs():
    # (z, ray) pairs with tuple z are the sinogram's family as given; other
    # shapes are rebuilt into equal pairs, on and off a plan's table
    f = random_int_grid(2, 3, seed=2)
    family = perp_family(enumerate_ball(2, 3))
    for plan in (None, make_plan(2, 3)):
        if plan is not None:
            family = list(plan.rays.items())
        g = forward_family(f, family)
        assert all(map(is_, g.family, family))
        for other in ([(list(z), ray) for z, ray in family],
                      [(z, ray, 0) for z, ray in family]):
            h = forward_family(f, other)
            assert h.family == g.family and h.entries == g.entries
            assert {type(z) for z, _ in h.family} == {tuple}


def test_linearity_exact_for_integers():
    f = random_int_grid(2, 4, seed=7)
    g = random_int_grid(2, 4, seed=8)
    combo = GridFunction(2, 4, {z: 3.0 * f.get(z) - 2.0 * g.get(z)
                                for z in enumerate_ball(2, 4)})
    for z in [(0, 4), (2, 1), (-3, -2), (0, 0)]:
        ray = perp_ray(z)
        assert forward(combo, ray) == 3.0 * forward(f, ray) - 2.0 * forward(g, ray)


def test_shift_covariance():
    f = random_int_grid(2, 3, seed=9)
    t = (2, -5)
    # declare both on a radius covering the translate so the ray sums see
    # the same physical points
    big_f = GridFunction(2, 9, f.values)
    shifted = GridFunction(2, 9, {(z[0] + t[0], z[1] + t[1]): v
                                  for z, v in f.values.items()})
    for z in [(1, 0), (2, 2), (0, -3)]:
        ray = perp_ray(z)
        moved = Ray((ray.base[0] + t[0], ray.base[1] + t[1]), ray.dir)
        assert forward(big_f, ray) == forward(shifted, moved)


def test_project_and_bin_examples():
    point = GridFunction(2, 1, {(0, 0): 1.0})
    bins = project_and_bin(point, (1, 2))
    assert list(bins.values()) == [1.0]
    cols = project_and_bin(ones(2, 1), (0, 1))
    by_base = {key.base: v for key, v in cols.items()}
    assert by_base == {(-1, 0): 1.0, (0, 0): 3.0, (1, 0): 1.0}


def test_project_and_bin_matches_forward_per_ray():
    f = random_int_grid(2, 5, seed=10)
    for theta in [(1, 2), (3, 1), (2, 3)]:
        bins = project_and_bin(f, theta)
        for key, value in bins.items():
            assert value == forward(f, Ray(key.base, key.dir))


def test_project_and_bin_counts_supported_points():
    f = random_int_grid(2, 4, seed=11)
    theta = (9, 1)
    assert effectively_irrational(theta, 4)
    assert len(project_and_bin(f, theta)) == len(f.values)


def test_project_and_bin_requires_canonical():
    with pytest.raises(PreconditionError):
        project_and_bin(GridFunction(2, 1, {(0, 0): 1.0}), (2, 4))


def test_grid_function_validation():
    with pytest.raises(PreconditionError):
        GridFunction(2, 1, {(2, 0): 1.0})
    with pytest.raises(PreconditionError):
        GridFunction(2, 1, {(0, 0, 0): 1.0})
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(PreconditionError):
            GridFunction(2, 1, {(0, 0): bad})
    with pytest.raises(PreconditionError, match="nonnegative"):
        GridFunction(2, -1)
    with pytest.raises(PreconditionError, match="dimension"):
        GridFunction(1, 1)


def test_values_equal_ignores_explicit_zeros():
    a = GridFunction(2, 2, {(0, 0): 1.0})
    b = GridFunction(2, 2, {(0, 0): 1.0, (1, 1): 0.0})
    assert values_equal(a, b) and values_equal(b, a)
    c = GridFunction(2, 2, {(0, 0): 1.0, (1, 1): 2.0})
    assert not values_equal(a, c)
