import gc
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_int_grid, reference_data_residual, traverse_cells
from lxray import continuum, rays, recon
from lxray import (BallField, GridFunction, MissingDataError, Plane,
                   PreconditionError, Ray, cell_chord, data_residual,
                   enumerate_ball, forward_balls, forward_continuous,
                   forward_continuous_family, correction_identity_check,
                   hits_centers_only, iterate_recon, layer_recon, make_plan,
                   perp_family, perp_ray)


def test_cell_chord_examples():
    assert cell_chord(Ray((0, 0), (0, 1)), (0, 0)) == 1.0
    assert cell_chord(Ray((0, 0), (1, 1)), (0, 0)) == pytest.approx(math.sqrt(2))
    assert cell_chord(Ray((3, 0), (0, 1)), (0, 0)) == 0.0


def test_cell_chord_symmetries():
    ray = Ray((2, -1), (3, 1))
    cell = (4, 0)
    base_val = cell_chord(ray, cell)
    # joint lattice translation
    moved = cell_chord(Ray((5, 1), (3, 1)), (7, 2))
    assert moved == pytest.approx(base_val, rel=1e-12)
    # coordinate permutation
    flipped = cell_chord(Ray((-1, 2), (1, 3)), (0, 4))
    assert flipped == pytest.approx(base_val, rel=1e-12)


def test_central_chord_at_least_one():
    for z in enumerate_ball(2, 6):
        ray = perp_ray(z)
        w = cell_chord(ray, z)
        assert 1.0 <= w <= math.sqrt(2) + 1e-12


def test_forward_continuous_examples():
    cell = GridFunction(2, 1, {(0, 0): 1.0})
    assert forward_continuous(cell, Ray((0, 0), (0, 1))) == pytest.approx(1.0)
    two = GridFunction(2, 2, {(0, 0): 1.0, (1, 0): 1.0})
    assert forward_continuous(two, Ray((1, 0), (0, 1))) == pytest.approx(1.0)
    assert forward_continuous(GridFunction(2, 3), perp_ray((1, 1))) == 0.0


def test_forward_continuous_against_global_scan():
    f = random_int_grid(2, 6, seed=40)

    def oracle(ray):
        return sum(v * cell_chord(ray, z) for z, v in f.values.items())

    for z, ray in perp_family(enumerate_ball(2, 6)):
        assert forward_continuous(f, ray) == pytest.approx(oracle(ray), abs=1e-9)


def test_forward_continuous_linearity():
    f = random_int_grid(2, 4, seed=41)
    g = random_int_grid(2, 4, seed=42)
    combo = GridFunction(2, 4, {z: 2.0 * f.get(z) + 0.5 * g.get(z)
                                for z in enumerate_ball(2, 4)})
    ray = perp_ray((2, 3))
    lhs = forward_continuous(combo, ray)
    rhs = 2.0 * forward_continuous(f, ray) + 0.5 * forward_continuous(g, ray)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_traverse_cells_covers_chords():
    # inside the window (margin sqrt(d) off the clip radius) the walk must
    # report every cell the line crosses, with the slab-clip chord
    ray = perp_ray((2, 3))
    margin2 = (8.0 - math.sqrt(2)) ** 2
    walked = {cell: chord for cell, chord in traverse_cells(ray, 8.0)
              if sum(c * c for c in cell) <= margin2}
    for cell, chord in walked.items():
        assert chord == pytest.approx(cell_chord(ray, cell), abs=1e-9)
    for cell in enumerate_ball(2, 6):
        expected = cell_chord(ray, cell)
        if expected > 1e-9:
            assert cell in walked
            assert walked[cell] == pytest.approx(expected, abs=1e-9)


def test_correction_identity_single_cell():
    f = GridFunction(2, 1, {(0, 0): 2.5})
    lhs, rhs = correction_identity_check(f, (0, 0))
    assert lhs == pytest.approx(rhs, abs=1e-12)
    assert lhs == pytest.approx(2.5 * cell_chord(perp_ray((0, 0)), (0, 0)))


def test_correction_identity_of_an_empty_field_is_zero():
    assert correction_identity_check(GridFunction(2, 3), (1, 0)) == (0.0, 0.0)
    assert correction_identity_check(GridFunction(3, 2), (0, 1, 0)) == (0.0, 0.0)


def test_correction_identity_random_field():
    f = random_int_grid(2, 4, seed=43)
    for z in enumerate_ball(2, 4):
        lhs, rhs = correction_identity_check(f, z)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@pytest.mark.parametrize("walk", [
    lambda f, ray: forward_continuous(f, ray),
    lambda f, ray: forward_continuous_family(f, [(ray.base, ray)]),
    lambda f, ray: correction_identity_check(f, ray.base, ray),
], ids=["forward_continuous", "family", "identity"])
def test_walks_refuse_a_radius_no_double_holds(walk):
    # refused before any walk or listing of the ball's points
    f = GridFunction(2, 10 ** 400, {(0, 0): 1.0})
    with pytest.raises(PreconditionError, match="radius too large to walk"):
        walk(f, perp_ray((0, 0)))


def test_ball_field_validation():
    with pytest.raises(PreconditionError):
        BallField(2, 2, {(0, 0): (0.6, 1.0, 1.0)})
    with pytest.raises(PreconditionError):
        BallField(2, 2, {(0, 0): (0.25, 0.0, 1.0)})
    with pytest.raises(PreconditionError):
        BallField(2, 2, {(5, 5): (0.25, 1.0, 1.0)})
    with pytest.raises(PreconditionError, match="nonnegative"):
        BallField(2, -1)


def test_forward_balls_example():
    bf = BallField(2, 4, {(0, 0): (0.25, 2.0, 3.0)})
    assert forward_balls(bf, Ray((0, 0), (0, 1))) == pytest.approx(3.0)
    assert forward_balls(bf, Ray((2, 0), (0, 1))) == 0.0


def test_forward_balls_family_membership():
    rng = random.Random(44)
    balls = {z: (0.3, rng.uniform(0.5, 2.0), float(rng.randint(-5, 5)))
             for z in enumerate_ball(2, 3)}
    bf = BallField(2, 3, balls)
    for z, ray in perp_family(enumerate_ball(2, 3)):
        assert hits_centers_only(ray, bf)
        forward_balls(bf, ray)  # does not raise


def test_forward_balls_grazing_rejected():
    bf = BallField(2, 2, {(0, 0): (0.45, 1.0, 1.0)})
    # line through (1,0) with direction (2,1): distance to origin is
    # 1/sqrt(5) ~ 0.447 < 0.45, and the origin is not on the line
    graze = Ray((1, 0), (2, 1))
    assert not hits_centers_only(graze, bf)
    with pytest.raises(PreconditionError):
        forward_balls(bf, graze)


@pytest.mark.parametrize("ray", [Ray((0, 0), (0, 1)),
                                 Ray((0, 0, 0, 0), (0, 0, 0, 1))])
def test_ball_contact_refuses_a_ray_of_another_dimension(ray):
    bf = BallField(3, 2, {(0, 0, 0): (0.25, 1.0, 1.0), (1, 0, 0): (0.25, 1.0, 2.0)})
    for call in (hits_centers_only, lambda r, b: forward_balls(b, r)):
        with pytest.raises(PreconditionError, match="dimensions differ"):
            call(ray, bf)


def test_layer_recon_lone_outer_cell():
    plan = make_plan(2, 4)
    f = GridFunction(2, 4, {(0, 4): 3.0})
    g = forward_continuous_family(f, perp_family(plan.points))
    rec = layer_recon(g, plan)
    assert rec.get((0, 4)) == pytest.approx(3.0, rel=1e-12)


def test_layer_recon_zero_field():
    plan = make_plan(2, 3)
    g = forward_continuous_family(GridFunction(2, 3), perp_family(plan.points))
    rec = layer_recon(g, plan)
    assert all(v == 0.0 for v in rec.values.values())


def test_layer_recon_reports_residual_only():
    # approximation quality is reported, not asserted
    plan = make_plan(2, 8)
    values = {z: (1.0 if z[0] * z[0] + z[1] * z[1] <= 25 else 0.0)
              for z in plan.points}
    f = GridFunction(2, 8, values)
    g = forward_continuous_family(f, perp_family(plan.points))
    rec = layer_recon(g, plan)
    res = data_residual(g, plan, rec)
    assert math.isfinite(res)


def test_layer_recon_missing_entry():
    plan = make_plan(2, 2)
    g = forward_continuous_family(GridFunction(2, 2), perp_family(plan.points))
    g.entries.pop(next(iter(g.entries)))
    with pytest.raises(MissingDataError):
        layer_recon(g, plan)


def test_iterate_fixed_point():
    f = random_int_grid(2, 4, seed=45)
    plan = make_plan(2, 4)
    g = forward_continuous_family(f, perp_family(plan.points))
    iterates, residuals = iterate_recon(g, plan, f_init=f, iters=1)
    assert residuals[0] <= 1e-9
    worst = max(abs(iterates[1].get(z) - f.get(z)) for z in plan.points)
    assert worst <= 1e-9


def test_iterate_zero_data():
    plan = make_plan(2, 3)
    g = forward_continuous_family(GridFunction(2, 3), perp_family(plan.points))
    iterates, residuals = iterate_recon(g, plan, iters=3)
    assert len(iterates) == 4 and len(residuals) == 4
    for it in iterates:
        assert all(v == 0.0 for v in it.values.values())
    assert residuals == [0.0, 0.0, 0.0, 0.0]


def test_iterate_residuals_reported():
    plan = make_plan(2, 4)
    values = {z: (1.0 if z[0] * z[0] + z[1] * z[1] <= 4 else 0.0)
              for z in plan.points}
    f = GridFunction(2, 4, values)
    g = forward_continuous_family(f, perp_family(plan.points))
    iterates, residuals = iterate_recon(g, plan, iters=2)
    assert len(residuals) == 3
    assert all(math.isfinite(r) for r in residuals)


def _noisy_grid(d, r, seed, points):
    rng = random.Random(seed)
    return GridFunction(d, r, {z: rng.uniform(-5, 5) for z in points
                               if rng.random() < 0.8})


def test_data_residual_of_a_smaller_support_matches_the_walk():
    # every cell holding a value lies wholly inside both walks' windows
    plan = make_plan(2, 6)
    g = forward_continuous_family(_noisy_grid(2, 6, 47, plan.points),
                                  plan.rays.items())
    small = _noisy_grid(2, Fraction(7, 2), 48, enumerate_ball(2, Fraction(7, 2)))
    want = reference_data_residual(g, plan, small)
    assert data_residual(g, plan, small).hex() == want.hex()
    _, residuals = iterate_recon(g, plan, f_init=small, iters=1)
    assert residuals[0].hex() == want.hex()


def test_data_residual_refuses_other_dimension_or_larger_radius():
    plan = make_plan(2, 4)
    g = forward_continuous_family(GridFunction(2, 4), plan.rays.items())
    with pytest.raises(PreconditionError):
        data_residual(g, plan, GridFunction(3, 4))
    with pytest.raises(PreconditionError):
        data_residual(g, plan, GridFunction(2, Fraction(9, 2)))
    with pytest.raises(PreconditionError):
        iterate_recon(g, plan, f_init=GridFunction(2, 5))


def test_missing_data_and_a_bad_start_keep_their_errors():
    plan = make_plan(2, 4)
    f = random_int_grid(2, 4, seed=52)
    g = forward_continuous_family(f, plan.rays.items())
    # two entries gone: the first missing target in sweep order is named
    for i in (len(plan.order) - 1, 3):
        del g.entries[plan.keys[i]]
    for call in (lambda: layer_recon(g, plan),
                 lambda: iterate_recon(g, plan, iters=2),
                 lambda: iterate_recon(g, plan, f_init=f, iters=2),
                 lambda: data_residual(g, plan, f)):
        with pytest.raises(MissingDataError) as err:
            call()
        assert str(err.value) == f"no sinogram entry for ray of {plan.order[3]}"
    # a bad start is refused before any datum is read
    g.entries.clear()
    for bad in (GridFunction(3, 4), GridFunction(2, Fraction(9, 2))):
        for call in (lambda: iterate_recon(g, plan, f_init=bad),
                     lambda: data_residual(g, plan, bad)):
            with pytest.raises(PreconditionError) as err:
                call()
            assert str(err.value) == ("the residual needs f of the plan's "
                                      "dimension and at most its radius")


def test_data_residual_passes_over_nan_data_as_the_walk_does():
    plan = make_plan(2, 3)
    f = random_int_grid(2, 3, seed=53)
    g = forward_continuous_family(f, plan.rays.items())
    first, later = plan.keys[0], plan.keys[-1]
    for a, b in ((math.nan, 1e9), (math.inf, math.nan), (-0.0, math.nan)):
        g.entries[first], g.entries[later] = a, b
        want = reference_data_residual(g, plan, f)
        assert math.isfinite(want) == (a != math.inf)
        assert data_residual(g, plan, f).hex() == want.hex()


def test_rounds_walk_each_plan_ray_at_most_once(monkeypatch):
    # a regression to per-round or per-forward walking fails here without
    # a timing gate: the forward compiles the table the rounds read
    walked = Counter()
    real = rays.walk_cells

    def counting(ray_list, radius):
        for walk in real(ray_list, radius):
            walked[ray_list[walk[0]]] += 1
            yield walk

    for mod in (rays, recon, continuum):
        if hasattr(mod, "walk_cells"):
            monkeypatch.setattr(mod, "walk_cells", counting)
    plan = make_plan(2, 5)
    f = random_int_grid(2, 5, seed=49)
    g = forward_continuous_family(f, plan.rays.items())
    iterate_recon(g, plan, iters=3)
    iterate_recon(g, plan, f_init=f, iters=3)
    forward_continuous_family(f, plan.rays.items())
    assert walked and max(walked.values()) == 1
    assert set(walked) <= set(plan.rays.values())


def test_family_forward_builds_one_cut_pattern_per_direction(monkeypatch):
    built = Counter()
    real = rays._cut_pattern

    def counting(p, spans, place):
        built[p] += 1
        return real(p, spans, place)

    monkeypatch.setattr(rays, "_cut_pattern", counting)
    plan = make_plan(3, 3)
    family = list(plan.rays.items())
    del plan  # no live plan's table serves the family: it is walked
    gc.collect()
    dirs = Counter(ray.dir for _, ray in family)
    assert max(dirs.values()) > 1  # the family's rays do share directions
    f = random_int_grid(3, 3, seed=50)
    forward_continuous_family(f, family)
    # a ray walked alone would build its direction's pattern again
    assert built == Counter(dict.fromkeys(dirs, 1))
    forward_continuous_family(f, family)  # nothing is kept between calls
    assert built == Counter(dict.fromkeys(dirs, 2))


def test_correction_identity_along_a_plane_familys_ray():
    plan = make_plan(3, 3, plane=Plane((1, 1, 0), (0, 1, 2)))
    f = random_int_grid(3, 3, seed=51)
    assert any(ray != perp_ray(z) for z, ray in plan.rays.items())
    for z, ray in plan.rays.items():
        lhs, rhs = correction_identity_check(f, z, ray)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    assert correction_identity_check(f, z) == \
        correction_identity_check(f, z, perp_ray(z))
