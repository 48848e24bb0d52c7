import dataclasses
import gc
import random
import re
import sys
import threading
from fractions import Fraction
from operator import is_

import pytest

from conftest import random_int_grid, shell_points, values_equal
from lxray import (GridFunction, MissingDataError, Plane, PlanError,
                   PreconditionError, ReconPlan, ShellDecomposition,
                   build_shells, constant_weight, chord_weight, enumerate_ball,
                   forward_family, make_plan, norm2, one_point_directions,
                   one_point_family, perp_family, Ray, recon_annulus,
                   recon_one_point, recon_shells, recon_shells_weighted,
                   Sinogram, ZeroWeightError, forward, ray_key)
from lxray import transform


def tstar_data(f, plan, weight=None):
    # the plan's own family, in step order, so its table serves the forward
    return forward_family(f, plan.rays.items(), weight=weight)


def test_one_point_round_trip_indicator():
    f = GridFunction(2, 1, {(0, 0): 1.0})
    pts = enumerate_ball(2, 1)
    dirs = {z: (5, 2) for z in pts}
    g = forward_family(f, one_point_family(pts, dirs))
    rec = recon_one_point(g, pts, dirs, 1)
    assert values_equal(rec, f)


def test_one_point_round_trip_zero():
    pts = enumerate_ball(2, 2)
    dirs = one_point_directions(pts, 2)
    f = GridFunction(2, 2)
    g = forward_family(f, one_point_family(pts, dirs))
    rec = recon_one_point(g, pts, dirs, 2)
    assert values_equal(rec, f)


def test_one_point_round_trip_random():
    pts = enumerate_ball(2, 10)
    dirs = one_point_directions(pts, 10)
    assert all(norm2(t) > 400 for t in dirs.values())
    f = random_int_grid(2, 10, seed=12)
    g = forward_family(f, one_point_family(pts, dirs))
    rec = recon_one_point(g, pts, dirs, 10)
    assert values_equal(rec, f)


def test_one_point_weighted():
    pts = enumerate_ball(2, 3)
    dirs = one_point_directions(pts, 3)
    w = constant_weight(2.5)
    f = random_int_grid(2, 3, seed=14)
    g = forward_family(f, one_point_family(pts, dirs), weight=w)
    rec = recon_one_point(g, pts, dirs, 3, weight=w)
    worst = max(abs(rec.get(z) - f.get(z)) for z in pts)
    assert worst <= 1e-9


def test_one_point_errors():
    pts = enumerate_ball(2, 2)
    dirs = one_point_directions(pts, 2)
    f = random_int_grid(2, 2, seed=13)
    g = forward_family(f, one_point_family(pts, dirs))
    with pytest.raises(PreconditionError):
        recon_one_point(g, pts, {z: (1, 0) for z in pts}, 2)
    with pytest.raises(PreconditionError):
        recon_one_point(g, [(9, 9)], {(9, 9): (5, 2)}, 2)
    with pytest.raises(MissingDataError):
        recon_one_point(g, pts, {z: (2001, 1) for z in pts}, 2)


def test_shells_hand_example_ball_one():
    f = GridFunction(2, 1, {(0, 0): 1.0})
    plan = make_plan(2, 1)
    rec = recon_shells(tstar_data(f, plan), plan)
    assert values_equal(rec, f)
    assert rec.get((0, 0)) == 1.0


def test_shells_round_trip_small():
    for seed in range(5):
        f = random_int_grid(2, 2, seed=seed)
        plan = make_plan(2, 2)
        assert values_equal(recon_shells(tstar_data(f, plan), plan), f)


def test_shells_round_trip_d3_slices():
    f = random_int_grid(3, 3, seed=20)
    plan = make_plan(3, 3)
    assert values_equal(recon_shells(tstar_data(f, plan), plan), f)


def test_shells_round_trip_general_plane():
    pl = Plane((1, 1, 0), (0, 1, 1))
    plan = make_plan(3, 4, plane=pl)
    f = random_int_grid(3, 4, seed=21)
    assert values_equal(recon_shells(tstar_data(f, plan), plan), f)


def test_shells_missing_entry():
    f = random_int_grid(2, 2, seed=22)
    plan = make_plan(2, 2)
    g = tstar_data(f, plan)
    key = next(iter(g.entries))
    del g.entries[key]
    with pytest.raises(MissingDataError):
        recon_shells(g, plan)
    # two missing: the error names the first target in sweep order
    f = random_int_grid(2, 3, seed=22)
    for weight in (None, constant_weight(2.0)):
        plan = make_plan(2, 3, weight=weight)
        g = tstar_data(f, plan, weight)
        for i in (9, 4):
            del g.entries[plan.keys[i]]
        with pytest.raises(MissingDataError,
                           match=re.escape(f"ray of {plan.order[4]}")):
            recon_shells(g, plan)


def test_non_overdetermined_audit():
    for d, r in [(2, 4), (3, 3)]:
        plan = make_plan(d, r)
        g = tstar_data(random_int_grid(d, r, seed=23), plan)
        n = len(enumerate_ball(d, r))
        assert len(plan.points) == n
        assert len(g.entries) == n
        assert set(plan.keys) == set(g.entries)


def test_intra_shell_order_independence():
    f = random_int_grid(2, 4, seed=24)
    plan = make_plan(2, 4)
    g = tstar_data(f, plan)
    baseline = recon_shells(g, plan)
    rng = random.Random(25)
    shuffled_slices = {}
    for skey, dec in plan.slices.items():
        shells = []
        for shell in dec.shells:
            shell = list(shell)
            rng.shuffle(shell)
            shells.append(tuple(shell))
        shuffled_slices[skey] = type(dec)(shells=tuple(shells), norms2=dec.norms2)
    # the plan compiles its sweep from the shuffled slices, so
    # recon_shells follows the shuffled order
    plan2 = ReconPlan(d=plan.d, support_radius=plan.support_radius,
                      points=plan.points, rays=plan.rays, slices=shuffled_slices,
                      plane=plan.plane, weight=plan.weight)
    assert plan2.order != plan.order
    assert values_equal(recon_shells(g, plan2), baseline)


def test_plan_refuses_points_not_in_an_earlier_shell():
    plan = make_plan(2, 2)
    (dec,) = plan.slices.values()

    def replan(shells, norms2):
        ReconPlan(d=2, support_radius=plan.support_radius, points=plan.points,
                  rays=plan.rays, slices={(): ShellDecomposition(shells, norms2)})
    # innermost first: the ray of (0, 0) meets (-2, 0) before it is swept
    with pytest.raises(PlanError, match=r"\(-2, 0\) on the ray of \(0, 0\)"):
        replan(dec.shells[::-1], dec.norms2[::-1])
    # one merged shell: the ray of (1, 0) meets (1, -1) in the same shell
    with pytest.raises(PlanError, match="not in an earlier shell"):
        replan((shell_points(dec),), dec.norms2[:1])
    # only the point opening the last shell is late on the ray of (0, 0)
    small = make_plan(2, 1)
    shells = (((1, 0), (0, 1), (0, -1)), ((-1, 0), (0, 0)))
    with pytest.raises(PlanError, match=r"\(-1, 0\) on the ray of \(0, 0\)"):
        ReconPlan(d=2, support_radius=small.support_radius, points=small.points,
                  rays=small.rays, slices={(): ShellDecomposition(shells, (1, 0))})


def test_plan_refuses_rays_not_perpendicular_at_their_target():
    plan = make_plan(2, 2)

    def replan(ray):
        rays = dict(plan.rays)
        rays[(1, 0)] = ray
        return ReconPlan(d=2, support_radius=plan.support_radius,
                         points=plan.points, rays=rays, slices=plan.slices)
    # tilted: the line through (1, 0) meets (0, -1) in the same shell
    with pytest.raises(PlanError, match=r"\(0, -1\) on the ray of \(1, 0\) "
                                        r"is not in an earlier shell"):
        replan(Ray((1, 0), (1, 1)))
    # the right line, based off z: the same plan as the default
    rebased = replan(Ray((1, 1), (0, 1)))
    assert (rebased.keys, rebased.steps) == (plan.keys, plan.steps)
    # off the line, or of another dimension: the ray misses its target
    for ray in [Ray((2, 1), (0, 1)), Ray((1, 0, 0), (0, 1, 0)),
                Ray((1, 0), (0, 1, 0))]:
        with pytest.raises(PlanError, match=r"ray of \(1, 0\) does not pass"):
            replan(ray)


def test_make_plan_takes_the_given_rays():
    default = make_plan(2, 3, alpha=1, beta=3)
    # rays of points outside the targets are ignored
    assert make_plan(2, 3, alpha=1, beta=3,
                     rays=dict(perp_family(enumerate_ball(2, 4)))) == default
    rays = dict(default.rays)
    del rays[(1, 0)]
    with pytest.raises(PreconditionError, match=r"no ray for target \(1, 0\)"):
        make_plan(2, 3, alpha=1, beta=3, rays=rays)
    rays[(1, 0)] = Ray((1, 0), (1, 1))
    with pytest.raises(PlanError, match=r"\(0, -1\) on the ray of \(1, 0\) "
                                        r"is not in an earlier shell"):
        make_plan(2, 3, alpha=1, beta=3, rays=rays)
    rays[(1, 0)] = Ray((1, -3), (0, 1))  # (1, 0)'s own line, based at k = -3
    rebased = make_plan(2, 3, alpha=1, beta=3, rays=rays)
    assert (rebased.keys, rebased.steps) == (default.keys, default.steps)
    for ray in [Ray((2, 1), (0, 1)), Ray((1, 0, 0), (0, 1, 0))]:
        rays[(1, 0)] = ray
        with pytest.raises(PlanError, match=r"ray of \(1, 0\) does not pass"):
            make_plan(2, 3, alpha=1, beta=3, rays=rays)


@pytest.mark.parametrize("z, ray", [
    ((0, 1), Ray((0, 1), (2, 0))),  # its stride skips (-1, 1) and (1, 1)
    ((1, 0), Ray((1, 0), (0, 0))),  # no line at all
    ((0, 1), Ray((0, 1), (-1, 0))),  # first nonzero entry negative
])
def test_plan_refuses_a_direction_that_is_not_canonical_primitive(z, ray):
    rays = {**make_plan(2, 2).rays, z: ray}
    with pytest.raises(PlanError, match=rf"the ray of \({z[0]}, {z[1]}\) has "
                                        r"direction .* not a canonical primitive"):
        make_plan(2, 2, rays=rays)


def test_shells_round_trip_high_dimension_small_radius():
    # the box [-1, 1]^d far outnumbers the ball's 2d + 1 points
    for d in (12, 40):
        f = random_int_grid(d, 1, seed=d)
        plan = make_plan(d, 1)
        assert values_equal(recon_shells(tstar_data(f, plan), plan), f)
        assert "forward_table" in vars(plan)  # the forward read the plan's table


def test_plan_refuses_targets_outside_the_ball():
    with pytest.raises(PreconditionError, match="outside the support ball"):
        make_plan(2, 2, points=[(0, 0), (2, 1)])


def test_a_sparse_plan_compiles_as_far_as_its_farthest_point():
    # the compile walks each ray to the farthest target, not to r = 10^12
    pts = [z for z in enumerate_ball(3, 4) if z[2] % 2 == 0]
    near, far = make_plan(3, 4, points=pts), make_plan(3, 10 ** 12, points=pts)
    assert any(near.steps)
    for name in ("order", "keys", "steps"):
        assert getattr(far, name) == getattr(near, name)
    with pytest.raises(PreconditionError, match="outside the support ball"):
        make_plan(3, Fraction(39, 10), points=pts)


def test_plan_refuses_a_negative_radius():
    # the ball test squares the radius, so it cannot see a negative one
    for make in (lambda: make_plan(2, -2, points=[(0, 0), (1, 1)]),
                 lambda: make_plan(2, -2),
                 lambda: ReconPlan(d=2, support_radius=-1, points=((0, 0),),
                                   rays={(0, 0): Ray((0, 0), (1, 0))},
                                   slices={(): build_shells([(0, 0)])})):
        with pytest.raises(PreconditionError, match="nonnegative"):
            make()


def test_right_inverse_on_used_rays():
    # an arbitrary integer-valued "sinogram" over the family is reproduced
    # exactly by forward-projecting the reconstruction
    plan = make_plan(2, 3)
    fam = perp_family(plan.points)
    rng = random.Random(26)
    g = forward_family(GridFunction(2, 3), fam)
    g.entries = {k: float(rng.randint(-20, 20)) for k in g.entries}
    rec = recon_shells(g, plan)
    again = forward_family(rec, fam)
    assert again.entries == g.entries


def test_annulus_full_equals_shells():
    f = random_int_grid(2, 3, seed=27)
    plan_full = make_plan(2, 3)
    plan_ann = make_plan(2, 3, alpha=0, beta=3)
    g = tstar_data(f, plan_ann)
    assert values_equal(recon_annulus(g, plan_ann), recon_shells(g, plan_full))


def test_annulus_partial_recovery():
    f = random_int_grid(2, 6, seed=28)
    plan = make_plan(2, 6, alpha=2, beta=6)
    g = tstar_data(f, plan)
    rec = recon_annulus(g, plan)
    assert len(plan.points) < len(enumerate_ball(2, 6))
    for z in plan.points:
        assert rec.get(z) == f.get(z)


def test_annulus_with_only_an_inner_bound():
    f = random_int_grid(2, 6, seed=30)
    plan = make_plan(2, 6, alpha=2)
    g = tstar_data(f, plan)
    rec = recon_annulus(g, plan)
    assert [(z, v.hex()) for z, v in rec.values.items()] == \
        [(z, v.hex()) for z, v in recon_shells(g, plan).values.items()]
    assert len(plan.points) < len(enumerate_ball(2, 6))
    for z in plan.points:
        assert rec.get(z) == f.get(z)


def test_annulus_outside_support_is_zero():
    # data family reaches out to radius 4 but f lives inside radius 2
    f = random_int_grid(2, 2, seed=29)
    big = GridFunction(2, 4, f.values)
    plan = make_plan(2, 4, alpha=3, beta=4)
    g = tstar_data(big, plan)
    rec = recon_annulus(g, plan)
    assert all(rec.get(z) == 0.0 for z in plan.points)


def test_annulus_beta_below_radius_refused():
    with pytest.raises(PreconditionError):
        make_plan(2, 6, alpha=1, beta=4)


def test_weighted_constant_matches_unweighted():
    f = random_int_grid(2, 3, seed=31)
    plan = make_plan(2, 3, weight=constant_weight(4.0))
    g = tstar_data(f, plan, weight=constant_weight(4.0))
    rec = recon_shells_weighted(g, plan)
    assert values_equal(rec, f)


def test_weighted_random_round_trip():
    rng = random.Random(32)
    cache = {}

    def w(z, dirv):
        key = (z, dirv)
        if key not in cache:
            cache[key] = rng.uniform(0.5, 2.0)
        return cache[key]

    f = random_int_grid(2, 8, seed=33)
    plan = make_plan(2, 8, weight=w)
    g = tstar_data(f, plan, weight=w)
    rec = recon_shells_weighted(g, plan)
    worst = max(abs(rec.get(z) - f.get(z)) / (1.0 + abs(f.get(z)))
                for z in plan.points)
    assert worst <= 1e-9


def test_weighted_chord_round_trip():
    w = chord_weight()
    f = random_int_grid(2, 5, seed=34)
    plan = make_plan(2, 5, weight=w)
    g = tstar_data(f, plan, weight=w)
    rec = recon_shells_weighted(g, plan)
    worst = max(abs(rec.get(z) - f.get(z)) / (1.0 + abs(f.get(z)))
                for z in plan.points)
    assert worst <= 1e-9


def test_weighted_requires_weight():
    plan = make_plan(2, 2)
    g = tstar_data(random_int_grid(2, 2, seed=35), plan)
    with pytest.raises(PreconditionError):
        recon_shells_weighted(g, plan)


@pytest.mark.parametrize("d, target", [(2, (1, 0, 0)), (3, (1, 0))])
def test_target_of_another_dimension_is_refused(d, target):
    # a hand-built plan reaches the compile
    with pytest.raises(PreconditionError):
        plan = ReconPlan(d=d, support_radius=2, points=(target,),
                         rays=dict(perp_family([target])),
                         slices={(): build_shells([target])})
        recon_shells(Sinogram(d, {key: 1.0 for key in plan.keys}), plan)
    with pytest.raises(PreconditionError):
        recon_shells(Sinogram(1, {}), make_plan(1, 0, points=[]))


@pytest.mark.parametrize("d, target", [(2, (1, 0, 0)), (3, (1, 0))])
def test_make_plan_refuses_a_target_of_another_dimension(d, target):
    # checked before the shells are built, whose norms would raise ValueError
    with pytest.raises(PreconditionError):
        make_plan(d, 2, points=[target])


def per_ray(f, rays):
    """The per-ray forward, one entry per line in order of first appearance."""
    out = {}
    for ray in rays:
        out.setdefault(ray_key(ray), forward(f, ray))
    return [(k, v.hex()) for k, v in out.items()]


def hexed(g):
    return [(k, v.hex()) for k, v in g.entries.items()]


def test_plans_register_until_deleted():
    gc.collect()
    plan = make_plan(2, 3)
    assert transform.PLANS[id(plan)] is plan
    forward_family(random_int_grid(2, 3, seed=1), plan.rays.items())
    assert "forward_table" in vars(plan)
    del plan
    gc.collect()
    assert not transform.PLANS


def test_plan_table_misses_other_grids_and_families():
    plan = make_plan(2, 3)
    rays = tuple(plan.rays.values())
    f = random_int_grid(2, 3, seed=2)
    assert transform._plan_table(f, rays) is plan
    # another radius: the rays' spans in the larger ball differ
    wide = random_int_grid(2, Fraction(7, 2), seed=3)
    assert transform._plan_table(wide, rays) is None
    assert hexed(forward_family(wide, plan.rays.items())) == per_ray(wide, rays)
    # another dimension: refused before any table is read
    f3 = random_int_grid(3, 3, seed=4)
    assert transform._plan_table(f3, rays) is None
    with pytest.raises(PreconditionError, match="dimensions differ"):
        forward_family(f3, plan.rays.items())
    # one ray of another line
    z = plan.order[0]
    moved = [(y, Ray(y, (1, 0)) if y == z else ray)
             for y, ray in plan.rays.items()]
    assert transform._plan_table(f, tuple(r for _, r in moved)) is None
    assert hexed(forward_family(f, moved)) == per_ray(f, [r for _, r in moved])


def test_a_new_plan_weight_is_compiled_afresh():
    # one plan per weight: stale columns would scale the data or the
    # quotients by another weight
    f = random_int_grid(2, 4, seed=8)
    for w in (constant_weight(2.0), constant_weight(4.0),
              lambda z, p: 1.0 + z[0] % 2, None):
        plan = make_plan(2, 4, weight=w)
        g = forward_family(f, plan.rays.items(), weight=w)
        assert values_equal(recon_shells(g, plan), f)
    last = plan.order[-1]
    plan = make_plan(2, 4, weight=lambda z, p: float(z != last))
    with pytest.raises(ZeroWeightError,
                       match=re.escape(f"weight vanishes at {last}")):
        recon_shells(g, plan)


def test_a_compiled_plan_cannot_be_changed():
    plan = make_plan(2, 3, weight=constant_weight(2.0))
    f = random_int_grid(2, 3, seed=5)
    w = plan.weight
    g = forward_family(f, plan.rays.items(), weight=w)
    tables = plan.forward_table, plan.chord_table, plan.forward_weights
    z = next(y for y, ray in plan.rays.items() if ray.dir != (1, 0))
    ray = plan.rays[z]
    with pytest.raises(TypeError):
        plan.rays[z] = Ray(z, (1, 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.weight = constant_weight(4.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.support_radius = Fraction(5, 2)
    assert plan.rays[z] is ray and plan.weight is w
    assert plan.support_radius == 3
    assert all(map(is_, (plan.forward_table, plan.chord_table,
                         plan.forward_weights), tables))
    assert transform._plan_table(f, tuple(plan.rays.values()), w) is plan
    again = forward_family(f, plan.rays.items(), weight=w)
    assert hexed(again) == hexed(g)
    assert values_equal(recon_shells(again, plan), f)


def test_a_plan_changed_after_compiling_never_gives_stale_sums():
    # a family with one ray moved, or a grid of another radius, is
    # projected afresh; the plan's own family still reads its table
    plan = make_plan(2, 3)
    f = random_int_grid(2, 3, seed=5)
    family = list(plan.rays.items())
    forward_family(f, family)
    table = plan.forward_table
    z = next(y for y, ray in family if ray.dir != (1, 0))
    moved = [(y, Ray(z, (1, 0)) if y == z else ray) for y, ray in family]
    assert transform._plan_table(f, tuple(r for _, r in moved)) is None
    assert hexed(forward_family(f, moved)) == per_ray(f, [r for _, r in moved])
    assert transform._plan_table(f, tuple(r for _, r in family)) is plan
    assert hexed(forward_family(f, family)) == per_ray(f, [r for _, r in family])
    small = GridFunction(2, Fraction(5, 2), {y: v for y, v in f.values.items()
                                             if 4 * sum(c * c for c in y) <= 25})
    assert transform._plan_table(small, tuple(plan.rays.values())) is None
    assert hexed(forward_family(small, family)) == \
        per_ray(small, plan.rays.values())
    assert plan.forward_table is table


def test_threads_building_and_projecting_plans_agree():
    # each thread builds plans while others scan the registry
    f = random_int_grid(2, 2, seed=6)
    want = per_ray(f, make_plan(2, 2).rays.values())
    bad = []

    def work():
        try:
            alive = [make_plan(2, 2) for _ in range(30)]  # a long registry
            for _ in range(40):
                plan = make_plan(2, 2)
                alive.append(plan)
                if hexed(forward_family(f, plan.rays.items())) != want:
                    bad.append(plan)
        except Exception as exc:  # a thread's error would be lost otherwise
            bad.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
