"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is stated
inline; the exact round trips assert bit equality of doubles.
"""

import math
import time

from conftest import random_int_grid, values_equal
from lxray import (Plane, Ray, ball_count, correction_identity_check,
                   enumerate_ball, farey_count, forward, forward_family,
                   forward_continuous_family, iterate_recon, make_plan, norm2,
                   one_point_directions, one_point_family, perp_family,
                   project_and_bin, ray_key, recon_annulus, recon_one_point,
                   recon_shells, recon_shells_weighted, separation_margin,
                   totient_sum, verify_count_bounds)
from lxray.io import residuals_to_csv


def report(n, message):
    print(f"ACCEPTANCE {n:>2} PASS: {message}")


def run_round_trips(d, r, plane=None, seeds=range(20)):
    plan = make_plan(d, r, plane=plane)
    family = perp_family(plan.points, plane)
    for seed in seeds:
        f = random_int_grid(d, r, seed=seed)
        g = forward_family(f, family)
        assert len(g.entries) == len(plan.points)
        rec = recon_shells(g, plan)
        assert values_equal(rec, f), f"round trip broke at seed {seed}"
    return plan


def test_criterion_01_round_trip_d2_r30():
    t0 = time.time()
    plan = run_round_trips(2, 30)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"d=2 r=30: 20 seeded phantoms bit-exact, "
              f"{len(plan.points)} points, {elapsed:.2f}s < 5s")


def test_criterion_02_round_trip_d3_r10():
    t0 = time.time()
    plan = run_round_trips(3, 10)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(2, f"d=3 r=10 slice form: 20 seeded phantoms bit-exact, "
              f"{len(plan.points)} points, {elapsed:.2f}s < 5s")


def test_criterion_03_round_trip_general_plane():
    t0 = time.time()
    plane = Plane((1, 1, 0), (0, 1, 1))
    plan = run_round_trips(3, 8, plane=plane)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(3, f"d=3 general plane a=(1,1,0) b=(0,1,1) r=8: 20 seeded phantoms "
              f"bit-exact, {len(plan.points)} points, {elapsed:.2f}s < 5s")


def test_criterion_04_annulus_recovery():
    r, alpha, beta = 20, 5, 20
    f = random_int_grid(2, r, seed=104)
    plan = make_plan(2, r, alpha=alpha, beta=beta)
    family = perp_family(plan.points)
    g = forward_family(f, family)  # restricted data only
    rec = recon_annulus(g, plan)
    assert plan.points, "annulus is nonempty"
    lo, hi = alpha * alpha, beta * beta
    assert all(lo <= norm2(z) <= hi for z in plan.points)
    assert all(rec.get(z) == f.get(z) for z in plan.points)
    report(4, f"annulus d=2 r=20 alpha=5 beta=20: {len(plan.points)} points "
              f"recovered bit-exactly from the restricted family alone")


def test_criterion_05_weighted_inversion():
    import random as _random
    rng = _random.Random(105)
    cache = {}

    def w(z, dirv):
        key = (z, dirv)
        if key not in cache:
            cache[key] = rng.uniform(0.5, 2.0)
        return cache[key]

    r = 8
    f = random_int_grid(2, r, seed=106)
    plan = make_plan(2, r, weight=w)
    g = forward_family(f, perp_family(plan.points), weight=w)
    rec = recon_shells_weighted(g, plan)
    worst = max(abs(rec.get(z) - f.get(z)) / (1.0 + abs(f.get(z)))
                for z in plan.points)
    assert worst <= 1e-9, f"worst relative error {worst}"
    report(5, f"weighted inversion r=8, W in [0.5,2]: worst relative error "
              f"{worst:.2e} <= 1e-9")


def test_criterion_06_one_point_formula():
    r = 10
    points = enumerate_ball(2, r)
    assert len(points) == 317
    dirs = one_point_directions(points, r)
    assert all(norm2(theta) > 400 for theta in dirs.values())
    f = random_int_grid(2, r, seed=107)
    g = forward_family(f, one_point_family(points, dirs))
    rec = recon_one_point(g, points, dirs, r)
    assert all(rec.get(z) == f.get(z) for z in points)
    report(6, f"one-point formula r=10: all {len(points)} points exact with "
              f"per-point |dir|^2 > 400")


def test_criterion_07_binning_identity():
    r = 5
    for seed in (70, 71, 72):
        f = random_int_grid(2, r, seed=seed)
        for theta in [(1, 2), (3, 1), (2, 3)]:
            bins = project_and_bin(f, theta)
            for key, value in bins.items():
                assert value == forward(f, Ray(key.base, key.dir))
    report(7, "projection binning r=5, thetas (1,2),(3,1),(2,3): every bin "
              "equals the ray transform exactly on 3 seeded phantoms")


def test_criterion_08_correction_identity():
    r = 8
    f = random_int_grid(2, r, seed=108)
    t0 = time.time()
    worst = 0.0
    for z in enumerate_ball(2, r):
        lhs, rhs = correction_identity_check(f, z)
        err = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, err)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))
    elapsed = time.time() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    report(8, f"chord-correction identity r=8 on all ball points: worst "
              f"relative gap {worst:.2e} <= 1e-9, {elapsed:.2f}s < 2s")


def test_criterion_09_iteration_fixed_point(tmp_path):
    r = 8
    f = random_int_grid(2, r, seed=109)
    plan = make_plan(2, r)
    g = forward_continuous_family(f, perp_family(plan.points))
    iterates, residuals = iterate_recon(g, plan, f_init=f, iters=1)
    worst = max(abs(iterates[1].get(z) - f.get(z)) for z in plan.points)
    assert worst <= 1e-9, f"fixed-point deviation {worst}"
    # convergence from the default start is reported, not asserted
    _, free_residuals = iterate_recon(g, plan, iters=3)
    csv_path = tmp_path / "residuals.csv"
    residuals_to_csv(str(csv_path), free_residuals)
    report(9, f"iteration fixed point r=8: one round moves the true field by "
              f"{worst:.2e} <= 1e-9; free-start residuals "
              f"{[round(x, 3) for x in free_residuals]} reported to CSV")


def test_criterion_10_line_count_bounds():
    t0 = time.time()
    reports = {r: verify_count_bounds(r) for r in (2, 4, 8, 16)}
    elapsed = time.time() - t0
    for r, rep in reports.items():
        assert rep.passed, f"bounds failed at r={r}: {rep}"
        assert rep.lower_bound < rep.count < rep.upper_bound
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    counts = {r: rep.count for r, rep in reports.items()}
    report(10, f"line-count sandwich r in (2,4,8,16): counts {counts} all "
               f"strictly inside their bounds, {elapsed:.2f}s < 10s")


def test_criterion_11_farey_asymptotic():
    n = 1000
    count = farey_count(n, 2)
    assert count == totient_sum(n)  # exact cross-check against the sieve
    ratio = count * math.pi ** 2 / (3.0 * n * n)
    assert 0.99 <= ratio <= 1.01
    report(11, f"Farey level 1000: count {count} matches totient sieve "
               f"exactly; asymptotic ratio {ratio:.5f} in [0.99, 1.01]")


def test_criterion_12_projection_separation():
    margin = separation_margin(25)
    assert margin == 1  # estimate holds and is achieved (equality case)
    assert separation_margin(8, d=3) == 1
    assert separation_margin(5, d=4) == 1
    report(12, "projection separation R=25 (d=2), R=8 (d=3), R=5 (d=4): "
               "exhaustive integer scan passes with minimum margin exactly 1 "
               "(sharp equality case included)")


def test_criterion_13_non_overdetermined():
    for d, r in [(2, 6), (2, 11), (3, 4)]:
        plan = make_plan(d, r)
        f = random_int_grid(d, r, seed=130 + r)
        g = forward_family(f, perp_family(plan.points))
        n = ball_count(d, r)
        assert len(plan.points) == n
        assert len(g.entries) == n
        assert set(plan.keys) == set(g.entries)
        used = {ray_key(plan.rays[z]) for z in plan.points}
        assert used == set(g.entries)
    report(13, "non-overdetermination audit: rays consumed = points "
               "reconstructed = N_r, keys in bijection, for d=2 r=6,11 and "
               "d=3 r=4")
