"""Property tests over randomly generated inputs (needs hypothesis)."""

import ast
import gc
import itertools
import json
import math
import random
import re
from collections import Counter, namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from operator import add, is_, mul, neg
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from conftest import (box_scan_ray_points, brute_forward, brute_line_count,
                      brute_ray_points, brute_separation_margin, lagrange_q, on_line,
                      random_int_grid, reduced_key, values_equal,
                      reference_canonical_primitives,
                      reference_correction_identity,
                      reference_corrected_sinogram, reference_data_residual,
                      reference_farey_count, reference_forward_continuous,
                      reference_grid_values, reference_layer_recon, reference_lens,
                      reference_line_count,
                      reference_obj_to_grid, reference_obj_to_sino,
                      reference_perp_family, reference_sweep, reference_traverse_cells,
                      traverse_cells)
from lxray import (GridFunction, Plane, PreconditionError, Ray, ball_count,
                   canonical_primitives, cell_chord, chord_weight,
                   constant_weight, correction_identity_check,
                   count_connecting_lines, data_residual,
                   effectively_irrational, enumerate_ball, farey_count,
                   forward, forward_continuous_family,
                   forward_family, forward_weighted, iterate_recon,
                   layer_recon, make_plan, norm2, one_point_directions,
                   one_point_family, perp_family, perp_ray, points_on_ray,
                   primitive, ray_key, recon_annulus, recon_shells,
                   separation_margin)
from lxray import MissingDataError, PlanError, ZeroWeightError, cli, lattice
from lxray import io as lio
from lxray import counting, transform
from lxray.continuum import _chord_sums, _corrected_sinogram
from lxray.counting import (_direction_minimum, _lens_sizes,
                            _orbit_representatives, primitive_count)
from lxray.lattice import as_fraction, count_within, totient_sum
from lxray.recon import sweep_data
from lxray.rays import is_perp_ray, ray_table, walk_box, walk_cells
from lxray.transform import FamilyMeta


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.tuples(st.just(2), st.fractions(0, 4, max_denominator=12)),
    st.tuples(st.just(3), st.fractions(0, "5/2", max_denominator=12))))
def test_count_connecting_lines_matches_pair_scan(case):
    d, r = case
    assert count_connecting_lines(r, d) == brute_line_count(r, d)


# the largest radius per dimension whose line count fits the default budget
_LINE_COUNT_CAPS = {2: 20, 3: 6, 4: 4, 5: 3, 6: "5/2", 7: "12/5", 8: 2}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_LINE_COUNT_CAPS)).flatmap(
    lambda d: st.tuples(st.just(d), st.fractions(0, _LINE_COUNT_CAPS[d],
                                                 max_denominator=12))))
@example((2, Fraction(20)))
@example((7, Fraction(12, 5)))
@example((8, Fraction(2)))  # 1,445,760 lines
def test_count_connecting_lines_matches_congruence_classes(case):
    d, r = case
    assert count_connecting_lines(r, d) == reference_line_count(r, d)


@st.composite
def separation_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return d, draw(st.fractions(1, 3 if d == 4 else 6, max_denominator=4))


@settings(max_examples=30, deadline=None)
@given(separation_cases())
@example((2, Fraction(1)))
@example((3, Fraction(6)))
@example((4, Fraction(3)))
def test_separation_minimum_per_direction_matches_pair_scan(case):
    # the global margin is 1 at every R >= 1, so each orbit's own minimum
    # is compared: its representative against the canonical primitives no
    # longer than itself, the prefix the scan passes
    d, R = case
    prims = reference_canonical_primitives(R, d)
    for rho in _orbit_representatives(R, d):
        prefix = [w for w in prims if norm2(w) <= norm2(rho)]
        least = min(q for w in prefix if (q := lagrange_q(rho, w)))
        cols, norms = list(zip(*prefix)), list(map(norm2, prefix))
        assert _direction_minimum(rho, cols, norms) == least
    assert separation_margin(R, d) == brute_separation_margin(R, d)


_BIG = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))


@st.composite
def plane_columns(draw):
    # any nonzero direction, rows collinear with it (zero minors, the
    # origin among them) and at least one row that is not
    zeta = draw(st.tuples(_BIG, _BIG).filter(any))
    g = math.gcd(*zeta)
    step = (zeta[0] // g, zeta[1] // g)
    rows = [(k * step[0], k * step[1])
            for k in draw(st.lists(_BIG, max_size=8))]
    rows += draw(st.lists(st.tuples(_BIG, _BIG), max_size=20))
    rows.append(draw(st.tuples(_BIG, _BIG).filter(
        lambda z: zeta[0] * z[1] != zeta[1] * z[0])))
    return zeta, draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(plane_columns())
@example(((1, 0), [(0, 0), (5, 0), (-3, 0), (2 ** 64, 7)]))
@example(((2 ** 63, -(2 ** 63) - 1), [(2 ** 63, -(2 ** 63) - 1), (1, 1)]))
def test_direction_minimum_in_the_plane_is_the_gram_minimum(case):
    zeta, rows = case
    na = zeta[0] ** 2 + zeta[1] ** 2
    grams = [na * (x * x + y * y) - (zeta[0] * x + zeta[1] * y) ** 2
             for x, y in rows]
    cols, norms = list(zip(*rows)), [x * x + y * y for x, y in rows]
    assert _direction_minimum(zeta, cols, norms) == min(filter(None, grams))


def _signed_permutations(d):
    """Every signed coordinate permutation of Z^d, as a function on vectors."""
    return [lambda z, perm=perm, signs=signs: tuple(
                s * z[i] for s, i in zip(signs, perm))
            for perm in itertools.permutations(range(d))
            for signs in itertools.product((1, -1), repeat=d)]


@st.composite
def coverage_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return d, draw(st.fractions(1, {2: 7, 3: 3, 4: 2}[d], max_denominator=4))


@settings(max_examples=20, deadline=None)
@given(coverage_cases())
@example((2, Fraction(7)))
@example((3, Fraction(3)))
@example((4, Fraction(2)))
def test_separation_scan_meets_every_pair(case):
    # the margin is 1 at every R >= 1, so it cannot tell a partial scan
    # from a full one: every pair of distinct canonical primitives must
    # map, by a signed permutation and a sign, onto a scanned pair
    d, R = case
    scanned = {}  # representative -> (its prefix of points, its minimum)
    scan = counting._direction_minimum

    def recorded(rho, cols, norms):
        scanned[rho] = set(zip(*cols)), scan(rho, cols, norms)
        return scanned[rho][1]

    with mock.patch.object(counting, "_direction_minimum", recorded):
        separation_margin(R, d)
    prims = reference_canonical_primitives(R, d)
    moves = _signed_permutations(d)
    onto_rep = {x: [g for g in moves if g(x) in scanned] for x in prims}
    for a, b in itertools.combinations(prims, 2):
        q = lagrange_q(a, b)
        met = [(g(x), g(y)) for x, y in ((a, b), (b, a)) for g in onto_rep[x]
               if {g(y), tuple(map(neg, g(y)))} & scanned[g(x)][0]]
        assert met, (a, b)
        for rho, w in met:
            assert lagrange_q(rho, w) == q >= scanned[rho][1]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.fractions(0, 6, max_denominator=6),
       st.integers(-1, 400))
def test_counted_sizes_match_enumeration(d, r, cap):
    if d == 4:
        r = r / 2
    points = len(enumerate_ball(d, r))
    prims = len(canonical_primitives(r, d))
    assert ball_count(d, r) == points
    assert primitive_count(r, d) == prims
    # a capped count is exact up to the cap and above it otherwise
    capped = count_within(d, Fraction(r) ** 2, cap)
    assert capped == points if points <= cap else capped > cap
    capped = primitive_count(r, d, cap=cap)
    assert capped == prims if prims <= cap else capped > cap


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.fractions(0, 2, max_denominator=12).filter(
    lambda r: r < 2))
def test_count_within_below_radius_two_matches_enumeration(d, r):
    # r^2 < 4: every coordinate is 0 or +-1, counted in closed form
    assert count_within(d, Fraction(r) ** 2) == len(enumerate_ball(d, r))


@st.composite
def farey_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return d, draw(st.integers(1, {2: 300, 3: 25, 4: 10}[d]))


@settings(max_examples=60, deadline=None)
@given(farey_cases())
@example((2, 300))
@example((3, 25))
@example((4, 10))
def test_farey_sieve_count_matches_gcd_per_tuple(case):
    d, n = case
    assert farey_count(n, d) == reference_farey_count(n, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10953))
@example(1)
@example(10953)
def test_farey_count_is_the_totient_sum(n):
    assert farey_count(n, 2) == totient_sum(n)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from((5, 6)), st.integers(1, 5))
@example(5, 5)
@example(6, 5)
def test_farey_count_matches_gcd_per_tuple_in_five_and_six_dimensions(d, n):
    assert farey_count(n, d) == reference_farey_count(n, d)


def test_farey_count_reads_no_totient():
    # count farey's totient-sieve oracle stays an independent check
    def forbidden(*args):
        raise AssertionError("farey_count read a totient")

    with mock.patch.object(lattice, "totient_sieve", forbidden), \
            mock.patch.object(lattice, "totient_sum", forbidden):
        counts = {(n, d): farey_count(n, d)
                  for d, top in ((2, 300), (3, 25), (4, 10)) for n in (1, top)}
    assert counts == {k: reference_farey_count(*k) for k in counts}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((2, 3, 4)), st.fractions(0, 8, max_denominator=6))
@example(2, Fraction(1, 2))
@example(3, Fraction(0))
@example(4, Fraction(7, 2))
def test_canonical_primitives_match_primitive_filter(d, r):
    if d > 2:
        r = r / (d - 1)
    assert canonical_primitives(r, d) == reference_canonical_primitives(r, d)


@st.composite
def lens_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    prefix = st.tuples(*[st.integers(-4, 4)] * (d - 1))
    rows = draw(st.dictionaries(prefix, st.integers(0, 6), max_size=40))
    head = draw(st.tuples(*[st.integers(-8, 8)] * (d - 1)))
    return rows, head, draw(st.lists(st.integers(-16, 16), max_size=12))


@settings(max_examples=300, deadline=None)
@given(lens_cases())
@example(({}, (0,), [0, -3, 3]))
@example(({(0,): 2, (1,): 0}, (1,), [-1, 0, 0, 1, 2, -2]))
def test_lens_columns_match_row_loop(case):
    rows, head, ts = case
    assert _lens_sizes(rows, head, ts) == [
        reference_lens(rows, (*head, t)) for t in ts]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.fractions(0, 8, max_denominator=6))
@example(2, Fraction(8))
@example(5, Fraction(8))
@example(5, Fraction(0))
@example(5, Fraction(5, 2))
def test_orbit_representatives_match_primitive_filter(d, rho):
    reps = _orbit_representatives(rho, d)
    assert reps == Counter(tuple(sorted(map(abs, theta)))
                           for theta in reference_canonical_primitives(rho, d))
    assert sum(reps.values()) == primitive_count(rho, d)


def _independent(ab):
    a, b = ab  # some 2x2 minor of (a, b) is nonzero
    return any(a[i] * b[j] != a[j] * b[i]
               for i in range(len(a)) for j in range(i + 1, len(a)))


@st.composite
def round_trip_cases(draw, radii=None):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(radii(d) if radii else
             st.fractions(0, 4 if d < 4 else 2, max_denominator=6))
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
    assert set(plan.keys) == set(g.entries)
    assert len(set(plan.keys)) == len(plan.keys)  # one line per target
    rec = (recon_annulus(g, plan) if beta is not None
           else recon_shells(g, plan))
    assert set(rec.values) == set(plan.points)
    assert all(rec.values[z] == f.get(z) for z in plan.points)


@st.composite
def plan_forward_cases(draw):
    d, r, plane, alpha, beta, seed = draw(round_trip_cases())
    if plane is None and draw(st.booleans()):  # a random plane in any d
        vec = st.tuples(*[st.integers(-2, 2)] * d)
        plane = Plane(*draw(st.tuples(vec, vec).filter(_independent)))
    ball = enumerate_ball(d, r)
    points = None
    if draw(st.booleans()):  # a subset: its rays cross ball points off it
        points = draw(st.lists(st.sampled_from(ball), unique=True, max_size=40))
    kind = draw(st.sampled_from(("int", "perturbed", "zeros")))
    return d, r, plane, alpha, beta, points, kind, seed


@settings(max_examples=80, deadline=None)
@given(plan_forward_cases())
@example((2, Fraction(2), None, Fraction(3), Fraction(3), None, "int", 0))
@example((2, Fraction(3), None, None, None, [(0, 0), (1, 0)], "int", 0))
def test_plan_forward_matches_the_column_path(case):
    # through a live plan's table and, once the plan is gone, through the
    # one-shot columns on an equal family: same entries, order and float.hex.
    # A plan whose rays hold a ball point past its farthest target (a
    # subset, say) compiles one fresh table instead; one with no targets
    # serves its empty family.
    d, r, plane, alpha, beta, points, kind, seed = case
    rng = random.Random(seed)
    values = {z: float(rng.randint(-9, 9)) for z in enumerate_ball(d, r)}
    if kind == "perturbed":
        values = {z: v + rng.uniform(-1e-3, 1e-3) for z, v in values.items()}
    elif kind == "zeros":
        values = {z: rng.choice((0.0, -0.0, rng.uniform(-5, 5)))
                  for z in values}
    f = GridFunction(d, r, values)
    plan = make_plan(d, r, points=points, plane=plane, alpha=alpha, beta=beta)
    top = max(map(norm2, plan.order), default=0)
    beyond = any(norm2(y) > top for ray in plan.sweep_rays
                 for y in brute_ray_points(ray, r))
    with mock.patch.object(transform, "ray_table", side_effect=ray_table) as compile_:
        got = forward_family(f, plan.rays.items())
    assert compile_.call_count == beyond
    family = [(z, Ray(tuple(ray.base), tuple(ray.dir)))
              for z, ray in plan.rays.items()]
    del plan
    gc.collect()
    assert not transform.PLANS
    want = forward_family(f, family)
    assert [(k, v.hex()) for k, v in got.entries.items()] == \
        [(k, v.hex()) for k, v in want.entries.items()]
    assert got.family == want.family and got.meta == want.meta


def _varying_weight(z, p):
    return 0.5 + (sum(z) + 2 * p[0]) % 3 * 0.375


WEIGHTS = {"none": None, "const": constant_weight(1.7),
           "varying": _varying_weight, "chord": chord_weight()}


def _wide_radii(d):
    # rays through several plan points, so subtraction order can show
    return st.sampled_from((Fraction(3, 2), 2, Fraction(5, 2)) if d == 4
                           else (2, Fraction(5, 2), 3, Fraction(7, 2), 4))


@settings(max_examples=60, deadline=None)
@given(round_trip_cases(_wide_radii), st.sampled_from(sorted(WEIGHTS)))
def test_recon_shells_matches_reference_sweep_bit_for_bit(case, weight):
    # non-integer data with signed zeros: rounding order and the sign of
    # zero both show in float.hex, so the compiled sweep must subtract
    # exactly the terms of the dict walk, in the same order
    d, r, plane, alpha, beta, seed = case
    plan = make_plan(d, r, plane=plane, weight=WEIGHTS[weight],
                     alpha=alpha, beta=beta)
    rng = random.Random(seed)
    zeros = rng.choice((0.3, 0.9))  # mostly-zero data recovers many -0.0
    g = forward_family(GridFunction(d, r), plan.rays.items())
    g.entries = {k: rng.choice((0.0, -0.0)) if rng.random() < zeros
                 else rng.choice((1.0, -1.0, rng.uniform(-10, 10)))
                 for k in g.entries}
    got = recon_shells(g, plan).values
    want = reference_sweep(g, plan)
    assert [(z, v.hex()) for z, v in got.items()] == \
        [(z, v.hex()) for z, v in want.items()]


@st.composite
def general_ray_cases(draw):
    """A ray through each point of a small ball, its base moved off the
    point by k*dir, |k| <= 3. Its direction is random and short for every
    point or for up to three, and else the point's perpendicular one or a
    long (m, 1, 0, ...), m > 2r, which meets the ball at the point alone."""
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(1, {2: 3, 3: 2, 4: Fraction(3, 2)}[d], max_denominator=2))
    ball = enumerate_ball(d, r)
    wild = set(ball) if draw(st.booleans()) else set(
        draw(st.lists(st.sampled_from(ball), max_size=3)))
    rays = {}
    for z, perp in perp_family(ball):
        if z in wild:
            p = primitive(draw(st.tuples(*[st.integers(-3, 3)] * d).filter(any)))
        else:
            m = math.floor(2 * r) + 1 + draw(st.integers(0, 3))
            p = draw(st.sampled_from((perp.dir, (m, 1) + (0,) * (d - 2))))
        k = draw(st.integers(-3, 3))
        rays[z] = Ray(tuple(c + k * q for c, q in zip(z, p)), p)
    return d, r, rays, draw(st.integers(0, 2 ** 16))


def _one_point_case(r):
    ball = enumerate_ball(2, r)
    return 2, r, dict(one_point_family(ball, one_point_directions(ball, r))), 5


def _rebased_perp_case(d, r):
    """The perpendicular family, each ray based k*dir off its point."""
    return d, r, {z: Ray(tuple(c + (sum(z) % 5 - 2) * q
                               for c, q in zip(z, ray.dir)), ray.dir)
                  for z, ray in perp_family(enumerate_ball(d, r))}, 11


@settings(max_examples=60, deadline=None)
@given(general_ray_cases())
@example(_one_point_case(3))
@example(_rebased_perp_case(3, 2))
def test_a_plan_compiles_any_ray_through_its_target_or_names_a_late_point(case):
    # the shell rule is the compile's one certificate: an accepted plan
    # sweeps like the dict walk, and a refused one names a plan point on
    # the target's line that the sweep has not recovered yet
    d, r, rays, seed = case
    default = make_plan(d, r)  # the same targets, slices and shells
    try:
        plan = make_plan(d, r, rays=rays)
    except PlanError as exc:
        late, z = map(ast.literal_eval, re.fullmatch(
            r"(\(.*\)) on the ray of (\(.*\)) is not in an earlier shell",
            str(exc)).groups())
        shells = [s for k in sorted(default.slices) for s in default.slices[k].shells]
        rank = {y: i for i, shell in enumerate(shells) for y in shell}
        assert late != z and late in brute_ray_points(rays[z], r)
        assert rank[late] >= rank[z]
        return
    if all(norm2(ray.dir) > 4 * r * r for ray in rays.values()):
        assert not any(plan.steps)  # effectively irrational: one-point formula
    f = random_int_grid(d, r, seed)
    g = forward_family(f, rays.items())
    assert values_equal(recon_shells(g, plan), f)
    # non-integer data with signed zeros: bit for bit the dict walk
    rng = random.Random(seed)
    g.entries = {k: rng.choice((0.0, -0.0, 1.0, rng.uniform(-10, 10)))
                 for k in g.entries}
    got = [(z, v.hex()) for z, v in recon_shells(g, plan).values.items()]
    assert got == [(z, v.hex()) for z, v in reference_sweep(g, plan).items()]
    if all(reduced_key(rays[z]) == reduced_key(default.rays[z]) for z in rays):
        assert (plan.keys, plan.steps) == (default.keys, default.steps)
        assert got == [(z, v.hex())
                       for z, v in recon_shells(g, default).values.items()]


def _phantoms(d, r, seed):
    """An integer, a perturbed and a signed-zero phantom on the ball."""
    rng = random.Random(seed)
    ints = {z: float(rng.randint(-9, 9)) for z in enumerate_ball(d, r)}
    return [GridFunction(d, r, values) for values in (
        ints, {z: v + rng.uniform(-1e-3, 1e-3) for z, v in ints.items()},
        {z: rng.choice((0.0, -0.0, rng.uniform(-5, 5))) for z in ints})]


def _hexed(g):
    return [(k, v.hex()) for k, v in g.entries.items()]


def _first_rays(family):
    """Each line's first ray in the family, by line key, in order."""
    firsts = {}
    for _, ray in family:
        firsts.setdefault(ray_key(ray), ray)
    return firsts


@settings(max_examples=40, deadline=None)
@given(round_trip_cases(), st.sampled_from(("const", "varying", "chord")))
def test_weighted_plan_forward_matches_the_per_call_path(case, name):
    # the plan's weight column against the fresh table of an equal family
    # once the plan is gone, and both against forward_weighted, point by
    # point, on each line's first ray: same entries, order and float.hex
    d, r, plane, alpha, beta, seed = case
    weight, fs = WEIGHTS[name], _phantoms(d, r, seed)
    plan = make_plan(d, r, plane=plane, weight=weight, alpha=alpha, beta=beta)
    with mock.patch.object(transform, "ray_table", side_effect=AssertionError):
        got = [forward_family(f, plan.rays.items(), weight=weight) for f in fs]
    # an equal constant weight that is another object misses the table
    other = constant_weight(1.7)
    assert transform._plan_table(fs[0], tuple(plan.rays.values()), other) is None
    if name == "const":
        assert _hexed(forward_family(fs[0], plan.rays.items(), weight=other)) \
            == _hexed(got[0])
    family = [(z, Ray(tuple(ray.base), tuple(ray.dir)))
              for z, ray in plan.rays.items()]
    del plan
    gc.collect()
    assert not transform.PLANS
    firsts = _first_rays(family)
    for f, g in zip(fs, got):
        want = forward_family(f, family, weight=weight)
        assert _hexed(g) == _hexed(want)
        assert g.family == want.family and g.meta == want.meta
        assert _hexed(want) == [(k, forward_weighted(f, ray, weight).hex())
                                for k, ray in firsts.items()]


def _error(call):
    try:
        call()
    except ZeroWeightError as exc:
        return str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(round_trip_cases(), st.sampled_from(("const", "varying", "chord")))
def test_a_vanishing_weight_is_named_alike_on_both_paths(case, name):
    d, r, plane, alpha, beta, seed = case
    rng = random.Random(seed)
    f = _phantoms(d, r, seed)[0]
    plain = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    order, table = plain.order, plain.forward_table
    # W vanishes at two targets (or none), at a point of no target on a
    # plan ray (an annulus hole) and at a target on another target's
    # direction: the forward names the first zero in ray and point order,
    # the sweep only a zero at a target, the first in sweep order
    dead = set(rng.sample(order, min(2, len(order))))
    holes = table.points[len(order):]
    hole = rng.choice(holes) if holes else None
    on = [(order[j], plain.sweep_rays[i].dir)
          for i, s in enumerate(plain.steps) for j in s]
    crossing = rng.choice(on) if on else None
    base = WEIGHTS[name]

    def weight(z, p):
        return 0.0 if z in dead or z == hole or (z, p) == crossing else base(z, p)

    plan = make_plan(d, r, plane=plane, weight=weight, alpha=alpha, beta=beta)
    family = [(z, Ray(tuple(ray.base), tuple(ray.dir)))
              for z, ray in plan.rays.items()]
    with mock.patch.object(transform, "ray_table", side_effect=AssertionError):
        message = _error(lambda: forward_family(f, plan.rays.items(),
                                                weight=weight))
    first = next((y for ray in _first_rays(family).values()
                  for y in brute_ray_points(ray, r) if weight(y, ray.dir) == 0),
                 None)
    assert message == (None if first is None else f"weight vanishes at {first}")
    assert (message is None) == (not dead and hole is None and crossing is None)
    g = forward_family(f, family, weight=base)
    swept = _error(lambda: recon_shells(g, plan))
    assert swept == _error(lambda: reference_sweep(g, plan))
    assert (swept is None) == (not dead)
    del plan
    gc.collect()
    assert _error(lambda: forward_family(f, family, weight=weight)) == message
    assert _error(lambda: [forward_weighted(f, ray, weight)
                           for ray in _first_rays(family).values()]) == message


@settings(max_examples=30, deadline=None)
@given(round_trip_cases())
def test_a_plan_calls_its_weight_once_per_incidence(case):
    d, r, plane, alpha, beta, seed = case
    calls = []

    def weight(z, p):
        calls.append(z)
        return 1.5

    plan = make_plan(d, r, plane=plane, weight=weight, alpha=alpha, beta=beta)
    with mock.patch.object(transform, "ray_table", side_effect=AssertionError):
        for f in _phantoms(d, r, seed):
            recon_shells(forward_family(f, plan.rays.items(), weight=weight), plan)
    # the forward and the sweep read one double per column slot
    assert len(calls) == len(plan.forward_table.gather)


@settings(max_examples=30, deadline=None)
@given(round_trip_cases())
def test_a_plan_table_gathers_one_int_object_per_point(case):
    # every slot naming a point holds that point's one number object, so
    # reading the column boxes no int
    d, r, plane, alpha, beta, seed = case
    table = make_plan(d, r, plane=plane, alpha=alpha, beta=beta).forward_table
    assert type(table.gather) is tuple and type(table.lens) is list
    assert len(set(map(id, table.gather))) == len(table.points)
    assert sum(table.lens) == len(table.gather)


def _read_by_key(g, plan):
    """Each sweep step's datum looked up by its line key, the first
    missing one named (the sweep's read by key, written out)."""
    data = []
    for z, key in zip(plan.order, plan.keys):
        if key not in g.entries:
            raise MissingDataError(f"no sinogram entry for ray of {z}")
        data.append(g.entries[key])
    return data


class _Unkeyed(dict):
    """Entries that refuse every lookup by key."""

    def get(self, *args):
        raise AssertionError("a datum was looked up by key")

    __getitem__ = get


def _sweep_read(read, g, plan):
    try:
        return [v.hex() for v in read(g, plan)]
    except MissingDataError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(round_trip_cases(), st.sampled_from(("none", "const")))
def test_the_sweep_reads_a_table_sinogram_by_position_as_by_key(case, name):
    # sinograms of the plan's own tables (read by position), of a fresh
    # table with equal keys and of a shuffled family, on distinct values
    # so that a wrong order shows; then each less one entry
    d, r, plane, alpha, beta, seed = case
    weight, rng = WEIGHTS[name], random.Random(seed)
    f = _phantoms(d, r, seed)[1]
    gc.collect()  # no earlier example's plan serves these rays
    plan = make_plan(d, r, plane=plane, weight=weight, alpha=alpha, beta=beta)
    family = list(plan.rays.items())
    assert tuple(plan.rays) == plan.order
    assert tuple(plan.rays.values()) == plan.sweep_rays
    assert plan.forward_table.rays is plan.sweep_rays
    sinos = [forward_family(f, family, weight=weight)]
    if weight is None:
        sinos.append(forward_continuous_family(f, family))
    for own in sinos:  # both tables key their sums by the plan's key objects
        assert len(own.entries) == len(plan.keys)
        assert all(map(is_, own.entries, plan.keys))
        # read by position: no key is looked up
        unkeyed = transform.Sinogram(d, _Unkeyed(own.entries), own.meta, own.family)
        assert _sweep_read(sweep_data, unkeyed, plan) == _sweep_read(
            _read_by_key, own, plan)
    with mock.patch.object(transform, "_plan_table", return_value=None):
        fresh = forward_family(f, family, weight=weight)
    assert list(fresh.entries) == list(plan.keys)
    shuffled = rng.sample(family, len(family))
    sinos += [fresh, forward_family(f, shuffled, weight=weight)]
    for g in sinos:
        data = _sweep_read(sweep_data, g, plan)
        assert data == _sweep_read(_read_by_key, g, plan)
        assert type(data) is str or type(sweep_data(g, plan)) is list
        if g.entries:
            gone = rng.choice(list(g.entries))
            # less one entry, and the same in place of another key
            for entries in ({k: v for k, v in g.entries.items() if k != gone},
                            {(k if k != gone else (k[0], (7,) * d)): v
                             for k, v in g.entries.items()}):
                less = transform.Sinogram(g.d, entries, g.meta, g.family)
                message = _sweep_read(sweep_data, less, plan)
                assert message == _sweep_read(_read_by_key, less, plan)
                assert message.startswith("no sinogram entry for ray of ")


def test_tables_of_fewer_than_two_incidences_sum_as_before():
    # 0, 1 and 2 incidences: the column reads without itemgetter where it
    # would return a scalar or cannot be built, and every sum starts at +0.0
    f = GridFunction(2, 1, {(0, 0): 2.5, (1, 0): -0.0, (0, 1): -0.0,
                            (-1, 0): 0.75, (0, -1): 3.0})
    weight = _varying_weight
    for ray, n in ((Ray((5, 5), (1, 0)), 0), (Ray((1, 7), (0, 1)), 1),
                   (Ray((0, 1), (1, 0)), 1), (Ray((1, 0), (1, -1)), 2),
                   (Ray((-1, 0), (1, 1)), 2), (Ray((0, 0), (1, 0)), 3)):
        points = brute_ray_points(ray, f.support_radius)
        assert len(points) == n
        plain = reduce(add, [f.get(z) for z in points], 0.0)
        weighted = reduce(add, [weight(z, ray.dir) * f.get(z) for z in points], 0.0)
        assert forward(f, ray).hex() == plain.hex()
        assert forward_weighted(f, ray, weight).hex() == weighted.hex()
    assert forward(f, Ray((1, 0), (1, -1))).hex() == (0.0).hex()  # -0.0 + -0.0
    for d in (2, 3):  # one target, one incidence, one crossing
        zero = GridFunction(d, 0, {(0,) * d: -1.25})
        plan = make_plan(d, 0)
        family = list(plan.rays.items())
        g = forward_family(zero, family)
        assert len(plan.forward_table.gather) == len(plan.chord_table.ids) == 1
        assert _hexed(g) == [(plan.keys[0], (-1.25).hex())]
        assert sweep_data(g, plan) == [-1.25]
        unkeyed = transform.Sinogram(d, _Unkeyed(g.entries), g.meta, g.family)
        assert sweep_data(unkeyed, plan) == [-1.25]  # by position
        assert values_equal(recon_shells(g, plan), zero)
        assert _hexed(forward_continuous_family(zero, family)) == [
            (plan.keys[0], reference_forward_continuous(zero, family[0][1]).hex())]


def _weight_runs(d, r, plane, alpha, beta, f, weight):
    """One weight's results, as float.hex, on every weighted path: the plan
    table, the sweep, the fresh table and forward_weighted per first ray;
    or the ZeroWeightError message of each path."""
    plan = make_plan(d, r, plane=plane, weight=weight, alpha=alpha, beta=beta)
    family = [(z, Ray(tuple(ray.base), tuple(ray.dir)))
              for z, ray in plan.rays.items()]
    with mock.patch.object(transform, "ray_table", side_effect=AssertionError):
        on_plan = _error(lambda: forward_family(f, plan.rays.items(),
                                                weight=weight))
        if on_plan is None:
            on_plan = _hexed(forward_family(f, plan.rays.items(), weight=weight))
            assert {type(w) for w in plan.forward_weights} <= {float}
            assert {type(w) for ws in plan.sweep_weights for w in ws} <= {float}
    g = forward_family(f, family, weight=constant_weight(1.5))
    swept = _error(lambda: recon_shells(g, plan))
    if swept is None:
        swept = [(z, v.hex()) for z, v in recon_shells(g, plan).values.items()]
    del plan
    gc.collect()
    assert not transform.PLANS
    fresh = _error(lambda: forward_family(f, family, weight=weight))
    if fresh is None:
        fresh = _hexed(forward_family(f, family, weight=weight))
    rays = _first_rays(family).items()
    per_ray = _error(lambda: [forward_weighted(f, ray, weight) for _, ray in rays])
    if per_ray is None:
        per_ray = [(k, forward_weighted(f, ray, weight).hex()) for k, ray in rays]
    return on_plan, swept, fresh, per_ray


@settings(max_examples=30, deadline=None)
@given(round_trip_cases(_wide_radii), st.sampled_from((2, 0, -0.0, False)))
def test_a_weight_is_taken_as_the_double_it_converts_to(case, value):
    # W returning the int 2 gives the float 2.0's results on every path,
    # and a W of 0, -0.0 or False at some points is refused naming the
    # point that 0.0 names, on every path
    d, r, plane, alpha, beta, seed = case
    rng = random.Random(seed)
    f = _phantoms(d, r, seed)[1]
    points = make_plan(d, r, plane=plane, alpha=alpha, beta=beta).order
    gc.collect()
    at = set(points) if value else set(rng.sample(points, min(2, len(points))))

    def weight(z, p, value=value):
        return value if z in at else 1.25

    def double(z, p, value=float(value)):
        return value if z in at else 1.25

    got = _weight_runs(d, r, plane, alpha, beta, f, weight)
    assert got == _weight_runs(d, r, plane, alpha, beta, f, double)
    if not value and at:  # the sweep and every forward meet a target
        assert all(isinstance(run, str) for run in got)


@st.composite
def stream_cases(draw):
    """A family interleaving rays that miss the ball, rays through one ball
    point (a direction longer than the diameter) and rays through three or
    more (along the first axis, off it by |w| <= sqrt(r^2 - 1))."""
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from((1, Fraction(3, 2), 2, Fraction(7, 2), 5)))
    ball = enumerate_ball(d, r)
    far = math.floor(r) + 1
    miss = st.builds(lambda t, p: Ray((far + t, *p[1:]), (0, 1, *p[2:])),
                     st.integers(0, 3), _vec(d, -3, 3))
    lone = st.builds(lambda z, t: Ray(z, (1, 2 * far + t, *([0] * (d - 2)))),
                     st.sampled_from(ball), st.integers(0, 3))
    inner = [z for z in ball if z[0] == 0 and norm2(z) + 1 <= r * r]
    long = st.builds(lambda z: Ray(z, (1, *([0] * (d - 1)))),
                     st.sampled_from(inner))
    kinds = draw(st.lists(st.tuples(miss, lone, long), min_size=1, max_size=10))
    rays = draw(st.permutations(list(itertools.chain.from_iterable(kinds))))
    return d, r, rays, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(stream_cases(), st.sampled_from(("const", "varying", "chord")))
def test_a_fresh_table_streams_each_ray_its_own_terms(case, name):
    # no live plan: the family's fresh table takes each ray's lens[i]
    # terms from one stream, so rays of 0, 1 and many points stay in step
    # with forward_weighted ray by ray, in family order
    d, r, rays, seed = case
    family = [(ray.base, ray) for ray in rays]
    weight = WEIGHTS[name]
    num, den = _r2_terms(Fraction(r))
    gc.collect()
    assert not transform.PLANS
    for f in _phantoms(d, r, seed):
        got = forward_family(f, family, weight=weight)
        assert _hexed(got) == [(k, forward_weighted(f, ray, weight).hex())
                               for k, ray in _first_rays(family).items()]
    firsts = list(_first_rays(family).values())
    lens = ray_table(firsts, d, num, den)[2]
    assert type(lens) is list and {0, 1} <= set(lens) and max(lens) >= 3
    assert lens == [len(points_on_ray(ray, r)) for ray in firsts]


def _r2_terms(r):
    return (r * r).numerator, (r * r).denominator


@st.composite
def ray_key_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    dirv = primitive(draw(_vec(d, -5, 5).filter(any)))
    return Ray(draw(_vec(d, -12, 12)), dirv), draw(st.integers(-5, 5))


@settings(max_examples=200, deadline=None)
@given(ray_key_cases())
@example((Ray((0, 3), (1, 0)), 2))          # base.dir = 0: the fast path
@example((Ray((-1, 4), (1, 0)), 0))         # base.dir < 0
@example((Ray((2, 5), (1, 1)), -3))         # base.dir >= |dir|^2
@example((Ray((1, 0, 0), (1, 0, 0)), 1))    # base.dir = |dir|^2 exactly
def test_ray_key_is_the_general_reduction(case):
    ray, k = case
    p = ray.dir
    key = ray_key(ray)
    assert key == reduced_key(ray)
    assert 0 <= sum(a * b for a, b in zip(key.base, p)) < norm2(p)
    shifted = Ray(tuple(a + k * b for a, b in zip(ray.base, p)), p)
    assert ray_key(shifted) == key
    if 0 <= sum(a * b for a, b in zip(ray.base, p)) < norm2(p):
        assert key.base is ray.base and key.dir is p  # the Ray's own tuples
    else:
        assert key.base != ray.base


def _vec(d, lo, hi):
    return st.tuples(*[st.integers(lo, hi)] * d)


@st.composite
def points_on_ray_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 3 if d < 4 else 2, max_denominator=6))
    center = draw(st.none() | _vec(d, -3, 3))
    base = draw(_vec(d, -7, 7))   # often outside the ball
    # up to |dir|^2 = 81 d: long directions with |dir|^2 > 4 r^2 and rays
    # that miss the ball are both common
    dirv = draw(_vec(d, -9, 9).filter(any))
    return Ray(base, primitive(dirv)), r, center


@settings(max_examples=150, deadline=None)
@given(points_on_ray_cases())
@example((Ray((5, 5), (1, 0)), Fraction(3), None))            # misses
@example((Ray((-7, 2, 0), (1, 0, 0)), Fraction(5, 2), (0, 0, 1)))  # base outside
@example((Ray((0, 1), (1, 9)), Fraction(4), None))             # |dir|^2 > 4 r^2
@example((Ray((1, 1, 1, 1), (1, 1, 1, 1)), Fraction(2), None))  # r^2 on a point
def test_points_on_ray_matches_box_scan_in_ray_order(case):
    # the ball about center: the ray translated by -center meets the ball
    # about the origin, and its moved base is seldom normal to its direction
    ray, r, center = case
    c = center or (0,) * ray.d
    moved = Ray(tuple(b - x for b, x in zip(ray.base, c)), ray.dir)
    want = brute_ray_points(ray, r, center)
    assert [tuple(a + x for a, x in zip(z, c)) for z in points_on_ray(moved, r)] \
        == want == box_scan_ray_points(ray, r, center)
    assert all(on_line(z, ray) for z in want)


@st.composite
def forward_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    # 5/2 and 3: the ball touches the faces of the index box [-m, m]^d
    r = draw(st.sampled_from((Fraction(5, 2), Fraction(3)))
             | st.fractions(0, 4 if d < 4 else 2, max_denominator=6))
    ball = enumerate_ball(d, r)
    fam = perp_family(ball)
    m = math.floor(r)
    extra = draw(st.lists(st.tuples(_vec(d, -m - 2, m + 2),
                                    _vec(d, -2 * m - 2, 2 * m + 2).filter(any)),
                          max_size=12))
    fam += [(base, Ray(base, primitive(dirv))) for base, dirv in extra]
    # a zero index step in the box [-m, m]^d: (.., 1, -(2m + 1)) through a
    # ball point, from an unreduced base
    zero_step = (0,) * (d - 2) + (1, -2 * m - 1)
    for z, k in draw(st.lists(st.tuples(st.sampled_from(ball),
                                        st.integers(-2, 2)), max_size=3)):
        base = tuple(c - k * p for c, p in zip(z, zero_step))
        fam.append((base, Ray(base, zero_step)))
    # the same lines again, based elsewhere on them
    for (z, ray), k in draw(st.lists(st.tuples(st.sampled_from(fam),
                                               st.integers(-3, 3)), max_size=6)):
        base = tuple(b + k * p for b, p in zip(ray.base, ray.dir))
        fam.append((base, Ray(base, ray.dir)))
    return d, r, ball, fam, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(forward_cases())
def test_forward_family_entries_in_first_appearance_order(case):
    # one entry per line, in the order its first ray appears, equal in
    # float.hex to the per-ray forward of that ray and to a box-scan sum;
    # values include signed zeros, which a lone -0.0 turns into 0.0
    d, r, ball, fam, seed = case
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((-0.0, 0.0, rng.uniform(-1e3, 1e3)))
                            for z in ball if rng.random() < 0.8})
    firsts = {}
    for _, ray in fam:
        firsts.setdefault(ray_key(ray), ray)
    g = forward_family(f, fam)
    assert list(g.entries) == list(firsts)
    for got, ray in zip(g.entries.values(), firsts.values()):
        want = float(sum(f.get(z) for z in brute_ray_points(ray, r, candidates=ball)))
        assert got.hex() == forward(f, ray).hex() == want.hex()


@settings(max_examples=60, deadline=None)
@given(forward_cases(), st.sampled_from(("none", "const", "varying", "chord")))
def test_every_forward_without_a_plan_sums_one_fresh_table(case, name):
    # no live plan: a family forward compiles one fresh table per call, and
    # its entries equal the one-ray forward of each line's first ray and an
    # oracle sum over its points, in float.hex, signed zeros included
    d, r, ball, fam, seed = case
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((-0.0, 0.0, rng.uniform(-1e3, 1e3)))
                            for z in ball if rng.random() < 0.8})
    weight = WEIGHTS[name]
    gc.collect()
    assert not transform.PLANS
    with mock.patch.object(transform, "ray_table", side_effect=ray_table) as compile_:
        g = forward_family(f, fam, weight=weight)
    assert compile_.call_count == 1
    firsts = _first_rays(fam)
    assert list(g.entries) == list(firsts)
    for got, ray in zip(g.entries.values(), firsts.values()):
        points = brute_ray_points(ray, r, candidates=ball)
        if weight is None:
            one = forward(f, ray)
            want = float(sum(f.get(z) for z in points))
        else:
            one = forward_weighted(f, ray, weight)
            want = sum([weight(z, ray.dir) * f.get(z) for z in points], 0.0)
        assert got.hex() == one.hex() == want.hex()
    # W vanishing at some ball points: every path names the first of them
    # in ray and point order over the lines' first rays
    dead = set(rng.sample(ball, rng.randint(0, min(3, len(ball)))))
    base = weight or WEIGHTS["const"]

    def vanishing(z, p):
        return 0.0 if z in dead else base(z, p)

    hits = [z for ray in firsts.values()
            for z in brute_ray_points(ray, r, candidates=ball) if z in dead]
    want = f"weight vanishes at {hits[0]}" if hits else None
    assert _error(lambda: forward_family(f, fam, weight=vanishing)) == want
    assert _error(lambda: [forward_weighted(f, ray, vanishing)
                             for ray in firsts.values()]) == want


@st.composite
def perp_family_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    plane = None
    if draw(st.booleans()):
        vec = _vec(d, -3, 3)
        a, b = draw(st.tuples(vec, vec).filter(lambda ab: any(
            ab[0][i] * ab[1][j] != ab[0][j] * ab[1][i]
            for i in range(d) for j in range(i + 1, d))))
        plane = Plane(a, b)
    points = draw(st.lists(_vec(d, -6, 6), max_size=40))
    if draw(st.booleans()):  # points with no in-plane part
        points += [(0, 0) + z[2:] for z in points] if plane is None else [
            tuple(c * z[0] for c in _normal(plane)) for z in points]
    return points, plane


def _normal(plane):
    """An integer vector normal to the plane (0 where d < 3 has none)."""
    a, b = plane.a, plane.b
    if len(a) < 3:
        return (0,) * len(a)
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0]) + (0,) * (len(a) - 3)


@settings(max_examples=150, deadline=None)
@given(perp_family_cases())
def test_perp_family_columns_match_the_per_point_family(case):
    points, plane = case
    assert perp_family(points, plane) == reference_perp_family(points, plane)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.tuples(*[_BIG] * d)),
       st.booleans())
@example((0, 0), False)
@example((-3, 0), False)
@example((0, 5, 1), False)
@example((4, -6, 0, 0, 1), False)
def test_perp_ray_is_the_one_point_family(z, flat):
    if flat:  # the point with no in-plane part
        z = (0, 0) + z[2:]
    ray = perp_ray(z)
    assert type(ray) is Ray
    assert ray == reference_perp_family([z])[0][1] == perp_family([z])[0][1]


@st.composite
def irrationality_cases(draw):
    d = draw(st.integers(1, 4))
    theta = draw(st.tuples(*[st.integers(-7, 7)] * d))
    if draw(st.booleans()) and any(theta):
        theta = primitive(theta)  # so about half the draws are canonical
    n2 = norm2(theta)
    if draw(st.booleans()) and math.isqrt(n2) ** 2 == n2:
        return theta, Fraction(math.isqrt(n2), 2)  # |theta|^2 = 4 r^2
    return theta, draw(st.one_of(st.fractions(-9, 9, max_denominator=9),
                                 st.integers(-9, 9),
                                 st.floats(-9, 9, allow_nan=False),
                                 st.sampled_from(["3/2", "abc", "1/0"])))


@settings(max_examples=200, deadline=None)
@given(irrationality_cases())
@example(((3, 4), Fraction(5, 2)))
@example(((1, 0, 0), Fraction(-1, 2)))
@example(((2, 3, 6), "7/2"))
@example(((0, -1), 1))
@example(((), 1))
def test_effectively_irrational_is_the_fraction_definition(case):
    # the definition: a primitive() check, then 4 r^2 in Fractions
    theta, r = case

    def definition():
        if not (any(theta) and theta == primitive(theta)):
            raise PreconditionError(
                "direction must be a canonical primitive vector")
        rf = as_fraction(r)
        return norm2(theta) > 4 * rf * rf

    try:
        want = definition()
    except PreconditionError as exc:
        with pytest.raises(PreconditionError, match=re.escape(str(exc))):
            effectively_irrational(theta, r)
    else:
        assert effectively_irrational(theta, r) is want


@settings(max_examples=60, deadline=None)
@given(forward_cases())
def test_forward_family_matches_oracles(case):
    d, r, ball, fam, seed = case
    f = random_int_grid(d, r, seed)
    g = forward_family(f, fam)
    assert len(g.entries) == len({ray_key(ray) for _, ray in fam})
    for _, ray in fam:
        assert g.entries[ray_key(ray)] == brute_forward(f, ray)
    # non-integer values: the same left-to-right double sum, bit for bit
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.uniform(-1e3, 1e3) for z in ball
                            if rng.random() < 0.8})
    g = forward_family(f, fam)
    for _, ray in fam:
        want = float(sum(f.get(z) for z in points_on_ray(ray, r)))
        assert g.entries[ray_key(ray)].hex() == want.hex()
    # weighted families: per-ray forward_weighted and an independent sum
    def weight(z, p):
        return 0.5 + (sum(z) + 2 * p[0]) % 3

    g = forward_family(f, fam, weight=weight)
    for _, ray in fam:
        want = 0.0
        for z in brute_ray_points(ray, r, candidates=ball):
            want += weight(z, ray.dir) * f.get(z)
        got = g.entries[ray_key(ray)]
        assert got.hex() == forward_weighted(f, ray, weight).hex() == want.hex()


@st.composite
def chord_table_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 5 if d < 4 else 3, max_denominator=6))
    plane = None
    if draw(st.booleans()):  # a general plane; in d=2 it spans the space
        vec = st.tuples(*[st.integers(-2, 2)] * d)
        pair = st.tuples(vec, vec).filter(lambda ab: any(
            ab[0][i] * ab[1][j] != ab[0][j] * ab[1][i]
            for i in range(d) for j in range(i + 1, d)))
        plane = Plane(*draw(pair))
    alpha = beta = None
    if draw(st.booleans()):
        beta = r + draw(st.fractions(0, 2, max_denominator=4))
        alpha = beta * draw(st.fractions(0, 1, max_denominator=4))
    return d, r, plane, alpha, beta, draw(st.integers(0, 2 ** 16))


@settings(max_examples=40, deadline=None)
@given(chord_table_cases())
@example((3, Fraction(5), Plane((1, 1, 0), (0, 1, 1)), 1, Fraction(11, 2), 7))
@example((2, Fraction(9, 2), None, None, None, 3))
def test_chord_table_is_the_walk_and_its_rounds_match_the_reference(case):
    d, r, plane, alpha, beta, seed = case
    plan = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    table = plan.chord_table
    assert table.cells[:len(plan.order)] == plan.order
    assert len(set(table.cells)) == len(table.cells)
    radius = float(plan.support_radius) + math.sqrt(d)
    r2 = plan.support_radius ** 2
    num, den = r2.numerator, r2.denominator
    ends = list(itertools.accumulate(table.lens))
    start = 0
    for i, (z, end) in enumerate(zip(plan.order, ends)):
        ray = plan.rays[z]
        walk = [(cell, chord.hex(), on_line(cell, ray))
                for cell, chord in reference_traverse_cells(ray, radius)]
        got = [(table.cells[c], chord.hex(), not off) for c, chord, off in zip(
            table.ids[start:end], table.chords[start:end],
            table.off_line[start:end])]
        # the table is the reference walk less the crossings it drops, and
        # it drops exactly those of cells outside the support ball
        kept = iter(got)
        nxt = next(kept, None)
        for crossing in walk:
            if crossing == nxt:
                assert den * norm2(crossing[0]) <= num
                nxt = next(kept, None)
            else:
                assert den * norm2(crossing[0]) > num
        assert nxt is None
        assert table.central[i].hex() == cell_chord(ray, z).hex()
        start = end
    assert start == len(table.ids) == len(table.chords) == len(table.off_line)
    assert list(table.off_lens) == [
        sum(table.off_line[a:b]) for a, b in zip([0, *ends], ends)]
    # the rounds reading the table against the walking reference, on
    # non-integer data with signed zeros, bit for bit
    rng = random.Random(seed)
    ball = enumerate_ball(d, r)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, rng.uniform(-9, 9)))
                            for z in ball})
    g = forward_continuous_family(f, plan.rays.items())
    g.entries = {k: rng.choice((v, 0.0, -0.0)) for k, v in g.entries.items()}
    layer = layer_recon(g, plan)
    assert _hex(layer.values) == _hex(reference_layer_recon(g, plan).values)
    off = _chord_sums(plan, layer)[1]
    assert _hex(_corrected_sinogram(g, plan, sweep_data(g, plan), off).entries) == \
        _hex(reference_corrected_sinogram(g, plan, layer).entries)
    small = GridFunction(d, r * rng.choice((Fraction(1, 2), 1)),
                         {z: v for z, v in f.values.items()
                          if 4 * norm2(z) <= r * r})
    for h in (f, layer, small):
        assert data_residual(g, plan, h).hex() == \
            reference_data_residual(g, plan, h).hex()


def reference_iterate(g, plan, f_init, iters):
    """``iterate_recon`` as the walking references compose it: every
    residual and correction read from the iterate it belongs to."""
    current = reference_layer_recon(g, plan) if f_init is None else f_init
    iterates = [current]
    residuals = [reference_data_residual(g, plan, current)]
    for _ in range(iters):
        current = recon_shells(reference_corrected_sinogram(g, plan, current), plan)
        iterates.append(current)
        residuals.append(reference_data_residual(g, plan, current))
    return iterates, residuals


@settings(max_examples=40, deadline=None)
@given(chord_table_cases(), st.integers(1, 3))
@example((2, Fraction(9, 2), None, None, None, 3), 3)
def test_iterate_recon_is_the_reference_loop(case, iters):
    # whole runs on data and grids with signed zeros, bit for bit: a free
    # start, the data's own grid, and a grid of smaller support
    d, r, plane, alpha, beta, seed = case
    plan = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, rng.uniform(-9, 9)))
                            for z in enumerate_ball(d, r)})
    g = forward_continuous_family(f, plan.rays.items())
    g.entries = {k: rng.choice((v, v, 0.0, -0.0)) for k, v in g.entries.items()}
    small = GridFunction(d, r / 2, {z: v for z, v in f.values.items()
                                    if 4 * norm2(z) <= r * r})
    for start in (None, f, small):
        iterates, residuals = iterate_recon(g, plan, f_init=start, iters=iters)
        want_iterates, want_residuals = reference_iterate(g, plan, start, iters)
        assert [_hex(h.values) for h in iterates] == \
            [_hex(h.values) for h in want_iterates]
        assert list(map(float.hex, residuals)) == \
            list(map(float.hex, want_residuals))


@settings(max_examples=40, deadline=None)
@given(chord_table_cases())
@example((2, Fraction(9, 2), None, None, None, 3))
@example((4, Fraction(5, 2), None, Fraction(1), Fraction(3), 4))
def test_continuous_family_forward_reads_a_live_plans_chord_table(case):
    # the table's sums against the walking reference per ray, bit for bit
    # and in family order; a family it was not walked on is walked
    d, r, plane, alpha, beta, seed = case
    plan = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, float(rng.randint(-9, 9)),
                                           rng.uniform(-9, 9)))
                            for z in enumerate_ball(d, r)})
    family = list(plan.rays.items())

    def walked(h, fam):
        firsts = {}
        for _, ray in fam:
            firsts.setdefault(reduced_key(ray), ray)
        return [(key, reference_forward_continuous(h, ray).hex())
                for key, ray in firsts.items()]

    served = _hex(forward_continuous_family(f, family).entries)
    assert served == walked(f, family)
    if not family:
        return
    assert "chord_table" in vars(plan)
    wide = GridFunction(d, r + 1, {z: f.values.get(z, 1.5)
                                   for z in enumerate_ball(d, r + 1)})
    small = GridFunction(d, r / 2, {z: v for z, v in f.values.items()
                                    if 4 * norm2(z) <= r * r})
    for h in (wide, small):
        assert _hex(forward_continuous_family(h, family).entries) == walked(h, family)
    turned = family[::-1] + family[:2]  # reordered, with repeats
    assert _hex(forward_continuous_family(f, turned).entries) == walked(f, turned)
    # a family with one ray moved is walked, the plan's own one still
    # read off its table
    i = rng.randrange(len(family))
    z, ray = family[i]
    moved = family[:i] + [(z, Ray(z, (1,) * d if ray.dir != (1,) * d
                                  else (1,) + (0,) * (d - 1)))] + family[i + 1:]
    assert _hex(forward_continuous_family(f, moved).entries) == walked(f, moved)
    assert _hex(forward_continuous_family(f, family).entries) == served
    del plan
    gc.collect()
    assert _hex(forward_continuous_family(f, family).entries) == served


@st.composite
def family_walk_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 4 if d < 4 else 3, max_denominator=12))
    vec = st.tuples(*[st.integers(-5, 5)] * d).filter(any)
    dirs = [primitive(v) for v in draw(st.lists(vec, min_size=1, max_size=3))]
    m = math.floor(r) + 3  # some rays miss the r + sqrt(d) ball
    rays = []
    for _ in range(draw(st.integers(1, 12))):
        p = draw(st.sampled_from(dirs))
        base = draw(st.tuples(*[st.integers(-m, m)] * d))
        k = draw(st.integers(-3, 3))  # a base not normal to its ray
        rays.append(Ray(tuple(b + k * c for b, c in zip(base, p)), p))
    return d, r, rays, draw(st.integers(0, 2 ** 16))


@settings(max_examples=40, deadline=None)
@given(family_walk_cases())
@example((2, Fraction(3), [Ray((0, 0), (1, 1)), Ray((1, 0), (1, 1)),
                           Ray((2, -1), (1, 1)), Ray((9, 9), (1, 1)),
                           Ray((0, 1), (3, 5)), Ray((5, 2), (3, 5)),
                           Ray((-3, -5), (3, 5))], 1))
@example((3, Fraction(5, 2), [Ray((0, 0, 0), (1, 1, 1)), Ray((1, 0, 0), (1, 1, 1)),
                              Ray((0, 1, -1), (1, 1, 1)), Ray((3, 3, 3), (1, 1, 1)),
                              Ray((2, 0, 1), (1, 1, 1))], 2))
# window ends within roundoff of a face crossing, where the reference
# walk's k-range leaves the crossing out: the walks differ only at cells
# outside the support ball
@example((4, Fraction(23, 6), [Ray((4, 1, -1, -3), (3, -2, 0, 0)),
                               Ray((0, 0, 0, 0), (3, -2, 0, 0))], 3))
@example((4, Fraction(19, 5), [Ray((-1, -5, -2, 1), (5, -1, 1, 3))], 4))
def test_family_walk_and_continuous_forward_match_the_reference_walk(case):
    d, r, rays, seed = case
    rng = random.Random(seed)
    ball = enumerate_ball(d, r)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, float(rng.randint(-9, 9)),
                                           rng.uniform(-9, 9)))
                            for z in ball})
    radius = float(r) + math.sqrt(d)
    place, offset = walk_box(d, radius)
    # the walk is the reference walk on the cells of the support ball, the
    # only cells where an f of radius r holds a value
    inside = {offset + sum(map(mul, z, place)) for z in ball}
    walks = {i: [e for e in zip(ids, map(float.hex, chords), flags)
                 if e[0] in inside]
             for i, ids, chords, flags in walk_cells(rays, radius)}
    for i, ray in enumerate(rays):
        ref = list(reference_traverse_cells(ray, radius))
        assert walks.get(i, []) == [
            (c, chord.hex(), on_line(cell, ray)) for cell, chord in ref
            for c in [offset + sum(map(mul, cell, place))] if c in inside]
        assert [(c, w.hex()) for c, w in traverse_cells(ray, radius)
                if norm2(c) <= r * r] == \
            [(c, w.hex()) for c, w in ref if norm2(c) <= r * r]
        [fc] = forward_continuous_family(f, [(ray.base, ray)]).entries.values()
        assert fc.hex() == reference_forward_continuous(f, ray).hex()
        # the correction identity's right side, every supported cell scanned
        corr = 0.0
        for zeta in sorted(f.values):
            if not on_line(zeta, ray) and f.values[zeta]:
                corr += f.values[zeta] * cell_chord(ray, zeta)
        lhs, rhs = correction_identity_check(f, ray.base, ray)
        assert rhs.hex() == (fc - corr).hex()
        assert lhs.hex() == forward_weighted(f, ray, chord_weight()).hex()
    g = forward_continuous_family(f, [(ray.base, ray) for ray in rays])
    firsts = {}
    for ray in rays:
        firsts.setdefault(ray_key(ray), ray)
    assert list(g.entries) == list(firsts)
    assert [v.hex() for v in g.entries.values()] == \
        [reference_forward_continuous(f, ray).hex() for ray in firsts.values()]


@st.composite
def identity_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 5 if d < 4 else 3, max_denominator=6))
    # bases also beyond the support ball: some lines miss the walk ball
    base = draw(st.sampled_from(enumerate_ball(d, r + 3)))
    # all-odd directions pass through cell corners, others through edges
    odd = st.tuples(*[st.sampled_from((-3, -1, 1, 3))] * d)
    p = primitive(draw(odd | _vec(d, -4, 4).filter(any)))
    return d, r, Ray(base, p), draw(st.integers(0, 2 ** 16))


@settings(max_examples=80, deadline=None)
@given(identity_cases())
@example((2, Fraction(3), Ray((0, 0), (1, 1)), 1))
@example((3, Fraction(5, 2), Ray((1, 0, -1), (1, 1, 1)), 2))
@example((3, Fraction(2), Ray((0, 1, 0), (1, -1, 0)), 3))
@example((2, Fraction(1), Ray((4, 0), (0, 1)), 4))  # misses the walk ball
# the off-line terms summed in walk order would round differently
@example((2, Fraction(2), Ray((0, 0), (1, -2)), 36))
def test_correction_identity_reads_one_walk_as_the_support_scan_did(case):
    # both sides against the three-pass oracle, bit for bit, on fields with
    # signed zeros, non-integer values and unset points
    d, r, ray, seed = case
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, float(rng.randint(-9, 9)),
                                           rng.uniform(-9, 9)))
                            for z in enumerate_ball(d, r) if rng.random() < 0.9})
    z = ray.base
    for got, want in ((correction_identity_check(f, z, ray),
                       reference_correction_identity(f, z, ray)),
                      (correction_identity_check(f, z),
                       reference_correction_identity(f, z))):
        assert tuple(map(float.hex, got)) == tuple(map(float.hex, want))


def _hex(values):
    return [(k, v.hex()) for k, v in values.items()]


def _mutate(rows, how, i, rng, d, vec_keys):
    """Spoil row i of a file's rows one way (a JSON file could hold it)."""
    row = rows[i]
    vec = rng.choice(vec_keys)
    j = rng.randrange(d)
    if how == "missing key":
        del row[rng.choice(vec_keys + ("v",))]
    elif how == "bool coordinate":
        row[vec][j] = rng.choice((True, False))
    elif how == "float coordinate":
        row[vec][j] = float(row[vec][j])
    elif how == "wrong length":
        row[vec] = row[vec][:-1] if rng.random() < 0.5 else row[vec] + [0]
    elif how == "duplicate point":
        rows.insert(rng.randrange(len(rows) + 1), json.loads(json.dumps(row)))
    elif how == "outside the ball":
        row["z"] = [rng.choice((-1, 1)) * 9] + [0] * (d - 1)
    elif how == "huge integer value":
        row["v"] = 10 ** 400
    elif how == "string value":
        row["v"] = "1"
    elif how == "nan value":
        row["v"] = float("nan")
    elif how == "not an object":
        rows[i] = [row["z"], row["v"]]
    elif "dir" not in row:  # the remaining spoils are of sinogram rows
        return
    elif how == "zero dir":
        row["dir"] = [0] * d
    elif how == "non-canonical dir":
        row["dir"] = [-c for c in row["dir"]] if rng.random() < 0.5 \
            else [2 * c for c in row["dir"]]
    elif how == "unreduced base":
        k = rng.choice((-1, 1))
        row["base"] = [b + k * p for b, p in zip(row["base"], row["dir"])]
    elif how == "conflicting values":
        rows.append(dict(json.loads(json.dumps(row)), v=row["v"] + 1.0))


MUTATIONS = ("missing key", "bool coordinate", "float coordinate",
             "wrong length", "duplicate point", "outside the ball",
             "huge integer value", "string value", "nan value", "not an object",
             "zero dir", "non-canonical dir", "unreduced base",
             "conflicting values")


@st.composite
def file_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.fractions(0, 4 if d == 2 else 3, max_denominator=4))
    kind = draw(st.sampled_from(("tstar", "free") + (("tstar_plane",) * (d == 3))))
    alpha = beta = None
    if draw(st.booleans()):
        beta = r + draw(st.fractions(0, 1, max_denominator=4))
        alpha = beta * draw(st.fractions(0, 1, max_denominator=4))
    how = draw(st.sampled_from((None,) + MUTATIONS))
    return d, r, kind, alpha, beta, how, draw(st.integers(0, 2 ** 16))


def _read(reader, obj):
    try:
        got = reader(obj)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, GridFunction):
        return got.d, got.support_radius, _hex(got.values)
    return got.d, got.meta, _hex(got.entries), got.family


@settings(max_examples=300, deadline=None)
@given(file_cases())
def test_column_readers_match_the_row_readers(case):
    # the same object (insertion order, float.hex) or the same exception
    # type and message as the row-by-row checks, for valid files and for
    # files with one spoiled row
    d, r, kind, alpha, beta, how, seed = case
    rng = random.Random(seed)
    f = GridFunction(d, r, {z: rng.choice((0.0, -0.0, float(rng.randint(-9, 9)),
                                           rng.uniform(-1e3, 1e3)))
                            for z in enumerate_ball(d, r)})
    plane = Plane((1, 1, 0), (0, 1, 1)) if kind == "tstar_plane" else None
    plan = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    meta = FamilyMeta(kind, a=plane and plane.a, b=plane and plane.b,
                      alpha=alpha, beta=beta, support_radius=r)
    files = [(json.loads(json.dumps(lio.grid_to_obj(f))), "values",
              lio.obj_to_grid, reference_obj_to_grid, ("z",)),
             (json.loads(json.dumps(lio.sino_to_obj(
                 forward_family(f, plan.rays.items(), meta)))), "rays",
              lio.obj_to_sino, reference_obj_to_sino, ("z", "dir", "base"))]
    for obj, key, reader, reference, vec_keys in files:
        if how is not None and obj[key]:
            _mutate(obj[key], how, rng.randrange(len(obj[key])), rng, d, vec_keys)
        assert _read(reader, obj) == _read(reference, obj)


@st.composite
def kind_ray_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    plane = None
    if d == 3 and draw(st.booleans()):
        vec = st.tuples(*[st.integers(-2, 2)] * 3)
        plane = Plane(*draw(st.tuples(vec, vec).filter(_independent)))
    z = draw(_vec(d, -3, 3))
    if draw(st.booleans()):  # z without an in-plane part
        if plane is None:
            z = (0, 0) + z[2:]
        else:
            (a0, a1, a2), (b0, b1, b2) = plane.a, plane.b
            z = tuple(z[0] * c for c in (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                                         a0 * b1 - a1 * b0))
    base = z if draw(st.booleans()) else draw(_vec(d, -3, 3))
    dirs = [p for p in itertools.product(range(-2, 3), repeat=d)
            if any(p) and p == primitive(p)]
    normal = [p for p in dirs if not sum(a * b for a, b in zip(p, z))]
    return z, Ray(base, draw(st.sampled_from(
        normal if normal and draw(st.booleans()) else dirs))), plane


@settings(max_examples=300, deadline=None)
@given(kind_ray_cases())
def test_kind_predicate_is_ray_equality(case):
    z, ray, plane = case
    kind_ray = reference_perp_family([z], plane)[0][1]
    assert is_perp_ray(z, ray, plane) == (ray == kind_ray)
    assert is_perp_ray(z, kind_ray, plane)



RECON_FAMILIES = (("tstar",), ("tstar-plane", "1,1,0", "0,1,1"),
                  ("annulus", "1", "3"))
# the spoilers write into what they draw, so a dict is built fresh per draw:
# one shared {} would carry keys from example to example and could be put
# inside itself
ODD = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                st.just(10 ** 400), st.floats(), st.text(max_size=3),
                st.lists(st.integers(-3, 3), max_size=4), st.builds(dict),
                st.sampled_from(("1/2", "-1", "0/0", "1e400", "x/y", "tstar",
                                 "tstar_plane", "free")))
HUGE = (math.nan, math.inf, -math.inf, 1e308, -1e308, 10 ** 400)


@st.composite
def spoiled_sinograms(draw, texts):
    """One of the valid sinogram texts, spoiled one to three times, and
    recon flags."""
    obj = json.loads(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(("drop", "duplicate", "retype", "length",
                                    "value", "meta", "top")))
        if not isinstance(obj, dict):
            break
        rows, fam = obj.get("rays"), obj.get("family")
        if how in ("meta", "top"):
            if how == "top" or not isinstance(fam, dict):
                fam, keys = obj, ("d", "family", "rays")
            else:
                keys = ("kind", "a", "b", "alpha", "beta", "r", "other")
            key = draw(st.sampled_from(keys))
            if draw(st.booleans()):
                fam.pop(key, None)
            else:
                fam[key] = draw(ODD)
        elif isinstance(rows, list) and rows:
            i = draw(st.integers(0, len(rows) - 1))
            row = rows[i]
            if how == "drop":
                del rows[i]
            elif how == "duplicate":
                rows.insert(draw(st.integers(0, len(rows))),
                            json.loads(json.dumps(row)))
            elif not isinstance(row, dict):
                continue
            elif how == "retype":
                row[draw(st.sampled_from(("z", "dir", "base", "v")))] = draw(ODD)
            elif how == "value":
                row["v"] = draw(st.sampled_from(HUGE))
            else:  # a vector one entry short or long
                key = draw(st.sampled_from(("z", "dir", "base")))
                if isinstance(row.get(key), list):
                    row[key] = row[key][:-1] if draw(st.booleans()) \
                        else row[key] + [draw(st.integers(-2, 2))]
    text = json.dumps(obj)
    if draw(st.booleans()):  # truncated
        text = text[:draw(st.integers(0, len(text)))]
    return text, draw(st.sampled_from(((), ("--weight", "const", "2"),
                                       ("--r", "3"))))


@pytest.fixture(scope="module")
def recon_files(tmp_path_factory):
    """A directory and the texts of valid ``lxray forward`` sinograms."""
    tmp, texts = tmp_path_factory.mktemp("recon_fuzz"), []
    for family in RECON_FAMILIES:
        d = "3" if family[0] == "tstar-plane" else "2"
        g, s = tmp / "grid.json", tmp / "sino.json"
        assert cli.main(["phantom", "--kind", "random-int", "--d", d, "--r",
                         "3", "--seed", "1", "--out", str(g)]) == 0
        assert cli.main(["forward", "--grid", str(g), "--family", *family,
                         "--out", str(s)]) == 0
        texts.append(s.read_text())
    return tmp, tuple(texts)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_recon_of_a_spoiled_file_exits_with_a_code(recon_files, data):
    # 0 (the spoil was harmless), 2, 3 or 4; never a traceback
    tmp, texts = recon_files
    text, flags = data.draw(spoiled_sinograms(texts))
    sino, out = tmp / "spoiled.json", tmp / "rec.json"
    sino.write_text(text)
    assert cli.main(["recon", "--sino", str(sino), *flags,
                     "--out", str(out)]) in (0, 2, 3, 4)


# dimensions and radii past the budgets, bad types and odd fractions; no
# admitted radius much above the files', which would only run long
GRID_D = (0, 1, 3, 4, -2, 2.5, "2", True, None, 40, 600)
GRID_R = ("1e400", "1e3", 10 ** 400, 1e308, "289", "-1", "5/2", "1/3", "0",
          "0/0", "x", 3, 3.5, -0.0, math.nan, None, [])


@st.composite
def spoiled_grids(draw, texts):
    """One of the valid grid texts, spoiled one to three times, and the
    command to run on it."""
    obj = json.loads(draw(st.sampled_from(texts)))
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(("drop", "duplicate", "retype", "length",
                                    "value", "d", "r", "top")))
        if not isinstance(obj, dict):
            break
        rows = obj.get("values")
        if how in ("d", "r"):
            obj[how] = draw(st.sampled_from(GRID_D if how == "d" else GRID_R))
        elif how == "top":
            key = draw(st.sampled_from(("d", "r", "values")))
            if draw(st.booleans()):
                obj.pop(key, None)
            elif key == "values":
                obj[key] = draw(ODD)
        elif isinstance(rows, list) and rows:
            i = draw(st.integers(0, len(rows) - 1))
            row = rows[i]
            if how == "drop":
                del rows[i]
            elif how == "duplicate":
                rows.insert(draw(st.integers(0, len(rows))),
                            json.loads(json.dumps(row)))
            elif not isinstance(row, dict):
                continue
            elif how == "retype":
                row[draw(st.sampled_from(("z", "v")))] = draw(ODD)
            elif how == "value":
                row["v"] = draw(st.sampled_from(HUGE))
            elif isinstance(row.get("z"), list):  # a point one entry short or long
                row["z"] = row["z"][:-1] if draw(st.booleans()) \
                    else row["z"] + [draw(st.integers(-2, 2))]
    text = json.dumps(obj)
    if draw(st.booleans()):  # truncated
        text = text[:draw(st.integers(0, len(text)))]
    return text, draw(st.sampled_from((
        ("forward", "--family", "tstar"),
        ("forward", "--family", "tstar", "--continuous"),
        ("forward", "--family", "tstar", "--weight", "const", "2"),
        ("export",))))


@pytest.fixture(scope="module")
def grid_files(tmp_path_factory):
    """A directory and the texts of valid ``lxray phantom`` grids."""
    tmp, texts = tmp_path_factory.mktemp("grid_fuzz"), []
    for kind, d, r in (("random-int", "2", "3"), ("random-int", "3", "2"),
                       ("disc", "2", "5/2")):
        g = tmp / "grid.json"
        assert cli.main(["phantom", "--kind", kind, "--d", d, "--r", r,
                         "--seed", "1", "--out", str(g)]) == 0
        texts.append(g.read_text())
    return tmp, tuple(texts)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forward_and_export_of_a_spoiled_grid_exit_with_a_code(grid_files, data):
    # 0 (the spoil was harmless), 2, 3 or 4; never a traceback or a hang
    tmp, texts = grid_files
    text, command = data.draw(spoiled_grids(texts))
    grid, out = tmp / "spoiled.json", tmp / "out"
    grid.write_text(text)
    assert cli.main([command[0], "--grid", str(grid), *command[1:],
                     "--out", str(out)]) in (0, 2, 3, 4)


DIRECTION_SPOILS = ("top", "drop", "duplicate", "not an object", "missing key",
                    "retype", "bool", "huge", "length", "zero dir",
                    "non-canonical dir", "absent line", "outside the ball")


@st.composite
def spoiled_directions(draw, text):
    """The valid direction file, spoiled one to three times as rows and
    maybe once as bytes, and recon flags."""
    rows = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(DIRECTION_SPOILS))
        if how == "top":
            rows = draw(st.one_of(
                ODD, st.builds(lambda: {"z": [0, 0], "dir": [7, 1]})))
        if not isinstance(rows, list) or not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        key = draw(st.sampled_from(("z", "dir")))
        vec = row.get(key) if isinstance(row, dict) else None
        if how == "drop":
            del rows[i]
        elif how == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), json.loads(json.dumps(row)))
        elif how == "not an object":
            rows[i] = draw(ODD)
        elif not isinstance(vec, list) or not vec:
            continue
        elif how == "missing key":
            del row[key]
        elif how == "retype":
            row[key] = draw(ODD)
        elif how in ("bool", "huge"):
            vec[draw(st.integers(0, len(vec) - 1))] = draw(
                st.booleans() if how == "bool"
                else st.sampled_from((10 ** 400, -10 ** 400, 2 ** 64)))
        elif how == "length":
            row[key] = vec[:-1] if draw(st.booleans()) \
                else vec + [draw(st.integers(-2, 2))]
        elif how == "zero dir":
            row["dir"] = [0] * len(vec)
        elif how == "non-canonical dir":
            row["dir"] = [draw(st.sampled_from((-1, 2))) * c for c in vec]
        elif how == "absent line":  # a line the sinogram holds no entry for
            row["dir"] = [draw(st.integers(14, 60)), 1]
        else:
            row["z"] = [draw(st.sampled_from((4, -9, 10 ** 20))), 0]
    text = json.dumps(rows).encode()
    how = draw(st.sampled_from((None, None, "truncated", "deep", "digits",
                                "not UTF-8")))
    if how == "truncated":
        text = text[:draw(st.integers(0, len(text)))]
    elif how == "deep":
        text = b"[" * 100000 + b"]" * 100000
    elif how == "digits":  # past the int() digit limit
        text = b"[" + b"9" * 5000 + b"]"
    elif how == "not UTF-8":
        text = b"\xff" + text
    return text, draw(st.sampled_from(((), ("--weight", "const", "2"),
                                       ("--weight", "cell-chord"),
                                       ("--r", "3"), ("--r", "1/2"))))


@pytest.fixture(scope="module")
def one_point_files(tmp_path_factory):
    """A directory holding a one-point sinogram (d=2, r=3), and the text of
    its direction file."""
    tmp = tmp_path_factory.mktemp("one_point_fuzz")
    points = enumerate_ball(2, 3)
    dirs = one_point_directions(points, 3)
    sino = forward_family(random_int_grid(2, 3, seed=17),
                          one_point_family(points, dirs),
                          FamilyMeta("free", support_radius=Fraction(3)))
    lio.write_json_atomic(str(tmp / "sino.json"), lio.sino_to_obj(sino))
    return tmp, json.dumps([{"z": list(z), "dir": list(t)} for z, t in dirs.items()])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_point_recon_of_a_spoiled_direction_file_exits_with_a_code(
        one_point_files, data):
    # 0 (the spoil was harmless), 2, 3 or 4; never a traceback
    tmp, text = one_point_files
    spoiled, flags = data.draw(spoiled_directions(text))
    dirs, out = tmp / "dirs.json", tmp / "rec.json"
    dirs.write_bytes(spoiled)
    assert cli.main(["recon", "--sino", str(tmp / "sino.json"), "--one-point",
                     str(dirs), *flags, "--out", str(out)]) in (0, 2, 3, 4)


# argv tokens: "{name}" stands for a path of ``argv_files``. Each flag is
# missing, given or repeated (an optional one, marked "?", missing more
# often), three times in four with a valid value, else with junk. Sizes
# stay small: d is at most 1000 (40 for separation, whose scan grows like
# d^2 at R >= 1), a huge d only where it is refused at once, no budget is
# raised and no --iterate count is large, so that every example ends
# quickly
HUGE = "99999999999999999999"
ARGV_GRID = (("{grid}", "{grid3}"),
             ("{sino}", "{bad}", "{missing}", "{dir}", ""))
ARGV_SINO = (("{sino}", "{csino}", "{asino}", "{opsino}"),
             ("{grid}", "{dirs}", "{bad}", "{missing}", "{dir}", ""))
ARGV_OUT = (("{out}", "{out2}", "{nodir}/out.json", "{dir}"),
            ("{bad}/out.json",))
ARGV_R = (("0", "1", "2", "5/2", "3", "1e-400"),
          ("-1", "-3/2", "1/0", "nan", "inf", "1e400", "abc", "", "1,2", HUGE))
ARGV_INT = ("-1", "nan", "1e400", "1/0", "x", "", "1,2")
ARGV_D = (("2", "3", "4", "1000"), ARGV_INT + ("0", "1"))
ARGV_BUDGET = (("10", "1000"), ARGV_INT + ("0",))
ARGV_SPECS = (("const", "2"), ("cell-chord",), ("tstar",),
              ("annulus", "1", "3"), ("annulus", "2", "2"),
              ("tstar-plane", "1,1,0", "0,1,1"))
ARGV_SPEC_JUNK = tuple((head, *rest) for head in (
    "const", "cell-chord", "annulus", "tstar-plane", "x")
    for rest in ((), ("nan",), ("1e400", "-1"), ("1/0",), ("1,0", "0,1"),
                 ("0",)))
ARGV_FLAGS = {
    "phantom": {"--kind": (("point", "disc", "checker", "random-int"),
                           ("ball", "")),
                "--d?": (ARGV_D[0], ARGV_D[1] + (HUGE,)), "--r": ARGV_R,
                "--seed?": (("0", "7", "-5"), ARGV_INT + (HUGE,)),
                "--out": ARGV_OUT},
    "forward": {"--grid": ARGV_GRID,
                "--family": (ARGV_SPECS[2:], ARGV_SPEC_JUNK),
                "--weight?": (ARGV_SPECS[:2], ARGV_SPEC_JUNK),
                "--continuous?": (((),), (("x",),)),
                "--out": ARGV_OUT},
    "recon": {"--sino": ARGV_SINO,
              "--weight?": (ARGV_SPECS[:2], ARGV_SPEC_JUNK),
              "--one-point?": (("{dirs}",), ARGV_SINO[0] + ARGV_SINO[1][2:]),
              "--iterate?": (("1", "2"), ARGV_INT + ("0",)), "--r?": ARGV_R,
              "--residuals?": ARGV_OUT, "--out": ARGV_OUT},
    "export": {"--grid": ARGV_GRID, "--out": ARGV_OUT},
    "count tmin": {"--r": ARGV_R, "--d?": ARGV_D, "--budget?": ARGV_BUDGET},
    "count farey": {"--n": (("1", "30"), ARGV_INT + ("0", HUGE))},
    "count separation": {"--R": ARGV_R, "--d?": (("2", "3", "40"), ARGV_D[1])},
    "count bounds": {"--r": ARGV_R, "--d?": ARGV_D, "--budget?": ARGV_BUDGET},
}


@st.composite
def argvs(draw):
    """A subcommand and its flags in any order, perhaps among unknown
    tokens; a flag's value is one token or a tuple of them."""
    command = draw(st.sampled_from(sorted(ARGV_FLAGS) + ["bogus", "count"]))
    flags = []
    for flag, (valid, junk) in ARGV_FLAGS.get(command, {}).items():
        times = (0, 0, 0, 1, 1, 2) if flag.endswith("?") else (1, 1, 1, 1, 0, 2)
        for _ in range(draw(st.sampled_from(times))):
            value = draw(st.sampled_from(valid) | st.sampled_from(valid)
                         | st.sampled_from(valid) | st.sampled_from(junk))
            flags.append([flag.rstrip("?"),
                          *((value,) if isinstance(value, str) else value)])
    argv = command.split() + sum(draw(st.permutations(flags)), [])
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(
            ("--bogus", "extra", "-x", "--d", "--help", "1"))))
    return argv


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """A directory of small valid and broken input files, by token."""
    tmp = tmp_path_factory.mktemp("argv_fuzz")
    files = {name: str(tmp / f"{name}.json") for name in (
        "grid", "grid3", "sino", "csino", "asino", "opsino", "dirs", "bad",
        "missing", "out", "out2")}
    files.update(dir=str(tmp), nodir=str(tmp / "nodir"))
    for argv in (
            ["phantom", "--kind", "random-int", "--r", "3", "--seed", "2",
             "--out", files["grid"]],
            ["phantom", "--kind", "checker", "--d", "3", "--r", "2",
             "--out", files["grid3"]],
            ["forward", "--grid", files["grid"], "--family", "tstar",
             "--out", files["sino"]],
            ["forward", "--grid", files["grid"], "--family", "tstar",
             "--continuous", "--out", files["csino"]],
            ["forward", "--grid", files["grid"], "--family", "annulus", "1",
             "3", "--out", files["asino"]]):
        assert cli.main(argv) == 0
    points = enumerate_ball(2, 3)
    dirs = one_point_directions(points, 3)
    sino = forward_family(random_int_grid(2, 3, seed=5),
                          one_point_family(points, dirs),
                          FamilyMeta("free", support_radius=Fraction(3)))
    lio.write_json_atomic(files["opsino"], lio.sino_to_obj(sino))
    lio.write_json_atomic(files["dirs"], [{"z": list(z), "dir": list(t)}
                                          for z, t in dirs.items()])
    with open(files["bad"], "w") as fh:
        fh.write("{not json")
    return files


@settings(max_examples=500, deadline=None)
@given(argvs())
@example(["phantom", "--kind", "point", "--d", "99999999999999999999",
          "--r", "1", "--out", "{out}"])
@example(["export", "--grid", "{grid}", "--out", "{nodir}/out.json"])
@example(["phantom", "--kind", "point", "--r", "1", "--out", "{dir}"])
def test_any_argv_exits_with_a_code(argv_files, argv):
    # 0, 2, 3 or 4, or argparse's SystemExit 0 (help) or 2; never a
    # traceback, and the caller's collector setting is left as it was
    argv = [token.format_map(argv_files) for token in argv]
    assert gc.isenabled()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code in (0, 2)
    else:
        assert code in (0, 2, 3, 4)
    assert gc.isenabled()


# a NamedTuple key per length: equal to the plain tuple, of another type
NAMED_KEYS = {n: namedtuple(f"Key{n}", [f"x{i}" for i in range(n)])
              for n in range(1, 6)}
KEY_SPOILS = ("wrong length", "outside the ball", "bool coordinate",
              "float coordinate", "int-valued float", "NamedTuple", "list",
              "str coordinate", "None coordinate", "nan coordinate",
              "inf coordinate")
VALUE_SPOILS = (float("nan"), float("inf"), -float("inf"), 10 ** 400,
                -10 ** 400, "1.5", "inf", "x", None, True, False, 3, -0.0,
                2 ** 53 + 1, Fraction(1, 3))


class PairMapping(Mapping):
    """A mapping over (key, value) pairs, so keys may be unhashable lists."""

    def __init__(self, pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        return next(v for k, v in self.pairs if k == key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


def _spoil_key(z, how, rng):
    j = rng.randrange(len(z))
    z = list(z)
    if how == "wrong length":
        return tuple(z[:-1] if rng.random() < 0.5 else z + [0])
    if how == "outside the ball":
        z[j] += rng.choice((-1, 1)) * (abs(z[j]) + 1)
    elif how == "bool coordinate":
        z[j] = rng.choice((True, False))
    elif how == "float coordinate":  # int() may collide it with a neighbour
        z[j] += rng.choice((-0.5, 0.5))
    elif how == "int-valued float":
        z[j] = float(z[j])
    elif how == "NamedTuple":
        return NAMED_KEYS[len(z)](*z)
    elif how == "list":
        return z
    elif how == "str coordinate":
        z[j] = rng.choice((str(z[j]), "x"))
    elif how == "None coordinate":
        z[j] = None
    elif how == "nan coordinate":
        z[j] = float("nan")
    elif how == "inf coordinate":
        z[j] = float("inf")
    return tuple(z)


@st.composite
def grid_cases(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    r = draw(st.fractions(0, 4, max_denominator=6))
    # the shares of spoiled keys and of spoiled values, each 0 half the time
    rates = draw(st.tuples(*[st.sampled_from((0, 0, 0.05, 0.3))] * 2))
    return d, r, draw(st.integers(1, 40)), rates, draw(st.integers(0, 2 ** 16))


def _grid_outcome(make):
    try:
        got = make()
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(z), tuple(map(type, z)), z, v.hex()) for z, v in got.items()]


@settings(max_examples=400, deadline=None)
@given(grid_cases())
@example((3, Fraction(2), 0, (0, 0), 0))  # no points
def test_grid_checks_match_the_point_walk(case):
    # the same stored points (types, order, float.hex) or the same exception
    # type and message as the point-by-point walk
    d, r, n, (key_rate, value_rate), seed = case
    rng = random.Random(seed)
    ball = enumerate_ball(d, r)
    pairs = []
    for _ in range(n):
        z = rng.choice(ball)
        if key_rate and rng.random() < key_rate:
            z = _spoil_key(z, rng.choice(KEY_SPOILS), rng)
        v = rng.choice((float(rng.randint(-9, 9)), rng.uniform(-1e3, 1e3)))
        if value_rate and rng.random() < value_rate:
            v = rng.choice(VALUE_SPOILS)
        pairs.append((z, v))
    lists = any(type(z) is list for z, _ in pairs)
    values = PairMapping(pairs) if lists else dict(pairs)
    got = _grid_outcome(lambda: GridFunction(d, r, values).values)
    assert got == _grid_outcome(lambda: reference_grid_values(d, r, values))
