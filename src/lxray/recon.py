"""Exact inversions of the discrete transform.

Two mechanisms, both non-overdetermined (one ray consumed per point
recovered):

* the one-point formula, for far-from-rational directions: a line whose
  primitive direction is longer than the support diameter meets the ball
  in at most one lattice point, so the datum along it IS the value there;
* the shell recursion for the per-point perpendicular family: each point z
  is the strict in-plane-norm minimizer among the lattice points of its
  ray, so sweeping shells from the outermost inward leaves, at each step,
  a single unknown on the ray.

The recursion works slice by slice (2D affine slices parallel to the
chosen plane) and supports weighted data and annulus-restricted targets.
Exact for integer data: every subtraction is an exact double operation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import (MissingDataError, PlanError, PreconditionError,
                     ZeroWeightError)
from .lattice import (IntVec, ShellDecomposition, as_fraction, ball_radius,
                      box_ids, box_index, box_points, build_shells,
                      enumerate_ball, norm2)
from .rays import (Plane, Ray, RayKey, cell_chord, coordinate_plane,
                   effectively_irrational, perp_family, ray_key, walk_box,
                   walk_cells)
from .transform import GridFunction, Sinogram, Weight


class ChordTable(NamedTuple):
    """Every plan ray's walk over the cells of the ball of radius r + sqrt(d).

    Sweep step i's ray crosses the cells ``ids[ends[i-1]:ends[i]]``, in
    ``walk_cells`` order, with the chords and on-its-line flags in the
    same slots of ``chords`` and ``on_line``; ``central[i]`` is the chord
    through the target's own cell. Ids index ``cells``, the distinct
    crossed cells: cell i is the plan's ``order[i]`` for every sweep step
    i, the cells of no target follow in order of first crossing.
    """

    cells: tuple[IntVec, ...]
    ids: array
    chords: array
    on_line: array
    ends: array
    central: array


@dataclass
class ReconPlan:
    """Everything a shell sweep needs: targets, rays, slices, shells, sweep.

    ``plane`` is None for the standard family (rays perpendicular to the
    first two coordinates); slices and in-plane norms then use the
    coordinate plane. ``alpha``/``beta`` record an annulus restriction of
    the target set. Construction compiles the sweep (slices by key, shells
    outermost first): step i recovers ``order[i]`` from line ``keys[i]``,
    and ``on_ray[ends[i-1]:ends[i]]`` lists the sweep steps of the other
    plan points on that ray, in ray order. It refuses a negative radius, a
    target outside the ball or of another dimension, a ray not based at its
    target perpendicular to its direction, and a plan point on a target's
    ray that is not in an earlier shell. The continuum rounds read
    ``chord_table``, built on first use and kept; no field, so equality and
    repr ignore it.
    """

    d: int
    support_radius: Fraction
    points: tuple[IntVec, ...]
    rays: dict[IntVec, Ray]
    slices: dict[IntVec, ShellDecomposition]
    plane: Plane | None = None
    weight: Weight | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None
    order: tuple[IntVec, ...] = field(init=False, repr=False)
    keys: tuple[RayKey, ...] = field(init=False, repr=False)
    on_ray: array = field(init=False, repr=False)
    ends: array = field(init=False, repr=False)

    def __post_init__(self):
        r2 = ball_radius(self.d, self.support_radius) ** 2
        num, den = r2.numerator, r2.denominator
        place, offset, _ = box_index(self.d, num, den)
        shells = [s for k in sorted(self.slices) for s in self.slices[k].shells]
        self.order = tuple(chain.from_iterable(shells))
        for z in self.order:
            if len(z) != self.d:
                raise PreconditionError(f"target {z} has wrong dimension")
        boxes = box_ids(self.order, place, offset)
        step_of = {j: i for i, j in enumerate(boxes)}
        keys: list[RayKey] = []
        self.on_ray, self.ends = array("i"), array("i")
        for shell in shells:
            first = len(self.ends)  # steps from here on are not yet swept
            for me, z in enumerate(shell, first):
                p = self.rays[z].dir
                if self.rays[z].base != z or sum(map(mul, z, p)):
                    raise PlanError(f"the ray of {z} is not based at it or not normal to it")
                keys.append(RayKey(p, z))  # base.dir = 0: the base is reduced
                rem = num - den * sum(map(mul, z, z))
                if rem < 0:
                    raise PreconditionError(f"target {z} outside the support ball")
                # the ball points z + k*p have |k| <= kmax since z.p = 0
                kmax = math.isqrt(rem // (den * sum(map(mul, p, p))))
                step = sum(map(mul, p, place)) or 1  # 0 only if kmax is 0
                lo = boxes[me] - kmax * step
                span = range(lo, lo + (2 * kmax + 1) * step, step)
                hits = [i for i in map(step_of.get, span) if i not in (None, me)]
                late = [self.order[i] for i in hits if i >= first]
                if late:
                    raise PlanError(
                        f"{late[0]} on the ray of {z} is not in an earlier shell")
                self.on_ray.extend(hits)
                self.ends.append(len(self.on_ray))
        self.keys = tuple(keys)

    @cached_property
    def chord_table(self) -> ChordTable:
        """Each sweep step's cell walk, chords and central chord (walked once)."""
        radius = float(self.support_radius) + math.sqrt(self.d)
        place, offset = walk_box(self.d, radius)
        cells = list(self.order)
        cell_id = {b: i for i, b in enumerate(box_ids(cells, place, offset))}
        rays = [self.rays[z] for z in self.order]
        walks: list[tuple] = [((), (), ())] * len(rays)
        for i, walk_ids, chords, on_line in walk_cells(rays, radius):
            walks[i] = walk_ids, array("d", chords), array("b", on_line)
        ids, chords, on_line = array("i"), array("d"), array("b")
        ends, central = array("i"), array("d")
        for z, ray, (walk_ids, ray_chords, ray_on) in zip(self.order, rays, walks):
            for b in walk_ids:
                ids.append(cell_id.setdefault(b, len(cell_id)))
            chords.extend(ray_chords)
            on_line.extend(ray_on)
            ends.append(len(ids))
            central.append(cell_chord(ray, z))
        cells.extend(box_points(list(cell_id)[len(cells):], place, offset))
        return ChordTable(tuple(cells), ids, chords, on_line, ends, central)


def plan_targets(points: list[IntVec], geom: Plane, alpha: Fraction | None,
                 beta: Fraction | None) -> list[IntVec]:
    """The points whose norm in plane geom lies in [alpha, beta]; None is open."""
    if alpha is None and beta is None:
        return points
    # exact integer bounds on det * in-plane norm^2
    lo = math.ceil(alpha * alpha * geom.det) if alpha is not None else 0
    hi = math.floor(beta * beta * geom.det) if beta is not None else math.inf
    return [z for z in points if lo <= geom.scaled_inplane_norm2(z) <= hi]


def make_plan(d: int, support_radius, points: Iterable[IntVec] | None = None,
              plane: Plane | None = None, weight: Weight | None = None,
              alpha=None, beta=None,
              rays: Mapping[IntVec, Ray] | None = None) -> ReconPlan:
    """Build a reconstruction plan over a point set (default: the full ball).

    The support radius must be nonnegative and d >= 2 (``ball_radius``).

    alpha/beta restrict the targets to in-plane norms within [alpha, beta];
    beta must reach the support radius, or values outside the annulus
    would feed the sweep unknown. ``rays`` maps each target to its ray
    (default: the perpendicular family of ``plane``); a target without one
    is a PreconditionError, and the compile refuses a ray that is not
    based at its target and normal to it. The plan compiles its sweep once.
    """
    r = ball_radius(d, support_radius)
    if plane is not None and plane.d != d:
        raise PreconditionError("plane dimension mismatch")
    af = as_fraction(alpha) if alpha is not None else None
    bf = as_fraction(beta) if beta is not None else None
    if bf is not None and bf < r:
        raise PreconditionError(
            f"annulus outer bound {bf} is below the support radius {r}")
    geom = plane if plane is not None else coordinate_plane(d)
    pts = [tuple(z) for z in points] if points is not None else enumerate_ball(d, r)
    bad = next((z for z in pts if len(z) != d), None)
    if bad is not None:  # before build_shells, whose norms need d entries
        raise PreconditionError(f"target {bad} has wrong dimension")
    pts = plan_targets(pts, geom, af, bf)
    if rays is None:
        rays = dict(perp_family(pts, plane))
    else:
        try:
            rays = {z: rays[z] for z in pts}
        except KeyError as exc:
            raise PreconditionError(f"no ray for target {exc.args[0]}") from None
    # a coordinate-plane slice is fixed by the trailing coordinates
    slice_key = geom.slice_key if plane is not None else itemgetter(slice(2, None))
    slices: dict[IntVec, list[IntVec]] = {}
    for z in pts:
        slices.setdefault(slice_key(z), []).append(z)
    decomps = {k: build_shells(v, plane=geom) for k, v in sorted(slices.items())}
    return ReconPlan(d=d, support_radius=r, points=tuple(pts), rays=rays,
                     slices=decomps, plane=plane, weight=weight, alpha=af,
                     beta=bf)


def datum(g: Sinogram, key: RayKey, z: IntVec) -> float:
    """The entry of line key, needed to recover z; a missing one is an error."""
    try:
        return g.entries[key]
    except KeyError:
        raise MissingDataError(f"no sinogram entry for ray of {z}") from None


def recon_shells(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Invert per-point-perpendicular-family data by the shell sweep.

    Forward substitution over the plan's sweep: a target's value is its ray
    datum minus the already-recovered values on the ray, in ray order
    (ball points outside the plan read as zero). With a plan weight W,
    data are weighted sums and the update divides by W(z, direction). A
    required entry missing from g is an error, never imputed.
    """
    w = plan.weight
    vals: list[float] = []
    start = 0
    for z, key, end in zip(plan.order, plan.keys, plan.ends):
        total = datum(g, key, z)
        steps, start = plan.on_ray[start:end], end
        if w is None:
            # zeros are skipped: -0.0 - -0.0 would be +0.0
            total = reduce(sub, filter(None, map(vals.__getitem__, steps)), total)
        else:
            p = plan.rays[z].dir
            total = reduce(sub, (w(plan.order[i], p) * vals[i]
                                 for i in steps if vals[i]), total)
            wz = w(z, p)
            if wz == 0:
                raise ZeroWeightError(f"weight vanishes at {z}")
            total /= wz
        vals.append(total)
    return GridFunction.over_checked_points(plan.d, plan.support_radius,
                                            plan.order, vals)


def recon_shells_weighted(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Shell sweep for weighted data; the plan must carry the weight."""
    if plan.weight is None:
        raise PreconditionError("plan has no weight model")
    return recon_shells(g, plan)


def recon_annulus(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Shell sweep for annulus data; the plan must carry annulus bounds."""
    if plan.beta is None:
        raise PreconditionError("plan carries no annulus bounds")
    return recon_shells(g, plan)


def recon_one_point(g: Sinogram, points: Iterable[IntVec],
                    theta_of: Mapping[IntVec, IntVec] | Callable[[IntVec], IntVec],
                    r, weight: Weight | None = None) -> GridFunction:
    """Read f off one ray per point, for effectively irrational directions.

    Each target must lie in the support ball and its direction must satisfy
    the |prim|^2 > 4 r^2 criterion, which makes the target the only ball
    lattice point on its ray; the datum (weight-divided if given) is then
    the value itself.
    """
    rf = as_fraction(r)
    r2 = rf * rf
    pick = theta_of if callable(theta_of) else theta_of.__getitem__
    out: dict[IntVec, float] = {}
    for z in points:
        z = tuple(z)
        if norm2(z) > r2:
            raise PreconditionError(f"target {z} outside the support ball")
        theta = tuple(pick(z))
        if not effectively_irrational(theta, rf):
            raise PreconditionError(
                f"direction {theta} is not effectively irrational at radius {rf}")
        val = datum(g, ray_key(Ray(z, theta)), z)
        if weight is not None:
            wz = weight(z, theta)
            if wz == 0:
                raise ZeroWeightError(f"weight vanishes at {z}")
            val /= wz
        out[z] = val
    return GridFunction(d=g.d, support_radius=rf, values=out)


def one_point_directions(points: Iterable[IntVec], r) -> dict[IntVec, IntVec]:
    """Assign each point an effectively irrational direction at radius r.

    Uses directions (m, 1, 0, ...) with m > 2r, cycling m over seven
    consecutive values so nearby points get different rays.
    """
    rf = as_fraction(r)
    base = math.isqrt(math.floor(4 * rf * rf)) + 1  # floor(2r) + 1 > 2r
    out: dict[IntVec, IntVec] = {}
    for i, z in enumerate(sorted(tuple(p) for p in points)):
        m = base + i % 7
        theta = (m, 1) + (0,) * (len(z) - 2)
        assert effectively_irrational(theta, rf)
        out[z] = theta
    return out


def one_point_family(points: Iterable[IntVec],
                     theta_of: Mapping[IntVec, IntVec]) -> list[tuple[IntVec, Ray]]:
    """Family pairing each point with its one-point-formula ray."""
    return [(tuple(z), Ray(tuple(z), tuple(theta_of[tuple(z)]))) for z in points]
