"""Exact inversions of the discrete transform, one ray per point recovered:
the one-point formula (a line whose primitive direction is longer than the
support diameter meets the ball in one lattice point at most) and the shell
sweep of the per-point perpendicular family (each point is the strict
in-plane-norm minimizer on its ray, so sweeping shells outermost first,
slice by slice, leaves one unknown per ray; exact for integer data).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter, mul, ne, or_, sub
from typing import Callable, Iterable, Mapping, NamedTuple

from .errors import (MissingDataError, PlanError, PreconditionError,
                     ZeroWeightError)
from .lattice import (IntVec, ShellDecomposition, as_fraction, ball_radius,
                      box_ids, box_index, box_points, build_shells, dots,
                      enumerate_ball, norm2)
from .rays import (Plane, Ray, RayKey, cell_chord, coordinate_plane,
                   effectively_irrational, perp_family, ray_boxes, ray_key,
                   ray_keys, walk_box, walk_cells)
from .transform import PLANS, ForwardTable, GridFunction, Sinogram, Weight


class ChordTable(NamedTuple):
    """Every plan ray's cell walk in the ball of radius r + sqrt(d).

    Step i's ray crosses cells ``ids[ends[i-1]:ends[i]]`` in ``walk_cells``
    order, with chords and on-its-line flags in the same slots of
    ``chords`` and ``on_line``; ``central[i]`` is the chord through the
    target's own cell. Ids index ``cells``: cell i is ``order[i]`` for each
    step i, then the cells of no target in order of first crossing.
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

    ``plane`` None is the standard family; ``alpha``/``beta`` record an
    annulus of targets. Construction compiles the sweep (slices by key,
    shells outermost first): step i recovers ``order[i]`` from line
    ``keys[i]``; ``on_ray[ends[i-1]:ends[i]]`` lists the steps of the other
    plan points on that ray, in ray order. It refuses a negative radius, a
    target outside the ball or of another dimension, a ray not based at its
    target normal to it, and a plan point on a target's ray not in an
    earlier shell. ``chord_table`` and ``forward_table`` are built when
    first read, out of equality and repr; each plan is in ``PLANS``.
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
        rays = list(map(self.rays.__getitem__, self.order))
        bases, dirs = list(map(itemgetter(0), rays)), list(map(itemgetter(1), rays))
        # the first step whose ray is not based at its target normal to it
        bad = next(compress(count(), map(ne, map(len, dirs), repeat(self.d))),
                   len(rays))
        bad = next(compress(count(), map(or_, map(ne, bases[:bad], self.order),
                                         dots(self.order[:bad], dirs[:bad]))), bad)
        firsts, steps, counts = ray_boxes(rays[:bad], num, den, place, offset)
        # such a ray holds its target, unless the target is outside the ball
        stop = counts.index(0) if 0 in counts else bad
        boxes = box_ids(self.order, place, offset)
        step_of = dict(zip(boxes, count()))
        # each step's first step of its shell: from there on, not yet swept
        heads = chain.from_iterable(map(repeat, accumulate(
            map(len, shells), initial=0), map(len, shells)))
        self.on_ray, self.ends = array("i"), array("i")
        for me, lo, step, n, home, head in zip(range(stop), firsts, steps,
                                               counts, boxes, heads):
            if n > 1:  # the ray's other ball points, before and after home
                span = chain(range(lo, home, step),
                             range(home + step, lo + n * step, step))
                hits = list(map(step_of.__getitem__,
                                filter(step_of.__contains__, span)))
                if hits and max(hits) >= head:
                    late = self.order[next(i for i in hits if i >= head)]
                    raise PlanError(f"{late} on the ray of {self.order[me]} "
                                    f"is not in an earlier shell")
                self.on_ray.extend(hits)
            self.ends.append(len(self.on_ray))
        if stop < bad:
            raise PreconditionError(
                f"target {self.order[stop]} outside the support ball")
        if bad < len(rays):
            raise PlanError(
                f"the ray of {self.order[bad]} is not based at it or not normal to it")
        # base.dir = 0, so each base is reduced: the key is (dir, target)
        self.keys = tuple(map(tuple.__new__, repeat(RayKey), zip(dirs, self.order)))
        PLANS[id(self)] = self

    @cached_property
    def forward_table(self) -> ForwardTable:
        """The rays as they are now, compiled for ``forward_family``."""
        r2 = ball_radius(self.d, self.support_radius) ** 2
        place, offset, _ = box_index(self.d, r2.numerator, r2.denominator)
        rays = tuple(self.rays.values())
        firsts, steps, counts = ray_boxes(rays, r2.numerator, r2.denominator,
                                          place, offset)
        steps = [s or 1 for s in steps]  # a 0 step has one point at most
        number = defaultdict(count().__next__)  # box id -> point number
        gather = array("i", map(number.__getitem__, chain.from_iterable(map(
            range, firsts, map(add, firsts, map(mul, counts, steps)), steps))))
        keys, mine = ray_keys(rays), dict(zip(self.keys, self.keys))
        keys = tuple(map(mine.get, keys, keys))
        mine = dict(zip(self.order, self.order))
        return ForwardTable(self.d, r2, rays, keys, [
            mine.get(z, z) for z in box_points(list(number), place, offset)],
            gather, array("i", accumulate(counts)))

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


def plan_targets(points: list[IntVec], geom: Plane, r: Fraction,
                 alpha: Fraction | None, beta: Fraction | None) -> list[IntVec]:
    """The points whose norm in plane geom lies in [alpha, beta]; None is
    open. A beta below the support radius r would leave the sweep unknowns."""
    if beta is not None and beta < r:
        raise PreconditionError(
            f"annulus outer bound {beta} is below the support radius {r}")
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
    """A plan over a point set (default: the full ball), compiled once.

    The radius must be nonnegative and d >= 2 (``ball_radius``);
    alpha/beta bound the targets' in-plane norms (``plan_targets``).
    ``rays`` maps each target to its ray (default: the perpendicular
    family of ``plane``); a target without one is a PreconditionError.
    """
    r = ball_radius(d, support_radius)
    if plane is not None and plane.d != d:
        raise PreconditionError("plane dimension mismatch")
    af = as_fraction(alpha) if alpha is not None else None
    bf = as_fraction(beta) if beta is not None else None
    geom = plane if plane is not None else coordinate_plane(d)
    pts = [tuple(z) for z in points] if points is not None else enumerate_ball(d, r)
    bad = next((z for z in pts if len(z) != d), None)
    if bad is not None:  # before build_shells, whose norms need d entries
        raise PreconditionError(f"target {bad} has wrong dimension")
    pts = plan_targets(pts, geom, r, af, bf)
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

    Forward substitution: a target's value is its ray's datum minus the
    values recovered on the ray, in ray order (points outside the plan
    read 0). With a plan weight W the data are weighted sums and each
    update divides by W(z, dir). The data are read as one column; the
    first step without an entry in g is an error, never imputed.
    """
    data = list(map(g.entries.get, plan.keys))
    if None in data:
        i = data.index(None)
        datum(g, plan.keys[i], plan.order[i])
    w = plan.weight
    vals: list[float] = []
    start = 0
    for z, total, end in zip(plan.order, data, plan.ends):
        if start == end and w is None:  # no other plan point on the ray
            vals.append(total)
            continue
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

    Each target must lie in the ball and its direction satisfy |prim|^2 >
    4 r^2, so the target is its ray's only ball point and the datum
    (divided by the weight, if given) is the value.
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
    """An effectively irrational direction (m, 1, 0, ...), m > 2r, per
    point; m cycles over seven values so nearby points get different rays."""
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
