"""Exact inversions of the discrete transform, one ray per point: the
one-point formula and the shell sweep of the perpendicular family (see
README.md).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, gt, itemgetter, mul, ne, not_, or_, sub, truediv
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import (MissingDataError, PlanError, PreconditionError,
                     ZeroWeightError)
from .lattice import (IntVec, ShellDecomposition, as_fraction, ball_radius,
                      box_ids, box_index, box_points, build_shells, dots,
                      enumerate_ball, norm2)
from .rays import (Plane, Ray, RayKey, cell_chord, coordinate_plane,
                   effectively_irrational, perp_family, ray_boxes, ray_key,
                   ray_keys, ray_table, walk_box, walk_cells)
from .transform import (PLANS, ForwardTable, GridFunction, Sinogram, Weight,
                        weight_column)


class ChordTable(NamedTuple):
    """Every plan ray's cell walk in the ball of radius r + sqrt(d), r^2 =
    r2: step i's ray crosses the ``lens[i]`` cells ``ids[ends[i-1]:ends[i]]``
    (chords and off-line flags in the same slots), ``off_lens[i]`` of them
    off its line; ``central[i]`` is the chord through its target's cell.
    Cell i is ``order[i]``, then cells of no target. Ray j of ``rays`` (as
    walked, in ``plan.rays`` order) is step ``at[j]``, of key ``keys[j]``.
    """

    r2: Fraction
    rays: tuple[Ray, ...]
    keys: tuple[RayKey, ...]
    at: array
    cells: tuple[IntVec, ...]
    ids: list[int]
    chords: array
    off_line: array
    lens: array
    off_lens: array
    ends: array
    central: array

    def column(self, values: Mapping[IntVec, float]) -> list[float]:
        """values[cell] (default 0.0) times chord per crossing, in walk order."""
        fv = list(map(values.get, self.cells, repeat(0.0)))
        return list(map(mul, map(fv.__getitem__, self.ids), self.chords))

    def sums(self, values: Mapping[IntVec, float]) -> Iterator[float]:
        """Each ray's sum of its column, in ``rays`` order."""
        full = list(step_sums(iter(self.column(values)), self.lens))
        return map(full.__getitem__, self.at)


def step_sums(terms: Iterator[float], lens: Iterable[int]) -> Iterator[float]:
    """Sums of the next lens[i] terms from +0.0 (``sum`` of floats is
    compensated from Python 3.12)."""
    return map(reduce, repeat(add), map(islice, repeat(terms), lens), repeat(0.0))


@dataclass
class ReconPlan:
    """Everything a shell sweep needs, compiled once (slices by key, shells
    outermost first): step i recovers ``order[i]`` from line ``keys[i]``;
    ``steps[i]`` holds the steps of the other plan points on that ray, in
    ray order (``()`` if none). It refuses a negative radius, a target
    outside the ball or of another dimension, a ray not based at its
    target normal to it, and a plan point on a target's ray not in an
    earlier shell. Tables and weight columns are built when first read,
    out of equality and repr; each plan is in ``PLANS``.
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
    steps: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        r2 = ball_radius(self.d, self.support_radius) ** 2
        num, den = r2.numerator, r2.denominator
        shells = [s for k in sorted(self.slices) for s in self.slices[k].shells]
        self.order = tuple(chain.from_iterable(shells))
        for z in self.order:
            if len(z) != self.d:
                raise PreconditionError(f"target {z} has wrong dimension")
        # no plan point lies beyond the farthest target: walk rays that far
        top = max(dots(self.order, self.order), default=0)
        if den * top <= num:
            num, den = math.ceil(top), 1
        place, offset, _ = box_index(self.d, num, den)
        rays = list(map(self.rays.__getitem__, self.order))
        bases, dirs = list(map(itemgetter(0), rays)), list(map(itemgetter(1), rays))
        # the first step whose ray is not based at its target normal to it
        bad = next(compress(count(), map(ne, map(len, dirs), repeat(self.d))),
                   len(rays))
        bad = next(compress(count(), map(or_, map(ne, bases[:bad], self.order),
                                         dots(self.order[:bad], dirs[:bad]))), bad)
        firsts, strides, counts = ray_boxes(rays[:bad], num, den, place, offset)
        # such a ray holds its target, unless the target is outside the ball
        stop = counts.index(0) if 0 in counts else bad
        boxes = box_ids(self.order, place, offset)
        step_of = dict(zip(boxes, count()))
        # each step's first step of its shell: from there on, not yet swept
        heads = chain.from_iterable(map(repeat, accumulate(
            map(len, shells), initial=0), map(len, shells)))
        steps = [()] * stop
        for me, lo, step, n, home, head in compress(zip(
                range(stop), firsts, strides, counts, boxes, heads),
                map(gt, counts, repeat(1))):
            # the ray's other ball points; hits shares step_of's ints
            span = chain(range(lo, home, step),
                         range(home + step, lo + n * step, step))
            hits = tuple(map(step_of.__getitem__,
                             filter(step_of.__contains__, span)))
            if hits and max(hits) >= head:
                late = self.order[next(i for i in hits if i >= head)]
                raise PlanError(f"{late} on the ray of {self.order[me]} "
                                f"is not in an earlier shell")
            steps[me] = hits
        self.steps = tuple(steps)
        if stop < bad:
            raise PreconditionError(
                f"target {self.order[stop]} outside the support ball")
        if bad < len(rays):
            raise PlanError(
                f"the ray of {self.order[bad]} is not based at it or not normal to it")
        # base.dir = 0, so each base is reduced: the key is (dir, target)
        self.keys = tuple(map(tuple.__new__, repeat(RayKey), zip(dirs, self.order)))
        PLANS[id(self)] = self

    def _for_weight(self, name: str, build: Callable[[Weight], object],
                    w: Weight):
        """build(w), kept until another weight is asked for."""
        got = vars(self).get(name)
        if got is None or got[0] is not w:
            got = vars(self)[name] = w, build(w)
        return got[1]

    def forward_weights(self, w: Weight) -> array:
        """w at each ``forward_table`` incidence, in gather order."""
        return self._for_weight("_forward_weights", self.forward_table.weights, w)

    def sweep_weights(self, w: Weight) -> tuple[array, array]:
        """w at each ``steps`` incidence (flat) and each target, on the
        compiled ray's direction."""
        def build(w: Weight) -> tuple[array, array]:
            dirs = list(map(itemgetter(0), self.keys))
            wz = weight_column(w, self.order, dirs)
            at = map(self.order.__getitem__, chain.from_iterable(self.steps))
            on = chain.from_iterable(map(repeat, dirs, map(len, self.steps)))
            return array("d", map(w, at, on)), wz
        return self._for_weight("_sweep_weights", build, w)

    @cached_property
    def forward_table(self) -> ForwardTable:
        """The rays as they are now, compiled for ``forward_family``, with
        the plan's own target tuples and line keys."""
        r2 = ball_radius(self.d, self.support_radius) ** 2
        rays = tuple(self.rays.values())
        if not set(map(len, chain.from_iterable(rays))) <= {self.d}:
            raise PreconditionError("ray and grid dimensions differ")
        points, gather, ends = ray_table(rays, self.d, r2.numerator,
                                         r2.denominator)
        keys, mine = ray_keys(rays), dict(zip(self.keys, self.keys))
        keys = tuple(map(mine.get, keys, keys))
        mine = dict(zip(self.order, self.order))
        return ForwardTable(r2, rays, list(map(mine.get, points, points)),
                            gather, ends, keys)

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
            walks[i] = walk_ids, chords, on_line
        # a list of cell_id's own ints: no int is boxed per read
        ids, chords, off_line = [], array("d"), array("b")
        lens, off_lens, central = array("i"), array("i"), array("d")
        for z, ray, (walk_ids, ray_chords, ray_on) in zip(self.order, rays, walks):
            for b in walk_ids:
                ids.append(cell_id.setdefault(b, len(cell_id)))
            chords.extend(ray_chords)
            off_line.extend(map(not_, ray_on))
            lens.append(len(ray_on))
            off_lens.append(ray_on.count(False))
            central.append(cell_chord(ray, z))
        cells.extend(box_points(list(cell_id)[len(cells):], place, offset))
        step_of = dict(zip(self.order, count()))
        at = array("i", map(step_of.__getitem__, filter(step_of.__contains__,
                                                        self.rays)))
        return ChordTable(
            self.support_radius ** 2, tuple(map(rays.__getitem__, at)),
            tuple(map(self.keys.__getitem__, at)), at, tuple(cells), ids,
            chords, off_line, lens, off_lens, array("i", accumulate(lens)),
            central)


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
    """A plan over a point set (default: the full ball) for d >= 2 and a
    radius >= 0; alpha/beta bound the targets' in-plane norms. ``rays``
    maps each target to its ray (default: the perpendicular family of
    ``plane``); a target without one is a PreconditionError.
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


def sweep_data(g: Sinogram, plan: ReconPlan) -> list[float]:
    """Each sweep step's datum, in step order; the first missing one is an
    error."""
    vals = list(map(g.entries.get, plan.keys))
    if None in vals:
        i = vals.index(None)
        datum(g, plan.keys[i], plan.order[i])
    return vals


def recon_shells(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Invert per-point-perpendicular-family data by the shell sweep:
    a target's value is its datum minus the nonzero values recovered on
    its ray, in ray order (each times W(y, dir) and the total divided by
    W(z, dir) if the plan has a weight W). A missing datum is an error.
    """
    vals = sweep_data(g, plan)
    steps, w = plan.steps, plan.weight
    if w is None:
        get = vals.__getitem__
        for i, s in compress(enumerate(steps), steps):
            # zeros are skipped: -0.0 - -0.0 would be +0.0
            vals[i] = reduce(sub, filter(None, map(get, s)), vals[i])
    else:
        ws, wz = plan.sweep_weights(w)
        data, vals, ws = vals, list(map(truediv, vals, wz)), iter(ws)
        get = vals.__getitem__
        for i, s in compress(enumerate(steps), steps):
            vs = list(map(get, s))
            # islice takes this step's len(s) weights, used or not
            vals[i] = reduce(sub, map(mul, compress(islice(ws, len(s)), vs),
                                      filter(None, vs)), data[i]) / wz[i]
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
    """Read f off one ray per point: each target in the ball, each
    direction with |prim|^2 > 4 r^2, so the datum (divided by the weight,
    if given) is the target's value.
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
