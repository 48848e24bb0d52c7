"""Exact inversions of the discrete transform, one ray per point, by one
engine: the shell sweep of a plan compiled over any rays through their
targets; the one-point formula is a sweep of empty steps (see README.md).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import (accumulate, chain, compress, count, filterfalse, islice,
                       repeat, starmap)
from operator import (add, and_, eq, gt, is_not, itemgetter, le, lt, mul, ne,
                      not_, or_, sub, truediv)
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MissingDataError, PlanError, PreconditionError
from .lattice import (IntVec, ShellDecomposition, as_fraction, ball_radius,
                      box_ids, box_index, box_points, build_shells, dots,
                      enumerate_ball)
from .rays import (Plane, Ray, RayKey, cell_chord, coordinate_plane,
                   effectively_irrational, perp_family, ray_boxes, ray_key,
                   ray_keys, ray_table, walk_box, walk_cells, walk_radius)
from .transform import (PLANS, ForwardTable, GridFunction, Sinogram, Weight,
                        weight_column)


class ChordTable(NamedTuple):
    """Every plan ray's cell walk in the ball of radius r + sqrt(d), r^2 =
    r2, kept only at cells of the support ball (den |c|^2 <= num): step i's
    ray crosses the ``lens[i]`` cells ``ids[ends[i-1]:ends[i]]`` (chords
    and off-line flags in the same slots), ``off_lens[i]`` of them off its
    line; ``central[i]`` is the chord through its target's cell. A cell
    outside the ball holds no value of an f of at most the plan's radius:
    its term chord * 0.0 = +0.0 would change no sum from +0.0. Cell i is
    ``order[i]``, then cells of no target. ``outer[i]`` lists the earlier
    targets of strictly larger in-plane norm that step i crosses, in walk
    order, their chords flat in ``outer_chords``: the layer sweep's steps.
    Ray j of ``rays`` (as walked, in ``plan.rays`` order) is step
    ``at[j]``, of key ``keys[j]``.
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
    outer: tuple[tuple[int, ...], ...]
    outer_chords: array

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
    outside the ball or of another dimension, a ray missing its target or
    of another dimension, and a plan point on a target's ray not in an
    earlier shell, the one exactness certificate. Tables and weight
    columns are built when first read, out of equality and repr; each plan
    is in ``PLANS``.
    """

    d: int
    support_radius: Fraction
    points: tuple[IntVec, ...]
    rays: dict[IntVec, Ray]
    slices: dict[IntVec, ShellDecomposition]
    plane: Plane | None = None
    weight: Weight | None = None
    order: tuple[IntVec, ...] = field(init=False, repr=False)
    keys: tuple[RayKey, ...] = field(init=False, repr=False)
    steps: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        r2 = ball_radius(self.d, self.support_radius) ** 2
        shells = [s for k in sorted(self.slices) for s in self.slices[k].shells]
        self.order = tuple(chain.from_iterable(shells))
        for z in self.order:
            if len(z) != self.d:
                raise PreconditionError(f"target {z} has wrong dimension")
        norms = dots(self.order, self.order)
        top = max(norms, default=0)
        if top > r2:
            far = next(z for z, n in zip(self.order, norms) if n > r2)
            raise PreconditionError(f"target {far} outside the support ball")
        # no plan point lies beyond the farthest target: walk rays that far
        place, offset, _ = box_index(self.d, top, 1)
        rays = list(map(self.rays.__getitem__, self.order))
        dims = list(map(len, chain.from_iterable(rays)))  # base, dir, base, ...
        if dims.count(self.d) < len(dims):
            bad = next(compress(count(), map(ne, dims, repeat(self.d)))) // 2
            raise PlanError(f"the ray of {self.order[bad]} does not pass through it")
        bases, dirs = list(map(itemgetter(0), rays)), list(map(itemgetter(1), rays))
        # canonical primitive: gcd 1 and the first nonzero entry positive
        canonical = list(map(and_, map(eq, starmap(math.gcd, dirs), repeat(1)),
                             map(gt, dirs, repeat((0,) * self.d))))
        if not all(canonical):
            bad = canonical.index(False)
            raise PlanError(f"the ray of {self.order[bad]} has direction "
                            f"{dirs[bad]}, not a canonical primitive vector")
        firsts, strides, counts = ray_boxes(rays, top, 1, place, offset)
        boxes = box_ids(self.order, place, offset)
        # a ray based at its target holds it; only one based elsewhere, or
        # with base.dir != 0, is looked for on its line and keyed afresh
        keys = list(map(tuple.__new__, repeat(RayKey), zip(dirs, self.order)))
        for i in compress(count(), map(or_, map(ne, bases, self.order),
                                      dots(self.order, dirs))):
            k, rest = divmod(boxes[i] - firsts[i], strides[i] or 1)
            if rest or not 0 <= k < counts[i]:
                raise PlanError(
                    f"the ray of {self.order[i]} does not pass through it")
            keys[i] = ray_key(rays[i])
        step_of = dict(zip(boxes, count()))
        # each step's first step of its shell: from there on, not yet swept
        heads = chain.from_iterable(map(repeat, accumulate(
            map(len, shells), initial=0), map(len, shells)))
        steps = [()] * len(rays)
        for me, lo, step, n, home, head in compress(zip(
                count(), firsts, strides, counts, boxes, heads),
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
        self.steps, self.keys = tuple(steps), tuple(keys)
        PLANS[id(self)] = self

    def _for_weight(self, name: str, build: Callable[[Weight], object],
                    w: Weight):
        """build(w), kept until another weight is asked for."""
        got = vars(self).get(name)
        if got is None or got[0] is not w:
            got = vars(self)[name] = w, build(w)
        return got[1]

    def forward_weights(self, w: Weight) -> list[float]:
        """w at each ``forward_table`` incidence, in gather order."""
        return self._for_weight("_forward_weights", self.forward_table.weights, w)

    def sweep_weights(self, w: Weight) -> tuple[list, list]:
        """w at each ``steps`` incidence (flat) and each target, on the
        compiled ray's direction."""
        def build(w: Weight) -> tuple[list, list]:
            dirs = list(map(itemgetter(0), self.keys))
            wz = weight_column(w, self.order, dirs)
            at = map(self.order.__getitem__, chain.from_iterable(self.steps))
            on = chain.from_iterable(map(repeat, dirs, map(len, self.steps)))
            return list(map(float, map(w, at, on))), wz
        return self._for_weight("_sweep_weights", build, w)

    @cached_property
    def forward_table(self) -> ForwardTable:
        """The rays as they are now, compiled for ``forward_family``, with
        the plan's own target tuples and line keys."""
        r2 = ball_radius(self.d, self.support_radius) ** 2
        rays = tuple(self.rays.values())
        if not set(map(len, chain.from_iterable(rays))) <= {self.d}:
            raise PreconditionError("ray and grid dimensions differ")
        points, gather, lens = ray_table(rays, self.d, r2.numerator,
                                         r2.denominator)
        keys, mine = ray_keys(rays), dict(zip(self.keys, self.keys))
        keys = tuple(map(mine.get, keys, keys))
        mine = dict(zip(self.order, self.order))
        return ForwardTable(r2, rays, list(map(mine.get, points, points)),
                            gather, lens, keys)

    @cached_property
    def chord_table(self) -> ChordTable:
        """Each sweep step's cell walk, chords and central chord (walked
        once), and the layer sweep's steps."""
        radius = walk_radius(self.d, self.support_radius)
        place, offset = walk_box(self.d, radius)
        rays = list(map(self.rays.__getitem__, self.order))
        walks: list[tuple] = [((), (), ())] * len(rays)
        for i, walk_ids, chords, on_line in walk_cells(rays, radius):
            walks[i] = walk_ids, chords, on_line
        # the targets, then the other support-ball cells in order of first
        # crossing; cell_id.get reads None for a cell outside the ball
        cell_id = dict(zip(box_ids(self.order, place, offset), count()))
        new = list(filterfalse(cell_id.__contains__, dict.fromkeys(
            chain.from_iterable(map(itemgetter(0), walks)))))
        others = list(box_points(new, place, offset))
        r2 = self.support_radius ** 2
        inside = list(map(le, map(mul, dots(others, others),
                                  repeat(r2.denominator)), repeat(r2.numerator)))
        cell_id.update(zip(compress(new, inside), count(len(cell_id))))
        # a list of cell_id's own ints: no int is boxed per read
        ids = list(map(cell_id.get, chain.from_iterable(map(itemgetter(0), walks))))
        kept = list(map(is_not, ids, repeat(None)))
        lens = array("i", map(sum, map(islice, repeat(iter(kept)),
                                       map(len, map(itemgetter(0), walks)))))
        ids = list(compress(ids, kept))
        chords = array("d", compress(chain.from_iterable(
            map(itemgetter(1), walks)), kept))
        off_line = array("b", map(not_, compress(chain.from_iterable(
            map(itemgetter(2), walks)), kept)))
        # the layer sweep reads crossings of earlier targets (id < step) of
        # strictly larger in-plane norm; a cell of no target has norm -1
        geom = self.plane or coordinate_plane(self.d)
        norms = list(map(geom.scaled_inplane_norm2, self.order))
        norm_of = norms + [-1] * (len(cell_id) - len(norms))
        at_step = list(chain.from_iterable(map(repeat, count(), lens)))
        outer = list(map(and_, map(lt, ids, at_step), map(
            gt, map(norm_of.__getitem__, ids), map(norms.__getitem__, at_step))))
        outer_ids = iter(compress(ids, outer))
        outer_lens = map(sum, map(islice, repeat(iter(outer)), lens))
        steps = tuple(map(tuple, map(islice, repeat(outer_ids), outer_lens)))
        step_of = dict(zip(self.order, count()))
        at = array("i", map(step_of.__getitem__, filter(step_of.__contains__,
                                                        self.rays)))
        return ChordTable(
            r2, tuple(map(rays.__getitem__, at)),
            tuple(map(self.keys.__getitem__, at)), at,
            (*self.order, *compress(others, inside)), ids, chords, off_line,
            lens, array("i", map(sum, map(islice, repeat(iter(off_line)), lens))),
            array("i", accumulate(lens)), array("d", map(cell_chord, rays, self.order)),
            steps, array("d", compress(chords, outer)))


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
    maps each target to any ray through it (default: the perpendicular
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
                     slices=decomps, plane=plane, weight=weight)


def sweep_data(g: Sinogram, plan: ReconPlan) -> list[float]:
    """Each sweep step's datum, in step order; the first missing one is an
    error."""
    vals = list(map(g.entries.get, plan.keys))
    if None in vals:
        raise MissingDataError(
            f"no sinogram entry for ray of {plan.order[vals.index(None)]}")
    return vals


def recon_shells(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Invert data on a plan's rays by the shell sweep: a target's value
    is its datum minus the nonzero values recovered on its ray, in ray
    order (each times W(y, dir) and the total divided by W(z, dir) if the
    plan has a weight W). A missing datum is an error.
    """
    vals = sweep_data(g, plan)
    steps, w = plan.steps, plan.weight
    if w is None:
        get = vals.__getitem__
        for i, s in compress(enumerate(steps), steps):
            # zeros are skipped: -0.0 - -0.0 would be +0.0
            vals[i] = reduce(sub, filter(None, map(get, s)), vals[i])
    else:
        vals = weighted_sweep(vals, steps, *plan.sweep_weights(w))
    return GridFunction.over_checked_points(plan.d, plan.support_radius,
                                            plan.order, vals)


def weighted_sweep(data: list[float], steps: Sequence[tuple[int, ...]],
                   weights: Iterable[float], divisors: Sequence[float]
                   ) -> list[float]:
    """The shell sweep with weights: value i is data[i] less each nonzero
    value found at ``steps[i]`` times its weight, in order, over
    divisors[i]; ``weights`` holds the steps' incidences flat."""
    vals, ws = list(map(truediv, data, divisors)), iter(weights)
    get = vals.__getitem__
    for i, s in compress(enumerate(steps), steps):
        vs = list(map(get, s))
        # islice takes this step's len(s) weights, used or not
        vals[i] = reduce(sub, map(mul, compress(islice(ws, len(s)), vs),
                                  filter(None, vs)), data[i]) / divisors[i]
    return vals


def recon_shells_weighted(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Shell sweep for weighted data; the plan must carry the weight."""
    if plan.weight is None:
        raise PreconditionError("plan has no weight model")
    return recon_shells(g, plan)


def recon_annulus(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Shell sweep for annulus data: ``make_plan`` has restricted the
    plan's targets to the annulus."""
    return recon_shells(g, plan)


def recon_one_point(g: Sinogram, points: Iterable[IntVec],
                    theta_of: Mapping[IntVec, IntVec] | Callable[[IntVec], IntVec],
                    r, weight: Weight | None = None) -> GridFunction:
    """The one-point formula: each direction has |prim|^2 > 4 r^2, so a
    target's line meets the ball in it alone and the sweep's empty step
    reads f(z) off the datum (divided by W(z, theta) if weighted).
    """
    rf = as_fraction(r)
    pick = theta_of if callable(theta_of) else theta_of.__getitem__
    rays: dict[IntVec, Ray] = {}
    for z in map(tuple, points):
        theta = tuple(pick(z))
        if not effectively_irrational(theta, rf):
            raise PreconditionError(
                f"direction {theta} is not effectively irrational at radius {rf}")
        rays[z] = Ray(z, theta)
    return recon_shells(g, make_plan(g.d, rf, rays, rays=rays, weight=weight))


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
