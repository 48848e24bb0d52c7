"""Continuous transform of the field constant on the unit cells at lattice
points (the chord-weighted sum of cell values along a ray), the correction
identity, the disjoint-ball model, and layer and iterative reconstructions
over the plan's chord table; in doubles, identities to 1e-9 relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from operator import add, itemgetter, le, mul, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError
from .lattice import (IntVec, ball_radius, box_ids, box_points, dot, norm2,
                      vsub)
from .rays import (Ray, _on_line, cell_chord, coordinate_plane, perp_ray,
                   walk_box, walk_cells)
from .recon import ReconPlan, datum, recon_shells, step_sums, sweep_data
from .transform import (FamilyMeta, GridFunction, Sinogram, Weight,
                        forward_weighted, project_family)


def chord_weight() -> Weight:
    """Weight model W(z, dir) = chord of the line through z in z's own cell."""
    return lambda z, dirv: cell_chord(Ray(tuple(z), tuple(dirv)), tuple(z))


def _continuous_sums(f: GridFunction, rays: Sequence[Ray]) -> list[float]:
    """``forward_continuous`` of each ray, the rays walked together.

    Values are looked up by cell number, so no cell tuple is made. Unset
    cells add 0.0, which leaves the double sum as it was: it starts at +0.0
    and can never become -0.0.
    """
    radius = float(f.support_radius) + math.sqrt(f.d)
    place, offset = walk_box(f.d, radius)
    get = dict(zip(box_ids(f.values, place, offset), f.values.values())).get
    sums = [0.0] * len(rays)
    for i, cells, chords, _ in walk_cells(rays, radius):
        sums[i] = reduce(add, map(mul, map(get, cells, repeat(0.0)), chords), 0.0)
    return sums


def forward_continuous(f: GridFunction, ray: Ray) -> float:
    """Line integral of the piecewise-constant cell field defined by f.

    Walks the cells along the ray, clipped to the ball that contains every
    cell meeting the declared support; no global cell scan.
    """
    if ray.d != f.d:
        raise PreconditionError("ray and grid dimensions differ")
    radius = float(f.support_radius) + math.sqrt(f.d)
    place, offset = walk_box(f.d, radius)
    for _, ids, chords, _ in walk_cells([ray], radius):
        cells = box_points(ids, place, offset)
        return reduce(add, map(mul, map(f.values.get, cells, repeat(0.0)),
                               chords), 0.0)
    return 0.0


def forward_continuous_family(f: GridFunction,
                              family: Iterable[tuple[IntVec, Ray]],
                              meta: FamilyMeta | None = None) -> Sinogram:
    """``forward_continuous`` of every line of the family: by the
    ``chord_table`` of a live plan of f's radius walked on these very rays,
    else walked together."""
    return project_family(f, family, meta, lambda rays: _continuous_sums(f, rays),
                          "chord_table")


def correction_identity_check(f: GridFunction, z: IntVec,
                              ray: Ray | None = None) -> tuple[float, float]:
    """Both sides of the exact chord-correction identity along a ray.

    lhs: chord-weighted discrete transform of f along the ray (default:
    ``perp_ray(z)``).
    rhs: continuous transform of the cell field minus the chord
    contributions of all supported cells off the line.
    The two agree up to double-precision roundoff.
    """
    if ray is None:
        ray = perp_ray(z)
    lhs = forward_weighted(f, ray, chord_weight())
    # Only a cell within sqrt(d)/2 of the line can meet it. The squared
    # distance is q/|p|^2, q = |p|^2|u|^2 - (u.p)^2 an integer, so a cell
    # with 4q > d|p|^2 misses by a margin far above roundoff: chord 0.0.
    pp = norm2(ray.dir)
    uu = up = [0] * len(f.values)
    for col, bi, pi in zip(map(itemgetter, range(f.d)), ray.base, ray.dir):
        u = list(map(sub, map(col, f.values), repeat(bi)))
        uu = map(add, uu, map(mul, u, u))
        up = map(add, up, map(mul, u, repeat(pi)))
    up = list(up)
    q4 = map(mul, map(sub, map(mul, uu, repeat(pp)), map(mul, up, up)), repeat(4))
    near = compress(f.values, map(le, q4, repeat(f.d * pp)))
    correction = 0.0
    for zeta in sorted(near):  # the order of sorted(f.values)
        if _on_line(zeta, ray):
            continue
        v = f.values[zeta]
        if v:
            correction += v * cell_chord(ray, zeta)
    rhs = forward_continuous(f, ray) - correction
    return lhs, rhs


@dataclass
class BallField:
    """Disjoint balls at lattice centers: value, radius < 1/2, nonzero weight.

    balls maps each center to (radius, weight, value); radii below one half
    make disjointness automatic for distinct lattice centers.
    """

    d: int
    support_radius: Fraction
    balls: dict[IntVec, tuple[float, float, float]] = field(default_factory=dict)

    def __post_init__(self):
        self.support_radius = ball_radius(self.d, self.support_radius)
        r2 = self.support_radius * self.support_radius
        den, num = r2.denominator, r2.numerator
        clean = {}
        for z, (rho, w, v) in self.balls.items():
            z = tuple(int(c) for c in z)
            if len(z) != self.d:
                raise PreconditionError(f"center {z} has wrong dimension")
            if den * norm2(z) > num:
                raise PreconditionError(f"center {z} outside the support ball")
            if not 0 < rho < 0.5:
                raise PreconditionError(f"ball radius at {z} must be in (0, 1/2)")
            if w == 0:
                raise PreconditionError(f"ball weight at {z} must be nonzero")
            clean[z] = (float(rho), float(w), float(v))
        self.balls = clean


def _ball_line_status(ray: Ray, center: IntVec, rho: float) -> str:
    """'center', 'miss', or 'graze' for one ball against the ray's line."""
    if _on_line(center, ray):
        return "center"
    u = vsub(center, ray.base)
    # exact rational squared distance from center to the line
    d2 = Fraction(norm2(u)) - Fraction(dot(u, ray.dir) ** 2, norm2(ray.dir))
    rho2 = Fraction(rho) * Fraction(rho)
    return "miss" if d2 > rho2 else "graze"


def hits_centers_only(ray: Ray, bf: BallField) -> bool:
    """True iff the ray meets every ball through its center or not at all."""
    return all(_ball_line_status(ray, z, rho) != "graze"
               for z, (rho, _, _) in bf.balls.items())


def forward_balls(bf: BallField, ray: Ray) -> float:
    """Continuous transform of the ball field along a center-hitting ray.

    Each ball met through its center contributes diameter * weight * value;
    a ray grazing some ball off-center is outside this model and rejected.
    """
    if ray.d != bf.d:
        raise PreconditionError("ray and field dimensions differ")
    total = 0.0
    for z, (rho, w, v) in sorted(bf.balls.items()):
        status = _ball_line_status(ray, z, rho)
        if status == "graze":
            raise PreconditionError(
                f"ray meets the ball at {z} off-center; not in the model family")
        if status == "center":
            total += 2.0 * rho * w * v
    return total


def layer_recon(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """One-sweep approximate inversion of continuous cell-field data.

    Shell order as in the discrete sweep; each update divides the datum,
    corrected by the chords through already-recovered (strictly outer)
    cells of the same slice, by the chord through the target's own cell.
    Cross terms from the target's shell and inner shells are dropped, so
    this is a first approximation, not an identity.
    """
    if plan.weight is not None:
        raise PreconditionError("layer reconstruction defines its own weight")
    table = plan.chord_table
    ids, chords, central = table.ids, table.chords, table.central
    geom = plan.plane or coordinate_plane(plan.d)
    # shell order as the integers build_shells groups by: det * in-plane norm^2
    norms = list(map(geom.scaled_inplane_norm2, plan.order))
    vals: list[float] = []
    start = 0
    for i, (z, key, end) in enumerate(zip(plan.order, plan.keys, table.ends)):
        span, start = slice(start, end), end
        total = datum(g, key, z)
        nu = norms[i]
        # cell c < i is a target already recovered; the others read 0
        for c, chord in zip(ids[span], chords[span]):
            if c < i:
                v = vals[c]
                if v != 0.0 and norms[c] > nu:
                    total -= chord * v
        vals.append(total / central[i])
    return GridFunction.over_checked_points(plan.d, plan.support_radius,
                                            plan.order, vals)


def _chord_sums(plan: ReconPlan, f: GridFunction
                ) -> tuple[Iterator[float], Iterator[float]]:
    """Per sweep step, the chord-weighted sum of f over all cells its ray
    crosses (A f) and over its off-line cells: one product column over the
    plan's chord table, summed lazily from +0.0 in walk order. An unset or
    zero cell adds +-0.0, which changes no such sum. f must have the plan's
    dimension and at most its radius, so its cells have the plan's chords.
    """
    if f.d != plan.d or f.support_radius > plan.support_radius:
        raise PreconditionError(
            "the residual needs f of the plan's dimension and at most its radius")
    table = plan.chord_table
    terms = table.column(f.values)
    return (step_sums(iter(terms), table.lens),
            step_sums(compress(terms, table.off_line), table.off_lens))


def _max_gap(data: list[float], model: Iterable[float]) -> float:
    """max |datum - model| from 0.0 in step order: a NaN gap never wins."""
    return max(chain((0.0,), map(abs, map(sub, data, model))))


def _corrected_sinogram(g: Sinogram, plan: ReconPlan, data: list[float],
                        off: Iterable[float]) -> Sinogram:
    """The data less an iterate's off-line chord sums, over the central
    chord (the same for every cell centered on the line): plain discrete
    transform values for the exact shell sweep.
    """
    entries = dict(zip(plan.keys, map(truediv, map(sub, data, off),
                                      plan.chord_table.central)))
    return Sinogram(d=g.d, entries=entries, meta=g.meta, family=g.family)


def data_residual(g: Sinogram, plan: ReconPlan, f: GridFunction) -> float:
    """Max |datum - continuous model of f| over the plan's rays; f must
    meet ``_chord_sums``'s contract."""
    full, _ = _chord_sums(plan, f)  # f is checked before any datum is read
    return _max_gap(sweep_data(g, plan), full)


def iterate_recon(g: Sinogram, plan: ReconPlan, f_init: GridFunction | None = None,
                  iters: int = 1) -> tuple[list[GridFunction], list[float]]:
    """Refine cell-field reconstructions by correct-then-invert rounds
    (``_corrected_sinogram``, then the shell sweep). Returns every iterate
    from the initial guess (default: the layer sweep) and their data
    residuals; convergence is reported, not asserted. A given f_init must
    meet ``data_residual``'s contract. One table pass per iterate gives
    its residual and the next round's correction.
    """
    if iters < 1:
        raise PreconditionError("need at least one iteration")
    if plan.weight is not None:
        raise PreconditionError("iterative reconstruction defines its own weight")
    current = layer_recon(g, plan) if f_init is None else f_init
    full, off = _chord_sums(plan, current)
    data = sweep_data(g, plan)
    iterates, residuals = [current], [_max_gap(data, full)]
    for _ in range(iters):
        current = recon_shells(_corrected_sinogram(g, plan, data, off), plan)
        full, off = _chord_sums(plan, current)
        iterates.append(current)
        residuals.append(_max_gap(data, full))
    return iterates, residuals
