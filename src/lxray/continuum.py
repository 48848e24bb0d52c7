"""Continuous transform of piecewise-constant lattice-cell fields.

A grid function doubles as a description of the field that is constant on
the unit cells centered at lattice points; its continuous line transform is
the chord-weighted sum of cell values along the ray. The module provides
the chord geometry (slab clipping against closed unit cubes), a grid walk
that visits the cells a ray traverses in parameter order, the exact
correction identity tying the continuous transform to the chord-weighted
discrete one, the disjoint-ball model, and the layer-by-layer plus
iterative reconstructions built on the discrete shell sweep.

All of this is double-precision; the identities hold to 1e-9 relative,
with chords O(sqrt(d)) and sums over O(r) cells leaving ample headroom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import PreconditionError
from .lattice import IntVec, as_fraction, dot, norm2, vsub
from .rays import Ray, perp_ray
from .recon import ReconPlan, datum, recon_shells
from .transform import (FamilyMeta, GridFunction, Sinogram, Weight,
                        forward_weighted, project_family)


def cell_chord(ray: Ray, cell: IntVec) -> float:
    """Length of the ray's intersection with the closed unit cube at cell.

    Slab clipping in doubles; 0.0 when the line misses the cube. Lattice
    bases and integer cell centers keep the degenerate ray-in-face case
    unreachable (faces sit at half-integers).
    """
    tmin, tmax = -math.inf, math.inf
    for bi, pi, ci in zip(ray.base, ray.dir, cell):
        if pi == 0:
            if abs(bi - ci) > 0.5:
                return 0.0
            continue
        t1 = (ci - 0.5 - bi) / pi
        t2 = (ci + 0.5 - bi) / pi
        if t1 > t2:
            t1, t2 = t2, t1
        if t1 > tmin:
            tmin = t1
        if t2 < tmax:
            tmax = t2
    if tmax <= tmin:
        return 0.0
    return (tmax - tmin) * math.sqrt(norm2(ray.dir))


def chord_weight() -> Weight:
    """Weight model W(z, dir) = chord of the line through z in z's own cell."""
    return lambda z, dirv: cell_chord(Ray(tuple(z), tuple(dirv)), tuple(z))


def _ball_window(ray: Ray, radius: float) -> tuple[float, float] | None:
    """Parameter interval where |base + t*dir| <= radius, or None."""
    a = float(norm2(ray.dir))
    b = 2.0 * float(dot(ray.base, ray.dir))
    c = float(norm2(ray.base)) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return (-b - s) / (2.0 * a), (-b + s) / (2.0 * a)


def traverse_cells(ray: Ray, radius: float) -> Iterator[tuple[IntVec, float]]:
    """Yield (cell, chord) for cells the ray crosses within the given ball.

    Steps through the grid planes (cell faces at half-integers) in order of
    the ray parameter; each sub-segment is attributed to the cell containing
    its midpoint. Cells whose centers lie within ``radius - sqrt(d)`` of the
    origin get their full, unclipped chord.
    """
    window = _ball_window(ray, radius)
    if window is None:
        return
    t0, t1 = window
    cuts = [t0, t1]
    for bi, pi in zip(ray.base, ray.dir):
        if pi == 0:
            continue
        lo = bi + t0 * pi if pi > 0 else bi + t1 * pi
        hi = bi + t1 * pi if pi > 0 else bi + t0 * pi
        k0 = math.floor(lo + 0.5)
        k1 = math.floor(hi + 0.5)
        for k in range(k0, k1 + 1):
            t = (k + 0.5 - bi) / pi
            if t0 < t < t1:
                cuts.append(t)
    cuts.sort()
    speed = math.sqrt(norm2(ray.dir))
    for ta, tb in zip(cuts, cuts[1:]):
        if tb <= ta:
            continue
        tm = 0.5 * (ta + tb)
        cell = tuple(math.floor(bi + tm * pi + 0.5)
                     for bi, pi in zip(ray.base, ray.dir))
        yield cell, (tb - ta) * speed


def forward_continuous(f: GridFunction, ray: Ray) -> float:
    """Line integral of the piecewise-constant cell field defined by f.

    Walks the cells along the ray, clipped to the ball that contains every
    cell meeting the declared support; no global cell scan.
    """
    if ray.d != f.d:
        raise PreconditionError("ray and grid dimensions differ")
    radius = float(f.support_radius) + math.sqrt(f.d)
    total = 0.0
    for cell, chord in traverse_cells(ray, radius):
        v = f.values.get(cell)
        if v:
            total += v * chord
    return total


def forward_continuous_family(f: GridFunction,
                              family: Iterable[tuple[IntVec, Ray]],
                              meta: FamilyMeta | None = None) -> Sinogram:
    return project_family(f, family, meta, lambda ray: forward_continuous(f, ray))


def _on_line(z: IntVec, ray: Ray) -> bool:
    """Exact test: is lattice point z on the ray's line."""
    u = vsub(z, ray.base)
    k = None
    for ui, pi in zip(u, ray.dir):
        if pi == 0:
            if ui != 0:
                return False
        else:
            q, rem = divmod(ui, pi)
            if rem != 0:
                return False
            if k is None:
                k = q
            elif q != k:
                return False
    return True


def correction_identity_check(f: GridFunction, z: IntVec) -> tuple[float, float]:
    """Both sides of the exact chord-correction identity at z's ray.

    lhs: chord-weighted discrete transform of f along the ray of z.
    rhs: continuous transform of the cell field minus the chord
    contributions of all supported cells off the line.
    The two agree up to double-precision roundoff.
    """
    ray = perp_ray(z)
    lhs = forward_weighted(f, ray, chord_weight())
    correction = 0.0
    for zeta in sorted(f.values):
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
        self.support_radius = as_fraction(self.support_radius)
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
    Cross terms from the target's shell and inner shells are dropped, which
    is what makes this a first approximation rather than an identity.
    """
    if plan.weight is not None:
        raise PreconditionError("layer reconstruction defines its own weight")
    radius = float(plan.support_radius) + math.sqrt(plan.d)
    norms2 = {z: nu for dec in plan.slices.values()
              for shell, nu in zip(dec.shells, dec.norms2) for z in shell}
    out: dict[IntVec, float] = {}
    for z, key in zip(plan.order, plan.keys):
        ray = plan.rays[z]
        total = datum(g, key, z)
        nu = norms2[z]
        for cell, chord in traverse_cells(ray, radius):
            if cell == z:
                continue
            v = out.get(cell, 0.0)
            if v != 0.0 and norms2[cell] > nu:
                total -= chord * v
        out[z] = total / cell_chord(ray, z)
    return GridFunction(d=plan.d, support_radius=plan.support_radius, values=out)


def _corrected_sinogram(g: Sinogram, plan: ReconPlan, f: GridFunction,
                        radius: float) -> Sinogram:
    """Off-line chord contributions of f removed, then chord-normalized.

    After subtracting the cells off the ray's line, the remainder is the
    chord-weighted sum over the line's own lattice points; since a line
    meets every cell centered on it with the same (direction-only) central
    chord, dividing by that chord turns each datum into a plain discrete
    transform value, ready for the exact shell sweep.
    """
    entries = {}
    for z, key in zip(plan.order, plan.keys):
        ray = plan.rays[z]
        if key in entries:
            continue
        total = datum(g, key, z)
        corr = 0.0
        for cell, chord in traverse_cells(ray, radius):
            if _on_line(cell, ray):
                continue
            v = f.values.get(cell)
            if v:
                corr += v * chord
        entries[key] = (total - corr) / cell_chord(ray, z)
    return Sinogram(d=g.d, entries=entries, meta=g.meta, family=g.family)


def data_residual(g: Sinogram, plan: ReconPlan, f: GridFunction) -> float:
    """Max |datum - continuous model of f| over the plan's rays."""
    res = 0.0
    for z, key in zip(plan.order, plan.keys):
        res = max(res, abs(datum(g, key, z) - forward_continuous(f, plan.rays[z])))
    return res


def iterate_recon(g: Sinogram, plan: ReconPlan, f_init: GridFunction | None = None,
                  iters: int = 1) -> tuple[list[GridFunction], list[float]]:
    """Refine cell-field reconstructions by correct-then-invert rounds.

    Each round subtracts the current iterate's off-line chord contributions
    from the data, divides each datum by its line's central chord, and
    inverts the result exactly with the discrete shell sweep. Returns all
    iterates, starting with the initial guess (default: the layer sweep),
    alongside their data residuals. Convergence is reported, not asserted;
    the true cell field is a fixed point up to roundoff.
    """
    if iters < 1:
        raise PreconditionError("need at least one iteration")
    if plan.weight is not None:
        raise PreconditionError("iterative reconstruction defines its own weight")
    radius = float(plan.support_radius) + math.sqrt(plan.d)
    if f_init is None:
        f_init = layer_recon(g, plan)
    iterates = [f_init]
    residuals = [data_residual(g, plan, f_init)]
    current = f_init
    for _ in range(iters):
        corrected = _corrected_sinogram(g, plan, current, radius)
        current = recon_shells(corrected, plan)
        iterates.append(current)
        residuals.append(data_residual(g, plan, current))
    return iterates, residuals
