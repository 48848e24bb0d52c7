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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (MissingDataError, PlanError, PreconditionError,
                     ZeroWeightError)
from .lattice import (IntVec, ShellDecomposition, as_fraction, build_shells,
                      enumerate_ball, norm2)
from .rays import (Plane, Ray, RayKey, coordinate_plane, effectively_irrational,
                   perp_family, points_on_ray, ray_key)
from .transform import GridFunction, Sinogram, Weight


@dataclass
class ReconPlan:
    """Everything a shell sweep needs: targets, rays, slices, shells, incidence.

    ``plane`` is None for the standard family (rays perpendicular to the
    first two coordinates); slices and in-plane norms then use the
    coordinate plane. ``alpha``/``beta`` record an annulus restriction of
    the target set. ``incidence[z]`` holds the other plan points on z's ray
    in ray order; each lies in an earlier shell of z's slice.
    """

    d: int
    support_radius: Fraction
    points: tuple[IntVec, ...]
    rays: dict[IntVec, Ray]
    slices: dict[IntVec, ShellDecomposition]
    incidence: dict[IntVec, tuple[IntVec, ...]] = field(repr=False)
    plane: Plane | None = None
    weight: Weight | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def ray_keys(self) -> set[RayKey]:
        return {ray_key(ray) for ray in self.rays.values()}


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
              alpha=None, beta=None) -> ReconPlan:
    """Build a reconstruction plan over a point set (default: the full ball).

    alpha/beta restrict the targets to in-plane norms within [alpha, beta];
    beta must reach the support radius, or values outside the annulus
    would feed the sweep unknown. Each target's ray is solved here, once.
    """
    r = as_fraction(support_radius)
    if plane is not None and plane.d != d:
        raise PreconditionError("plane dimension mismatch")
    af = as_fraction(alpha) if alpha is not None else None
    bf = as_fraction(beta) if beta is not None else None
    if bf is not None and bf < r:
        raise PreconditionError(
            f"annulus outer bound {bf} is below the support radius {r}")
    geom = plane if plane is not None else coordinate_plane(d)
    pts = [tuple(z) for z in points] if points is not None else enumerate_ball(d, r)
    pts = plan_targets(pts, geom, af, bf)
    rays = dict(perp_family(pts, plane))
    slices: dict[IntVec, list[IntVec]] = {}
    for z in pts:
        slices.setdefault(geom.slice_key(z), []).append(z)
    decomps = {k: build_shells(v, plane=geom) for k, v in sorted(slices.items())}
    # plan points only, as the plan's own tuples: other ball points read as 0
    targets = {z: z for z in pts}
    r2 = r * r
    incidence: dict[IntVec, tuple[IntVec, ...]] = {}
    for dec in decomps.values():
        for shell in dec.shells:
            for z in shell:
                others = tuple(targets[y] for y in points_on_ray(rays[z], r2=r2)
                               if y != z and y in targets)
                for y in others:
                    if y not in incidence or y in shell:
                        raise PlanError(
                            f"{y} on the ray of {z} is not in an earlier shell")
                incidence[z] = others
    return ReconPlan(d=d, support_radius=r, points=tuple(pts), rays=rays,
                     slices=decomps, incidence=incidence, plane=plane,
                     weight=weight, alpha=af, beta=bf)


def recon_shells(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """Invert per-point-perpendicular-family data by the shell sweep.

    Within each slice, shells are processed outermost first; for a target z
    the value is the ray datum minus the already-recovered values at the
    other plan points of its ray (``plan.incidence[z]``; ball points outside
    the plan read as zero). With a plan weight W, data are weighted sums and
    the update divides by W(z, direction). A required entry missing from g
    is an error, never imputed.
    """
    w = plan.weight
    out: dict[IntVec, float] = {}
    for skey in sorted(plan.slices):
        for shell in plan.slices[skey].shells:
            for z in shell:
                ray = plan.rays[z]
                key = ray_key(ray)
                if key not in g.entries:
                    raise MissingDataError(f"no sinogram entry for ray of {z}")
                total = g.entries[key]
                for zeta in plan.incidence[z]:
                    fz = out[zeta]
                    if fz != 0.0:
                        total -= (w(zeta, ray.dir) * fz) if w else fz
                if w is not None:
                    wz = w(z, ray.dir)
                    if wz == 0:
                        raise ZeroWeightError(f"weight vanishes at {z}")
                    total /= wz
                out[z] = total
    return GridFunction(d=plan.d, support_radius=plan.support_radius, values=out)


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
        key = ray_key(Ray(z, theta))
        if key not in g.entries:
            raise MissingDataError(f"no sinogram entry for ray of {z}")
        val = g.entries[key]
        if weight is not None:
            wz = weight(z, theta)
            if wz == 0:
                raise ZeroWeightError(f"weight vanishes at {z}")
            val /= wz
        out[z] = val
    return GridFunction(d=g.d, support_radius=rf, values=out)


def one_point_directions(points: Iterable[IntVec], r,
                         spread: int = 7) -> dict[IntVec, IntVec]:
    """Assign each point an effectively irrational direction at radius r.

    Uses directions (m, 1, 0, ...) with m > 2r, cycling m over ``spread``
    consecutive values so nearby points get different rays.
    """
    rf = as_fraction(r)
    base = math.isqrt(math.floor(4 * rf * rf)) + 1  # floor(2r) + 1 > 2r
    out: dict[IntVec, IntVec] = {}
    for i, z in enumerate(sorted(tuple(p) for p in points)):
        m = base + (i % spread)
        theta = (m, 1) + (0,) * (len(z) - 2)
        assert effectively_irrational(theta, rf)
        out[z] = theta
    return out


def one_point_family(points: Iterable[IntVec],
                     theta_of: Mapping[IntVec, IntVec]) -> list[tuple[IntVec, Ray]]:
    """Family pairing each point with its one-point-formula ray."""
    return [(tuple(z), Ray(tuple(z), tuple(theta_of[tuple(z)]))) for z in points]
