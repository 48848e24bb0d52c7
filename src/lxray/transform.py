"""Forward transforms on lattice functions.

The discrete transform along a ray sums f over the ray's lattice points;
the weighted one multiplies each term by W(y, direction). Values are
doubles, exact for integer-valued f with |f| <= 2^40 (the exact round
trips rely on it).
"""

from __future__ import annotations

import math
import weakref
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, count, repeat
from operator import add, gt, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError, ZeroWeightError
from .lattice import (IntVec, as_fraction, ball_radius, box_ids, box_index,
                      norm2)
from .rays import (Ray, RayKey, is_canonical_direction, ray_boxes, ray_key,
                   ray_keys, ray_points, ray_span, ray_spans)

# weight contract: W(point, direction) -> nonzero float
Weight = Callable[[IntVec, IntVec], float]

# rays whose span columns are held at once: bounds the forward's memory
COLUMN_BLOCK = 2048

# live plans by id: forward_family reads their tables
PLANS = weakref.WeakValueDictionary()


@dataclass
class GridFunction:
    """Sparse real function on Z^d in a declared ball: unstored points read
    0; r >= 0, each stored |z|^2 <= r^2 exactly and each value finite."""

    d: int
    support_radius: Fraction
    values: dict[IntVec, float] = field(default_factory=dict)

    def __post_init__(self):
        self.support_radius = ball_radius(self.d, self.support_radius)
        r2 = self.support_radius * self.support_radius
        den, num = r2.denominator, r2.numerator
        clean: dict[IntVec, float] = {}
        for z, v in self.values.items():
            z = tuple(map(int, z))
            if len(z) != self.d:
                raise PreconditionError(f"point {z} has wrong dimension")
            if den * norm2(z) > num:
                raise PreconditionError(f"point {z} outside declared support ball")
            try:
                v = float(v)
            except OverflowError as exc:
                raise PreconditionError(f"value at {z} is out of range") from exc
            if not math.isfinite(v):
                raise PreconditionError(f"value at {z} is not finite")
            clean[z] = v
        self.values = clean

    @classmethod
    def over_checked_points(cls, d: int, support_radius,
                            points: Sequence[IntVec],
                            values: Sequence[float]) -> "GridFunction":
        """values[i] at points[i], distinct d-tuples known to be in the ball
        (a compiled plan checked them once); the values are still made
        doubles and checked, as finite data can overflow (1e308 - -1e308)."""
        try:
            vals = list(map(float, values))
            finite = all(map(math.isfinite, vals))
        except OverflowError:
            finite = False
        if not finite:  # the checking constructor names the bad point
            cls(d, support_radius, dict(zip(points, values)))
        f = object.__new__(cls)
        f.d, f.support_radius = d, as_fraction(support_radius)
        f.values = dict(zip(points, vals))
        return f

    def get(self, z: IntVec) -> float:
        return self.values.get(tuple(z), 0.0)


def constant_weight(c: float) -> Weight:
    if c == 0:
        raise ZeroWeightError("constant weight must be nonzero")
    c = float(c)
    return lambda z, dirv: c


@dataclass(frozen=True)
class FamilyMeta:
    """A sinogram's ray set: kind "tstar" (per-point perpendicular family),
    "tstar_plane" (in the integer plane a, b) or "free"; alpha/beta bound
    the points' in-plane norms; support_radius is the data's, if known."""

    kind: str
    a: IntVec | None = None
    b: IntVec | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None
    support_radius: Fraction | None = None


@dataclass
class Sinogram:
    """Values per line key (entries), with the point-to-ray family the
    reconstructions rebuild their plans from."""

    d: int
    entries: dict[RayKey, float]
    meta: FamilyMeta = field(default_factory=lambda: FamilyMeta("free"))
    family: tuple[tuple[IntVec, Ray], ...] = ()


def _r2_terms(f: GridFunction) -> tuple[int, int]:
    r2 = f.support_radius * f.support_radius
    return r2.numerator, r2.denominator


def _check_dim(f: GridFunction, ray: Ray) -> None:
    if len(ray.base) != f.d:
        raise PreconditionError("ray and grid dimensions differ")


def _weighted_sum(f: GridFunction, ray: Ray, ks: range, weight: Weight) -> float:
    """Sum of W(z, dir) f(z) over base + k*dir, k in ks, in ray order."""
    total = 0.0
    for z in ray_points(ray, ks):
        w = weight(z, ray.dir)
        if w == 0:
            raise ZeroWeightError(f"weight vanishes at {z}")
        total += w * f.values.get(z, 0.0)
    return total


def forward(f: GridFunction, ray: Ray) -> float:
    """Sum of f over the lattice points of the ray inside the support ball."""
    _check_dim(f, ray)
    points = ray_points(ray, ray_span(ray, *_r2_terms(f)))
    return float(sum(map(f.values.get, points, repeat(0.0))))


def forward_weighted(f: GridFunction, ray: Ray, weight: Weight) -> float:
    """Weighted sum of f over the ray's lattice points in the support ball."""
    _check_dim(f, ray)
    return _weighted_sum(f, ray, ray_span(ray, *_r2_terms(f)), weight)


class ForwardTable(NamedTuple):
    """Rays compiled for the unweighted forward in the d-ball |z|^2 <= r2:
    ray i sums points[gather[j]], j in range(ends[i-1], ends[i])."""

    d: int
    r2: Fraction
    rays: tuple[Ray, ...]
    keys: tuple[RayKey, ...]
    points: list[IntVec]
    gather: array
    ends: array

    def sums(self, values: dict[IntVec, float]) -> Iterator[float]:
        """The column path's sums: in ray order from +0.0, as its int 0."""
        vals = list(map(values.get, self.points, repeat(0.0)))
        flat = list(map(vals.__getitem__, self.gather))
        return map(sum, map(flat.__getitem__, map(
            slice, chain((0,), self.ends), self.ends)), repeat(0.0))


def _plan_table(f: GridFunction, rays: tuple[Ray, ...]) -> ForwardTable | None:
    r2 = f.support_radius ** 2
    for plan in [ref() for ref in PLANS.valuerefs()]:  # a C copy: atomic
        if plan is not None and plan.d == f.d and len(plan.rays) == len(rays) and (
                "forward_table" in vars(plan) or tuple(plan.rays.values()) == rays):
            t = plan.forward_table
            if (t.d, t.r2, t.rays) == (f.d, r2, rays):
                return t
    return None


def forward_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None = None,
                   weight: Weight | None = None) -> Sinogram:
    """Project f along every ray of a family: by span columns or, unweighted,
    by the ``forward_table`` of a live plan compiled for these rays."""
    num, den = _r2_terms(f)
    if weight is not None:
        def values(rays: Sequence[Ray]) -> list[float]:
            ks, counts = ray_spans(rays, num, den)
            return [_weighted_sum(f, ray, range(k, k + n), weight)
                    for ray, k, n in zip(rays, ks, counts)]
    else:
        def values(rays: Sequence[Ray]) -> list[float]:
            place, offset, _ = box_index(f.d, num, den)
            index = dict(zip(box_ids(f.values, place, offset), f.values.values()))
            sums: list[float] = []
            for at in range(0, len(rays), COLUMN_BLOCK):
                firsts, steps, counts = ray_boxes(rays[at:at + COLUMN_BLOCK],
                                                  num, den, place, offset)
                # a lone point's value times 0 (no point) or 1, plus sum()'s
                # int start 0, which turns a -0.0 into 0.0
                block = list(map(add, repeat(0), map(mul, map(
                    index.get, firsts, repeat(0.0)), map(bool, counts))))
                for i, lo, step, n in compress(zip(count(), firsts, steps, counts),
                                               map(gt, counts, repeat(1))):
                    block[i] = float(sum(map(index.get, range(lo, lo + n * step, step),
                                             repeat(0.0))))
                sums += block
            return sums
    return project_family(f, family, meta, values, weight is None)


def project_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None,
                   values: Callable[[Sequence[Ray]], list[float]],
                   planned: bool = False) -> Sinogram:
    """A sinogram with one entry per line of the family, in order of first
    appearance; values maps the lines' first rays to their entries (if
    ``planned``, a live plan's table may serve)."""
    fam = tuple((tuple(z), ray) for z, ray in family)
    rays = tuple(map(itemgetter(1), fam))
    if not set(map(len, chain.from_iterable(rays))) <= {f.d}:
        raise PreconditionError("ray and grid dimensions differ")
    table = _plan_table(f, rays) if planned else None
    if table is not None:
        entries = dict(zip(table.keys, table.sums(f.values)))
    else:
        keys = ray_keys(rays)
        if len(set(keys)) < len(keys):  # repeated lines: keep each one's first ray
            firsts: dict[RayKey, Ray] = {}
            for key, ray in zip(keys, rays):
                firsts.setdefault(key, ray)
            keys, rays = list(firsts), list(firsts.values())
        entries = dict(zip(keys, values(rays)))
    if meta is None:
        meta = FamilyMeta("free", support_radius=f.support_radius)
    return Sinogram(d=f.d, entries=entries, meta=meta, family=fam)


def project_and_bin(f: GridFunction, theta: IntVec) -> dict[RayKey, float]:
    """Bin the supported points by their line in direction theta (points
    differing by a multiple of theta share one): RayKey -> sum of f, which
    is the discrete transform along that line, exactly for integer f."""
    if not is_canonical_direction(theta):
        raise PreconditionError("direction must be a canonical primitive vector")
    theta = tuple(theta)
    bins: dict[RayKey, float] = {}
    for z in sorted(f.values):
        key = ray_key(Ray(z, theta))
        bins[key] = bins.get(key, 0.0) + f.values[z]
    return bins
