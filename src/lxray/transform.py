"""Forward transforms on lattice functions.

The discrete transform of a function f on Z^d along a ray is the plain sum
of f over the ray's lattice points; the weighted variant multiplies each
term by W(y, direction). Values are doubles: sums are bit-exact whenever f
is integer-valued with |f| <= 2^40, which is what the exact round-trip
tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import PreconditionError, ZeroWeightError
from .lattice import IntVec, as_fraction, box_index, norm2
from .rays import (Ray, RayKey, is_canonical_direction, ray_key, ray_points,
                   ray_span)

# weight contract: W(point, direction) -> nonzero float
Weight = Callable[[IntVec, IntVec], float]


@dataclass
class GridFunction:
    """Sparse real-valued function on Z^d supported in a declared ball.

    Unstored points read as zero; every stored point must satisfy
    |z|^2 <= r^2 (checked exactly against the rational radius) and every
    value must be finite.
    """

    d: int
    support_radius: Fraction
    values: dict[IntVec, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.d < 2:
            raise PreconditionError("dimension must be >= 2")
        self.support_radius = as_fraction(self.support_radius)
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
        """values[i] at points[i], for distinct d-tuples known to be in the ball.

        Skips the per-point checks (a compiled plan made them once); the
        values are still made doubles and checked in one pass, since
        arithmetic on finite data can overflow (1e308 - -1e308).
        """
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

    def support(self) -> list[IntVec]:
        return sorted(self.values)

    def values_equal(self, other: "GridFunction") -> bool:
        """Pointwise float equality as functions (missing entries read 0)."""
        if self.d != other.d:
            return False
        keys = set(self.values) | set(other.values)
        return all(self.get(z) == other.get(z) for z in keys)


def constant_weight(c: float) -> Weight:
    if c == 0:
        raise ZeroWeightError("constant weight must be nonzero")
    c = float(c)
    return lambda z, dirv: c


def table_weight(table: Mapping[tuple[IntVec, IntVec], float]) -> Weight:
    def w(z, dirv):
        return table[(tuple(z), tuple(dirv))]
    return w


@dataclass(frozen=True)
class FamilyMeta:
    """Describes the ray set of a sinogram.

    kind is one of "tstar" (per-point perpendicular family), "tstar_plane"
    (ditto relative to an integer plane a, b) or "free"; alpha/beta, when
    set, restrict the family to points with in-plane norm in [alpha, beta].
    support_radius records the data-side ball radius when known.
    """

    kind: str
    a: IntVec | None = None
    b: IntVec | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None
    support_radius: Fraction | None = None


@dataclass
class Sinogram:
    """Transform values stored once per line.

    entries maps canonical ray keys to values; family keeps the point-to-ray
    association the reconstructions rebuild their plans from.
    """

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


def _indexed_sums(f: GridFunction, num: int, den: int
                  ) -> Callable[[Ray, range], float]:
    """Unweighted ray sums over ``box_index`` ranges, in ``forward``'s order."""
    place, offset, _ = box_index(f.d, num, den)
    index = {offset + sum(map(mul, z, place)): v for z, v in f.values.items()}

    def ray_sum(ray: Ray, ks: range) -> float:
        step = sum(map(mul, ray.dir, place))
        lo = offset + sum(map(mul, ray.base, place)) + ks.start * step
        # step is 0 only for a direction too long for two points of the
        # box; the span then holds at most one point
        span = (range(lo, lo + len(ks) * step, step) if step
                else range(lo, lo + len(ks)))
        return float(sum(map(index.get, span, repeat(0.0))))
    return ray_sum


def forward_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None = None,
                   weight: Weight | None = None) -> Sinogram:
    """Project f along every ray of a family; r^2 is formed once."""
    num, den = _r2_terms(f)
    ray_sum = (_indexed_sums(f, num, den) if weight is None
               else lambda ray, ks: _weighted_sum(f, ray, ks, weight))
    return project_family(f, family, meta, lambda rays: [
        ray_sum(ray, ray_span(ray, num, den)) for ray in rays])


def project_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None,
                   values: Callable[[list[Ray]], list[float]]) -> Sinogram:
    """A sinogram with one entry per line of the family, in order of first
    appearance; values maps the lines' first rays to their entries."""
    fam = tuple((tuple(z), ray) for z, ray in family)
    firsts: dict[RayKey, Ray] = {}
    for _, ray in fam:
        key = ray_key(ray)
        if key not in firsts:
            _check_dim(f, ray)
            firsts[key] = ray
    entries = dict(zip(firsts, values(list(firsts.values()))))
    if meta is None:
        meta = FamilyMeta("free", support_radius=f.support_radius)
    return Sinogram(d=f.d, entries=entries, meta=meta, family=fam)


def project_and_bin(f: GridFunction, theta: IntVec) -> dict[RayKey, float]:
    """Group the supported points by the line they share in direction theta.

    Two points fall in one bin iff their difference is an integer multiple
    of theta; each bin id is the line's RayKey and the bin value is the sum
    of f over the bin. Every bin value equals the discrete transform along
    the binned line, exactly for integer-valued f.
    """
    if not is_canonical_direction(theta):
        raise PreconditionError("direction must be a canonical primitive vector")
    theta = tuple(theta)
    bins: dict[RayKey, float] = {}
    for z in sorted(f.values):
        key = ray_key(Ray(z, theta))
        bins[key] = bins.get(key, 0.0) + f.values[z]
    return bins
