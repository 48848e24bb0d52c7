"""Forward transforms on lattice functions.

The discrete transform of a function f on Z^d along a ray is the plain sum
of f over the ray's lattice points; the weighted variant multiplies each
term by W(y, direction). Values are doubles: sums are bit-exact whenever f
is integer-valued with |f| <= 2^40, which is what the exact round-trip
tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import PreconditionError, ZeroWeightError
from .lattice import IntVec, as_fraction, norm2
from .rays import Ray, RayKey, ray_key, points_on_ray, is_canonical_direction

# weight contract: W(point, direction) -> nonzero float
Weight = Callable[[IntVec, IntVec], float]


@dataclass
class GridFunction:
    """Sparse real-valued function on Z^d supported in a declared ball.

    Unstored points read as zero; every stored point must satisfy
    |z|^2 <= r^2 (checked exactly against the rational radius).
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
            z = tuple(int(c) for c in z)
            if len(z) != self.d:
                raise PreconditionError(f"point {z} has wrong dimension")
            if den * norm2(z) > num:
                raise PreconditionError(f"point {z} outside declared support ball")
            clean[z] = float(v)
        self.values = clean

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


def forward(f: GridFunction, ray: Ray) -> float:
    """Sum of f over the lattice points of the ray inside the support ball."""
    if ray.d != f.d:
        raise PreconditionError("ray and grid dimensions differ")
    r2 = f.support_radius * f.support_radius
    return float(sum(f.values.get(z, 0.0) for z in points_on_ray(ray, r2=r2)))


def forward_weighted(f: GridFunction, ray: Ray, weight: Weight) -> float:
    """Weighted sum of f over the ray's lattice points in the support ball."""
    if ray.d != f.d:
        raise PreconditionError("ray and grid dimensions differ")
    r2 = f.support_radius * f.support_radius
    total = 0.0
    for z in points_on_ray(ray, r2=r2):
        w = weight(z, ray.dir)
        if w == 0:
            raise ZeroWeightError(f"weight vanishes at {z}")
        total += w * f.values.get(z, 0.0)
    return total


def forward_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None = None,
                   weight: Weight | None = None) -> Sinogram:
    """Project f along every ray of a family, one stored value per line.

    When several family points share a line the single stored value serves
    all of them.
    """
    fam = tuple((tuple(z), ray) for z, ray in family)
    entries: dict[RayKey, float] = {}
    for _, ray in fam:
        key = ray_key(ray)
        if key not in entries:
            entries[key] = (forward(f, ray) if weight is None
                            else forward_weighted(f, ray, weight))
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
