"""Forward transforms on lattice functions: along a ray, the sum of f (of
W(y, dir) f(y) if weighted) over its lattice points, in doubles, exact for
integer f with |f| <= 2^40.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from operator import itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError, ZeroWeightError
from .lattice import (IntVec, as_fraction, ball_radius, dots,
                      is_canonical_direction, norm2)
from .rays import Ray, RayKey, ray_key, ray_keys, ray_table

# weight contract: W(point, direction) -> nonzero float
Weight = Callable[[IntVec, IntVec], float]

# live plans by id: forward_family reads their tables
PLANS = weakref.WeakValueDictionary()


def finite_doubles(values: Iterable) -> list[float] | None:
    """The values as doubles if each converts and is finite, else None."""
    try:
        vals = list(map(float, values))
    except OverflowError:
        return None
    return vals if all(map(math.isfinite, vals)) else None


@dataclass
class GridFunction:
    """Sparse real function on Z^d in a declared ball: unstored points read
    0; r >= 0, each stored |z|^2 <= r^2 exactly and each value finite.
    Checked as columns (tuples of ints kept as given); only a failing grid
    is walked point by point, to name its first bad point."""

    d: int
    support_radius: Fraction
    values: dict[IntVec, float] = field(default_factory=dict)

    def __post_init__(self):
        self.support_radius = ball_radius(self.d, self.support_radius)
        r2 = self.support_radius * self.support_radius
        num, den = r2.numerator, r2.denominator
        try:
            clean = self._columns(num, den)
        except Exception:  # junk for int() or float(): the walk raises it
            clean = None
        self.values = self._rows(num, den) if clean is None else clean

    def _columns(self, num: int, den: int) -> dict[IntVec, float] | None:
        """The checked values if every point passes, else None."""
        zs = list(self.values)
        if not (set(map(type, zs)) <= {tuple}
                and set(map(type, chain.from_iterable(zs))) <= {int}):
            zs = list(map(tuple, map(map, repeat(int), zs)))
        vals = finite_doubles(self.values.values())
        if (vals is None or not set(map(len, zs)) <= {self.d}
                or den * max(dots(zs, zs), default=0) > num):
            return None
        return dict(zip(zs, vals))

    def _rows(self, num: int, den: int) -> dict[IntVec, float]:
        """The checks point by point; the first bad point raises."""
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
        return clean

    @classmethod
    def over_checked_points(cls, d: int, support_radius,
                            points: Sequence[IntVec],
                            values: Sequence[float]) -> "GridFunction":
        """values[i] at points[i], distinct d-tuples known to be in the ball
        (a compiled plan checked them once); the values are still made
        doubles and checked, as finite data can overflow (1e308 - -1e308)."""
        vals = finite_doubles(values)
        if vals is None:  # the checking constructor names the bad point
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
    if not math.isfinite(c):
        raise PreconditionError(f"constant weight must be finite, not {c}")
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


def _check_dim(f: GridFunction, ray: Ray) -> None:
    if set(map(len, ray)) != {f.d}:
        raise PreconditionError("ray and grid dimensions differ")


def weight_column(weight: Weight, points: Sequence[IntVec],
                  dirs: Iterable[IntVec]) -> list[float]:
    """weight(points[i], dirs[i]) as doubles, refused at the first zero."""
    ws = list(map(float, map(weight, points, dirs)))
    if 0 in ws:
        raise ZeroWeightError(f"weight vanishes at {points[ws.index(0)]}")
    return ws


class ForwardTable(NamedTuple):
    """Rays compiled for the forward in the ball |z|^2 <= r2 (``ray_table``):
    ray i sums points[gather[j]] over its next lens[i] slots j. A plan's
    table keeps its rays' line keys; a fresh one leaves them to the caller."""

    r2: Fraction
    rays: tuple[Ray, ...]
    points: list[IntVec]
    gather: list[int]
    lens: list[int]
    keys: tuple[RayKey, ...] = ()

    def weights(self, weight: Weight) -> list[float]:
        """weight(point, ray.dir) per incidence, in gather order."""
        dirs = map(repeat, map(itemgetter(1), self.rays), self.lens)
        return weight_column(weight, list(map(self.points.__getitem__, self.gather)),
                             chain.from_iterable(dirs))

    def sums(self, values: dict[IntVec, float],
             weights: list[float] | None = None) -> Iterator[float]:
        """The per-call sums: in ray order from +0.0, of weights[j] * value
        if weighted, from one stream."""
        vals = list(map(values.get, self.points, repeat(0.0)))
        stream = map(vals.__getitem__, self.gather)
        if weights is not None:
            stream = map(mul, weights, stream)
        return map(sum, map(islice, repeat(stream), self.lens), repeat(0.0))


def _fresh_sums(f: GridFunction, rays: Sequence[Ray],
                weight: Weight | None = None) -> list[float]:
    """The rays' sums by a fresh ``ForwardTable`` of them, as on the plan
    path: the same terms, in the same order, summed alike."""
    r2 = f.support_radius ** 2
    t = ForwardTable(r2, tuple(rays),
                     *ray_table(rays, f.d, r2.numerator, r2.denominator))
    return list(t.sums(f.values, None if weight is None else t.weights(weight)))


def forward(f: GridFunction, ray: Ray) -> float:
    """Sum of f over the lattice points of the ray inside the support ball."""
    _check_dim(f, ray)
    return _fresh_sums(f, [ray])[0]


def forward_weighted(f: GridFunction, ray: Ray, weight: Weight) -> float:
    """Weighted sum of f over the ray's lattice points in the support ball."""
    _check_dim(f, ray)
    return _fresh_sums(f, [ray], weight)[0]


def _plan_table(f: GridFunction, rays: tuple[Ray, ...],
                weight: Weight | None = None, name: str = "forward_table"):
    """A live plan whose table ``name`` (``forward_table`` or
    ``chord_table``) serves f on these rays (and weight)."""
    r2 = f.support_radius ** 2
    for plan in [ref() for ref in PLANS.valuerefs()]:  # a C copy: atomic
        if plan is not None and plan.d == f.d and len(plan.rays) == len(rays) and (
                weight is None or weight is plan.weight) and (
                name in vars(plan) or tuple(plan.rays.values()) == rays):
            t = getattr(plan, name)
            if (t.r2, t.rays) == (r2, rays):
                return plan
    return None


def forward_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None = None,
                   weight: Weight | None = None) -> Sinogram:
    """Project f along every ray of a family: by the ``forward_table`` of a
    live plan compiled for these rays (weighted: for this very weight), else
    by a fresh table of the lines' first rays."""
    return project_family(f, family, meta, partial(_fresh_sums, f, weight=weight),
                          "forward_table", weight)


def project_family(f: GridFunction, family: Iterable[tuple[IntVec, Ray]],
                   meta: FamilyMeta | None,
                   values: Callable[[Sequence[Ray]], list[float]],
                   table: str | None = None,
                   weight: Weight | None = None) -> Sinogram:
    """A sinogram with one entry per line of the family, in order of first
    appearance; values maps the lines' first rays to their entries (a live
    plan's compiled ``table``, if named, may serve instead)."""
    family = tuple(family)
    rays = tuple(map(itemgetter(1), family))
    zs = list(map(itemgetter(0), family))
    if not (set(map(type, chain(family, zs))) <= {tuple}
            and set(map(len, family)) <= {2}):  # else new (z, ray) pairs
        family = tuple(zip(map(tuple, zs), rays))
    plan = _plan_table(f, rays, weight, table) if table else None
    if plan is not None:  # its table checked its rays' dimensions
        t = getattr(plan, table)
        entries = dict(zip(t.keys, t.sums(f.values) if weight is None else
                           t.sums(f.values, plan.forward_weights(weight))))
    else:
        if not set(map(len, chain.from_iterable(rays))) <= {f.d}:
            raise PreconditionError("ray and grid dimensions differ")
        keys = ray_keys(rays)
        if len(set(keys)) < len(keys):  # repeated lines: keep each one's first ray
            firsts: dict[RayKey, Ray] = {}
            for key, ray in zip(keys, rays):
                firsts.setdefault(key, ray)
            keys, rays = list(firsts), list(firsts.values())
        entries = dict(zip(keys, values(rays)))
    if meta is None:
        meta = FamilyMeta("free", support_radius=f.support_radius)
    return Sinogram(d=f.d, entries=entries, meta=meta, family=family)


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
