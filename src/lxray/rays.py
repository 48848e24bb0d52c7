"""Rational rays on the integer lattice.

A ray is an (unoriented) straight line carrying lattice points: a lattice
base point plus a canonical primitive integer direction. Lines are
identified by a reduced key so that any two rays describing the same line
hash and compare equal; sinograms are stored per key.

The module also builds the per-point ray family used by the exact
inversions: each lattice point z is assigned the line through z that is
perpendicular, within a chosen coordinate or general integer plane, to z's
in-plane component. That makes z the unique in-plane-norm minimizer among
the lattice points of its ray, which is what drives the shell recursion.

Last comes the ray-cell geometry of the continuum bridge, in doubles: the
chord of a ray through a unit cell (slab clipping against the closed cube),
the walk over the cells rays cross inside a ball, in parameter order and
by shared per-direction cut patterns, and the exact test for a lattice
point on a ray's line.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, ne, sub, truediv
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError
from .lattice import (IntVec, as_fraction, box_index, dot,
                      is_canonical_direction, norm2, primitive, scale,
                      unit_vector, vsub)


class Ray(NamedTuple):
    base: IntVec   # lattice point on the line
    dir: IntVec    # canonical primitive direction

    @property
    def d(self) -> int:
        return len(self.base)


class RayKey(NamedTuple):
    """Line identity: canonical direction plus the reduced base point.

    The base is shifted along the direction so that 0 <= base.dir < |dir|^2;
    every lattice point of the line reduces to the same representative.
    """

    dir: IntVec
    base: IntVec


def ray_key(ray: Ray) -> RayKey:
    """The line's key; a base already in [0, |dir|^2) keeps the Ray's tuples.

    That holds for every perpendicular-family ray (base.dir = 0).
    """
    p, base = ray.dir, ray.base
    k = sum(map(mul, base, p)) // sum(map(mul, p, p))
    if k == 0:
        return RayKey(p, base)
    return RayKey(p, tuple(bi - k * pi for bi, pi in zip(base, p)))


@dataclass(frozen=True)
class Plane:
    """Integer plane span{a, b} with its Gram data.

    a and b must be linearly independent integer vectors; det is the Gram
    determinant (a.a)(b.b) - (a.b)^2 > 0. Projections onto the plane are
    exact rationals with denominator det.
    """

    a: IntVec
    b: IntVec

    def __post_init__(self):
        a, b = tuple(self.a), tuple(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise PreconditionError("plane vectors must share a dimension")
        aa, ab, bb = norm2(a), dot(a, b), norm2(b)
        det = aa * bb - ab * ab
        if det <= 0:
            raise PreconditionError("plane vectors must be linearly independent")
        object.__setattr__(self, "aa", aa)
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "bb", bb)
        object.__setattr__(self, "det", det)

    @property
    def d(self) -> int:
        return len(self.a)

    def scaled_inplane_norm2(self, v: Sequence) -> int:
        """det * |proj_plane(v)|^2, an integer; v must have d entries."""
        s, t = sum(map(mul, v, self.a)), sum(map(mul, v, self.b))
        return s * s * self.bb - 2 * s * t * self.ab + t * t * self.aa

    def slice_key(self, z: Sequence[int]) -> IntVec:
        """det * (component of z orthogonal to the plane), an integer vector.

        Two lattice points share a key iff they lie in the same affine
        slice parallel to the plane. z must have d entries.
        """
        s, t = sum(map(mul, z, self.a)), sum(map(mul, z, self.b))
        un, vn = s * self.bb - t * self.ab, t * self.aa - s * self.ab
        # det * proj(z) is un * a + vn * b
        return tuple(self.det * c - un * ai - vn * bi
                     for c, ai, bi in zip(z, self.a, self.b))


def coordinate_plane(d: int) -> Plane:
    """The span of the first two coordinate axes in dimension d."""
    return Plane(unit_vector(d, 0), unit_vector(d, 1))


def perp_ray(z: Sequence[int]) -> Ray:
    """The ray through z perpendicular to z's first-two-coordinates part.

    For z with z1 = z2 = 0 the perpendicularity constraint is vacuous and
    the direction is fixed to the first axis (any fixed rational in-plane
    direction serves the shell inversion equally well).
    """
    z = tuple(z)
    d = len(z)
    if d < 2:
        raise PreconditionError("dimension must be >= 2")
    if z[0] == 0 and z[1] == 0:
        return Ray(z, unit_vector(d, 0))
    dirv = primitive((-z[1], z[0]) + (0,) * (d - 2))
    return Ray(z, dirv)


def perp_ray_in_plane(z: Sequence[int], plane: Plane) -> Ray:
    """The ray through z, parallel to the plane, perpendicular to z in it.

    The direction is the canonical primitive of -(z.b)a + (z.a)b, which is
    orthogonal to z by construction (asserted exactly); in the degenerate
    case z.a = z.b = 0 the direction is fixed to primitive(a).
    """
    z = tuple(z)
    if len(z) != plane.d:
        raise PreconditionError("point and plane dimensions differ")
    s, t = dot(z, plane.a), dot(z, plane.b)
    if s == 0 and t == 0:
        return Ray(z, primitive(plane.a))
    w = vsub(scale(s, plane.b), scale(t, plane.a))
    assert dot(w, z) == 0
    return Ray(z, primitive(w))


def perp_family(points: Iterable[IntVec],
                plane: Plane | None = None) -> list[tuple[IntVec, Ray]]:
    """One ray per point: the per-point perpendicular family.

    Each ray is based at its point and normal to it, and a line holds at
    most one lattice point z with z.dir = 0, so distinct points never share
    a line and the inversion stays non-overdetermined; nothing is checked.
    """
    if plane is None:
        return [(tuple(z), perp_ray(z)) for z in points]
    return [(tuple(z), perp_ray_in_plane(z, plane)) for z in points]


def is_perp_ray(z: IntVec, ray: Ray, plane: Plane | None = None) -> bool:
    """True iff ray is z's perpendicular-family ray, for a canonical ray.dir.

    Equal to ``ray == perp_ray(z)`` (``perp_ray_in_plane(z, plane)`` with a
    plane) whenever ray.dir is a canonical primitive vector, in O(d) and
    without ``primitive``: the ray must be based at z, normal to z and lie
    in the plane. Inside the plane the directions normal to a nonzero
    vector form one line, which has one canonical primitive vector; where
    z has no in-plane part, the direction must be the fixed axis.
    """
    p = ray.dir
    if ray.base != z or sum(map(mul, z, p)):
        return False
    if plane is None:
        return not any(p[2:]) and (any(z[:2]) or p == unit_vector(len(p), 0))
    if plane.scaled_inplane_norm2(p) != plane.det * sum(map(mul, p, p)):
        return False  # p leaves the plane
    if sum(map(mul, z, plane.a)) or sum(map(mul, z, plane.b)):
        return True
    pa = sum(map(mul, p, plane.a))  # the axis primitive(a): p parallel to a
    return pa * pa == sum(map(mul, p, p)) * plane.aa


def ray_span(ray: Ray, num: int, den: int) -> range:
    """The integer k with den * |base + k*dir|^2 <= num, as a range.

    num/den is the squared radius. With a = den|dir|^2, b = 2 den (base.dir),
    c = den|base|^2 - num the condition is a k^2 + b k + c <= 0, i.e.
    (2ak + b)^2 <= disc = b^2 - 4ac; for integer k that holds iff
    |2ak + b| <= isqrt(disc), so the range is exact and no k in it needs
    re-checking.
    """
    pp = up = uu = 0
    for ui, pi in zip(ray.base, ray.dir):
        pp += pi * pi
        up += ui * pi
        uu += ui * ui
    a2 = 2 * den * pp
    b = 2 * den * up
    disc = b * b - 2 * a2 * (den * uu - num)
    if disc < 0:
        return range(0)
    s = math.isqrt(disc)
    return range(-((b + s) // a2), (s - b) // a2 + 1)


def points_on_ray(ray: Ray, r) -> list[IntVec]:
    """Lattice points of the ray within |x| <= r, ordered along it.

    The k-range comes from ``ray_span`` (exact integer arithmetic, no
    floating ray marching).
    """
    r2 = as_fraction(r) ** 2
    return list(ray_points(ray, ray_span(ray, r2.numerator, r2.denominator)))


def ray_points(ray: Ray, ks: range) -> Iterator[IntVec]:
    """The points base + k*dir for k in ks (a step-1 range), in order."""
    p = ray.dir
    z = tuple(bi + ks.start * pi for bi, pi in zip(ray.base, p))
    for _ in ks:
        yield z
        z = tuple(map(add, z, p))


def effectively_irrational(theta: Sequence[int], r) -> bool:
    """True iff |theta|^2 > 4 r^2 for the canonical primitive theta.

    Consecutive lattice points of any line with this direction are more
    than 2r apart, so the line meets a radius-r ball in at most one
    lattice point: the direction acts irrationally at scale r.
    """
    if not is_canonical_direction(theta):
        raise PreconditionError("direction must be a canonical primitive vector")
    rf = as_fraction(r)
    return norm2(theta) > 4 * rf * rf


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


def _ball_window(ray: Ray, radius: float) -> tuple[float, float] | None:
    """Parameter interval where |base + t*dir| <= radius, or None."""
    a = float(sum(map(mul, ray.dir, ray.dir)))
    b = 2.0 * float(sum(map(mul, ray.base, ray.dir)))
    c = float(sum(map(mul, ray.base, ray.base))) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    s = math.sqrt(disc)
    return (-b - s) / (2.0 * a), (-b + s) / (2.0 * a)


def _cut_pattern(p: IntVec, spans: list[list[float]], place: IntVec
                 ) -> tuple[list[float], list[float], list[int], list[bool]]:
    """Direction p's cell cuts over sorted parameter spans, and its segments.

    A lattice-based ray crosses the cell faces at t = (m + 1/2)/p_i whatever
    its base, so the sorted cuts (a few beyond each span), each segment's
    chord (t_{j+1} - t_j)|p| and its cell's offset floor(t_mid p_i + 1/2)
    from the base (numbered by place) are the same doubles for every ray of
    direction p. The offset is a multiple of p, the cell on the line, iff
    the segment holds an integer t; no cut is an integer.
    """
    cuts: set[float] = set()
    for lo, hi in spans:
        for pi in p:
            if pi:
                a, b = sorted((lo * pi, hi * pi))
                ms = range(math.floor(a) - 1, math.ceil(b) + 1)
                cuts.update(map(truediv, map(add, ms, repeat(0.5)), repeat(pi)))
    cuts = sorted(cuts)
    nxt = cuts[1:]
    mids = list(map(mul, map(add, cuts, nxt), repeat(0.5)))
    offsets = repeat(0)
    for pi, step in zip(p, place):
        if pi:
            off = map(math.floor, map(add, map(mul, mids, repeat(pi)), repeat(0.5)))
            offsets = map(add, offsets, map(mul, off, repeat(step)))
    speed = math.sqrt(norm2(p))
    return (cuts, list(map(mul, map(sub, nxt, cuts), repeat(speed))),
            list(offsets),
            list(map(ne, map(math.floor, cuts), map(math.floor, nxt))))


def _lone_walk_cut(ray: Ray, t0: float, t1: float, t: float) -> bool:
    """Does a walk of this ray alone over the window (t0, t1) cut at t?

    It takes axis i's cuts (k + 1/2 - b_i)/p_i for k from floor(lo + 1/2),
    lo = b_i + t p_i rounded at the window's low-coordinate end, which can
    leave out a cut within roundoff of the window; the range's top reaches
    past the window's other end.
    """
    for bi, pi in zip(ray.base, ray.dir):
        if pi:
            m = math.floor(t * pi)  # t = (m + 1/2)/p_i if axis i cuts at t
            lo = bi + (t0 if pi > 0 else t1) * pi
            if (m + 0.5) / pi == t and math.floor(lo + 0.5) <= m + bi:
                return True
    return False


def walk_cells(rays: Sequence[Ray], radius: float
               ) -> Iterator[tuple[int, list[int], list[float], list[bool]]]:
    """Each ray's cells inside the ball of the given radius, in walk order.

    Yields (position in rays, ids, chords, on_line) for each ray meeting
    the ball, grouped by direction: the crossed cells' numbers in
    ``walk_box(d, radius)``, their chords and whether each lies on the
    ray's line. A direction's cut pattern is built once over the union of
    its rays' ball windows; per ray the window is bisected and the two end
    segments are clipped by the ball, bit for bit as a walk of the ray
    alone would. Nothing is kept between calls.
    """
    windows = [_ball_window(ray, radius) for ray in rays]
    by_dir: dict[IntVec, list[int]] = {}
    for i, w in enumerate(windows):
        if w is not None:
            by_dir.setdefault(rays[i].dir, []).append(i)
    if not by_dir:
        return
    place, offset = walk_box(rays[0].d, radius)
    for p, members in by_dir.items():
        spans: list[list[float]] = []
        for t0, t1 in sorted(windows[i] for i in members):
            if spans and t0 <= spans[-1][1]:
                spans[-1][1] = max(spans[-1][1], t1)
            else:
                spans.append([t0, t1])
        cuts, chords, offsets, on_line = _cut_pattern(p, spans, place)
        pp = norm2(p)
        speed = math.sqrt(pp)
        # Only a cut within this of a window end can be one a lone walk's
        # k-ranges leave out, or put an end segment's midpoint so near a face
        # that the rounded floor(b_i + t p_i + 1/2) leaves its pattern cell:
        # with no cut that near, end() would return the pattern's cells.
        slack = 2.0 ** -40 * (radius + 2.0 * max(-spans[0][0], spans[-1][1])
                              + 1.0)

        def end(base: IntVec, home: int, ta: float, tb: float
                ) -> tuple[int, float, bool]:
            tm = 0.5 * (ta + tb)
            u = [math.floor(bi + tm * pi + 0.5) - bi for bi, pi in zip(base, p)]
            up = sum(map(mul, u, p))  # u is a multiple of p iff parallel to it
            return (home + sum(map(mul, u, place)), (tb - ta) * speed,
                    sum(map(mul, u, u)) * pp == up * up)

        for i in members:
            ray = rays[i]
            t0, t1 = windows[i]
            j0, j1 = bisect_right(cuts, t0), bisect_left(cuts, t1)
            home = offset + sum(map(mul, ray.base, place))
            if j0 < j1 and cuts[j0] - t0 > slack and t1 - cuts[j1 - 1] > slack:
                # no cut near an end: the ends lie in segments j0 - 1 and j1 - 1
                yield (i, list(map(add, offsets[j0 - 1:j1], repeat(home))),
                       [(cuts[j0] - t0) * speed, *chords[j0:j1 - 1],
                        (t1 - cuts[j1 - 1]) * speed], on_line[j0 - 1:j1])
                continue
            # a cut near a window end is kept only if a lone walk makes it
            while (j0 < j1 and cuts[j0] - t0 <= slack
                   and not _lone_walk_cut(ray, t0, t1, cuts[j0])):
                j0 += 1
            while (j0 < j1 and t1 - cuts[j1 - 1] <= slack
                   and not _lone_walk_cut(ray, t0, t1, cuts[j1 - 1])):
                j1 -= 1
            if j0 >= j1:  # no face crossed inside the ball
                if t0 < t1:
                    c, w, on = end(ray.base, home, t0, t1)
                    yield i, [c], [w], [on]
                continue
            ca, wa, oa = end(ray.base, home, t0, cuts[j0])
            cb, wb, ob = end(ray.base, home, cuts[j1 - 1], t1)
            yield (i, [ca, *map(add, offsets[j0:j1 - 1], repeat(home)), cb],
                   [wa, *chords[j0:j1 - 1], wb], [oa, *on_line[j0:j1 - 1], ob])


def walk_box(d: int, radius: float) -> tuple[IntVec, int]:
    """(place, offset) numbering every cell a walk within radius can cross.

    A crossed cell holds a point of the ball, so each of its coordinates is
    at most floor(|radius|) + 1 in absolute value.
    """
    m = math.floor(abs(radius)) + 1
    return box_index(d, m * m, 1)[:2]


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
