"""Rational rays on the integer lattice: line keys, ball spans, integer
planes and the perpendicular family (columns over many rays), and the
continuum bridge's ray-cell geometry in doubles (see README.md).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import (add, floordiv, ge, itemgetter, lt, mul, ne, neg, not_,
                      sub, truediv)
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import PreconditionError
from .lattice import (IntVec, as_fraction, box_ids, box_index, box_points,
                      dots, norm2, primitive, unit_vector)


class Ray(NamedTuple):
    base: IntVec   # lattice point on the line
    dir: IntVec    # canonical primitive direction

    @property
    def d(self) -> int:
        return len(self.base)


class RayKey(NamedTuple):
    """Line identity: the canonical direction and the base shifted along
    it into 0 <= base.dir < |dir|^2, the same for every point of the line."""

    dir: IntVec
    base: IntVec


def ray_key(ray: Ray) -> RayKey:
    """The line's key; a base already in [0, |dir|^2) keeps the Ray's tuples."""
    p, base = ray.dir, ray.base
    k = sum(map(mul, base, p)) // sum(map(mul, p, p))
    if k == 0:
        return RayKey(p, base)
    return RayKey(p, tuple(bi - k * pi for bi, pi in zip(base, p)))


def ray_keys(rays: Sequence[Ray]) -> list[RayKey]:
    """``ray_key`` of rays of one dimension; only those whose base.dir //
    |dir|^2 is not 0 (none of a perpendicular family) call it."""
    bases, dirs = list(map(itemgetter(0), rays)), list(map(itemgetter(1), rays))
    # tuple.__new__ skips the named tuple's Python-level constructor
    keys = list(map(tuple.__new__, repeat(RayKey), zip(dirs, bases)))
    shifts = map(floordiv, dots(bases, dirs), dots(dirs, dirs))
    for i in compress(range(len(keys)), shifts):
        keys[i] = ray_key(rays[i])
    return keys


@dataclass(frozen=True)
class Plane:
    """Integer plane span{a, b} of independent a, b, with Gram determinant
    det = (a.a)(b.b) - (a.b)^2 > 0: projections are rationals over det."""

    a: IntVec
    b: IntVec

    def __post_init__(self):
        a, b = tuple(self.a), tuple(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b):
            raise PreconditionError("plane vectors must share a dimension")
        aa, ab, bb = norm2(a), sum(map(mul, a, b)), norm2(b)
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
        """det * (z's component normal to the plane), an integer vector:
        points share it iff they share an affine slice parallel to the plane."""
        s, t = sum(map(mul, z, self.a)), sum(map(mul, z, self.b))
        un, vn = s * self.bb - t * self.ab, t * self.aa - s * self.ab
        # det * proj(z) is un * a + vn * b
        return tuple(self.det * c - un * ai - vn * bi
                     for c, ai, bi in zip(z, self.a, self.b))


def coordinate_plane(d: int) -> Plane:
    """The span of the first two coordinate axes in dimension d."""
    return Plane(unit_vector(d, 0), unit_vector(d, 1))


def perp_ray(z: Sequence[int]) -> Ray:
    """The ray through z normal to z's first two coordinates; where both
    are 0, the first axis (any fixed in-plane direction would serve).
    ``perp_family([z])[0][1]`` in O(d): the in-plane normal (-z2, z1, 0, ...)
    over gcd(z1, z2), negated where its first nonzero entry is negative."""
    z = tuple(z)
    if len(z) < 2:
        raise PreconditionError("dimension must be >= 2")
    x, y = z[0], z[1]
    g = math.gcd(x, y)
    if not g:
        return Ray(z, unit_vector(len(z), 0))
    if y > 0 or (y == 0 and x < 0):
        g = -g
    return Ray(z, (-y // g, x // g) + (0,) * (len(z) - 2))


def perp_family(points: Iterable[IntVec],
                plane: Plane | None = None) -> list[tuple[IntVec, Ray]]:
    """One ray per point, based at it and normal to it: ``perp_ray``, or in
    a plane (a, b) the primitive of (z.a)b - (z.b)a (of a where z.a = z.b =
    0). Taken as columns, one gcd per point of the plane's dimension. A line
    holds one lattice point z with z.dir = 0 at most, so distinct points
    never share a line: the inversion stays non-overdetermined."""
    zs = list(map(tuple, points))
    if not zs:
        return []
    d = plane.d if plane is not None else len(zs[0])
    if d < 2:
        raise PreconditionError("dimension must be >= 2")
    if set(map(len, zs)) != {d}:
        raise PreconditionError("point and plane dimensions differ")
    geom = plane if plane is not None else coordinate_plane(d)
    s, t = (dots(zs, [v] * len(zs)) for v in (geom.a, geom.b))
    # the in-plane normal (z.a) b - (z.b) a, divided by its gcd g, negated
    # where its first nonzero entry is negative; g is 0 only without one
    w = [list(map(sub, map(mul, s, repeat(bi)), map(mul, t, repeat(ai))))
         for ai, bi in zip(geom.a, geom.b)]
    g = list(map(math.gcd, *w))
    q = list(map(mul, map(max, g, repeat(1)), map(
        pow, repeat(-1), map(lt, zip(*w), repeat((0,) * d)))))
    dirs = list(zip(*[map(floordiv, col, q) for col in w]))
    dirs = map(dict(zip(dirs, dirs)).get, dirs)  # one tuple per direction
    family = list(zip(zs, map(tuple.__new__, repeat(Ray), zip(zs, dirs))))
    axis = primitive(geom.a)
    for i in compress(range(len(zs)), map(not_, g)):
        family[i] = zs[i], Ray(zs[i], axis)
    return family


def is_perp_ray(z: IntVec, ray: Ray, plane: Plane | None = None) -> bool:
    """``ray == perp_family([z], plane)[0][1]`` for a canonical ray.dir, in
    O(d): based at z, normal to z and in the plane, where the normals to a
    nonzero vector form one line; without an in-plane part, the fixed axis."""
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


def ray_spans(rays: Sequence[Ray], num: int, den: int
              ) -> tuple[list[int], list[int]]:
    """Each ray's first k and count of k with den |base + k dir|^2 <= num.

    With A = den|dir|^2, B = den base.dir, C = den|base|^2 - num that is
    (Ak + B)^2 <= D = B^2 - AC, for integer k iff |Ak + B| <= isqrt(D):
    exact. Columns over rays of one dimension; D < 0 counts 0.
    """
    bases, dirs = list(map(itemgetter(0), rays)), list(map(itemgetter(1), rays))
    a = list(map(mul, dots(dirs, dirs), repeat(den)))
    b = list(map(mul, dots(bases, dirs), repeat(den)))
    c = map(sub, map(mul, dots(bases, bases), repeat(den)), repeat(num))
    disc = list(map(sub, map(mul, b, b), map(mul, a, c)))
    s = list(map(math.isqrt, map(abs, disc)))  # counted only where disc >= 0
    below = list(map(floordiv, map(add, b, s), a))  # minus the first k
    counts = map(add, map(floordiv, map(sub, s, b), a), below)
    return (list(map(neg, below)),
            list(map(mul, map(add, counts, repeat(1)), map(ge, disc, repeat(0)))))


def ray_boxes(rays: Sequence[Ray], num: int, den: int, place: IntVec,
              offset: int) -> tuple[list[int], list[int], list[int]]:
    """``ray_spans`` in ``box_index(d, num, den)``'s numbers: ray i's ball
    points are firsts[i] + j*steps[i], j < counts[i]. A step is 0 only for a
    direction too long for two points of the box, so for at most one."""
    ks, counts = ray_spans(rays, num, den)
    steps = box_ids(list(map(itemgetter(1), rays)), place, 0)
    firsts = list(map(add, box_ids(list(map(itemgetter(0), rays)), place, offset),
                      map(mul, ks, steps)))
    return firsts, steps, counts


def ray_table(rays: Sequence[Ray], d: int, num: int, den: int
              ) -> tuple[list[IntVec], tuple[int, ...], list[int]]:
    """(points, gather, lens): ray i's lattice points with den |z|^2 <= num
    are points[gather[j]] for its next lens[i] slots j, in ray order; each
    distinct point is listed once, numbered by one int object. Rays of
    dimension d (``ray_boxes``)."""
    place, offset, _ = box_index(d, num, den)
    firsts, steps, counts = ray_boxes(rays, num, den, place, offset)
    steps = [s or 1 for s in steps]  # a 0 step has one point at most
    number = defaultdict(count().__next__)  # box id -> point number
    gather = tuple(map(number.__getitem__, chain.from_iterable(map(
        range, firsts, map(add, firsts, map(mul, counts, steps)), steps))))
    return list(box_points(list(number), place, offset)), gather, counts


def points_on_ray(ray: Ray, r) -> list[IntVec]:
    """Lattice points of the ray within |x| <= r, in order (``ray_table``)."""
    r2 = as_fraction(r) ** 2
    return ray_table([ray], ray.d, r2.numerator, r2.denominator)[0]


def effectively_irrational(theta: Sequence[int], r) -> bool:
    """True iff |theta|^2 > 4 r^2 for the canonical primitive theta: the
    lattice points of its lines are over 2r apart, so a line meets a
    radius-r ball in one at most (irrational at scale r). In integers:
    theta is canonical iff its gcd is 1 and its first nonzero entry is
    positive, and with r = num/den the test is den^2 |theta|^2 > 4 num^2."""
    if math.gcd(*theta) != 1 or next(filter(None, theta)) < 0:
        raise PreconditionError("direction must be a canonical primitive vector")
    rf = as_fraction(r)
    num, den = rf.numerator, rf.denominator
    return den * den * norm2(theta) > 4 * num * num


def cell_chord(ray: Ray, cell: IntVec) -> float:
    """Length of the ray in the closed unit cube at cell, by slab clipping;
    0.0 if it misses. Faces sit at half-integers, so no lattice-based ray
    lies in one."""
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
    """Direction p's cell cuts over sorted parameter spans, and segments.

    Any lattice-based ray crosses faces at t = (m + 1/2)/p_i, so the sorted
    cuts (a few past each span), each segment's chord (t_{j+1} - t_j)|p|
    and its cell's offset floor(t_mid p_i + 1/2) from the base (numbered by
    place) are the same doubles for every ray of direction p. The offset
    is on the line iff the segment holds an integer t; no cut is one.
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

    It takes axis i's cuts (k + 1/2 - b_i)/p_i from k = floor(lo + 1/2),
    lo = b_i + t p_i rounded at the window's low-coordinate end, so it can
    miss a cut within roundoff of the window; its top reaches past it.
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

    Yields (position in rays, ids, chords, on_line) per ray meeting the
    ball, by direction: cell numbers in ``walk_box(d, radius)``, chords and
    whether each cell is on the line. A direction's cut pattern is built
    once over its rays' ball windows; per ray the window is bisected and
    its end segments clipped, bit for bit as a lone walk would.
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


def walk_radius(d: int, r) -> float:
    """r + sqrt(d): a walk of this radius crosses every cell that meets
    the ball of radius r. A radius no double holds is refused."""
    try:
        return float(r) + math.sqrt(d)
    except OverflowError:
        raise PreconditionError("radius too large to walk") from None


def walk_box(d: int, radius: float) -> tuple[IntVec, int]:
    """(place, offset) numbering every cell a walk within radius can cross:
    such a cell holds a ball point, so |coordinate| <= floor(|radius|) + 1."""
    m = math.floor(abs(radius)) + 1
    return box_index(d, m * m, 1)[:2]
