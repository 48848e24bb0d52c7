"""Shared helpers: seeded grids and independent brute-force oracles.

The oracles deliberately avoid the library's ray enumeration and key
machinery so that round-trip tests check two genuinely different routes.
The continuum references keep the one-ray cell walk that the shared cut
patterns replaced, the per-round walks that the plan's chord table
replaced, and the identity check's support scan and one-ray forward that
its single walk replaced, so the walker and the table's consumers are
checked bit for bit.
The separation reference keeps the per-pair scan that the orbit scan
replaced, and the family reference the one ``primitive()`` per point that
the gcd column of ``perp_family`` replaced. The counting references keep the gcd-per-tuple Farey count, the
``primitive()`` filter for canonical primitives and the row-by-row lens
size that the prime sieve, the gcd column and the lens columns replaced;
the line-count reference counts pairs by congruence classes, a route apart
from both the pair scan and the lens sums.
The file-reader references keep the row-by-row checks that the column
checks replaced, and the grid reference the point-by-point walk that
``GridFunction``'s column checks replaced. The last group holds helpers
that only the tests call: the through-origin line recount, the Farey
point sets, witnesses of the unbounded ray family, short-direction and
table-weight models, the one-ray cell walk and function equality.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache

from lxray import (FileFormatError, GridFunction, MissingDataError,
                   PreconditionError, Ray, RayKey, Sinogram, ZeroWeightError,
                   chord_weight, enumerate_ball, forward_weighted, perp_ray, primitive)
from lxray import io as lio
from lxray.lattice import ball_radius, box_points, norm2
from lxray.rays import cell_chord, walk_box, walk_cells


def datum(g, key, z):
    """The entry of line key, needed to recover z (oracle's own lookup)."""
    if key not in g.entries:
        raise MissingDataError(f"no sinogram entry for ray of {z}")
    return g.entries[key]


def random_int_grid(d, r, seed, lo=-9, hi=9):
    """Integer-valued grid on the full ball; exact in double arithmetic."""
    rng = random.Random(seed)
    values = {z: float(rng.randint(lo, hi)) for z in enumerate_ball(d, r)}
    return GridFunction(d, r, values)


def on_line(z, ray):
    """Independent membership test: z - base parallel to the direction.

    All 2x2 minors of (z - base, dir) must vanish; with a primitive
    direction, parallel integer vectors are automatically integer multiples.
    """
    u = [a - b for a, b in zip(z, ray.base)]
    p = ray.dir
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            if u[i] * p[j] != u[j] * p[i]:
                return False
    return True


def brute_forward(f, ray):
    """Discrete transform: f summed over the ray's support-ball points (oracle)."""
    return float(sum(f.get(z) for z in brute_ray_points(ray, f.support_radius)))


def brute_ray_points(ray, r, center=None, candidates=None):
    """Lattice points of the ray in the closed ball, in ray order (oracle).

    With u = base - center, |u + k dir|^2 = |u|^2 - (u.dir)^2/|dir|^2 +
    (k - k*)^2 |dir|^2 for k* = -u.dir/|dir|^2, so only the k within
    r/|dir| of k* can reach the ball. Steps base + k*dir over an integer
    range holding them and keeps the points passing the exact ball test
    (and lying among the candidates, if given): the work follows the
    points on the ray, not the ball's volume.
    """
    d = len(ray.base)
    center = center or (0,) * d
    r2 = Fraction(r) ** 2
    num, den = r2.numerator, r2.denominator
    pp = sum(c * c for c in ray.dir)
    mid = -sum((b - c) * q for b, c, q in zip(ray.base, center, ray.dir)) // pp
    reach = math.ceil(Fraction(r)) // math.isqrt(pp) + 1  # >= r/|dir|
    keep = None if candidates is None else set(candidates)
    hits = []
    for k in range(mid - reach, mid + reach + 1):
        z = tuple(b + k * q for b, q in zip(ray.base, ray.dir))
        if (den * sum((a - c) ** 2 for a, c in zip(z, center)) <= num
                and (keep is None or z in keep)):
            hits.append(z)
    return hits


def box_scan_ray_points(ray, r, center=None):
    """The ray's points in the closed ball by scanning the whole box about
    the center with the minor test of ``on_line`` (a check on the stepping
    oracle ``brute_ray_points``)."""
    d = len(ray.base)
    center = center or (0,) * d
    r2 = Fraction(r) ** 2
    m = 0
    while m * m <= r2:
        m += 1
    box = (tuple(c + o for c, o in zip(center, off))
           for off in itertools.product(range(-m, m + 1), repeat=d))
    hits = [z for z in box if on_line(z, ray)
            and sum((a - c) ** 2 for a, c in zip(z, center)) <= r2]
    return sorted(hits, key=lambda z: sum(
        (a - b) * p for a, b, p in zip(z, ray.base, ray.dir)))


def reduced_key(ray):
    """The line's key by the general reduction, as a plain tuple (oracle).

    The base is shifted by k*dir, k = floor(base.dir / |dir|^2), into
    0 <= base.dir < |dir|^2; a tuple compares and hashes like a RayKey.
    """
    p = ray.dir
    k = sum(a * b for a, b in zip(ray.base, p)) // sum(c * c for c in p)
    return p, tuple(a - k * b for a, b in zip(ray.base, p))


def reference_perp_family(points, plane=None):
    """The perpendicular family point by point, one ``primitive`` each
    (oracle for the column ``perp_family``).

    Without a plane: the canonical primitive of (-z2, z1, 0, ...), or the
    first axis where z1 = z2 = 0. With one: that of (z.a)b - (z.b)a, or
    primitive(a) where z.a = z.b = 0.
    """
    family = []
    for z in map(tuple, points):
        if plane is None:
            d = len(z)
            if z[0] == 0 and z[1] == 0:
                dirv = (1,) + (0,) * (d - 1)
            else:
                dirv = primitive((-z[1], z[0]) + (0,) * (d - 2))
        else:
            s = sum(c * a for c, a in zip(z, plane.a))
            t = sum(c * b for c, b in zip(z, plane.b))
            w = tuple(s * b - t * a for a, b in zip(plane.a, plane.b))
            dirv = primitive(w if any(w) else plane.a)
        family.append((z, Ray(z, dirv)))
    return family


def reference_sweep(g, plan):
    """The shell sweep as a walk over dicts (oracle for the compiled sweep).

    Slices by sorted key, shells outermost first: each target's value is
    its datum minus the nonzero already-recovered values at the other plan
    points of its ray, in ray order (found by the stepping oracle), each
    weighted, then the total divided by the target's weight. Returns the
    values in sweep order.
    """
    w = plan.weight
    out = {}
    for skey in sorted(plan.slices):
        for shell in plan.slices[skey].shells:
            for z in shell:
                ray = plan.rays[z]
                key = reduced_key(ray)
                if key not in g.entries:
                    raise MissingDataError(f"no sinogram entry for ray of {z}")
                total = g.entries[key]
                incidence = [y for y in brute_ray_points(
                    ray, plan.support_radius, candidates=plan.points) if y != z]
                for zeta in incidence:
                    fz = out[zeta]
                    if fz != 0.0:
                        total -= (w(zeta, ray.dir) * fz) if w else fz
                if w is not None:
                    wz = w(z, ray.dir)
                    if wz == 0:
                        raise ZeroWeightError(f"weight vanishes at {z}")
                    total /= wz
                out[z] = total
    return out


def reference_traverse_cells(ray, radius):
    """(cell, chord) for the cells one ray crosses inside the ball (oracle).

    The walk of a single ray: the window where |base + t dir| <= radius,
    each axis's face crossings (k + 1/2 - base_i)/dir_i over the k-range
    the window spans, sorted, and each sub-segment given to the cell that
    holds its midpoint.
    """
    a = float(sum(c * c for c in ray.dir))
    b = 2.0 * float(sum(x * c for x, c in zip(ray.base, ray.dir)))
    c = float(sum(x * x for x in ray.base)) - radius * radius
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return
    s = math.sqrt(disc)
    t0, t1 = (-b - s) / (2.0 * a), (-b + s) / (2.0 * a)
    cuts = [t0, t1]
    for bi, pi in zip(ray.base, ray.dir):
        if pi == 0:
            continue
        lo = bi + t0 * pi if pi > 0 else bi + t1 * pi
        hi = bi + t1 * pi if pi > 0 else bi + t0 * pi
        for k in range(math.floor(lo + 0.5), math.floor(hi + 0.5) + 1):
            t = (k + 0.5 - bi) / pi
            if t0 < t < t1:
                cuts.append(t)
    cuts.sort()
    speed = math.sqrt(a)
    for ta, tb in zip(cuts, cuts[1:]):
        if tb <= ta:
            continue
        tm = 0.5 * (ta + tb)
        cell = tuple(math.floor(bi + tm * pi + 0.5)
                     for bi, pi in zip(ray.base, ray.dir))
        yield cell, (tb - ta) * speed


def reference_forward_continuous(f, ray):
    """Sum of v * chord over one ray's reference walk, clipped to the ball
    of radius r + sqrt(d), nonzero values only, in walk order (oracle)."""
    total = 0.0
    radius = float(f.support_radius) + math.sqrt(f.d)
    for cell, chord in reference_traverse_cells(ray, radius):
        v = f.values.get(cell)
        if v:
            total += v * chord
    return total


def reference_correction_identity(f, z, ray=None):
    """Both sides of the correction identity by three passes (oracle):
    lhs by ``forward_weighted`` with the chord weight; the off-line cells
    by a scan of f's whole support for 0 < 4q <= d|p|^2, q = |p|^2|u|^2 -
    (u.p)^2, u = cell - base (a cell farther from the line has chord 0.0),
    their terms summed in sorted order; rhs by
    ``reference_forward_continuous``."""
    if ray is None:
        ray = perp_ray(z)
    lhs = forward_weighted(f, ray, chord_weight())
    pp = norm2(ray.dir)
    correction = 0.0
    for zeta in sorted(f.values):
        u = [a - b for a, b in zip(zeta, ray.base)]
        up = sum(a * b for a, b in zip(u, ray.dir))
        v = f.values[zeta]
        if 0 < 4 * (norm2(u) * pp - up * up) <= f.d * pp and v:
            correction += v * cell_chord(ray, zeta)
    return lhs, reference_forward_continuous(f, ray) - correction


def reference_layer_recon(g, plan):
    """The layer sweep walking each ray's cells (oracle for the chord table).

    Fraction in-plane norms from the plan's shells; per ray, the nonzero
    values already recovered at strictly outer cells, each times its chord,
    are subtracted in walk order, then the total is divided by the chord
    through the target's own cell.
    """
    radius = float(plan.support_radius) + math.sqrt(plan.d)
    norms2 = {z: nu for dec in plan.slices.values()
              for shell, nu in zip(dec.shells, dec.norms2) for z in shell}
    out = {}
    for z, key in zip(plan.order, plan.keys):
        ray = plan.rays[z]
        total = datum(g, key, z)
        nu = norms2[z]
        for cell, chord in reference_traverse_cells(ray, radius):
            if cell == z:
                continue
            v = out.get(cell, 0.0)
            if v != 0.0 and norms2[cell] > nu:
                total -= chord * v
        out[z] = total / cell_chord(ray, z)
    return GridFunction(d=plan.d, support_radius=plan.support_radius, values=out)


def reference_corrected_sinogram(g, plan, f):
    """Data minus f's off-line chord terms over the central chord, by walking."""
    radius = float(plan.support_radius) + math.sqrt(plan.d)
    entries = {}
    for z, key in zip(plan.order, plan.keys):
        ray = plan.rays[z]
        if key in entries:
            continue
        total = datum(g, key, z)
        corr = 0.0
        for cell, chord in reference_traverse_cells(ray, radius):
            if on_line(cell, ray):
                continue
            v = f.values.get(cell)
            if v:
                corr += v * chord
        entries[key] = (total - corr) / cell_chord(ray, z)
    return Sinogram(d=g.d, entries=entries, meta=g.meta, family=g.family)


def reference_data_residual(g, plan, f):
    """Max |datum - reference_forward_continuous(f, ray)| over the plan's rays."""
    res = 0.0
    for z, key in zip(plan.order, plan.keys):
        res = max(res, abs(datum(g, key, z)
                           - reference_forward_continuous(f, plan.rays[z])))
    return res


def brute_ball(d, r):
    """Ball enumeration by box scan with exact rational comparison (oracle)."""
    rf = Fraction(r)
    r2 = rf * rf
    m = 0
    while Fraction(m * m) <= r2:  # overshoot the box by one
        m += 1
    span = range(-m, m + 1)
    out = []

    def rec(prefix):
        if len(prefix) == d:
            if sum(c * c for c in prefix) <= r2:
                out.append(tuple(prefix))
            return
        for c in span:
            rec(prefix + [c])

    rec([])
    return out


def brute_line_count(r, d=2):
    """Independent oracle: dedup lines by (normal direction, offset) for d=2,
    and by (primitive direction, reduced point pair form) for d >= 3."""
    pts = enumerate_ball(d, r)
    seen = set()
    for i, zi in enumerate(pts):
        for zj in pts[i + 1:]:
            delta = tuple(a - b for a, b in zip(zj, zi))
            p = primitive(delta)
            if d == 2:
                normal = primitive((p[1], -p[0]))
                c = normal[0] * zi[0] + normal[1] * zi[1]
                seen.add((normal, c))
            else:
                # reduce the base along p by clearing the leading nonzero slot
                lead = next(k for k, c in enumerate(p) if c != 0)
                q = zi[lead] // p[lead]
                base = tuple(a - q * b for a, b in zip(zi, p))
                seen.add((p, base))
    return len(seen)


def _mobius(n):
    """mu(n) by trial division (oracle's own)."""
    mu, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            mu = -mu
        k += 1
    return -mu if n > 1 else mu


def reference_line_count(r, d=2):
    """Lines through >= 2 points of the r-ball by congruence classes (oracle).

    A line's ball points are consecutive multiples of its primitive
    direction, so a line holding n >= 2 of them has n - 1 pairs whose
    difference has gcd 1 and n - 2 of gcd 2. N(m), the unordered pairs of
    ball points congruent mod m, counts the pairs whose gcd m divides, so
    by Moebius inversion the count is sum_j mu(j) (N(j) - N(2j)); N(m) is
    0 for m above twice the largest coordinate.
    """
    pts = enumerate_ball(d, r)
    top = 2 * max(map(abs, itertools.chain.from_iterable(pts)))

    @cache
    def pairs(m):
        if m > top:
            return 0
        classes = Counter(tuple(c % m for c in z) for z in pts)
        return sum(n * (n - 1) // 2 for n in classes.values())

    return sum(_mobius(j) * (pairs(j) - pairs(2 * j)) for j in range(1, top + 1))


def reference_farey_count(n, d=2):
    """Level-n Farey points in dimension d, one gcd per tuple (oracle):
    mapped in C per q for d=2, depth-first over p-tuples carrying the
    running gcd with q for d >= 3."""
    if d == 2:
        return sum(list(map(math.gcd, range(q), itertools.repeat(q))).count(1)
                   for q in range(1, n + 1))
    total = 0
    for q in range(1, n + 1):
        stack = [(0, q)]
        while stack:
            depth, g = stack.pop()
            if depth == d - 1:
                if g == 1:
                    total += 1
                continue
            for p in range(q):
                stack.append((depth + 1, math.gcd(g, p)))
    return total


def reference_canonical_primitives(r, d=2):
    """The nonzero ball points that ``primitive`` maps to themselves (oracle)."""
    return [z for z in enumerate_ball(d, r)
            if any(c != 0 for c in z) and primitive(z) == z]


def reference_lens(rows, v):
    """#{z : z + v in the rows' set} row by row (oracle): rows maps a prefix
    to the half-width m of its last coordinates [-m, m]."""
    head, t = v[:-1], v[-1]
    total = 0
    for p, m in rows.items():
        m2 = rows.get(tuple(a + b for a, b in zip(p, head)))
        if m2 is not None:
            total += max(0, min(m, m2 - t) - max(-m, -m2 - t) + 1)
    return total


def lagrange_q(zeta, z):
    """|zeta|^2 |z|^2 - (z.zeta)^2, computed both as that Gram form and, by
    Lagrange's identity, as the sum of the squared 2x2 minors of (zeta, z),
    which must agree: the scan uses one form per dimension, so its oracle
    rests on neither alone."""
    dot = sum(a * b for a, b in zip(zeta, z))
    gram = sum(a * a for a in zeta) * sum(b * b for b in z) - dot * dot
    minors = sum((zeta[i] * z[j] - zeta[j] * z[i]) ** 2
                 for i, j in itertools.combinations(range(len(z)), 2))
    assert gram == minors, (zeta, z)
    return gram


def brute_direction_minima(R, d=2):
    """Per-pair separation scan (oracle): for every canonical primitive zeta
    of norm <= R, the least nonzero q over all nonzero ball points."""
    pts = [z for z in brute_ball(d, R) if any(z)]
    prims = [z for z in pts
             if math.gcd(*z) == 1 and next(c for c in z if c) > 0]
    return {zeta: min(q for z in pts if (q := lagrange_q(zeta, z)))
            for zeta in prims}


def brute_separation_margin(R, d=2):
    """The separation margin by the per-pair scan over every direction."""
    return min(brute_direction_minima(R, d).values())


def _row_int_vec(obj, d, what):
    if (not isinstance(obj, list) or len(obj) != d
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in obj)):
        raise FileFormatError(f"{what} must be a list of {d} integers, got {obj!r}")
    return tuple(obj)


def _row_value(v):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise FileFormatError(f"bad value {v!r}")
    try:
        x = float(v)
    except OverflowError as exc:
        raise FileFormatError(f"value {v!r} is out of double range") from exc
    if not math.isfinite(x):
        raise FileFormatError(f"non-finite value {v!r}")
    return x


def reference_obj_to_grid(obj):
    """The grid reader checking row by row, then through GridFunction (oracle)."""
    if not isinstance(obj, dict):
        raise FileFormatError("grid file must be a JSON object")
    try:
        d = obj["d"]
        r = lio.parse_frac(obj["r"])
        rows = obj["values"]
    except KeyError as exc:
        raise FileFormatError(f"grid file missing key {exc}") from exc
    if not isinstance(d, int) or d < 2:
        raise FileFormatError(f"bad dimension {d!r}")
    if not isinstance(rows, list):
        raise FileFormatError("values must be a list")
    values = {}
    for row in rows:
        if not isinstance(row, dict) or "z" not in row or "v" not in row:
            raise FileFormatError(f"bad grid row {row!r}")
        z = _row_int_vec(row["z"], d, "z")
        if z in values:
            raise FileFormatError(f"duplicate grid point {z}")
        values[z] = _row_value(row["v"])
    try:
        return GridFunction(d=d, support_radius=r, values=values)
    except Exception as exc:
        raise FileFormatError(str(exc)) from exc


def reference_obj_to_sino(obj):
    """The sinogram reader checking row by row (oracle).

    A direction must have entries of gcd 1 whose first nonzero one is
    positive, and the base must be the general reduction's (``reduced_key``).
    """
    if not isinstance(obj, dict):
        raise FileFormatError("sinogram file must be a JSON object")
    try:
        d = obj["d"]
        fam_obj = obj["family"]
        rows = obj["rays"]
    except KeyError as exc:
        raise FileFormatError(f"sinogram file missing key {exc}") from exc
    if not isinstance(d, int) or d < 2:
        raise FileFormatError(f"bad dimension {d!r}")
    meta = lio.obj_to_meta(fam_obj, d)
    if not isinstance(rows, list):
        raise FileFormatError("rays must be a list")
    entries = {}
    family = []
    for row in rows:
        if not isinstance(row, dict):
            raise FileFormatError(f"bad ray row {row!r}")
        try:
            z = _row_int_vec(row["z"], d, "z")
            dirv = _row_int_vec(row["dir"], d, "dir")
            base = _row_int_vec(row["base"], d, "base")
            v = _row_value(row["v"])
        except KeyError as exc:
            raise FileFormatError(f"ray row missing key {exc}") from exc
        ray = Ray(base, dirv)
        if (math.gcd(*dirv) != 1 or next(c for c in dirv if c) < 0
                or reduced_key(ray) != (dirv, base)):
            raise FileFormatError(
                f"ray (dir={dirv}, base={base}) is not in reduced canonical form")
        key = RayKey(dirv, base)
        if key in entries and entries[key] != v:
            raise FileFormatError(f"conflicting values for one line at {z}")
        entries[key] = v
        family.append((z, ray))
    return Sinogram(d=d, entries=entries, meta=meta, family=tuple(family))


def reference_grid_values(d, r, values):
    """``GridFunction(d, r, values).values`` by the point-by-point walk (oracle)."""
    r2 = ball_radius(d, r) ** 2
    den, num = r2.denominator, r2.numerator
    clean = {}
    for z, v in values.items():
        z = tuple(map(int, z))
        if len(z) != d:
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


def values_equal(f, g):
    """Pointwise float equality as functions; unstored points read 0."""
    keys = set(f.values) | set(g.values)
    return f.d == g.d and all(f.get(z) == g.get(z) for z in keys)


def shell_points(dec):
    """The points of a shell decomposition, outermost shell first."""
    return [z for shell in dec.shells for z in shell]


def table_weight(table):
    """The weight model W(z, dir) = table[(z, dir)]."""
    return lambda z, dirv: table[(tuple(z), tuple(dirv))]


def prim_norm_le(theta, rho):
    """True iff the direction theta has Euclidean norm <= rho."""
    return sum(c * c for c in theta) <= Fraction(rho) ** 2


def farey_set(n, d=2):
    """The level-n Farey points, reduced p/q in [0, 1) with q <= n, as
    Fractions; only d=2 is enumerated."""
    if n < 1:
        raise PreconditionError("Farey level must be >= 1")
    if d != 2:
        raise PreconditionError("Farey point sets are exposed only for d=2")
    return {Fraction(p, q) for q in range(1, n + 1)
            for p in range(q) if math.gcd(p, q) == 1}


def count_lines_through_origin(r, d=2):
    """Distinct lines through the origin and a second ball lattice point,
    deduplicated by their reduced key."""
    origin = (0,) * d
    return len({reduced_key(Ray(origin, primitive(z)))
                for z in enumerate_ball(d, r) if any(z)})


def unbounded_ray_witnesses(z, count):
    """count rays through z with the pairwise non-parallel directions
    (1, k, 0, ...), so pairwise distinct lines."""
    z = tuple(z)
    return [Ray(z, (1, k) + (0,) * (len(z) - 2)) for k in range(count)]


def traverse_cells(ray, radius):
    """(cell, chord) of one ray's ``walk_cells`` walk, the cell numbers
    decoded by ``box_points``."""
    place, offset = walk_box(ray.d, radius)
    for _, ids, chords, _ in walk_cells([ray], radius):
        yield from zip(box_points(ids, place, offset), chords)
