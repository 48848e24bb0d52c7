"""Exact integer-lattice primitives: points are int tuples, radii and
squared norms Fractions (a float radius at its exact value), and no
comparison is decided in floating point. A direction is its canonical
primitive vector: divided by its gcd, first nonzero entry positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, itemgetter, mod, mul, neg, sub
from typing import Collection, Iterable, Iterator, Sequence

from .errors import BudgetError, PreconditionError

IntVec = tuple[int, ...]

# ceiling on the tuples farey_count decides
FAREY_ENUM_BUDGET = 60_000_000


def as_fraction(x) -> Fraction:
    """Exact rational of an int, Fraction, float (its binary value) or 'p/q'
    string; anything else, or a bad string or float, is a PreconditionError."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, (int, float, str)):
        raise PreconditionError(f"cannot interpret {x!r} as an exact rational")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise PreconditionError(f"bad rational {x!r}") from exc


def norm2(v: Sequence[int]) -> int:
    """Squared Euclidean norm of an integer vector."""
    return sum(c * c for c in v)


def unit_vector(d: int, axis: int) -> IntVec:
    return tuple(1 if i == axis else 0 for i in range(d))


def box_index(d: int, num: int, den: int) -> tuple[IntVec, int, int]:
    """Base-(2m + 1) numbering of the box [-m, m]^d, m = floor of the radius:
    (place, offset, size), z -> offset + z.place injective on the box, into
    range(size) and affine in k along a ray."""
    m = math.isqrt(num // den)
    place = tuple((2 * m + 1) ** i for i in reversed(range(d)))
    return place, m * sum(place), (2 * m + 1) ** d


def box_ids(points: Collection[IntVec], place: IntVec, offset: int
            ) -> list[int]:
    """``box_index``'s numbers offset + z.place of the points, in order.

    Taken column by column, the inverse of ``box_points``; no points give [].
    """
    ids = [offset] * len(points)
    for i, step in enumerate(place):
        ids = map(add, ids, map(mul, map(itemgetter(i), points), repeat(step)))
    return list(ids)


def dots(us: Sequence[Sequence[int]], vs: Sequence[Sequence[int]]
         ) -> list[int]:
    """u.v for each pair of rows of one length, column by column; read by
    ``itemgetter``, as ``zip(*rows)`` makes one iterator per row for the
    garbage collector to traverse."""
    acc = [0] * len(us)
    for col in map(itemgetter, range(len(us[0]) if us else 0)):
        acc = map(add, acc, map(mul, map(col, us), map(col, vs)))
    return list(acc)


def box_points(ids: Iterable[int], place: IntVec, offset: int
               ) -> Iterator[IntVec]:
    """The box points that ``box_index``'s (place, offset) number ids:
    coordinate k of id i is (i // place[k]) mod (2m + 1) - m, by columns."""
    ids = list(ids)
    m = offset // sum(place)
    return zip(*[map(sub, map(mod, map(floordiv, ids, repeat(step)),
                              repeat(2 * m + 1)), repeat(m))
                 for step in place])


def enumerate_ball(d: int, r, budget: int | None = None) -> list[IntVec]:
    """All z in Z^d with |z|^2 <= r^2, in lexicographic order, the boundary
    decided exactly against the rational r^2. Points holding more than
    ``budget`` coordinates are a BudgetError, raised before any is listed."""
    r2 = ball_radius(d, r) ** 2
    num, den = r2.numerator, r2.denominator
    if budget is not None and count_within(d, r2, budget // d) > budget // d:
        raise BudgetError(f"the {d}-ball's coordinates exceed the budget "
                          f"of {budget}")
    if r2 < 1:  # the origin alone
        return [(0,) * d]
    # per coordinate, each prefix's run -m..m, m = isqrt(rem // den), rem =
    # den*(r^2 - |prefix|^2): no recursion over d
    rems, layers = [num], []
    for k in range(d):
        ms = list(map(math.isqrt, map(floordiv, rems, repeat(den))))
        layers.append(list(map(range, map(neg, ms), map((1).__add__, ms))))
        if k < d - 1:
            rems = [rem - den * x * x for rem, run in zip(rems, layers[-1])
                    for x in run]
    # coordinate k: each run's entries, repeated by the points below them
    cols, sizes = [chain.from_iterable(layers[-1])], list(map(len, layers[-1]))
    for runs in reversed(layers[:-1]):
        cols.append(chain.from_iterable(map(repeat, chain.from_iterable(runs),
                                            sizes)))
        below = list(accumulate(sizes, initial=0))
        ends = list(map(below.__getitem__, accumulate(map(len, runs), initial=0)))
        sizes = list(map(sub, ends[1:], ends))
    return list(zip(*reversed(cols)))


def ball_radius(d: int, r) -> Fraction:
    """The exact radius of a d-ball; d < 2 or r < 0 raise PreconditionError."""
    if d < 2:
        raise PreconditionError("dimension must be >= 2")
    rf = as_fraction(r)
    if rf < 0:
        raise PreconditionError("radius must be nonnegative")
    return rf


def count_within(d: int, r2: Fraction, cap: int | None = None) -> int:
    """#{z in Z^d : |z|^2 <= r2} for d >= 1 and r2 >= 0, a coordinate at a
    time: prefixes are merged by the integer den*(r2 - |prefix|^2) they
    leave, each followed by 2 isqrt(... // den) + 1 next coordinates
    (``enumerate_ball``'s exact test), until none admits more than +-1:
    then the j of the k coordinates left that are +-1 cost den each, so a
    remainder counts sum C(k, j) 2^j over j <= rem // den. With a ``cap``
    a lower bound is returned once it passes the cap (a prefix with m > 0
    takes +-1 in any one of the k coordinates left); a result <= cap is
    exact.
    """
    den = r2.denominator
    left = {r2.numerator: 1}  # remainder -> prefixes leaving it
    for k in range(d, 0, -1):
        ms = list(map(math.isqrt, map(floordiv, left, repeat(den))))
        ns = left.values()
        total = sum(ns) + 2 * max(sum(map(mul, ns, ms)),
                                  k * sum(compress(ns, ms)))
        if k == 1 or cap is not None and total > cap:
            return total
        if max(ms) <= 1:
            return sum(n * sum(math.comb(k, j) << j
                               for j in range(min(k, rem // den) + 1))
                       for rem, n in left.items())
        nxt: dict[int, int] = {}
        for (rem, n), m in zip(left.items(), ms):
            for x in range(m + 1):
                key = rem - den * x * x
                nxt[key] = nxt.get(key, 0) + (n + n if x else n)
        left = nxt


def ball_count(d: int, r) -> int:
    """Number of lattice points in the closed ball of radius r, equal to
    ``len(enumerate_ball(d, r))`` but counted row by row (``count_within``)."""
    rf = ball_radius(d, r)
    return count_within(d, rf * rf)


def primitive(z: Sequence[int]) -> IntVec:
    """Canonical primitive vector of a nonzero integer vector:
    primitive(k*z) == primitive(z) for any nonzero integer k."""
    g = 0
    for c in z:
        g = math.gcd(g, c)
    if g == 0:
        raise PreconditionError("zero vector has no direction")
    v = tuple(c // g for c in z)
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    raise AssertionError("unreachable")


def is_canonical_direction(v: Sequence[int]) -> bool:
    """True iff v is a canonical primitive vector."""
    return any(v) and tuple(v) == primitive(v)


@dataclass(frozen=True)
class ShellDecomposition:
    """Partition of a point set into shells of equal squared norm.

    ``shells[j]`` holds the points of squared (in-plane) norm ``norms2[j]``;
    norms strictly decrease, so the last shell is innermost. A shell is in
    lexicographic order, for reproducibility only.
    """

    shells: tuple[tuple[IntVec, ...], ...]
    norms2: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.shells)


def build_shells(points: Iterable[IntVec], plane=None) -> ShellDecomposition:
    """Group points of one dimension by exact squared norm, outermost first;
    ties share a shell. With a ``plane``, the norm is that of the projection,
    grouped by the integer det * norm (columns), so a 2D slice is ordered
    by its own radial norm."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise PreconditionError("points must be pairwise distinct")
    if plane is None:
        norms = dots(pts, pts)
    else:
        s, t = (dots(pts, [v] * len(pts)) for v in (plane.a, plane.b))
        norms = map(add, map(mul, map(mul, s, s), repeat(plane.bb)), map(
            mul, t, map(sub, map(mul, t, repeat(plane.aa)),
                        map(mul, s, repeat(2 * plane.ab)))))
    groups: dict[int, list[IntVec]] = {}
    for z, n in zip(pts, norms):
        groups.setdefault(n, []).append(z)
    det = plane.det if plane is not None else 1
    ordered = sorted(groups.items(), reverse=True)
    return ShellDecomposition(
        shells=tuple(tuple(sorted(g)) for _, g in ordered),
        norms2=tuple(Fraction(n, det) for n, _ in ordered),
    )


def farey_count(n: int, d: int = 2) -> int:
    """Number of level-n Farey points in dimension d, tuple by tuple.

    Counts tuples (p_1,...,p_{d-1}, q) with 0 <= p_i < q <= n whose d
    entries have gcd 1: per q one byte per tuple, zeroed by slice if some
    prime of q divides every p_i. ``totient_sieve`` is the cross-check.
    """
    if n < 1:
        raise PreconditionError("Farey level must be >= 1")
    if d < 2:
        raise PreconditionError("dimension must be >= 2")
    work = 0
    for q in range(1, n + 1):  # stops as soon as the work passes the budget
        work += q ** (d - 1)
        if work > FAREY_ENUM_BUDGET:
            raise BudgetError(f"farey_count({n}, {d}) needs more steps "
                              f"than the budget of {FAREY_ENUM_BUDGET}")
    primes = [[] for _ in range(n + 1)]  # the primes of each q
    for p in range(2, n + 1):
        if not primes[p]:
            for m in range(p, n + 1, p):
                primes[m].append(p)
    total = 0
    for q in range(1, n + 1):
        step = q ** (d - 2)  # byte p_1 step + (p_2..p_{d-1} in base q)
        tuples = bytearray(b"\x01") * (q * step)
        for p in primes[q]:
            tails = [0]  # bytes of the p_2..p_{d-1} all multiples of p
            for _ in range(d - 2):
                tails = [s * q + t for s in tails for t in range(0, q, p)]
            gap = bytes(q // p)  # p_1 = 0, p, 2p, ...
            for s in tails:
                tuples[s::p * step] = gap
        total += tuples.count(1)
    return total


def totient_sieve(n: int) -> list[int]:
    """Euler totients phi(0..n) by a multiplicative sieve."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def mobius_sieve(n: int) -> list[int]:
    """Moebius mu(0..n) by a sieve; mu(0) is 0 by convention."""
    mu = [1] * (n + 1)
    mu[0] = 0
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if not composite[p]:  # p prime
            for m in range(p, n + 1, p):
                composite[m] = True
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def totient_sum(n: int) -> int:
    """Sum of phi(q) for q = 1..n; equals farey_count(n, 2)."""
    return sum(totient_sieve(n)[1:])
