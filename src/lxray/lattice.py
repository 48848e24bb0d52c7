"""Exact integer-lattice primitives.

Lattice points are plain tuples of Python ints; radii and squared norms are
``fractions.Fraction``. Every geometric comparison in this module is exact:
nothing is ever decided by floating point. Float radii are accepted but are
converted to the exact rational value of the float before use.

Directions are represented by their canonical primitive vector: the integer
vector divided by the gcd of its entries, sign-flipped so that the first
nonzero entry is positive. Two integer vectors span the same line direction
iff they have the same canonical primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, mod, mul, sub
from typing import Collection, Iterable, Iterator, Sequence

from .errors import BudgetError, PreconditionError

IntVec = tuple[int, ...]

# enumeration cost guard for the definitional Farey counters
FAREY_ENUM_BUDGET = 60_000_000


def as_fraction(x) -> Fraction:
    """Exact rational of an int, Fraction, float or 'p/q' string.

    A float gives the exact binary value of the float. Anything else, a
    malformed string, a zero denominator or a non-finite float raises
    PreconditionError.
    """
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


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def scale(k, v: Sequence) -> tuple:
    return tuple(k * c for c in v)


def unit_vector(d: int, axis: int) -> IntVec:
    return tuple(1 if i == axis else 0 for i in range(d))


def box_index(d: int, num: int, den: int) -> tuple[IntVec, int, int]:
    """Base-(2m + 1) numbering of the box [-m, m]^d, m = floor of the radius.

    Returns (place, offset, size): z -> offset + z.place is injective on the
    box, lands in range(size) and is affine in k along a ray.
    """
    m = math.isqrt(num // den)
    place = tuple((2 * m + 1) ** i for i in reversed(range(d)))
    return place, m * sum(place), (2 * m + 1) ** d


def box_ids(points: Collection[IntVec], place: IntVec, offset: int
            ) -> list[int]:
    """``box_index``'s numbers offset + z.place of the points, in order.

    Taken column by column, the inverse of ``box_points``; no points give [].
    """
    ids = [offset] * len(points)
    for col, step in zip(zip(*points), place):
        ids = map(add, ids, map(mul, col, repeat(step)))
    return list(ids)


def box_points(ids: Iterable[int], place: IntVec, offset: int
               ) -> Iterator[IntVec]:
    """The points of the box that ``box_index``'s (place, offset) number ids.

    Coordinate k of number i is (i // place[k]) mod (2m + 1) - m, taken
    column by column, so no point is built digit by digit.
    """
    ids = list(ids)
    m = offset // sum(place)
    return zip(*[map(sub, map(mod, map(floordiv, ids, repeat(step)),
                              repeat(2 * m + 1)), repeat(m))
                 for step in place])


def enumerate_ball(d: int, r) -> list[IntVec]:
    """All z in Z^d with |z|^2 <= r^2, in lexicographic order.

    The membership test compares the integer squared norm against the
    exact rational r^2, so the boundary is decided exactly for any rational
    (or float-valued) radius.
    """
    r2 = ball_radius(d, r) ** 2
    num, den = r2.numerator, r2.denominator

    out: list[IntVec] = []
    coords = [0] * d

    def sweep(i: int, remaining: int) -> None:
        # remaining = den*r^2 - den*(partial squared norm), an integer
        if i == d:
            out.append(tuple(coords))
            return
        m = math.isqrt(remaining // den)
        for off in range(-m, m + 1):
            coords[i] = off
            sweep(i + 1, remaining - den * off * off)

    sweep(0, num)
    return out


def ball_radius(d: int, r) -> Fraction:
    """The exact radius of a d-ball; d < 2 or r < 0 raise PreconditionError."""
    if d < 2:
        raise PreconditionError("dimension must be >= 2")
    rf = as_fraction(r)
    if rf < 0:
        raise PreconditionError("radius must be nonnegative")
    return rf


def count_within(d: int, r2: Fraction, cap: int | None = None) -> int:
    """#{z in Z^d : |z|^2 <= r2} for d >= 1 and r2 >= 0, counted row by row.

    Every prefix of the first d-1 coordinates holds a whole row of
    2 isqrt(...) + 1 last coordinates, by the exact test of
    ``enumerate_ball``, and a prefix and its mirror hold equal rows. With a
    ``cap`` the count stops once it passes the cap and returns a number
    above it; a result <= cap is exact.
    """
    den = r2.denominator

    def rows(k: int, rem: int) -> int:
        m = math.isqrt(rem // den)
        if k == 1:
            return 2 * m + 1
        total = rows(k - 1, rem)
        for x in range(1, m + 1):
            if cap is not None and total > cap:
                break
            total += 2 * rows(k - 1, rem - den * x * x)
        return total

    return rows(d, r2.numerator)


def ball_count(d: int, r) -> int:
    """Number of lattice points in the closed ball of radius r, equal to
    ``len(enumerate_ball(d, r))`` but counted row by row (``count_within``)."""
    rf = ball_radius(d, r)
    return count_within(d, rf * rf)


def primitive(z: Sequence[int]) -> IntVec:
    """Canonical primitive vector of a nonzero integer vector.

    Divides by the gcd of the entries and flips the sign so the first
    nonzero entry is positive; primitive(k*z) == primitive(z) for any
    nonzero integer k.
    """
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
    if all(c == 0 for c in v):
        return False
    return tuple(v) == primitive(v)


@dataclass(frozen=True)
class ShellDecomposition:
    """Partition of a point set into shells of equal squared norm.

    ``shells[j]`` holds the points whose squared (in-plane) distance to the
    origin is ``norms2[j]``; norms strictly decrease with j, so the last
    shell is the innermost one. Points within a shell are in lexicographic
    order (a reproducibility convention; no semantics attach to it).
    """

    shells: tuple[tuple[IntVec, ...], ...]
    norms2: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.shells)


def build_shells(points: Iterable[IntVec], plane=None) -> ShellDecomposition:
    """Group points by exact squared norm, outermost first.

    With ``plane`` given (any object exposing ``scaled_inplane_norm2`` and
    ``det``), the norm is that of the point's projection onto the plane,
    so the decomposition orders a two-dimensional slice by its own radial
    norm. Points are grouped by the exact integer scaled norm and each
    shell's norm becomes a Fraction once. Ties form one shell; an empty
    input yields an empty decomposition.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise PreconditionError("points must be pairwise distinct")
    groups: dict[int, list[IntVec]] = {}
    for z in pts:
        n = (plane.scaled_inplane_norm2(z) if plane is not None
             else sum(c * c for c in z))
        groups.setdefault(n, []).append(z)
    det = plane.det if plane is not None else 1
    ordered = sorted(groups.items(), reverse=True)
    return ShellDecomposition(
        shells=tuple(tuple(sorted(g)) for _, g in ordered),
        norms2=tuple(Fraction(n, det) for n, _ in ordered),
    )


def farey_count(n: int, d: int = 2) -> int:
    """Number of level-n Farey points in dimension d, by direct enumeration.

    Counts tuples (p_1,...,p_{d-1}, q) with 0 <= p_i < q <= n whose d
    entries have gcd 1. This is the definitional count; ``totient_sieve``
    provides the independent cross-check for d=2.
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
    if d == 2:  # still one gcd per pair (p, q), mapped in C per q
        return sum(list(map(math.gcd, range(q), repeat(q))).count(1)
                   for q in range(1, n + 1))
    total = 0
    for q in range(1, n + 1):
        stack = [(0, q)]
        # depth-first over p-tuples, carrying the running gcd with q
        while stack:
            depth, g = stack.pop()
            if depth == d - 1:
                if g == 1:
                    total += 1
                continue
            for p in range(q):
                stack.append((depth + 1, math.gcd(g, p)))
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
