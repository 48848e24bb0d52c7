"""Brute-force verification of counting and separation estimates, in
exact integers: lines through two or more ball points (lens sizes over
directions), the Farey ratio, and the separation of lattice projections
(one direction per orbit of the signed coordinate permutations). Budgets
are checked before any list is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import add, mul, sub

from .errors import BudgetError, PreconditionError
from .lattice import (IntVec, as_fraction, ball_count, ball_radius, count_within,
                      enumerate_ball, mobius_sieve, norm2)

# default ceiling on lens steps, directions x rows (d=4 radius 7 fits under it)
DEFAULT_LENS_BUDGET = 150_000_000
# default ceiling on (primitive direction, point) tests in the separation scan
DEFAULT_SEPARATION_BUDGET = 50_000_000


@dataclass(frozen=True)
class CountReport:
    """A counted quantity sandwiched between proved bounds."""

    r: Fraction
    d: int
    count: int
    lower_bound: int
    upper_bound: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "r": str(self.r),
            "d": self.d,
            "count": self.count,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "passed": self.passed,
        }


def _lens(rows: dict[IntVec, int], v: IntVec) -> int:
    """P(v) = #{z in B : z + v in B}, all rows in one C pass over the row
    columns. Row p, half-width m, meets row p + v[:-1], half-width m2 (-1,
    empty, if absent), shifted by t in min(m, m2 - t) + min(m, m2 + t) + 1
    points if that is positive."""
    head, t = v[:-1], v[-1]
    shifted = zip(*[map(add, col, repeat(h)) for col, h in zip(zip(*rows), head)])
    m2 = list(map(rows.get, shifted, repeat(-1)))
    hi = map(min, rows.values(), map(sub, m2, repeat(t)))
    lo = map(min, rows.values(), map(add, m2, repeat(t)))
    return len(rows) + sum(map(max, map(add, hi, lo), repeat(-1)))


def count_connecting_lines(r, d: int = 2, *,
                           budget: int = DEFAULT_LENS_BUDGET) -> int:
    """Number of distinct lines through >= 2 lattice points of the r-ball.

    The ball is convex, so the ball points of a line with primitive
    direction theta form one run of consecutive multiples of theta, and the
    lines in direction theta holding >= 2 of them number P(theta) - P(2 theta)
    (lens sizes, see ``_lens``). The sum runs over the canonical primitive
    directions of norm <= 2r. P is invariant under permuting and negating
    coordinates, so each orbit's lens is computed once. ``budget`` caps the
    lens steps, directions x rows.
    """
    rf = ball_radius(d, r)
    # the rows are the lattice points of the (d-1)-ball of radius r
    _check_budget(count_within(d - 1, rf * rf, budget), 2 * rf, d, budget,
                  "lens steps")
    # a row is the first d-1 coordinates; lexicographic order leaves its max last
    rows = {z[:-1]: z[-1] for z in enumerate_ball(d, rf)}
    dirs = canonical_primitives(2 * rf, d)
    orbits = Counter(tuple(sorted(map(abs, theta))) for theta in dirs)
    r2 = rf * rf
    total = 0
    for theta, mult in orbits.items():
        lines = _lens(rows, theta)
        if norm2(theta) <= r2:  # else |2 theta| > 2r and P(2 theta) = 0
            lines -= _lens(rows, tuple(2 * c for c in theta))
        total += mult * lines
    return total


def verify_count_bounds(r, d: int = 2, *,
                        budget: int = DEFAULT_LENS_BUDGET) -> CountReport:
    """Sandwich the two-point-line count between the proved bounds.

    Lower: N_{r/2} (1 + N_{r/2}) / 2, strict. Upper: N_r^2, strict.
    """
    rf = as_fraction(r)
    if rf < 1:
        raise PreconditionError("radius must be >= 1")
    count = count_connecting_lines(rf, d, budget=budget)
    n_half = ball_count(d, rf / 2)
    n_full = ball_count(d, rf)
    lower = n_half * (1 + n_half) // 2
    upper = n_full * n_full
    return CountReport(r=rf, d=d, count=count, lower_bound=lower,
                       upper_bound=upper, passed=lower < count < upper)


def _half_ball(r, d: int) -> list[IntVec]:
    """One point of each pair +-z of nonzero ball points: the ball's
    lexicographic order is symmetric about the origin, so the points after
    it are those whose first nonzero entry is positive."""
    ball = enumerate_ball(d, r)
    return ball[len(ball) // 2 + 1:]


def canonical_primitives(r, d: int = 2) -> list[IntVec]:
    """Canonical primitive vectors of norm <= r (one per antipodal pair):
    the points of ``_half_ball`` whose entries have gcd 1, in ball order."""
    half = _half_ball(r, d)
    if not half:
        return []
    return list(compress(half, map((1).__eq__, map(math.gcd, *zip(*half)))))


def primitive_count(rho, d: int = 2, *, cap: int | None = None) -> int:
    """``len(canonical_primitives(rho, d))``, counted without building them.

    The nonzero ball points are the multiples k theta of the primitive ones,
    so Moebius inversion gives 1/2 sum_k mu(k) (N(rho/k) - 1), N the ball
    count. With a ``cap``, a number above the cap is returned as soon as the
    canonical primitives (1, x), |x|^2 <= rho^2 - 1, alone pass it; a result
    <= cap is exact.
    """
    rf = ball_radius(d, rho)
    r2 = rf * rf
    if cap is not None and rf >= 1:
        low = count_within(d - 1, r2 - 1, cap)
        if low > cap:
            return low
    mu = mobius_sieve(math.floor(rf))
    return sum(mu[k] * (count_within(d, r2 / (k * k)) - 1)
               for k in range(1, len(mu)) if mu[k]) // 2


def _check_budget(n: int, rho, d: int, budget: int, what: str) -> None:
    """Refuse a scan of len(canonical_primitives(rho, d)) x n steps above
    the budget, before anything is built. ``n`` must be exact up to the
    budget and above it otherwise, as a capped ``count_within`` is."""
    over = (budget < 0 if n == 0 else
            primitive_count(rho, d, cap=budget // n) > budget // n)
    if over:
        raise BudgetError(f"{what} exceed the budget of {budget}")


def _point_columns(R: Fraction, d: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Coordinate columns and squared norms of the points of ``_half_ball``;
    z and -z give every direction the same q."""
    half = _half_ball(R, d)
    return list(zip(*half)), list(map(norm2, half))


def _direction_minimum(zeta: IntVec, cols: list[tuple[int, ...]],
                       norms: list[int]) -> int:
    """Minimum of |zeta|^2 |z|^2 - (z.zeta)^2 over the points z not collinear
    with zeta, given as coordinate columns and squared norms.

    Every product is exact integer arithmetic, done by C iterators over the
    columns. At least one point must not be collinear with zeta.
    """
    dots = None
    for c, col in zip(zeta, cols):
        if c:
            term = col if c == 1 else map(mul, col, repeat(c))
            dots = list(term if dots is None else map(add, dots, term))
    qs = map(sub, map(mul, norms, repeat(norm2(zeta))), map(mul, dots, dots))
    best = min(filter(None, qs))  # q is zero exactly on collinear points
    if best < 0:
        raise AssertionError("Cauchy-Schwarz violated: arithmetic bug")
    return best


def separation_margin(R, d: int = 2, *,
                      budget: int = DEFAULT_SEPARATION_BUDGET) -> int:
    """Minimum of |zeta|^2 |z|^2 - (z.zeta)^2 over non-collinear pairs.

    zeta ranges over primitive directions of norm <= R, z over nonzero ball
    lattice points; the quantity is a nonnegative integer, zero exactly on
    collinear pairs, so a minimum >= 1 over the rest is the exact separation
    estimate for lattice projections. One direction per orbit (see the
    module docstring) is scanned against one point of each pair +-z.
    ``budget`` caps the pairs, directions x nonzero points.
    """
    rf = ball_radius(d, R)
    # nonzero ball points, exact up to the budget
    _check_budget(count_within(d, rf * rf, budget + 1) - 1, rf, d, budget,
                  "separation tests")
    # sorted absolute values: the orbit's member with nonnegative rising entries
    reps = {tuple(sorted(map(abs, zeta))) for zeta in canonical_primitives(rf, d)}
    if not reps:
        raise PreconditionError("no non-collinear pairs at this radius")
    cols, norms = _point_columns(rf, d)
    return min(_direction_minimum(zeta, cols, norms) for zeta in reps)


def farey_asymptotic_report(count: int, n: int) -> float:
    """Ratio of a level-n Farey count (d=2) to its asymptotic law 3 n^2 / pi^2."""
    return count * math.pi ** 2 / (3.0 * n * n)
