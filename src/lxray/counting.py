"""Brute-force verification of counting and separation estimates.

Exhaustive, exact-arithmetic checks: the number of lines through at least
two ball lattice points (sandwiched between its proved bounds), the Farey
asymptotic ratio, and the integer separation estimate for projections of
the lattice along a rational direction. The two-point-line count sums lens
sizes over directions, O(r^(2d-1)) exact integer steps guarded by an
explicit budget; the tests check it against a pair-scan oracle.

The separation scan decides every (direction, point) pair in exact integer
arithmetic, but scans one direction per orbit of the signed coordinate
permutations: they map the ball's points onto themselves and leave the
quantity unchanged, so every orbit member has the same minimum. The
products of one direction with all points come at once from the points'
coordinate columns, through C iterators.

Both budgets are checked before any ball or direction list is built: ball
sizes are counted row by row and primitive directions by Moebius inversion
(``primitive_count``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub

from .errors import BudgetError, PreconditionError
from .lattice import (IntVec, as_fraction, ball_count, ball_radius, count_within,
                      enumerate_ball, farey_count, mobius_sieve, norm2, primitive)

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
    """P(v) = #{z in B : z + v in B}, one intersection of two integer
    intervals of the last coordinate per row of the ball."""
    head, t = v[:-1], v[-1]
    total = 0
    for p, m in rows.items():
        m2 = rows.get(tuple(a + b for a, b in zip(p, head)))
        if m2 is not None:
            total += max(0, min(m, m2 - t) - max(-m, -m2 - t) + 1)
    return total


def count_connecting_lines(r, d: int = 2, *,
                           budget: int = DEFAULT_LENS_BUDGET) -> int:
    """Number of distinct lines through >= 2 lattice points of the r-ball.

    The ball is convex, so the ball points of a line with primitive
    direction theta form one run of consecutive multiples of theta, and the
    lines in direction theta holding >= 2 of them number P(theta) - P(2 theta)
    (lens sizes, see ``_lens``). The sum runs over the canonical primitive
    directions of norm <= 2r. P is invariant under permuting and negating
    coordinates, so each orbit's lens is computed once. ``budget`` caps the
    lens steps, directions x rows, and is checked before anything is built.
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


def canonical_primitives(r, d: int = 2) -> list[IntVec]:
    """Canonical primitive vectors of norm <= r (one per antipodal pair)."""
    return [z for z in enumerate_ball(d, r)
            if any(c != 0 for c in z) and primitive(z) == z]


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
    """Coordinate columns and squared norms of one point of each pair +-z of
    nonzero ball points; z and -z give every direction the same q.

    Lexicographic order lists the ball symmetrically about the origin, so
    the points after the origin are those with a positive first nonzero
    entry.
    """
    ball = enumerate_ball(d, R)
    half = ball[len(ball) // 2 + 1:]
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
    collinear pairs, so the minimum over the rest being >= 1 is the exact
    separation estimate for lattice projections. Every pair is decided in
    exact integer arithmetic, by scanning one direction per orbit of the
    signed coordinate permutations (see the module docstring) against one
    point of each pair +-z. ``budget`` caps the pairs, directions x nonzero
    points, and is checked before anything is built.
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


def farey_asymptotic_report(n: int, d: int = 2) -> float:
    """Ratio of the level-n Farey count to its n -> infinity law 3 n^2 / pi^2."""
    if d != 2:
        raise PreconditionError("asymptotic report implemented for d=2")
    return farey_count(n, 2) * math.pi ** 2 / (3.0 * n * n)
