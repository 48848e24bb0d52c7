"""Brute-force verification of counting and separation estimates, in
exact integers: lines through two or more ball points (lens sizes, one
direction per orbit of the signed coordinate permutations), the Farey
ratio, and the separation of lattice projections (each pair of canonical
primitives from the orbit of its longer member; in the plane, q of a pair
is its squared 2x2 minor). Budgets are checked before any list is built.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, mul, neg, sub

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


def _lens_sizes(rows: dict[IntVec, int], head: IntVec, ts) -> list[int]:
    """P((head, t)) = #{z in B : z + (head, t) in B} for each t of ts, from
    one C pass over the row columns. Row p, half-width m, meets row
    p + head, half-width m2, if present: with a, b the min and max of m, m2
    it gives 2a + 1 points for |t| <= b - a, one fewer per further unit of
    |t| and none from |t| >= a + b + 1. So P(t) is P(0) less, per step
    below |t|, the rows declining there: the prefix sums of the Counters of
    the breakpoints b - a and a + b + 1."""
    ts = list(map(abs, ts))
    shifted = zip(*[col if h == 0 else map(add, col, repeat(h))
                    for col, h in zip(zip(*rows), head)])
    m2 = list(map(rows.get, shifted, repeat(-1)))
    hit = list(map((-1).__lt__, m2))
    ms, m2 = list(compress(rows.values(), hit)), list(compress(m2, hit))
    a, b = list(map(min, ms, m2)), list(map(max, ms, m2))
    start = Counter(map(sub, b, a))
    stop = Counter(map(add, map(add, a, b), repeat(1)))
    steps = range(max(ts, default=0))
    declining = accumulate(map(sub, map(start.get, steps, repeat(0)),
                               map(stop.get, steps, repeat(0))))
    sizes = list(accumulate(map(neg, declining), initial=len(a) + 2 * sum(a)))
    return list(map(sizes.__getitem__, ts))


def _orbit_representatives(rho, d: int) -> dict[IntVec, int]:
    """The orbits of the canonical primitive vectors of norm <= rho under
    signed coordinate permutations: each orbit's member with nonnegative
    rising entries -> its number of canonical members. A member is a
    positive rising tail of gcd 1 padded with zeros; k nonzero entries, c_v
    of each value v, give d!/((d - k)! prod c_v!) 2^k / 2 members."""
    r2 = ball_radius(d, rho) ** 2
    num, den = r2.numerator, r2.denominator
    reps: dict[IntVec, int] = {}
    tails = [((), 0, 0)]  # tail, squared norm, gcd of its entries
    for k in range(1, d + 1):
        tails = [(tail + (x,), n2 + x * x, math.gcd(g, x))
                 for tail, n2, g in tails
                 for x in range(tail[-1] if tail else 1,
                                math.isqrt((num - den * n2) // den) + 1)]
        if not tails:
            break
        zeros, members = (0,) * (d - k), math.perm(d, k) << (k - 1)
        for tail, _, g in tails:
            if g == 1:
                ties = 1 if len(set(tail)) == k else math.prod(
                    map(math.factorial, Counter(tail).values()))
                reps[zeros + tail] = members // ties
    return reps


def count_connecting_lines(r, d: int = 2, *,
                           budget: int = DEFAULT_LENS_BUDGET) -> int:
    """Number of distinct lines through >= 2 lattice points of the r-ball.

    The ball is convex, so the ball points of a line with primitive
    direction theta form one run of consecutive multiples of theta, and the
    lines in direction theta holding >= 2 of them number P(theta) - P(2 theta)
    (lens sizes). The sum runs over the canonical primitive directions of
    norm <= 2r. P is invariant under permuting and negating coordinates, so
    it runs over one representative per orbit (``_orbit_representatives``,
    listed from their positive tails), weighted by the orbit's canonical
    members. The lens sizes of all vectors sharing a head, the first d-1
    entries, come from one pass over the rows (``_lens_sizes``), so the cost
    grows like r^(2d-2) heads x rows. ``budget`` caps directions x rows, a
    loose upper bound on that work, checked before anything is built.
    """
    rf = ball_radius(d, r)
    # the rows are the lattice points of the (d-1)-ball of radius r
    _check_budget(count_within(d - 1, rf * rf, budget), 2 * rf, d, budget,
                  "lens steps")
    # a row is the first d-1 coordinates; lexicographic order leaves its max last
    rows = {z[:-1]: z[-1] for z in enumerate_ball(d, rf)}
    r2 = math.floor(rf * rf)  # |theta|^2 <= r^2 in integers
    weights: dict[IntVec, dict[int, int]] = {}  # head -> t -> weight of P
    for theta, mult in _orbit_representatives(2 * rf, d).items():
        head, t = theta[:-1], theta[-1]
        ts = weights.setdefault(head, {})
        ts[t] = ts.get(t, 0) + mult
        if norm2(theta) <= r2:  # else |2 theta| > 2r and P(2 theta) = 0
            ts = weights.setdefault(tuple(2 * c for c in head), {})
            ts[2 * t] = ts.get(2 * t, 0) - mult
    return sum(sum(map(mul, ts.values(), _lens_sizes(rows, head, ts)))
               for head, ts in weights.items())


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
    """Canonical primitive vectors of norm <= r (one per antipodal pair), in
    ball order: the ball points after the origin, whose first nonzero entry
    is positive, with entries of gcd 1."""
    ball = enumerate_ball(d, r)
    half = ball[len(ball) // 2 + 1:]
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


def _direction_minimum(zeta: IntVec, cols: list[tuple[int, ...]],
                       norms: list[int]) -> int:
    """Minimum of |zeta|^2 |z|^2 - (z.zeta)^2 over the points z not collinear
    with zeta, given as coordinate columns and squared norms.

    Every product is exact integer arithmetic, done by C iterators over the
    columns. In the plane, Lagrange's identity makes the Gram form the
    square of the one 2x2 minor zeta_1 z_2 - zeta_2 z_1, so the least
    nonzero |minor| is squared and the norms go unread. At least one point
    must not be collinear with zeta.
    """
    if len(zeta) == 2:
        (a, b), (xs, ys) = zeta, cols
        minors = map(sub, map(mul, ys, repeat(a)), map(mul, xs, repeat(b)))
        return min(filter(None, map(abs, minors))) ** 2
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
    """Least q(zeta, z) = |zeta|^2 |z|^2 - (z.zeta)^2 > 0, zeta a primitive
    direction of norm <= R and z a nonzero ball lattice point: q is an
    integer, zero exactly on collinear pairs, so a least value >= 1 is the
    exact separation estimate for lattice projections. q(zeta, m z) =
    m^2 q(zeta, z), so z may be a canonical primitive too. q is symmetric
    and signed coordinate permutations g keep it, so if |z| <= |zeta| some
    g maps zeta onto its orbit's representative rho and +-g z onto a
    canonical primitive of norm <= |rho|: one ``_direction_minimum`` per
    orbit, over that prefix of the primitives sorted by norm, meets every
    pair. Each prefix holds a unit vector not collinear with rho.
    ``budget`` caps directions x nonzero points.
    """
    rf = ball_radius(d, R)
    # nonzero ball points, exact up to the budget
    _check_budget(count_within(d, rf * rf, budget + 1) - 1, rf, d, budget,
                  "separation tests")
    prims = sorted(canonical_primitives(rf, d), key=norm2)
    if not prims:
        raise PreconditionError("no non-collinear pairs at this radius")
    cols, norms = list(zip(*prims)), list(map(norm2, prims))
    # sorted absolute values: the orbit's member with nonnegative rising entries
    reps = {tuple(sorted(map(abs, zeta))) for zeta in prims}
    return min(_direction_minimum(rho, [col[:n] for col in cols], norms[:n])
               for rho in reps for n in [bisect_right(norms, norm2(rho))])


def farey_asymptotic_report(count: int, n: int) -> float:
    """Ratio of a level-n Farey count (d=2) to its asymptotic law 3 n^2 / pi^2."""
    return count * math.pi ** 2 / (3.0 * n * n)
