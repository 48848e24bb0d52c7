"""Command-line front end: phantoms, forward projection, reconstruction,
counting reports, CSV export.

Exit codes: 0 success, 2 precondition violation (including bad flags),
3 budget exceeded, 4 malformed input file. Identical flags and seed give
byte-identical output files.

Each command runs with the cyclic garbage collector paused: lxray builds no
reference cycles, so reference counting frees everything a command makes,
and a collection pass over its file rows and plan tuples finds nothing.
``main`` restores the caller's setting on every exit; no library function
touches the collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import random
import sys
from fractions import Fraction

from . import io as lio
from .continuum import forward_continuous_family, chord_weight, iterate_recon
from .counting import (DEFAULT_LENS_BUDGET, count_connecting_lines,
                       farey_asymptotic_report, separation_margin,
                       verify_count_bounds)
from .errors import (BudgetError, FileFormatError, LxrayError,
                     PreconditionError)
from .lattice import as_fraction, enumerate_ball, farey_count, norm2, totient_sum
from .rays import Plane, coordinate_plane, is_perp_ray, perp_family
from .recon import make_plan, plan_targets, recon_one_point, recon_shells
from .transform import FamilyMeta, GridFunction, constant_weight, forward_family

# coordinates of the declared ball phantom and forward may list, d per point
BALL_BUDGET = 1 << 17


def _parse_vec(text: str, d: int, what: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise PreconditionError(f"{what} must be comma-separated integers")
    if len(vec) != d:
        raise PreconditionError(f"{what} must have {d} components")
    return vec


def _parse_family(spec: list[str], d: int):
    """Returns (kind, plane, alpha, beta) from the --family argument."""
    if not spec:
        raise PreconditionError("--family requires a specification")
    head, rest = spec[0], spec[1:]
    if head == "tstar":
        if rest:
            raise PreconditionError("tstar takes no arguments")
        return "tstar", None, None, None
    if head == "tstar-plane":
        if len(rest) != 2:
            raise PreconditionError("tstar-plane takes two vectors A B")
        a = _parse_vec(rest[0], d, "plane vector a")
        b = _parse_vec(rest[1], d, "plane vector b")
        return "tstar_plane", Plane(a, b), None, None
    if head == "annulus":
        if len(rest) != 2:
            raise PreconditionError("annulus takes two bounds ALPHA BETA")
        alpha, beta = as_fraction(rest[0]), as_fraction(rest[1])
        if alpha < 0 or beta < alpha:
            raise PreconditionError("need 0 <= ALPHA <= BETA")
        return "tstar", None, alpha, beta
    raise PreconditionError(f"unknown family {head!r}")


def _parse_weight(spec: list[str] | None):
    if spec is None:
        return None
    head, rest = spec[0], spec[1:]
    if head == "const":
        if len(rest) != 1:
            raise PreconditionError("const weight takes one value")
        try:
            c = float(rest[0])
        except ValueError:
            raise PreconditionError(f"bad weight constant {rest[0]!r}")
        return constant_weight(c)
    if head == "cell-chord":
        if rest:
            raise PreconditionError("cell-chord takes no arguments")
        return chord_weight()
    raise PreconditionError(f"unknown weight {head!r}")


def make_phantom(kind: str, d: int, r, seed: int = 0) -> GridFunction:
    """Deterministic test grids; random-int draws integers in [-9, 9]."""
    rf = as_fraction(r)
    if kind == "point":
        if d > BALL_BUDGET:  # its one point has d coordinates
            raise BudgetError(f"a {d}-vector exceeds the budget of "
                              f"{BALL_BUDGET} coordinates")
        return GridFunction(d, rf, {(0,) * d: 1.0})
    points = enumerate_ball(d, rf, BALL_BUDGET)
    if kind == "disc":
        inner = rf * Fraction(5, 8)  # documented default: ones inside 5r/8
        inner2 = inner * inner
        values = {z: (1.0 if norm2(z) <= inner2 else 0.0) for z in points}
    elif kind == "checker":
        values = {z: (1.0 if sum(z) % 2 == 0 else -1.0) for z in points}
    elif kind == "random-int":
        rng = random.Random(seed)
        values = {z: float(rng.randint(-9, 9)) for z in sorted(points)}
    else:
        raise PreconditionError(f"unknown phantom kind {kind!r}")
    return GridFunction(d, rf, values)


def _radius(sino, r_override, points) -> Fraction:
    """--r, else the file's radius (0 too), else the least integer radius
    holding the points."""
    if r_override is not None:
        return r_override
    if sino.meta.support_radius is not None:
        return sino.meta.support_radius
    top = max(map(norm2, points), default=0)
    s = math.isqrt(top)
    return Fraction(s if s * s == top else s + 1)


def _plan_from_sinogram(sino, r_override=None, weight=None):
    """The plan over the file's points and the rays stored in its rows.

    A tstar/tstar_plane row must hold its point's family ray (a format
    error otherwise); a free row may hold any ray the compile accepts.
    """
    meta = sino.meta
    plane = Plane(meta.a, meta.b) if meta.kind == "tstar_plane" else None
    if meta.kind != "free":
        for z, ray in sino.family:  # the reader checked canonical directions
            if not is_perp_ray(z, ray, plane):
                raise FileFormatError(f"ray of {z} is not its {meta.kind} ray")
    points = [z for z, _ in sino.family]
    return make_plan(sino.d, _radius(sino, r_override, points), points=points,
                     plane=plane, weight=weight, alpha=meta.alpha,
                     beta=meta.beta, rays=dict(sino.family))


def cmd_phantom(args) -> int:
    grid = make_phantom(args.kind, args.d, as_fraction(args.r), args.seed)
    lio.write_json_atomic(args.out, lio.grid_to_obj(grid))
    return 0


def cmd_forward(args) -> int:
    grid = lio.obj_to_grid(lio.read_json(args.grid))
    kind, plane, alpha, beta = _parse_family(args.family, grid.d)
    if args.continuous and args.weight is not None:
        raise PreconditionError("--continuous and --weight are mutually exclusive")
    weight = _parse_weight(args.weight)
    ball = enumerate_ball(grid.d, grid.support_radius, BALL_BUDGET)
    points = plan_targets(ball, plane or coordinate_plane(grid.d),
                          grid.support_radius, alpha, beta)
    family = perp_family(points, plane)
    meta = FamilyMeta(kind=kind,
                      a=plane.a if plane else None, b=plane.b if plane else None,
                      alpha=alpha, beta=beta, support_radius=grid.support_radius)
    if args.continuous:
        sino = forward_continuous_family(grid, family, meta)
    else:
        sino = forward_family(grid, family, meta, weight)
    lio.write_json_atomic(args.out, lio.sino_to_obj(sino))
    return 0


def cmd_recon(args) -> int:
    if args.iterate is not None and args.weight is not None:
        raise PreconditionError("--iterate and --weight are mutually exclusive")
    if args.one_point is not None and args.iterate is not None:
        raise PreconditionError("--one-point and --iterate are mutually exclusive")
    if args.residuals is not None and args.iterate is None:
        raise PreconditionError("--residuals needs --iterate")
    sino = lio.obj_to_sino(lio.read_json(args.sino))
    weight = _parse_weight(args.weight)
    r_override = as_fraction(args.r) if args.r is not None else None

    if args.one_point is not None:
        rows = lio.read_json(args.one_point)
        if not isinstance(rows, list):
            raise FileFormatError("direction file must be a JSON list")
        theta_of = {}
        for row in rows:
            if not isinstance(row, dict) or "z" not in row or "dir" not in row:
                raise FileFormatError(f"bad direction row {row!r}")
            z = lio._int_vec(row["z"], sino.d, "z")
            theta_of[z] = lio._int_vec(row["dir"], sino.d, "dir")
        grid = recon_one_point(sino, list(theta_of), theta_of,
                               _radius(sino, r_override, list(theta_of)), weight)
        lio.write_json_atomic(args.out, lio.grid_to_obj(grid))
        return 0

    if args.iterate is not None:
        if args.iterate < 1:
            raise PreconditionError("--iterate needs a positive count")
        plan = _plan_from_sinogram(sino, r_override, weight=None)
        iterates, residuals = iterate_recon(sino, plan, iters=args.iterate)
        # the refined iterates are the CSV rows; keep the first best one
        best = min(range(1, len(iterates)), key=residuals.__getitem__)
        lio.write_json_atomic(args.out, lio.grid_to_obj(iterates[best]))
        res_path = args.residuals or (args.out + ".residuals.csv")
        lio.residuals_to_csv(res_path, residuals[1:])
        return 0

    grid = recon_shells(sino, _plan_from_sinogram(sino, r_override, weight=weight))
    lio.write_json_atomic(args.out, lio.grid_to_obj(grid))
    return 0


def cmd_export(args) -> int:
    grid = lio.obj_to_grid(lio.read_json(args.grid))
    lio.grid_to_csv(grid, args.out)
    return 0


def _emit_report(lines: list[str], payload: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(payload, sort_keys=True))


def cmd_count(args) -> int:
    if args.what == "tmin":
        count = count_connecting_lines(as_fraction(args.r), args.d,
                                       budget=args.budget)
        _emit_report(
            [f"lines through >= 2 lattice points of the {args.d}-ball, "
             f"radius {args.r}: {count}"],
            {"kind": "tmin", "r": str(as_fraction(args.r)), "d": args.d,
             "count": count})
        return 0
    if args.what == "farey":
        count = farey_count(args.n, 2)
        oracle = totient_sum(args.n)
        ratio = farey_asymptotic_report(count, args.n)
        _emit_report(
            [f"Farey count at level {args.n}: {count} "
             f"(totient-sieve oracle {oracle}, match: {count == oracle})",
             f"ratio to asymptotic law 3n^2/pi^2: {ratio!r}"],
            {"kind": "farey", "n": args.n, "count": count, "oracle": oracle,
             "oracle_match": count == oracle, "asymptotic_ratio": ratio})
        return 0
    if args.what == "separation":
        margin = separation_margin(as_fraction(args.R), args.d)
        passed = margin >= 1
        _emit_report(
            [f"projection separation up to radius {args.R} (d={args.d}): "
             f"min integer margin {margin}, {'pass' if passed else 'FAIL'}"],
            {"kind": "separation", "R": str(as_fraction(args.R)), "d": args.d,
             "margin": margin, "passed": passed})
        return 0
    if args.what == "bounds":
        report = verify_count_bounds(as_fraction(args.r), args.d,
                                     budget=args.budget)
        _emit_report(
            [f"two-point-line count at radius {args.r} (d={args.d}): "
             f"{report.lower_bound} < {report.count} < {report.upper_bound}: "
             f"{'pass' if report.passed else 'FAIL'}"],
            {"kind": "bounds", **report.to_dict()})
        return 0 if report.passed else 2
    raise PreconditionError(f"unknown count command {args.what!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lxray",
        description="Discrete lattice X-ray transform: forward projection, "
                    "exact inversion, continuum bridge, counting checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a test grid")
    p.add_argument("--kind", required=True,
                   choices=["point", "disc", "checker", "random-int"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forward", help="project a grid along a ray family")
    p.add_argument("--grid", required=True)
    p.add_argument("--family", nargs="+", required=True,
                   metavar="SPEC",
                   help="tstar | tstar-plane A B | annulus ALPHA BETA")
    p.add_argument("--weight", nargs="+", default=None,
                   metavar="W", help="const C | cell-chord")
    p.add_argument("--continuous", action="store_true",
                   help="continuous transform of the unit-cell field")
    p.add_argument("--out", required=True)

    p = sub.add_parser("recon", help="reconstruct a grid from a sinogram")
    p.add_argument("--sino", required=True)
    p.add_argument("--weight", nargs="+", default=None,
                   metavar="W", help="const C | cell-chord")
    p.add_argument("--one-point", default=None, metavar="DIRFILE",
                   help='JSON list of {"z": [...], "dir": [...]} rows')
    p.add_argument("--iterate", type=int, default=None, metavar="N",
                   help="treat data as continuous and refine N times")
    p.add_argument("--r", default=None,
                   help="support radius override (else taken from the file)")
    p.add_argument("--residuals", default=None,
                   help="residual CSV path for --iterate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("export", help="write a grid as CSV for plotting")
    p.add_argument("--grid", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("count", help="counting and separation reports")
    csub = p.add_subparsers(dest="what", required=True)
    c = csub.add_parser("tmin", help="lines through >= 2 ball points")
    c.add_argument("--r", required=True)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--budget", type=int, default=DEFAULT_LENS_BUDGET)
    c = csub.add_parser("farey", help="Farey count and asymptotic ratio")
    c.add_argument("--n", type=int, required=True)
    c = csub.add_parser("separation", help="projection separation scan")
    c.add_argument("--R", required=True)
    c.add_argument("--d", type=int, default=2)
    c = csub.add_parser("bounds", help="sandwich bounds for the line count")
    c.add_argument("--r", required=True)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--budget", type=int, default=DEFAULT_LENS_BUDGET)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # no cycles to find (see the module docstring)
    try:
        # looked up per call, so a wrapper set on this module is seen
        return globals()[f"cmd_{args.command}"](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LxrayError as exc:  # preconditions, plans, missing data
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
