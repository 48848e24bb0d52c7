"""The four seeded workloads of the lxray benchmark.

Each workload builds its inputs from the seed when constructed (that is
set-up), may build per-case plans in ``prepare`` (timed, but not an
operation), and hands out one pass of operations at a time from ``ops``.
A pass is the workload's fixed mix in a seeded order; its slot counts are
chosen so that, sorted by latency, the median lands in the middle of one
case's block and the tail percentiles in the slowest case's block, which
keeps both figures steady from run to run.

Every operation comes with an exact oracle. A wrong result raises
``WrongResult`` from the check; the runner counts it as a failure and the
run goes on.

The workloads call lxray through module attributes (``recon.make_plan``),
looked up at call time, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from lxray import cli, continuum, counting, lattice, rays, recon, transform

ROOT = Path(__file__).resolve().parent.parent
# distinct phantoms per case; operations cycle through them
PHANTOM_POOL = 2


class WrongResult(Exception):
    """An operation returned a result its oracle rejects."""


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Case:
    label: str
    d: int
    r: int
    slots: int = 1                  # operations of this case per pass
    plane: tuple | None = None      # general plane (a, b)
    alpha: int | None = None        # annulus bounds on the in-plane norm
    beta: int | None = None
    weight: float | None = None     # constant weight
    sample: int = 0                 # correction-identity points per operation


def ball_points(d: int, r: int) -> list[tuple[int, ...]]:
    """Lattice points of the closed radius-r ball, found without lxray."""
    r2 = r * r
    return [z for z in itertools.product(range(-r, r + 1), repeat=d)
            if sum(c * c for c in z) <= r2]


def in_annulus(z, alpha: int, beta: int) -> bool:
    """In-plane norm (first two coordinates) within [alpha, beta]."""
    return alpha * alpha <= z[0] * z[0] + z[1] * z[1] <= beta * beta


def random_int_values(points, rng: random.Random) -> dict:
    return {z: float(rng.randint(-9, 9)) for z in points}


def seeded_order(seed: int, k: int, slots: list) -> list:
    rng = random.Random(f"{seed}/order/{k}")
    slots = list(slots)
    rng.shuffle(slots)
    return slots


class Workload:
    """Interface the runner drives; ``ops(k)`` returns pass k's operations."""

    name = ""

    def __init__(self, seed: int, cases: tuple):
        self.seed = seed
        self.cases = cases

    def prepare(self) -> None:
        """Timed work shared by the operations that follow (plans)."""

    def close(self) -> None:
        """Release what set-up created."""

    def ops(self, k: int) -> list[Op]:
        """Each case as many times as its slots, in pass k's seeded order."""
        slots = [c for c in self.cases for _ in range(c.slots)]
        return [self._op(c, k + i) for i, c in
                enumerate(seeded_order(self.seed, k, slots))]


class ShellRoundtrip(Workload):
    """Exact discrete inversion in memory; plans shared across phantoms."""

    name = "shell_roundtrip"
    CASES = (
        Case("d2_r60", 2, 60, slots=4),
        Case("d3_r10", 3, 10),
        Case("d3_r8_plane", 3, 8, plane=((1, 1, 0), (0, 1, 1))),
        Case("d4_r5", 4, 5),
        Case("d2_r40_annulus", 2, 40, slots=2, alpha=10, beta=40),
        Case("d2_r30_const2", 2, 30, weight=2.0),
    )
    TINY = (
        Case("d2_r4", 2, 4),
        Case("d3_r2_plane", 3, 2, plane=((1, 1, 0), (0, 1, 1))),
        Case("d2_r5_annulus", 2, 5, alpha=2, beta=5),
        Case("d2_r3_const2", 2, 3, weight=2.0),
    )

    def __init__(self, seed: int, cases=CASES):
        super().__init__(seed, cases)
        self.phantoms = {}
        self.targets = {}
        for c in cases:
            pts = ball_points(c.d, c.r)
            self.targets[c.label] = frozenset(
                z for z in pts if c.alpha is None or in_annulus(z, c.alpha, c.beta))
            self.phantoms[c.label] = [
                transform.GridFunction(c.d, c.r, random_int_values(
                    pts, random.Random(f"{seed}/{c.label}/{i}")))
                for i in range(PHANTOM_POOL)]
        self.plans = {}

    def prepare(self) -> None:
        for c in self.cases:
            plane = rays.Plane(*c.plane) if c.plane else None
            weight = transform.constant_weight(c.weight) if c.weight else None
            plan = recon.make_plan(c.d, c.r, plane=plane, weight=weight,
                                   alpha=c.alpha, beta=c.beta)
            self.plans[c.label] = (plan, list(plan.rays.items()), weight)

    def _op(self, c: Case, i: int) -> Op:
        plan, family, weight = self.plans[c.label]
        f = self.phantoms[c.label][i % PHANTOM_POOL]
        targets = self.targets[c.label]

        def run():
            g = transform.forward_family(f, family, weight=weight)
            if c.alpha is not None:
                return recon.recon_annulus(g, plan)
            if weight is not None:
                return recon.recon_shells_weighted(g, plan)
            return recon.recon_shells(g, plan)

        def check(rec):
            if set(rec.values) != targets:
                raise WrongResult("recovered point set differs from the targets")
            bad = sum(1 for z in targets if rec.values[z] != f.values[z])
            if bad:
                raise WrongResult(f"{bad} recovered values are not bit-exact")

        return Op(c.label, run, check)


class ContinuumRefine(Workload):
    """Continuous data, fixed-point round, free-start rounds, correction identity."""

    name = "continuum_refine"
    CASES = (
        Case("d2_r8", 2, 8, sample=8),
        Case("d3_r5", 3, 5),
        Case("d2_r10", 2, 10, slots=2, sample=8),
        Case("d2_r12", 2, 12, slots=3, sample=8),
    )
    TINY = (Case("d2_r3", 2, 3, sample=3), Case("d3_r2", 3, 2))
    FIXED_POINT_TOL = 1e-9
    IDENTITY_TOL = 1e-9

    def __init__(self, seed: int, cases=CASES):
        super().__init__(seed, cases)
        self.inputs = {}
        for c in cases:
            pts = ball_points(c.d, c.r)
            pool = []
            for i in range(PHANTOM_POOL):
                rng = random.Random(f"{seed}/{c.label}/{i}")
                f = transform.GridFunction(c.d, c.r, random_int_values(pts, rng))
                pool.append((f, rng.sample(pts, c.sample)))
            self.inputs[c.label] = pool
        self.plans = {}

    def prepare(self) -> None:
        for c in self.cases:
            plan = recon.make_plan(c.d, c.r)
            self.plans[c.label] = (plan, list(plan.rays.items()))

    def _op(self, c: Case, i: int) -> Op:
        plan, family = self.plans[c.label]
        f, sample = self.inputs[c.label][i % PHANTOM_POOL]

        def run():
            g = continuum.forward_continuous_family(f, family)
            fixed, fixed_res = continuum.iterate_recon(g, plan, f_init=f, iters=1)
            _, free_res = continuum.iterate_recon(g, plan, iters=3)
            gaps = [continuum.correction_identity_check(f, z) for z in sample]
            return fixed[1], fixed_res + free_res, gaps

        def check(out):
            refined, residuals, gaps = out
            if not all(math.isfinite(x) for x in residuals):
                raise WrongResult(f"non-finite residual in {residuals}")
            dev = max(abs(refined.get(z) - f.get(z)) for z in plan.points)
            if not dev <= self.FIXED_POINT_TOL:
                raise WrongResult(f"fixed-point deviation {dev:.3e}")
            for lhs, rhs in gaps:
                if not abs(lhs - rhs) <= self.IDENTITY_TOL * (1.0 + abs(lhs)):
                    raise WrongResult(f"correction identity gap {lhs} vs {rhs}")

        return Op(c.label, run, check)


@dataclass(frozen=True)
class Kernel:
    label: str
    call: Callable[[], Any]
    expect: int
    slots: int = 1


def _bounds(r: int, d: int) -> Callable[[], Any]:
    return lambda: counting.verify_count_bounds(r, d)


def _farey(n: int) -> Callable[[], Any]:
    return lambda: (lattice.farey_count(n), lattice.totient_sum(n))


class CountVerify(Workload):
    """Counting kernels with counts pinned on the seed commit."""

    name = "count_verify"
    CASES = (
        Kernel("bounds_d2_r8", _bounds(8, 2), 8900, slots=2),
        Kernel("bounds_d2_r12", _bounds(12, 2), 44352, slots=2),
        Kernel("bounds_d2_r16", _bounds(16, 2), 144628),
        Kernel("bounds_d3_r3", _bounds(3, 3), 5389, slots=2),
        Kernel("bounds_d3_r4", _bounds(4, 3), 24097),
        Kernel("separation_20", lambda: counting.separation_margin(20), 1),
        Kernel("farey_1000", _farey(1000), 304192, slots=2),
    )
    TINY = (
        Kernel("bounds_d2_r2", _bounds(2, 2), 40),
        Kernel("bounds_d3_r2", _bounds(2, 3), 385),
        Kernel("separation_3", lambda: counting.separation_margin(3), 1),
        Kernel("farey_20", _farey(20), 128),
    )

    def _op(self, c: Kernel, i: int) -> Op:
        def check(out):
            if isinstance(out, counting.CountReport):
                if out.count != c.expect:
                    raise WrongResult(f"count {out.count}, expected {c.expect}")
                if not (out.passed and out.lower_bound < out.count < out.upper_bound):
                    raise WrongResult(f"sandwich check failed: {out}")
            elif isinstance(out, tuple):
                if out != (c.expect, c.expect):
                    raise WrongResult(f"farey/totient {out}, expected {c.expect}")
            elif out != c.expect:
                raise WrongResult(f"got {out}, expected {c.expect}")

        return Op(c.label, c.call, check)


@dataclass(frozen=True)
class CliCase:
    label: str
    d: int
    r: int
    family: tuple[str, ...]
    weight: tuple[str, ...] = ()    # --weight flags, given to forward and recon
    annulus: tuple[int, int] | None = None


CLI_FILES = ("grid.json", "sino.json", "rec.json", "rec.csv")


class CliPipeline(Workload):
    """phantom -> forward -> recon -> export through ``lxray.cli.main``.

    The first case runs twice per pass with the same seed, in separate
    directories; the repeat fails unless every output file is
    byte-identical to the first run's.
    """

    name = "cli_pipeline"
    CASES = (
        CliCase("tstar_d2_r30", 2, 30, ("tstar",)),
        CliCase("plane_d3_r8", 3, 8, ("tstar-plane", "1,1,0", "0,1,1")),
        CliCase("annulus_d2_r30", 2, 30, ("annulus", "5", "30"), annulus=(5, 30)),
        CliCase("const2_d2_r30", 2, 30, ("tstar",), ("--weight", "const", "2")),
    )
    TINY = (
        CliCase("tstar_d2_r4", 2, 4, ("tstar",)),
        CliCase("annulus_d2_r4", 2, 4, ("annulus", "1", "4"), annulus=(1, 4)),
    )

    def __init__(self, seed: int, cases=CASES):
        super().__init__(seed, cases)
        tmp_root = ROOT / ".perfbench-tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        self.pass_dirs: list[Path] = []

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def ops(self, k: int) -> list[Op]:
        for path in self.pass_dirs:
            shutil.rmtree(path, ignore_errors=True)
        self.pass_dirs = []
        first = self.cases[0]
        order = seeded_order(self.seed, k, list(self.cases) + [None])
        # the repeat (None) must follow the run it repeats
        a, b = order.index(first), order.index(None)
        if b < a:
            order[a], order[b] = order[b], order[a]
        cli_seed = random.Random(f"{self.seed}/cli/{k}").randrange(1 << 30)
        ops, first_dir = [], None
        for c in order:
            work = Path(tempfile.mkdtemp(dir=self.tmp))
            self.pass_dirs.append(work)
            if c is None:
                ops.append(self._op(first, cli_seed, work, first_dir))
            else:
                ops.append(self._op(c, cli_seed, work, None))
                if c is first:
                    first_dir = work
        return ops

    def _op(self, c: CliCase, cli_seed: int, work: Path,
            same_as: Path | None) -> Op:
        p = {name: str(work / name) for name in CLI_FILES}
        commands = (
            ["phantom", "--kind", "random-int", "--d", str(c.d), "--r", str(c.r),
             "--seed", str(cli_seed), "--out", p["grid.json"]],
            ["forward", "--grid", p["grid.json"], "--family", *c.family,
             *c.weight, "--out", p["sino.json"]],
            ["recon", "--sino", p["sino.json"], *c.weight, "--out", p["rec.json"]],
            ["export", "--grid", p["rec.json"], "--out", p["rec.csv"]],
        )

        def run():
            for argv in commands:
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad flags this way
                    code = exc.code
                if code != 0:
                    return argv[0], code
            return None

        def check(failed_step):
            if failed_step is not None:
                raise WrongResult(f"lxray {failed_step[0]} exited {failed_step[1]}")
            grid = _json_values(p["grid.json"])
            rec = _json_values(p["rec.json"])
            targets = {z for z in grid
                       if c.annulus is None or in_annulus(z, *c.annulus)}
            if len(grid) != len(ball_points(c.d, c.r)):
                raise WrongResult("phantom does not cover the ball")
            if set(rec) != targets:
                raise WrongResult("recovered point set differs from the targets")
            if any(rec[z] != grid[z] for z in targets):
                raise WrongResult("recovered values are not bit-exact")
            if _csv_values(p["rec.csv"]) != rec:
                raise WrongResult("CSV export differs from the reconstruction")
            if same_as is not None:
                for name in CLI_FILES:
                    if (same_as / name).read_bytes() != (work / name).read_bytes():
                        raise WrongResult(f"{name} differs between identical runs")

        label = c.label + ("_repeat" if same_as is not None else "")
        return Op(label, run, check)


def _json_values(path: str) -> dict:
    with open(path) as fh:
        return {tuple(row["z"]): row["v"] for row in json.load(fh)["values"]}


def _csv_values(path: str) -> dict:
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    out = {}
    for row in rows:
        *z, v = row.split(",")
        out[tuple(int(c) for c in z)] = float(v)
    return out


WORKLOADS = {w.name: w for w in (ShellRoundtrip, ContinuumRefine, CountVerify,
                                 CliPipeline)}


def make(name: str, seed: int, tiny: bool = False):
    """The named workload with its seeded inputs; ``tiny`` selects toy sizes."""
    cls = WORKLOADS[name]
    return cls(seed, cls.TINY if tiny else cls.CASES)
