"""Continuous transform of the field constant on the unit cells at lattice
points (the chord-weighted sum of cell values along a ray), the correction
identity, and layer and iterative reconstructions over the plan's chord
table; in doubles, identities to 1e-9 relative.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, repeat
from operator import add, mul, not_, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError
from .lattice import IntVec, box_ids, box_points
from .rays import (Ray, cell_chord, perp_ray, walk_box, walk_cells,
                   walk_radius)
from .recon import (ReconPlan, recon_shells, step_sums, sweep_data,
                    weighted_sweep)
from .transform import (FamilyMeta, GridFunction, Sinogram, Weight,
                        project_family)


def chord_weight() -> Weight:
    """Weight model W(z, dir) = chord of the line through z in z's own cell."""
    return lambda z, dirv: cell_chord(Ray(tuple(z), tuple(dirv)), tuple(z))


def _continuous_sums(f: GridFunction, rays: Sequence[Ray], radius: float
                     ) -> list[float]:
    """Each ray's line integral of f's cell field, the rays walked together.

    Values are looked up by cell number, so no cell tuple is made. Unset
    cells add 0.0, which leaves the double sum as it was: it starts at +0.0
    and can never become -0.0.
    """
    place, offset = walk_box(f.d, radius)
    get = dict(zip(box_ids(f.values, place, offset), f.values.values())).get
    sums = [0.0] * len(rays)
    for i, cells, chords, _ in walk_cells(rays, radius):
        sums[i] = reduce(add, map(mul, map(get, cells, repeat(0.0)), chords), 0.0)
    return sums


def forward_continuous_family(f: GridFunction,
                              family: Iterable[tuple[IntVec, Ray]],
                              meta: FamilyMeta | None = None) -> Sinogram:
    """Line integral of the piecewise-constant cell field defined by f
    along every line of the family: by the ``chord_table`` of a live plan
    of f's radius walked on these very rays, else walked together. Each
    ray's cells are walked in the ball that holds every cell meeting the
    declared support; no global cell scan."""
    radius = walk_radius(f.d, f.support_radius)
    return project_family(f, family, meta,
                          lambda rays: _continuous_sums(f, rays, radius),
                          "chord_table")


def correction_identity_check(f: GridFunction, z: IntVec,
                              ray: Ray | None = None) -> tuple[float, float]:
    """Both sides of the exact chord-correction identity along a ray
    (default: ``perp_ray(z)``), read off one walk of it: the ray's cells in
    the ball of radius r + sqrt(d), in walk order, and f's values there
    (0.0 if unset). A ray that misses the ball gives (0.0, 0.0).

    lhs: chord-weighted discrete transform of f along the ray, the sum of
    ``forward_weighted(f, ray, chord_weight())``: the walk's on-line cells
    in order, each value times W(y, dir) = cell_chord(Ray(y, dir), y), one
    double for every y with coordinates below 2^52.
    rhs: continuous transform of the cell field minus the chord
    contributions of the supported cells off the line, in sorted order.
    A cell the line meets with a positive ``cell_chord`` is one the walk
    crosses: both take the same correctly rounded cuts (k + 1/2)/p_i.
    The two agree up to double-precision roundoff.
    """
    if ray is None:
        ray = perp_ray(z)
    if set(map(len, ray)) != {f.d}:
        raise PreconditionError("ray and grid dimensions differ")
    radius = walk_radius(f.d, f.support_radius)
    walk = next(walk_cells([ray], radius), None)
    if walk is None:
        return 0.0, 0.0
    _, ids, chords, on_line = walk
    cells = list(box_points(ids, *walk_box(f.d, radius)))
    vals = list(map(f.values.get, cells, repeat(0.0)))
    zero = (0,) * f.d
    weight = cell_chord(Ray(zero, ray.dir), zero)
    lhs = sum(map(mul, repeat(weight), compress(vals, on_line)), 0.0)
    correction = 0.0
    for zeta, v in sorted(compress(zip(cells, vals), map(not_, on_line))):
        if v:
            correction += v * cell_chord(ray, zeta)
    return lhs, reduce(add, map(mul, vals, chords), 0.0) - correction


def layer_recon(g: Sinogram, plan: ReconPlan) -> GridFunction:
    """One-sweep approximate inversion of continuous cell-field data.

    The weighted shell sweep over the chord table's ``outer`` crossings:
    each update divides the datum, corrected by the chords through
    already-recovered cells of strictly larger in-plane norm, by the chord
    through the target's own cell. Cross terms from the target's shell and
    inner shells are dropped, so this is a first approximation, not an
    identity.
    """
    if plan.weight is not None:
        raise PreconditionError("layer reconstruction defines its own weight")
    table = plan.chord_table
    vals = weighted_sweep(sweep_data(g, plan), table.outer, table.outer_chords,
                          table.central)
    return GridFunction.over_checked_points(plan.d, plan.support_radius,
                                            plan.order, vals)


def _chord_sums(plan: ReconPlan, f: GridFunction
                ) -> tuple[Iterator[float], Iterator[float]]:
    """Per sweep step, the chord-weighted sum of f over all cells its ray
    crosses (A f) and over its off-line cells: one product column over the
    plan's chord table, summed lazily from +0.0 in walk order. An unset or
    zero cell adds +-0.0, which changes no such sum. f must have the plan's
    dimension and at most its radius, so its cells have the plan's chords.
    """
    if f.d != plan.d or f.support_radius > plan.support_radius:
        raise PreconditionError(
            "the residual needs f of the plan's dimension and at most its radius")
    table = plan.chord_table
    terms = table.column(f.values)
    return (step_sums(iter(terms), table.lens),
            step_sums(compress(terms, table.off_line), table.off_lens))


def _max_gap(data: list[float], model: Iterable[float]) -> float:
    """max |datum - model| from 0.0 in step order: a NaN gap never wins."""
    return max(chain((0.0,), map(abs, map(sub, data, model))))


def _corrected_sinogram(g: Sinogram, plan: ReconPlan, data: list[float],
                        off: Iterable[float]) -> Sinogram:
    """The data less an iterate's off-line chord sums, over the central
    chord (the same for every cell centered on the line): plain discrete
    transform values for the exact shell sweep.
    """
    entries = dict(zip(plan.keys, map(truediv, map(sub, data, off),
                                      plan.chord_table.central)))
    return Sinogram(d=g.d, entries=entries, meta=g.meta, family=g.family)


def data_residual(g: Sinogram, plan: ReconPlan, f: GridFunction) -> float:
    """Max |datum - continuous model of f| over the plan's rays; f must
    meet ``_chord_sums``'s contract."""
    full, _ = _chord_sums(plan, f)  # f is checked before any datum is read
    return _max_gap(sweep_data(g, plan), full)


def iterate_recon(g: Sinogram, plan: ReconPlan, f_init: GridFunction | None = None,
                  iters: int = 1) -> tuple[list[GridFunction], list[float]]:
    """Refine cell-field reconstructions by correct-then-invert rounds
    (``_corrected_sinogram``, then the shell sweep). Returns every iterate
    from the initial guess (default: the layer sweep) and their data
    residuals; convergence is reported, not asserted. A given f_init must
    meet ``data_residual``'s contract. One table pass per iterate gives
    its residual and the next round's correction.
    """
    if iters < 1:
        raise PreconditionError("need at least one iteration")
    if plan.weight is not None:
        raise PreconditionError("iterative reconstruction defines its own weight")
    current = layer_recon(g, plan) if f_init is None else f_init
    full, off = _chord_sums(plan, current)
    data = sweep_data(g, plan)
    iterates, residuals = [current], [_max_gap(data, full)]
    for _ in range(iters):
        current = recon_shells(_corrected_sinogram(g, plan, data, off), plan)
        full, off = _chord_sums(plan, current)
        iterates.append(current)
        residuals.append(_max_gap(data, full))
    return iterates, residuals
