"""JSON file formats for grids and sinograms (see README.md), plus CSV
exports: compact, sorted and written atomically, so identical inputs give
byte-identical files. Rows are checked as columns; only a failing file is
walked row by row, to name its first bad row.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from fractions import Fraction
from itertools import chain, repeat
from operator import eq, gt, itemgetter

from .errors import FileFormatError, PreconditionError
from .lattice import as_fraction, ball_radius, dots, is_canonical_direction
from .rays import Ray, RayKey, ray_key, ray_keys
from .transform import FamilyMeta, GridFunction, Sinogram, finite_doubles

FAMILY_KINDS = ("tstar", "tstar_plane", "free")


def frac_str(x: Fraction) -> str:
    x = as_fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    try:
        return as_fraction(s)
    except PreconditionError as exc:
        raise FileFormatError(f"bad rational {s!r}") from exc


def _radius(d: int, r: Fraction) -> Fraction:
    """A file's support radius; a negative one is a format error."""
    try:
        return ball_radius(d, r)
    except PreconditionError as exc:
        raise FileFormatError(str(exc)) from exc


def _int_vec(obj, d: int, what: str) -> tuple[int, ...]:
    if (not isinstance(obj, list) or len(obj) != d
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in obj)):
        raise FileFormatError(f"{what} must be a list of {d} integers, got {obj!r}")
    return tuple(obj)


def _value(v) -> float:
    """A row's value as a finite double; anything else is a format error."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise FileFormatError(f"bad value {v!r}")
    try:
        x = float(v)
    except OverflowError as exc:
        raise FileFormatError(f"value {v!r} is out of double range") from exc
    if not math.isfinite(x):
        raise FileFormatError(f"non-finite value {v!r}")
    return x


def _int_vecs(vecs: list, d: int) -> bool:
    """True iff every entry is a list of d ints (no bools): ``_int_vec``'s test."""
    return (set(map(type, vecs)) <= {list} and set(map(len, vecs)) <= {d}
            and set(map(type, chain.from_iterable(vecs))) <= {int})


def _values(vs: list) -> list[float] | None:
    """The values as finite doubles if ``_value`` accepts each, else None."""
    return finite_doubles(vs) if set(map(type, vs)) <= {int, float} else None


def write_json_atomic(path: str, obj) -> None:
    """Write compact standard JSON: a non-finite float is refused, nothing written.

    No indent and no cycle check (lxray makes no cyclic object), so
    ``json`` uses its C encoder at full speed.
    """
    try:
        text = json.dumps(obj, separators=(",", ":"), sort_keys=True,
                          allow_nan=False, check_circular=False)
    except ValueError as exc:
        raise PreconditionError(f"refusing to write {path}: {exc}") from exc
    _write_text_atomic(path, text + "\n")


def read_json(path: str):
    # bad UTF-8, too many digits or too deep nesting: a format error too
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc


def grid_to_obj(f: GridFunction) -> dict:
    return {
        "d": f.d,
        "r": frac_str(f.support_radius),
        "values": [{"z": list(z), "v": f.values[z]} for z in sorted(f.values)],
    }


def obj_to_grid(obj) -> GridFunction:
    if not isinstance(obj, dict):
        raise FileFormatError("grid file must be a JSON object")
    try:
        d = obj["d"]
        r = parse_frac(obj["r"])
        rows = obj["values"]
    except KeyError as exc:
        raise FileFormatError(f"grid file missing key {exc}") from exc
    if not isinstance(d, int) or d < 2:
        raise FileFormatError(f"bad dimension {d!r}")
    r = _radius(d, r)
    if not isinstance(rows, list):
        raise FileFormatError("values must be a list")
    checked = _grid_columns(rows, d, r)
    if checked is None:  # a bad row: the row checks raise its error
        return _grid_by_rows(rows, d, r)
    return GridFunction.over_checked_points(d, r, *checked)


def _grid_columns(rows: list, d: int, r: Fraction):
    """(points, values) of rows that pass every grid check, else None."""
    if not set(map(type, rows)) <= {dict}:
        return None
    try:
        zs = list(map(itemgetter("z"), rows))
        vals = _values(list(map(itemgetter("v"), rows)))
    except KeyError:
        return None
    if vals is None or not _int_vecs(zs, d):
        return None
    points = list(map(tuple, zs))
    r2 = r * r
    if (len(set(points)) != len(points)
            or r2.denominator * max(dots(points, points), default=0) > r2.numerator):
        return None
    return points, vals


def _grid_by_rows(rows: list, d: int, r: Fraction) -> GridFunction:
    values = {}
    for row in rows:
        if not isinstance(row, dict) or "z" not in row or "v" not in row:
            raise FileFormatError(f"bad grid row {row!r}")
        z = _int_vec(row["z"], d, "z")
        if z in values:
            raise FileFormatError(f"duplicate grid point {z}")
        values[z] = _value(row["v"])
    try:
        return GridFunction(d=d, support_radius=r, values=values)
    except Exception as exc:
        raise FileFormatError(str(exc)) from exc


def meta_to_obj(meta: FamilyMeta) -> dict:
    fam: dict = {"kind": meta.kind}
    if meta.a is not None:
        fam["a"] = list(meta.a)
    if meta.b is not None:
        fam["b"] = list(meta.b)
    if meta.alpha is not None:
        fam["alpha"] = frac_str(meta.alpha)
    if meta.beta is not None:
        fam["beta"] = frac_str(meta.beta)
    if meta.support_radius is not None:
        fam["r"] = frac_str(meta.support_radius)
    return fam


def obj_to_meta(obj, d: int) -> FamilyMeta:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FileFormatError("family must be an object with a kind")
    kind = obj["kind"]
    if kind not in FAMILY_KINDS:
        raise FileFormatError(f"unknown family kind {kind!r}")
    a = _int_vec(obj["a"], d, "a") if "a" in obj else None
    b = _int_vec(obj["b"], d, "b") if "b" in obj else None
    if kind == "tstar_plane" and (a is None or b is None):
        raise FileFormatError("tstar_plane family needs both a and b")
    alpha, beta = (parse_frac(obj[k]) if k in obj else None
                   for k in ("alpha", "beta"))
    lo = alpha or 0  # no alpha: the annulus starts at 0
    if lo < 0 or beta is not None and beta < lo:
        raise FileFormatError("need 0 <= alpha <= beta")
    return FamilyMeta(
        kind=kind, a=a, b=b, alpha=alpha, beta=beta,
        support_radius=_radius(d, parse_frac(obj["r"])) if "r" in obj else None,
    )


def sino_to_obj(s: Sinogram) -> dict:
    family = sorted(s.family)
    keys = ray_keys([ray for _, ray in family])
    rows = [{"z": list(z), "dir": list(key.dir), "base": list(key.base),
             "v": s.entries[key]} for (z, _), key in zip(family, keys)]
    return {"d": s.d, "family": meta_to_obj(s.meta), "rays": rows}


def obj_to_sino(obj) -> Sinogram:
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
    meta = obj_to_meta(fam_obj, d)
    if not isinstance(rows, list):
        raise FileFormatError("rays must be a list")
    checked = _sino_columns(rows, d)
    if checked is None:  # a bad row: the row checks raise its error
        checked = _sino_by_rows(rows, d)
    entries, family = checked
    return Sinogram(d=d, entries=entries, meta=meta, family=family)


def _sino_columns(rows: list, d: int):
    """(entries, family) of rows that pass every sinogram check, else None."""
    if not rows:
        return {}, ()
    if not set(map(type, rows)) <= {dict}:
        return None
    try:
        vecs = [list(map(itemgetter(k), rows)) for k in ("z", "dir", "base")]
        vals = _values(list(map(itemgetter("v"), rows)))
    except KeyError:
        return None
    if vals is None or not _int_vecs(list(chain.from_iterable(vecs)), d):
        return None
    zs, dirs, bases = (list(map(tuple, v)) for v in vecs)
    # canonical primitive: entries of gcd 1, the first nonzero one positive
    if (set(map(math.gcd, *[map(itemgetter(k), dirs) for k in range(d)])) != {1}
            or not all(map(gt, dirs, repeat((0,) * d)))):
        return None
    # tuple.__new__ skips the named tuples' Python-level constructors
    rays = list(map(tuple.__new__, repeat(Ray), zip(bases, dirs)))
    keys = list(map(tuple.__new__, repeat(RayKey), zip(dirs, bases)))
    if ray_keys(rays) != keys:  # reduced: 0 <= base.dir < |dir|^2
        return None
    entries = dict(zip(keys, vals))
    if len(entries) < len(keys) and not all(map(eq, map(entries.get, keys), vals)):
        return None  # conflicting values for one line
    return entries, tuple(zip(zs, rays))


def _sino_by_rows(rows: list, d: int):
    entries: dict[RayKey, float] = {}
    family = []
    for row in rows:
        if not isinstance(row, dict):
            raise FileFormatError(f"bad ray row {row!r}")
        try:
            z = _int_vec(row["z"], d, "z")
            dirv = _int_vec(row["dir"], d, "dir")
            base = _int_vec(row["base"], d, "base")
            v = _value(row["v"])
        except KeyError as exc:
            raise FileFormatError(f"ray row missing key {exc}") from exc
        ray = Ray(base, dirv)
        if not is_canonical_direction(dirv) or ray_key(ray) != (dirv, base):
            raise FileFormatError(
                f"ray (dir={dirv}, base={base}) is not in reduced canonical form")
        key = RayKey(dirv, base)
        if key in entries and entries[key] != v:
            raise FileFormatError(f"conflicting values for one line at {z}")
        entries[key] = v
        family.append((z, ray))
    return entries, tuple(family)


def grid_to_csv(f: GridFunction, path: str) -> None:
    header = ",".join(f"z{i + 1}" for i in range(f.d)) + ",v"
    lines = [header]
    for z in sorted(f.values):
        lines.append(",".join(str(c) for c in z) + f",{f.values[z]!r}")
    _write_text_atomic(path, "\n".join(lines) + "\n")


def residuals_to_csv(path: str, residuals: list[float]) -> None:
    lines = ["iteration,max_abs_residual"]
    for i, res in enumerate(residuals):
        lines.append(f"{i},{res!r}")
    _write_text_atomic(path, "\n".join(lines) + "\n")


def _write_text_atomic(path: str, text: str) -> None:
    """Write text through a temporary file beside path; a path that cannot
    be written is a PreconditionError, with nothing left behind."""
    dirname = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=dirname, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise PreconditionError(f"cannot write {path}: {exc}") from exc
