import gc
import json
import math
import time

import pytest

import lxray.cli
import lxray.counting
import lxray.lattice
import lxray.rays
from conftest import values_equal
from lxray import io as lio
from lxray import (GridFunction, Plane, enumerate_ball, forward_family,
                   iterate_recon, make_plan, norm2, one_point_directions,
                   one_point_family)
from lxray.cli import _plan_from_sinogram, main, make_phantom
from lxray.transform import FamilyMeta


def run(args):
    return main(args)


def read_grid(path):
    return lio.obj_to_grid(lio.read_json(path))


def test_phantom_point(tmp_path):
    out = tmp_path / "g.json"
    assert run(["phantom", "--kind", "point", "--d", "2", "--r", "1",
                "--out", str(out)]) == 0
    grid = read_grid(out)
    assert grid.values == {(0, 0): 1.0}


def test_phantom_random_int_size_and_range(tmp_path):
    out = tmp_path / "g.json"
    assert run(["phantom", "--kind", "random-int", "--d", "2", "--r", "2",
                "--seed", "7", "--out", str(out)]) == 0
    grid = read_grid(out)
    assert len(grid.values) == 13
    assert all(v == int(v) and -9 <= v <= 9 for v in grid.values.values())


def test_phantom_disc_documented_default():
    grid = make_phantom("disc", 2, 8)
    assert grid.get((3, 4)) == 1.0   # norm 5 = 5r/8
    assert grid.get((0, 6)) == 0.0
    assert grid.get((0, 0)) == 1.0


def test_phantom_checker_parity():
    grid = make_phantom("checker", 2, 2)
    assert grid.get((0, 0)) == 1.0 and grid.get((1, 0)) == -1.0


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        run(["phantom", "--kind", "random-int", "--d", "2", "--r", "3",
             "--seed", "5", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
    for src, out in ((a, sa), (b, sb)):
        run(["forward", "--grid", str(src), "--family", "tstar",
             "--out", str(out)])
    assert sa.read_bytes() == sb.read_bytes()


def test_grid_file_round_trip(tmp_path):
    grid = make_phantom("random-int", 2, 3, seed=9)
    path = tmp_path / "g.json"
    lio.write_json_atomic(str(path), lio.grid_to_obj(grid))
    back = read_grid(path)
    assert back.values == grid.values
    assert back.support_radius == grid.support_radius


def test_sinogram_file_round_trip(tmp_path):
    grid = make_phantom("random-int", 2, 3, seed=10)
    from lxray import perp_family
    fam = perp_family(enumerate_ball(2, 3))
    sino = forward_family(grid, fam,
                          FamilyMeta("tstar", support_radius=grid.support_radius))
    path = tmp_path / "s.json"
    lio.write_json_atomic(str(path), lio.sino_to_obj(sino))
    back = lio.obj_to_sino(lio.read_json(str(path)))
    assert back.entries == sino.entries
    assert back.meta == sino.meta
    assert sorted(back.family) == sorted(sino.family)


def test_json_files_keep_the_checked_encoding(tmp_path):
    # the bytes of json.dumps with its cycle check on; a NaN still refused
    grid = make_phantom("random-int", 2, 6, seed=11)
    sino = forward_family(grid, make_plan(2, 6).rays.items(),
                          FamilyMeta("tstar", support_radius=grid.support_radius))
    for obj in (lio.grid_to_obj(grid), lio.sino_to_obj(sino)):
        path = tmp_path / "out.json"
        lio.write_json_atomic(str(path), obj)
        assert path.read_bytes() == (json.dumps(
            obj, separators=(",", ":"), sort_keys=True, allow_nan=False)
            + "\n").encode()
        obj["values" if "values" in obj else "rays"][-1]["v"] = math.nan
        bad = tmp_path / "bad.json"
        with pytest.raises(lxray.PreconditionError, match="refusing to write"):
            lio.write_json_atomic(str(bad), obj)
        assert not bad.exists() and list(tmp_path.iterdir()) == [path]


def test_pipeline_matches_in_process(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "4",
         "--seed", "3", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 0
    assert values_equal(read_grid(r), read_grid(g))


def test_pipeline_plane_family(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "3", "--r", "3",
         "--seed", "4", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar-plane", "1,1,0",
         "0,1,1", "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 0
    assert values_equal(read_grid(r), read_grid(g))


def test_forward_point_phantom_single_hit(tmp_path):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "point", "--d", "2", "--r", "2", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    sino = lio.obj_to_sino(lio.read_json(str(s)))
    nonzero = [v for v in sino.entries.values() if v != 0.0]
    assert nonzero == [1.0]


def test_forward_zero_grid_all_zero(tmp_path):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    zero = GridFunction(2, 2, {z: 0.0 for z in enumerate_ball(2, 2)})
    lio.write_json_atomic(str(g), lio.grid_to_obj(zero))
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    sino = lio.obj_to_sino(lio.read_json(str(s)))
    assert all(v == 0.0 for v in sino.entries.values())


def test_forward_annulus_restricts_rays(tmp_path):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "4",
         "--seed", "6", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "annulus", "2", "4",
         "--out", str(s)])
    sino = lio.obj_to_sino(lio.read_json(str(s)))
    zs = [z for z, _ in sino.family]
    assert zs and all(4 <= norm2(z) <= 16 for z in zs)


def test_annulus_beta_below_radius_exit_code(tmp_path, capsys):
    # forward refuses the family no recon could invert, and writes nothing
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "4",
         "--seed", "6", "--out", str(g)])
    assert run(["forward", "--grid", str(g), "--family", "annulus", "1", "3",
                "--out", str(s)]) == 2
    assert ("annulus outer bound 3 is below the support radius 4"
            in capsys.readouterr().err)
    assert not s.exists()
    # recon keeps its own refusal for a file written before that check
    _, s = _forward_file(tmp_path, 2, 4, ["annulus", "1", "4"])
    obj = json.loads(s.read_text())
    obj["family"]["beta"] = "3"
    s.write_text(json.dumps(obj))
    r = tmp_path / "r.json"
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 2
    assert "below the support radius 4" in capsys.readouterr().err
    assert not r.exists()


def test_recon_inverts_an_alpha_only_annulus_file(tmp_path):
    # an annulus file with its outer bound removed still bounds the plan
    # from inside: recon inverts it bit-exactly over the same targets
    g, s = _forward_file(tmp_path, 2, 4, ["annulus", "2", "4"])
    obj = json.loads(s.read_text())
    del obj["family"]["beta"]
    s.write_text(json.dumps(obj))
    r = tmp_path / "r.json"
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 0
    got, want = read_grid(r).values, read_grid(g).values
    assert got and all(4 <= norm2(z) for z in got)
    assert {z: v.hex() for z, v in got.items()} == \
        {z: want[z].hex() for z in got}


def test_weighted_pipeline(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "3",
         "--seed", "8", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--weight",
         "cell-chord", "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--weight", "cell-chord",
                "--out", str(r)]) == 0
    got, want = read_grid(r), read_grid(g)
    worst = max(abs(got.get(z) - want.get(z)) for z in want.values)
    assert worst <= 1e-9


def test_const_weight_pipeline(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "3",
         "--seed", "14", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--weight",
         "const", "2.0", "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--weight", "const", "2.0",
                "--out", str(r)]) == 0
    assert values_equal(read_grid(r), read_grid(g))


@pytest.mark.parametrize("c", ["inf", "nan", "1e400"])
def test_non_finite_const_weight_exit_code(tmp_path, c):
    # an infinite weight would turn every recovered value into 0.0
    g, s, out = (tmp_path / n for n in ("g.json", "s.json", "out.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "3",
         "--seed", "14", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    assert run(["forward", "--grid", str(g), "--family", "tstar", "--weight",
                "const", c, "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["recon", "--sino", str(s), "--weight", "const", c,
                "--out", str(out)]) == 2
    assert not out.exists()


def _one_point_files(tmp_path):
    """A one-point sinogram of a random-int d=2 r=3 grid and its direction
    file; returns the grid and both paths."""
    grid = make_phantom("random-int", 2, 3, seed=12)
    pts = enumerate_ball(2, 3)
    dirs = one_point_directions(pts, 3)
    sino = forward_family(grid, one_point_family(pts, dirs),
                          FamilyMeta("free", support_radius=grid.support_radius))
    s, dirfile = tmp_path / "op.json", tmp_path / "dirs.json"
    lio.write_json_atomic(str(s), lio.sino_to_obj(sino))
    lio.write_json_atomic(str(dirfile),
                          [{"z": list(z), "dir": list(t)} for z, t in dirs.items()])
    return grid, s, dirfile


def test_one_point_pipeline(tmp_path):
    grid, s, dirfile = _one_point_files(tmp_path)
    r = tmp_path / "r.json"
    assert run(["recon", "--sino", str(s), "--one-point", str(dirfile),
                "--out", str(r)]) == 0
    assert values_equal(read_grid(r), grid)


@pytest.mark.parametrize("weight", [[], ["--weight", "const", "2.5"]],
                         ids=["plain", "const-2.5"])
def test_a_one_point_file_inverts_without_its_direction_file(tmp_path, weight):
    # its rows hold rays based off their points; the plan compiles them
    _, s, dirfile = _one_point_files(tmp_path)
    op, plain = tmp_path / "op.out.json", tmp_path / "plain.out.json"
    assert run(["recon", "--sino", str(s), "--one-point", str(dirfile),
                *weight, "--out", str(op)]) == 0
    assert run(["recon", "--sino", str(s), *weight, "--out", str(plain)]) == 0
    assert plain.read_bytes() == op.read_bytes()


def test_one_point_recon_reads_a_declared_radius_of_zero(tmp_path, capsys):
    # Fraction(0) is falsy: it must not fall back to the points' radius 3
    _, s, dirfile = _one_point_files(tmp_path)
    obj = json.loads(s.read_text())
    obj["family"]["r"] = "0"
    s.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert run(["recon", "--sino", str(s), "--one-point", str(dirfile),
                "--out", str(out)]) == 2
    assert "target (-3, 0) outside the support ball" in capsys.readouterr().err
    assert not out.exists()


def test_iterate_pipeline_writes_residuals(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    res = tmp_path / "res.csv"
    run(["phantom", "--kind", "disc", "--d", "2", "--r", "4", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--continuous",
         "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--iterate", "3", "--out", str(r),
                "--residuals", str(res)]) == 0
    lines = res.read_text().strip().splitlines()
    assert lines[0] == "iteration,max_abs_residual"
    assert len(lines) == 4  # header + one row per computed iterate
    read_grid(r)  # parses as a grid file


def test_iterate_refuses_a_radius_past_the_doubles(tmp_path, capsys):
    # the cell walk runs in doubles: 1e400 has no float, so exit 2
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--r", "3", "--seed", "2",
         "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--iterate", "1", "--r", "1e400",
                "--out", str(r)]) == 2
    assert "too large" in capsys.readouterr().err
    assert not r.exists()


@pytest.mark.parametrize("mode", [["--iterate", "1"], ["--weight", "cell-chord"]],
                         ids=["iterate", "cell-chord"])
def test_recon_refuses_a_ray_past_the_doubles(tmp_path, mode, capsys):
    # a direction no double holds: the walk and the chord refuse it, exit 2
    s, r = tmp_path / "s.json", tmp_path / "r.json"
    lio.write_json_atomic(s, {"d": 2, "family": {"kind": "free", "r": "1"},
                              "rays": [{"z": [0, 0], "dir": [10 ** 400, 1],
                                        "base": [0, 0], "v": 1.0}]})
    assert run(["recon", "--sino", str(s), *mode, "--out", str(r)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "too large" in line
    assert not r.exists()


def test_iterate_writes_min_residual_iterate(tmp_path):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    res = tmp_path / "res.csv"
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "8",
         "--seed", "3", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--continuous",
         "--out", str(s)])
    assert run(["recon", "--sino", str(s), "--iterate", "4", "--out", str(r),
                "--residuals", str(res)]) == 0
    rows = [float(line.split(",")[1])
            for line in res.read_text().strip().splitlines()[1:]]
    iterates, residuals = iterate_recon(
        lio.obj_to_sino(lio.read_json(str(s))), make_plan(2, 8), iters=4)
    assert rows == residuals[1:]
    best = 1 + rows.index(min(rows))
    assert best != len(rows)  # residuals grow here: the last is not the best
    assert read_grid(r).values == iterates[best].values


def test_export_csv(tmp_path):
    g, c = tmp_path / "g.json", tmp_path / "g.csv"
    run(["phantom", "--kind", "point", "--d", "2", "--r", "1", "--out", str(g)])
    assert run(["export", "--grid", str(g), "--out", str(c)]) == 0
    assert c.read_text() == "z1,z2,v\n0,0,1.0\n"


def test_empty_sinogram_empty_plan(tmp_path):
    s, r = tmp_path / "s.json", tmp_path / "r.json"
    s.write_text(json.dumps({"d": 2, "family": {"kind": "free"}, "rays": []}))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 0
    assert read_grid(r).values == {}


def test_malformed_file_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out.json"
    assert run(["forward", "--grid", str(bad), "--family", "tstar",
                "--out", str(out)]) == 4
    notagrid = tmp_path / "notagrid.json"
    notagrid.write_text(json.dumps({"d": 2, "values": []}))
    assert run(["forward", "--grid", str(notagrid), "--family", "tstar",
                "--out", str(out)]) == 4


@pytest.mark.parametrize("family", [["tstar"],
                                    ["tstar-plane", "1,1,0", "0,1,1"]])
def test_wrong_family_ray_exit_code(tmp_path, family, capsys):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    d = 2 if len(family) == 1 else 3
    run(["phantom", "--kind", "random-int", "--d", str(d), "--r", "2",
         "--seed", "9", "--out", str(g)])
    assert run(["forward", "--grid", str(g), "--family", *family,
                "--out", str(s)]) == 0
    text = s.read_text()
    e1, e2 = [1, 0] + [0] * (d - 2), [0, 1] + [0] * (d - 2)
    # valid reduced lines, each failing one clause of the family predicate
    spoils = [
        ([0] * d, e2, [0] * d),  # the origin row off its fixed axis
        (e1, e2, [0] * d),  # based off z
        (e1, [1, 1] + [0] * (d - 2), e1),  # based at z, z.dir = 1
    ]
    if d == 3:  # normal to z, based at z, out of the plane
        spoils.append((e1, [0, 0, 1], e1))
    for z, dirv, base in spoils:
        obj = json.loads(text)
        row = next(row for row in obj["rays"] if row["z"] == z)
        row["dir"], row["base"] = dirv, base
        s.write_text(json.dumps(obj))
        assert run(["recon", "--sino", str(s), "--out", str(r)]) == 4
        assert "is not its tstar" in capsys.readouterr().err
    assert not r.exists()


@pytest.mark.parametrize("kind", ["tstar", "free"])
@pytest.mark.parametrize("dirv", [[0, 0], [0, -1], [0, 2]])
def test_non_canonical_direction_exit_code(tmp_path, kind, dirv, capsys):
    # a zero direction used to end in ZeroDivisionError (exit 1), a
    # non-canonical one in a free file in "no sinogram entry" (exit 2)
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "2",
         "--seed", "9", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    obj = json.loads(s.read_text())
    obj["family"]["kind"] = kind
    row = next(row for row in obj["rays"] if row["z"] == [1, 0])
    row["dir"] = dirv  # base (1, 0) has base.dir = 0 for each
    s.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 4
    assert "reduced canonical form" in capsys.readouterr().err
    assert not r.exists()


def _forward_file(tmp_path, d, r, family, seed=11):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "random-int", "--d", str(d), "--r", str(r),
         "--seed", str(seed), "--out", str(g)])
    assert run(["forward", "--grid", str(g), "--family", *family,
                "--out", str(s)]) == 0
    return g, s


def test_free_perpendicular_file_reconstructs_bit_exactly(tmp_path):
    g, s = _forward_file(tmp_path, 2, 5, ["tstar"])
    free, r, rf = (tmp_path / n for n in ("free.json", "r.json", "rf.json"))
    obj = json.loads(s.read_text())
    obj["family"]["kind"] = "free"
    free.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 0
    assert run(["recon", "--sino", str(free), "--out", str(rf)]) == 0
    assert rf.read_bytes() == r.read_bytes()
    assert read_grid(rf).values == read_grid(g).values


def test_recon_time_is_bounded_by_the_file_not_the_radius(tmp_path):
    # a 29-row r=3 file declared (or flagged) at r = 1e8: the plan walks
    # each ray only as far as the file's farthest point
    _, s = _forward_file(tmp_path, 2, 3, ["tstar"])
    near, far = tmp_path / "near.json", tmp_path / "far.json"
    obj = json.loads(s.read_text())
    assert len(obj["rays"]) == 29
    obj["family"]["r"] = "100000000"
    far.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(s), "--out", str(near)]) == 0
    want = lio.read_json(str(near))["values"]
    for sino, flags in ((far, []), (s, ["--r", "100000000"])):
        out = tmp_path / "out.json"
        t0 = time.perf_counter()
        assert run(["recon", "--sino", str(sino), *flags, "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 1.0
        got = lio.read_json(str(out))
        assert got["r"] == "100000000" and got["values"] == want


def test_a_declared_ball_past_the_budget_is_refused_at_once(tmp_path, capsys):
    # a 29-row r=3 grid declared at r = 1e400: forward used to enumerate the
    # declared ball without end; now it exits 3 and writes nothing
    g, _ = _forward_file(tmp_path, 2, 3, ["tstar"])
    obj = json.loads(g.read_text())
    assert len(obj["values"]) == 29
    obj["r"] = "1e400"
    big, out = tmp_path / "big.json", tmp_path / "out.json"
    big.write_text(json.dumps(obj))
    for flags in ([], ["--continuous"], ["--weight", "const", "2"]):
        t0 = time.perf_counter()
        assert run(["forward", "--grid", str(big), "--family", "tstar", *flags,
                    "--out", str(out)]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert not out.exists()
    assert run(["phantom", "--kind", "disc", "--r", "1e400",
                "--out", str(out)]) == 3
    assert not out.exists()
    assert "exceed the budget" in capsys.readouterr().err
    assert run(["export", "--grid", str(big), "--out", str(out)]) == 0


@pytest.mark.parametrize("d, r, family, plane, annulus", [
    (2, 5, ["tstar"], None, None),
    (3, 3, ["tstar-plane", "1,1,0", "0,1,1"], Plane((1, 1, 0), (0, 1, 1)), None),
    (2, 5, ["annulus", "2", "5"], None, (2, 5)),
])
def test_plan_from_sinogram_is_the_default_plan(tmp_path, d, r, family, plane,
                                                 annulus):
    _, s = _forward_file(tmp_path, d, r, family)
    got = _plan_from_sinogram(lio.obj_to_sino(lio.read_json(str(s))))
    alpha, beta = annulus or (None, None)
    want = make_plan(d, r, plane=plane, alpha=alpha, beta=beta)
    for name in ("order", "keys", "steps", "rays"):
        assert getattr(got, name) == getattr(want, name)


def test_recon_never_solves_a_ray(tmp_path, monkeypatch):
    # the plan's rays are the file's: no family ray and no primitive()
    sinos = []
    for name, d, family in (("c", 2, ["tstar"]),
                            ("p", 3, ["tstar-plane", "1,1,0", "0,1,1"])):
        (tmp_path / name).mkdir()
        sinos.append(_forward_file(tmp_path / name, d, 3, family)[1])

    def forbidden(*args):
        raise AssertionError("recon solved a ray")
    for mod in (lxray.rays, lxray.lattice):
        monkeypatch.setattr(mod, "primitive", forbidden)
    monkeypatch.setattr(lxray.rays, "perp_ray", forbidden)
    for mod in (lxray.cli, lxray.recon):
        monkeypatch.setattr(mod, "perp_family", forbidden)
    for s in sinos:
        assert run(["recon", "--sino", str(s), "--out", str(s) + ".r"]) == 0


def test_count_farey_counts_once(monkeypatch, capsys):
    calls = []
    real = lxray.cli.farey_count

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in (lxray.cli, lxray.counting, lxray.lattice):
        if hasattr(mod, "farey_count"):
            monkeypatch.setattr(mod, "farey_count", counted)
    assert run(["count", "farey", "--n", "30"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(calls) == 1 and payload["count"] == 278
    assert payload["asymptotic_ratio"] == 278 * math.pi ** 2 / (3.0 * 30 * 30)


def test_count_farey_at_the_budget_boundary(capsys):
    # the last level whose tuple count fits the budget, then one more
    assert run(["count", "farey", "--n", "10953"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["oracle_match"] is True
    assert run(["count", "farey", "--n", "10954"]) == 3
    assert "budget" in capsys.readouterr().err


def test_budget_exit_code():
    assert run(["count", "tmin", "--r", "20", "--budget", "10"]) == 3


@pytest.mark.parametrize("argv", [
    ["count", "tmin", "--r", "3000"],
    ["count", "bounds", "--r", "3000"],
    ["count", "separation", "--R", "3000"],
    ["count", "farey", "--n", "10000000000"],
])
def test_count_budget_refuses_large_inputs(argv, capsys):
    assert run(argv) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["count", "tmin", "--d", "1000", "--r", "1"], 3),
    (["count", "bounds", "--d", "1000", "--r", "1"], 3),
    (["count", "separation", "--d", "1000", "--R", "1"], 0),
])
def test_count_in_a_thousand_dimensions(argv, code, capsys):
    # the ball is counted and listed a coordinate at a time, not by a
    # recursion one call deep per coordinate
    assert run(argv) == code
    out = capsys.readouterr()
    if code == 3:
        assert "lens steps exceed the budget" in out.err
    else:
        assert json.loads(out.out.strip().splitlines()[-1])["margin"] == 1


@pytest.mark.parametrize("argv, code", [
    (["count", "tmin", "--r", "1", "--d", "1000000000"], 3),
    (["count", "separation", "--R", "1", "--d", "1000000000"], 3),
    (["count", "tmin", "--r", "0", "--d", "200000"], 0),
    (["count", "separation", "--R", "0", "--d", "200000"], 2),
    (["count", "tmin", "--r", "1", "--d", "2000001"], 3),
])
def test_count_takes_no_step_per_coordinate_the_ball_decides(argv, code, capsys):
    # the origin alone fixes every coordinate, and the unit vectors alone
    # pass the budget: neither waits for a coordinate-by-coordinate count
    t0 = time.perf_counter()
    assert run(argv) == code
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    if code == 0:
        assert json.loads(out.out.strip().splitlines()[-1])["count"] == 0
    elif code == 3:
        assert "exceed the budget" in out.err


def test_count_time_is_bounded_by_the_ball_not_the_dimension(capsys):
    # r = 1/2 in 4000 dimensions: the ball is the origin, and the unit
    # vectors, one orbit, are the only directions of norm <= 2r
    t0 = time.perf_counter()
    assert run(["count", "tmin", "--r", "1/2", "--d", "4000"]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "count"] == 0


def test_bad_flags_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["phantom", "--kind", "nonsense", "--r", "1", "--out", "x.json"])
    assert exc.value.code == 2


def test_dependent_plane_vectors_exit_code(tmp_path):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "point", "--d", "3", "--r", "1", "--out", str(g)])
    assert run(["forward", "--grid", str(g), "--family", "tstar-plane",
                "1,0,0", "2,0,0", "--out", str(s)]) == 2


def test_count_commands(tmp_path, capsys):
    assert run(["count", "tmin", "--r", "1"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["count"] == 6
    assert run(["count", "farey", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["count"] == 4 and payload["oracle_match"]
    assert run(["count", "separation", "--R", "5"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["passed"] and payload["margin"] == 1
    assert run(["count", "bounds", "--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["passed"] and payload["lower_bound"] < payload["count"]


@pytest.mark.parametrize("bad", ["abc", "1/0"])
@pytest.mark.parametrize("argv", [
    ["phantom", "--kind", "point", "--r", "{}", "--out", "{grid}"],
    ["count", "tmin", "--r", "{}"],
    ["count", "bounds", "--r", "{}"],
    ["count", "separation", "--R", "{}"],
    ["recon", "--sino", "{sino}", "--r", "{}", "--out", "{grid}"],
    ["forward", "--grid", "{grid}", "--family", "annulus", "1", "{}",
     "--out", "{sino}"],
    ["forward", "--grid", "{grid}", "--family", "annulus", "{}", "2",
     "--out", "{sino}"],
])
def test_bad_rational_flag_exit_code(tmp_path, argv, bad):
    grid, sino = tmp_path / "g.json", tmp_path / "s.json"
    run(["phantom", "--kind", "point", "--r", "2", "--out", str(grid)])
    run(["forward", "--grid", str(grid), "--family", "tstar", "--out", str(sino)])
    argv = [a.format(bad, grid=grid, sino=sino) for a in argv]
    assert run(argv) == 2


def test_bad_rational_in_file_exit_code(tmp_path):
    g, out = tmp_path / "g.json", tmp_path / "out.json"
    g.write_text(json.dumps({"d": 2, "r": "1/0", "values": []}))
    assert run(["export", "--grid", str(g), "--out", str(out)]) == 4


def test_phantom_dimension_one_exit_code(tmp_path):
    out = tmp_path / "g.json"
    assert run(["phantom", "--kind", "point", "--d", "1", "--r", "1",
                "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400",
                                 pytest.param("1" + "0" * 400, id="10**400")])
def test_non_finite_grid_value_exit_code(tmp_path, bad):
    g, s, out = (tmp_path / n for n in ("g.json", "s.json", "out.csv"))
    g.write_text('{"d": 2, "r": "1", "values": [{"z": [0, 0], "v": %s}]}' % bad)
    assert run(["forward", "--grid", str(g), "--family", "tstar",
                "--out", str(s)]) == 4
    assert run(["export", "--grid", str(g), "--out", str(out)]) == 4
    assert not s.exists() and not out.exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "1e400"])
def test_non_finite_sinogram_value_exit_code(tmp_path, bad):
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    run(["phantom", "--kind", "random-int", "--d", "2", "--r", "2",
         "--seed", "2", "--out", str(g)])
    run(["forward", "--grid", str(g), "--family", "tstar", "--out", str(s)])
    obj = json.loads(s.read_text())
    obj["rays"][0]["v"] = "@"
    s.write_text(json.dumps(obj).replace('"@"', bad))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 4
    assert not r.exists()


def test_overflowing_forward_is_not_written(tmp_path):
    g, s = tmp_path / "g.json", tmp_path / "s.json"
    big = GridFunction(2, 1, {(-1, 0): 1e308, (0, 0): 1e308, (1, 0): 1e308})
    lio.write_json_atomic(str(g), lio.grid_to_obj(big))
    assert run(["forward", "--grid", str(g), "--family", "tstar",
                "--out", str(s)]) == 2
    assert not s.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["g.json"]


def test_overflowing_sweep_is_not_written(tmp_path):
    # finite data whose sweep overflows: 1e308 - (-1e308) - (-1e308) = inf
    g, s, r = (tmp_path / n for n in ("g.json", "s.json", "r.json"))
    lio.write_json_atomic(str(g), lio.grid_to_obj(GridFunction(2, 1)))
    assert run(["forward", "--grid", str(g), "--family", "tstar",
                "--out", str(s)]) == 0
    obj = json.loads(s.read_text())
    for row in obj["rays"]:
        row["v"] = 1e308 if row["z"] == [0, 0] else -1e308
    s.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json", "s.json"]


def test_negative_support_radius_exit_code(tmp_path):
    # a negative radius is refused from a flag (exit 2) and from a grid or
    # sinogram file (exit 4), before anything is written
    g, s = _forward_file(tmp_path, 2, 3, ["tstar"])
    bad_g, bad_s, r, c = (tmp_path / n for n in ("bg.json", "bs.json",
                                                 "r.json", "g.csv"))
    assert run(["phantom", "--kind", "point", "--r", "-3", "--out", str(r)]) == 2
    assert run(["recon", "--sino", str(s), "--r", "-3", "--out", str(r)]) == 2
    bad_g.write_text(json.dumps(dict(json.loads(g.read_text()), r="-3")))
    assert run(["export", "--grid", str(bad_g), "--out", str(c)]) == 4
    assert run(["forward", "--grid", str(bad_g), "--family", "tstar",
                "--out", str(r)]) == 4
    obj = json.loads(s.read_text())
    obj["family"]["r"] = "-4"
    bad_s.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(bad_s), "--out", str(r)]) == 4
    assert not r.exists() and not c.exists()


@pytest.mark.parametrize("flags, ignored", [
    (["--sino", "{tstar}", "--iterate", "2", "--weight", "const", "2"],
     "--weight"),
    (["--sino", "{tstar}", "--residuals", "{res}"], "--residuals"),
    (["--sino", "{one_point}", "--one-point", "{dirs}", "--iterate", "2"],
     "--one-point"),
], ids=["iterate-with-weight", "residuals-without-iterate",
        "one-point-with-iterate"])
def test_recon_refuses_flags_it_would_ignore(tmp_path, flags, ignored, capsys):
    _, tstar = _forward_file(tmp_path, 2, 3, ["tstar"])
    _, one_point, dirs = _one_point_files(tmp_path)
    out = tmp_path / "r.json"
    before = sorted(tmp_path.iterdir())
    argv = [f.format(tstar=tstar, one_point=one_point, dirs=dirs,
                     res=tmp_path / "res.csv") for f in flags]
    assert run(["recon", *argv, "--out", str(out)]) == 2
    assert ignored in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("alpha, beta", [("5", "4"), ("-1", "4")])
def test_inverted_annulus_in_file_exit_code(tmp_path, alpha, beta, capsys):
    _, s = _forward_file(tmp_path, 2, 4, ["annulus", "2", "4"])
    r = tmp_path / "r.json"
    obj = json.loads(s.read_text())
    obj["family"].update(alpha=alpha, beta=beta)
    s.write_text(json.dumps(obj))
    assert run(["recon", "--sino", str(s), "--out", str(r)]) == 4
    assert "alpha" in capsys.readouterr().err
    assert not r.exists()


@pytest.fixture
def collector():
    """Sets the caller's collector on or off; restores it on the way out."""
    was = gc.isenabled()

    def set_to(on):
        (gc.enable if on else gc.disable)()

    yield set_to
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("argv", [
    ["phantom", "--kind", "point", "--r", "1", "--out", "g.json"],
    ["forward", "--grid", "g.json", "--family", "tstar", "--out", "s.json"],
    ["recon", "--sino", "s.json", "--out", "r.json"],
    ["export", "--grid", "r.json", "--out", "r.csv"],
    ["count", "farey", "--n", "3"],
])
def test_each_command_runs_with_the_collector_paused(argv, collector,
                                                     monkeypatch):
    seen = []

    def record(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setattr(lxray.cli, f"cmd_{argv[0]}", record)
    collector(True)
    assert run(argv) == 0
    assert seen == [False] and gc.isenabled()


def _failing_command(args):
    raise RuntimeError("not an lxray error")


@pytest.mark.parametrize("on", [True, False])
def test_main_restores_the_callers_collector(tmp_path, on, collector,
                                             monkeypatch, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv, code in [
            (["count", "farey", "--n", "3"], 0),
            (["count", "farey", "--n", "0"], 2),
            (["count", "tmin", "--r", "20", "--budget", "10"], 3),
            (["export", "--grid", str(bad), "--out", str(tmp_path / "x")], 4)]:
        collector(on)
        assert run(argv) == code
        assert gc.isenabled() == on
    collector(on)
    with pytest.raises(SystemExit) as exc:
        run(["count", "farey", "--n", "three"])
    assert exc.value.code == 2 and gc.isenabled() == on
    monkeypatch.setattr(lxray.cli, "cmd_count", _failing_command)
    with pytest.raises(RuntimeError, match="not an lxray error"):
        run(["count", "farey", "--n", "3"])
    assert gc.isenabled() == on


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    # what the pause relies on: reference counting frees all a command
    # makes, on success and on error exits alike
    grid, sino, csino = (str(tmp_path / n) for n in ("g.json", "s.json", "c.json"))
    out = str(tmp_path / "out.json")
    _, opsino, dirfile = _one_point_files(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv, code in [
            (["phantom", "--kind", "random-int", "--d", "2", "--r", "6",
              "--seed", "4", "--out", grid], 0),
            (["forward", "--grid", grid, "--family", "tstar", "--out", sino], 0),
            (["forward", "--grid", grid, "--family", "tstar", "--weight",
              "const", "2", "--out", out], 0),
            (["forward", "--grid", grid, "--family", "tstar", "--continuous",
              "--out", csino], 0),
            (["recon", "--sino", sino, "--out", out], 0),
            (["recon", "--sino", sino, "--weight", "const", "2", "--out", out], 0),
            (["recon", "--sino", csino, "--iterate", "2", "--out", out], 0),
            (["recon", "--sino", str(opsino), "--one-point", str(dirfile),
              "--out", out], 0),
            (["export", "--grid", grid, "--out", str(tmp_path / "g.csv")], 0),
            (["count", "tmin", "--r", "3"], 0),
            (["count", "farey", "--n", "20"], 0),
            (["count", "separation", "--R", "4"], 0),
            (["count", "bounds", "--r", "3"], 0),
            (["recon", "--sino", str(bad), "--out", out], 4),
            (["recon", "--sino", sino, "--weight", "const", "0", "--out", out], 2),
            (["count", "tmin", "--r", "20", "--budget", "10"], 3)]:
        gc.collect()
        assert run(argv) == code
        assert gc.collect() == 0, argv
