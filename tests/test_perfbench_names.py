"""The benchmark's tracer looks up lxray functions by name; check the names.

``perfbench/tracing.py`` wraps each function named in its ``SPANS`` and
``LEAVES`` tables with ``getattr`` on the defining module, so a renamed or
removed function would only fail a traced benchmark run. The tables are
read as they are, from the file. The in-memory round trips must also keep
reading their plans' compiled tables, so a change that sends them back to
the per-call forward fails here instead of only slowing the benchmark, and
their sweeps must read those tables' sinograms by position, not by key, and
their phantoms must pass ``GridFunction``'s column checks with their keys
kept, never walked point by point, and the continuum forward and rounds
must read their plans' chord tables, one pass per forward and per iterate,
and their sinograms by position.
The counting kernels' small pass runs here too, so a wrong count or
separation margin fails the suite and not only the benchmark.
"""

import importlib
import runpy
from operator import is_
from pathlib import Path

from lxray import continuum, rays, recon, transform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_every_traced_name_is_a_function_of_its_module():
    tracing = runpy.run_path(str(TRACING))
    names = []
    for table in (tracing["SPANS"], tracing["LEAVES"]):
        for home, funcs in table.items():
            module = importlib.import_module(f"lxray.{home}")
            for func in funcs:
                obj = getattr(module, func, None)
                assert callable(obj), f"lxray.{home}.{func} is gone"
                assert obj.__module__ == f"lxray.{home}", \
                    f"lxray.{home}.{func} is defined in {obj.__module__}"
                names.append(tracing["span_name"](home, func))
    assert set(tracing["PROBES"]) <= set(names)
    for module in tracing["MODULES"]:
        importlib.import_module(f"lxray.{module}")


def test_shell_round_trips_project_through_their_plans(monkeypatch):
    # weighted, annulus and general-plane cases, each on its own family
    shell = runpy.run_path(str(PERFBENCH / "workloads.py"))["ShellRoundtrip"]
    work = shell(5, shell.TINY)
    work.prepare()

    def per_call(*args):
        raise AssertionError("the forward left the plan's table")

    monkeypatch.setattr(transform, "ray_table", per_call)  # a fresh table
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in shell.TINY)
    for op in ops:
        op.check(op.run())


def test_shell_round_trips_read_their_sinograms_by_position(monkeypatch):
    # each sinogram comes from its plan's table, so the sweep looks up no key
    shell = runpy.run_path(str(PERFBENCH / "workloads.py"))["ShellRoundtrip"]
    work = shell(5, shell.TINY)
    work.prepare()

    class Unkeyed(dict):
        def get(self, *args):
            raise AssertionError("the sweep looked a datum up by key")

        __getitem__ = get

    project = transform.forward_family

    def positional(*args, **kwargs):
        g = project(*args, **kwargs)
        g.entries = Unkeyed(g.entries)
        return g

    monkeypatch.setattr(transform, "forward_family", positional)
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in shell.TINY)
    for op in ops:
        op.check(op.run())


def test_continuum_rounds_read_their_sinograms_by_position(monkeypatch):
    # the family forward and each round's corrected data are keyed by the
    # plan's keys in step order: layer_recon, iterate_recon and
    # data_residual look up no key
    refine = runpy.run_path(str(PERFBENCH / "workloads.py"))["ContinuumRefine"]
    work = refine(5, refine.TINY)
    work.prepare()

    class Unkeyed(dict):
        def get(self, *args):
            raise AssertionError("a datum was looked up by key")

        __getitem__ = get

    def unkeyed(make):
        def made(*args, **kwargs):
            g = make(*args, **kwargs)
            g.entries = Unkeyed(g.entries)
            return g
        return made

    for name in ("forward_continuous_family", "_corrected_sinogram"):
        monkeypatch.setattr(continuum, name, unkeyed(getattr(continuum, name)))
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in refine.TINY)
    for op in ops:
        op.check(op.run())
    for c in refine.TINY:
        plan, family = work.plans[c.label]
        f, _ = work.inputs[c.label][0]
        g = continuum.forward_continuous_family(f, family)
        assert continuum.data_residual(g, plan, f) == 0.0


def test_continuum_rounds_pass_over_the_chord_table_once_per_iterate(
        monkeypatch):
    # a pass is one product column over a plan's chord table: the family
    # forward makes one, each iterate_recon call one per iterate
    refine = runpy.run_path(str(PERFBENCH / "workloads.py"))["ContinuumRefine"]
    work = refine(5, refine.TINY)
    work.prepare()
    passes, calls = [], []
    column, iterate = recon.ChordTable.column, continuum.iterate_recon

    def counted_column(table, values):
        passes.append(values)
        return column(table, values)

    def counted_iterate(g, plan, f_init=None, iters=1):
        start = len(passes)
        out = iterate(g, plan, f_init=f_init, iters=iters)
        calls.append((iters, len(passes) - start))
        return out

    monkeypatch.setattr(recon.ChordTable, "column", counted_column)
    monkeypatch.setattr(continuum, "iterate_recon", counted_iterate)
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in refine.TINY)
    for op in ops:
        start = len(passes)
        op.check(op.run())
        assert len(passes) - start == 7  # the forward, then iters=1 and 3: 2 + 4
    assert calls and all(n == iters + 1 for iters, n in calls)


def test_continuum_forwards_read_the_compiled_chord_tables(monkeypatch):
    refine = runpy.run_path(str(PERFBENCH / "workloads.py"))["ContinuumRefine"]
    work = refine(5, refine.TINY)
    work.prepare()
    for plan, _ in work.plans.values():
        plan.chord_table
    real = rays.walk_cells

    def lone(ray_list, radius):
        # the correction identity walks its sample points' rays one by one
        if len(ray_list) != 1:
            raise AssertionError("a family was walked, not read off its table")
        return real(ray_list, radius)

    for mod in (rays, recon, continuum):
        monkeypatch.setattr(mod, "walk_cells", lone)
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in refine.TINY)
    for op in ops:
        op.check(op.run())


def test_benchmark_phantoms_are_checked_as_columns(monkeypatch):
    bench = runpy.run_path(str(PERFBENCH / "workloads.py"))

    def walk(*args):
        raise AssertionError("a valid grid was walked point by point")

    monkeypatch.setattr(transform.GridFunction, "_rows", walk)
    work = bench["ShellRoundtrip"](5, (bench["Case"]("d2_r60", 2, 60),))
    points = {z: z for z in work.targets["d2_r60"]}  # the workload's tuples
    for f in work.phantoms["d2_r60"]:
        assert len(f.values) == len(points)
        assert all(map(is_, f.values, map(points.__getitem__, f.values)))
        assert set(map(type, f.values.values())) == {float}


def test_count_verify_tiny_pass_checks_its_results():
    # a wrong count or separation margin fails here, not only the benchmark
    count = runpy.run_path(str(PERFBENCH / "workloads.py"))["CountVerify"]
    work = count(5, count.TINY)
    work.prepare()
    ops = work.ops(0)
    assert sorted(op.label for op in ops) == sorted(c.label for c in count.TINY)
    for op in ops:
        op.check(op.run())
