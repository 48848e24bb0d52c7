"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces chosen lxray functions, in every lxray
module that holds them, with wrappers that record spans (name, start, end,
parent, operation id) or, for leaf calls made more than ~1e4 times per
operation, a counter plus accumulated time keyed by the enclosing span.
Because module globals are patched, calls inside one module
(``recon_annulus`` -> ``recon_shells``) are seen too. Nothing under
``src/`` changes; the originals are restored on exit.

A span's self time is its duration minus the time of its child spans and
of the leaf calls made directly under it.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("lattice", "rays", "transform", "recon", "continuum", "counting",
           "io", "cli")

# defining module -> functions recorded as spans
SPANS = {
    "lattice": ("enumerate_ball", "build_shells", "farey_count", "totient_sum"),
    "rays": ("perp_family",),
    "transform": ("forward_family",),
    "recon": ("make_plan", "recon_shells", "recon_annulus",
              "recon_shells_weighted"),
    "continuum": ("forward_continuous_family", "layer_recon", "iterate_recon",
                  "correction_identity_check"),
    "counting": ("verify_count_bounds", "count_connecting_lines",
                 "canonical_primitives", "separation_margin"),
    "io": ("write_json_atomic", "read_json", "grid_to_obj", "obj_to_grid",
           "sino_to_obj", "obj_to_sino", "grid_to_csv"),
    "cli": ("main", "cmd_phantom", "cmd_forward", "cmd_recon", "cmd_export"),
}
# defining module -> hot leaf functions kept as counters
LEAVES = {
    "lattice": ("primitive",),
    "rays": ("points_on_ray", "ray_key"),
}


def _iterate_attrs(args, kwargs, result):
    iterates, residuals = result
    attrs = {"rounds": len(iterates) - 1}
    f_init = args[2] if len(args) > 2 else kwargs.get("f_init")
    if f_init is None and residuals[0] > 0:
        attrs["growth"] = residuals[-1] / residuals[0]
    return attrs


# span name -> attributes read from the call's arguments and result
PROBES = {
    "lattice.enumerate_ball": lambda a, k, r: {"points": len(r)},
    "recon.make_plan": lambda a, k, r: {
        "points": len(r.points),
        "shells": sum(len(dec) for dec in r.slices.values())},
    "transform.forward_family": lambda a, k, r: {"rays": len(r.entries)},
    "recon.recon_shells": lambda a, k, r: {"points": len(r.values)},
    "continuum.iterate_recon": _iterate_attrs,
    "counting.count_connecting_lines": lambda a, k, r: {"lines": r},
    "counting.canonical_primitives": lambda a, k, r: {"prims": len(r)},
    "io.write_json_atomic": lambda a, k, r: {
        "bytes": os.path.getsize(a[0] if a else k["path"])},
}


def span_name(module: str, func: str) -> str:
    return f"{module}.{func.removeprefix('cmd_')}"


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child_s", "children",
                 "attrs")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.child_s = 0.0
        self.children = []
        self.attrs = {}


class Tracer:
    """Spans and leaf counters of traced segments, kept in memory."""

    def __init__(self):
        self.op = None
        self.segments = []      # (spans, leaves) per traced segment
        self._stack = []
        self._spans = []
        self._leaves = {}

    def begin_segment(self) -> None:
        self._spans = []
        # (leaf name, enclosing span name) -> [calls, seconds, points]
        self._leaves = defaultdict(lambda: [0, 0.0, 0])
        self.segments.append((self._spans, self._leaves))

    @contextmanager
    def installed(self):
        lx = [importlib.import_module("lxray")] + [
            importlib.import_module(f"lxray.{m}") for m in MODULES]
        saved = []
        try:
            for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
                for home, funcs in table.items():
                    home_mod = importlib.import_module(f"lxray.{home}")
                    for func in funcs:
                        orig = getattr(home_mod, func)
                        wrapped = make(span_name(home, func), orig)
                        for mod in lx:
                            if getattr(mod, func, None) is orig:
                                saved.append((mod, func, orig))
                                setattr(mod, func, wrapped)
            yield self
        finally:
            for mod, func, orig in reversed(saved):
                setattr(mod, func, orig)

    def _span(self, name, fn):
        stack = self._stack
        probe = PROBES.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, self.op, parent)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                    parent.children.append(span)
                self._spans.append(span)
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        stack = self._stack
        sized = name == "rays.points_on_ray"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            parent = stack[-1] if stack else None
            entry = self._leaves[name, parent.name if parent else ""]
            entry[0] += 1
            entry[1] += dt
            if sized:
                entry[2] += len(result)
            if parent is not None:
                parent.child_s += dt
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every recorded span as [name, start, end, parent, op]."""
        rows = []
        for spans, _ in self.segments:
            index = {id(s): i for i, s in enumerate(spans, start=len(rows))}
            rows.extend([s.name, s.start, s.end,
                         index.get(id(s.parent)), s.op] for s in spans)
        with open(path, "w") as fh:
            json.dump(rows, fh)


def segment_metrics(spans, leaves) -> dict:
    """Per-layer metrics of one traced segment, by metric name."""
    total = defaultdict(float)
    own = defaultdict(float)
    attr = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        dur = s.end - s.start
        total[s.name] += dur
        own[s.name] += dur - s.child_s
        calls[s.name] += 1
        for key, value in s.attrs.items():
            if key != "growth":
                attr[s.name, key] += value
    leaf_s = defaultdict(float)
    leaf_calls = defaultdict(int)
    leaf_points = defaultdict(int)
    for (name, parent), (n, secs, pts) in leaves.items():
        leaf_s[name] += secs
        leaf_calls[name] += n
        leaf_points[name] += pts
    visited = sum(pts for (name, parent), (_, _, pts) in leaves.items()
                  if name == "rays.points_on_ray" and parent == "recon.recon_shells")

    pairs = lines = tests = 0
    for s in spans:
        if s.name == "counting.count_connecting_lines":
            n = sum(c.attrs["points"] for c in s.children
                    if c.name == "lattice.enumerate_ball")
            pairs += n * (n - 1) // 2
            lines += s.attrs.get("lines", 0)
        elif s.name == "counting.separation_margin":
            prims = sum(c.attrs["prims"] for c in s.children
                        if c.name == "counting.canonical_primitives")
            # the scan pairs each primitive with every nonzero ball point
            points = sum(c.attrs["points"] - 1 for c in s.children
                         if c.name == "lattice.enumerate_ball")
            tests += prims * points
    growth = sorted(s.attrs["growth"] for s in spans if "growth" in s.attrs)
    targets = attr["recon.recon_shells", "points"]

    return {
        "recon.make_plan.s": total["recon.make_plan"],
        "recon.make_plan.points": attr["recon.make_plan", "points"],
        "recon.make_plan.shells": attr["recon.make_plan", "shells"],
        "lattice.build_shells.s": total["lattice.build_shells"],
        "lattice.enumerate_ball.s": total["lattice.enumerate_ball"],
        "lattice.enumerate_ball.calls": calls["lattice.enumerate_ball"],
        "rays.perp_family.s": total["rays.perp_family"],
        "rays.points_on_ray.s": leaf_s["rays.points_on_ray"],
        "rays.points_on_ray.calls": leaf_calls["rays.points_on_ray"],
        "rays.points_on_ray.points": leaf_points["rays.points_on_ray"],
        "rays.ray_key.s": leaf_s["rays.ray_key"],
        "rays.ray_key.calls": leaf_calls["rays.ray_key"],
        "lattice.primitive.calls": leaf_calls["lattice.primitive"],
        "transform.forward_family.s": total["transform.forward_family"],
        "transform.forward_family.rays": attr["transform.forward_family", "rays"],
        "recon.recon_shells.self_s": own["recon.recon_shells"],
        "recon.recon_shells.points": targets,
        "recon.incidence_per_target": visited / targets if targets else 0.0,
        "continuum.forward_continuous_family.s":
            total["continuum.forward_continuous_family"],
        "continuum.layer_recon.s": total["continuum.layer_recon"],
        "continuum.iterate_recon.self_s": own["continuum.iterate_recon"],
        "continuum.iterate_recon.rounds": attr["continuum.iterate_recon", "rounds"],
        "continuum.correction_identity_check.s":
            total["continuum.correction_identity_check"],
        "continuum.free_residual_growth":
            growth[len(growth) // 2] if growth else 0.0,
        "counting.count_connecting_lines.s": total["counting.count_connecting_lines"],
        "counting.pairs": pairs,
        "counting.lines_per_pair": lines / pairs if pairs else 0.0,
        "counting.separation_margin.s": total["counting.separation_margin"],
        "counting.separation_tests": tests,
        "lattice.farey_count.s": total["lattice.farey_count"],
        "lattice.totient_sum.s": total["lattice.totient_sum"],
        "io.write_json_atomic.s": total["io.write_json_atomic"],
        "io.write_json_atomic.bytes": attr["io.write_json_atomic", "bytes"],
        "io.read_json.s": total["io.read_json"],
        "io.sino_to_obj.s": total["io.sino_to_obj"],
        "io.obj_to_sino.s": total["io.obj_to_sino"],
        "io.grid_to_obj.s": total["io.grid_to_obj"],
        "io.obj_to_grid.s": total["io.obj_to_grid"],
        "io.grid_to_csv.s": total["io.grid_to_csv"],
        "cli.phantom.self_s": own["cli.phantom"],
        "cli.forward.self_s": own["cli.forward"],
        "cli.recon.self_s": own["cli.recon"],
        "cli.export.self_s": own["cli.export"],
    }
