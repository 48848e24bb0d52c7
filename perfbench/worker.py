"""One workload in one fresh process; started by run.py, prints one JSON line.

Modes:
  setup  import lxray, build the seeded inputs, run one untimed warm-up
         operation on toy sizes, report the set-up time and exit;
  run    set up, then run whole passes for --seconds with tracing off and
         report the end-to-end metrics;
  trace  set up, then alternate an untraced and a traced segment (plans plus
         one pass, same inputs) for --seconds and report per-layer metrics.

Set-up time runs from --t0, the parent's CLOCK_MONOTONIC reading taken just
before it started this process, to the first timed operation.

Host-speed calibration: other tenants of a shared host slow this process by
up to 2x for seconds at a time. After every timed call the worker times a
fixed pure-Python reference kernel that calls no lxray code, and rescales
the call's time by REF_NOMINAL_S over the mean of the reference times on
either side of it. Times are thus seconds at the host's unloaded speed; the
unscaled figures are reported alongside.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import lxray  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# a run goes on past --seconds until it has this many operations, so that
# the tail is at least the 75th percentile even while the host is slow
MIN_SAMPLES = 4 * TAIL_BEYOND
MAX_FAILURES_SHOWN = 5
# reference kernel time on the unloaded host that recorded the baseline
# (Intel Xeon, 2-vCPU KVM guest, Python 3.11); it only fixes the scale
REF_NOMINAL_S = 0.0075


def reference_s() -> float:
    """Seconds taken by the fixed reference kernel (tuples, dicts, floats, sort).

    The collector is off while it runs: it allocates nothing cyclic, and a
    collection would make its time depend on the size of the workload's heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for i in range(15000):
            key = (i % 211, i * 7 % 1013, i)
            table[key] = float(key[0] * key[1] - key[2])
        total = 0.0
        for key in sorted(table)[::7]:
            total += table[key]
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Clock:
    """Rescales measured durations to the host's unloaded speed."""

    def __init__(self):
        self.ref = reference_s()
        self.raw = 0.0          # seconds measured so far
        self.scaled = 0.0       # the same, rescaled

    def rescale(self, raw: float) -> float:
        """Rescale a duration that has just ended."""
        ref = reference_s()
        scaled = raw * REF_NOMINAL_S / (0.5 * (self.ref + ref))
        self.ref = ref
        self.raw += raw
        self.scaled += scaled
        return scaled

    def time(self, fn) -> float:
        t0 = time.perf_counter()
        fn()
        return self.rescale(time.perf_counter() - t0)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile that leaves at
    least ten samples above its rank; the median when none does."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= TAIL_BEYOND:
            return p, nearest_rank(ordered, p)
    return 50.0, nearest_rank(ordered, 50.0)


class Tally:
    """Outcomes and latencies (scaled and raw) of the operations of a run."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.latencies: list[float] = []
        self.raw: list[float] = []
        self.correct = 0
        self.failures: list[str] = []

    def run(self, op: workloads.Op) -> float:
        """Run and check one operation; returns its scaled latency."""
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is a failed one
            raw = time.perf_counter() - t0
            self.failures.append(f"{op.label}: raised {exc!r}")
        else:
            raw = time.perf_counter() - t0
            try:
                op.check(out)
            except Exception as exc:  # so is one whose result is wrong
                self.failures.append(f"{op.label}: {exc}")
            else:
                self.correct += 1
        dt = self.clock.rescale(raw)
        self.latencies.append(dt)
        self.raw.append(raw)
        return dt

    def summary(self) -> dict:
        attempted = len(self.latencies)
        return {"attempted": attempted, "failed": len(self.failures),
                "fail_ratio": len(self.failures) / attempted,
                "failures": self.failures[:MAX_FAILURES_SHOWN]}


def warm_up(name: str, seed: int) -> None:
    """One untimed operation of the workload at toy sizes."""
    warm = workloads.make(name, seed, tiny=True)
    try:
        warm.prepare()
        op = warm.ops(0)[0]
        op.check(op.run())
    finally:
        warm.close()


def run_mode(wl, seconds: float) -> dict:
    """Plans once, then whole passes until ``seconds`` have elapsed and
    at least MIN_SAMPLES operations have run.

    The timed wall time is the plan time plus the number of passes times
    the median pass time (checks excluded), so a burst of load that the
    calibration misses in a minority of passes does not move ops_per_s.
    """
    clock = Clock()
    tally = Tally(clock)
    start = time.monotonic()
    plan_s = clock.time(wl.prepare)
    pass_s = []
    while (time.monotonic() - start < seconds
           or len(tally.latencies) < MIN_SAMPLES):
        pass_s.append(sum(tally.run(op) for op in wl.ops(len(pass_s))))
    wall = plan_s + len(pass_s) * statistics.median(pass_s)
    ordered = sorted(tally.latencies)
    pct, tail_s = tail(ordered)
    raw = sorted(tally.raw)
    return {
        **tally.summary(),
        "passes": len(pass_s),
        "tail_percentile": pct,
        "metrics": {
            "ops_per_s": tally.correct / wall,
            "op_p50_s": nearest_rank(ordered, 50.0),
            "op_tail_s": tail_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "unscaled": {
            "ops_per_s": tally.correct / clock.raw,
            "op_p50_s": nearest_rank(raw, 50.0),
            "op_tail_s": tail(raw)[1],
        },
    }


def trace_mode(wl, seconds: float, spans_path: Path) -> dict:
    """Untraced and traced segments in turn, with identical inputs.

    Time metrics are medians over the traced segments, each rescaled by its
    segment's host-speed factor; counts and ratios of counts come from the
    first traced segment, so they repeat exactly for a given seed whatever
    the run length.
    """
    clock = Clock()
    tally = Tally(clock)
    tracer = tracing.Tracer()
    factors = []

    def segment(k: int) -> tuple[float, float]:
        """Plans plus pass k; returns (raw, scaled) seconds."""
        raw0, scaled0 = clock.raw, clock.scaled
        tracer.op = f"{k}:prepare"
        clock.time(wl.prepare)
        for i, op in enumerate(wl.ops(k)):
            tracer.op = f"{k}:{i}:{op.label}"
            tally.run(op)
        return clock.raw - raw0, clock.scaled - scaled0

    def traced_segment(k: int) -> float:
        with tracer.installed():
            tracer.begin_segment()
            raw, scaled = segment(k)
        factors.append(scaled / raw)
        return scaled

    untraced = traced = 0.0
    start = time.monotonic()
    k = 0
    while k == 0 or time.monotonic() - start < seconds:
        # alternate which side goes first so warm-up favours neither
        if k % 2:
            traced += traced_segment(k)
            untraced += segment(k)[1]
        else:
            untraced += segment(k)[1]
            traced += traced_segment(k)
        k += 1
    per_segment = [tracing.segment_metrics(*seg) for seg in tracer.segments]
    metrics = {}
    for name, first in per_segment[0].items():
        if name.endswith(".s") or name.endswith(".self_s"):
            metrics[name] = statistics.median(
                m[name] * f for m, f in zip(per_segment, factors))
        else:
            metrics[name] = first
    metrics["trace.overhead_ratio"] = traced / untraced
    tracer.dump(str(spans_path))
    return {**tally.summary(), "passes": k, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(lxray.__file__).resolve().parents:
        print(f"worker: lxray imported from {lxray.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    try:
        warm_up(args.workload, args.seed)
        setup_raw = time.monotonic() - args.t0
        setup_s = setup_raw * REF_NOMINAL_S / min(reference_s(), reference_s())
        if args.mode == "setup":
            result = {"setup_s": setup_s}
        elif args.mode == "run":
            result = run_mode(wl, args.seconds)
            result["metrics"]["setup_s"] = setup_s
            result["unscaled"]["setup_s"] = setup_raw
        else:
            out = ROOT / ".perfbench-out"
            out.mkdir(exist_ok=True)
            result = trace_mode(
                wl, args.seconds,
                out / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
