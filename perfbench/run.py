"""lxray benchmark: one seeded workload in fresh single-threaded processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: shell_roundtrip, continuum_refine, count_verify, cli_pipeline
(see BENCHMARK.json for why each exists). Run from the repository root; the
library is imported from ./src.

With --trace 0 the workload runs for S seconds with tracing off and the
end-to-end metrics are printed; set-up time is the median over SETUP_RUNS
fresh processes. Times are rescaled to the host's unloaded speed by a
reference kernel timed between operations (see worker.py); the unscaled
figures are printed in the details line. With --trace 1 the per-layer
metrics of a traced run are printed and the spans are written to
.perfbench-out/. Every operation is checked against an exact oracle; a
failed check is counted, never fatal. fail_ratio is printed with the
metrics. The last line of output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5          # fresh processes whose set-up times give setup_s
RUN_LIMIT_S = 170       # all child processes of one run end within this


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
    }


def child(args, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py in a fresh process; returns its JSON result."""
    env = dict(os.environ)
    env.pop("LXRAY_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {mode} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lxray" / "__init__.py").is_file():
        print(f"run.py: no lxray sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    details = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "provenance": provenance(args.seed)}
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        result = child(args, "trace", args.seconds, deadline)
    else:
        # set-up runs on both sides of the measured run, so that one burst of
        # outside load does not cover them all
        before = (SETUP_RUNS - 1) // 2
        setups = [child(args, "setup", 0, deadline)["setup_s"]
                  for _ in range(before)]
        result = child(args, "run", args.seconds, deadline)
        setups.append(result["metrics"]["setup_s"])
        setups += [child(args, "setup", 0, deadline)["setup_s"]
                   for _ in range(SETUP_RUNS - 1 - before)]
        result["metrics"]["setup_s"] = statistics.median(setups)
        details["setup_runs_s"] = setups
        details["unscaled"] = result["unscaled"]
        details["op_tail"] = {"percentile": result["tail_percentile"],
                              "samples": result["attempted"]}
    if set(result["metrics"]) != set(declared):
        print(f"run.py: metrics {sorted(set(result['metrics']) ^ set(declared))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print("\n".join(report(declared, result, details)))
    return 0


def report(declared: dict, result: dict, details: dict) -> list[str]:
    """Output lines: each metric with its unit, fail_ratio, the run's details
    as JSON, and last the result object."""
    metrics = result["metrics"]
    lines = [f"{name:40s} {metrics[name]:.6g} {unit}"
             for name, unit in declared.items()]
    lines.append(f"{'fail_ratio':40s} {result['fail_ratio']:.6g} "
                 f"({result['failed']} of {result['attempted']})")
    lines.append(json.dumps({**details, "fail_ratio": result["fail_ratio"],
                             "passes": result["passes"]}))
    lines.append(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
