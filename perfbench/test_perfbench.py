"""Self-test of the benchmark harness at toy sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from lxray import cli, continuum, counting, recon, transform  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTS = [name for name, unit in PER_LAYER.items() if unit in ("count", "B")]


def tiny_run(name: str, seed: int = 1) -> dict:
    wl = workloads.make(name, seed, tiny=True)
    try:
        result = worker.run_mode(wl, 0.0)
    finally:
        wl.close()
    result["metrics"]["setup_s"] = 0.5
    return result


def final_json(result: dict) -> dict:
    details = {"workload": "toy", "provenance": run.provenance(1)}
    return json.loads(run.report(END_TO_END, result, details)[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_with_its_unit(name):
    result = tiny_run(name)
    lines = run.report(END_TO_END, result, {"workload": name})
    out = json.loads(lines[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    text = "\n".join(lines[:-2])
    for metric, unit in END_TO_END.items():
        assert f"{metric} " in text and text.count(f" {unit}") >= 1
    assert "fail_ratio" in text and result["fail_ratio"] == 0


def _corrupt_grid(fn):
    def bad(*args, **kwargs):
        grid = fn(*args, **kwargs)
        z = min(grid.values)
        grid.values[z] += 1.0
        return grid
    return bad


def test_corrupted_reconstruction_is_counted(monkeypatch):
    monkeypatch.setattr(recon, "recon_shells", _corrupt_grid(recon.recon_shells))
    result = tiny_run("shell_roundtrip")
    assert result["failed"] == result["attempted"] > 0
    assert result["fail_ratio"] == 1.0
    assert "not bit-exact" in result["failures"][0]
    assert final_json(result)["correct"] is False


def test_corrupted_refinement_is_counted(monkeypatch):
    monkeypatch.setattr(continuum, "recon_shells",
                        _corrupt_grid(continuum.recon_shells))
    result = tiny_run("continuum_refine")
    assert result["failed"] == result["attempted"] > 0
    assert "fixed-point deviation" in result["failures"][0]


def test_corrupted_count_is_counted(monkeypatch):
    real = counting.count_connecting_lines
    monkeypatch.setattr(counting, "count_connecting_lines",
                        lambda *a, **k: real(*a, **k) + 1)
    result = tiny_run("count_verify")
    bounds = [c for c in workloads.CountVerify.TINY if c.label.startswith("bounds")]
    assert result["failed"] == len(bounds) * result["passes"] < result["attempted"]
    assert result["fail_ratio"] == result["failed"] / result["attempted"]


def test_corrupted_cli_output_is_counted(monkeypatch):
    monkeypatch.setattr(recon, "recon_shells", _corrupt_grid(recon.recon_shells))
    monkeypatch.setattr(cli, "recon_shells", _corrupt_grid(cli.recon_shells))
    result = tiny_run("cli_pipeline")
    assert result["failed"] == result["attempted"] > 0


def test_cli_nondeterminism_fails_the_repeat(monkeypatch):
    real = cli.make_phantom
    calls = []

    def drifting(kind, d, r, seed=0):
        calls.append(seed)
        return real(kind, d, r, seed + len(calls))

    monkeypatch.setattr(cli, "make_phantom", drifting)
    result = tiny_run("cli_pipeline")
    # one repeat per pass
    assert result["failed"] == result["passes"]
    assert "differs between identical runs" in result["failures"][0]


def test_trace_reports_every_layer_and_counts_repeat(tmp_path):
    def traced():
        wl = workloads.make("shell_roundtrip", 3, tiny=True)
        try:
            return worker.trace_mode(wl, 0.0, tmp_path / "spans.json")["metrics"]
        finally:
            wl.close()

    first, second = traced(), traced()
    assert set(first) == set(PER_LAYER)
    assert {n: first[n] for n in COUNTS} == {n: second[n] for n in COUNTS}
    assert first["recon.recon_shells.points"] > 0
    assert first["trace.overhead_ratio"] > 0
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert any(row[0] == "recon.make_plan" for row in spans)
    # the tracer leaves the library as it found it
    assert recon.make_plan.__module__ == "lxray.recon"
    assert transform.forward_family.__module__ == "lxray.transform"


def test_tail_percentile_leaves_ten_samples_beyond():
    assert worker.tail(list(range(20)))[0] == 50.0
    assert worker.tail(list(range(40)))[0] == 75.0
    assert worker.tail(list(range(99)))[0] == 75.0
    assert worker.tail(list(range(100))) == (90.0, 89)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count_verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
