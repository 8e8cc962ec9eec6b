"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402

os.environ.update(run.BLAS_THREADS)

import traced  # noqa: E402
import workloads  # noqa: E402
from workloads import FleetWorkload, PerceptionWorkload  # noqa: E402

TINY_FLEET = (
    FleetWorkload("tiny-inline", "test", vehicles=8, partitions=1, duration_s=3.0),
    FleetWorkload("tiny-skewed-2p", "test", vehicles=8, partitions=2,
                  duration_s=3.0, style="skewed"),
    FleetWorkload("tiny-v2v-2p", "test", vehicles=16, partitions=2, duration_s=2.0,
                  with_services=False, beacon_period_s=0.5),
)
TINY_PERCEPTION = PerceptionWorkload("tiny-perception", "test", width=80,
                                     height=60, setups=1)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_cli(monkeypatch, capsys, workload, trace: int) -> tuple[dict, str]:
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    code = run.main(["--workload", workload.name, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.PER_LAYER


@pytest.mark.parametrize("workload", TINY_FLEET, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_fleet_prints_every_metric(monkeypatch, capsys, workload, trace):
    result, out = _run_cli(monkeypatch, capsys, workload, trace)
    units = traced.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert f"{name} " in out and out.count(f" {unit}\n")
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["sim.events"] > 0 and metrics["obs.calls"] > 0
        assert metrics["fleet.rounds"] == workload.duration_s
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_perception_prints_every_metric(monkeypatch, capsys, trace):
    result, out = _run_cli(monkeypatch, capsys, TINY_PERCEPTION, trace)
    units = traced.PER_LAYER if trace else run.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["nn.cnn_windows"]["value"] > 0
    else:
        assert "frames_per_s" in out


def test_exact_counts_repeat():
    first, _ = traced.trace_fleet(TINY_FLEET[1], 5, 0, {})
    second, _ = traced.trace_fleet(TINY_FLEET[1], 5, 0, {})
    for name in ("sim.events", "sim.pending_max", "obs.calls", "vcu.dsf_submits",
                 "edgeos.choose_calls", "fleet.rounds", "fleet.envelopes",
                 "fleet.critical_events"):
        assert first[name] == second[name] > 0, name


def test_perturbed_fleet_output_fails_runs(monkeypatch):
    real = workloads.run_single_process

    def perturbed(config):
        result = real(config)
        vehicle = min(result.vehicle_hashes)
        result.vehicle_hashes[vehicle] = "0" * 32
        return result

    monkeypatch.setattr(workloads, "run_single_process", perturbed)
    outcome = workloads.measure_fleet(TINY_FLEET[0], 3, 0, {})
    # Every timed drive mismatches; the run-inline reference still passes.
    assert outcome.failed == outcome.attempted - 1 > 0
    assert outcome.end_to_end(1.0)["vsim_per_s"] == 0.0


def test_pinned_digest_mismatch_fails_the_reference():
    workload = TINY_FLEET[1]
    pins = {workload.name: {"3": {"digest": "f" * 32, "events": 0}}}
    outcome = workloads.measure_fleet(workload, 3, 0, pins)
    assert outcome.failed == outcome.attempted


def test_perturbed_perception_output_fails_frames():
    haar, cnn, _timing = workloads.train_detectors()
    img = workloads.frame_image(TINY_PERCEPTION, 3, 1)
    frame = workloads.perceive(haar, cnn, img)
    pinned = frame.pin()
    assert frame.mismatch(pinned) is None
    moved = dataclasses.replace(frame, haar_boxes="0" * 32)
    assert moved.mismatch(pinned) == "haar_boxes differs"
    if frame.cnn:
        nudged = [box[:3] + [box[3] + 1e-3] for box in frame.cnn]
        assert dataclasses.replace(frame, cnn=nudged).mismatch(pinned) == "cnn scores differ"


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-inline-128",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
