"""Self-test of the benchmark: every workload at a tiny size and zero noise.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from semfuse import fusion  # noqa: E402


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The benchmark scene with small sensors and every noise source off.

    A voxel that mixes classes can resolve differently in the fused map and
    in the one-hot ground-truth map: equal point counts tie, and fused
    points carry unequal weights. Replayed scans put objects where the
    scene has none and so make such voxels. Here drives are no longer than
    the synthesized scans and the LiDAR is coarse, so no such voxel occurs
    and the maps must agree exactly."""
    with open(workloads.SCENE) as f:
        spec = json.load(f)
    spec["sensors"] = {
        "lidar": {"w": 128, "h": 16, "f_up_deg": 22.5, "f_down_deg": 22.5,
                  "r_max_m": 50},
        "camera": {"fx": 80, "fy": 80, "cx": 80, "cy": 45, "width": 160,
                   "height": 90},
    }
    spec["noise"] = {}
    path = tmp_path_factory.mktemp("scene") / "tiny.json"
    path.write_text(json.dumps(spec))
    return workloads.Profile(scene=str(path), distinct_scans=3, drive_scans=3,
                             log_scans=2, readback_scans=3, setup_repeats=1)


def _run(name, profile, tmp_path, trace=False):
    return workloads.run(name, seed=3, seconds=0.01, trace=trace, profile=profile,
                         work=str(tmp_path / "work"), trace_dir=str(tmp_path))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_is_exact_without_noise(name, tiny, tmp_path):
    out = _run(name, tiny, tmp_path)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    metrics = out["metrics"]
    assert set(metrics) == set(workloads.END_TO_END)
    assert metrics["miou"]["value"] == 1.0
    for m in metrics.values():
        assert m["value"] > 0 and m["unit"]
    lines = worker.report(name, out)
    for metric, unit in [*workloads.END_TO_END.items(), ("error_rate", "ratio")]:
        assert any(line.split()[1:2] == [metric] and f" {unit} " in f"{line} "
                   for line in lines), metric


def test_traced_run_reports_every_layer_metric(tiny, tmp_path):
    out = _run("offline_log", tiny, tmp_path, trace=True)
    assert out["correct"]
    metrics = out["metrics"]
    assert set(metrics) == set(workloads.PER_LAYER)
    for name in ("runner.run_fuse.s", "fileio.bytes_written",
                 "voxelmap.integrate_scan.ms_p50", "fusion.fuse_cloud.ms_p50",
                 "synth.simulate_scan.ms_p50", "trace.scans_per_s_traced"):
        assert metrics[name]["value"] > 0, name
    assert os.path.getsize(tmp_path / "trace-offline_log-seed3.jsonl") > 0
    assert not os.path.exists(tmp_path / "work")


def test_injected_failure_shows_in_error_rate(tiny, tmp_path, monkeypatch):
    original = fusion.fuse_cloud

    def skewed(*args, **kwargs):
        cloud = original(*args, **kwargs)
        cloud.probs = cloud.probs * 1.01
        return cloud

    monkeypatch.setattr(fusion, "fuse_cloud", skewed)
    out = _run("online_mapping", tiny, tmp_path)
    assert not out["correct"]
    assert out["failed"] > 0 and out["error_rate"] > 0


def test_failing_pass_is_counted_and_ends_the_run(tiny, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(workloads.runner, "run_map", broken)
    out = _run("offline_log", tiny, tmp_path)
    assert not out["correct"]
    assert out["attempted"] == 1 and out["failed"] == 1


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER


def test_tail_needs_ten_samples_beyond():
    from harness import tail
    assert tail(np.arange(100.0))[0] == 90.0
    assert tail(np.arange(99.0))[0] == 75.0
    assert tail(np.arange(5.0)) == (50.0, 2.0)
