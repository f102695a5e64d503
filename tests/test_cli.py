import json
import os
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from semfuse.cli import main
from tests.conftest import scene_path


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory, runner):
    """A small synthetic log generated through the CLI, shared by the
    pipeline tests below."""
    out = str(tmp_path_factory.mktemp("log"))
    res = runner.invoke(main, ["synth", "--scene", scene_path("person_wall"),
                               "--out", out, "--seed", "0"])
    assert res.exit_code == 0, res.output
    return out


def test_synth_writes_complete_log(log_dir):
    meta = json.load(open(os.path.join(log_dir, "meta.json")))
    assert meta["n_scans"] == 3
    for name in ("calibration.json", "trajectory.csv", "detections.jsonl",
                 "labelset.json", "gt_map.svx", "config.json"):
        assert os.path.exists(os.path.join(log_dir, name)), name
    assert len(os.listdir(os.path.join(log_dir, "scans"))) == 3
    assert len(os.listdir(os.path.join(log_dir, "frames"))) == 3


def test_synth_deterministic(tmp_path, runner):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        res = runner.invoke(main, ["synth", "--scene",
                                   scene_path("person_wall"),
                                   "--out", out, "--seed", "3"])
        assert res.exit_code == 0, res.output
    fa = np.load(os.path.join(a, "scans", "scan_0000.npz"))
    fb = np.load(os.path.join(b, "scans", "scan_0000.npz"))
    np.testing.assert_array_equal(fa["xyz"], fb["xyz"])
    np.testing.assert_array_equal(fa["lidar_probs"], fb["lidar_probs"])


def test_fuse_map_eval_pseudolabel_pipeline(log_dir, runner, tmp_path):
    config = os.path.join(log_dir, "config.json")
    out_dir = str(tmp_path / "out")

    res = runner.invoke(main, ["fuse", "--config", config,
                               "--output-dir", out_dir])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output)
    assert info["clouds"] == 3 and info["frames"] == 3

    res = runner.invoke(main, ["map", "--config", config,
                               "--output-dir", out_dir])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output)
    assert info["voxels"] > 0
    map_path = info["map"]
    assert os.path.exists(map_path)

    # the ground-truth map compared against itself scores 100 % everywhere
    gt_map = os.path.join(log_dir, "gt_map.svx")
    json_out = str(tmp_path / "iou.json")
    res = runner.invoke(main, ["eval", "--config", config, "--pred", gt_map,
                               "--ref", gt_map, "--json", json_out])
    assert res.exit_code == 0, res.output
    assert "mean" in res.output
    data = json.load(open(json_out))
    assert data["mean"] == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in data["per_class"].values())

    # the fused map against ground truth produces a sane report
    res = runner.invoke(main, ["eval", "--config", config, "--pred", map_path,
                               "--ref", gt_map])
    assert res.exit_code == 0, res.output
    assert "mean" in res.output

    res = runner.invoke(main, ["pseudolabel", "--config", config,
                               "--output-dir", out_dir, "--map", map_path])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output)
    assert info["samples"] == 3
    assert info["labeled_cells"] > 0
    sample = os.path.join(info["out_dir"], "sample_0000")
    assert os.path.exists(os.path.join(sample, "channels.bin"))
    assert os.path.exists(os.path.join(sample, "labels.bin"))
    assert os.path.exists(os.path.join(sample, "meta.json"))


def test_fuse_nonzero_exit_on_bad_calibration(log_dir, runner, tmp_path):
    bad = tmp_path / "config.json"
    cfg = json.load(open(os.path.join(log_dir, "config.json")))
    cfg["calibration"] = "missing.json"
    bad.write_text(json.dumps(cfg))
    # paths resolve against the config file, so copy-level paths break
    res = runner.invoke(main, ["fuse", "--config", str(bad)])
    assert res.exit_code == 1
    assert "error:" in res.output


def test_eval_nonzero_exit_on_corrupt_map(log_dir, runner, tmp_path):
    bad = tmp_path / "bad.svx"
    bad.write_bytes(b"JUNKJUNKJUNK")
    res = runner.invoke(main, ["eval", "--pred", str(bad), "--ref", str(bad)])
    assert res.exit_code == 1
    assert "error:" in res.output


@pytest.mark.parametrize("cut", [6, 20, -10])
def test_eval_truncated_snapshot_names_the_file(log_dir, runner, tmp_path, cut):
    """A snapshot cut inside its length field, its JSON header or its last
    record fails with one error line naming the file, not a traceback."""
    data = pathlib.Path(log_dir, "gt_map.svx").read_bytes()
    bad = tmp_path / "cut.svx"
    bad.write_bytes(data[:cut])
    config = os.path.join(log_dir, "config.json")
    for args in (["--pred", str(bad), "--ref", os.path.join(log_dir, "gt_map.svx")],
                 ["--pred", os.path.join(log_dir, "gt_map.svx"), "--ref", str(bad)]):
        res = runner.invoke(main, ["eval", "--config", config] + args)
        assert res.exit_code == 1
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert f"error: {bad}: " in res.output
        assert "Traceback" not in res.output


def test_bench_smoke(runner):
    res = runner.invoke(main, ["bench", "--repeats", "1"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    for key in ("fuse_cloud", "integrate_scan", "scan_pipeline",
                "smooth_and_fuse_image"):
        assert key in out
    assert out["scan_pipeline"]["p50_ms"] > 0
