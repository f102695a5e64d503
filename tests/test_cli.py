import json
import os
import pathlib
import threading

import numpy as np
import pytest
from click.testing import CliRunner

from semfuse import fileio
from semfuse.cli import main
from semfuse.evaluation import (CameraFrustum, ConfusionAccumulator, IoUResult,
                                accumulate_scan_vs_map, format_report,
                                iou_scan_vs_map)
from semfuse.geometry import Pose, invert, render_range_image
from semfuse.labelprop import (generate_pseudolabels, ground_plane_correction,
                               load_training_pair)
from semfuse.labels import LabelSet
from semfuse.runner import RunConfig, load_scan_records, run_fuse
from semfuse.voxelmap import VoxelMap
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


def read_json(*path):
    return json.loads(pathlib.Path(*path).read_text())


@pytest.fixture(scope="module")
def camonly_dir(tmp_path_factory, runner, log_dir):
    """Camera-only clouds of the shared log and their map, made through the
    CLI once for the tests below."""
    out = str(tmp_path_factory.mktemp("cam"))
    config = os.path.join(log_dir, "config.json")
    for args in (["fuse", "--camera-only"], ["map"]):
        res = runner.invoke(main, args + ["--config", config, "--output-dir", out])
        assert res.exit_code == 0, res.output
    return out


def test_synth_writes_complete_log(log_dir):
    meta = read_json(log_dir, "meta.json")
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
    with np.load(os.path.join(a, "scans", "scan_0000.npz")) as fa, \
            np.load(os.path.join(b, "scans", "scan_0000.npz")) as fb:
        np.testing.assert_array_equal(fa["xyz"], fb["xyz"])
        np.testing.assert_array_equal(fa["lidar_probs"], fb["lidar_probs"])


def scene_edit(edit):
    """The person_wall scene spec with `edit` applied to it."""
    spec = read_json(scene_path("person_wall"))
    edit(spec)
    return json.dumps(spec)


@pytest.mark.parametrize("text, what", [
    pytest.param('{"primitives": [', "Expecting", id="not-json"),
    pytest.param("[]", "scene is not a JSON object", id="not-an-object"),
    pytest.param(scene_edit(lambda s: s.pop("trajectory")),
                 "scene has no 'trajectory' key", id="missing-key"),
    pytest.param(scene_edit(lambda s: s["sensors"]["lidar"].pop("w")),
                 "scene has no 'w' key", id="missing-sensor-key"),
    pytest.param(scene_edit(lambda s: s.update({"noise": {"flip_rate": 0.1}})),
                 "unexpected keyword argument 'flip_rate'", id="unknown-noise-key"),
    pytest.param(scene_edit(lambda s: s["primitives"][1].pop("position")),
                 "primitive 1 has no 'position' field", id="missing-primitive-field"),
    pytest.param(scene_edit(lambda s: s["primitives"][2].update({"class": "dragon"})),
                 "primitive 2: unknown class 'dragon'", id="unknown-class"),
    pytest.param(scene_edit(lambda s: s["primitives"][1].update({"shape": "cone"})),
                 "primitive 1: unknown primitive shape 'cone'", id="unknown-shape"),
    pytest.param(scene_edit(lambda s: s["primitives"][1].update({"size": [0.4, -12, 4]})),
                 "primitive 1: primitive sizes must be non-negative", id="negative-size"),
    pytest.param(scene_edit(lambda s: s["primitives"][1].update({"position": [8, 0]})),
                 "primitive 1: primitive position must have 3 entries", id="short-position"),
    pytest.param(scene_edit(lambda s: s["trajectory"].update({"n_scans": 0})),
                 "trajectory n_scans must be at least 1, got 0", id="no-scans"),
])
def test_synth_bad_scene_exits_naming_the_file(runner, tmp_path, text, what):
    """A scene file that is not a JSON object, lacks a key, names an unknown
    noise setting, describes a primitive of an unknown class or shape, of
    negative size or with a short position, or asks for no scans fails with
    one error line naming the file, before the log directory is made."""
    bad = tmp_path / "scene.json"
    bad.write_text(text)
    out = tmp_path / "log"
    res = runner.invoke(main, ["synth", "--scene", str(bad), "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"error: {bad}: ") and what in res.output
    assert len(res.output.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("n_scans", ["0", "-2"])
def test_synth_scan_count_below_one_exits_naming_it(runner, tmp_path, n_scans):
    """--scans below 1 is refused by name before the log directory is made;
    it is neither read as the scene's own count nor written as an empty
    log."""
    out = tmp_path / "log"
    res = runner.invoke(main, ["synth", "--scene", scene_path("person_wall"),
                               "--out", str(out), "--scans", n_scans])
    assert res.exit_code == 1, res.output
    assert res.output == f"error: n_scans must be at least 1, got {n_scans}\n"
    assert not out.exists()


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
    data = read_json(json_out)
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
    cfg = read_json(log_dir, "config.json")
    cfg["calibration"] = "missing.json"
    bad.write_text(json.dumps(cfg))
    # paths resolve against the config file, so copy-level paths break
    res = runner.invoke(main, ["fuse", "--config", str(bad)])
    assert res.exit_code == 1
    assert "error:" in res.output


def absolute_config(log_dir, out):
    """The shared log's config with absolute paths, writing under `out`."""
    cfg = {k: os.path.join(log_dir, v) for k, v in read_json(log_dir, "config.json").items()}
    cfg["output_dir"] = str(out)
    return cfg


@pytest.mark.parametrize("text, what", [
    pytest.param({"threshhold": 0.99}, "unknown config key 'threshhold'",
                 id="misspelt-key"),
    pytest.param({"voxel_size": "0.25"},
                 "config key 'voxel_size' must be float, got str", id="number-as-string"),
    pytest.param({"window": True}, "config key 'window' must be int, got bool",
                 id="bool-for-int"),
    pytest.param('{"window": 2,', "Expecting", id="not-json"),
    pytest.param('[["window", 2]]', "config is not a JSON object", id="not-an-object"),
    pytest.param({"horizon": "Finite"},
                 "horizon must be 'infinite' or 'finite', got 'Finite'", id="unknown-horizon"),
    pytest.param({"voxel_size": -1.0}, "voxel_size must be finite and > 0, got -1.0",
                 id="negative-voxel-size"),
    pytest.param({"n_horizon": 0, "horizon": "finite"}, "n_horizon must be >= 1, got 0",
                 id="zero-n-horizon"),
    pytest.param({"window": -1}, "window must be >= 0, got -1", id="negative-window"),
    pytest.param({"threshold": 2.0}, "threshold must be in [0, 1], got 2.0",
                 id="threshold-above-one"),
    pytest.param({"alpha_dyn": 0.0}, "alpha_dyn must be in (0, 1], got 0.0", id="zero-alpha"),
    pytest.param({"alpha_stat": 1.5}, "alpha_stat must be in (0, 1], got 1.5",
                 id="alpha-above-one"),
    pytest.param({"s_factor": -1.0}, "s_factor must be finite and > 0, got -1.0",
                 id="negative-s-factor"),
])
def test_config_file_faults_exit_naming_the_file(log_dir, runner, tmp_path, text, what):
    """A config that misspells a key, gives a value of the wrong type, an
    unknown horizon or a value out of its range, is not JSON, or is not a
    JSON object fails every command with one error line naming the file,
    before any work and before any output directory is made; a misspelt key
    is not dropped for its default."""
    bad = tmp_path / "config.json"
    if isinstance(text, dict):
        text = json.dumps({**absolute_config(log_dir, tmp_path / "out"), **text})
    bad.write_text(text)
    gt_path = os.path.join(log_dir, "gt_map.svx")
    for args in (["fuse"], ["map"], ["pseudolabel", "--map", gt_path],
                 ["eval", "--pred", gt_path, "--ref", gt_path]):
        res = runner.invoke(main, args + ["--config", str(bad)])
        assert res.exit_code == 1, (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"error: {bad}: ") and what in res.output
    assert not (tmp_path / "out").exists()



def short_trajectory(log_dir, path):
    # ends 0.05 s into a log whose scans run on for seconds
    path.write_text("t,tx,ty,tz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.05,0,0,0,1,0,0,0\n")


def labelset_text(text):
    return lambda log_dir, path: path.write_text(text)


def calibration_edit(edit):
    def write(log_dir, path):
        calib = read_json(log_dir, "calibration.json")
        edit(calib["camera"])
        path.write_text(json.dumps(calib))
    return write


@pytest.mark.parametrize("field, write, what", [
    pytest.param("trajectory", short_trajectory, "outside trajectory",
                 id="trajectory-ends-before-the-scans"),
    pytest.param("labelset", labelset_text('{"classes": ['), "Expecting",
                 id="labelset-not-json"),
    pytest.param("labelset", labelset_text('{"names": ["a", "b"]}'),
                 "label set has no 'classes' key", id="labelset-without-classes"),
    pytest.param("calibration", calibration_edit(lambda cam: cam.update(fx="500")),
                 "invalid calibration", id="calibration-fx-as-string"),
    pytest.param("calibration",
                 calibration_edit(lambda cam: cam.update(distortion=[0.1, 0.0])),
                 "invalid calibration: nonzero distortion", id="calibration-distortion"),
])
def test_fuse_input_file_faults_are_one_error_line(log_dir, runner, tmp_path,
                                                   field, write, what):
    """A bad trajectory, label set or calibration fails `fuse` with exit 1
    and one `error:` line, with no traceback; a file at fault is named once."""
    bad = tmp_path / f"bad_{field}"
    write(log_dir, bad)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**absolute_config(log_dir, tmp_path / "out"),
                                  field: str(bad)}))
    res = runner.invoke(main, ["fuse", "--config", str(config)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and what in lines[0]
    assert "Traceback" not in res.output
    if field != "trajectory":
        assert lines[0].count(str(bad)) == 1


def nan_trajectory(log_dir, path):
    # tx of the t=0.5 row; extrapolation to scan 0 would carry it into a cloud
    lines = pathlib.Path(log_dir, "trajectory.csv").read_text().splitlines()
    t, _, *rest = lines[2].split(",")
    assert t == "0.5"
    lines[2] = ",".join([t, "nan", *rest])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("field, write, what", [
    pytest.param("trajectory", nan_trajectory, ":3: pose translation must be finite",
                 id="trajectory-nan-translation"),
    pytest.param("calibration", calibration_edit(lambda cam: cam.update(fx=float("nan"))),
                 ": invalid calibration: camera fx must be finite",
                 id="calibration-nan-fx"),
])
def test_fuse_refuses_non_finite_rig_values(log_dir, runner, tmp_path, field, write, what):
    """A NaN in the trajectory or the calibration fails `fuse` with one error
    line naming the file, before any output is made: it would otherwise
    reach every cloud, or drop the camera without a word."""
    bad = tmp_path / f"bad_{field}"
    write(log_dir, bad)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**absolute_config(log_dir, tmp_path / "out"),
                                  field: str(bad)}))
    res = runner.invoke(main, ["fuse", "--config", str(config)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.splitlines() == [res.output.strip()]
    assert res.output.startswith(f"error: {bad}{what}")
    assert not (tmp_path / "out").exists()


def test_pseudolabel_refuses_scans_of_another_label_set(log_dir, camonly_dir, runner,
                                                        tmp_path):
    """A scan whose label-set hash is not the log's fails `pseudolabel`, as
    it fails `fuse`, naming the scan."""
    scans = tmp_path / "scans"
    scans.mkdir()
    for path in fileio.list_sorted(os.path.join(log_dir, "scans"), ".npz"):
        scan = fileio.load_scan(path)
        fileio.save_scan(scans / os.path.basename(path), scan["xyz"],
                         scan["intensity"], scan["t"], scan["scan_id"],
                         lidar_probs=scan["lidar_probs"], gt_class=scan["gt_class"],
                         labelset_hash="deadbeefdeadbeef")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**absolute_config(log_dir, tmp_path / "out"),
                                  "scans_dir": str(scans)}))
    bad = os.path.join(scans, "scan_0000.npz")
    for args in (["fuse"], ["pseudolabel", "--map", os.path.join(camonly_dir, "map.svx")]):
        res = runner.invoke(main, args + ["--config", str(config)])
        assert res.exit_code == 1, (args, res.output)
        assert res.output.startswith(f"error: {bad}: label-set hash deadbeefdeadbeef")
    assert not (tmp_path / "out" / "pseudolabels").exists()


def test_fuse_refuses_a_scan_whose_intensity_is_short(log_dir, runner, tmp_path):
    """A scan with fewer intensities than points fails `fuse` with one error
    line naming the scan and the field, before it writes a cloud that a later
    `pseudolabel --include-intensity` would index past."""
    scans = tmp_path / "scans"
    scans.mkdir()
    for path in fileio.list_sorted(os.path.join(log_dir, "scans"), ".npz"):
        scan = fileio.load_scan(path)
        cut = 5 if path.endswith("scan_0000.npz") else 0
        fileio.save_scan(scans / os.path.basename(path), scan["xyz"],
                         scan["intensity"][:len(scan["xyz"]) - cut], scan["t"],
                         scan["scan_id"], lidar_probs=scan["lidar_probs"],
                         gt_class=scan["gt_class"], labelset_hash=scan["labelset_hash"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**absolute_config(log_dir, tmp_path / "out"),
                                  "scans_dir": str(scans)}))
    res = runner.invoke(main, ["fuse", "--config", str(config)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    lines = res.output.splitlines()
    assert len(lines) == 1, res.output
    assert lines[0].startswith(f"error: {scans / 'scan_0000.npz'}: 'intensity' has shape")
    assert not (tmp_path / "out" / "clouds").exists() or not os.listdir(
        tmp_path / "out" / "clouds")


@pytest.mark.parametrize("args, what", [
    pytest.param(["pseudolabel", "--window", "-1"], "window must be >= 0, got -1",
                 id="negative-window"),
    pytest.param(["fuse", "--alpha-dyn", "0"], "alpha_dyn must be in (0, 1], got 0.0",
                 id="zero-alpha"),
])
def test_bad_flag_is_not_blamed_on_the_config_file(log_dir, runner, tmp_path, args, what):
    """A flag out of its range over a valid config file fails with one error
    line that names the value, not the file, before any output is made."""
    config = os.path.join(log_dir, "config.json")
    res = runner.invoke(main, args + ["--config", config,
                                      "--output-dir", str(tmp_path / "out")])
    assert res.exit_code == 1, res.output
    assert res.output == f"error: {what}\n"
    assert not (tmp_path / "out").exists()


def test_fuse_writes_on_a_thread_that_ends_with_the_call(log_dir, tmp_path):
    before = threading.active_count()
    cfg = RunConfig.load(os.path.join(log_dir, "config.json"),
                         output_dir=str(tmp_path / "out"))
    info = run_fuse(cfg)
    assert threading.active_count() == before
    assert len(os.listdir(info["clouds_dir"])) == 3
    assert len(os.listdir(info["fused_frames_dir"])) == 3


def test_fuse_write_failure_raises_and_nothing_later_is_written(log_dir, tmp_path):
    """A write that fails on the writer thread raises from `run_fuse` with
    its own type; no later frame or cloud is written, and the thread ends."""
    out = tmp_path / "out"
    (out / "fused_frames" / "frame_0001.npz").mkdir(parents=True)
    cfg = RunConfig.load(os.path.join(log_dir, "config.json"), output_dir=str(out))
    before = threading.active_count()
    with pytest.raises(IsADirectoryError):
        run_fuse(cfg)
    assert threading.active_count() == before
    assert sorted(os.listdir(out / "fused_frames")) == ["frame_0000.npz", "frame_0001.npz"]
    assert os.listdir(out / "clouds") == []


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


def test_eval_rejects_map_of_another_label_set(log_dir, runner, tmp_path):
    """A prediction or reference map saved under another label set fails
    with an error naming that file instead of scoring its class ids."""
    gt_path = os.path.join(log_dir, "gt_map.svx")
    gt = VoxelMap.load(gt_path)
    foreign = VoxelMap(voxel_size=gt.voxel_size, num_classes=gt.num_classes,
                       labelset_hash="deadbeefdeadbeef")
    foreign.integrate_scan(gt.export_cloud(), 0)
    bad = tmp_path / "foreign.svx"
    foreign.save(bad)
    config = os.path.join(log_dir, "config.json")
    for args in (["--pred", str(bad), "--ref", gt_path],
                 ["--pred", gt_path, "--ref", str(bad)]):
        res = runner.invoke(main, ["eval", "--config", config] + args)
        assert res.exit_code == 1
        assert res.output.startswith(f"error: {bad}: label-set hash deadbeefdeadbeef does not match")


def test_pseudolabel_refuses_single_overlay_provenance(log_dir, runner, tmp_path):
    """Labels rendered from a map never claim to be one scan's overlay."""
    res = runner.invoke(main, ["pseudolabel", "--config",
                               os.path.join(log_dir, "config.json"),
                               "--map", os.path.join(log_dir, "gt_map.svx"),
                               "--output-dir", str(tmp_path),
                               "--provenance", "single_overlay"])
    assert res.exit_code == 2
    assert "single_overlay" in res.output
    assert not (tmp_path / "pseudolabels").exists()


@pytest.mark.parametrize("camera_fov", [False, True])
def test_eval_clouds_dir_matches_library(log_dir, camonly_dir, runner, tmp_path,
                                         camera_fov):
    """`eval --pred <clouds dir>` scores each cloud's points against the
    reference map, with --camera-fov only those inside the camera frustum
    at the cloud's time; the report equals the library's."""
    config = os.path.join(log_dir, "config.json")
    clouds_dir = os.path.join(camonly_dir, "clouds")
    gt_path = os.path.join(log_dir, "gt_map.svx")
    json_out = tmp_path / "iou.json"
    res = runner.invoke(main, ["eval", "--config", config, "--pred", clouds_dir,
                               "--ref", gt_path, "--json", str(json_out)]
                        + (["--camera-fov"] if camera_fov else []))
    assert res.exit_code == 0, res.output

    labelset = LabelSet.load(os.path.join(log_dir, "labelset.json"))
    ref = VoxelMap.load(gt_path)
    clouds = [fileio.load_semantic_cloud(p)[0]
              for p in fileio.list_sorted(clouds_dir, ".npz")]
    if camera_fov:
        cfg = RunConfig.load(config)
        cam = fileio.load_calibration(cfg.calibration).camera
        traj = fileio.load_trajectory(cfg.trajectory)
        acc = ConfusionAccumulator(ref.num_classes)
        for cloud in clouds:
            world_T_cam = Pose.from_matrix(
                traj.interpolate(cloud.timestamp).matrix() @ invert(cam.T_cam_base))
            accumulate_scan_vs_map(acc, cloud, ref, labelset,
                                   CameraFrustum(cam, world_T_cam))
        expected = IoUResult(acc.iou(), labelset, restricted_fov=True)
    else:
        expected = iou_scan_vs_map(clouds, ref, labelset)
    assert read_json(json_out) == expected.as_dict()
    assert res.output == format_report(expected) + "\n"


@pytest.mark.parametrize("corrupt", [False, True])
def test_eval_refuses_camera_fov_for_a_map_before_reading_it(log_dir, runner, tmp_path,
                                                             corrupt):
    """--camera-fov applies to clouds only: a map prediction, even a corrupt
    one, is refused for the flag before any file is read."""
    pred = os.path.join(log_dir, "gt_map.svx")
    if corrupt:
        pred = tmp_path / "bad.svx"
        pred.write_bytes(b"JUNKJUNKJUNK")
    res = runner.invoke(main, ["eval", "--config", os.path.join(log_dir, "config.json"),
                               "--pred", str(pred), "--ref", str(pred), "--camera-fov"])
    assert res.exit_code == 1
    assert res.output == "error: --camera-fov applies to cloud predictions only\n"


def test_eval_camera_fov_restricts_the_points(log_dir, camonly_dir, runner, tmp_path):
    config = os.path.join(log_dir, "config.json")
    args = ["eval", "--config", config, "--pred", os.path.join(camonly_dir, "clouds"),
            "--ref", os.path.join(log_dir, "gt_map.svx")]
    reports = []
    for extra in ([], ["--camera-fov"]):
        json_out = str(tmp_path / f"iou{len(extra)}.json")
        res = runner.invoke(main, args + extra + ["--json", json_out])
        assert res.exit_code == 0, res.output
        reports.append(read_json(json_out))
    assert [r["restricted_fov"] for r in reports] == [False, True]
    assert reports[0]["per_class"] != reports[1]["per_class"]


def test_pseudolabel_ground_correction_matches_library(log_dir, camonly_dir, runner,
                                                       tmp_path):
    config = os.path.join(log_dir, "config.json")
    map_path = os.path.join(camonly_dir, "map.svx")
    out = str(tmp_path / "pl")
    res = runner.invoke(main, ["pseudolabel", "--config", config, "--output-dir", out,
                               "--map", map_path, "--ground-correction"])
    assert res.exit_code == 0, res.output

    cfg = RunConfig.load(config)
    labelset = cfg.load_labelset()
    calib = fileio.load_calibration(cfg.calibration)
    records = load_scan_records(cfg, labelset, calib,
                                fileio.load_trajectory(cfg.trajectory))
    images = generate_pseudolabels(VoxelMap.load(map_path), records, labelset,
                                   calib.lidar_model)
    reset = 0
    for rec, img in zip(records, images):
        corrected = ground_plane_correction(img, labelset)
        reset += int((corrected.classes != img.classes).sum())
        _, classes, _ = load_training_pair(
            os.path.join(out, "pseudolabels", f"sample_{rec.scan_id:04d}"))
        np.testing.assert_array_equal(classes, corrected.classes)
    assert reset > 0
    assert json.loads(res.output)["labeled_cells"] == sum(
        int(ground_plane_correction(img, labelset).labeled.sum()) for img in images)


@pytest.mark.parametrize("include_intensity", [False, True])
def test_pseudolabel_include_intensity_exports_winning_point_intensity(
        log_dir, camonly_dir, runner, tmp_path, include_intensity):
    """With --include-intensity a sample has a fifth channel: the scan's
    intensity at each cell's winning point, 0 in empty cells."""
    config = os.path.join(log_dir, "config.json")
    out = str(tmp_path / "pl")
    res = runner.invoke(main, ["pseudolabel", "--config", config, "--output-dir", out,
                               "--map", os.path.join(camonly_dir, "map.svx")]
                        + (["--include-intensity"] if include_intensity else []))
    assert res.exit_code == 0, res.output

    cfg = RunConfig.load(config)
    calib = fileio.load_calibration(cfg.calibration)
    records = load_scan_records(cfg, cfg.load_labelset(), calib,
                                fileio.load_trajectory(cfg.trajectory))
    for rec in records:
        channels, _, meta = load_training_pair(
            os.path.join(out, "pseudolabels", f"sample_{rec.scan_id:04d}"))
        assert meta["channels"] == channels.shape[-1] == 4 + include_intensity
        if not include_intensity:
            continue
        img = render_range_image(rec.xyz, calib.lidar_model)
        hit = img.cell_index >= 0
        expect = np.zeros(hit.shape, dtype=np.float32)
        expect[hit] = rec.intensity[img.cell_index[hit]]
        np.testing.assert_array_equal(channels[..., 4], expect)
        assert channels[..., 4][hit].any()


def test_map_nonzero_exit_names_corrupt_cloud(log_dir, runner, tmp_path):
    clouds = tmp_path / "clouds"
    clouds.mkdir()
    bad = clouds / "scan_0000.npz"
    bad.write_bytes(b"not an npz archive")
    res = runner.invoke(main, ["map", "--config", os.path.join(log_dir, "config.json"),
                               "--clouds", str(clouds), "--output-dir", str(tmp_path)])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: {bad}: ")
    assert not (tmp_path / "map.svx").exists()


def test_pseudolabel_nonzero_exit_names_corrupt_map(log_dir, runner, tmp_path):
    bad = tmp_path / "bad.svx"
    bad.write_bytes(pathlib.Path(log_dir, "gt_map.svx").read_bytes()[:-10])
    res = runner.invoke(main, ["pseudolabel", "--config",
                               os.path.join(log_dir, "config.json"),
                               "--output-dir", str(tmp_path), "--map", str(bad)])
    assert res.exit_code == 1
    assert res.output.startswith(f"error: {bad}: ")
    assert not (tmp_path / "pseudolabels").exists()


def test_eval_unwritable_json_report_is_an_error_line(log_dir, runner, tmp_path):
    """The `--json` write runs inside the command's error boundary: a
    report path in a missing directory fails with one error line naming it,
    not a traceback, and no report on stdout."""
    gt_path = os.path.join(log_dir, "gt_map.svx")
    report = tmp_path / "no" / "such" / "iou.json"
    res = runner.invoke(main, ["eval", "--config", os.path.join(log_dir, "config.json"),
                               "--pred", gt_path, "--ref", gt_path, "--json", str(report)])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output == f"error: [Errno 2] No such file or directory: '{report}'\n"


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_bench_without_repeats_is_an_error_line(runner, repeats):
    res = runner.invoke(main, ["bench", "--repeats", repeats])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.output == f"error: repeats must be at least 1, got {repeats}\n"


def test_bench_smoke(runner):
    res = runner.invoke(main, ["bench", "--repeats", "1"])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    for key in ("fuse_cloud", "integrate_scan", "scan_pipeline",
                "smooth_and_fuse_image"):
        assert key in out
    assert out["scan_pipeline"]["p50_ms"] > 0
