import io
import json
import struct
import zipfile

import numpy as np
import pytest

from semfuse.fileio import (Calibration, ParseError, _write_npz, check_hash, list_sorted,
                            load_calibration, load_detections, load_frame,
                            load_scan, load_scan_points, load_semantic_cloud,
                            load_trajectory,
                            save_calibration, save_detections, save_frame,
                            save_scan, save_semantic_cloud, save_trajectory)
from semfuse.fusion import Detection, SegmentationFrame, SemanticCloud
from semfuse.geometry import CameraModel, Pose, SphericalModel, Trajectory, invert
from semfuse.labels import InvalidInputError

IDENTITY_Q = np.array([1.0, 0, 0, 0])


# --- calibration -------------------------------------------------------------


def sample_calibration():
    cam = CameraModel(fx=160.0, fy=160.0, cx=100.0, cy=75.0, width=200,
                      height=150, T_cam_base=np.eye(4))
    model = SphericalModel(width=256, height=64, f_up=np.deg2rad(30),
                           f_down=np.deg2rad(30), r_max=40.0)
    return Calibration(cam, model, np.eye(4))


def test_calibration_round_trip(tmp_path):
    calib = sample_calibration()
    path = tmp_path / "calib.json"
    save_calibration(calib, path)
    again = load_calibration(path)
    assert again.camera.fx == calib.camera.fx
    assert again.camera.width == 200
    np.testing.assert_allclose(again.camera.T_cam_base, np.eye(4))
    assert again.lidar_model.width == 256
    assert again.lidar_model.f_up == pytest.approx(np.deg2rad(30))
    assert again.lidar_model.r_max == 40.0
    np.testing.assert_allclose(again.T_base_lidar, np.eye(4))


def test_calibration_rejects_distortion(tmp_path):
    import json
    calib = sample_calibration()
    path = tmp_path / "calib.json"
    save_calibration(calib, path)
    cfg = json.loads(path.read_text())
    cfg["camera"]["distortion"] = [0.1, 0.0, 0.0]
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParseError, match="distortion"):
        load_calibration(path)


def test_calibration_accepts_zero_distortion(tmp_path):
    import json
    calib = sample_calibration()
    path = tmp_path / "calib.json"
    save_calibration(calib, path)
    cfg = json.loads(path.read_text())
    cfg["camera"]["distortion"] = [0.0, 0.0]
    path.write_text(json.dumps(cfg))
    load_calibration(path)


def test_calibration_missing_field(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text('{"camera": {"fx": 100}}')
    with pytest.raises(ParseError):
        load_calibration(path)


def test_calibration_bad_json(tmp_path):
    path = tmp_path / "calib.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_calibration(path)


# --- trajectory --------------------------------------------------------------


@pytest.mark.parametrize("t", [1.0, 1.3], ids=["at-a-knot", "between-knots"])
def test_rig_poses_are_the_explicit_compositions(t):
    """world_T_lidar and world_T_cam are the base pose composed with the
    LiDAR extrinsic resp. the inverted camera extrinsic, bit for bit."""
    T_cam_base = np.array([[0.0, -1, 0, 0.1], [0, 0, -1, 0.2], [1, 0, 0, -0.3],
                           [0, 0, 0, 1]])
    T_base_lidar = np.eye(4)
    T_base_lidar[:3, 3] = [0.5, 0.0, 1.2]
    calib = Calibration(CameraModel(fx=160.0, fy=160.0, cx=100.0, cy=75.0, width=200,
                                    height=150, T_cam_base=T_cam_base),
                        SphericalModel(), T_base_lidar)
    half = np.deg2rad(20.0)
    traj = Trajectory([Pose(0.0, np.zeros(3), IDENTITY_Q),
                       Pose(1.0, np.array([2.0, 1, 0]), IDENTITY_Q),
                       Pose(2.0, np.array([4.0, 1, 0.5]),
                            np.array([np.cos(half), 0, 0, np.sin(half)]))])
    base = traj.interpolate(t).matrix()
    np.testing.assert_array_equal(calib.world_T_lidar(traj, t), base @ T_base_lidar)
    np.testing.assert_array_equal(calib.world_T_cam(traj, t), base @ invert(T_cam_base))


def test_calibration_rejects_non_finite_lidar_extrinsic():
    calib = sample_calibration()
    T = np.eye(4)
    T[2, 3] = np.nan
    with pytest.raises(InvalidInputError, match="lidar T_base_lidar must be finite"):
        Calibration(calib.camera, calib.lidar_model, T)


@pytest.mark.parametrize("section, key", [("camera", "fx"), ("camera", "cy"),
                                          ("lidar", "f_up_deg"), ("lidar", "r_max_m")])
def test_calibration_file_with_a_nan_value_names_file_and_key(tmp_path, section, key):
    path = tmp_path / "calib.json"
    save_calibration(sample_calibration(), path)
    cfg = json.loads(path.read_text())
    cfg[section][key] = float("nan")
    path.write_text(json.dumps(cfg))
    field = {"f_up_deg": "f_up", "r_max_m": "r_max"}.get(key, key)
    with pytest.raises(ParseError, match=f"{path}: invalid calibration: .*{field} must be finite"):
        load_calibration(path)


def test_trajectory_round_trip(tmp_path):
    traj = Trajectory([Pose(0.0, np.array([1.0, 2, 3]), IDENTITY_Q),
                       Pose(1.0, np.array([2.0, 2, 3]), IDENTITY_Q)])
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    again = load_trajectory(path)
    assert len(again.poses) == 2
    np.testing.assert_allclose(again.poses[0].translation, [1, 2, 3])
    np.testing.assert_allclose(again.poses[1].t, 1.0)


def test_trajectory_rejects_bad_header(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("time,x,y,z\n0,0,0,0\n")
    with pytest.raises(ParseError, match=":1:"):
        load_trajectory(path)


def test_trajectory_rejects_bad_row_with_line_number(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,tx,ty,tz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n1,oops,0,0,1,0,0,0\n")
    with pytest.raises(ParseError, match=":3:"):
        load_trajectory(path)


def test_trajectory_rejects_a_nan_value_naming_the_line(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,tx,ty,tz,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n0.5,nan,0,0,1,0,0,0\n")
    with pytest.raises(ParseError, match=":3: pose translation must be finite"):
        load_trajectory(path)


def test_trajectory_rejects_empty_file(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_trajectory(path)


# --- detections --------------------------------------------------------------


def test_detections_round_trip_sorted(tmp_path, labelset):
    dets = [(1.5, Detection(labelset.index("person"), 0.9, (0, 0, 10, 10))),
            (0.5, Detection(labelset.index("vehicle"), 0.8, (5, 5, 20, 20),
                            source="thermal"))]
    path = tmp_path / "dets.jsonl"
    save_detections(dets, labelset, path)
    again = load_detections(path, labelset)
    assert [t for t, _ in again] == [0.5, 1.5]
    assert again[0][1].class_index == labelset.index("vehicle")
    assert again[0][1].source == "thermal"
    assert again[1][1].bbox == (0, 0, 10, 10)


def test_detections_bad_line_reports_line_number(tmp_path, labelset):
    path = tmp_path / "dets.jsonl"
    path.write_text('{"t": 0, "class": "person", "score": 0.9, "bbox": [0,0,5,5]}\n'
                    "garbage\n")
    with pytest.raises(ParseError, match=":2:"):
        load_detections(path, labelset)


# --- scans -------------------------------------------------------------------


def test_scan_round_trip(tmp_path, rng):
    xyz = rng.uniform(-10, 10, (100, 3))
    intensity = rng.random(100)
    probs = rng.dirichlet(np.ones(5), 100)
    gt = rng.integers(0, 5, 100)
    path = tmp_path / "scan.npz"
    save_scan(path, xyz, intensity, 2.5, 7, lidar_probs=probs, gt_class=gt,
              labelset_hash="h1")
    out = load_scan(path)
    # arrays load as stored
    np.testing.assert_array_equal(out["xyz"], xyz.astype(np.float32), strict=True)
    np.testing.assert_array_equal(out["intensity"], intensity.astype(np.float32),
                                  strict=True)
    np.testing.assert_array_equal(out["lidar_probs"], probs.astype(np.float32),
                                  strict=True)
    np.testing.assert_array_equal(out["gt_class"], gt.astype(np.int16), strict=True)
    assert out["t"] == 2.5 and out["scan_id"] == 7
    assert out["labelset_hash"] == "h1"


def test_scan_points_leave_the_label_fields_unread(tmp_path, rng):
    path = tmp_path / "scan.npz"
    save_scan(path, rng.uniform(-10, 10, (50, 3)), rng.random(50), 2.5, 7,
              lidar_probs=rng.dirichlet(np.ones(5), 50),
              gt_class=rng.integers(0, 5, 50), labelset_hash="h1")
    full, points = load_scan(path), load_scan_points(path)
    assert set(full) - set(points) == {"lidar_probs", "gt_class"}
    for name, value in points.items():
        np.testing.assert_array_equal(value, full[name], strict=True)


def test_scan_optional_fields_absent(tmp_path):
    path = tmp_path / "scan.npz"
    save_scan(path, np.zeros((3, 3)), None, 0.0, 0)
    out = load_scan(path)
    assert "intensity" not in out and "lidar_probs" not in out


def test_scan_corrupt_file(tmp_path):
    path = tmp_path / "scan.npz"
    path.write_bytes(b"not a zip file")
    with pytest.raises(ParseError):
        load_scan(path)


# --- frames ------------------------------------------------------------------


def test_frame_round_trip(tmp_path, rng):
    probs = rng.dirichlet(np.ones(4), (6, 8))
    depth = rng.uniform(1, 10, (6, 8))
    frame = SegmentationFrame(probs, depth=depth, timestamp=1.25)
    path = tmp_path / "frame.npz"
    save_frame(path, frame, labelset_hash="abc")
    again, h = load_frame(path)
    # arrays load as stored
    np.testing.assert_array_equal(again.probs, probs.astype(np.float32), strict=True)
    np.testing.assert_array_equal(again.depth, depth.astype(np.float32), strict=True)
    assert again.timestamp == 1.25
    assert h == "abc"


def test_frame_without_depth(tmp_path, rng):
    probs = rng.dirichlet(np.ones(3), (4, 4))
    path = tmp_path / "frame.npz"
    save_frame(path, SegmentationFrame(probs))
    again, _ = load_frame(path)
    assert again.depth is None


# --- semantic clouds ---------------------------------------------------------


def test_semantic_cloud_round_trip(tmp_path, rng):
    xyz = rng.uniform(-5, 5, (50, 3))
    probs = rng.dirichlet(np.ones(6), 50)
    intensity = rng.random(50)
    cloud = SemanticCloud(xyz, probs, intensity=intensity, frame_id="map", timestamp=3.0)
    path = tmp_path / "cloud.npz"
    save_semantic_cloud(path, cloud, labelset_hash="xyz")
    again, h = load_semantic_cloud(path)
    # arrays load as stored
    np.testing.assert_array_equal(again.xyz, xyz.astype(np.float32), strict=True)
    np.testing.assert_array_equal(again.probs, probs.astype(np.float32), strict=True)
    np.testing.assert_array_equal(again.intensity, intensity.astype(np.float32),
                                  strict=True)
    assert again.frame_id == "map" and again.timestamp == 3.0
    assert h == "xyz"


# --- npz format, corruption and non-finite input -----------------------------


def write_scan(path, rng, **fields):
    n = 40
    data = dict(xyz=rng.uniform(-5, 5, (n, 3)), intensity=rng.random(n),
                lidar_probs=rng.dirichlet(np.ones(4), n),
                gt_class=rng.integers(0, 4, n))
    data.update(fields)
    save_scan(path, data["xyz"], data["intensity"], 1.5, 3,
              lidar_probs=data["lidar_probs"], gt_class=data["gt_class"],
              labelset_hash="h")


def write_frame(path, rng, **fields):
    data = dict(probs=rng.dirichlet(np.ones(3), (5, 6)),
                depth=rng.uniform(1, 5, (5, 6)))
    data.update(fields)
    save_frame(path, SegmentationFrame(data["probs"], depth=data["depth"],
                                       timestamp=0.5), labelset_hash="h")


def write_cloud(path, rng, **fields):
    n = 40
    data = dict(xyz=rng.uniform(-5, 5, (n, 3)),
                probs=rng.dirichlet(np.ones(4), n), intensity=rng.random(n))
    data.update(fields)
    save_semantic_cloud(path, SemanticCloud(data["xyz"], data["probs"],
                                            intensity=data["intensity"],
                                            frame_id="map", timestamp=2.0),
                        labelset_hash="h")


def frame_arrays(path):
    frame, h = load_frame(path)
    return {"probs": frame.probs, "depth": frame.depth, "t": frame.timestamp,
            "labelset_hash": h}


def cloud_arrays(path):
    cloud, h = load_semantic_cloud(path)
    return {"xyz": cloud.xyz, "probs": cloud.probs,
            "intensity": cloud.intensity, "frame_id": cloud.frame_id,
            "t": cloud.timestamp, "labelset_hash": h}


KINDS = {"scan": (write_scan, load_scan), "frame": (write_frame, frame_arrays),
         "cloud": (write_cloud, cloud_arrays)}


def assert_same_fields(a, b):
    assert a.keys() == b.keys()
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])


def entry_data_offset(raw, info):
    """Offset of an entry's (possibly deflated) data inside the zip bytes."""
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_len + extra_len


@pytest.mark.parametrize("kind", KINDS)
def test_npz_loads_with_plain_np_load(tmp_path, rng, kind):
    write, arrays = KINDS[kind]
    path = tmp_path / "a.npz"
    write(path, rng)
    loaded = arrays(path)
    with np.load(path, allow_pickle=False) as z:
        for name, value in loaded.items():
            np.testing.assert_array_equal(z[name], value)


@pytest.mark.parametrize("kind", KINDS)
def test_npz_stores_xyz_and_deflates_the_rest(tmp_path, rng, kind):
    path = tmp_path / "a.npz"
    KINDS[kind][0](path, rng)
    with zipfile.ZipFile(path) as zf:
        methods = {i.filename: i.compress_type for i in zf.infolist()}
    assert methods.pop("xyz.npy", zipfile.ZIP_STORED) == zipfile.ZIP_STORED
    assert methods and set(methods.values()) == {zipfile.ZIP_DEFLATED}


@pytest.mark.parametrize("value", [
    pytest.param(np.linspace(0, 1, 7, dtype=np.float32), id="float32-1d"),
    pytest.param(np.linspace(-5, 5, 60, dtype=np.float32).reshape(20, 3), id="float32-2d"),
    pytest.param(np.linspace(0, 1, 120, dtype=np.float32).reshape(4, 5, 6), id="float32-3d"),
    pytest.param(np.zeros((0, 3), dtype=np.float32), id="float32-empty"),
    pytest.param(np.arange(-5, 20, dtype=np.int16), id="int16"),
    pytest.param(np.float64(1.25), id="float64-0d"),
    pytest.param(np.int64(-7), id="int64-0d"),
    pytest.param(np.str_("a1b2c3"), id="str"),
    pytest.param(np.str_(""), id="empty-str"),
])
def test_npz_entries_are_numpys_bytes(tmp_path, value):
    """Each entry, stored or deflated, holds the bytes of
    `np.lib.format.write_array` and deflates to the same size as them."""
    path, ref = tmp_path / "a.npz", tmp_path / "ref.npz"
    _write_npz(path, {"xyz": value, "v": value})
    stored = zipfile.ZipInfo("xyz.npy")
    stored.compress_type = zipfile.ZIP_STORED
    with zipfile.ZipFile(ref, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for entry in (stored, "v.npy"):
            with zf.open(entry, "w", force_zip64=True) as f:
                np.lib.format.write_array(f, np.asanyarray(value), allow_pickle=False)
    expect = io.BytesIO()
    np.lib.format.write_array(expect, np.asanyarray(value), allow_pickle=False)
    with zipfile.ZipFile(path) as got, zipfile.ZipFile(ref) as want:
        for name in ("xyz.npy", "v.npy"):
            assert got.read(name) == expect.getvalue()
            a, b = got.getinfo(name), want.getinfo(name)
            assert (a.compress_type, a.CRC, a.compress_size) == (
                b.compress_type, b.CRC, b.compress_size)


@pytest.mark.parametrize("kind", KINDS)
def test_savez_compressed_logs_still_load(tmp_path, rng, kind):
    write, arrays = KINDS[kind]
    path, old = tmp_path / "new.npz", tmp_path / "old.npz"
    write(path, rng)
    with np.load(path, allow_pickle=False) as z:
        np.savez_compressed(old, **{k: z[k] for k in z.files})
    assert_same_fields(arrays(old), arrays(path))


@pytest.mark.parametrize("kind", KINDS)
def test_npz_suffix_appended_when_missing(tmp_path, rng, kind):
    write, arrays = KINDS[kind]
    write(tmp_path / "a", rng)
    assert not (tmp_path / "a").exists()
    arrays(tmp_path / "a.npz")


@pytest.mark.parametrize("kind", KINDS)
def test_npz_truncated_file(tmp_path, rng, kind):
    write, arrays = KINDS[kind]
    path = tmp_path / "a.npz"
    write(path, rng)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(ParseError, match="a.npz"):
        arrays(path)


@pytest.mark.parametrize("kind, entry", [
    ("scan", "xyz.npy"), ("cloud", "xyz.npy"),
    ("scan", "lidar_probs.npy"), ("frame", "probs.npy"), ("cloud", "probs.npy"),
])
def test_npz_flipped_byte_in_entry(tmp_path, rng, kind, entry):
    write, arrays = KINDS[kind]
    path = tmp_path / "a.npz"
    write(path, rng)
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(entry)
    raw = bytearray(path.read_bytes())
    raw[entry_data_offset(raw, info) + info.compress_size // 2] ^= 0x5A
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="a.npz"):
        arrays(path)


def test_npz_any_single_corruption_is_a_parse_error(tmp_path, rng):
    """A flipped byte or a truncation anywhere either goes unnoticed (e.g. in
    a timestamp field of the zip headers) or raises ParseError, never a raw
    zipfile, zlib or numpy error."""
    path = tmp_path / "a.npz"
    write_scan(path, rng)
    raw = path.read_bytes()
    for i in range(0, len(raw), 5):
        flipped = bytearray(raw)
        flipped[i] ^= 0xFF
        for data in (bytes(flipped), raw[:i]):
            path.write_bytes(data)
            try:
                load_scan(path)
            except ParseError:
                pass


@pytest.mark.parametrize("kind, field, bad", [
    ("scan", "xyz", np.nan), ("scan", "lidar_probs", np.nan),
    ("scan", "intensity", np.inf), ("frame", "probs", np.nan),
    ("cloud", "xyz", -np.inf), ("cloud", "probs", np.nan),
    ("cloud", "intensity", np.nan),
])
def test_npz_non_finite_field_rejected(tmp_path, rng, kind, field, bad):
    write, arrays = KINDS[kind]
    path = tmp_path / "a.npz"
    write(path, rng)
    with np.load(path) as z:
        value = z[field].astype(np.float64)
    value.flat[3] = bad
    write(path, rng, **{field: value})
    with pytest.raises(ParseError, match=f"a.npz.*'{field}'"):
        arrays(path)


def test_frame_nan_depth_means_no_return(tmp_path, rng):
    depth = rng.uniform(1, 5, (5, 6))
    depth[0, :3] = np.nan
    path = tmp_path / "a.npz"
    write_frame(path, rng, depth=depth)
    frame, _ = load_frame(path)
    np.testing.assert_array_equal(frame.depth, depth.astype(np.float32))


# --- helpers -----------------------------------------------------------------


def test_check_hash_mismatch():
    with pytest.raises(ParseError):
        check_hash("aaa", "bbb", "file.npz")
    # empty hashes pass (unversioned files)
    check_hash("", "bbb", "file.npz")
    check_hash("aaa", "", "file.npz")
    check_hash("aaa", "aaa", "file.npz")


def test_list_sorted(tmp_path):
    for name in ("b.npz", "a.npz", "c.txt"):
        (tmp_path / name).write_text("")
    out = list_sorted(tmp_path, ".npz")
    assert [p.split("/")[-1] for p in out] == ["a.npz", "b.npz"]
