"""Empty and degenerate inputs through every stage of the pipeline.

Each stage runs its general code on empty arrays (no separate early return),
so these tests pin what that code gives: the shape, dtype and values of
each result, and that no warning is raised where none is expected.
"""

import struct
import warnings

import numpy as np
import pytest

from semfuse.fusion import (CameraView, Detection, SegmentationFrame,
                            SemanticCloud, fuse_cloud, smooth_and_fuse_image,
                            warp_previous_frame)
from semfuse.geometry import (CameraModel, OutOfRangeError, Pose,
                              SphericalModel, Trajectory, render_virtual_scan,
                              spherical_ray_directions)
from semfuse.labelprop import (UNLABELED, ScanRecord, generate_pseudolabels,
                               single_overlay_pseudolabels)
from semfuse.labels import InvalidInputError
from semfuse.voxelmap import SNAPSHOT_MAGIC, VoxelMap
from tests.conftest import assert_blank_range_image

IDENTITY_Q = np.array([1.0, 0, 0, 0])
C = 5


@pytest.fixture(autouse=True)
def no_warnings():
    """Any warning fails the test unless the test expects it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def static_traj():
    return Trajectory([Pose(0.0, np.zeros(3), IDENTITY_Q),
                       Pose(10.0, np.zeros(3), IDENTITY_Q)])


def camera_view():
    """A camera looking along +z, with one detection in its frame."""
    cam = CameraModel(fx=100.0, fy=100.0, cx=50.0, cy=40.0, width=100, height=80)
    probs = np.full((80, 100, C), 0.1 / (C - 1))
    probs[..., 2] = 0.9
    return CameraView(cam, SegmentationFrame(probs, depth=np.full((80, 100), 5.0)),
                      [Detection(0, 0.9, (20, 20, 80, 60))])


# --- fusion -------------------------------------------------------------------


@pytest.mark.parametrize("camera_only", [False, True])
def test_fuse_cloud_empty_scan_with_view_and_detection(camera_only):
    lidar = None if camera_only else np.zeros((0, C))
    intensity = np.zeros(0)
    cloud = fuse_cloud(np.zeros((0, 3)), 1.0, lidar, [camera_view()],
                       static_traj(), np.eye(4), SphericalModel(), C,
                       intensity=intensity)
    assert cloud.xyz.shape == (0, 3) and cloud.xyz.dtype == np.float64
    assert cloud.probs.shape == (0, C) and cloud.probs.dtype == np.float64
    assert cloud.intensity is intensity
    assert cloud.timestamp == 1.0 and cloud.frame_id == "lidar"


def test_fuse_cloud_empty_scan_outside_trajectory_raises():
    """An empty scan looks its pose up like any other scan."""
    with pytest.raises(OutOfRangeError):
        fuse_cloud(np.zeros((0, 3)), 50.0, np.zeros((0, C)), [camera_view()],
                   static_traj(), np.eye(4), SphericalModel(), C)


def test_fuse_cloud_scan_behind_camera_keeps_lidar_bits(rng):
    xyz = rng.uniform(-3, 3, size=(40, 3))
    xyz[:, 2] = -np.abs(xyz[:, 2]) - 1.0
    lidar = rng.dirichlet(np.ones(C), size=40)
    cloud = fuse_cloud(xyz, 0.0, lidar, [camera_view()], static_traj(),
                       np.eye(4), SphericalModel(), C)
    assert cloud.probs.dtype == np.float64
    assert np.array_equal(cloud.probs, lidar)
    assert cloud.probs is not lidar
    only_cam = fuse_cloud(xyz, 0.0, None, [camera_view()], static_traj(),
                          np.eye(4), SphericalModel(), C)
    assert np.array_equal(only_cam.probs, np.full((40, C), 1.0 / C))


def previous_frame(depth):
    probs = np.random.default_rng(1).dirichlet(np.ones(C), size=(8, 10))
    return SegmentationFrame(probs, depth=depth)


def test_warp_all_nan_depth_is_all_invalid():
    prev = previous_frame(np.full((8, 10), np.nan))
    cam = CameraModel(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
    pixels, warped = warp_previous_frame(prev, np.eye(4), cam)
    assert pixels.shape == (0,) and pixels.dtype.kind == "i"
    assert warped.shape == (0, C) and warped.dtype == np.float64
    # smoothing against it keeps the current frame
    cur = previous_frame(np.full((8, 10), 3.0))
    cur.probs = cur.probs[::-1].copy()
    out = smooth_and_fuse_image(cur, prev, np.eye(4), cam, [], np.full(C, 0.5))
    assert np.array_equal(out.probs, cur.probs)


def test_warp_with_every_point_behind_the_camera_is_all_invalid():
    prev = previous_frame(np.full((8, 10), 3.0))
    cam = CameraModel(fx=10.0, fy=10.0, cx=5.0, cy=4.0, width=10, height=8)
    turn = np.diag([-1.0, 1.0, -1.0, 1.0])  # half a turn about the y axis
    pixels, warped = warp_previous_frame(prev, turn, cam)
    assert pixels.shape == (0,) and pixels.dtype.kind == "i"
    assert warped.shape == (0, C)


# --- range images -------------------------------------------------------------


MODEL = SphericalModel(width=64, height=16, r_max=50.0)


def beyond_range_points():
    return 60.0 * spherical_ray_directions(MODEL)[::4, ::8].reshape(-1, 3)


@pytest.mark.parametrize("points", [np.zeros((0, 3)), beyond_range_points()],
                         ids=["empty", "all_invalid"])
def test_render_virtual_scan_without_valid_points(points):
    pose = Pose(0.0, np.array([1.0, -2.0, 0.5]), IDENTITY_Q)
    assert_blank_range_image(render_virtual_scan(points, pose, MODEL), MODEL)


def test_render_virtual_scan_single_1d_point():
    """A bare (3,) point is rejected by name; one point is a (1, 3) array."""
    q = np.array([np.cos(0.3), 0.0, 0.0, np.sin(0.3)])
    pose = Pose(0.0, np.array([10.0, 1.0, 0.0]), q)
    point = np.array([15.0, 3.0, 0.5])
    with pytest.raises(InvalidInputError, match=r"shape \(N, 3\), got \(3,\)"):
        render_virtual_scan(point, pose, MODEL)
    img = render_virtual_scan(point[None], pose, MODEL)
    assert img.valid.sum() == 1
    v, u = np.argwhere(img.valid)[0]
    assert img.cell_index[v, u] == 0
    assert img.range[v, u] == pytest.approx(np.linalg.norm(point - pose.translation))


# --- voxel map ----------------------------------------------------------------


@pytest.mark.parametrize("horizon", ["infinite", "finite"])
def test_export_cloud_of_empty_map(horizon):
    """An empty map exports an empty cloud, with or without a ring, and
    counts no voxel of either horizon it has."""
    vm = VoxelMap(num_classes=C, n_horizon=3 if horizon == "finite" else None)
    cloud = vm.export_cloud()
    assert cloud.xyz.shape == (0, 3) and cloud.xyz.dtype == np.float64
    assert cloud.probs.shape == (0, C) and cloud.probs.dtype == np.float64
    assert cloud.frame_id == "map"
    np.testing.assert_array_equal(vm.per_class_voxel_counts(horizon), np.zeros(C))


def test_empty_map_save_load_round_trip(tmp_path):
    vm = VoxelMap(voxel_size=0.5, num_classes=C, labelset_hash="abc")
    path = tmp_path / "empty.svx"
    vm.save(path)
    blob = (b'{"voxel_size": 0.5, "num_classes": 5, "n_horizon": null'
            b', "labelset_hash": "abc", "horizon": "infinite", "count": 0}')
    header_only = SNAPSHOT_MAGIC + struct.pack("<I", len(blob)) + blob
    assert path.read_bytes() == header_only
    loaded = VoxelMap.load(path)
    assert len(loaded) == 0 and loaded.n_horizon is None
    assert (loaded.voxel_size, loaded.num_classes, loaded.labelset_hash) == (0.5, C, "abc")
    cloud = loaded.export_cloud()
    assert cloud.xyz.shape == (0, 3) and cloud.probs.shape == (0, C)
    # a snapshot holds one state, so the loaded map answers no finite read
    with pytest.raises(InvalidInputError, match="without n_horizon"):
        loaded.per_class_voxel_counts("finite")
    loaded.save(tmp_path / "again.svx")
    assert (tmp_path / "again.svx").read_bytes() == header_only


# --- pseudo-labels ------------------------------------------------------------


def test_world_xyz_of_empty_scan():
    rec = ScanRecord(np.zeros((0, 3)), Pose(0.0, np.ones(3), IDENTITY_Q), 0)
    w = rec.world_xyz()
    assert w.shape == (0, 3) and w.dtype == np.float64


@pytest.mark.parametrize("n_points", [0, 30])
def test_pseudolabels_from_empty_map(labelset, n_points):
    model = SphericalModel(width=32, height=8)
    vm = VoxelMap(num_classes=labelset.num_classes)
    xyz = np.random.default_rng(0).uniform(2, 5, size=(n_points, 3))
    scans = [ScanRecord(xyz, Pose(0.0, np.zeros(3), IDENTITY_Q), 0),
             ScanRecord(xyz, Pose(1.0, np.ones(3), IDENTITY_Q), 1)]
    with pytest.warns(UserWarning, match="empty map"):
        images = generate_pseudolabels(vm, scans, labelset, model)
    assert [img.scan_id for img in images] == [0, 1]
    for img, scan in zip(images, scans):
        assert img.classes.dtype == np.uint8 and img.classes.shape == (8, 32)
        assert (img.classes == UNLABELED).all()
        assert img.confidence.dtype == np.float64 and not img.confidence.any()
        assert img.labeled_fraction() == 0.0
        assert img.viewpoint is scan.pose
        assert (img.range == -1.0).all() and not img.xyz.any()


def test_single_overlay_of_empty_cloud():
    model = SphericalModel(width=32, height=8)
    pose = Pose(0.0, np.zeros(3), IDENTITY_Q)
    img = single_overlay_pseudolabels(SemanticCloud(np.zeros((0, 3)), np.zeros((0, C))),
                                      pose, model)
    assert img.classes.dtype == np.uint8 and (img.classes == UNLABELED).all()
    assert img.confidence.dtype == np.float64 and not img.confidence.any()
