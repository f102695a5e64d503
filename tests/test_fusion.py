import re

import numpy as np
import pytest
from scipy.spatial import cKDTree

from semfuse.evaluation import (CameraFrustum, ConfusionAccumulator,
                                accumulate_scan_vs_map)
from semfuse.fusion import (ALPHA_DYNAMIC, ALPHA_STATIC, CameraView, Detection,
                            SegmentationFrame, SemanticCloud, class_alphas,
                            cluster_bbox_points, cluster_tolerance,
                            detection_distribution, fuse_cloud,
                            smooth_and_fuse_image, warp_previous_frame)
from semfuse.geometry import (CameraModel, Pose, SphericalModel, Trajectory, apply,
                              lidar_to_camera, nearest_per_cell, pinhole_rays,
                              project_pinhole, render_range_image, sample_bilinear)
from semfuse.labels import InvalidInputError, LabelSet, bayes_fuse
from semfuse.voxelmap import VoxelMap
from tests.conftest import assert_same_bits, serial_fuse_cloud

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def static_traj():
    return Trajectory([Pose(0.0, np.zeros(3), IDENTITY_Q),
                       Pose(10.0, np.zeros(3), IDENTITY_Q)])


def simple_cam(w=100, h=80, f=100.0):
    return CameraModel(fx=f, fy=f, cx=w / 2, cy=h / 2, width=w, height=h)


# --- Detection --------------------------------------------------------------


def test_detection_rejects_degenerate_bbox():
    with pytest.raises(InvalidInputError):
        Detection(0, 0.9, (10, 10, 10, 20))


def test_detection_rejects_bad_score():
    with pytest.raises(InvalidInputError):
        Detection(0, 0.0, (0, 0, 10, 10))
    with pytest.raises(InvalidInputError):
        Detection(0, 1.5, (0, 0, 10, 10))


def test_detection_contains():
    det = Detection(0, 0.9, (10, 20, 30, 40))
    assert det.contains(10, 20) and det.contains(30, 40)
    assert not det.contains(9, 25)


# --- detection_distribution -------------------------------------------------


def test_detection_distribution_peak_clamped():
    det = Detection(0, 1.0, (0, 0, 10, 10))
    out = detection_distribution(det, 5.0, 5.0, 15)
    assert out[0] == pytest.approx(1.0 - 1e-6)
    np.testing.assert_allclose(out[1:], (1 - out[0]) / 14, atol=1e-12)
    assert out.sum() == pytest.approx(1.0)


def test_detection_distribution_corner_one_sigma():
    det = Detection(2, 0.8, (0, 0, 10, 20))
    out = detection_distribution(det, 0.0, 0.0, 5)
    # bbox corner sits one sigma out in both axes
    assert out[2] == pytest.approx(0.8 * np.exp(-1.0))


def test_detection_distribution_frozen_center():
    det = Detection(0, 0.5, (0, 0, 10, 10))
    out = detection_distribution(det, 5.0, 5.0, 3)
    np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-12)


def test_detection_distribution_outside_bbox_rejected():
    det = Detection(0, 0.5, (0, 0, 10, 10))
    with pytest.raises(InvalidInputError):
        detection_distribution(det, 11.0, 5.0, 3)


# --- cluster tolerance and growth -------------------------------------------


def test_cluster_tolerance_frozen():
    model = SphericalModel(width=1024, height=128)  # 90 degree vertical FoV
    tau = cluster_tolerance(10.0, model, s=1.5)
    assert tau == pytest.approx(1.5 * 10.0 * np.pi / 256, abs=1e-12)
    assert tau == pytest.approx(0.18408, abs=1e-5)


def test_cluster_tolerance_linear_in_depth():
    model = SphericalModel(width=1024, height=128)
    assert cluster_tolerance(20.0, model) == pytest.approx(
        2 * cluster_tolerance(10.0, model))


def test_cluster_tolerance_rejects_nonpositive():
    model = SphericalModel()
    with pytest.raises(InvalidInputError):
        cluster_tolerance(0.0, model)


@pytest.mark.parametrize("s", [0.0, -1.5, float("nan")])
def test_cluster_tolerance_rejects_nonpositive_factor(s):
    """A cluster factor that is not positive would link no point to the
    seed; it is rejected like a non-positive seed depth."""
    with pytest.raises(InvalidInputError, match="cluster factor s must be positive"):
        cluster_tolerance(10.0, SphericalModel(), s)


def test_cluster_single_point():
    model = SphericalModel(width=1024, height=128)
    member, d_seed, _ = cluster_bbox_points(np.array([[1.0, 0, 0]]),
                                            np.array([5.0]), model)
    assert member.tolist() == [True]
    assert d_seed == 5.0


def test_cluster_two_groups_far_apart():
    model = SphericalModel(width=1024, height=128)
    near = np.stack([np.full(6, 5.0), np.linspace(0, 0.05, 6), np.zeros(6)], 1)
    far = np.stack([np.full(6, 15.0), np.linspace(0, 0.05, 6), np.zeros(6)], 1)
    xyz = np.concatenate([near, far])
    depths = xyz[:, 0]
    member, d_seed, _ = cluster_bbox_points(xyz, depths, model)
    assert d_seed == pytest.approx(5.0)
    assert member[:6].all()
    assert not member[6:].any()


def test_cluster_chain_connectivity():
    model = SphericalModel(width=1024, height=128)
    tau = cluster_tolerance(5.0, model)
    xs = 5.0 + np.arange(20) * (0.5 * tau)
    xyz = np.stack([xs, np.zeros(20), np.zeros(20)], axis=1)
    member, _, _ = cluster_bbox_points(xyz, xs, model)
    assert member.all()


def test_cluster_empty_rejected():
    model = SphericalModel()
    with pytest.raises(InvalidInputError):
        cluster_bbox_points(np.zeros((0, 3)), np.zeros(0), model)


def test_cluster_order_independent(rng):
    model = SphericalModel(width=1024, height=128)
    xyz = np.concatenate([
        rng.normal([5, 0, 0], 0.05, size=(15, 3)),
        rng.normal([12, 1, 0], 0.05, size=(10, 3)),
    ])
    depths = xyz[:, 0]
    member, _, _ = cluster_bbox_points(xyz, depths, model)
    perm = rng.permutation(len(xyz))
    member_p, _, _ = cluster_bbox_points(xyz[perm], depths[perm], model)
    original = {tuple(p) for p in xyz[member]}
    permuted = {tuple(p) for p in xyz[perm][member_p]}
    assert original == permuted


def test_cluster_seed_is_nearest_rank_quantile():
    model = SphericalModel(width=1024, height=128)
    depths = np.array([4.0, 1.0, 3.0, 2.0])  # ceil(0.25*4) = 1st smallest
    xyz = np.stack([depths, np.arange(4) * 100.0, np.zeros(4)], axis=1)
    _, d_seed, _ = cluster_bbox_points(xyz, depths, model)
    assert d_seed == 1.0


def bfs_cluster_oracle(xyz, depths, model):
    """Seed selection plus breadth-first growth over radius queries."""
    n = len(xyz)
    k = max(int(np.ceil(0.25 * n)) - 1, 0)
    seed = int(np.argsort(depths, kind="stable")[k])
    d_seed = float(depths[seed])
    tau = cluster_tolerance(max(d_seed, 1e-9), model)
    member = np.zeros(n, dtype=bool)
    member[seed] = True
    tree = cKDTree(xyz)
    frontier = [seed]
    while frontier:
        nxt = set()
        for nb in tree.query_ball_point(xyz[frontier], tau):
            nxt.update(nb)
        frontier = [i for i in nxt if not member[i]]
        member[frontier] = True
    return member, d_seed, tau


def cluster_case(kind, rng, model):
    """(xyz, depths) of one oracle case."""
    if kind == "single":
        return np.array([[3.0, 0.5, -0.2]]), np.array([3.0])
    if kind == "duplicates":
        xyz = np.repeat(rng.normal([6, 0, 0], 0.05, size=(8, 3)), 3, axis=0)
        return xyz, xyz[:, 0]
    if kind == "chain":
        # every link sits one or a few rounding steps below, at or above tau
        n = 40
        depths = np.full(n, 5.0)
        tau = cluster_tolerance(5.0, model)
        gaps = rng.choice([np.nextafter(tau, 0.0), tau, np.nextafter(tau, 1.0),
                           tau * (1 - 1e-15), tau * (1 + 1e-15)], n - 1)
        dirs = rng.normal(size=(n - 1, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        steps = gaps[:, None] * dirs
        xyz = np.concatenate([[[5.0, 0, 0]], [5.0, 0, 0] + np.cumsum(steps, axis=0)])
        return xyz, depths
    # blobs at several depths, some touching, so growth stops part-way
    centers = rng.uniform([2, -1, -1], [20, 1, 1], size=(rng.integers(1, 5), 3))
    xyz = np.concatenate([rng.normal(c, rng.uniform(0.02, 0.3),
                                     size=(rng.integers(1, 60), 3))
                          for c in centers])
    return xyz, xyz[:, 0] + rng.normal(0, 0.1, len(xyz))


@pytest.mark.parametrize("kind", ["single", "duplicates", "chain", "blobs"])
@pytest.mark.parametrize("seed", range(6))
def test_cluster_matches_breadth_first_oracle(kind, seed):
    """Connected components over linked pairs keep exactly the points the
    breadth-first growth from the seed reaches, at the same seed and tau."""
    model = SphericalModel(width=1024, height=128)
    xyz, depths = cluster_case(kind, np.random.default_rng(seed), model)
    member, d_seed, tau = cluster_bbox_points(xyz, depths, model)
    want, want_d, want_tau = bfs_cluster_oracle(xyz, depths, model)
    np.testing.assert_array_equal(member, want)
    assert (d_seed, tau) == (want_d, want_tau)


# --- fuse_cloud -------------------------------------------------------------


def frame_of(probs_grid, depth=None, t=0.0):
    return SegmentationFrame(np.asarray(probs_grid, dtype=float), depth=depth,
                             timestamp=t)


def constant_frame(h, w, C, class_index, p=0.9, t=0.0, depth=None):
    probs = np.full((h, w, C), (1 - p) / (C - 1))
    probs[..., class_index] = p
    return frame_of(probs, depth=depth, t=t)


def test_fuse_cloud_outside_fov_bit_identical():
    C = 5
    cam = simple_cam()
    model = SphericalModel(width=64, height=16)
    lidar = np.tile(np.array([[0.5, 0.2, 0.1, 0.1, 0.1]]), (2, 1))
    # one point in front of the camera, one behind
    xyz = np.array([[0.0, 0, 5.0], [0.0, 0, -5.0]])
    view = CameraView(cam, constant_frame(80, 100, C, 1))
    cloud = fuse_cloud(xyz, 0.0, lidar, [view], static_traj(), np.eye(4),
                       model, C)
    assert np.array_equal(cloud.probs[1], lidar[1])
    assert not np.array_equal(cloud.probs[0], lidar[0])


def test_fuse_cloud_camera_only_returns_image_distribution():
    C = 4
    cam = simple_cam()
    model = SphericalModel(width=64, height=16)
    frame = constant_frame(80, 100, C, 2, p=0.7)
    view = CameraView(cam, frame)
    xyz = np.array([[0.0, 0, 5.0]])
    cloud = fuse_cloud(xyz, 0.0, None, [view], static_traj(), np.eye(4),
                       model, C)
    np.testing.assert_allclose(cloud.probs[0], frame.probs[0, 0], atol=1e-9)


def test_fuse_cloud_uniform_image_is_identity():
    C = 6
    cam = simple_cam()
    model = SphericalModel(width=64, height=16)
    frame = frame_of(np.full((80, 100, C), 1.0 / C))
    lidar = np.array([[0.4, 0.3, 0.1, 0.1, 0.05, 0.05]])
    cloud = fuse_cloud(np.array([[0.0, 0, 5.0]]), 0.0, lidar,
                       [CameraView(cam, frame)], static_traj(), np.eye(4),
                       model, C)
    np.testing.assert_allclose(cloud.probs, lidar, atol=1e-12)


def test_fuse_cloud_rejects_mismatched_classes():
    cam = simple_cam()
    model = SphericalModel(width=64, height=16)
    frame = constant_frame(80, 100, 4, 0)
    with pytest.raises(InvalidInputError):
        fuse_cloud(np.array([[0.0, 0, 5.0]]), 0.0,
                   np.array([[0.5, 0.5]]), [CameraView(cam, frame)],
                   static_traj(), np.eye(4), SphericalModel(), 2)


@pytest.mark.parametrize("field", ["xyz", "lidar_probs"])
def test_fuse_cloud_rejects_non_finite_input_by_name(field):
    """A NaN point or prior would come back as a NaN row of the cloud."""
    C = 3
    xyz = np.array([[0.0, 0, 5.0], [1.0, 0, 5.0]])
    lidar = np.full((2, C), 1.0 / C)
    {"xyz": xyz, "lidar_probs": lidar}[field][1, 0] = np.nan
    view = CameraView(simple_cam(), constant_frame(80, 100, C, 1))
    with pytest.raises(InvalidInputError, match=f"cloud {field} must be finite"):
        fuse_cloud(xyz, 0.0, lidar, [view], static_traj(), np.eye(4),
                   SphericalModel(width=64, height=16), C)


def test_fuse_cloud_detection_cluster_and_reset():
    """Foreground points in the bbox flip to the detected class; background
    points behind them keep their pre-detection argmax."""
    C = 5
    cam = simple_cam()
    model = SphericalModel(width=1024, height=128)
    # background class 3 everywhere, weak image support for the person (0)
    lidar_bg = np.array([0.05, 0.05, 0.05, 0.8, 0.05])
    near = np.array([[0.0, 0.0, 2.0], [0.02, 0.0, 2.0], [0.0, 0.02, 2.0]])
    far = np.array([[0.0, 0.0, 12.0], [0.02, 0.0, 12.0]])
    xyz = np.concatenate([near, far])
    lidar = np.tile(lidar_bg, (len(xyz), 1))
    frame = frame_of(np.full((80, 100, C), 1.0 / C))
    det = Detection(0, 0.95, (40, 30, 60, 50))
    view = CameraView(cam, frame, [det])
    cloud = fuse_cloud(xyz, 0.0, lidar, [view], static_traj(), np.eye(4),
                       model, C)
    labels = np.argmax(cloud.probs, axis=-1)
    assert (labels[:3] == 0).all()  # near cluster becomes the detected class
    assert (labels[3:] == 3).all()  # far points keep the background argmax


def test_fuse_cloud_rejects_frame_of_another_size():
    C = 3
    cam = simple_cam()  # 100 x 80
    frame = constant_frame(60, 100, C, 0)
    with pytest.raises(InvalidInputError, match=r"\(60, 100\).*\(80, 100\)"):
        fuse_cloud(np.array([[0.0, 0, 5.0]]), 0.0, None, [CameraView(cam, frame)],
                   static_traj(), np.eye(4), SphericalModel(), C)


def whole_cloud_reset_fuse(xyz, t_scan, lidar_probs, views, traj, T_base_lidar,
                           model, C):
    """fuse_cloud with every camera projecting the whole cloud and one
    whole-cloud snapshot after image fusion as the detection reset target."""
    probs = lidar_probs.copy()
    projections = []
    for view in views:
        p_cam = lidar_to_camera(xyz, t_scan, view.t, traj, view.cam, T_base_lidar)
        u, v, inside = project_pinhole(p_cam, view.cam)
        projections.append((u, v, p_cam[:, 2], inside))
        idx = np.flatnonzero(inside)
        img_p = sample_bilinear(view.frame.probs, u[idx], v[idx])
        img_p /= img_p.sum(axis=-1, keepdims=True)
        probs[idx] = bayes_fuse(probs[idx], img_p)
    pre_detection = probs.copy()
    for view, (u, v, depth, inside) in zip(views, projections):
        for det in sorted(view.detections,
                          key=lambda d: (0 if d.source == "rgb" else 1, -d.score)):
            idx = np.flatnonzero(inside & det.contains(u, v))
            if len(idx) == 0:
                continue
            member, _, _ = cluster_bbox_points(xyz[idx], depth[idx], model)
            mem = idx[member]
            probs[mem] = bayes_fuse(probs[mem],
                                    detection_distribution(det, u[mem], v[mem], C))
            out = idx[~member]
            wrong = out[np.argmax(probs[out], axis=-1) == det.class_index]
            probs[wrong] = pre_detection[wrong]
    return probs


def test_fuse_cloud_second_camera_resets_to_pre_detection(rng):
    """Two overlapping cameras with detections: a box of the second camera
    resets rows that a detection of the first camera moved to the detected
    class, back to their state before any detection; the result equals the
    whole-cloud reference bit for bit."""
    C = 5
    model = SphericalModel(width=1024, height=128)
    near = np.array([[0.0, 0.0, 4.0], [0.02, 0.0, 4.0], [0.0, 0.02, 4.0]])
    nearer = near * [1, 1, 0.5] + [0.5, 0.0, 0.0]  # right of `near`, at 2 m
    # in both images, above and below the class-0 boxes
    far = np.column_stack([rng.uniform(-6, 6, 40),
                           rng.choice([-1, 1], 40) * rng.uniform(2.5, 4, 40),
                           np.full(40, 15.0)])
    xyz = np.concatenate([near, nearer, far])
    lidar = np.tile([0.05, 0.05, 0.05, 0.8, 0.05], (len(xyz), 1))
    lidar[6:] = rng.dirichlet(np.full(C, 0.5), 40)
    cam_a, cam_b = simple_cam(), simple_cam(w=120, h=90, f=110.0)
    frames = [frame_of(rng.dirichlet(np.full(C, 50.0), (cam.height, cam.width)))
              for cam in (cam_a, cam_b)]
    views = [CameraView(cam_a, frames[0], [Detection(0, 0.95, (40, 30, 60, 50))]),
             CameraView(cam_b, frames[1], [Detection(0, 1.0, (55, 30, 100, 60)),
                                           Detection(3, 0.6, (0, 0, 120, 90))])]
    args = (xyz, 0.0, lidar, views, static_traj(), np.eye(4), model, C)
    cloud = fuse_cloud(*args)
    np.testing.assert_array_equal(cloud.probs, whole_cloud_reset_fuse(*args))
    # the first camera's detection moves `near` to class 0, the second
    # camera's box resets it; the rows then hold their image-fused state
    first = fuse_cloud(xyz, 0.0, lidar, views[:1], static_traj(), np.eye(4), model, C)
    assert (np.argmax(first.probs[:3], axis=-1) == 0).all()
    image_only = fuse_cloud(xyz, 0.0, lidar, [CameraView(v.cam, v.frame) for v in views],
                            static_traj(), np.eye(4), model, C)
    np.testing.assert_array_equal(cloud.probs[:3], image_only.probs[:3])
    assert (np.argmax(cloud.probs[3:6], axis=-1) == 0).all()


def test_fuse_cloud_empty_points():
    C = 3
    cloud = fuse_cloud(np.zeros((0, 3)), 0.0, np.zeros((0, C)), [],
                       static_traj(), np.eye(4), SphericalModel(), C)
    assert len(cloud) == 0


def oracle_views(rng, C, dtype=np.float64, detections=True):
    """Two overlapping cameras, the second 40 ms after the scan, each with
    a random frame and, optionally, detections over its centre."""
    cams = [simple_cam(), CameraModel(fx=110, fy=110, cx=60, cy=45, width=120, height=90,
                                      T_cam_base=Pose(0, [0.1, 0, 0], IDENTITY_Q).matrix())]
    dets = [[Detection(0, 0.95, (30, 20, 70, 60)), Detection(2, 0.7, (0, 0, 50, 80))],
            [Detection(1, 0.9, (40, 30, 90, 70), source="thermal")]]
    return [CameraView(cam, frame_of(rng.dirichlet(np.full(C, 0.7), (cam.height, cam.width))
                                     .astype(dtype)),
                       d if detections else [], timestamp=t)
            for cam, d, t in zip(cams, dets, (0.2, 0.24))]


def moving_traj():
    return Trajectory([Pose(0.0, np.zeros(3), IDENTITY_Q),
                       Pose(1.0, [2.0, 0.5, 0.0], [0.9, np.sqrt(1 - 0.81), 0.0, 0.0])])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("lidar", [True, False])
def test_fuse_cloud_of_a_few_points_matches_the_serial_oracle(n, lidar):
    """Clouds of 0-3 points, all in view: the split scan path has the bits
    of the serial one."""
    rng = np.random.default_rng(n)
    C = 5
    xyz = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(2, 6, n)])
    probs = rng.dirichlet(np.ones(C), n) if lidar else None
    args = (xyz, 0.2, probs, oracle_views(rng, C), moving_traj(), np.eye(4),
            SphericalModel(), C)
    intensity = rng.random(n)
    cloud = fuse_cloud(*args, intensity=intensity)
    want = serial_fuse_cloud(*args, intensity=intensity)
    for got, expected in zip((cloud.xyz, cloud.probs, cloud.intensity), want):
        assert_same_bits(got, expected)


@pytest.mark.parametrize("seen", [0, 1, 2])
def test_fuse_cloud_of_a_camera_that_sees_few_points_matches_the_serial_oracle(seen):
    """A camera that sees 0, 1 or 2 of 60 points, the rest behind it."""
    rng = np.random.default_rng(seen)
    C = 4
    xyz = np.column_stack([rng.uniform(-0.3, 0.3, (60, 2)), np.full(60, -5.0)])
    xyz[:seen, 2] = 3.0
    views = [CameraView(simple_cam(), frame_of(rng.dirichlet(np.ones(C), (80, 100))),
                        [Detection(3, 0.9, (0, 0, 100, 80))])]
    args = (xyz, 0.0, rng.dirichlet(np.ones(C), 60), views, static_traj(), np.eye(4),
            SphericalModel(), C)
    cloud = fuse_cloud(*args)
    assert_same_bits(cloud.probs, serial_fuse_cloud(*args)[1])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("detections", [True, False])
def test_fuse_cloud_matches_the_serial_oracle(dtype, detections):
    """Many points, two cameras offset in time from the scan, detections
    of both sources, float32 or float64 inputs: equal bits."""
    rng = np.random.default_rng(7)
    C, n = 5, 40_000
    xyz = np.column_stack([rng.uniform(-4, 4, (n, 2)), rng.uniform(-3, 12, n)])
    probs = rng.dirichlet(np.full(C, 0.5), n).astype(dtype)
    T_base_lidar = Pose(0, [0, 0.05, 0.1], IDENTITY_Q).matrix()
    args = (xyz.astype(dtype), 0.21, probs, oracle_views(rng, C, dtype, detections),
            moving_traj(), T_base_lidar, SphericalModel(), C)
    intensity = rng.random(n).astype(dtype)
    cloud = fuse_cloud(*args, intensity=intensity)
    want = serial_fuse_cloud(*args, intensity=intensity)
    for got, expected in zip((cloud.xyz, cloud.probs, cloud.intensity), want):
        assert_same_bits(got, expected)


@pytest.mark.parametrize("shape", [(35,), (40, 1), ()])
def test_fuse_cloud_rejects_intensity_of_another_shape_by_name(shape):
    """Intensity is one value per point, as the loaders check per file."""
    C = 3
    with pytest.raises(InvalidInputError, match=r"intensity shape .* != \(40,\)"):
        fuse_cloud(np.ones((40, 3)), 0.0, None, [], static_traj(), np.eye(4),
                   SphericalModel(), C, intensity=np.zeros(shape))


@pytest.mark.parametrize("shape", [(5, 4), (3,), (3, 5)])
def test_fuse_cloud_rejects_points_of_another_shape_by_name(shape):
    """Points are rejected at the entry, also when no camera projects them."""
    with pytest.raises(InvalidInputError,
                       match=re.escape(f"points must have shape (N, 3), got {shape}")):
        fuse_cloud(np.ones(shape), 0.0, None, [], static_traj(), np.eye(4), SphericalModel(), 3)


def test_fuse_cloud_distributions_normalized(rng):
    C = 7
    cam = simple_cam()
    model = SphericalModel(width=64, height=16)
    xyz = rng.uniform(-3, 3, size=(50, 3)) + [0, 0, 6]
    lidar = rng.dirichlet(np.ones(C), size=50)
    probs_grid = rng.dirichlet(np.ones(C), size=(80, 100))
    det = Detection(1, 0.9, (20, 20, 80, 60))
    view = CameraView(cam, frame_of(probs_grid), [det])
    cloud = fuse_cloud(xyz, 0.0, lidar, [view], static_traj(), np.eye(4),
                       model, C)
    np.testing.assert_allclose(cloud.probs.sum(axis=-1), 1.0, atol=1e-6)



def fuse_cloud_case(field):
    """fuse_cloud, detections included, with `cast` applied to one input:
    the cloud's xyz, lidar_probs or intensity, or the frame's probs."""
    def run(cast, rng):
        C = 6
        inputs = {"xyz": rng.uniform(-3, 3, size=(300, 3)) + [0, 0, 6],
                  "lidar_probs": rng.dirichlet(np.ones(C), size=300),
                  "intensity": rng.random(300),
                  "frame": rng.dirichlet(np.ones(C), size=(80, 100))}
        inputs[field] = cast(inputs[field])
        view = CameraView(simple_cam(), SegmentationFrame(inputs["frame"]),
                          [Detection(2, 0.9, (20, 20, 80, 60))])
        cloud = fuse_cloud(inputs["xyz"], 0.0, inputs["lidar_probs"], [view],
                           static_traj(), np.eye(4), SphericalModel(width=64, height=16),
                           C, intensity=inputs["intensity"])
        return cloud.xyz, cloud.probs, cloud.intensity
    return run


def integrate_scan_case(cast, rng):
    vm = VoxelMap(voxel_size=0.5, num_classes=4, n_horizon=2)
    for scan_id in range(3):
        xyz = rng.uniform(-2, 2, (200, 3))
        vm.integrate_scan(SemanticCloud(cast(xyz), cast(rng.dirichlet(np.ones(4), 200))),
                          scan_id)
    out = vm.export_cloud()
    return vm.keys_array, out.xyz, out.probs, vm.per_class_voxel_counts("finite")


def accumulate_scan_vs_map_case(cast, rng):
    """Through the camera frustum, as `eval --camera-fov` compares."""
    labelset = LabelSet.default()
    C = labelset.num_classes
    xyz = rng.uniform(-4, 4, (400, 3)) + [0, 0, 6]
    ref = VoxelMap(voxel_size=0.5, num_classes=C)
    ref.integrate_scan(SemanticCloud(xyz, rng.dirichlet(np.ones(C), 400)), 0)
    acc = ConfusionAccumulator(C)
    cloud = SemanticCloud(cast(xyz + rng.normal(0, 0.2, xyz.shape)),
                          cast(rng.dirichlet(np.ones(C), 400)))
    frustum = CameraFrustum(simple_cam(), Pose(0.0, np.zeros(3), IDENTITY_Q))
    accumulate_scan_vs_map(acc, cloud, ref, labelset, frustum)
    return acc.tp, acc.fp, acc.fn


def smooth_and_fuse_image_case(cast, rng):
    """`cast` applies to depth, which the warp of the previous frame reads."""
    C, H, W = 3, 30, 40
    depth = rng.uniform(1.0, 9.0, (H, W))
    depth[rng.random((H, W)) < 0.1] = np.nan
    prev = SegmentationFrame(rng.dirichlet(np.ones(C), (H, W)), depth=cast(depth))
    cur = SegmentationFrame(rng.dirichlet(np.ones(C), (H, W)), depth=cast(depth))
    T = Pose(0.0, [0.2, -0.1, 0.4], [np.cos(0.1), 0.0, np.sin(0.1), 0.0]).matrix()
    out = smooth_and_fuse_image(cur, prev, T, simple_cam(W, H, 40.0),
                                [Detection(1, 0.8, (5, 5, 20, 15))],
                                np.array([0.8, 0.25, 0.25]))
    return (out.probs,)


def render_range_image_case(cast, rng):
    img = render_range_image(cast(rng.uniform(-20, 20, (2000, 3))),
                             SphericalModel(width=64, height=16))
    return img.range, img.xyz, img.cell_index


@pytest.mark.parametrize("case", [
    pytest.param(fuse_cloud_case("frame"), id="fuse_cloud-frame"),
    pytest.param(fuse_cloud_case("xyz"), id="fuse_cloud-xyz"),
    pytest.param(fuse_cloud_case("lidar_probs"), id="fuse_cloud-lidar_probs"),
    pytest.param(fuse_cloud_case("intensity"), id="fuse_cloud-intensity"),
    pytest.param(integrate_scan_case, id="integrate_scan"),
    pytest.param(accumulate_scan_vs_map_case, id="accumulate_scan_vs_map"),
    pytest.param(smooth_and_fuse_image_case, id="smooth_and_fuse_image-depth"),
    pytest.param(render_range_image_case, id="render_range_image"),
])
def test_float32_input_equals_its_float64_cast(case):
    """Arrays load as stored (float32), and each compute entry point widens
    what it reads: a float32 input gives the bits of its float64 cast, dtype
    and shape included."""
    got = case(lambda a: a.astype(np.float32), np.random.default_rng(0))
    want = case(lambda a: a.astype(np.float32).astype(np.float64),
                np.random.default_rng(0))
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


# --- temporal smoothing -----------------------------------------------------


def test_smooth_no_previous_no_detections_identity():
    C = 4
    cam = simple_cam(w=10, h=8)
    cur = constant_frame(8, 10, C, 1)
    out = smooth_and_fuse_image(cur, None, None, cam, [], np.full(C, 0.5))
    np.testing.assert_array_equal(out.probs, cur.probs)


def test_smooth_static_identical_frames_fixed_point():
    C = 4
    cam = simple_cam(w=10, h=8)
    depth = np.full((8, 10), 5.0)
    cur = constant_frame(8, 10, C, 2, depth=depth)
    prev = constant_frame(8, 10, C, 2, depth=depth)
    out = smooth_and_fuse_image(cur, prev, np.eye(4), cam, [],
                                np.full(C, 0.25))
    np.testing.assert_allclose(out.probs, cur.probs, atol=1e-12)


def test_smooth_blend_frozen_arithmetic():
    """Previous one-hot class A, current one-hot class B, alpha 0.25:
    smoothed mass is 0.25 B vs 0.75 A."""
    C = 2
    cam = simple_cam(w=6, h=6)
    depth = np.full((6, 6), 5.0)
    prev = frame_of(np.stack([np.ones((6, 6)), np.zeros((6, 6))], axis=-1),
                    depth=depth)
    cur = frame_of(np.stack([np.zeros((6, 6)), np.ones((6, 6))], axis=-1),
                   depth=depth)
    out = smooth_and_fuse_image(cur, prev, np.eye(4), cam, [],
                                np.full(C, 0.25))
    np.testing.assert_allclose(out.probs[3, 3], [0.75, 0.25], atol=1e-12)


def test_smooth_matches_dense_blend_oracle(rng):
    """The blend at warped pixels and the current frame elsewhere, bit for
    bit as the full-frame formula; the inputs are left as they were."""
    C, H, W = 5, 16, 24
    cam = simple_cam(w=W, h=H, f=20.0)
    depth = rng.choice([2.0, 4.0, np.nan], size=(H, W), p=[0.45, 0.45, 0.1])
    prev = frame_of(rng.dirichlet(np.ones(C), size=(H, W)), depth=depth)
    cur = frame_of(rng.dirichlet(np.ones(C), size=(H, W)))
    before = prev.probs.copy(), cur.probs.copy()
    alphas = np.linspace(0.2, 0.9, C)
    T = np.eye(4)
    T[:3, 3] = [0.3, -0.2, 2.0]
    out = smooth_and_fuse_image(cur, prev, T, cam, [], alphas)

    pixels, src = warp_previous_frame(prev, T, cam)
    warped = np.zeros((H * W, C))
    warped[pixels] = src
    mask = np.zeros(H * W, dtype=bool)
    mask[pixels] = True
    blend = alphas * cur.probs + (1.0 - alphas) * warped.reshape(H, W, C)
    blend /= blend.sum(axis=-1, keepdims=True)
    expect = np.where(mask.reshape(H, W, 1), blend, cur.probs)
    np.testing.assert_array_equal(out.probs, expect)
    assert 0 < mask.sum() < H * W
    np.testing.assert_array_equal(prev.probs, before[0])
    np.testing.assert_array_equal(cur.probs, before[1])


def test_smooth_rejects_previous_frame_of_another_size():
    C = 2
    cam = simple_cam(w=6, h=6)
    prev = constant_frame(6, 8, C, 0, depth=np.full((6, 8), 5.0))
    cur = constant_frame(6, 6, C, 1)
    with pytest.raises(InvalidInputError, match="previous fused frame"):
        smooth_and_fuse_image(cur, prev, np.eye(4), cam, [], np.full(C, 0.5))


def test_smooth_rejects_frame_of_another_size_than_camera():
    C = 2
    cam = simple_cam(w=6, h=6)
    cur = constant_frame(6, 8, C, 1)
    with pytest.raises(InvalidInputError, match=r"\(6, 8\).*\(6, 6\)"):
        smooth_and_fuse_image(cur, None, None, cam, [], np.full(C, 0.5))


def test_smooth_missing_depth_rejected():
    C = 2
    cam = simple_cam(w=6, h=6)
    prev = constant_frame(6, 6, C, 0)  # no depth channel
    cur = constant_frame(6, 6, C, 1)
    with pytest.raises(InvalidInputError):
        smooth_and_fuse_image(cur, prev, np.eye(4), cam, [], np.full(C, 0.5))


def test_smooth_alpha_one_reduces_to_detection_fusion():
    C = 3
    cam = simple_cam(w=20, h=20)
    depth = np.full((20, 20), 5.0)
    prev = constant_frame(20, 20, C, 0, depth=depth)
    cur = constant_frame(20, 20, C, 1, depth=depth)
    det = Detection(2, 0.9, (5, 5, 15, 15))
    out = smooth_and_fuse_image(cur, prev, np.eye(4), cam, [det],
                                np.ones(C))
    ref = smooth_and_fuse_image(cur, None, None, cam, [det], np.ones(C))
    np.testing.assert_allclose(out.probs, ref.probs, atol=1e-12)


def test_smooth_rejects_bad_alphas():
    C = 2
    cam = simple_cam(w=6, h=6)
    cur = constant_frame(6, 6, C, 0)
    with pytest.raises(InvalidInputError):
        smooth_and_fuse_image(cur, None, None, cam, [], np.array([0.0, 1.0]))


def test_warp_identity_recovers_previous():
    C = 3
    cam = simple_cam(w=16, h=12, f=50.0)
    depth = np.full((12, 16), 4.0)
    probs = np.random.default_rng(0).dirichlet(np.ones(C), size=(12, 16))
    prev = frame_of(probs, depth=depth)
    pixels, warped = warp_previous_frame(prev, np.eye(4), cam)
    np.testing.assert_array_equal(pixels, np.arange(12 * 16))
    np.testing.assert_allclose(warped, probs.reshape(-1, C), atol=1e-12)


def test_warp_previous_frame_matches_nearest_point_oracle(rng):
    """Each target pixel takes the nearest warped source pixel, and the
    highest input index among equal depths; moving the camera back shrinks
    the image, so many sources land on one pixel at exactly equal depth."""
    C, H, W = 4, 16, 24
    cam = simple_cam(w=W, h=H, f=20.0)
    depth = rng.choice([2.0, 4.0, np.nan], size=(H, W), p=[0.45, 0.45, 0.1])
    probs = rng.dirichlet(np.ones(C), size=(H, W))
    T = np.eye(4)
    T[:3, 3] = [0.3, -0.2, 2.0]
    pixels, warped = warp_previous_frame(frame_of(probs, depth=depth), T, cam)

    hits = {}  # target pixel -> [(depth, source pixel)], in input order
    for v, u in np.ndindex(H, W):  # row-major, the input order
        z = depth[v, u]
        if not np.isfinite(z):
            continue
        p = np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])
        cur = p @ T[:3, :3].T + T[:3, 3]
        tu, tv, ok = project_pinhole(cur[None], cam)
        if ok[0]:
            target = (min(max(int(np.round(tv[0])), 0), H - 1),
                      min(max(int(np.round(tu[0])), 0), W - 1))
            hits.setdefault(target, []).append((cur[2], (v, u)))
    expect_mask = np.zeros((H, W), dtype=bool)
    expect = np.zeros_like(probs)
    ties = 0
    for target, found in hits.items():
        nearest = min(d for d, _ in found)
        at_nearest = [source for d, source in found if d == nearest]
        ties += len(at_nearest) > 1
        expect_mask[target] = True
        expect[target] = probs[at_nearest[-1]]
    np.testing.assert_array_equal(pixels, np.flatnonzero(expect_mask))
    np.testing.assert_array_equal(warped, expect.reshape(-1, C)[pixels])
    assert ties > 0



def test_warp_points_equal_pinhole_rays_times_depth(rng):
    """The warp builds its camera points from per-row and per-column ray
    factors; its output is that of `pinhole_rays` times depth, bit for bit,
    under a rotation and fractional intrinsics."""
    C, H, W = 3, 30, 41
    cam = CameraModel(fx=37.3, fy=35.9, cx=19.7, cy=14.2, width=W, height=H)
    depth = rng.uniform(1.0, 9.0, (H, W))
    depth[rng.random((H, W)) < 0.1] = np.nan
    depth[0, :5] = 0.0
    probs = rng.dirichlet(np.ones(C), size=(H, W))
    T = Pose(0.0, [0.2, -0.1, 0.4], [np.cos(0.1), 0.0, np.sin(0.1), 0.0]).matrix()
    pixels, warped = warp_previous_frame(frame_of(probs, depth=depth), T, cam)

    ok = np.isfinite(depth) & (depth > 0)
    cur = apply(T, pinhole_rays(cam)[ok] * depth[ok][:, None])
    u, v, valid = project_pinhole(cur, cam)
    cells = (np.clip(np.round(v[valid]).astype(int), 0, H - 1) * W
             + np.clip(np.round(u[valid]).astype(int), 0, W - 1))
    expect_pixels, win = nearest_per_cell(cells, cur[valid, 2], H * W)
    np.testing.assert_array_equal(pixels, expect_pixels)
    np.testing.assert_array_equal(
        warped, probs.reshape(-1, C)[np.flatnonzero(ok)[valid][win]])


def test_class_alphas_defaults():
    ls = LabelSet.default()
    alphas = class_alphas(ls)
    assert (alphas[:3] == ALPHA_DYNAMIC).all()
    assert (alphas[3:] == ALPHA_STATIC).all()
    assert ALPHA_DYNAMIC == 0.80 and ALPHA_STATIC == 0.25
