import numpy as np
import pytest

from semfuse.geometry import CameraModel, Pose, SphericalModel
from semfuse.labels import InvalidInputError, softmax
from semfuse.synth import (MISS, NoiseSpec, Primitive, Scene,
                           classes_to_frame, forward_camera_extrinsic,
                           load_scene, observed_probs, scene_from_spec,
                           simulate_detections, simulate_scan,
                           simulate_segmentation)
from tests.conftest import scene_path

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def pose_at(t=0.0, xyz=(0, 0, 0)):
    return Pose(t, np.asarray(xyz, float), IDENTITY_Q)


# --- primitives --------------------------------------------------------------


def test_primitive_validation():
    with pytest.raises(InvalidInputError):
        Primitive("pyramid", [0, 0, 0], [1, 1, 1], 0)
    with pytest.raises(InvalidInputError):
        Primitive("box", [0, 0, 0], [-1, 1, 1], 0)


def test_plane_intersection_exact():
    """A downward ray from 10 m above a ground plane hits at exactly 10 m."""
    prim = Primitive("plane", [0, 0, 0], [0, 0, 0], 4)
    d = prim.intersect(np.array([[0.0, 0, 10.0]]), np.array([[0.0, 0, -1.0]]), 0.0)
    assert d[0] == pytest.approx(10.0)
    # a ray parallel to the plane misses
    d = prim.intersect(np.array([[0.0, 0, 10.0]]), np.array([[1.0, 0, 0.0]]), 0.0)
    assert np.isinf(d[0])


def test_box_intersection_exact():
    prim = Primitive("box", [5.0, 0, 0], [2.0, 2.0, 2.0], 3)
    d = prim.intersect(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]), 0.0)
    assert d[0] == pytest.approx(4.0)  # near face at x = 4
    d = prim.intersect(np.array([[0.0, 0, 5.0]]), np.array([[1.0, 0, 0]]), 0.0)
    assert np.isinf(d[0])  # passes above the box


def test_cylinder_intersection_exact():
    prim = Primitive("cylinder", [5.0, 0, 0], [2.0, 0, 3.0], 6)
    d = prim.intersect(np.array([[0.0, 0, 1.0]]), np.array([[1.0, 0, 0]]), 0.0)
    assert d[0] == pytest.approx(4.0)  # radius 1, wall at x = 4
    # above the cylinder cap height
    d = prim.intersect(np.array([[0.0, 0, 4.0]]), np.array([[1.0, 0, 0]]), 0.0)
    assert np.isinf(d[0])


def test_moving_primitive_position():
    prim = Primitive("box", [0, 0, 0], [1, 1, 1], 0, velocity=[1.0, 0, 0])
    np.testing.assert_allclose(prim.position_at(2.5), [2.5, 0, 0])


def test_scene_nearest_hit_wins():
    near = Primitive("box", [3.0, 0, 0], [1, 1, 1], 1)
    far = Primitive("box", [8.0, 0, 0], [1, 1, 1], 2)
    scene = Scene([far, near], None)
    dist, cls = scene.cast(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]]))
    assert dist[0] == pytest.approx(2.5)
    assert cls[0] == 1


def test_empty_scene_all_miss():
    scene = Scene([], None)
    dist, cls = scene.cast(np.zeros((5, 3)), np.tile([1.0, 0, 0], (5, 1)))
    assert np.isinf(dist).all()
    assert (cls == MISS).all()


# --- scene loading -----------------------------------------------------------


def test_load_bundled_scene(labelset):
    scene, spec = load_scene(scene_path("campus_block"))
    assert len(scene.primitives) == len(spec["primitives"])
    classes = {p.class_index for p in scene.primitives}
    assert labelset.index("road") in classes
    assert labelset.index("building") in classes


def test_scene_from_spec_unknown_class(labelset):
    spec = {"primitives": [{"shape": "box", "position": [0, 0, 0],
                            "size": [1, 1, 1], "class": "dragon"}]}
    with pytest.raises(ValueError):
        scene_from_spec(spec, labelset)


# --- scans -------------------------------------------------------------------


def flat_scene(labelset):
    return Scene([Primitive("plane", [0, 0, 0], [0, 0, 0],
                            labelset.index("road"))], labelset)


def test_scan_exact_analytic_plane_range(labelset):
    """With zero noise, every hit range equals height / sin(declination) for
    the ray's elevation angle."""
    scene = flat_scene(labelset)
    model = SphericalModel(width=64, height=16)
    h = 5.0
    img, gt = simulate_scan(scene, pose_at(xyz=(0, 0, h)), model)
    hit = img.range > 0
    assert hit.any()
    rows = np.nonzero(hit)[0 if hit.ndim == 1 else 0]
    vv, uu = np.nonzero(hit)
    elev = model.f_up - (vv + 0.5) / model.height * model.fov_vertical
    expect = h / np.sin(-elev)
    np.testing.assert_allclose(img.range[hit], expect, rtol=1e-9)
    assert (gt[hit] == labelset.index("road")).all()
    assert (gt[~hit] == MISS).all()


def test_scan_ground_truth_noise_free(labelset):
    scene = flat_scene(labelset)
    model = SphericalModel(width=32, height=8)
    noisy = NoiseSpec(range_sigma=0.5)
    _, gt_a = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, noisy,
                            rng=np.random.default_rng(1))
    _, gt_b = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, noisy,
                            rng=np.random.default_rng(2))
    np.testing.assert_array_equal(gt_a, gt_b)


def test_scan_range_noise_applied(labelset):
    scene = flat_scene(labelset)
    model = SphericalModel(width=32, height=8)
    clean, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model)
    noisy, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model,
                             NoiseSpec(range_sigma=0.1),
                             rng=np.random.default_rng(3))
    hit = clean.range > 0
    diff = (noisy.range - clean.range)[hit]
    assert diff.std() == pytest.approx(0.1, rel=0.3)


def test_scan_respects_r_max(labelset):
    scene = flat_scene(labelset)
    model = SphericalModel(width=32, height=8, r_max=6.0)
    img, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model)
    hit = img.range > 0
    assert (img.range[hit] <= 6.0).all()


# --- segmentation frames -----------------------------------------------------


def test_classes_to_frame_zero_flip_argmax_matches_gt():
    gt = np.array([[0, 1], [2, MISS]])
    frame = classes_to_frame(gt, 4, NoiseSpec(), np.random.default_rng(0),
                             background=3)
    labels = np.argmax(frame.probs, axis=-1)
    np.testing.assert_array_equal(labels, [[0, 1], [2, 3]])
    np.testing.assert_allclose(frame.probs.sum(axis=-1), 1.0, atol=1e-9)


def test_classes_to_frame_flip_rate_three_sigma():
    rng = np.random.default_rng(5)
    gt = np.zeros((200, 200), dtype=np.int64)
    rate = 0.2
    frame = classes_to_frame(gt, 5, NoiseSpec(label_flip_rate=rate), rng,
                             background=4)
    flipped = (np.argmax(frame.probs, axis=-1) != 0).mean()
    n = gt.size
    sigma = np.sqrt(rate * (1 - rate) / n)
    assert abs(flipped - rate) < 3 * sigma + 1e-9


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_observed_probs_matches_per_point_lidar_oracle(rate):
    """One network stand-in serves LiDAR points and camera pixels. On a 1-D
    class array it makes the draws, in the order, of the per-point formula
    that synthesized LiDAR logs used before, so logs stay byte-identical."""
    C, noise = 6, NoiseSpec(label_flip_rate=rate, score_temperature=5.0)
    gt = np.random.default_rng(0).integers(0, C, size=500)
    rng = np.random.default_rng(7)
    observed = gt.copy()
    if rate > 0:
        flip = rng.random(len(observed)) < rate
        shift = rng.integers(1, C, size=len(observed))
        observed = np.where(flip, (observed + shift) % C, observed)
    scores = np.zeros((len(observed), C))
    scores[np.arange(len(observed)), observed] = noise.score_temperature
    rng_new = np.random.default_rng(7)
    out = observed_probs(gt, C, noise, rng_new)
    assert np.array_equal(out, softmax(scores))
    assert rng_new.random() == rng.random()


def test_segmentation_depth_and_gt(labelset):
    scene = Scene([Primitive("box", [5.0, 0, 0], [2, 2, 2],
                             labelset.index("building"))], labelset)
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    # world_T_cam for a camera at the origin looking along world +x
    pose_cam = Pose.from_matrix(np.linalg.inv(forward_camera_extrinsic()))
    frame, gt = simulate_segmentation(scene, pose_cam, cam)
    center = gt[50, 50]
    assert center == labelset.index("building")
    assert frame.depth[50, 50] == pytest.approx(4.0)  # box near face
    # background pixels labeled sky and NaN depth
    assert gt[0, 0] == MISS
    assert np.isnan(frame.depth[0, 0])
    assert np.argmax(frame.probs[0, 0]) == labelset.index("sky")


# --- detections --------------------------------------------------------------


def camera_pose_forward():
    return Pose.from_matrix(np.linalg.inv(forward_camera_extrinsic()))


def test_detection_for_visible_dynamic_object(labelset):
    scene = Scene([Primitive("box", [8.0, 0, 1.0], [2, 2, 2],
                             labelset.index("vehicle"))], labelset)
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    dets = simulate_detections(scene, camera_pose_forward(), cam)
    assert len(dets) == 1
    det = dets[0]
    assert det.class_index == labelset.index("vehicle")
    # box center (8, 0, 1) projects to u = 50, v = 37.5
    x0, y0, x1, y1 = det.bbox
    assert x0 < 50 < x1 and y0 < 37.5 < y1


def test_no_detection_for_static_or_behind(labelset):
    static = Primitive("box", [8.0, 0, 1.0], [2, 2, 2],
                       labelset.index("building"))
    behind = Primitive("box", [-8.0, 0, 1.0], [2, 2, 2],
                       labelset.index("vehicle"))
    scene = Scene([static, behind], labelset)
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    dets = simulate_detections(scene, camera_pose_forward(), cam)
    assert dets == []


def test_detection_miss_rate_one(labelset):
    scene = Scene([Primitive("box", [8.0, 0, 1.0], [2, 2, 2],
                             labelset.index("vehicle"))], labelset)
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    dets = simulate_detections(scene, camera_pose_forward(), cam,
                               NoiseSpec(det_miss_rate=1.0))
    assert dets == []


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        NoiseSpec(label_flip_rate=-0.1)
    with pytest.raises(InvalidInputError):
        NoiseSpec(det_miss_rate=-1)


def test_forward_camera_extrinsic_round_trip():
    ext = forward_camera_extrinsic(offset=(1.0, 2.0, 3.0))
    # a point 5 m ahead of the mount maps to 4 m ahead along camera +z
    p = np.array([6.0, 2.0, 3.0, 1.0])
    local = ext @ p
    np.testing.assert_allclose(local[:3], [0, 0, 5.0], atol=1e-12)
