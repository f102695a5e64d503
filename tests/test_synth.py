import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semfuse.geometry import CameraModel, Pose, SphericalModel, invert
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
    d = prim.intersect(np.array([0.0, 0, 10.0]), np.array([[0.0, 0, -1.0]]), 0.0)
    assert d[0] == pytest.approx(10.0)
    # a ray parallel to the plane misses
    d = prim.intersect(np.array([0.0, 0, 10.0]), np.array([[1.0, 0, 0.0]]), 0.0)
    assert np.isinf(d[0])


def test_box_intersection_exact():
    prim = Primitive("box", [5.0, 0, 0], [2.0, 2.0, 2.0], 3)
    d = prim.intersect(np.array([0.0, 0, 0]), np.array([[1.0, 0, 0]]), 0.0)
    assert d[0] == pytest.approx(4.0)  # near face at x = 4
    d = prim.intersect(np.array([0.0, 0, 5.0]), np.array([[1.0, 0, 0]]), 0.0)
    assert np.isinf(d[0])  # passes above the box


def test_cylinder_intersection_exact():
    prim = Primitive("cylinder", [5.0, 0, 0], [2.0, 0, 3.0], 6)
    d = prim.intersect(np.array([0.0, 0, 1.0]), np.array([[1.0, 0, 0]]), 0.0)
    assert d[0] == pytest.approx(4.0)  # radius 1, wall at x = 4
    # above the cylinder cap height
    d = prim.intersect(np.array([0.0, 0, 4.0]), np.array([[1.0, 0, 0]]), 0.0)
    assert np.isinf(d[0])


def test_moving_primitive_position():
    prim = Primitive("box", [0, 0, 0], [1, 1, 1], 0, velocity=[1.0, 0, 0])
    np.testing.assert_allclose(prim.position_at(2.5), [2.5, 0, 0])


def test_scene_nearest_hit_wins():
    near = Primitive("box", [3.0, 0, 0], [1, 1, 1], 1)
    far = Primitive("box", [8.0, 0, 0], [1, 1, 1], 2)
    scene = Scene([far, near], None)
    dist, cls = scene.cast(np.array([0.0, 0, 0]), np.array([[1.0, 0, 0]]))
    assert dist[0] == pytest.approx(2.5)
    assert cls[0] == 1


def test_empty_scene_all_miss():
    scene = Scene([], None)
    dist, cls = scene.cast(np.zeros(3), np.tile([1.0, 0, 0], (5, 1)))
    assert np.isinf(dist).all()
    assert (cls == MISS).all()


@pytest.mark.parametrize("shape", [(), (2,), (4,), (1, 3), (5, 3)])
def test_ray_origin_of_any_other_shape_is_rejected(shape):
    """Every ray of a cast starts from one (3,) origin; an origin per ray
    is refused by name, by the scene and by each primitive."""
    dirs = np.tile([1.0, 0, 0], (5, 1))
    prim = Primitive("box", [5.0, 0, 0], [2.0, 2.0, 2.0], 3)
    with pytest.raises(InvalidInputError, match=r"origin must have shape \(3,\)"):
        Scene([prim], None).cast(np.zeros(shape), dirs)
    with pytest.raises(InvalidInputError, match=rf"got {re.escape(str(shape))}"):
        prim.intersect(np.zeros(shape), dirs, 0.0)


# --- the per-ray cast before one origin and culling, kept as an oracle -------


def parent_intersect(prim, origins, dirs, t):
    """Primitive.intersect as it was: (N, 3) origins, (N, 3) slab
    temporaries and nanmax/nanmin, every ray tested."""
    pos = prim.position_at(t)
    out = np.full(len(origins), np.inf)
    if prim.shape == "plane":
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (pos[2] - origins[:, 2]) / dirs[:, 2]
        hit = np.isfinite(s) & (s > 1e-9)
        out[hit] = s[hit]
    elif prim.shape == "box":
        lo = pos - 0.5 * prim.size
        hi = pos + 0.5 * prim.size
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (lo - origins) / dirs
            t2 = (hi - origins) / dirs
        with warnings.catch_warnings():
            # a zero direction from a corner of the box is NaN on every axis
            warnings.simplefilter("ignore", RuntimeWarning)
            tmin = np.nanmax(np.minimum(t1, t2), axis=1)
            tmax = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (tmax >= tmin) & (tmax > 1e-9)
        s = np.where(tmin > 1e-9, tmin, tmax)
        out[hit] = s[hit]
    else:
        r = 0.5 * prim.size[0]
        h = prim.size[2]
        ox = origins[:, 0] - pos[0]
        oy = origins[:, 1] - pos[1]
        dx, dy = dirs[:, 0], dirs[:, 1]
        a = dx * dx + dy * dy
        b = 2 * (ox * dx + oy * dy)
        c = ox * ox + oy * oy - r * r
        disc = b * b - 4 * a * c
        ok = (disc >= 0) & (a > 1e-12)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            s = (-b + sign * sq) / np.where(ok, 2 * a, 1.0)
            z = origins[:, 2] + s * dirs[:, 2]
            hit = ok & (s > 1e-9) & (z >= pos[2]) & (z <= pos[2] + h)
            out = np.where(hit & (s < out), s, out)
    return out


def parent_cast(prims, origins, dirs, t):
    best = np.full(len(origins), np.inf)
    cls = np.full(len(origins), MISS, dtype=np.int64)
    for prim in prims:
        d = parent_intersect(prim, origins, dirs, t)
        closer = d < best
        best[closer] = d[closer]
        cls[closer] = prim.class_index
    return best, cls


# quarter-metre grid values put origins and ray targets exactly on slab
# planes, edges and corners; rounded floats give every other slope
coord = st.one_of(st.integers(-16, 16).map(lambda k: k / 4),
                  st.floats(-4, 4).map(lambda x: round(x, 6)))
extent = st.one_of(st.just(0.0), st.integers(0, 12).map(lambda k: k / 4),
                   st.floats(0, 3).map(lambda x: round(x, 6)))
vec = st.tuples(coord, coord, coord).map(np.array)


@st.composite
def primitives(draw):
    shape = draw(st.sampled_from(("plane", "box", "cylinder")))
    size = draw(st.tuples(extent, extent, extent))
    velocity = draw(st.one_of(st.just(np.zeros(3)), vec))
    return Primitive(shape, draw(vec), size, draw(st.integers(0, 5)),
                     velocity=velocity)


def landmarks(prim, t):
    """Points on and in a primitive at time t: a box's centre, face
    centres, edge midpoints and corners; a cylinder's axis and rim."""
    pos = prim.position_at(t)
    if prim.shape == "box":
        return [pos + 0.5 * prim.size * [sx, sy, sz]
                for sx in (-1, 0, 1) for sy in (-1, 0, 1) for sz in (-1, 0, 1)]
    if prim.shape == "cylinder":
        r, h = 0.5 * prim.size[0], prim.size[2]
        ang = np.arange(8) * np.pi / 4
        return [pos + [r * np.cos(a), r * np.sin(a), z]
                for a in ang for z in (0.0, 0.5 * h, h)] + [pos + [0, 0, 0.5 * h]]
    return [pos]


def tangents(prim, origin, t):
    """Points where rays from `origin` graze a cylinder's wall."""
    if prim.shape != "cylinder":
        return []
    pos = prim.position_at(t)
    r, h = 0.5 * prim.size[0], prim.size[2]
    off = origin[:2] - pos[:2]
    reach = np.hypot(*off)
    if reach <= r:
        return []
    base, spread = np.arctan2(off[1], off[0]), np.arccos(r / reach)
    return [pos + [r * np.cos(base + sgn * spread), r * np.sin(base + sgn * spread), z]
            for sgn in (-1, 1) for z in (0.0, 0.5 * h, h)]


@st.composite
def cast_cases(draw):
    prims = draw(st.lists(primitives(), min_size=1, max_size=4))
    t = draw(st.sampled_from((0.0, 0.5, 1.25)))
    points = [p for prim in prims for p in landmarks(prim, t)]
    # free, inside a primitive or on its surface, or on one of its slab planes
    origin = draw(st.one_of(vec, st.sampled_from(points)))
    if draw(st.booleans()):
        keep = draw(st.integers(0, 2))
        free = draw(vec)
        free[keep] = draw(st.sampled_from(points))[keep]
        origin = free
    targets = points + [p for prim in prims for p in tangents(prim, origin, t)]
    dirs = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("free", "axis", "aim")))
        if kind == "free":
            d = draw(vec)
        elif kind == "axis":
            d = np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from((-1.0, 1.0)))
        else:
            d = draw(st.sampled_from(targets)) - origin
        dirs.append(d * draw(st.sampled_from((1.0, 0.3, 7.0))))
    return prims, origin, np.array(dirs), t


@given(cast_cases())
def test_cast_equals_per_ray_oracle(case):
    """One origin with bounding-sphere culling gives the distances and
    classes, bit for bit, of testing every ray against every primitive
    from broadcast origins: for zero-size and moving primitives, origins
    inside a primitive or on a slab plane, and axis-parallel, non-unit and
    grazing rays."""
    prims, origin, dirs, t = case
    dist, cls = Scene(prims, None).cast(origin, dirs, t)
    want_dist, want_cls = parent_cast(prims, np.broadcast_to(origin, dirs.shape), dirs, t)
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(cls, want_cls)


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
    with pytest.raises(InvalidInputError, match="primitive 0: unknown class 'dragon'"):
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
    img, gt = simulate_scan(scene, pose_at(xyz=(0, 0, h)), model, NoiseSpec(),
                            0.0, np.random.default_rng(0))
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
    _, gt_a = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, noisy, 0.0,
                            np.random.default_rng(1))
    _, gt_b = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, noisy, 0.0,
                            np.random.default_rng(2))
    np.testing.assert_array_equal(gt_a, gt_b)


def test_scan_range_noise_applied(labelset):
    scene = flat_scene(labelset)
    model = SphericalModel(width=32, height=8)
    clean, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, NoiseSpec(),
                             0.0, np.random.default_rng(0))
    noisy, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model,
                             NoiseSpec(range_sigma=0.1), 0.0,
                             np.random.default_rng(3))
    hit = clean.range > 0
    diff = (noisy.range - clean.range)[hit]
    assert diff.std() == pytest.approx(0.1, rel=0.3)


def test_scan_respects_r_max(labelset):
    scene = flat_scene(labelset)
    model = SphericalModel(width=32, height=8, r_max=6.0)
    img, _ = simulate_scan(scene, pose_at(xyz=(0, 0, 5)), model, NoiseSpec(),
                           0.0, np.random.default_rng(0))
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
    frame, gt = simulate_segmentation(scene, pose_cam, cam, NoiseSpec(), pose_cam.t,
                                      np.random.default_rng(0))
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
    dets = simulate_detections(scene, camera_pose_forward(), cam, NoiseSpec(), 0.0,
                               np.random.default_rng(0))
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
    dets = simulate_detections(scene, camera_pose_forward(), cam, NoiseSpec(), 0.0,
                               np.random.default_rng(0))
    assert dets == []


def test_detection_miss_rate_one(labelset):
    scene = Scene([Primitive("box", [8.0, 0, 1.0], [2, 2, 2],
                             labelset.index("vehicle"))], labelset)
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    dets = simulate_detections(scene, camera_pose_forward(), cam,
                               NoiseSpec(det_miss_rate=1.0), 0.0,
                               np.random.default_rng(0))
    assert dets == []


def test_noise_spec_validation():
    with pytest.raises(InvalidInputError):
        NoiseSpec(label_flip_rate=-0.1)
    with pytest.raises(InvalidInputError):
        NoiseSpec(det_miss_rate=-1)


def test_forward_camera_extrinsic_round_trip():
    ext = forward_camera_extrinsic()
    # base forward, left and up are camera +z, -x and -y (optical frame)
    p = np.array([[5.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 1.0], [0.0, 0.0, 3.0, 1.0]])
    local = p @ ext.T
    np.testing.assert_allclose(local[:, :3], [[0, 0, 5.0], [-2.0, 0, 0], [0, -3.0, 0]],
                               atol=1e-12)
    np.testing.assert_allclose(invert(ext) @ local.T, p.T, atol=1e-12)
