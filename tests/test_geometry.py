import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semfuse.geometry import (APPLY_BLOCK_ROWS, CameraModel, OutOfRangeError,
                              Pose, RangeImage, SphericalModel, Trajectory, apply, invert,
                              lidar_to_camera, nearest_per_cell, pinhole_rays,
                              project_pinhole, project_spherical,
                              render_range_image, render_virtual_scan,
                              sample_bilinear,
                              spherical_ray_directions, unproject_spherical)
from semfuse.labels import InvalidInputError
from semfuse.voxelmap import VoxelMap
from tests.conftest import assert_blank_range_image

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def make_traj(*poses):
    return Trajectory([Pose(t, np.array(tr, dtype=float), np.array(q))
                       for t, tr, q in poses])


# --- Pose ------------------------------------------------------------------


def test_pose_rejects_unnormalized_quaternion():
    with pytest.raises(InvalidInputError):
        Pose(0.0, np.zeros(3), np.array([1.0, 1.0, 0, 0]))


@pytest.mark.parametrize("t, translation, rotation, name", [
    (np.nan, np.zeros(3), IDENTITY_Q, "t"),
    (0.0, np.array([np.nan, 0, 0]), IDENTITY_Q, "translation"),
    (0.0, np.array([0, np.inf, 0]), IDENTITY_Q, "translation"),
    (0.0, np.zeros(3), np.array([np.nan, 0, 0, 0]), "rotation"),
], ids=["t", "translation-nan", "translation-inf", "rotation"])
def test_pose_rejects_non_finite_values_by_name(t, translation, rotation, name):
    """A NaN quaternion has no norm to compare, and a NaN time would pass the
    trajectory's ordering check: both are refused where the pose is made."""
    with pytest.raises(InvalidInputError, match=f"pose {name} must be finite"):
        Pose(t, translation, rotation)


@pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
def test_camera_model_rejects_non_finite_intrinsics_by_name(field):
    args = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
    with pytest.raises(InvalidInputError, match=f"camera {field} must be finite"):
        CameraModel(**{**args, field: np.nan})


def test_camera_model_rejects_non_finite_extrinsic():
    T = np.eye(4)
    T[0, 3] = np.inf
    with pytest.raises(InvalidInputError, match="camera T_cam_base must be finite"):
        CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480, T_cam_base=T)


@pytest.mark.parametrize("field", ["f_up", "f_down", "r_max"])
def test_spherical_model_rejects_non_finite_fov_and_range_by_name(field):
    with pytest.raises(InvalidInputError, match=f"lidar {field} must be finite"):
        SphericalModel(**{field: np.nan})


def test_pose_matrix_round_trip():
    q = np.array([np.cos(0.3), 0, 0, np.sin(0.3)])
    p = Pose(1.0, np.array([1.0, 2.0, 3.0]), q)
    again = Pose.from_matrix(p.matrix(), t=1.0)
    np.testing.assert_allclose(again.translation, p.translation, atol=1e-12)
    np.testing.assert_allclose(np.abs(again.rotation @ p.rotation), 1.0,
                               atol=1e-12)


def test_invert_is_inverse():
    q = np.array([np.cos(0.4), np.sin(0.4), 0, 0])
    T = Pose(0.0, np.array([1.0, -2.0, 0.5]), q).matrix()
    np.testing.assert_allclose(invert(T) @ T, np.eye(4), atol=1e-12)


# --- Trajectory -------------------------------------------------------------


def test_interpolate_exact_at_knot():
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (2, 0, 0), IDENTITY_Q))
    p = traj.interpolate(1.0)
    np.testing.assert_allclose(p.translation, [2, 0, 0], atol=1e-15)


def test_interpolate_lerp_midpoint():
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (2, 0, 0), IDENTITY_Q))
    p = traj.interpolate(0.5)
    np.testing.assert_allclose(p.translation, [1, 0, 0], atol=1e-12)


def test_interpolate_slerp_midpoint_90deg():
    # 90 degree rotation about z has quaternion (cos45, 0, 0, sin45)
    q90 = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (0, 0, 0), q90))
    p = traj.interpolate(0.5)
    q45 = np.array([np.cos(np.pi / 8), 0, 0, np.sin(np.pi / 8)])
    np.testing.assert_allclose(np.abs(p.rotation @ q45), 1.0, atol=1e-12)
    np.testing.assert_allclose(p.translation, np.zeros(3), atol=1e-12)


def test_extrapolation_constant_velocity_within_limit():
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (1, 0, 0), IDENTITY_Q))
    p = traj.interpolate(1.05)
    np.testing.assert_allclose(p.translation, [1.05, 0, 0], atol=1e-12)


def test_out_of_range_raises():
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (1, 0, 0), IDENTITY_Q))
    with pytest.raises(OutOfRangeError):
        traj.interpolate(1.2)
    with pytest.raises(OutOfRangeError):
        traj.interpolate(-0.2)


def test_trajectory_rejects_non_monotone():
    with pytest.raises(InvalidInputError):
        make_traj((1.0, (0, 0, 0), IDENTITY_Q), (0.5, (1, 0, 0), IDENTITY_Q))


def test_trajectory_continuity():
    q90 = np.array([np.cos(np.pi / 4), 0, 0, np.sin(np.pi / 4)])
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (1, 1, 0), q90))
    a = traj.interpolate(0.5)
    b = traj.interpolate(0.5 + 1e-9)
    assert np.linalg.norm(a.translation - b.translation) < 1e-6
    assert abs(abs(a.rotation @ b.rotation) - 1.0) < 1e-6


# --- lidar_to_camera --------------------------------------------------------


def _static_traj():
    return make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (0, 0, 0), IDENTITY_Q))


def test_lidar_to_camera_identity():
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    pts = np.array([[1.0, 2.0, 3.0]])
    out = lidar_to_camera(pts, 0.5, 0.5, _static_traj(), cam, np.eye(4))
    np.testing.assert_allclose(out, pts, atol=1e-12)


def test_lidar_to_camera_static_offset():
    T = np.eye(4)
    T[2, 3] = 1.0  # camera sits 1 m behind along its own z
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                      T_cam_base=T)
    out = lidar_to_camera(np.array([[0.0, 0, 0]]), 0.5, 0.5, _static_traj(),
                          cam, np.eye(4))
    np.testing.assert_allclose(out, [[0, 0, 1.0]], atol=1e-12)


def test_lidar_to_camera_motion_compensation():
    # base moves +1 m/s in x; camera triggers 0.1 s after the LiDAR
    traj = make_traj((0.0, (0, 0, 0), IDENTITY_Q), (1.0, (1, 0, 0), IDENTITY_Q))
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    out = lidar_to_camera(np.array([[5.0, 0, 0]]), 0.4, 0.5, traj, cam,
                          np.eye(4))
    np.testing.assert_allclose(out, [[4.9, 0, 0]], atol=1e-9)


def test_lidar_to_camera_equal_times_equals_static_composition():
    T_cb = Pose(0.0, np.array([0.1, -0.2, 0.3]),
                np.array([np.cos(0.2), 0, np.sin(0.2), 0])).matrix()
    T_bl = Pose(0.0, np.array([-0.5, 0.0, 0.1]),
                np.array([np.cos(0.1), np.sin(0.1), 0, 0])).matrix()
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480,
                      T_cam_base=T_cb)
    traj = make_traj((0.0, (3, 4, 5), IDENTITY_Q), (1.0, (6, 4, 5), IDENTITY_Q))
    pts = np.array([[1.0, 2.0, 3.0], [-2.0, 0.5, 7.0]])
    out = lidar_to_camera(pts, 0.25, 0.25, traj, cam, T_bl)
    expected = apply(T_cb @ T_bl, pts)
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("n", [0, 1, APPLY_BLOCK_ROWS - 1, APPLY_BLOCK_ROWS,
                               APPLY_BLOCK_ROWS + 1, 3 * APPLY_BLOCK_ROWS + 7])
def test_apply_in_blocks_equals_one_product(n):
    """`apply` multiplies in row blocks; the bits equal one whole product."""
    rng = np.random.default_rng(n)
    T = Pose(0.0, rng.normal(size=3), np.array([0.5, -0.5, 0.5, 0.5])).matrix()
    pts = rng.uniform(-60, 60, (n, 3))
    whole = pts @ T[:3, :3].T
    whole += T[:3, 3]
    out = apply(T, pts)
    assert out.shape == (n, 3) and np.array_equal(out, whole)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 3, 3)])
def test_apply_rejects_points_of_another_shape_by_name(shape):
    """One point is a (1, 3) array; a bare (3,) point is rejected like any
    other shape."""
    with pytest.raises(InvalidInputError, match=r"shape \(N, 3\), got " + re.escape(str(shape))):
        apply(np.eye(4), np.zeros(shape))
    np.testing.assert_array_equal(apply(np.eye(4), np.ones((1, 3))), np.ones((1, 3)))


# --- pinhole ----------------------------------------------------------------


def test_project_pinhole_optical_axis():
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    u, v, ok = project_pinhole(np.array([[0.0, 0, 1.0]]), cam)
    assert (u[0], v[0], ok[0]) == (320.0, 240.0, True)


def test_project_pinhole_behind_camera():
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    _, _, ok = project_pinhole(np.array([[0.0, 0, -1.0]]), cam)
    assert not ok[0]


def test_project_pinhole_frozen():
    cam = CameraModel(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
    u, v, ok = project_pinhole(np.array([[0.5, -0.2, 2.0]]), cam)
    assert ok[0]
    np.testing.assert_allclose([u[0], v[0]], [445.0, 190.0], atol=1e-12)


def test_pinhole_rays_invert_the_projection():
    """Each pixel's ray, at any positive depth, projects back onto that
    pixel; the ray has depth 1."""
    cam = CameraModel(fx=50, fy=40, cx=11.5, cy=7.25, width=24, height=16)
    rays = pinhole_rays(cam)
    assert rays.shape == (16, 24, 3)
    np.testing.assert_array_equal(rays[..., 2], 1.0)
    vs, us = np.mgrid[0:16, 0:24]
    u, v, ok = project_pinhole(rays.reshape(-1, 3) * 3.5, cam)
    assert ok.all()
    np.testing.assert_allclose(u, us.ravel(), atol=1e-9)
    np.testing.assert_allclose(v, vs.ravel(), atol=1e-9)


def test_camera_model_rejects_bad_intrinsics():
    with pytest.raises(InvalidInputError):
        CameraModel(fx=-1, fy=500, cx=0, cy=0, width=10, height=10)


# --- bilinear ---------------------------------------------------------------


def test_bilinear_integer_exact():
    grid = np.arange(24, dtype=float).reshape(3, 4, 2)
    val = sample_bilinear(grid, np.array([2.0]), np.array([1.0]))
    assert val.shape == (1, 2) and (val[0] == grid[1, 2]).all()


def test_bilinear_midpoint_average():
    grid = np.zeros((2, 2, 1))
    grid[1, 1] = 4.0
    val = sample_bilinear(grid, np.array([0.5]), np.array([0.5]))
    np.testing.assert_allclose(val, [[1.0]], atol=1e-12)


def test_bilinear_fractional_blend():
    grid = np.array([[[0.0], [8.0]]])
    val = sample_bilinear(grid, np.array([0.25]), np.array([0.0]))
    np.testing.assert_allclose(val, [[2.0]], atol=1e-12)


def test_bilinear_border_clamp_and_bounds():
    grid = np.array([[[1.0], [2.0]]])
    # inside the grid's border cell and beyond it, u clamps to the edge
    val = sample_bilinear(grid, np.array([-0.4, -0.6, 1.6]), np.array([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(val, [[1.0], [1.0], [2.0]], atol=1e-12)


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 2, 1)])
def test_bilinear_rejects_a_grid_of_another_shape_by_name(shape):
    """Grids are (H, W, C): one channel is (H, W, 1)."""
    with pytest.raises(InvalidInputError,
                       match=r"grid must have shape \(H, W, C\), got " + re.escape(str(shape))):
        sample_bilinear(np.zeros(shape), np.array([0.0]), np.array([0.0]))


# --- spherical --------------------------------------------------------------


def test_project_spherical_forward_axis_center():
    model = SphericalModel(width=1024, height=128)
    u, v, r, ok = project_spherical(np.array([[10.0, 0, 0]]), model)
    assert ok[0]
    assert (u[0], v[0]) == (512.0, 64.0)
    assert r[0] == 10.0


def test_project_spherical_straight_up_flagged():
    model = SphericalModel(width=1024, height=128)
    _, _, _, ok = project_spherical(np.array([[0.0, 0, 5.0]]), model)
    assert not ok[0]


def test_project_spherical_frozen_u():
    model = SphericalModel(width=1024, height=128)
    u, _, _, _ = project_spherical(np.array([[1.0, 1.0, 0.0]]), model)
    np.testing.assert_allclose(u, [384.0], atol=1e-9)


def test_project_spherical_beyond_range_flagged():
    model = SphericalModel(width=64, height=16, r_max=50.0)
    _, _, _, ok = project_spherical(np.array([[60.0, 0, 0]]), model)
    assert not ok[0]


def test_project_spherical_zero_norm_rejected():
    model = SphericalModel()
    with pytest.raises(InvalidInputError):
        project_spherical(np.zeros((1, 3)), model)


@pytest.mark.parametrize("shape", [(0,), (2,), (4,), (5, 2), (5, 3, 1), (3,), (3, 5)])
def test_spherical_projection_rejects_other_shapes_by_name(shape):
    """Points are (N, 3) rows wherever they are read: a bare (3,) point, a
    transposed (3, N) cloud or an (N, 2) array fails with one message in
    both projections, both renderers and the voxel lookup, rather than
    rendering garbage rows or raising a bare IndexError."""
    model = SphericalModel(width=64, height=16)
    cam = CameraModel(fx=50, fy=50, cx=32, cy=8, width=64, height=16)
    pose = Pose(0.0, np.zeros(3), IDENTITY_Q)
    points = np.ones(shape)
    for read in (lambda p: project_pinhole(p, cam), lambda p: project_spherical(p, model),
                 lambda p: render_range_image(p, model),
                 lambda p: render_virtual_scan(p, pose, model),
                 VoxelMap(voxel_size=0.5, num_classes=3).rows_for_points):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"points must have shape (N, 3), got {shape}")):
            read(points)


def test_render_range_image_takes_one_point():
    """One point is a (1, 3) array; a bare (3,) point is rejected by name."""
    model = SphericalModel(width=64, height=16)
    d = spherical_ray_directions(model)[8, 32]
    with pytest.raises(InvalidInputError, match=r"shape \(N, 3\), got \(3,\)"):
        render_range_image(5.0 * d, model)
    one = render_range_image([5.0 * d], model)
    assert one.valid.sum() == 1
    assert one.cell_index[8, 32] == 0 and one.range[8, 32] == pytest.approx(5.0)
    np.testing.assert_array_equal(one.xyz[8, 32], 5.0 * d)


def test_spherical_range_is_the_column_sum(rng):
    """r = sqrt((x*x + y*y) + z*z) exactly; np.linalg.norm's row reduction
    may add in another order, so it agrees within one ulp."""
    model = SphericalModel(width=64, height=16)
    pts = rng.normal(scale=[30.0, 1e-3, 5.0], size=(2000, 3))
    pts[::7] *= 1e8
    _, _, r, _ = project_spherical(pts, model)
    x, y, z = pts.T
    np.testing.assert_array_equal(r, np.sqrt((x * x + y * y) + z * z))
    np.testing.assert_array_max_ulp(r, np.linalg.norm(pts, axis=1), maxulp=1)
    _, _, r_one, _ = project_spherical(pts[3:4], model)
    assert r_one[0] == r[3]


def test_spherical_model_rejects_zero_fov():
    with pytest.raises(InvalidInputError):
        SphericalModel(f_up=0.0, f_down=0.0)


@given(st.floats(-np.pi + 1e-3, np.pi - 1e-3), st.floats(-0.7, 0.7),
       st.floats(1.0, 49.0))
def test_spherical_round_trip(yaw, pitch, r):
    model = SphericalModel(width=1024, height=128)
    p = r * np.array([np.cos(pitch) * np.cos(yaw),
                      np.cos(pitch) * np.sin(yaw), np.sin(pitch)])
    u, v, rr, ok = project_spherical(p[None], model)
    assert ok[0]
    back = unproject_spherical(u, v, rr, model)
    np.testing.assert_allclose(back[0], p, rtol=1e-9, atol=1e-9)


def test_ray_directions_consistent_with_projection():
    model = SphericalModel(width=64, height=16)
    dirs = spherical_ray_directions(model)
    for (vi, ui) in [(0, 0), (7, 31), (15, 63)]:
        p = 5.0 * dirs[vi, ui]
        u, v, _, _ = project_spherical(p[None], model)
        np.testing.assert_allclose([u[0], v[0]], [ui + 0.5, vi + 0.5], atol=1e-9)


# --- range image ------------------------------------------------------------


def test_render_range_image_nearest_wins():
    model = SphericalModel(width=64, height=16)
    d = spherical_ray_directions(model)[8, 32]
    pts = np.stack([5.0 * d, 3.0 * d])
    img = render_range_image(pts, model)
    assert img.range[8, 32] == pytest.approx(3.0)
    assert img.cell_index[8, 32] == 1


def test_render_range_image_matches_nearest_point_oracle(rng):
    """Each cell holds its nearest point, and the highest input index among
    points at equal range; copies of points make exact range ties."""
    model = SphericalModel(width=32, height=8, r_max=50.0)
    dirs = rng.normal(size=(1500, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * rng.uniform(1.0, 60.0, size=(1500, 1))
    pts = np.concatenate([pts, pts[rng.integers(0, 1500, 500)]])
    pts = pts[rng.permutation(len(pts))]
    img = render_range_image(pts, model)

    u, v, r, valid = project_spherical(pts, model)
    best = {}
    for i in np.flatnonzero(valid):
        cell = (int(v[i]), min(max(int(u[i]), 0), model.width - 1))
        if cell not in best or r[i] <= r[best[cell]]:
            best[cell] = i
    expect = np.full((model.height, model.width), -1)
    for cell, i in best.items():
        expect[cell] = i
    np.testing.assert_array_equal(img.cell_index, expect)
    hit = expect >= 0
    np.testing.assert_array_equal(img.range[hit], r[expect[hit]])
    np.testing.assert_array_equal(img.range[~hit], -1.0)
    np.testing.assert_array_equal(img.xyz[hit], pts[expect[hit]])
    ties = sum(np.sum(r[valid] == r[i]) > 1 for i in best.values())
    assert ties > 0


def test_nearest_per_cell_equal_depths_pick_highest_index():
    cells, winner = nearest_per_cell(np.full(7, 5), np.full(7, 2.5), 9)
    assert cells.tolist() == [5] and winner.tolist() == [6]


def test_nearest_per_cell_matches_loop_oracle(rng):
    cell = rng.integers(0, 40, 2000)
    depth = rng.integers(1, 6, 2000).astype(float)
    cells, winner = nearest_per_cell(cell, depth, 50)
    best = {}
    for i, (c, d) in enumerate(zip(cell, depth)):
        if c not in best or d <= depth[best[c]]:
            best[c] = i
    assert cells.tolist() == sorted(best)
    assert winner.tolist() == [best[c] for c in sorted(best)]
    empty = nearest_per_cell(np.zeros(0, dtype=np.int64), np.zeros(0), 4)
    assert [len(a) for a in empty] == [0, 0]


def test_render_range_image_out_of_range_invalid():
    model = SphericalModel(width=64, height=16, r_max=50.0)
    d = spherical_ray_directions(model)[::4, ::8].reshape(-1, 3)
    img = render_range_image(60.0 * d, model)
    assert_blank_range_image(img, model)


def test_render_range_image_empty():
    model = SphericalModel(width=64, height=16)
    img = render_range_image(np.zeros((0, 3)), model)
    assert_blank_range_image(img, model)


def test_render_virtual_scan_respects_viewpoint():
    model = SphericalModel(width=64, height=16)
    pose = Pose(0.0, np.array([10.0, 0, 0]), IDENTITY_Q)
    # a point 5 m ahead of the viewpoint along +x
    img = render_virtual_scan(np.array([[15.0, 0, 0]]), pose, model)
    assert img.valid.sum() == 1
    v, u = np.argwhere(img.valid)[0]
    assert img.range[v, u] == pytest.approx(5.0)


def test_range_image_empty_constructor():
    model = SphericalModel(width=8, height=4)
    img = RangeImage.empty(model)
    assert img.range.shape == (4, 8)
    assert not img.valid.any()
