"""Rigid transforms, trajectory interpolation, camera and spherical LiDAR projection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.transform import Rotation, Slerp

from .labels import InvalidInputError

# extrapolation beyond trajectory ends, seconds
EXTRAPOLATION_LIMIT = 0.1


class OutOfRangeError(InvalidInputError):
    """Query timestamp outside the trajectory's covered interval."""


def check_finite(what: str, **values) -> None:
    """Raise InvalidInputError naming the first of `values` that holds a NaN
    or infinite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise InvalidInputError(f"{what} {name} must be finite")


def quat_wxyz_to_rotation(q: np.ndarray) -> Rotation:
    q = np.asarray(q, dtype=np.float64)
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


def rotation_to_quat_wxyz(rot: Rotation) -> np.ndarray:
    x, y, z, w = rot.as_quat()
    return np.array([w, x, y, z])


@dataclass(frozen=True)
class Pose:
    """Stamped rigid transform: world_T_body at time t."""

    t: float
    translation: np.ndarray  # (3,) meters
    rotation: np.ndarray  # unit quaternion (w, x, y, z)

    def __post_init__(self):
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64))
        q = np.asarray(self.rotation, dtype=np.float64)
        check_finite("pose", t=self.t, translation=self.translation, rotation=q)
        n = np.linalg.norm(q)
        if abs(n - 1.0) > 1e-6:
            raise InvalidInputError(f"quaternion norm {n} != 1")
        object.__setattr__(self, "rotation", q / n)

    def matrix(self) -> np.ndarray:
        T = np.eye(4)
        T[:3, :3] = quat_wxyz_to_rotation(self.rotation).as_matrix()
        T[:3, 3] = self.translation
        return T

    @classmethod
    def from_matrix(cls, T: np.ndarray, t: float = 0.0) -> "Pose":
        rot = Rotation.from_matrix(T[:3, :3])
        return cls(t, T[:3, 3].copy(), rotation_to_quat_wxyz(rot))


def invert(T: np.ndarray) -> np.ndarray:
    R = T[:3, :3]
    out = np.eye(4)
    out[:3, :3] = R.T
    out[:3, 3] = -R.T @ T[:3, 3]
    return out


# OpenBLAS runs a gemm on the calling thread alone when M*N*K <= 65536 * 4;
# a larger product wakes a worker thread that then spins on another core
# after the call returns. An (n, 3) @ (3, 3) block of at most this many rows
# (29127 * 9 <= 262144) stays on the caller, and each row's product is the
# same bits as in one whole product.
APPLY_BLOCK_ROWS = 29_127


def apply(T: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 transform to (N, 3) points; other shapes are rejected by
    name."""
    p = _point_rows(points)
    R = T[:3, :3].T
    out = np.empty(p.shape)
    for i in range(0, len(p), APPLY_BLOCK_ROWS):
        np.matmul(p[i:i + APPLY_BLOCK_ROWS], R, out=out[i:i + APPLY_BLOCK_ROWS])
    out += T[:3, 3]
    return out


class Trajectory:
    """Time-ordered poses with lerp/slerp evaluation between knots.

    Queries up to EXTRAPOLATION_LIMIT beyond either end extrapolate with a
    constant-velocity assumption on the translation (rotation held).
    """

    def __init__(self, poses: list[Pose]):
        if not poses:
            raise InvalidInputError("trajectory needs at least one pose")
        ts = np.array([p.t for p in poses])
        if np.any(np.diff(ts) <= 0):
            raise InvalidInputError("trajectory timestamps must strictly increase")
        self.poses = list(poses)
        self.times = ts

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def interpolate(self, t: float) -> Pose:
        if t < self.t_start - EXTRAPOLATION_LIMIT or t > self.t_end + EXTRAPOLATION_LIMIT:
            raise OutOfRangeError(
                f"timestamp {t} outside trajectory [{self.t_start}, {self.t_end}] "
                f"(+/- {EXTRAPOLATION_LIMIT} s)")
        if len(self.poses) == 1:
            p = self.poses[0]
            return Pose(t, p.translation, p.rotation)
        if t <= self.t_start:
            return self._extrapolate(t, 0, 1)
        if t >= self.t_end:
            return self._extrapolate(t, len(self.poses) - 2, len(self.poses) - 1)
        hi = int(np.searchsorted(self.times, t, side="right"))
        lo = hi - 1
        a, b = self.poses[lo], self.poses[hi]
        if t == a.t:
            return Pose(t, a.translation, a.rotation)
        u = (t - a.t) / (b.t - a.t)
        trans = (1 - u) * a.translation + u * b.translation
        slerp = Slerp([a.t, b.t], Rotation.concatenate(
            [quat_wxyz_to_rotation(a.rotation), quat_wxyz_to_rotation(b.rotation)]))
        rot = slerp(t)
        return Pose(t, trans, rotation_to_quat_wxyz(rot))

    def _extrapolate(self, t: float, lo: int, hi: int) -> Pose:
        a, b = self.poses[lo], self.poses[hi]
        anchor = a if t <= a.t else b
        vel = (b.translation - a.translation) / (b.t - a.t)
        trans = anchor.translation + vel * (t - anchor.t)
        return Pose(t, trans, anchor.rotation)


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the static camera-from-base extrinsic."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    T_cam_base: np.ndarray = field(default_factory=lambda: np.eye(4))

    def __post_init__(self):
        object.__setattr__(self, "T_cam_base", np.asarray(self.T_cam_base, dtype=np.float64))
        check_finite("camera", fx=self.fx, fy=self.fy, cx=self.cx, cy=self.cy,
                     width=self.width, height=self.height, T_cam_base=self.T_cam_base)
        if self.fx <= 0 or self.fy <= 0 or self.width <= 0 or self.height <= 0:
            raise InvalidInputError("camera intrinsics must be positive")


@dataclass(frozen=True)
class SphericalModel:
    """Spherical range-image geometry of a rotating LiDAR."""

    width: int = 1024
    height: int = 128
    f_up: float = np.pi / 4  # radians
    f_down: float = np.pi / 4
    r_max: float = 50.0

    def __post_init__(self):
        check_finite("lidar", f_up=self.f_up, f_down=self.f_down, r_max=self.r_max)
        if abs(self.f_up) + abs(self.f_down) <= 0:
            raise InvalidInputError("vertical FoV must be positive")

    @property
    def fov_vertical(self) -> float:
        return abs(self.f_up) + abs(self.f_down)


def lidar_to_camera(points: np.ndarray, t_lidar: float, t_cam: float,
                    traj: Trajectory, cam: CameraModel,
                    T_base_lidar: np.ndarray) -> np.ndarray:
    """Transform LiDAR-frame points into the camera frame, compensating the
    base motion between the two capture times."""
    T_w_base_l = traj.interpolate(t_lidar).matrix()
    if t_cam == t_lidar:
        T_motion = np.eye(4)
    else:
        T_w_base_c = traj.interpolate(t_cam).matrix()
        T_motion = invert(T_w_base_c) @ T_w_base_l
    T = cam.T_cam_base @ T_motion @ T_base_lidar
    return apply(T, points)


def project_pinhole(p_cam: np.ndarray, cam: CameraModel):
    """Project (N, 3) camera-frame points to pixels.

    Returns (u, v, valid); valid is False behind the camera (z <= 1e-6) or
    outside [0, w) x [0, h). Points of any other shape are rejected by name.
    """
    p = _point_rows(p_cam)
    z = p[:, 2]
    in_front = z > 1e-6
    zs = np.where(in_front, z, 1.0)
    u = cam.fx * p[:, 0]
    u /= zs
    u += cam.cx
    v = cam.fy * p[:, 1]
    v /= zs
    v += cam.cy
    valid = in_front & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    return u, v, valid


def pinhole_rays(cam: CameraModel) -> np.ndarray:
    """((u - cx) / fx, (v - cy) / fy, 1) per pixel, shape (H, W, 3): the
    camera-frame point at depth 1 that `project_pinhole` maps to (u, v)."""
    vs, us = np.mgrid[0:cam.height, 0:cam.width]
    return np.stack([(us - cam.cx) / cam.fx, (vs - cam.cy) / cam.fy,
                     np.ones((cam.height, cam.width))], axis=-1)


def sample_bilinear(grid: np.ndarray, u, v):
    """Bilinearly sample an (H, W, C) grid at subpixel (u, v); a grid of
    another shape is rejected by name.

    Coordinates address cell centers at integer positions; borders clamp.
    """
    if grid.ndim != 3:
        raise InvalidInputError(f"grid must have shape (H, W, C), got {grid.shape}")
    H, W, C = grid.shape
    uc = np.clip(u, 0.0, W - 1.0)
    vc = np.clip(v, 0.0, H - 1.0)
    u0 = np.floor(uc).astype(int)
    v0 = np.floor(vc).astype(int)
    u1 = np.minimum(u0 + 1, W - 1)
    v1 = np.minimum(v0 + 1, H - 1)
    fu = (uc - u0)[..., None]
    fv = (vc - v0)[..., None]
    # one take per corner from the flat (H*W, C) view is several times
    # faster than 2-D fancy indexing; the terms are formed and summed in place
    # in the order of g00 (1-fu) (1-fv) + g01 fu (1-fv) + g10 (1-fu) fv + g11 fu fv
    cells = grid.reshape(H * W, C)
    v0 *= W
    v1 *= W
    gu, gv = 1 - fu, 1 - fv
    val = np.take(cells, v0 + u0, axis=0).astype(np.float64, copy=False)
    val *= gu
    val *= gv
    for row, col, wu, wv in ((v0, u1, fu, gv), (v1, u0, gu, fv), (v1, u1, fu, fv)):
        term = np.take(cells, row + col, axis=0).astype(np.float64, copy=False)
        term *= wu
        term *= wv
        val += term
    return val


def _point_rows(points) -> np.ndarray:
    """(N, 3) points as a float64 array; any other shape, a single (3,)
    point or a transposed (3, N) cloud included, is rejected by name."""
    p = np.asarray(points, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != 3:
        raise InvalidInputError(f"points must have shape (N, 3), got {p.shape}")
    return p


def project_spherical(points: np.ndarray, model: SphericalModel):
    """Spherical projection of (N, 3) sensor-frame points to range-image
    coordinates.

    u = 0.5 (1 - atan2(y, x) / pi) w,  v = (1 - (asin(z / r) + f_down) / f) h,
    with r = sqrt((x^2 + y^2) + z^2) summed in that order.
    Returns (u, v, r, valid); invalid when r > r_max or v outside [0, h).
    """
    p = _point_rows(points)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    # by columns, adding in np.linalg.norm's order; its reduction over
    # 3-wide rows is about three times slower
    r = x * x
    r += y * y
    r += z * z
    np.sqrt(r, out=r)
    if np.any(r == 0):
        raise InvalidInputError("cannot project zero-norm point")
    yaw = np.arctan2(y, x)
    pitch = np.arcsin(np.clip(z / r, -1.0, 1.0))
    f = model.fov_vertical
    u = 0.5 * (1.0 - yaw / np.pi) * model.width
    v = (1.0 - (pitch + abs(model.f_down)) / f) * model.height
    valid = (r <= model.r_max) & (v >= 0) & (v < model.height)
    return u, v, r, valid


def unproject_spherical(u, v, r, model: SphericalModel) -> np.ndarray:
    """Reconstruct sensor-frame points from image coordinates and range."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    yaw = np.pi * (1.0 - 2.0 * u / model.width)
    pitch = (1.0 - v / model.height) * model.fov_vertical - abs(model.f_down)
    d = np.stack([np.cos(pitch) * np.cos(yaw),
                  np.cos(pitch) * np.sin(yaw),
                  np.sin(pitch)], axis=-1)
    return d * r[..., None]


def spherical_ray_directions(model: SphericalModel) -> np.ndarray:
    """Unit ray direction per cell center, shape (H, W, 3): the cell centres
    unprojected at range 1, so that project(r * dir(u, v)) round-trips to
    (u, v)."""
    u, v = np.meshgrid(np.arange(model.width) + 0.5, np.arange(model.height) + 0.5)
    return unproject_spherical(u, v, 1.0, model)


@dataclass
class RangeImage:
    """H x W grid of range and per-cell xyz (sensor frame); -1 range marks
    invalid cells. Optional intensity and per-cell payload index."""

    model: SphericalModel
    range: np.ndarray  # (H, W) float64, -1 where invalid
    xyz: np.ndarray  # (H, W, 3)
    intensity: np.ndarray | None = None
    cell_index: np.ndarray | None = None  # index of the winning source point

    @property
    def valid(self) -> np.ndarray:
        return self.range >= 0

    @classmethod
    def empty(cls, model: SphericalModel) -> "RangeImage":
        H, W = model.height, model.width
        return cls(model, np.full((H, W), -1.0), np.zeros((H, W, 3)))


def nearest_per_cell(cell: np.ndarray, depth: np.ndarray, n_cells: int):
    """Z-buffer: the nearest entry of each occupied cell, the one with the
    highest index among equal depths.

    `cell` holds each entry's flat cell index in [0, n_cells). Returns
    (cells, winner): the occupied cells in ascending order and the index
    into `cell`/`depth` of each one's winner. No sort: one pass takes each
    cell's minimum depth and a second the highest index at that minimum,
    and neither depends on the order in which numpy applies the updates.
    """
    nearest = np.full(n_cells, np.inf)
    np.minimum.at(nearest, cell, depth)
    at_min = np.flatnonzero(depth == nearest[cell])
    winner = np.full(n_cells, -1, dtype=np.intp)
    np.maximum.at(winner, cell[at_min], at_min)
    cells = np.flatnonzero(winner >= 0)
    return cells, winner[cells]


def render_range_image(points: np.ndarray, model: SphericalModel) -> RangeImage:
    """Z-buffer the (N, 3) points (sensor frame) into a spherical range
    image; the nearest point per cell wins. cell_index records the winning
    row of `points` per cell (-1 where empty)."""
    points = _point_rows(points)
    img = RangeImage.empty(model)
    H, W = model.height, model.width
    img.cell_index = np.full((H, W), -1, dtype=np.int64)
    u, v, r, valid = project_spherical(points, model)
    idx = np.nonzero(valid)[0]
    ui = np.clip(u[idx].astype(int), 0, W - 1)
    vi = v[idx].astype(int)
    r = r[idx]
    cells, win = nearest_per_cell(vi * W + ui, r, H * W)
    img.range.reshape(-1)[cells] = r[win]
    img.cell_index.reshape(-1)[cells] = idx[win]
    # np.take gathers whole rows several times faster than fancy indexing
    img.xyz.reshape(-1, 3)[cells] = np.take(points, idx[win], axis=0)
    return img


def render_virtual_scan(cloud_xyz: np.ndarray, viewpoint: Pose,
                        model: SphericalModel) -> RangeImage:
    """Render (N, 3) world-frame points into a virtual spherical view at
    `viewpoint`."""
    local = apply(invert(viewpoint.matrix()), cloud_xyz)
    return render_range_image(local, model)
