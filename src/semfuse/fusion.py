"""Per-frame fusion of image segmentation, LiDAR segmentation, and detections.

Produces semantically augmented point clouds and temporally smoothed fused
segmentation masks. Detection fusion is guarded by adaptive Euclidean
clustering inside the bounding box so background points are not mislabeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from . import labels as lb
from .geometry import (CameraModel, SphericalModel, Trajectory, _point_rows, apply,
                       check_finite, lidar_to_camera, nearest_per_cell,
                       project_pinhole, sample_bilinear)
from .labels import InvalidInputError
from .parallel import beside

ALPHA_DYNAMIC = 0.80
ALPHA_STATIC = 0.25
DEFAULT_CLUSTER_FACTOR = 1.5

# detected-class probability is kept strictly inside (0, 1) so the
# max-entropy remainder stays positive
P_DET_MAX = 1.0 - 1e-6


@dataclass(frozen=True)
class Detection:
    class_index: int
    score: float
    bbox: tuple[float, float, float, float]  # x_min, y_min, x_max, y_max
    source: str = "rgb"  # "rgb" | "thermal"

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if not (x0 < x1 and y0 < y1):
            raise InvalidInputError(f"degenerate bbox {self.bbox}")
        if not (0.0 < self.score <= 1.0):
            raise InvalidInputError(f"detection score {self.score} outside (0, 1]")

    def contains(self, u, v):
        x0, y0, x1, y1 = self.bbox
        return (u >= x0) & (u <= x1) & (v >= y0) & (v <= y1)


@dataclass
class SemanticCloud:
    """3D points with per-point class distributions, in one frame."""

    xyz: np.ndarray  # (N, 3)
    probs: np.ndarray  # (N, C)
    intensity: np.ndarray | None = None
    frame_id: str = "lidar"
    timestamp: float = 0.0

    def __len__(self):
        return len(self.xyz)


@dataclass
class SegmentationFrame:
    """Per-pixel class probabilities with optional metric depth."""

    probs: np.ndarray  # (H, W, C), each pixel sums to 1
    depth: np.ndarray | None = None  # (H, W) meters, NaN where invalid
    timestamp: float = 0.0

    @property
    def shape(self):
        return self.probs.shape[:2]


@dataclass
class CameraView:
    """One camera's inputs for a fusion pass."""

    cam: CameraModel
    frame: SegmentationFrame
    detections: list[Detection] = field(default_factory=list)
    timestamp: float | None = None

    @property
    def t(self) -> float:
        return self.frame.timestamp if self.timestamp is None else self.timestamp


def detection_distribution(det: Detection, u, v, num_classes: int) -> np.ndarray:
    """Full class distribution for a detection at pixel(s) (u, v).

    The detector score is weighted by a separable Gaussian centered on the
    bbox with sigma of half its width resp. height; the remaining mass is
    split uniformly over the other C-1 classes (maximum entropy).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not np.all(det.contains(u, v)):
        raise InvalidInputError("pixel outside detection bbox")
    x0, y0, x1, y1 = det.bbox
    uc, vc = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    su, sv = 0.5 * (x1 - x0), 0.5 * (y1 - y0)
    p_det = det.score * np.exp(-0.5 * (((u - uc) / su) ** 2 + ((v - vc) / sv) ** 2))
    p_det = np.clip(p_det, lb.EPS_FLOOR, P_DET_MAX)
    out = np.empty(np.shape(p_det) + (num_classes,))
    out[...] = ((1.0 - p_det) / (num_classes - 1))[..., None]
    out[..., det.class_index] = p_det
    return out


def cluster_tolerance(d_seed: float, model: SphericalModel,
                      s: float = DEFAULT_CLUSTER_FACTOR) -> float:
    """Adaptive Euclidean cluster radius: proportional to the seed distance
    and the LiDAR's vertical angular resolution."""
    if d_seed <= 0:
        raise InvalidInputError("seed distance must be positive")
    if not s > 0:
        raise InvalidInputError(f"cluster factor s must be positive, got {s}")
    return s * d_seed * model.fov_vertical / model.height


def cluster_bbox_points(xyz: np.ndarray, depths: np.ndarray,
                        model: SphericalModel,
                        s: float = DEFAULT_CLUSTER_FACTOR):
    """Grow a single Euclidean cluster from the 25%-depth-quantile seed.

    xyz are 3D points (any rigid frame), depths their camera-frame depths.
    Returns (member mask, seed depth, tolerance). Exactly the seed-connected
    component is kept: one valid cluster per bounding box.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    depths = np.asarray(depths, dtype=np.float64)
    n = len(xyz)
    if n == 0:
        raise InvalidInputError("cluster_bbox_points needs at least one point")
    # nearest-rank quantile: ceil(0.25 n)-th smallest depth
    k = max(int(np.ceil(0.25 * n)) - 1, 0)
    seed = int(np.argsort(depths, kind="stable")[k])
    d_seed = float(depths[seed])
    tau = cluster_tolerance(max(d_seed, 1e-9), model, s)
    # points within tau are linked; the cluster is the seed's component
    pairs = cKDTree(xyz).query_pairs(tau, output_type="ndarray")
    links = coo_matrix((np.ones(len(pairs), dtype=np.int8), (pairs[:, 0], pairs[:, 1])),
                       shape=(n, n))
    _, component = connected_components(links, directed=False)
    return component == component[seed], d_seed, tau


def _check_frame(frame: SegmentationFrame, cam: CameraModel) -> None:
    # pixel sampling and warping address the frame through the camera's size
    if frame.shape != (cam.height, cam.width):
        raise InvalidInputError(
            f"segmentation frame is {frame.shape}, camera is {(cam.height, cam.width)}")


def _sorted_detections(dets: list[Detection]) -> list[Detection]:
    # rgb before thermal, then by descending score
    return sorted(dets, key=lambda d: (0 if d.source == "rgb" else 1, -d.score))


def fuse_cloud(xyz: np.ndarray, t_scan: float,
               lidar_probs: np.ndarray | None,
               views: list[CameraView],
               traj: Trajectory, T_base_lidar: np.ndarray,
               model: SphericalModel,
               num_classes: int,
               s: float = DEFAULT_CLUSTER_FACTOR,
               intensity: np.ndarray | None = None) -> SemanticCloud:
    """Fuse camera semantics and detections into a LiDAR point cloud.

    With lidar_probs=None the LiDAR prior is uniform (camera-only mode).
    Points outside every camera keep their LiDAR distribution unchanged.
    The worker thread copies and checks the prior while the caller projects
    the points into the cameras, then grows the detection clusters while the
    caller fuses the image distributions.
    """
    xyz = _point_rows(xyz)
    check_finite("cloud", xyz=xyz)
    n = len(xyz)
    if lidar_probs is not None:
        lidar_probs = np.asarray(lidar_probs)
        if lidar_probs.shape != (n, num_classes):
            raise InvalidInputError(
                f"lidar_probs shape {lidar_probs.shape} != ({n}, {num_classes})")
    if intensity is not None:
        intensity = np.asarray(intensity, dtype=np.float64)
        if intensity.shape != (n,):
            raise InvalidInputError(f"intensity shape {intensity.shape} != ({n},)")
    probs = np.empty((n, num_classes))
    with beside(_lidar_prior, lidar_probs, probs):
        # per view: the rows inside its image, their u, v and depth, and the
        # image's distribution at each
        cams = [_camera_rows(xyz, t_scan, view, traj, T_base_lidar, num_classes)
                for view in views]
    # clusters depend on the points' geometry alone, so the worker grows
    # them while the caller fuses the image distributions
    with beside(_detection_clusters, xyz, views, cams, model, s) as clustered:
        for idx, _, _, _, img_p in cams:
            probs[idx] = lb.bayes_fuse(np.take(probs, idx, axis=0), img_p)
        # snapshot after image fusion of the rows each detecting camera sees:
        # the reset target for border effects
        pre_detection = [np.take(probs, idx, axis=0) if view.detections else None
                         for view, (idx, _, _, _, _) in zip(views, cams)]

    for (rows, u, v, _, _), pre, clusters in zip(cams, pre_detection, clustered.result()):
        for det, in_bbox, member in clusters:
            mem = in_bbox[member]
            det_p = detection_distribution(det, u[mem], v[mem], num_classes)
            probs[rows[mem]] = lb.bayes_fuse(probs[rows[mem]], det_p)
            # points falsely carrying the detected class outside the cluster
            # fall back to their pre-detection distribution
            out = in_bbox[~member]
            out = out[np.argmax(probs[rows[out]], axis=-1) == det.class_index]
            probs[rows[out]] = pre[out]

    return SemanticCloud(xyz, probs, intensity=intensity, timestamp=t_scan)


def _lidar_prior(lidar_probs: np.ndarray | None, out: np.ndarray) -> None:
    """The LiDAR prior as float64 into `out`: uniform without LiDAR
    probabilities; NaN or infinite ones are rejected by name."""
    if lidar_probs is None:
        out.fill(1.0 / out.shape[1])
    else:
        np.copyto(out, lidar_probs, casting="unsafe")
        check_finite("cloud", lidar_probs=out)


def _detection_clusters(xyz: np.ndarray, views: list[CameraView], cams: list,
                        model: SphericalModel, s: float) -> list:
    """Per view, (detection, in_bbox, member) for each of its detections, in
    fusion order, whose box holds points: in_bbox indexes the view's rows
    inside the box, and member marks the cluster among them."""
    out = []
    for view, (rows, u, v, depth, _) in zip(views, cams):
        found = []
        for det in _sorted_detections(view.detections):
            in_bbox = np.flatnonzero(det.contains(u, v))
            if len(in_bbox):
                member, _, _ = cluster_bbox_points(xyz[rows[in_bbox]], depth[in_bbox],
                                                   model, s)
                found.append((det, in_bbox, member))
        out.append(found)
    return out


def _camera_rows(xyz: np.ndarray, t_scan: float, view: CameraView, traj: Trajectory,
                 T_base_lidar: np.ndarray, num_classes: int):
    """(rows, u, v, depth, probs) of the points that project inside the
    view's image: their cloud rows, pixel coordinates, camera-frame depths
    and the image's normalized distribution at each."""
    _check_frame(view.frame, view.cam)
    if view.frame.probs.shape[-1] != num_classes:
        raise InvalidInputError("segmentation frame class count mismatch")
    p_cam = lidar_to_camera(xyz, t_scan, view.t, traj, view.cam, T_base_lidar)
    u, v, inside = project_pinhole(p_cam, view.cam)
    idx = np.flatnonzero(inside)
    u, v = np.take(u, idx), np.take(v, idx)
    img_p = sample_bilinear(view.frame.probs, u, v)
    img_p /= img_p.sum(axis=-1, keepdims=True)
    return idx, u, v, p_cam[idx, 2], img_p


def warp_previous_frame(prev: SegmentationFrame, T_cur_prev: np.ndarray,
                        cam: CameraModel):
    """Forward-warp the previous frame into the current one via its depth.

    Returns (pixels, probs): the flat indices (row-major, ascending) of the
    current frame's pixels that receive a projected correspondence, and the
    (len(pixels), C) distribution each one takes from the previous frame.
    Every other pixel has no correspondence.
    """
    if prev.depth is None:
        raise InvalidInputError("temporal smoothing requires depth on the previous frame")
    _check_frame(prev, cam)
    H, W = prev.shape
    z = prev.depth
    px = np.flatnonzero(np.isfinite(z) & (z > 0))
    # each pixel's ray ((u - cx) / fx, (v - cy) / fy, 1) times its depth
    rows, cols = np.divmod(px, W)
    depth = np.take(z, px)
    pts = np.empty((len(px), 3))
    np.multiply(np.take((np.arange(W) - cam.cx) / cam.fx, cols), depth, out=pts[:, 0])
    np.multiply(np.take((np.arange(H) - cam.cy) / cam.fy, rows), depth, out=pts[:, 1])
    pts[:, 2] = depth
    cur = apply(T_cur_prev, pts)
    u, v, valid = project_pinhole(cur, cam)
    ui = np.clip(np.round(u[valid]).astype(int), 0, W - 1)
    vi = np.clip(np.round(v[valid]).astype(int), 0, H - 1)
    depth_new = cur[valid, 2]
    # nearest surface wins per target pixel, the latest one among equal depths
    pixels, win = nearest_per_cell(vi * W + ui, depth_new, H * W)
    # only the winners' source rows are gathered
    src = px[valid][win]
    probs = prev.probs.reshape(-1, prev.probs.shape[-1])
    return pixels, np.take(probs, src, axis=0)


def smooth_and_fuse_image(current: SegmentationFrame,
                          previous_fused: SegmentationFrame | None,
                          T_cur_prev: np.ndarray | None,
                          cam: CameraModel,
                          detections: list[Detection],
                          alphas: np.ndarray) -> SegmentationFrame:
    """Per-class exponential smoothing against the warped previous fused
    frame, then Bayesian fusion of detections over their bbox pixels."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if np.any(alphas <= 0) or np.any(alphas > 1):
        raise InvalidInputError("alphas must lie in (0, 1]")
    _check_frame(current, cam)
    # a C-order copy, so that the flat (H * W, C) view below writes into it
    smoothed = np.array(current.probs, dtype=np.float64, order="C")
    H, W, C = smoothed.shape
    if previous_fused is not None:
        if previous_fused.shape != (H, W):
            raise InvalidInputError(
                f"previous fused frame is {previous_fused.shape}, current frame {(H, W)}")
        T = np.eye(4) if T_cur_prev is None else T_cur_prev
        pixels, warped = warp_previous_frame(previous_fused, T, cam)
        # blend only the pixels that have a warped source; the rest keep the
        # current frame
        flat = smoothed.reshape(-1, C)
        # in place, with the bits of alphas * current + (1 - alphas) * warped
        blend = np.take(flat, pixels, axis=0)
        blend *= alphas
        warped *= 1.0 - alphas
        blend += warped
        blend /= blend.sum(axis=-1, keepdims=True)
        flat[pixels] = blend

    for det in _sorted_detections(detections):
        x0, y0, x1, y1 = det.bbox
        c0, c1 = max(int(np.ceil(x0)), 0), min(int(np.floor(x1)), W - 1)
        r0, r1 = max(int(np.ceil(y0)), 0), min(int(np.floor(y1)), H - 1)
        if c0 > c1 or r0 > r1:
            continue
        vs, us = np.mgrid[r0:r1 + 1, c0:c1 + 1]
        det_p = detection_distribution(det, us, vs, C)
        smoothed[r0:r1 + 1, c0:c1 + 1] = lb.bayes_fuse(
            smoothed[r0:r1 + 1, c0:c1 + 1], det_p)

    return SegmentationFrame(smoothed, depth=current.depth,
                             timestamp=current.timestamp)


def class_alphas(labelset: lb.LabelSet,
                 alpha_dyn: float = ALPHA_DYNAMIC,
                 alpha_stat: float = ALPHA_STATIC) -> np.ndarray:
    """Smoothing weights per class: dynamic foreground follows the current
    frame more closely than static structure."""
    return np.where(np.array(labelset.dynamic_mask), alpha_dyn, alpha_stat)
