"""Synthetic scenario generator: scenes of simple primitives, simulated
spherical LiDAR scans, ground-truth segmentation frames, and detections.

Stands in for CNN outputs and UAV logs so the full fusion / mapping /
label-propagation pipeline can be exercised and verified at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fusion import Detection, SegmentationFrame
from .geometry import (CameraModel, Pose, RangeImage, SphericalModel, invert,
                       spherical_ray_directions)
from .labels import InvalidInputError, LabelSet, softmax

MISS = -1

# camera optical frame (z forward, x right, y down) expressed in the base
# frame (x forward, z up): base_T_cam rotation
R_BASE_CAM = np.array([[0.0, 0.0, 1.0],
                       [-1.0, 0.0, 0.0],
                       [0.0, -1.0, 0.0]])


def forward_camera_extrinsic(offset=(0.0, 0.0, 0.0)) -> np.ndarray:
    """cam_T_base for a camera looking along base +x, mounted at `offset`."""
    T_base_cam = np.eye(4)
    T_base_cam[:3, :3] = R_BASE_CAM
    T_base_cam[:3, 3] = offset
    return invert(T_base_cam)


@dataclass
class Primitive:
    shape: str  # "plane" | "box" | "cylinder"
    position: np.ndarray  # plane: point on plane; box: center; cylinder: base center
    size: np.ndarray  # box: full extents; cylinder: (diameter, _, height); plane: unused
    class_index: int
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64)
        self.size = np.asarray(self.size, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)
        if self.shape not in ("plane", "box", "cylinder"):
            raise InvalidInputError(f"unknown primitive shape {self.shape!r}")
        if np.any(self.size < 0):
            raise InvalidInputError("primitive sizes must be non-negative")

    def position_at(self, t: float) -> np.ndarray:
        return self.position + self.velocity * t

    def intersect(self, origins: np.ndarray, dirs: np.ndarray, t: float) -> np.ndarray:
        """Ray-primitive distance per ray; inf where missed."""
        pos = self.position_at(t)
        n = len(origins)
        out = np.full(n, np.inf)
        if self.shape == "plane":
            # horizontal plane z = pos.z
            dz = dirs[:, 2]
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (pos[2] - origins[:, 2]) / dz
            hit = np.isfinite(s) & (s > 1e-9)
            out[hit] = s[hit]
        elif self.shape == "box":
            lo = pos - 0.5 * self.size
            hi = pos + 0.5 * self.size
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (lo - origins) / dirs
                t2 = (hi - origins) / dirs
            tmin = np.nanmax(np.minimum(t1, t2), axis=1)
            tmax = np.nanmin(np.maximum(t1, t2), axis=1)
            hit = (tmax >= tmin) & (tmax > 1e-9)
            s = np.where(tmin > 1e-9, tmin, tmax)
            out[hit] = s[hit]
        else:  # cylinder, vertical axis through pos, z in [pos.z, pos.z + height]
            r = 0.5 * self.size[0]
            h = self.size[2]
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

    def sample_surface(self, t: float, n: int = 64) -> np.ndarray:
        """Surface sample points for silhouette bounding boxes."""
        pos = self.position_at(t)
        if self.shape == "box":
            corners = np.array([[sx, sy, sz]
                                for sx in (-0.5, 0.5)
                                for sy in (-0.5, 0.5)
                                for sz in (-0.5, 0.5)])
            return pos + corners * self.size
        if self.shape == "cylinder":
            r = 0.5 * self.size[0]
            h = self.size[2]
            ang = np.linspace(0, 2 * np.pi, n, endpoint=False)
            ring = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(n)], axis=-1)
            pts = [pos + ring + [0, 0, z] for z in (0.0, 0.5 * h, h)]
            return np.concatenate(pts)
        raise InvalidInputError("planes have no silhouette bbox")


@dataclass
class NoiseSpec:
    label_flip_rate: float = 0.0
    score_temperature: float = 8.0
    range_sigma: float = 0.0
    det_miss_rate: float = 0.0
    det_false_rate: float = 0.0
    det_score_mean: float = 0.9
    det_score_sigma: float = 0.05

    def __post_init__(self):
        for name in ("label_flip_rate", "range_sigma", "det_miss_rate",
                     "det_false_rate"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")


@dataclass
class Scene:
    primitives: list[Primitive]
    labelset: LabelSet

    def cast(self, origins: np.ndarray, dirs: np.ndarray, t: float = 0.0):
        """Nearest-hit ray cast; returns (distance, class index), MISS where
        nothing is hit."""
        n = len(origins)
        best = np.full(n, np.inf)
        cls = np.full(n, MISS, dtype=np.int64)
        for prim in self.primitives:
            d = prim.intersect(origins, dirs, t)
            closer = d < best
            best[closer] = d[closer]
            cls[closer] = prim.class_index
        return best, cls


def scene_from_spec(spec: dict, labelset: LabelSet) -> Scene:
    prims = []
    for p in spec["primitives"]:
        prims.append(Primitive(
            shape=p["shape"],
            position=p["position"],
            size=p.get("size", [0, 0, 0]),
            class_index=labelset.index(p["class"]),
            velocity=p.get("velocity", [0, 0, 0]),
        ))
    return Scene(prims, labelset)


def load_scene(path, labelset: LabelSet | None = None):
    with open(path) as f:
        spec = json.load(f)
    ls = labelset or LabelSet.default()
    return scene_from_spec(spec, ls), spec


def simulate_scan(scene: Scene, pose: Pose, model: SphericalModel,
                  noise: NoiseSpec | None = None, t: float | None = None,
                  rng: np.random.Generator | None = None):
    """Ray-cast a spherical scan from `pose` (world_T_sensor).

    Returns (RangeImage, ground-truth class grid). Ranges carry Gaussian
    noise; the ground truth stays noise-free.
    """
    noise = noise or NoiseSpec()
    rng = rng or np.random.default_rng(0)
    if t is None:
        t = pose.t
    H, W = model.height, model.width
    dirs_local = spherical_ray_directions(model).reshape(-1, 3)
    R = pose.matrix()[:3, :3]
    dirs = dirs_local @ R.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    dist, cls = scene.cast(origins, dirs, t)
    hit = (cls != MISS) & (dist <= model.r_max)
    rng_noisy = dist.copy()
    if noise.range_sigma > 0:
        rng_noisy = rng_noisy + rng.normal(0, noise.range_sigma, size=dist.shape)
    img = RangeImage.empty(model)
    img.range = np.where(hit, rng_noisy, -1.0).reshape(H, W)
    img.xyz = (dirs_local * np.where(hit, rng_noisy, 0.0)[:, None]).reshape(H, W, 3)
    # class-correlated intensity stand-in
    img.intensity = np.where(hit, 0.1 + 0.05 * cls, 0.0).reshape(H, W).astype(np.float64)
    gt = np.where(hit, cls, MISS).reshape(H, W)
    return img, gt


def observed_probs(gt: np.ndarray, num_classes: int, noise: NoiseSpec,
                   rng: np.random.Generator) -> np.ndarray:
    """Segmentation-network stand-in: class distributions (..., C) from
    ground-truth classes of any shape. Labels flip at the configured rate,
    then a sharp softmax of a scaled one-hot."""
    observed = gt
    if noise.label_flip_rate > 0:
        flip = rng.random(observed.shape) < noise.label_flip_rate
        # flips draw uniformly from the other classes
        shift = rng.integers(1, num_classes, size=observed.shape)
        observed = np.where(flip, (observed + shift) % num_classes, observed)
    scores = np.zeros(observed.shape + (num_classes,))
    np.put_along_axis(scores, observed[..., None], noise.score_temperature, axis=-1)
    return softmax(scores)


def classes_to_frame(gt: np.ndarray, num_classes: int, noise: NoiseSpec,
                     rng: np.random.Generator, background: int,
                     depth: np.ndarray | None = None,
                     timestamp: float = 0.0) -> SegmentationFrame:
    """Observed probability grid from a ground-truth class grid, with
    `background` for pixels that hit nothing."""
    probs = observed_probs(np.where(gt == MISS, background, gt), num_classes, noise, rng)
    return SegmentationFrame(probs, depth=depth, timestamp=timestamp)


def simulate_segmentation(scene: Scene, pose_cam: Pose, cam: CameraModel,
                          noise: NoiseSpec | None = None, t: float | None = None,
                          rng: np.random.Generator | None = None):
    """Per-pixel segmentation from ray-casting through the camera.

    pose_cam is world_T_cam (optical frame). Returns (SegmentationFrame with
    depth, ground-truth class grid).
    """
    noise = noise or NoiseSpec()
    rng = rng or np.random.default_rng(0)
    if t is None:
        t = pose_cam.t
    H, W = cam.height, cam.width
    vs, us = np.mgrid[0:H, 0:W]
    d_cam = np.stack([(us + 0.0 - cam.cx) / cam.fx,
                      (vs + 0.0 - cam.cy) / cam.fy,
                      np.ones((H, W))], axis=-1).reshape(-1, 3)
    norms = np.linalg.norm(d_cam, axis=-1, keepdims=True)
    unit = d_cam / norms
    R = pose_cam.matrix()[:3, :3]
    dirs = unit @ R.T
    origins = np.broadcast_to(pose_cam.translation, dirs.shape)
    dist, cls = scene.cast(origins, dirs, t)
    hit = cls != MISS
    z = dist * unit[:, 2]  # camera-frame depth
    depth = np.where(hit, z, np.nan).reshape(H, W)
    gt = np.where(hit, cls, MISS).reshape(H, W)
    sky = scene.labelset.index("sky") if "sky" in scene.labelset.names else \
        (scene.labelset.unknown_index or 0)
    frame = classes_to_frame(gt, scene.labelset.num_classes, noise, rng,
                             background=sky, depth=depth, timestamp=t)
    return frame, gt


def simulate_detections(scene: Scene, pose_cam: Pose, cam: CameraModel,
                        noise: NoiseSpec | None = None, t: float | None = None,
                        rng: np.random.Generator | None = None,
                        source: str = "rgb") -> list[Detection]:
    """One bounding box per visible dynamic-class primitive (projected
    silhouette AABB), plus configurable misses and false positives."""
    noise = noise or NoiseSpec()
    rng = rng or np.random.default_rng(0)
    if t is None:
        t = pose_cam.t
    dynamic = set(scene.labelset.dynamic_indices)
    T_cam_world = np.linalg.inv(pose_cam.matrix())
    dets: list[Detection] = []
    for prim in scene.primitives:
        if prim.class_index not in dynamic or prim.shape == "plane":
            continue
        pts = prim.sample_surface(t)
        local = pts @ T_cam_world[:3, :3].T + T_cam_world[:3, 3]
        front = local[:, 2] > 1e-6
        if not np.any(front):
            continue
        u = cam.fx * local[front, 0] / local[front, 2] + cam.cx
        v = cam.fy * local[front, 1] / local[front, 2] + cam.cy
        x0 = max(float(u.min()), 0.0)
        x1 = min(float(u.max()), cam.width - 1.0)
        y0 = max(float(v.min()), 0.0)
        y1 = min(float(v.max()), cam.height - 1.0)
        if x1 - x0 < 1.0 or y1 - y0 < 1.0:
            continue
        if rng.random() < noise.det_miss_rate:
            continue
        score = float(np.clip(rng.normal(noise.det_score_mean, noise.det_score_sigma),
                              0.05, 1.0))
        dets.append(Detection(prim.class_index, score, (x0, y0, x1, y1), source))
    if noise.det_false_rate > 0 and rng.random() < noise.det_false_rate:
        w = rng.uniform(20, cam.width / 3)
        h = rng.uniform(20, cam.height / 3)
        x0 = rng.uniform(0, cam.width - w)
        y0 = rng.uniform(0, cam.height - h)
        cls = int(rng.choice(sorted(dynamic))) if dynamic else 0
        score = float(np.clip(rng.normal(noise.det_score_mean,
                                         noise.det_score_sigma), 0.05, 1.0))
        dets.append(Detection(cls, score, (x0, y0, x0 + w, y0 + h), source))
    return dets
