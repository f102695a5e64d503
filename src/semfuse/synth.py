"""Synthetic scenario generator: scenes of simple primitives, simulated
spherical LiDAR scans, ground-truth segmentation frames, and detections.

Stands in for CNN outputs and UAV logs so the full fusion / mapping /
label-propagation pipeline can be exercised and verified at desk scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fileio import ParseError
from .fusion import Detection, SegmentationFrame
from .geometry import (CameraModel, Pose, RangeImage, SphericalModel, apply, invert,
                       pinhole_rays, project_pinhole, spherical_ray_directions)
from .labels import InvalidInputError, LabelSet, softmax

MISS = -1

# camera optical frame (z forward, x right, y down) expressed in the base
# frame (x forward, z up): base_T_cam rotation
R_BASE_CAM = np.array([[0.0, 0.0, 1.0],
                       [-1.0, 0.0, 0.0],
                       [0.0, -1.0, 0.0]])


def forward_camera_extrinsic() -> np.ndarray:
    """cam_T_base for a camera looking along base +x, mounted at the base
    origin."""
    T_base_cam = np.eye(4)
    T_base_cam[:3, :3] = R_BASE_CAM
    return invert(T_base_cam)


def _ray_origin(origin) -> np.ndarray:
    """The one origin every ray of a cast starts from, as a float (3,)."""
    origin = np.asarray(origin, dtype=np.float64)
    if origin.shape != (3,):
        raise InvalidInputError(f"ray origin must have shape (3,), got {origin.shape}")
    return origin


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
        for name in ("position", "size", "velocity"):
            if getattr(self, name).shape != (3,):
                raise InvalidInputError(
                    f"primitive {name} must have 3 entries, got shape "
                    f"{getattr(self, name).shape}")
        if self.shape not in ("plane", "box", "cylinder"):
            raise InvalidInputError(f"unknown primitive shape {self.shape!r}")
        if np.any(self.size < 0):
            raise InvalidInputError("primitive sizes must be non-negative")

    def position_at(self, t: float) -> np.ndarray:
        return self.position + self.velocity * t

    def intersect(self, origin: np.ndarray, dirs: np.ndarray, t: float) -> np.ndarray:
        """Distance along each ray from the one `origin` (3,); inf where
        missed."""
        origin = _ray_origin(origin)
        pos = self.position_at(t)
        out = np.full(len(dirs), np.inf)
        if self.shape == "plane":
            # horizontal plane z = pos.z
            with np.errstate(divide="ignore", invalid="ignore"):
                s = (pos[2] - origin[2]) / dirs[:, 2]
            hit = np.isfinite(s) & (s > 1e-9)
            out[hit] = s[hit]
        elif self.shape == "box":
            # slab test axis by axis; fmax/fmin skip the NaN of a ray that
            # is parallel to a slab and starts on its plane
            lo = pos - 0.5 * self.size
            hi = pos + 0.5 * self.size
            tmin = tmax = None
            for a in range(3):
                d = dirs[:, a]
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (lo[a] - origin[a]) / d
                    t2 = (hi[a] - origin[a]) / d
                near, far = np.minimum(t1, t2), np.maximum(t1, t2)
                tmin = near if tmin is None else np.fmax(tmin, near)
                tmax = far if tmax is None else np.fmin(tmax, far)
            hit = (tmax >= tmin) & (tmax > 1e-9)
            s = np.where(tmin > 1e-9, tmin, tmax)
            out[hit] = s[hit]
        else:  # cylinder, vertical axis through pos, z in [pos.z, pos.z + height]
            r = 0.5 * self.size[0]
            h = self.size[2]
            ox = origin[0] - pos[0]
            oy = origin[1] - pos[1]
            dx, dy = dirs[:, 0], dirs[:, 1]
            a = dx * dx + dy * dy
            b = 2 * (ox * dx + oy * dy)
            c = ox * ox + oy * oy - r * r
            disc = b * b - 4 * a * c
            ok = (disc >= 0) & (a > 1e-12)
            sq = np.sqrt(np.where(ok, disc, 0.0))
            for sign in (-1.0, 1.0):
                s = (-b + sign * sq) / np.where(ok, 2 * a, 1.0)
                z = origin[2] + s * dirs[:, 2]
                hit = ok & (s > 1e-9) & (z >= pos[2]) & (z <= pos[2] + h)
                out = np.where(hit & (s < out), s, out)
        return out

    def bounding_sphere(self, t: float):
        """(centre, radius) of a sphere holding a box or cylinder at time t;
        None for a plane."""
        pos = self.position_at(t)
        if self.shape == "box":
            return pos, 0.5 * float(np.linalg.norm(self.size))
        if self.shape == "cylinder":
            half_h = 0.5 * self.size[2]
            return pos + [0.0, 0.0, half_h], float(np.hypot(0.5 * self.size[0], half_h))
        return None

    def sample_surface(self, t: float) -> np.ndarray:
        """Silhouette sample points: a box's 8 corners, or 64 on each of
        a cylinder's bottom, middle and top rims."""
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
            ang = np.linspace(0, 2 * np.pi, 64, endpoint=False)
            ring = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(64)], axis=-1)
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

    def cast(self, origin: np.ndarray, dirs: np.ndarray, t: float = 0.0):
        """Nearest-hit ray cast from one `origin` (3,) along each of `dirs`
        (N, 3), which need not be unit vectors; returns (distance, class
        index), MISS where nothing is hit. On equal distances the earlier
        primitive wins."""
        origin = _ray_origin(origin)
        n = len(dirs)
        best = np.full(n, np.inf)
        cls = np.full(n, MISS, dtype=np.int64)
        every = np.arange(n)
        norms = None
        for prim in self.primitives:
            rows = every
            sphere = prim.bounding_sphere(t)
            if sphere is not None:
                # padded so that rounding in the exact test never hits a ray
                # the cone below leaves out
                centre, radius = sphere
                radius = radius * 1.001 + 1e-6
                to_centre = centre - origin
                dist = float(np.linalg.norm(to_centre))
                if dist > radius:
                    # a ray reaches the sphere only within its angular radius
                    if norms is None:
                        norms = np.linalg.norm(dirs, axis=1)
                    cos_min = np.sqrt(1.0 - (radius / dist) ** 2) - 1e-6
                    rows = np.flatnonzero(dirs @ (to_centre / dist) >= cos_min * norms)
            d = prim.intersect(origin, dirs if rows is every else dirs[rows], t)
            closer = d < best[rows]
            won = rows[closer]
            best[won] = d[closer]
            cls[won] = prim.class_index
        return best, cls


def scene_from_spec(spec: dict, labelset: LabelSet) -> Scene:
    prims = []
    for i, p in enumerate(spec["primitives"]):
        try:
            if p["class"] not in labelset.names:
                raise InvalidInputError(f"unknown class {p['class']!r}")
            prims.append(Primitive(
                shape=p["shape"],
                position=p["position"],
                size=p.get("size", [0, 0, 0]),
                class_index=labelset.index(p["class"]),
                velocity=p.get("velocity", [0, 0, 0]),
            ))
        except KeyError as e:
            raise InvalidInputError(f"primitive {i} has no {e} field") from e
        except InvalidInputError as e:
            raise InvalidInputError(f"primitive {i}: {e}") from e
    return Scene(prims, labelset)


def load_scene(path, labelset: LabelSet | None = None):
    """(Scene, spec) from a scene file. A file that is not a JSON object,
    lacks `primitives`, or describes a primitive that is incomplete or
    invalid raises ParseError naming the file."""
    with open(path) as f:
        try:
            spec = json.load(f)
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from e
    if not isinstance(spec, dict):
        raise ParseError(f"{path}: scene is not a JSON object")
    try:
        return scene_from_spec(spec, labelset or LabelSet.default()), spec
    except KeyError as e:
        raise ParseError(f"{path}: scene has no {e} key") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: {e}") from e


def simulate_scan(scene: Scene, pose: Pose, model: SphericalModel,
                  noise: NoiseSpec, t: float, rng: np.random.Generator):
    """Ray-cast a spherical scan from `pose` (world_T_sensor).

    Returns (RangeImage, ground-truth class grid). Ranges carry Gaussian
    noise; the ground truth stays noise-free.
    """
    H, W = model.height, model.width
    dirs_local = spherical_ray_directions(model).reshape(-1, 3)
    R = pose.matrix()[:3, :3]
    dirs = dirs_local @ R.T
    dist, cls = scene.cast(pose.translation, dirs, t)
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
                          noise: NoiseSpec, t: float, rng: np.random.Generator):
    """Per-pixel segmentation from ray-casting through the camera.

    pose_cam is world_T_cam (optical frame). Returns (SegmentationFrame with
    depth, ground-truth class grid).
    """
    H, W = cam.height, cam.width
    d_cam = pinhole_rays(cam).reshape(-1, 3)
    norms = np.linalg.norm(d_cam, axis=-1, keepdims=True)
    unit = d_cam / norms
    R = pose_cam.matrix()[:3, :3]
    dirs = unit @ R.T
    dist, cls = scene.cast(pose_cam.translation, dirs, t)
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
                        noise: NoiseSpec, t: float,
                        rng: np.random.Generator) -> list[Detection]:
    """One RGB bounding box per visible dynamic-class primitive (projected
    silhouette AABB), plus configurable misses and false positives."""
    dynamic = set(scene.labelset.dynamic_indices)
    T_cam_world = np.linalg.inv(pose_cam.matrix())
    dets: list[Detection] = []
    for prim in scene.primitives:
        if prim.class_index not in dynamic or prim.shape == "plane":
            continue
        local = apply(T_cam_world, prim.sample_surface(t))
        front = local[:, 2] > 1e-6
        if not np.any(front):
            continue
        u, v, _ = project_pinhole(local[front], cam)
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
        dets.append(Detection(prim.class_index, score, (x0, y0, x1, y1)))
    if noise.det_false_rate > 0 and rng.random() < noise.det_false_rate:
        w = rng.uniform(20, cam.width / 3)
        h = rng.uniform(20, cam.height / 3)
        x0 = rng.uniform(0, cam.width - w)
        y0 = rng.uniform(0, cam.height - h)
        cls = int(rng.choice(sorted(dynamic))) if dynamic else 0
        score = float(np.clip(rng.normal(noise.det_score_mean,
                                         noise.det_score_sigma), 0.05, 1.0))
        dets.append(Detection(cls, score, (x0, y0, x0 + w, y0 + h)))
    return dets
