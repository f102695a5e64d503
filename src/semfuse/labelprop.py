"""Pseudo-label generation from aggregated semantic maps.

Renders the (preferably camera-only) semantic map into virtual LiDAR views,
gates by confidence, restricts dynamic-class points to a scan window around
the target viewpoint, and corrects ground-plane artifacts. Emits
training-ready range-image / label pairs.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (Pose, RangeImage, SphericalModel, apply,
                       render_range_image, render_virtual_scan)
from .labels import GROUND_CLASS_NAMES, InvalidInputError, LabelSet
from .voxelmap import VoxelMap

UNLABELED = 255
DEFAULT_CONFIDENCE = 0.80
DEFAULT_WINDOW = 2
# what `generate_pseudolabels` renders from; "single_overlay" names the
# map-free labels of `single_overlay_pseudolabels`
MAP_PROVENANCES = ("camonly_map", "fused_map")

# ground-plane consensus fit
RANSAC_ITERATIONS = 200
RANSAC_INLIER_DIST = 0.15
GROUND_BAND_HEIGHT = 0.30
MIN_PLANE_CANDIDATES = 100


@dataclass
class ScanRecord:
    """One LiDAR scan: sensor-frame points, its world pose, and scan id."""

    xyz: np.ndarray  # (N, 3) sensor frame
    pose: Pose
    scan_id: int
    intensity: np.ndarray | None = None
    timestamp: float = 0.0

    def world_xyz(self) -> np.ndarray:
        return apply(self.pose.matrix(), self.xyz)


@dataclass
class ScanWindowPolicy:
    """Dynamic-class points are projected only from scans within +/- window
    of the target scan, to avoid motion smear."""

    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        if self.window < 0:
            raise InvalidInputError("scan window must be >= 0")


@dataclass
class PseudoLabelImage:
    classes: np.ndarray  # (H, W) uint8, UNLABELED sentinel
    confidence: np.ndarray  # (H, W) float
    provenance: str
    viewpoint: Pose
    scan_id: int = 0
    threshold: float = DEFAULT_CONFIDENCE
    xyz: np.ndarray | None = None  # (H, W, 3) sensor frame, per labeled cell
    range: np.ndarray | None = None  # (H, W), -1 invalid

    @property
    def labeled(self) -> np.ndarray:
        return self.classes != UNLABELED

    def labeled_fraction(self, class_subset=None) -> float:
        mask = self.labeled
        if class_subset is not None:
            mask = mask & np.isin(self.classes, list(class_subset))
        return float(mask.mean())


def _image_from_render(img: RangeImage, cls: np.ndarray, conf: np.ndarray,
                       threshold: float, provenance: str, viewpoint: Pose,
                       scan_id: int) -> PseudoLabelImage:
    """Label each cell with the class and confidence of its winning source
    point; `cls` and `conf` are indexed by `img.cell_index`."""
    H, W = img.model.height, img.model.width
    classes = np.full((H, W), UNLABELED, dtype=np.uint8)
    confidence = np.zeros((H, W))
    hit = img.cell_index >= 0
    src = img.cell_index[hit]
    confidence[hit] = conf[src]
    keep = confidence[hit] >= threshold
    flat = np.nonzero(hit.reshape(-1))[0][keep]
    classes.reshape(-1)[flat] = cls[src[keep]]
    confidence[classes == UNLABELED] = 0.0
    return PseudoLabelImage(classes, confidence, provenance, viewpoint,
                            scan_id=scan_id, threshold=threshold,
                            xyz=img.xyz, range=img.range)


def generate_pseudolabels(vmap: VoxelMap, scans: list[ScanRecord],
                          labelset: LabelSet, model: SphericalModel,
                          policy: ScanWindowPolicy | None = None,
                          threshold: float = DEFAULT_CONFIDENCE,
                          provenance: str = "camonly_map") -> list[PseudoLabelImage]:
    """Render one pseudo-label image per scan from the aggregated map.

    Static-class voxels are rendered from the full map (mean positions);
    dynamic-class points come from the raw scans inside the window, labeled
    by their voxel's class. A scan's dynamic points are found by looking its
    points up among the dynamic-class voxels only (`rows_for_points` with
    `among`), so a point in a static or unobserved voxel is no candidate.
    Cells whose winning distribution peaks below `threshold` stay unlabeled.
    """
    if provenance not in MAP_PROVENANCES:
        raise InvalidInputError(
            f"provenance {provenance!r} is not a map provenance {MAP_PROVENANCES}")
    policy = policy or ScanWindowPolicy()
    dynamic = np.array(labelset.dynamic_mask, dtype=bool)

    if len(vmap) == 0:
        warnings.warn("empty map: pseudo-labels are all unlabeled", stacklevel=2)

    map_cloud = vmap.export_cloud()
    map_cls = np.argmax(map_cloud.probs, axis=-1)
    map_conf = np.take_along_axis(map_cloud.probs, map_cls[:, None], axis=-1)[:, 0]
    dyn_sel = dynamic[map_cls]
    static_sel = ~dyn_sel
    static = (map_cloud.xyz[static_sel], map_cls[static_sel], map_conf[static_sel])
    # export_cloud lists voxels in sorted-key order; the scans' points look
    # their voxels up by row, so put the same classes in row order
    _, export_rows = vmap.sorted_index()
    dyn_rows = export_rows[dyn_sel]
    row_cls = np.empty_like(map_cls)
    row_cls[export_rows] = map_cls
    row_conf = np.empty_like(map_conf)
    row_conf[export_rows] = map_conf

    # per-scan dynamic-class points, labeled by their voxel
    dyn_by_scan: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for scan in scans:
        w = scan.world_xyz()
        rows = vmap.rows_for_points(w, among=dyn_rows)
        hit = np.flatnonzero(rows >= 0)
        rows = rows[hit]
        dyn_by_scan[scan.scan_id] = (w[hit], row_cls[rows], row_conf[rows])

    out = []
    for scan in scans:
        parts = [static] + [dyn_by_scan[other.scan_id] for other in scans
                            if abs(other.scan_id - scan.scan_id) <= policy.window]
        world, cls, conf = (np.concatenate(p) for p in zip(*parts))
        img = render_virtual_scan(world, scan.pose, model)
        out.append(_image_from_render(img, cls, conf, threshold, provenance,
                                      scan.pose, scan.scan_id))
    return out


def single_overlay_pseudolabels(cloud, pose: Pose, model: SphericalModel,
                                threshold: float = DEFAULT_CONFIDENCE,
                                scan_id: int = 0) -> PseudoLabelImage:
    """Pseudo-labels from one scan's own camera overlay (sensor-frame
    semantic cloud), without map aggregation."""
    img = render_range_image(np.asarray(cloud.xyz, dtype=np.float64), model)
    probs = np.asarray(cloud.probs)
    return _image_from_render(img, np.argmax(probs, axis=-1), np.max(probs, axis=-1),
                              threshold, "single_overlay", pose, scan_id)


def _fit_plane_ransac(points: np.ndarray, rng: np.random.Generator):
    """Consensus plane (normal, offset) with n . p + d = 0; None on failure."""
    best = None
    best_count = 0
    n = len(points)
    for _ in range(RANSAC_ITERATIONS):
        idx = rng.choice(n, size=3, replace=False)
        a, b, c = points[idx]
        normal = np.cross(b - a, c - a)
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            continue
        normal = normal / norm
        d = -normal @ a
        dist = np.abs(points @ normal + d)
        count = int((dist < RANSAC_INLIER_DIST).sum())
        if count > best_count:
            best_count = count
            best = (normal, d)
    return best


def ground_plane_correction(img: PseudoLabelImage, labelset: LabelSet) -> PseudoLabelImage:
    """Unlabel cells that lie on the dominant ground plane but carry a
    class other than the label set's GROUND_CLASS_NAMES; corrects artifacts
    at object borders.

    The plane is fit by random-sample consensus, seeded with 0, over points
    in the lowest height band of the scan. With too few candidates the image
    is returned unchanged with a warning.
    """
    if img.xyz is None or img.range is None:
        raise InvalidInputError("pseudo-label image carries no per-cell geometry")
    ground_classes = [labelset.index(n) for n in GROUND_CLASS_NAMES if n in labelset.names]
    valid = img.range >= 0
    pts = img.xyz[valid]
    if len(pts) == 0:
        warnings.warn("no valid cells for ground-plane fit", stacklevel=2)
        return img
    z0 = pts[:, 2].min()
    band = pts[pts[:, 2] <= z0 + GROUND_BAND_HEIGHT]
    if len(band) < MIN_PLANE_CANDIDATES:
        warnings.warn(f"ground-plane fit skipped: {len(band)} candidates "
                      f"(< {MIN_PLANE_CANDIDATES})", stacklevel=2)
        return img
    fit = _fit_plane_ransac(band, np.random.default_rng(0))
    if fit is None:
        warnings.warn("ground-plane fit failed", stacklevel=2)
        return img
    normal, d = fit
    classes = img.classes.copy()
    conf = img.confidence.copy()
    dist = np.abs(img.xyz @ normal + d)
    on_plane = valid & (dist < RANSAC_INLIER_DIST) & img.labeled
    non_ground = ~np.isin(classes, ground_classes)
    reset = on_plane & non_ground
    classes[reset] = UNLABELED
    conf[reset] = 0.0
    return replace(img, classes=classes, confidence=conf)


def export_training_pair(scan_image: RangeImage, label_img: PseudoLabelImage,
                         out_dir: str, labelset: LabelSet,
                         include_intensity: bool = False) -> str:
    """Write one training sample: channels.bin, labels.bin, meta.json."""
    H, W = scan_image.model.height, scan_image.model.width
    if label_img.classes.shape != (H, W):
        raise InvalidInputError("label grid does not match scan shape")
    n_ch = 5 if include_intensity else 4
    channels = np.zeros((H, W, n_ch), dtype=np.float32)
    channels[..., 0] = scan_image.range
    channels[..., 1:4] = scan_image.xyz
    if include_intensity:
        if scan_image.intensity is None:
            raise InvalidInputError("scan has no intensity channel")
        channels[..., 4] = scan_image.intensity
    os.makedirs(out_dir, exist_ok=True)
    channels.astype("<f4").tofile(os.path.join(out_dir, "channels.bin"))
    label_img.classes.astype(np.uint8).tofile(os.path.join(out_dir, "labels.bin"))
    meta = {
        "height": H,
        "width": W,
        "channels": n_ch,
        "labelset_hash": labelset.config_hash(),
        "provenance": label_img.provenance,
        "threshold": label_img.threshold,
        "scan_id": label_img.scan_id,
        "unlabeled": UNLABELED,
        "viewpoint": {
            "t": label_img.viewpoint.t,
            "translation": label_img.viewpoint.translation.tolist(),
            "rotation": label_img.viewpoint.rotation.tolist(),
        },
    }
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    return out_dir


def load_training_pair(sample_dir: str):
    """Read back a training sample; returns (channels, labels, meta)."""
    with open(os.path.join(sample_dir, "meta.json")) as f:
        meta = json.load(f)
    H, W, n_ch = meta["height"], meta["width"], meta["channels"]
    channels = np.fromfile(os.path.join(sample_dir, "channels.bin"),
                           dtype="<f4").reshape(H, W, n_ch)
    classes = np.fromfile(os.path.join(sample_dir, "labels.bin"),
                          dtype=np.uint8).reshape(H, W)
    return channels, classes, meta
