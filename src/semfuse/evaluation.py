"""Per-class and mean IoU of semantic clouds and maps against a reference map."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraModel, Pose, apply, invert, project_pinhole
from .labels import InvalidInputError, LabelSet
from .voxelmap import VoxelMap


class ConfigurationError(InvalidInputError):
    """Inputs that do not fit together: class counts, voxel sizes or options."""


@dataclass
class ConfusionAccumulator:
    """Per-class TP/FP/FN counters, zero at construction, that batches of
    (predicted, reference) class pairs are added into."""

    num_classes: int
    tp: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    fn: np.ndarray = field(init=False)

    def __post_init__(self):
        self.tp, self.fp, self.fn = np.zeros((3, self.num_classes), dtype=np.int64)

    def add(self, predicted: np.ndarray, reference: np.ndarray) -> None:
        predicted = np.asarray(predicted)
        reference = np.asarray(reference)
        match = predicted == reference
        self.tp += np.bincount(reference[match], minlength=self.num_classes)
        self.fp += np.bincount(predicted[~match], minlength=self.num_classes)
        self.fn += np.bincount(reference[~match], minlength=self.num_classes)

    def iou(self) -> np.ndarray:
        """IoU = TP / (TP + FP + FN); NaN for classes never observed."""
        denom = self.tp + self.fp + self.fn
        with np.errstate(invalid="ignore"):
            return np.where(denom > 0, self.tp / np.maximum(denom, 1), np.nan)


@dataclass
class IoUResult:
    per_class: np.ndarray  # NaN for unobserved classes
    labelset: LabelSet
    restricted_fov: bool = False

    def mean(self) -> float:
        """Mean IoU over the observed classes; NaN when there are none."""
        vals = self.per_class
        obs = vals[~np.isnan(vals)]
        return float(obs.mean()) if len(obs) else float("nan")

    def as_dict(self) -> dict:
        per_class = {name: float(v) for name, v in
                     zip(self.labelset.names, self.per_class) if not np.isnan(v)}
        return {"per_class": per_class, "mean": self.mean(),
                "restricted_fov": self.restricted_fov}


@dataclass
class CameraFrustum:
    """Viewing volume of a camera at a given pose (world_T_cam)."""

    cam: CameraModel
    pose: Pose

    def contains(self, world_xyz: np.ndarray) -> np.ndarray:
        local = apply(invert(self.pose.matrix()), world_xyz)
        _, _, inside = project_pinhole(local, self.cam)
        return inside


def _check_labelset(a_classes: int, b_classes: int):
    if a_classes != b_classes:
        raise ConfigurationError(
            f"label-set mismatch: {a_classes} vs {b_classes} classes")


def accumulate_scan_vs_map(acc: ConfusionAccumulator, cloud, reference: VoxelMap,
                           labelset: LabelSet,
                           restrict: CameraFrustum | None = None) -> None:
    """Compare each point's argmax class against its reference voxel label.

    Points outside the frustum (when given) or in never-observed reference
    voxels are excluded; unknown-class reference voxels are skipped.
    """
    _check_labelset(cloud.probs.shape[-1], reference.num_classes)
    _check_labelset(acc.num_classes, reference.num_classes)
    xyz = np.asarray(cloud.xyz, dtype=np.float64)
    rows = reference.rows_for_points(xyz)
    keep = rows >= 0
    if restrict is not None:
        keep &= restrict.contains(xyz)
    # argmax before the mask: no (N, C) copy of the kept rows
    pred = np.argmax(cloud.probs, axis=-1)[keep]
    ref = reference.voxel_classes(rows[keep])
    unknown = labelset.unknown_index
    if unknown is not None:
        known = ref != unknown
        pred, ref = pred[known], ref[known]
    acc.add(pred, ref)


def iou_scan_vs_map(clouds: list, reference: VoxelMap, labelset: LabelSet) -> IoUResult:
    """Pointwise IoU of a list of semantic clouds (map frame) pooled
    against the reference map, by the rules of `accumulate_scan_vs_map`."""
    acc = ConfusionAccumulator(reference.num_classes)
    for cloud in clouds:
        accumulate_scan_vs_map(acc, cloud, reference, labelset)
    return IoUResult(acc.iou(), labelset)


def iou_map_vs_map(pred: VoxelMap, reference: VoxelMap,
                   labelset: LabelSet) -> IoUResult:
    """Voxelwise argmax comparison over the union of occupied keys."""
    if abs(pred.voxel_size - reference.voxel_size) > 1e-12:
        raise ConfigurationError(
            f"voxel size mismatch: {pred.voxel_size} vs {reference.voxel_size}")
    _check_labelset(pred.num_classes, reference.num_classes)
    acc = ConfusionAccumulator(reference.num_classes)
    unknown = labelset.unknown_index

    pred_keys, pred_rows = pred.sorted_index()
    ref_keys, ref_rows = reference.sorted_index()
    # in_pred[i] and in_ref[i] index the same voxel in the two key arrays
    _, in_pred, in_ref = np.intersect1d(pred_keys, ref_keys, assume_unique=True,
                                        return_indices=True)
    p_cls = pred.voxel_classes(pred_rows)
    r_cls = reference.voxel_classes(ref_rows)

    p_both, r_both = p_cls[in_pred], r_cls[in_ref]
    if unknown is not None:
        keep = r_both != unknown
        p_both, r_both = p_both[keep], r_both[keep]
    acc.add(p_both, r_both)
    # voxels occupied in only one map: misses resp. phantom structure
    r_only = np.delete(r_cls, in_ref)
    if unknown is not None:
        r_only = r_only[r_only != unknown]
    acc.fn += np.bincount(r_only, minlength=acc.num_classes)
    p_only = np.delete(p_cls, in_pred)
    acc.fp += np.bincount(p_only, minlength=acc.num_classes)
    return IoUResult(acc.iou(), labelset)


def format_report(result: IoUResult) -> str:
    """Aligned per-class IoU table plus the mean, in label-set order."""
    lines = []
    width = max((len(n) for n in result.labelset.names), default=5)
    for name, v in zip(result.labelset.names, result.per_class):
        if np.isnan(v):
            continue
        lines.append(f"{name:<{width}}  {100 * v:6.2f} %")
    if lines:
        lines.append(f"{'mean':<{width}}  {100 * result.mean():6.2f} %")
    return "\n".join(lines)


def write_json_report(result: IoUResult, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result.as_dict(), f, indent=2)
