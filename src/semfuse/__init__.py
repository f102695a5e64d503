"""Multi-modal semantic fusion toolkit: Bayesian categorical fusion of
camera, LiDAR, and detection semantics; log-space sparse voxel mapping;
cross-modal pseudo-label generation; and IoU evaluation."""

from .labels import LabelSet, bayes_fuse, log_normalize, logsumexp, softmax
from .geometry import (CameraModel, Pose, RangeImage, SphericalModel,
                       Trajectory, project_pinhole, project_spherical,
                       render_virtual_scan)
from .fusion import (CameraView, Detection, SegmentationFrame, SemanticCloud,
                     cluster_bbox_points, cluster_tolerance,
                     detection_distribution, fuse_cloud, smooth_and_fuse_image)
from .voxelmap import VoxelMap
from .labelprop import (PseudoLabelImage, ScanRecord, ScanWindowPolicy,
                        generate_pseudolabels, ground_plane_correction)
from .evaluation import (ConfusionAccumulator, iou_map_vs_map, iou_scan_vs_map)

__version__ = "0.1.0"

__all__ = [
    "LabelSet", "bayes_fuse", "log_normalize", "logsumexp",
    "softmax", "CameraModel", "Pose", "RangeImage", "SphericalModel",
    "Trajectory", "project_pinhole", "project_spherical", "render_virtual_scan",
    "CameraView", "Detection", "SegmentationFrame", "SemanticCloud",
    "cluster_bbox_points", "cluster_tolerance", "detection_distribution",
    "fuse_cloud", "smooth_and_fuse_image", "VoxelMap", "PseudoLabelImage",
    "ScanRecord", "ScanWindowPolicy", "generate_pseudolabels",
    "ground_plane_correction", "ConfusionAccumulator", "iou_map_vs_map",
    "iou_scan_vs_map",
]
