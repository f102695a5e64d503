"""Pipeline drivers behind the CLI: log generation, fusion, mapping,
pseudo-label export, evaluation, and benchmarks.

All functions are importable so tests exercise the same code paths as the
command line.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import fileio
from .evaluation import (CameraFrustum, ConfigurationError, ConfusionAccumulator,
                         IoUResult, accumulate_scan_vs_map, iou_map_vs_map,
                         iou_scan_vs_map)
from .fusion import (ALPHA_DYNAMIC, ALPHA_STATIC, DEFAULT_CLUSTER_FACTOR,
                     CameraView, SegmentationFrame, SemanticCloud, class_alphas,
                     fuse_cloud, smooth_and_fuse_image)
from .geometry import (CameraModel, Pose, SphericalModel, Trajectory, apply,
                       invert, render_range_image)
from .labelprop import (DEFAULT_CONFIDENCE, DEFAULT_WINDOW, ScanRecord,
                        ScanWindowPolicy, export_training_pair,
                        generate_pseudolabels, ground_plane_correction)
from .labels import InvalidInputError, LabelSet, softmax
from .synth import (NoiseSpec, forward_camera_extrinsic, load_scene,
                    observed_probs, simulate_detections, simulate_scan,
                    simulate_segmentation)
from .voxelmap import DEFAULT_VOXEL_SIZE, VoxelMap


# the JSON value types a config field takes, by the type of its default; a
# bool is neither an int nor a float
_CONFIG_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}


@dataclass
class RunConfig:
    """Paths and knobs shared by the pipeline commands."""

    calibration: str = ""
    trajectory: str = ""
    scans_dir: str = ""
    frames_dir: str = ""
    detections: str = ""
    labelset: str = ""
    output_dir: str = "out"
    camera_only: bool = False
    voxel_size: float = DEFAULT_VOXEL_SIZE
    n_horizon: int = 10
    horizon: str = "infinite"
    threshold: float = DEFAULT_CONFIDENCE
    window: int = DEFAULT_WINDOW
    alpha_dyn: float = ALPHA_DYNAMIC
    alpha_stat: float = ALPHA_STATIC
    s_factor: float = DEFAULT_CLUSTER_FACTOR
    provenance: str = "camonly_map"
    ground_correction: bool = False
    include_intensity: bool = False

    def __post_init__(self):
        for name, ok, rule in (
                ("horizon", self.horizon in ("infinite", "finite"), "'infinite' or 'finite'"),
                ("voxel_size", 0 < self.voxel_size < np.inf, "finite and > 0"),
                ("n_horizon", self.n_horizon >= 1, ">= 1"),
                ("window", self.window >= 0, ">= 0"),
                ("threshold", 0 <= self.threshold <= 1, "in [0, 1]"),
                ("alpha_dyn", 0 < self.alpha_dyn <= 1, "in (0, 1]"),
                ("alpha_stat", 0 < self.alpha_stat <= 1, "in (0, 1]"),
                ("s_factor", 0 < self.s_factor < np.inf, "finite and > 0")):
            if not ok:
                raise InvalidInputError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    @classmethod
    def load(cls, path: str, **overrides) -> "RunConfig":
        """A JSON object of RunConfig fields, with the non-None `overrides`
        on top. A file that is not valid JSON, not an object, names an
        unknown key, or gives a value of the wrong type, an unknown horizon
        or a value out of its range raises ParseError naming the file; an
        override out of its range raises InvalidInputError."""
        with open(path) as f:
            try:
                cfg = json.load(f)
            except ValueError as e:
                raise fileio.ParseError(f"{path}: {e}") from e
        if not isinstance(cfg, dict):
            raise fileio.ParseError(f"{path}: config is not a JSON object")
        fields = cls.__dataclass_fields__
        unknown = sorted(set(cfg) - set(fields))
        if unknown:
            raise fileio.ParseError(f"{path}: unknown config key {unknown[0]!r}")
        for key, value in cfg.items():
            want = type(fields[key].default)
            if type(value) not in _CONFIG_TYPES[want]:
                raise fileio.ParseError(
                    f"{path}: config key {key!r} must be {want.__name__}, "
                    f"got {type(value).__name__}")
        try:
            rc = cls(**cfg)
        except InvalidInputError as e:
            raise fileio.ParseError(f"{path}: {e}") from e
        # an override out of range raises InvalidInputError without the
        # file's name: the file is not at fault
        rc = replace(rc, **{k: v for k, v in overrides.items() if v is not None})
        # relative paths resolve against the config file
        base = os.path.dirname(os.path.abspath(path))
        for name in ("calibration", "trajectory", "scans_dir", "frames_dir",
                     "detections", "labelset", "output_dir"):
            val = getattr(rc, name)
            if val and not os.path.isabs(val):
                setattr(rc, name, os.path.join(base, val))
        return rc

    def load_labelset(self) -> LabelSet:
        return LabelSet.load(self.labelset) if self.labelset else LabelSet.default()


# ---------------------------------------------------------------------------
# synthetic log generation


def generate_log(scene_path: str, out_dir: str, seed: int = 0,
                 n_scans: int | None = None,
                 lidar_noise: NoiseSpec | None = None,
                 camera_noise: NoiseSpec | None = None) -> dict:
    """Generate a complete file-based sensor log plus ground truth from a
    scene description, over the default label set. Deterministic given the
    seed. `n_scans` overrides the scene's scan count, and the noise specs
    the scene's `noise` section for one sensor each. A count below 1 raises
    InvalidInputError, and a scene file that is incomplete or invalid
    ParseError naming it, before `out_dir` is made."""
    if n_scans is not None and n_scans < 1:
        raise InvalidInputError(f"n_scans must be at least 1, got {n_scans}")
    labelset = LabelSet.default()
    scene, spec = load_scene(scene_path, labelset)
    # the rest of the spec is read before the log directory is made
    try:
        noise_cfg = NoiseSpec(**spec.get("noise", {}))
        lidar_noise = lidar_noise or noise_cfg
        camera_noise = camera_noise or noise_cfg

        calib = fileio.sensor_calibration(spec["sensors"], forward_camera_extrinsic(),
                                          np.eye(4))

        tspec = spec["trajectory"]
        n = tspec["n_scans"] if n_scans is None else n_scans
        if n < 1:
            raise ValueError(f"trajectory n_scans must be at least 1, got {n}")
        dt = tspec["dt"]
        start = np.array(tspec["start"], dtype=np.float64)
        vel = np.array(tspec.get("velocity", [0, 0, 0]), dtype=np.float64)
        yaw_rate = np.deg2rad(tspec.get("yaw_rate_deg", 0.0))

        def _quat(t):
            half = 0.5 * yaw_rate * t
            return np.array([np.cos(half), 0.0, 0.0, np.sin(half)])

        poses = [Pose(i * dt, start + vel * (i * dt), _quat(i * dt))
                 for i in range(max(n, 2))]
        traj = Trajectory(poses)
    except KeyError as e:
        raise fileio.ParseError(f"{scene_path}: scene has no {e} key") from e
    except (TypeError, ValueError) as e:
        raise fileio.ParseError(f"{scene_path}: {e}") from e
    rng = np.random.default_rng(seed)

    os.makedirs(out_dir, exist_ok=True)
    scans_dir = os.path.join(out_dir, "scans")
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(scans_dir, exist_ok=True)
    os.makedirs(frames_dir, exist_ok=True)
    ls_hash = labelset.config_hash()
    labelset.save(os.path.join(out_dir, "labelset.json"))
    fileio.save_calibration(calib, os.path.join(out_dir, "calibration.json"))
    fileio.save_trajectory(traj, os.path.join(out_dir, "trajectory.csv"))

    gt_map = VoxelMap(num_classes=labelset.num_classes, labelset_hash=ls_hash)
    detections = []
    C = labelset.num_classes
    for i in range(n):
        t = i * dt
        # the synthetic rig's LiDAR sits at the base (T_base_lidar = I)
        pose = traj.interpolate(t)
        img, gt_grid = simulate_scan(scene, pose, calib.lidar_model, lidar_noise, t, rng)
        valid = img.valid
        # quantize like the scan files so the ground-truth map sees exactly
        # the coordinates the pipeline will reload
        xyz = img.xyz[valid].astype(np.float32).astype(np.float64)
        gt_cls = gt_grid[valid]
        intensity = img.intensity[valid]
        lidar_probs = observed_probs(gt_cls, C, lidar_noise, rng)
        fileio.save_scan(os.path.join(scans_dir, f"scan_{i:04d}.npz"),
                         xyz, intensity, t, i, lidar_probs=lidar_probs,
                         gt_class=gt_cls, labelset_hash=ls_hash)

        world_xyz = apply(calib.world_T_lidar(traj, t), xyz
                          ).astype(np.float32).astype(np.float64)
        one_hot = np.zeros((len(gt_cls), C))
        one_hot[np.arange(len(gt_cls)), gt_cls] = 1.0
        gt_map.integrate_scan(SemanticCloud(world_xyz, one_hot, timestamp=t), i)

        pose_cam = Pose.from_matrix(calib.world_T_cam(traj, t), t)
        frame, _ = simulate_segmentation(scene, pose_cam, calib.camera, camera_noise, t, rng)
        fileio.save_frame(os.path.join(frames_dir, f"frame_{i:04d}.npz"),
                          frame, labelset_hash=ls_hash)
        for det in simulate_detections(scene, pose_cam, calib.camera, camera_noise, t, rng):
            detections.append((t, det))

    fileio.save_detections(detections, labelset,
                           os.path.join(out_dir, "detections.jsonl"))
    gt_map.save(os.path.join(out_dir, "gt_map.svx"))
    config = {
        "calibration": "calibration.json",
        "trajectory": "trajectory.csv",
        "scans_dir": "scans",
        "frames_dir": "frames",
        "detections": "detections.jsonl",
        "labelset": "labelset.json",
        "output_dir": "out",
    }
    with open(os.path.join(out_dir, "config.json"), "w") as f:
        json.dump(config, f, indent=2)
    meta = {"scene": spec.get("name", os.path.basename(scene_path)),
            "seed": seed, "n_scans": n, "dt": dt, "labelset_hash": ls_hash}
    with open(os.path.join(out_dir, "meta.json"), "w") as f:
        json.dump(meta, f, indent=2)
    return meta


# ---------------------------------------------------------------------------
# fusion


def _load_log(cfg: RunConfig):
    labelset = cfg.load_labelset()
    calib = fileio.load_calibration(cfg.calibration)
    traj = fileio.load_trajectory(cfg.trajectory)
    return labelset, calib, traj


def _checked(load, directory: str, ls_hash: str):
    """(path, item) per `.npz` file of `directory` in name order, as `load`
    reads it, its label-set hash checked against `ls_hash`. Scans load as
    dicts that carry their hash; frames and clouds as (item, hash)."""
    for path in fileio.list_sorted(directory, ".npz"):
        item = load(path)
        item, found = (item, item["labelset_hash"]) if isinstance(item, dict) else item
        fileio.check_hash(ls_hash, found, path)
        yield path, item


def _float32(a: np.ndarray | None) -> np.ndarray | None:
    return None if a is None else a.astype(np.float32, copy=False)


def run_fuse(cfg: RunConfig) -> dict:
    """Fuse every scan with its matching camera frame and detections; write
    world-frame semantic clouds and temporally smoothed fused frames.

    The files are written on one background thread while the next frame or
    scan is fused, with at most one write pending; a failed write raises
    here, and nothing after it is written. The writer only compresses and
    writes: the float32 arrays it saves are made on the calling thread."""
    labelset, calib, traj = _load_log(cfg)
    ls_hash = labelset.config_hash()
    dets = fileio.load_detections(cfg.detections, labelset) if cfg.detections \
        and os.path.exists(cfg.detections) else []
    frames = [f for _, f in _checked(fileio.load_frame, cfg.frames_dir, ls_hash)]
    frame_times = np.array([f.timestamp for f in frames])

    clouds_dir = os.path.join(cfg.output_dir, "clouds")
    fused_frames_dir = os.path.join(cfg.output_dir, "fused_frames")
    os.makedirs(clouds_dir, exist_ok=True)
    os.makedirs(fused_frames_dir, exist_ok=True)

    alphas = class_alphas(labelset, cfg.alpha_dyn, cfg.alpha_stat)
    prev_fused = None
    prev_cam_pose = None
    n_clouds = 0
    frame_dets = [[d for t, d in dets if abs(t - frame.timestamp) < 1e-9]
                  for frame in frames]
    with ThreadPoolExecutor(max_workers=1) as writer:
        pending = None

        def write(save, path, data):
            # `save` is read off `fileio` per write, so that a wrapper set on
            # the module sees every write
            nonlocal pending
            if pending is not None:
                pending.result()
            pending = writer.submit(save, path, data, labelset_hash=ls_hash)

        for i, frame in enumerate(frames):
            cam_pose = calib.world_T_cam(traj, frame.timestamp)
            T_cur_prev = invert(cam_pose) @ prev_cam_pose \
                if prev_cam_pose is not None else None
            fused = smooth_and_fuse_image(frame, prev_fused, T_cur_prev,
                                          calib.camera, frame_dets[i], alphas)
            write(fileio.save_frame,
                  os.path.join(fused_frames_dir, f"frame_{i:04d}.npz"),
                  SegmentationFrame(_float32(fused.probs), depth=_float32(fused.depth),
                                    timestamp=fused.timestamp))
            prev_fused, prev_cam_pose = fused, cam_pose

        # camera-only fusion leaves the LiDAR prior unread
        load = fileio.load_scan_points if cfg.camera_only else fileio.load_scan
        for path, scan in _checked(load, cfg.scans_dir, ls_hash):
            t = scan["t"]
            j = int(np.argmin(np.abs(frame_times - t))) if len(frames) else -1
            views = []
            if j >= 0:
                views.append(CameraView(calib.camera, frames[j], frame_dets[j]))
            cloud = fuse_cloud(scan["xyz"], t, scan.get("lidar_probs"), views, traj,
                               calib.T_base_lidar, calib.lidar_model,
                               labelset.num_classes, s=cfg.s_factor,
                               intensity=scan.get("intensity"))
            world = apply(calib.world_T_lidar(traj, t), cloud.xyz)
            name = os.path.splitext(os.path.basename(path))[0]
            write(fileio.save_semantic_cloud, os.path.join(clouds_dir, f"{name}.npz"),
                  SemanticCloud(_float32(world), _float32(cloud.probs),
                                intensity=_float32(cloud.intensity), frame_id="map",
                                timestamp=t))
            n_clouds += 1
        if pending is not None:
            pending.result()
    return {"clouds": n_clouds, "frames": len(frames),
            "clouds_dir": clouds_dir, "fused_frames_dir": fused_frames_dir}


# ---------------------------------------------------------------------------
# mapping


def run_map(cfg: RunConfig, clouds_dir: str | None = None,
            map_path: str | None = None) -> dict:
    labelset = cfg.load_labelset()
    ls_hash = labelset.config_hash()
    clouds_dir = clouds_dir or os.path.join(cfg.output_dir, "clouds")
    # only a finite-horizon map pays for the ring of recent scans
    n_horizon = cfg.n_horizon if cfg.horizon == "finite" else None
    vmap = VoxelMap(voxel_size=cfg.voxel_size, num_classes=labelset.num_classes,
                    n_horizon=n_horizon, labelset_hash=ls_hash)
    clouds = sorted((c for _, c in _checked(fileio.load_semantic_cloud, clouds_dir, ls_hash)),
                    key=lambda c: c.timestamp)
    for scan_id, cloud in enumerate(clouds):
        vmap.integrate_scan(cloud, scan_id)
    os.makedirs(cfg.output_dir, exist_ok=True)
    map_path = map_path or os.path.join(cfg.output_dir, "map.svx")
    vmap.save(map_path, horizon=cfg.horizon)
    hist = vmap.per_class_voxel_counts(cfg.horizon)
    return {
        "map": map_path,
        "voxels": len(vmap),
        "per_class": {labelset.names[i]: int(c)
                      for i, c in enumerate(hist) if c > 0},
    }


def _load_map(labelset: LabelSet, path: str) -> VoxelMap:
    """A map snapshot whose label set, where it names one, is `labelset`."""
    vmap = VoxelMap.load(path)
    fileio.check_hash(labelset.config_hash(), vmap.labelset_hash, path)
    return vmap


# ---------------------------------------------------------------------------
# pseudo-labels


def load_scan_records(cfg: RunConfig, labelset: LabelSet, calib,
                      traj) -> list[ScanRecord]:
    """Every scan of the log, each checked against `labelset`'s hash."""
    return [ScanRecord(scan["xyz"],
                       Pose.from_matrix(calib.world_T_lidar(traj, scan["t"]), scan["t"]),
                       scan["scan_id"], intensity=scan.get("intensity"),
                       timestamp=scan["t"])
            for _, scan in _checked(fileio.load_scan_points, cfg.scans_dir,
                                    labelset.config_hash())]


def run_pseudolabel(cfg: RunConfig, map_path: str | None = None) -> dict:
    labelset, calib, traj = _load_log(cfg)
    map_path = map_path or os.path.join(cfg.output_dir, "map.svx")
    vmap = _load_map(labelset, map_path)
    records = load_scan_records(cfg, labelset, calib, traj)
    images = generate_pseudolabels(
        vmap, records, labelset, calib.lidar_model,
        policy=ScanWindowPolicy(cfg.window), threshold=cfg.threshold,
        provenance=cfg.provenance)
    out_root = os.path.join(cfg.output_dir, "pseudolabels")
    n_labeled = 0
    for rec, img in zip(records, images):
        if cfg.ground_correction:
            img = ground_plane_correction(img, labelset)
        scan_img = render_range_image(rec.xyz, calib.lidar_model)
        if cfg.include_intensity and rec.intensity is not None:
            intens = np.zeros_like(scan_img.range)
            hit = scan_img.cell_index >= 0
            intens[hit] = rec.intensity[scan_img.cell_index[hit]]
            scan_img.intensity = intens
        export_training_pair(scan_img, img,
                             os.path.join(out_root, f"sample_{rec.scan_id:04d}"),
                             labelset, include_intensity=cfg.include_intensity)
        n_labeled += int(img.labeled.sum())
    return {"samples": len(images), "labeled_cells": n_labeled,
            "out_dir": out_root}


# ---------------------------------------------------------------------------
# evaluation


def run_eval(cfg: RunConfig, pred: str, reference: str,
             camera_fov: bool = False) -> IoUResult:
    """Evaluate a prediction (map snapshot or clouds directory) against a
    reference map snapshot."""
    if camera_fov and not os.path.isdir(pred):
        raise ConfigurationError("--camera-fov applies to cloud predictions only")
    # only the frustum reads the rig
    labelset, calib, traj = _load_log(cfg) if camera_fov else (cfg.load_labelset(), None, None)
    ref_map = _load_map(labelset, reference)
    if not os.path.isdir(pred):
        return iou_map_vs_map(_load_map(labelset, pred), ref_map, labelset)
    clouds = (c for _, c in _checked(fileio.load_semantic_cloud, pred,
                                     labelset.config_hash()))
    if not camera_fov:
        return iou_scan_vs_map(list(clouds), ref_map, labelset)
    acc = ConfusionAccumulator(ref_map.num_classes)
    for cloud in clouds:
        pose_cam = Pose.from_matrix(calib.world_T_cam(traj, cloud.timestamp),
                                    cloud.timestamp)
        accumulate_scan_vs_map(acc, cloud, ref_map, labelset,
                               CameraFrustum(calib.camera, pose_cam))
    return IoUResult(acc.iou(), labelset, restricted_fov=True)


# ---------------------------------------------------------------------------
# benchmark


def run_bench(seed: int = 0, repeats: int = 5) -> dict:
    """Throughput of the hot paths on a synthetic 128 x 1024 scan and a
    480 x 848 frame, each timed `repeats` (>= 1) times."""
    if repeats < 1:
        raise InvalidInputError(f"repeats must be at least 1, got {repeats}")
    rng = np.random.default_rng(seed)
    labelset = LabelSet.default()
    C = labelset.num_classes
    model = SphericalModel()
    frame_shape = (480, 848)
    cam = CameraModel(fx=500, fy=500, cx=frame_shape[1] / 2, cy=frame_shape[0] / 2,
                      width=frame_shape[1], height=frame_shape[0],
                      T_cam_base=forward_camera_extrinsic())
    traj = Trajectory([Pose(0.0, np.zeros(3), np.array([1.0, 0, 0, 0])),
                       Pose(10.0, np.array([1.0, 0, 0]), np.array([1.0, 0, 0, 0]))])
    n = model.height * model.width
    xyz = rng.uniform(-30, 30, size=(n, 3))
    scores = rng.normal(0, 1, size=(n, C))
    scores[np.arange(n), rng.integers(0, C, n)] += 6.0
    lidar_probs = softmax(scores)
    frame = SegmentationFrame(softmax(rng.normal(0, 1, size=frame_shape + (C,))),
                              depth=np.full(frame_shape, 10.0), timestamp=0.0)
    view = CameraView(cam, frame)
    alphas = class_alphas(labelset)

    # steady-state map: voxels allocated once, then re-integrated per scan
    vmap = VoxelMap(num_classes=C)
    vmap.integrate_scan(SemanticCloud(xyz, lidar_probs), 0)
    fuse_times, map_times, frame_times = [], [], []
    for rep in range(repeats):
        t0 = time.perf_counter()
        cloud = fuse_cloud(xyz, 0.0, lidar_probs, [view], traj, np.eye(4),
                           model, C)
        t1 = time.perf_counter()
        vmap.integrate_scan(cloud, rep + 1)
        t2 = time.perf_counter()
        smooth_and_fuse_image(frame, frame, np.eye(4), cam, [], alphas)
        t3 = time.perf_counter()
        fuse_times.append(t1 - t0)
        map_times.append(t2 - t1)
        frame_times.append(t3 - t2)

    def stats(ts):
        ts = np.array(ts)
        return {"p50_ms": float(np.percentile(ts, 50) * 1e3),
                "p99_ms": float(np.percentile(ts, 99) * 1e3)}

    per_scan = np.array(fuse_times) + np.array(map_times)
    return {
        "points_per_scan": n,
        "fuse_cloud": {**stats(fuse_times),
                       "points_per_s": n / float(np.median(fuse_times))},
        "integrate_scan": {**stats(map_times),
                           "points_per_s": n / float(np.median(map_times))},
        "scan_pipeline": stats(per_scan),
        "smooth_and_fuse_image": {**stats(frame_times),
                                  "frames_per_s": 1.0 / float(np.median(frame_times))},
    }
