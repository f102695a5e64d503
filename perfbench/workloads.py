"""The three benchmark workloads.

Every workload is a closed loop: one client in one process sends the next
item only after the previous one has finished. Inputs are synthesized with
`semfuse.synth` from the seed; the code under test sees only those inputs.
The clock runs around the work only: it is paused while outputs are
checked, so checks count into `error_rate` but not into any timing.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import time
from dataclasses import dataclass

import numpy as np

from semfuse import (evaluation, fileio, fusion, geometry, labelprop, labels,
                     runner, synth, voxelmap)
from semfuse.fusion import CameraView, SemanticCloud
from semfuse.geometry import CameraModel, Pose, SphericalModel, Trajectory, invert
from semfuse.labelprop import UNLABELED, ScanRecord, ScanWindowPolicy
from semfuse.labels import LabelSet, softmax
from semfuse.voxelmap import VoxelMap

from harness import Ledger, Tracer, check_distributions, median, tail

HERE = os.path.dirname(os.path.abspath(__file__))
SCENE = os.path.join(HERE, "scenes", "street.json")

VOXEL_SIZE = 0.25
THRESHOLD = 0.80
WINDOW = 2

WORKLOADS = ("online_mapping", "offline_log", "map_readback")

# name -> unit; every workload reports every one of these
END_TO_END = {
    "setup_s": "s",
    "scans_per_s": "1/s",
    "scan_ms_p50": "ms",
    "scan_ms_tail": "ms",
    "miou": "ratio",
    "pseudolabel_accuracy": "ratio",
    "labeled_fraction": "ratio",
    "peak_rss_mb": "MB",
}

LAYERS = ("labels", "geometry", "fusion", "voxelmap", "labelprop",
          "evaluation", "fileio", "runner", "other")

FILEIO_CALLS = ("save_semantic_cloud", "save_frame", "load_scan", "load_frame",
                "load_semantic_cloud")
RUNNER_STAGES = ("run_fuse", "run_map", "run_eval", "run_pseudolabel")

# name -> unit; reported by traced runs, 0 where a workload never reaches
# the function
PER_LAYER = {
    "fusion.fuse_cloud.ms_p50": "ms",
    "fusion.fuse_cloud.points_per_s": "1/s",
    "fusion.smooth_and_fuse_image.ms_p50": "ms",
    "fusion.detections_per_frame": "count",
    "labels.bayes_fuse.ms_total": "ms",
    "labels.log_normalize.ms_total": "ms",
    "voxelmap.integrate_scan.ms_p50": "ms",
    "voxelmap.integrate_scan.ms_tail": "ms",
    "voxelmap.integrate_scan.points_per_s": "1/s",
    "voxelmap.new_voxels_per_scan": "count",
    "voxelmap.voxels": "count",
    "voxelmap.points_per_touched_voxel": "ratio",
    "voxelmap.lookup_points.points_per_s": "1/s",
    "voxelmap.lookup_points.hit_ratio": "ratio",
    "voxelmap.export_cloud.ms": "ms",
    "voxelmap.save.ms": "ms",
    "voxelmap.load.ms": "ms",
    "voxelmap.snapshot_bytes": "bytes",
    "labelprop.generate_pseudolabels.ms_per_scan": "ms",
    "labelprop.export_training_pair.ms_p50": "ms",
    "labelprop.labeled_ratio": "ratio",
    "geometry.render_range_image.ms_p50": "ms",
    "geometry.to_world.ms_p50": "ms",
    "evaluation.iou_map_vs_map.ms": "ms",
    "evaluation.iou_scan_vs_map.points_per_s": "1/s",
    **{f"fileio.{c}.ms_p50": "ms" for c in FILEIO_CALLS},
    "fileio.bytes_written": "bytes",
    "fileio.bytes_read": "bytes",
    **{f"runner.{s}.s": "s" for s in RUNNER_STAGES},
    "synth.simulate_scan.ms_p50": "ms",
    "synth.simulate_segmentation.ms_p50": "ms",
    **{f"{layer}.self_pct": "%" for layer in LAYERS},
    "trace.scans_per_s_untraced": "1/s",
    "trace.scans_per_s_traced": "1/s",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Profile:
    """Sizes of one benchmark configuration."""

    scene: str = SCENE
    distinct_scans: int = 3     # synthesized scans the in-memory workloads replay
    drive_scans: int = 17       # online_mapping: scans per drive, fresh map each drive
    log_scans: int = 3          # offline_log: scans in the synthesized log
    readback_scans: int = 9     # map_readback: scans behind the pre-built map
    setup_repeats: int = 3      # setup_s is the median over these


DEFAULT = Profile()


class Result:
    """What one workload run produced."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.setup_s: list[float] = []
        self.iter_busy: list[float] = []     # timed seconds per iteration
        self.iter_scans: list[int] = []      # scans completed per iteration
        self.iter_traced: list[bool] = []
        self.latency_ms: list[float] = []    # per-scan latency samples
        self.quality: dict[str, float] = {}
        self.traced_runs: list[int] = []     # run ids of traced iterations
        self.points_per_touched_voxel = 0.0  # counted by the checks

    def rate(self, traced=None) -> float:
        """Scans completed per second of timed work."""
        sel = [i for i, t in enumerate(self.iter_traced)
               if traced is None or t == traced]
        busy = sum(self.iter_busy[i] for i in sel)
        return sum(self.iter_scans[i] for i in sel) / busy if busy > 0 else 0.0


# ---------------------------------------------------------------------------
# input synthesis


def _sensors(spec: dict):
    lid = spec["sensors"]["lidar"]
    model = SphericalModel(width=lid["w"], height=lid["h"],
                           f_up=np.deg2rad(lid["f_up_deg"]),
                           f_down=np.deg2rad(lid["f_down_deg"]),
                           r_max=lid["r_max_m"])
    c = spec["sensors"]["camera"]
    cam = CameraModel(fx=c["fx"], fy=c["fy"], cx=c["cx"], cy=c["cy"],
                      width=c["width"], height=c["height"],
                      T_cam_base=synth.forward_camera_extrinsic())
    return model, cam


def _trajectory(spec: dict, n: int) -> Trajectory:
    t = spec["trajectory"]
    start = np.array(t["start"], dtype=np.float64)
    vel = np.array(t.get("velocity", [0, 0, 0]), dtype=np.float64)
    yaw_rate = np.deg2rad(t.get("yaw_rate_deg", 0.0))
    dt = t["dt"]
    return Trajectory([
        Pose(i * dt, start + vel * (i * dt),
             np.array([np.cos(0.5 * yaw_rate * i * dt), 0.0, 0.0,
                       np.sin(0.5 * yaw_rate * i * dt)]))
        for i in range(max(n, 2))])


@dataclass
class Item:
    """One synthesized scan (sensor frame) with its camera frame."""

    xyz: np.ndarray
    lidar_probs: np.ndarray
    gt_class: np.ndarray
    intensity: np.ndarray
    frame: fusion.SegmentationFrame
    detections: list


class Drive:
    """A straight drive that replays `distinct` synthesized scans.

    Scan i of the drive is synthesized scan i mod distinct, placed at the
    drive's pose at time i * dt, so the map keeps growing in front of the
    vehicle as it would on a real drive. Road and sidewalks are invariant
    along the street and line up between replays; other structure repeats
    with the replay period of distinct * dt * speed metres.
    """

    def __init__(self, spec: dict, labelset: LabelSet, seed: int,
                 distinct: int, n_scans: int):
        self.labelset = labelset
        self.model, self.cam = _sensors(spec)
        self.T_base_lidar = np.eye(4)
        self.dt = spec["trajectory"]["dt"]
        self.n_scans = n_scans
        self.traj = _trajectory(spec, n_scans)
        scene = synth.scene_from_spec(spec, labelset)
        noise = synth.NoiseSpec(**spec.get("noise", {}))
        rng = np.random.default_rng(seed)
        C = labelset.num_classes
        self.items = []
        for k in range(distinct):
            t = k * self.dt
            pose = self.traj.interpolate(t)
            img, gt = synth.simulate_scan(scene, pose, self.model, noise, t, rng)
            valid = img.valid
            gt_cls = gt[valid]
            # LiDAR network stand-in, as in runner.generate_log
            observed = gt_cls.copy()
            if noise.label_flip_rate > 0:
                flip = rng.random(len(observed)) < noise.label_flip_rate
                shift = rng.integers(1, C, size=len(observed))
                observed = np.where(flip, (observed + shift) % C, observed)
            scores = np.zeros((len(observed), C))
            scores[np.arange(len(observed)), observed] = noise.score_temperature
            pose_cam = Pose.from_matrix(pose.matrix() @ invert(self.cam.T_cam_base), t)
            frame, _ = synth.simulate_segmentation(scene, pose_cam, self.cam,
                                                   noise, t, rng)
            dets = synth.simulate_detections(scene, pose_cam, self.cam, noise, t, rng)
            self.items.append(Item(img.xyz[valid], softmax(scores), gt_cls,
                                   img.intensity[valid], frame, dets))

    def item(self, i: int) -> Item:
        return self.items[i % len(self.items)]

    def world_T_lidar(self, t: float) -> np.ndarray:
        return self.traj.interpolate(t).matrix() @ self.T_base_lidar

    def view(self, i: int) -> CameraView:
        it = self.item(i)
        # the replayed frame is stamped with the replay time, so fusion sees
        # a synchronous camera
        return CameraView(self.cam, it.frame, it.detections, timestamp=i * self.dt)

    def record(self, i: int) -> ScanRecord:
        t = i * self.dt
        it = self.item(i)
        return ScanRecord(it.xyz, Pose.from_matrix(self.world_T_lidar(t), t), i,
                          intensity=it.intensity, timestamp=t)

    def fuse_to_world(self, i: int, tracer: Tracer) -> SemanticCloud:
        """fuse_cloud, then the pose lookup and transform to the map frame."""
        it = self.item(i)
        t = i * self.dt
        cloud = fusion.fuse_cloud(it.xyz, t, it.lidar_probs, [self.view(i)],
                                  self.traj, self.T_base_lidar, self.model,
                                  self.labelset.num_classes,
                                  intensity=it.intensity)
        with tracer.span("geometry.to_world", n=len(cloud.xyz)):
            world = geometry.apply(self.world_T_lidar(t), cloud.xyz)
        return SemanticCloud(world, cloud.probs, intensity=cloud.intensity,
                             frame_id="map", timestamp=t)

    def gt_map(self, worlds) -> VoxelMap:
        """Reference map: one-hot ground truth at the integrated points."""
        C = self.labelset.num_classes
        gt = VoxelMap(voxel_size=VOXEL_SIZE, num_classes=C, n_horizon=1)
        for i, world in enumerate(worlds):
            cls = self.item(i).gt_class
            one_hot = np.zeros((len(cls), C))
            one_hot[np.arange(len(cls)), cls] = 1.0
            gt.integrate_scan(SemanticCloud(world, one_hot), i)
        return gt


# ---------------------------------------------------------------------------
# checks and quality measures


def pack(keys: np.ndarray) -> np.ndarray:
    """(N, 3) integer voxel keys packed into one int64 each."""
    k = np.asarray(keys, dtype=np.int64) + (1 << 20)
    return (k[:, 0] << 42) | (k[:, 1] << 21) | k[:, 2]


def packed_keys(xyz: np.ndarray) -> np.ndarray:
    """Packed voxel keys of points, computed here independently of
    `semfuse.voxelmap`."""
    return pack(np.floor(np.asarray(xyz, dtype=np.float64) / VOXEL_SIZE))


def miou_present(result, reference: VoxelMap, labelset: LabelSet) -> float:
    """Mean IoU over the classes present in the reference map.

    `IoUResult.mean` also averages classes that were only ever predicted,
    e.g. through label flips; those score 0 and say nothing about the map.
    """
    present = reference.per_class_voxel_counts() > 0
    if labelset.unknown_index is not None:
        present[labelset.unknown_index] = False
    return float(np.mean(result.per_class[present]))


class LabelTally:
    """Pseudo-label cells compared with the ground-truth class of the scan
    point in the same cell of the scan's own range image."""

    def __init__(self):
        self.valid = 0
        self.labeled = 0
        self.correct = 0

    def add(self, classes: np.ndarray, scan_image, gt_class: np.ndarray) -> None:
        cell = scan_image.cell_index
        valid = cell >= 0
        both = valid & (classes != UNLABELED)
        self.valid += int(valid.sum())
        self.labeled += int(both.sum())
        self.correct += int((classes[both] == gt_class[cell[both]]).sum())

    def accuracy(self) -> float:
        return self.correct / max(self.labeled, 1)

    def fraction(self) -> float:
        return self.labeled / max(self.valid, 1)


def check_iou(ledger: Ledger, result, what: str) -> None:
    v = result.per_class[~np.isnan(result.per_class)]
    ledger.check(len(v) > 0 and np.all((v >= 0) & (v <= 1)),
                 f"{what}: IoU outside [0, 1] or empty")


def check_snapshot(ledger: Ledger, original: VoxelMap, loaded: VoxelMap) -> None:
    """save -> load keeps every key and each voxel's argmax. The snapshot
    stores float32 log-probabilities, so an argmax may only differ where the
    two leading classes are tied within float32 resolution."""
    keys = original.keys_array
    same = np.array_equal(np.sort(pack(keys)), np.sort(pack(loaded.keys_array)))
    if not ledger.check(same, "snapshot keys changed"):
        return
    p0 = original.distributions(np.arange(len(original)))
    p1 = loaded.distributions(loaded.rows_for_keys(keys))
    c0 = np.argmax(p0, axis=-1)
    c1 = np.argmax(p1, axis=-1)
    diff = np.nonzero(c0 != c1)[0]
    top = p0[diff, c0[diff]]
    tied = np.abs(top - p0[diff, c1[diff]]) <= 1e-6 * top
    ledger.check(np.all(tied), f"snapshot argmax changed on "
                 f"{int((~tied).sum())} voxels")


# ---------------------------------------------------------------------------
# workloads


def slices(res: Result, profile: Profile, tracer: Tracer, traced_run: bool,
           seconds: float, build, min_per_slice: int = 1):
    """Set up `setup_repeats` times from scratch, and after each set-up run
    an equal slice of the timed phase, at least `min_per_slice` iterations,
    on what it built; yields (state, iteration, traced).

    Spreading the timed iterations between set-ups samples the host over
    a longer stretch of wall time, which steadies the medians on hosts
    whose speed drifts for seconds at a time. A traced run alternates
    untraced and traced iterations; the difference is the tracing overhead.
    """
    k = 0
    for r in range(profile.setup_repeats):
        state = None
        gc.collect()
        if traced_run:
            tracer.activate(-1)
        t0 = time.perf_counter()
        try:
            state = build()
        finally:
            tracer.deactivate()
        res.setup_s.append(time.perf_counter() - t0)
        target = seconds * (r + 1) / profile.setup_repeats
        last = r == profile.setup_repeats - 1
        done = 0
        while (done < min_per_slice or sum(res.iter_busy) < target
               or (last and traced_run and k < 2)):
            yield state, k, traced_run and k % 2 == 1
            k += 1
            done += 1
            if res.iter_scans[-1] == 0:
                break  # an iteration that failed outright ends the slice


def _end_iteration(res: Result, busy: float, scans: int, traced: bool) -> None:
    res.iter_busy.append(busy)
    res.iter_scans.append(scans)
    res.iter_traced.append(traced)


def _load_spec(profile: Profile) -> dict:
    with open(profile.scene) as f:
        return json.load(f)


def online_mapping(profile: Profile, seed: int, seconds: float, tracer: Tracer,
                   traced_run: bool, ledger: Ledger, work: str) -> Result:
    """Robot-side path in memory: per scan fuse_cloud, pose lookup and
    transform to the map frame, integrate_scan. Each iteration is one drive
    on a fresh map, so every drive allocates the same voxels."""
    res = Result(ledger)
    spec = _load_spec(profile)
    labelset = LabelSet.default()
    C = labelset.num_classes

    def build():
        drive = Drive(spec, labelset, seed, profile.distinct_scans,
                      profile.drive_scans)
        warm = VoxelMap(voxel_size=VOXEL_SIZE, num_classes=C)
        warm.integrate_scan(drive.fuse_to_world(0, tracer), 0)
        return drive

    vmap, map_sizes = None, []
    points = touched = 0
    # two 17-scan drives per slice keep at least 100 latency samples, so
    # the tail stays p90 when the host runs slow
    for drive, k, traced in slices(res, profile, tracer, traced_run, seconds, build,
                                   min_per_slice=2):
        n = drive.n_scans
        vmap = None  # free the previous drive's map first
        vmap = VoxelMap(voxel_size=VOXEL_SIZE, num_classes=C)
        keys, busy, done = [], 0.0, 0
        for i in range(n):
            ledger.attempted += 1
            if traced:
                tracer.activate(k * n + i)
                res.traced_runs.append(k * n + i)
            t0 = time.perf_counter()
            try:
                with tracer.span("other.scan"):
                    cloud = drive.fuse_to_world(i, tracer)
                    vmap.integrate_scan(cloud, i)
                elapsed = time.perf_counter() - t0
            except Exception:
                busy += time.perf_counter() - t0
                ledger.op_failed(f"online_mapping scan {i}")
                continue
            finally:
                tracer.deactivate()
            busy += elapsed
            done += 1
            res.latency_ms.append(elapsed * 1e3)
            check_distributions(ledger, cloud.probs, f"fused scan {i}")
            pk = packed_keys(cloud.xyz)
            keys.append(pk)
            points += len(pk)
            touched += len(np.unique(pk))
        _end_iteration(res, busy, done, traced)
        if keys:
            distinct = len(np.unique(np.concatenate(keys)))
            ledger.check(len(vmap) == distinct,
                         f"map holds {len(vmap)} voxels, points span {distinct}")
        check_distributions(ledger, vmap.export_cloud().probs, "online map")
        map_sizes.append(len(vmap))
    ledger.check(len(set(map_sizes)) == 1, f"drives built maps of sizes {map_sizes}")
    res.points_per_touched_voxel = points / max(touched, 1)

    # quality of the last drive's map, untimed
    ledger.attempted += 1
    try:
        worlds = [geometry.apply(drive.world_T_lidar(i * drive.dt), drive.item(i).xyz)
                  for i in range(n)]
        gt = drive.gt_map(worlds)
        res.quality["miou"] = miou_present(
            evaluation.iou_map_vs_map(vmap, gt, labelset), gt, labelset)
        records = [drive.record(i) for i in range(max(n - profile.distinct_scans, 0), n)]
        _pseudolabel_quality(res, vmap, records, drive)
    except Exception:
        ledger.op_failed("online_mapping quality")
    return res


def _pseudolabel_quality(res: Result, vmap: VoxelMap, records: list,
                         drive: Drive) -> None:
    images = labelprop.generate_pseudolabels(
        vmap, records, drive.labelset, drive.model,
        policy=ScanWindowPolicy(WINDOW), threshold=THRESHOLD,
        provenance="fused_map")
    tally = LabelTally()
    for rec, img in zip(records, images):
        tally.add(img.classes, geometry.render_range_image(rec.xyz, drive.model),
                  drive.item(rec.scan_id).gt_class)
    res.quality["pseudolabel_accuracy"] = tally.accuracy()
    res.quality["labeled_fraction"] = tally.fraction()


def _same_quality(res: Result, ledger: Ledger, quality: dict) -> None:
    """Quality must not change between iterations of the same inputs."""
    if res.quality:
        ledger.check(res.quality == quality,
                     f"quality changed between iterations: {res.quality} -> {quality}")
    res.quality = quality


def offline_log(profile: Profile, seed: int, seconds: float, tracer: Tracer,
                traced_run: bool, ledger: Ledger, work: str) -> Result:
    """The file-based batch recipe on a synthesized log: run_fuse, run_map,
    run_eval of the map and of the clouds against the ground-truth map,
    run_pseudolabel. Each iteration is one pass into an empty output tree."""
    res = Result(ledger)
    log_dir = os.path.join(work, "log")
    cfg_path = os.path.join(log_dir, "config.json")
    gt_path = os.path.join(log_dir, "gt_map.svx")

    def build():
        shutil.rmtree(log_dir, ignore_errors=True)
        runner.generate_log(profile.scene, log_dir, seed=seed,
                            n_scans=profile.log_scans)
        return runner.RunConfig.load(cfg_path)

    out = os.path.join(work, "out")
    n = profile.log_scans
    for base, k, traced in slices(res, profile, tracer, traced_run, seconds, build):
        shutil.rmtree(out, ignore_errors=True)
        cfg = runner.RunConfig.load(cfg_path, output_dir=out)
        ledger.attempted += 1
        if traced:
            tracer.activate(k)
            res.traced_runs.append(k)
        t0 = time.perf_counter()
        try:
            with tracer.span("other.pass"):
                fused = runner.run_fuse(cfg)
                mapped = runner.run_map(cfg)
                map_iou = runner.run_eval(cfg, mapped["map"], gt_path)
                cloud_iou = runner.run_eval(cfg, fused["clouds_dir"], gt_path)
                labeled = runner.run_pseudolabel(cfg)
            busy = time.perf_counter() - t0
        except Exception:
            _end_iteration(res, time.perf_counter() - t0, 0, traced)
            ledger.op_failed(f"offline_log pass {k}")
            continue
        finally:
            tracer.deactivate()
        _end_iteration(res, busy, n, traced)
        res.latency_ms.append(busy * 1e3 / n)

        # reference data for the checks, loaded per pass so that nothing
        # large outlives the pass
        labelset = base.load_labelset()
        gt = VoxelMap.load(gt_path)
        model = fileio.load_calibration(base.calibration).lidar_model
        scans = [fileio.load_scan(p) for p in fileio.list_sorted(base.scans_dir, ".npz")]
        ledger.check(fused["clouds"] == n and fused["frames"] == n,
                     f"run_fuse wrote {fused['clouds']} clouds, {fused['frames']} frames")
        ledger.check(labeled["samples"] == n,
                     f"run_pseudolabel wrote {labeled['samples']} samples")
        keys, points, touched = [], 0, 0
        for p in fileio.list_sorted(fused["clouds_dir"], ".npz"):
            pk = packed_keys(fileio.load_semantic_cloud(p)[0].xyz)
            keys.append(pk)
            points += len(pk)
            touched += len(np.unique(pk))
        distinct = len(np.unique(np.concatenate(keys))) if keys else 0
        ledger.check(mapped["voxels"] == distinct,
                     f"map holds {mapped['voxels']} voxels, clouds span {distinct}")
        res.points_per_touched_voxel = points / max(touched, 1)
        snapshot = VoxelMap.load(mapped["map"])
        ledger.check(len(snapshot) == mapped["voxels"], "map snapshot size")
        check_distributions(ledger, snapshot.export_cloud().probs, "map snapshot")
        check_iou(ledger, map_iou, "map vs ground truth")
        check_iou(ledger, cloud_iou, "clouds vs ground truth")

        tally = LabelTally()
        H, W = model.height, model.width
        for scan in scans:
            img = geometry.render_range_image(scan["xyz"], model)
            sample = os.path.join(labeled["out_dir"], f"sample_{scan['scan_id']:04d}")
            channels, classes, _ = labelprop.load_training_pair(sample)
            ok = channels.shape[:2] == (H, W) and classes.shape == (H, W)
            if ledger.check(ok, f"{sample}: shape {channels.shape}, {classes.shape}"):
                ledger.check(np.array_equal(channels[..., 0],
                                            img.range.astype(np.float32)),
                             f"{sample}: range channel differs from the scan")
                tally.add(classes, img, scan["gt_class"])
        _same_quality(res, ledger, {
            "miou": miou_present(map_iou, gt, labelset),
            "pseudolabel_accuracy": tally.accuracy(),
            "labeled_fraction": tally.fraction()})
        gt = scans = snapshot = keys = None  # not kept through the next set-up
    return res


def map_readback(profile: Profile, seed: int, seconds: float, tracer: Tracer,
                 traced_run: bool, ledger: Ledger, work: str) -> Result:
    """Read paths of a large pre-built map: snapshot save and load, clouds
    vs map and map vs map IoU, pseudo-labels, range images and training
    pairs for every scan. No fusion and no integration in the timed part."""
    res = Result(ledger)
    spec = _load_spec(profile)
    labelset = LabelSet.default()
    C = labelset.num_classes

    def build():
        drive = Drive(spec, labelset, seed, profile.distinct_scans,
                      profile.readback_scans)
        pred = VoxelMap(voxel_size=VOXEL_SIZE, num_classes=C,
                        labelset_hash=labelset.config_hash())
        clouds = []
        for i in range(drive.n_scans):
            clouds.append(drive.fuse_to_world(i, tracer))
            pred.integrate_scan(clouds[-1], i)
        gt = drive.gt_map([c.xyz for c in clouds])
        records = [drive.record(i) for i in range(drive.n_scans)]
        pred.lookup_points(clouds[0].xyz)  # warm-up
        return drive, pred, gt, clouds, records

    snap = os.path.join(work, "map.svx")
    pairs = os.path.join(work, "pairs")
    for state, k, traced in slices(res, profile, tracer, traced_run, seconds, build):
        drive, pred, gt, clouds, records = state
        n = len(records)
        H, W = drive.model.height, drive.model.width
        ledger.attempted += 1
        if traced:
            tracer.activate(k)
            res.traced_runs.append(k)
        t0 = time.perf_counter()
        try:
            with tracer.span("other.pass"):
                pred.save(snap)
                loaded = VoxelMap.load(snap)
                cloud_iou = evaluation.iou_scan_vs_map(clouds, gt, labelset)
                map_iou = evaluation.iou_map_vs_map(loaded, gt, labelset)
                images = labelprop.generate_pseudolabels(
                    loaded, records, labelset, drive.model,
                    policy=ScanWindowPolicy(WINDOW), threshold=THRESHOLD,
                    provenance="fused_map")
                scan_images = []
                for rec, img in zip(records, images):
                    scan_images.append(geometry.render_range_image(rec.xyz, drive.model))
                    labelprop.export_training_pair(
                        scan_images[-1], img,
                        os.path.join(pairs, f"sample_{rec.scan_id:04d}"), labelset)
            busy = time.perf_counter() - t0
        except Exception:
            _end_iteration(res, time.perf_counter() - t0, 0, traced)
            ledger.op_failed(f"map_readback pass {k}")
            continue
        finally:
            tracer.deactivate()
        _end_iteration(res, busy, n, traced)
        res.latency_ms.append(busy * 1e3 / n)

        check_snapshot(ledger, pred, loaded)
        check_distributions(ledger, loaded.distributions(np.arange(len(loaded))),
                            "reloaded map")
        check_iou(ledger, cloud_iou, "clouds vs ground truth")
        check_iou(ledger, map_iou, "map vs ground truth")
        ledger.check(len(images) == n, f"{len(images)} pseudo-label images for {n} scans")
        tally = LabelTally()
        for rec, img, scan_img in zip(records, images, scan_images):
            sample = os.path.join(pairs, f"sample_{rec.scan_id:04d}")
            channels, classes, _ = labelprop.load_training_pair(sample)
            ok = channels.shape[:2] == (H, W) and np.array_equal(classes, img.classes)
            ledger.check(ok, f"{sample}: training pair does not reload")
            tally.add(img.classes, scan_img, drive.item(rec.scan_id).gt_class)
        _same_quality(res, ledger, {
            "miou": miou_present(map_iou, gt, labelset),
            "pseudolabel_accuracy": tally.accuracy(),
            "labeled_fraction": tally.fraction()})
        loaded = images = scan_images = None  # not kept through the next set-up
    return res


FUNCS = {"online_mapping": online_mapping, "offline_log": offline_log,
         "map_readback": map_readback}


# ---------------------------------------------------------------------------
# tracing and metrics


def install_wrappers(tracer: Tracer) -> None:
    """Register span wrappers on the attributes through which the benchmark,
    `runner`, `fusion`, `labelprop` and `voxelmap` reach each layer."""
    def points(a, kw, r):
        return {"n": len(a[0])}

    def result_points(a, kw, r):
        return {"n": len(r)}

    def file_bytes(a, kw, r):
        return {"bytes": os.path.getsize(a[0])}

    def cloud_points(a, kw, r):
        clouds = a[0] if isinstance(a[0], (list, tuple)) else [a[0]]
        return {"n": sum(len(c) for c in clouds)}

    def pseudolabels(a, kw, r):
        return {"scans": len(r), "labeled": sum(int(i.labeled.sum()) for i in r),
                "cells": sum(i.classes.size for i in r)}

    for mod in (fusion, runner):
        tracer.patch(mod, "fuse_cloud", "fusion.fuse_cloud", after=lambda a, kw, r: {
            "n": len(a[0]), "dets": sum(len(v.detections) for v in a[3])})
        tracer.patch(mod, "smooth_and_fuse_image", "fusion.smooth_and_fuse_image")
    for mod in (labelprop, runner):
        tracer.patch(mod, "generate_pseudolabels", "labelprop.generate_pseudolabels",
                     after=pseudolabels)
        tracer.patch(mod, "export_training_pair", "labelprop.export_training_pair")
    for mod in (geometry, labelprop, runner):
        tracer.patch(mod, "render_range_image", "geometry.render_range_image",
                     after=points)
    tracer.patch(labelprop.ScanRecord, "world_xyz", "geometry.to_world",
                 after=result_points)
    tracer.patch(runner, "apply", "geometry.to_world", after=result_points)
    for mod in (evaluation, runner):
        tracer.patch(mod, "iou_map_vs_map", "evaluation.iou_map_vs_map")
        tracer.patch(mod, "iou_scan_vs_map", "evaluation.iou_scan_vs_map",
                     after=cloud_points)
    for mod in (synth, runner):
        for name in ("simulate_scan", "simulate_segmentation"):
            tracer.patch(mod, name, f"synth.{name}")
    for name in ("bayes_fuse", "log_normalize"):
        tracer.patch(labels, name, f"labels.{name}")
    for name in FILEIO_CALLS:
        tracer.patch(fileio, name, f"fileio.{name}", after=file_bytes)
    for name in RUNNER_STAGES:
        tracer.patch(runner, name, f"runner.{name}")
    vm = voxelmap.VoxelMap
    tracer.patch(vm, "integrate_scan", "voxelmap.integrate_scan",
                 before=lambda a, kw: {"before": len(a[0])},
                 after=lambda a, kw, r: {"n": len(a[1].xyz), "voxels": len(a[0])})
    tracer.patch(vm, "lookup_points", "voxelmap.lookup_points",
                 after=lambda a, kw, r: {"n": len(a[1]), "hits": int(r[1].sum())})
    tracer.patch(vm, "export_cloud", "voxelmap.export_cloud")
    tracer.patch(vm, "save", "voxelmap.save",
                 after=lambda a, kw, r: {"bytes": os.path.getsize(a[1])})
    tracer.patch(vm, "load", "voxelmap.load", classmethod_=True,
                 after=lambda a, kw, r: {"voxels": len(r)})


def end_to_end_metrics(res: Result) -> tuple[dict, dict]:
    """(metric -> value, metric -> note) of an untraced run."""
    lat = res.latency_ms
    p, tail_ms = tail(lat) if lat else (0.0, 0.0)
    values = {
        "setup_s": median(res.setup_s),
        "scans_per_s": res.rate(),
        "scan_ms_p50": median(lat) if lat else 0.0,
        "scan_ms_tail": tail_ms,
        "miou": res.quality.get("miou", 0.0),
        "pseudolabel_accuracy": res.quality.get("pseudolabel_accuracy", 0.0),
        "labeled_fraction": res.quality.get("labeled_fraction", 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setup_s": f"median of {len(res.setup_s)} set-ups",
             "scans_per_s": f"{sum(res.iter_scans)} scans in {sum(res.iter_busy):.2f} s "
                            f"over {len(res.iter_busy)} iterations",
             "scan_ms_p50": f"n={len(lat)}",
             "scan_ms_tail": f"p{p:g}, n={len(lat)}"}
    return values, notes


def per_layer_metrics(res: Result, tracer: Tracer) -> dict:
    runs = res.traced_runs
    n_iter = max(res.iter_traced.count(True), 1)
    spans: dict[str, list] = {}
    for s in tracer.closed(runs):
        spans.setdefault(s[0], []).append(s)
    setup_spans: dict[str, list] = {}
    for s in tracer.closed([-1]):
        setup_spans.setdefault(s[0], []).append(s)

    def ms(name, src=spans):
        return [1e3 * (s[2] - s[1]) for s in src.get(name, [])]

    def p50(name, src=spans):
        d = ms(name, src)
        return median(d) if d else 0.0

    def count(name, key):
        return sum(s[5].get(key, 0) for s in spans.get(name, []))

    def per_second(name, key="n"):
        busy = sum(ms(name)) / 1e3
        return count(name, key) / busy if busy > 0 else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    integ = spans.get("voxelmap.integrate_scan", [])
    voxels = [s[5]["voxels"] for s in integ + spans.get("voxelmap.load", [])]
    out = {
        "fusion.fuse_cloud.ms_p50": p50("fusion.fuse_cloud"),
        "fusion.fuse_cloud.points_per_s": per_second("fusion.fuse_cloud"),
        "fusion.smooth_and_fuse_image.ms_p50": p50("fusion.smooth_and_fuse_image"),
        "fusion.detections_per_frame": ratio(count("fusion.fuse_cloud", "dets"),
                                             len(spans.get("fusion.fuse_cloud", []))),
        "labels.bayes_fuse.ms_total": sum(ms("labels.bayes_fuse")) / n_iter,
        "labels.log_normalize.ms_total": sum(ms("labels.log_normalize")) / n_iter,
        "voxelmap.integrate_scan.ms_p50": p50("voxelmap.integrate_scan"),
        "voxelmap.integrate_scan.ms_tail":
            tail(ms("voxelmap.integrate_scan"))[1] if integ else 0.0,
        "voxelmap.integrate_scan.points_per_s": per_second("voxelmap.integrate_scan"),
        "voxelmap.new_voxels_per_scan": ratio(
            sum(s[5]["voxels"] - s[5]["before"] for s in integ), len(integ)),
        "voxelmap.voxels": max(voxels, default=0),
        "voxelmap.points_per_touched_voxel": res.points_per_touched_voxel,
        "voxelmap.lookup_points.points_per_s": per_second("voxelmap.lookup_points"),
        "voxelmap.lookup_points.hit_ratio": ratio(count("voxelmap.lookup_points", "hits"),
                                                  count("voxelmap.lookup_points", "n")),
        "voxelmap.export_cloud.ms": p50("voxelmap.export_cloud"),
        "voxelmap.save.ms": p50("voxelmap.save"),
        "voxelmap.load.ms": p50("voxelmap.load"),
        "voxelmap.snapshot_bytes": max((s[5]["bytes"] for s in
                                        spans.get("voxelmap.save", [])), default=0),
        "labelprop.generate_pseudolabels.ms_per_scan": ratio(
            sum(ms("labelprop.generate_pseudolabels")),
            count("labelprop.generate_pseudolabels", "scans")),
        "labelprop.export_training_pair.ms_p50": p50("labelprop.export_training_pair"),
        "labelprop.labeled_ratio": ratio(count("labelprop.generate_pseudolabels", "labeled"),
                                         count("labelprop.generate_pseudolabels", "cells")),
        "geometry.render_range_image.ms_p50": p50("geometry.render_range_image"),
        "geometry.to_world.ms_p50": p50("geometry.to_world"),
        "evaluation.iou_map_vs_map.ms": p50("evaluation.iou_map_vs_map"),
        "evaluation.iou_scan_vs_map.points_per_s": per_second("evaluation.iou_scan_vs_map"),
        "fileio.bytes_written": sum(count(f"fileio.{c}", "bytes") for c in FILEIO_CALLS
                                    if c.startswith("save")) / n_iter,
        "fileio.bytes_read": sum(count(f"fileio.{c}", "bytes") for c in FILEIO_CALLS
                                 if c.startswith("load")) / n_iter,
        "synth.simulate_scan.ms_p50": p50("synth.simulate_scan", setup_spans),
        "synth.simulate_segmentation.ms_p50": p50("synth.simulate_segmentation", setup_spans),
    }
    for c in FILEIO_CALLS:
        out[f"fileio.{c}.ms_p50"] = p50(f"fileio.{c}")
    for s in RUNNER_STAGES:
        out[f"runner.{s}.s"] = sum(ms(f"runner.{s}")) / 1e3 / n_iter
    traced_busy = sum(b for b, t in zip(res.iter_busy, res.iter_traced) if t)
    own = tracer.self_seconds(runs)
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * ratio(own.get(layer, 0.0), traced_busy)
    untraced, traced = res.rate(False), res.rate(True)
    out["trace.scans_per_s_untraced"] = untraced
    out["trace.scans_per_s_traced"] = traced
    out["trace.overhead_pct"] = 100.0 * (ratio(untraced, traced) - 1.0) if traced else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        profile: Profile = DEFAULT, work: str | None = None,
        trace_dir: str | None = None) -> dict:
    """Run one workload; returns the result object printed as the last
    line, plus a "notes" entry and the ledger's error rate."""
    ledger = Ledger()
    tracer = Tracer()
    if trace:
        install_wrappers(tracer)
    work = work or os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        res = FUNCS[workload](profile, seed, seconds, tracer, trace, ledger, work)
    finally:
        tracer.deactivate()
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        values, notes = per_layer_metrics(res, tracer), {}
        units = PER_LAYER
        trace_dir = trace_dir or os.path.join(HERE, "out")
        os.makedirs(trace_dir, exist_ok=True)
        tracer.dump(os.path.join(trace_dir, f"trace-{workload}-seed{seed}.jsonl"))
    else:
        values, notes = end_to_end_metrics(res)
        units = END_TO_END
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
        "notes": notes,
        "error_rate": ledger.error_rate(),
    }
