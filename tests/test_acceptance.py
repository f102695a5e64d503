"""End-to-end acceptance suite.

Each test exercises one system-level guarantee: log-space fusion correctness
against extended-precision oracles, numerical stability, geometric round
trips, clustering behavior, temporal smoothing, end-to-end exactness on
zero-noise synthetic logs, accuracy gains from fusion, pseudo-label coverage,
evaluation arithmetic, and throughput.
"""

import os

import numpy as np
import pytest

from semfuse import runner
from semfuse import fileio
from semfuse.evaluation import (CameraFrustum, ConfusionAccumulator,
                                accumulate_scan_vs_map)
from semfuse.fusion import (CameraView, SemanticCloud, class_alphas,
                            cluster_bbox_points, cluster_tolerance, fuse_cloud,
                            smooth_and_fuse_image)
from semfuse.geometry import (Pose, SphericalModel, Trajectory, apply, invert,
                              project_pinhole, project_spherical,
                              unproject_spherical)
from semfuse.labels import LabelSet, softmax
from semfuse.labelprop import (ScanWindowPolicy, generate_pseudolabels,
                               single_overlay_pseudolabels)
from semfuse.runner import RunConfig
from semfuse.synth import (NoiseSpec, forward_camera_extrinsic, load_scene,
                           simulate_detections, simulate_scan,
                           simulate_segmentation)
from semfuse.voxelmap import VoxelMap
from tests.conftest import finite_distributions, scene_path

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def static_traj(xyz=(0, 0, 0)):
    p = np.asarray(xyz, float)
    return Trajectory([Pose(0.0, p, IDENTITY_Q), Pose(100.0, p, IDENTITY_Q)])


# ---------------------------------------------------------------------------
# 1. Voxel fusion matches an extended-precision probability-space oracle


def test_log_space_fusion_matches_extended_precision_oracle():
    rng = np.random.default_rng(0)
    C, n_seq, max_len = 15, 1000, 50
    lengths = rng.integers(1, max_len + 1, size=n_seq)
    seqs = [rng.dirichlet(np.ones(C) * 0.4, size=l) for l in lengths]

    vm = VoxelMap(voxel_size=1.0, num_classes=C, n_horizon=3)
    xyz = np.stack([np.arange(n_seq) + 0.5,
                    np.full(n_seq, 0.5), np.full(n_seq, 0.5)], axis=1)
    for j in range(max_len):
        active = lengths > j
        probs = np.stack([seqs[i][j] for i in np.nonzero(active)[0]])
        vm.integrate_scan(SemanticCloud(xyz[active], probs), j)

    oracle = np.ones((n_seq, C), dtype=np.longdouble)
    for i, seq in enumerate(seqs):
        for p in seq:
            oracle[i] *= p.astype(np.longdouble)
            oracle[i] /= oracle[i].sum()

    rows = vm.rows_for_keys(np.stack([np.arange(n_seq),
                                      np.zeros(n_seq, np.int64),
                                      np.zeros(n_seq, np.int64)], axis=1))
    assert (rows >= 0).all()
    fused = vm.distributions(rows)
    err = np.abs(fused - oracle.astype(np.float64)).max()
    assert err < 1e-6
    print(f"PASS oracle equivalence: 1000 sequences, max error {err:.2e}")


# ---------------------------------------------------------------------------
# 2. Log-space state stays normalized where naive products underflow


def test_stability_under_alternating_near_one_hot_updates(tmp_path):
    C = 15
    vm = VoxelMap(num_classes=C, n_horizon=2)
    a = np.full(C, 0.001 / (C - 1))
    a[0] = 0.999
    b = np.full(C, 0.001 / (C - 1))
    b[1] = 0.999
    naive = np.ones(C, dtype=np.float32)
    for k in range(10_000):
        p = a if k % 2 == 0 else b
        vm.integrate_scan(SemanticCloud(np.array([[0.1, 0.1, 0.1]]),
                                        p[None, :]), k)
        naive *= p.astype(np.float32)  # deliberately no renormalization
    # the 32-bit probability-space product has lost normalization entirely
    assert float(naive.sum()) == 0.0
    q = vm.distributions(vm.rows_for_keys(np.zeros((1, 3), dtype=np.int64)))[0]
    assert np.all(np.isfinite(q))
    assert abs(q.sum() - 1.0) < 1e-6
    fin = finite_distributions(vm, np.zeros((1, 3), dtype=np.int64),
                               tmp_path / "map.svx")[0]
    assert np.all(np.isfinite(fin))
    assert abs(fin.sum() - 1.0) < 1e-6
    print("PASS stability: 10^4 near-one-hot updates stay normalized; "
          "naive float32 product collapses to 0")


# ---------------------------------------------------------------------------
# 3. Adaptive cluster tolerance and detection clustering on person_wall


def _person_wall_setup():
    labelset = LabelSet.default()
    scene, spec = load_scene(scene_path("person_wall"), labelset)
    lid = spec["sensors"]["lidar"]
    model = SphericalModel(width=lid["w"], height=lid["h"],
                           f_up=np.deg2rad(lid["f_up_deg"]),
                           f_down=np.deg2rad(lid["f_down_deg"]),
                           r_max=lid["r_max_m"])
    camc = spec["sensors"]["camera"]
    from semfuse.geometry import CameraModel
    cam = CameraModel(fx=camc["fx"], fy=camc["fy"], cx=camc["cx"],
                      cy=camc["cy"], width=camc["width"], height=camc["height"],
                      T_cam_base=forward_camera_extrinsic())
    pose = Pose(0.0, np.array([0.0, 0.0, 1.5]), IDENTITY_Q)
    pose_cam = Pose.from_matrix(pose.matrix() @ invert(cam.T_cam_base), 0.0)
    return labelset, scene, model, cam, pose, pose_cam


def test_cluster_tolerance_value_and_person_wall_clustering():
    tol = cluster_tolerance(10.0, SphericalModel(width=1024, height=128),
                            s=1.5)
    assert tol == pytest.approx(0.18408, abs=1e-5)

    labelset, scene, model, cam, pose, pose_cam = _person_wall_setup()
    person = labelset.index("person")
    building = labelset.index("building")
    img, gt_grid = simulate_scan(scene, pose, model, NoiseSpec(), pose.t,
                                 np.random.default_rng(0))
    valid = img.valid
    xyz = img.xyz[valid]
    gt = gt_grid[valid]
    frame, _ = simulate_segmentation(scene, pose_cam, cam, NoiseSpec(), pose_cam.t,
                                     np.random.default_rng(0))
    dets = simulate_detections(scene, pose_cam, cam, NoiseSpec(), pose_cam.t,
                               np.random.default_rng(0))
    assert len(dets) == 1 and dets[0].class_index == person
    det = dets[0]

    # points inside the detection bbox, in the camera frame
    world = apply(pose.matrix(), xyz)
    local = apply(invert(pose_cam.matrix()), world)
    u, v, front = project_pinhole(local, cam)
    in_box = front & (u >= det.bbox[0]) & (u <= det.bbox[2]) \
        & (v >= det.bbox[1]) & (v <= det.bbox[3])
    member, d_seed, _ = cluster_bbox_points(local[in_box],
                                            local[in_box, 2], model)
    gt_box = gt[in_box]
    # the grown cluster is exactly the person surface: every person point
    # inside the bbox joins, no wall point behind it does
    assert member[gt_box == person].all()
    assert not member[gt_box == building].any()

    # after fusion, wall labels are untouched by the detection
    C = labelset.num_classes
    scores = np.zeros((len(gt), C))
    scores[np.arange(len(gt)), gt] = 8.0
    lidar_probs = softmax(scores)
    traj = Trajectory([Pose(0.0, pose.translation, IDENTITY_Q),
                       Pose(10.0, pose.translation, IDENTITY_Q)])
    with_det = fuse_cloud(xyz, 0.0, lidar_probs,
                          [CameraView(cam, frame, [det])], traj, np.eye(4),
                          model, C)
    without = fuse_cloud(xyz, 0.0, lidar_probs,
                         [CameraView(cam, frame)], traj, np.eye(4), model, C)
    lw = np.argmax(with_det.probs, axis=-1)
    lo = np.argmax(without.probs, axis=-1)
    wall = gt == building
    np.testing.assert_array_equal(lw[wall], lo[wall])
    assert (lw[gt == person] == person).all()
    print(f"PASS clustering: tolerance {tol:.5f} m, pure person cluster "
          f"(seed depth {d_seed:.2f} m), wall labels unchanged")


# ---------------------------------------------------------------------------
# 4. Temporal smoothing: noise suppression and bounded lag


def test_smoothing_halves_label_flips_on_static_sequence():
    labelset, scene, model, cam, pose, pose_cam = _person_wall_setup()
    C = labelset.num_classes
    rng = np.random.default_rng(11)
    noise = NoiseSpec(label_flip_rate=0.20)
    frames = [simulate_segmentation(scene, pose_cam, cam, noise, 0.0, rng)[0]
              for _ in range(8)]
    alphas = np.full(C, 0.25)
    smoothed = []
    prev = None
    for f in frames:
        prev = smooth_and_fuse_image(f, prev, np.eye(4), cam, [], alphas)
        smoothed.append(prev)

    def flips(seq):
        labels = [np.argmax(f.probs, axis=-1) for f in seq]
        return sum(int((a != b).sum()) for a, b in zip(labels, labels[1:]))

    raw, smooth = flips(frames), flips(smoothed)
    assert smooth <= 0.5 * raw
    print(f"PASS smoothing stability: {raw} raw flips -> {smooth} smoothed "
          f"({100 * (1 - smooth / raw):.0f}% reduction)")


def test_smoothing_moving_person_lags_at_most_one_frame():
    labelset = LabelSet.default()
    scene, spec = load_scene(scene_path("walking_person"), labelset)
    camc = spec["sensors"]["camera"]
    from semfuse.geometry import CameraModel
    cam = CameraModel(fx=camc["fx"], fy=camc["fy"], cx=camc["cx"],
                      cy=camc["cy"], width=camc["width"],
                      height=camc["height"],
                      T_cam_base=forward_camera_extrinsic())
    pose = Pose(0.0, np.array([0.0, 0.0, 1.5]), IDENTITY_Q)
    pose_cam = Pose.from_matrix(pose.matrix() @ invert(cam.T_cam_base), 0.0)
    person = labelset.index("person")
    alphas = class_alphas(labelset)  # 0.80 dynamic, 0.25 static

    frames, gt_masks = [], []
    for k in range(10):
        t = 0.5 * k
        frame, gt = simulate_segmentation(scene, pose_cam, cam, NoiseSpec(), t,
                                          np.random.default_rng(0))
        frames.append(frame)
        gt_masks.append(gt == person)

    prev = None
    checked = 0
    for k, frame in enumerate(frames):
        prev = smooth_and_fuse_image(frame, prev, np.eye(4), cam, [], alphas)
        fused_person = np.argmax(prev.probs, axis=-1) == person
        allowed = gt_masks[k] if k == 0 else gt_masks[k] | gt_masks[k - 1]
        assert not np.any(fused_person & ~allowed), f"lag > 1 frame at k={k}"
        if fused_person.any():
            checked += 1
    assert checked >= 8  # the person was visible and labeled throughout
    print(f"PASS smoothing lag: fused person region within the last two "
          f"ground-truth masks for all {len(frames)} frames")


# ---------------------------------------------------------------------------
# 5. Zero-noise end-to-end run reproduces the reference map exactly


def test_end_to_end_exactness_campus_block(tmp_path):
    out = str(tmp_path / "log")
    runner.generate_log(scene_path("campus_block"), out, seed=0)
    cfg = RunConfig.load(os.path.join(out, "config.json"),
                         output_dir=str(tmp_path / "out"))
    runner.run_fuse(cfg)
    info = runner.run_map(cfg)
    result = runner.run_eval(cfg, info["map"], os.path.join(out, "gt_map.svx"))
    observed = ~np.isnan(result.per_class)
    assert observed.sum() >= 5  # road, sidewalk, building, vegetation, ...
    assert (result.per_class[observed] == 1.0).all()
    assert result.mean() == 1.0
    names = [n for n, o in zip(result.labelset.names, observed) if o]
    print(f"PASS end-to-end exactness: 100% IoU for {names}")


# ---------------------------------------------------------------------------
# 6. Camera fusion lifts accuracy over noisy LiDAR alone


def test_fusion_beats_lidar_only_by_ten_points(tmp_path):
    lidar_noise = NoiseSpec(label_flip_rate=0.30, score_temperature=3.0)
    camera_noise = NoiseSpec(label_flip_rate=0.05, score_temperature=7.0)
    gaps = []
    for seed in range(1, 6):
        out = str(tmp_path / f"log{seed}")
        runner.generate_log(scene_path("campus_block"), out, seed=seed,
                            lidar_noise=lidar_noise, camera_noise=camera_noise)
        cfg = RunConfig.load(os.path.join(out, "config.json"),
                             output_dir=str(tmp_path / f"out{seed}"))
        runner.run_fuse(cfg)
        labelset, calib, traj = runner._load_log(cfg)
        ref = VoxelMap.load(os.path.join(out, "gt_map.svx"))

        def mean_iou(clouds):
            acc = ConfusionAccumulator(ref.num_classes)
            for cloud in clouds:
                pose_cam = Pose.from_matrix(
                    traj.interpolate(cloud.timestamp).matrix()
                    @ invert(calib.camera.T_cam_base), cloud.timestamp)
                accumulate_scan_vs_map(acc, cloud, ref, labelset,
                                       CameraFrustum(calib.camera, pose_cam))
            iou = acc.iou()
            return float(np.nanmean(iou))

        fused_clouds = []
        for path in fileio.list_sorted(
                os.path.join(cfg.output_dir, "clouds"), ".npz"):
            cloud, _ = fileio.load_semantic_cloud(path)
            fused_clouds.append(cloud)

        lidar_clouds = []
        for path in fileio.list_sorted(cfg.scans_dir, ".npz"):
            scan = fileio.load_scan(path)
            world = apply(traj.interpolate(scan["t"]).matrix()
                          @ calib.T_base_lidar, scan["xyz"]
                          ).astype(np.float32).astype(np.float64)
            lidar_clouds.append(SemanticCloud(world, scan["lidar_probs"],
                                              timestamp=scan["t"]))

        gaps.append(mean_iou(fused_clouds) - mean_iou(lidar_clouds))
    assert min(gaps) >= 0.10, gaps
    print("PASS fusion gain: mean-IoU gap over LiDAR-only per seed = "
          + ", ".join(f"{100 * g:.1f}pp" for g in gaps))


# ---------------------------------------------------------------------------
# 7. Map-aggregated pseudo-labels out-cover single overlays; dynamic window


def test_pseudolabel_coverage_and_dynamic_window(tmp_path):
    out = str(tmp_path / "log")
    runner.generate_log(scene_path("walking_person"), out, seed=0)
    cfg = RunConfig.load(os.path.join(out, "config.json"),
                         output_dir=str(tmp_path / "out"), camera_only=True)
    runner.run_fuse(cfg)
    info = runner.run_map(cfg)
    vmap = VoxelMap.load(info["map"])
    labelset, calib, traj = runner._load_log(cfg)
    records = runner.load_scan_records(cfg, labelset, calib, traj)
    images = generate_pseudolabels(vmap, records, labelset, calib.lidar_model)
    static = [i for i in range(labelset.num_classes)
              if i not in labelset.dynamic_indices]
    person = labelset.index("person")

    ratios = []
    for rec, img in zip(records, images):
        cloud, _ = fileio.load_semantic_cloud(os.path.join(
            cfg.output_dir, "clouds", f"scan_{rec.scan_id:04d}.npz"))
        local = apply(invert(rec.pose.matrix()), cloud.xyz)
        overlay = single_overlay_pseudolabels(
            SemanticCloud(local, cloud.probs), rec.pose, calib.lidar_model)
        map_frac = img.labeled_fraction(static)
        overlay_frac = overlay.labeled_fraction(static)
        assert overlay_frac > 0
        ratios.append(map_frac / overlay_frac)
    assert min(ratios) >= 2.0, ratios

    # the person is actually labeled somewhere
    total_person = sum(int((img.classes == person).sum()) for img in images)
    assert total_person > 0

    # dynamic points obey the +/-2 scan window exactly: restricting the input
    # scans to the window changes nothing for the target scan
    for k in (2, 5, 9):
        window = [r for r in records if abs(r.scan_id - k) <= 2]
        truncated = generate_pseudolabels(vmap, window, labelset,
                                          calib.lidar_model,
                                          policy=ScanWindowPolicy(2))
        match = [img for img in truncated if img.scan_id == k]
        np.testing.assert_array_equal(images[k].classes, match[0].classes)
    print(f"PASS pseudo-label coverage: map/overlay ratio "
          f"min {min(ratios):.2f}x, {total_person} dynamic cells, "
          f"window exact")


# ---------------------------------------------------------------------------
# 8. Spherical projection round trip


def test_spherical_projection_round_trip():
    model = SphericalModel(width=1024, height=128)  # symmetric 90 degree FoV
    rng = np.random.default_rng(8)
    n = 100_000
    yaw = rng.uniform(-np.pi, np.pi, n)
    pitch = rng.uniform(-model.f_down + 1e-3, model.f_up - 1e-3, n)
    r = rng.uniform(0.5, model.r_max - 1e-6, n)
    pts = np.stack([r * np.cos(pitch) * np.cos(yaw),
                    r * np.cos(pitch) * np.sin(yaw),
                    r * np.sin(pitch)], axis=1)
    u, v, rr, valid = project_spherical(pts, model)
    assert valid.all()
    back = unproject_spherical(u, v, rr, model)
    rel = np.linalg.norm(back - pts, axis=1) / np.linalg.norm(pts, axis=1)
    assert rel.max() < 1e-6

    u0, v0, _, ok = project_spherical(np.array([[5.0, 0.0, 0.0]]), model)
    assert ok[0] and u0[0] == model.width / 2 and v0[0] == model.height / 2
    print(f"PASS projection round trip: 1e5 points, max relative error "
          f"{rel.max():.2e}; forward axis at exact image center")


# ---------------------------------------------------------------------------
# 9. Evaluation arithmetic and parallel merge


def test_confusion_arithmetic_and_merge_exactness():
    # class 0: TP=3, FP=1, FN=2  -> IoU = 3/6
    # class 1: TP=2, FP=3, FN=1  -> IoU = 2/6
    pred = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    ref = np.array([0, 0, 0, 1, 1, 1, 0, 0, 2])
    acc = ConfusionAccumulator(3)
    acc.add(pred, ref)
    assert acc.iou()[0] == 3 / 6
    assert acc.iou()[1] == 2 / 6
    assert acc.iou()[2] == 0.0  # FN only

    rng = np.random.default_rng(9)
    p = rng.integers(0, 5, 4000)
    r = rng.integers(0, 5, 4000)
    single = ConfusionAccumulator(5)
    single.add(p, r)
    chunked = ConfusionAccumulator(5)
    for chunk in range(4):
        chunked.add(p[chunk::4], r[chunk::4])
    np.testing.assert_array_equal(chunked.tp, single.tp)
    np.testing.assert_array_equal(chunked.fp, single.fp)
    np.testing.assert_array_equal(chunked.fn, single.fn)
    np.testing.assert_array_equal(chunked.iou(), single.iou())
    print("PASS evaluation: hand-counted IoU exact, chunked accumulation identical")


# ---------------------------------------------------------------------------
# 10. Throughput


def test_scan_pipeline_under_100ms_median():
    out = runner.run_bench(seed=0, repeats=7)
    p50 = out["scan_pipeline"]["p50_ms"]
    assert p50 < 100.0, out["scan_pipeline"]
    print(f"PASS throughput: 128x1024-point scan fused + integrated in "
          f"{p50:.1f} ms median")
