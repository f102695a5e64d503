import warnings

import numpy as np
import pytest

from semfuse.fusion import SemanticCloud
from semfuse.geometry import (Pose, SphericalModel, apply, invert,
                              render_range_image)
from semfuse.labelprop import (UNLABELED, PseudoLabelImage, ScanRecord,
                               ScanWindowPolicy, export_training_pair,
                               generate_pseudolabels, ground_plane_correction,
                               load_training_pair, single_overlay_pseudolabels)
from semfuse.labels import InvalidInputError
from semfuse.voxelmap import VoxelMap
from tests.conftest import parent_export, parent_lookup

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def pose_at(t=0.0, xyz=(0, 0, 0)):
    return Pose(t, np.asarray(xyz, float), IDENTITY_Q)


def one_hot(i, C, p=0.95):
    out = np.full(C, (1 - p) / (C - 1))
    out[i] = p
    return out


def ring_points(radius=5.0, n=64, z=0.0):
    ang = np.linspace(-np.pi, np.pi, n, endpoint=False)
    return np.stack([radius * np.cos(ang), radius * np.sin(ang),
                     np.full(n, z)], axis=1)


# --- gating -----------------------------------------------------------------


def test_threshold_gates_low_confidence(labelset):
    C = labelset.num_classes
    model = SphericalModel(width=64, height=8)
    pts = ring_points()
    confident = np.tile(one_hot(3, C, 0.95), (len(pts) // 2, 1))
    vague = np.tile(one_hot(3, C, 0.5), (len(pts) - len(pts) // 2, 1))
    cloud = SemanticCloud(pts, np.concatenate([confident, vague]))
    img = single_overlay_pseudolabels(cloud, pose_at(), model, threshold=0.8)
    labeled = img.labeled
    assert labeled.any()
    assert (img.classes[labeled] == 3).all()
    assert (img.confidence[labeled] >= 0.8).all()
    assert (img.confidence[~labeled] == 0.0).all()
    # roughly half the rendered cells were gated out
    full = single_overlay_pseudolabels(cloud, pose_at(), model, threshold=0.0)
    assert labeled.sum() < full.labeled.sum()


def test_threshold_monotone(labelset):
    C = labelset.num_classes
    model = SphericalModel(width=64, height=8)
    pts = ring_points()
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(C) * 0.3, size=len(pts))
    cloud = SemanticCloud(pts, probs)
    fracs = [single_overlay_pseudolabels(cloud, pose_at(), model,
                                         threshold=t).labeled_fraction()
             for t in (0.0, 0.4, 0.8)]
    assert fracs[0] >= fracs[1] >= fracs[2]


def test_unlabeled_sentinel_and_fraction(labelset):
    model = SphericalModel(width=16, height=4)
    cloud = SemanticCloud(np.zeros((0, 3)), np.zeros((0, labelset.num_classes)))
    img = single_overlay_pseudolabels(cloud, pose_at(), model)
    assert (img.classes == UNLABELED).all()
    assert img.labeled_fraction() == 0.0


# --- map-based generation ---------------------------------------------------


def test_empty_map_warns_and_yields_unlabeled(labelset):
    model = SphericalModel(width=16, height=4)
    vm = VoxelMap(num_classes=labelset.num_classes)
    scans = [ScanRecord(ring_points(), pose_at(), 0)]
    with pytest.warns(UserWarning):
        out = generate_pseudolabels(vm, scans, labelset, model)
    assert len(out) == 1
    assert out[0].labeled_fraction() == 0.0


def test_rejects_unknown_provenance(labelset):
    vm = VoxelMap(num_classes=labelset.num_classes)
    # a single overlay is made from one scan, never rendered from a map
    for provenance in ("magic", "single_overlay"):
        with pytest.raises(InvalidInputError, match=provenance):
            generate_pseudolabels(vm, [], labelset, SphericalModel(),
                                  provenance=provenance)


def test_window_policy_validation():
    with pytest.raises(InvalidInputError):
        ScanWindowPolicy(window=-1)


def static_map_and_scans(labelset, n_scans=6):
    """A map with a confident static ring (class 'building') observed by
    every scan, plus a dynamic 'person' point present in scan 3 only."""
    C = labelset.num_classes
    vm = VoxelMap(num_classes=C)
    ring = ring_points(radius=6.0)
    building = labelset.index("building")
    person = labelset.index("person")
    scans = []
    for k in range(n_scans):
        xyz = ring.copy()
        probs = np.tile(one_hot(building, C), (len(ring), 1))
        if k == 3:
            xyz = np.concatenate([xyz, [[3.0, 0.0, 0.0]]])
            probs = np.concatenate([probs, [one_hot(person, C)]])
        vm.integrate_scan(SemanticCloud(xyz, probs), k)
        scans.append(ScanRecord(xyz, pose_at(t=float(k)), k))
    return vm, scans, building, person


def test_static_classes_render_from_full_map(labelset):
    model = SphericalModel(width=64, height=8)
    vm, scans, building, _ = static_map_and_scans(labelset)
    out = generate_pseudolabels(vm, scans, labelset, model)
    for img in out:
        labeled = img.labeled
        assert labeled.any()
        assert building in img.classes[labeled]


def test_dynamic_points_limited_to_scan_window(labelset):
    """The person point (seen only in scan 3) appears in images for scans
    within +/- 2 of it and nowhere else."""
    model = SphericalModel(width=64, height=8)
    vm, scans, _, person = static_map_and_scans(labelset)
    out = generate_pseudolabels(vm, scans, labelset, model,
                                policy=ScanWindowPolicy(window=2))
    for img in out:
        has_person = person in img.classes[img.labeled]
        assert has_person == (abs(img.scan_id - 3) <= 2)


def test_window_zero_is_strictest(labelset):
    model = SphericalModel(width=64, height=8)
    vm, scans, _, person = static_map_and_scans(labelset)
    out = generate_pseudolabels(vm, scans, labelset, model,
                                policy=ScanWindowPolicy(window=0))
    for img in out:
        has_person = person in img.classes[img.labeled]
        assert has_person == (img.scan_id == 3)


def test_labels_agree_with_map_argmax(labelset):
    model = SphericalModel(width=64, height=8)
    vm, scans, building, person = static_map_and_scans(labelset)
    out = generate_pseudolabels(vm, scans, labelset, model, threshold=0.0)
    for img in out:
        assert set(np.unique(img.classes[img.labeled])) <= {building, person}


def pseudolabels_by_lookup(vmap, scans, labelset, model, window, threshold):
    """Reference: `generate_pseudolabels` with every scan point gathering its
    voxel's (N, C) distribution in the way of `lookup_points`, and each cell
    taking the argmax and max of its winning point's row. Every distribution
    comes from the per-row computation, not from the map's views."""
    dynamic = np.zeros(labelset.num_classes, dtype=bool)
    dynamic[list(labelset.dynamic_indices)] = True
    map_xyz, map_probs = parent_export(vmap)
    static = ~dynamic[np.argmax(map_probs, axis=-1)]
    dyn = {}
    for scan in scans:
        w = scan.world_xyz()
        probs, found = parent_lookup(vmap, w)
        sel = found & dynamic[np.argmax(probs, axis=-1)]
        dyn[scan.scan_id] = (w[sel], probs[sel])
    out = []
    for scan in scans:
        parts = [(map_xyz[static], map_probs[static])]
        parts += [dyn[o.scan_id] for o in scans
                  if abs(o.scan_id - scan.scan_id) <= window]
        world = np.concatenate([x for x, _ in parts])
        probs = np.concatenate([p for _, p in parts])
        img = render_range_image(apply(invert(scan.pose.matrix()), world), model)
        classes = np.full(img.range.shape, UNLABELED, dtype=np.uint8)
        conf = np.zeros(img.range.shape)
        hit = img.cell_index >= 0
        p = probs[img.cell_index[hit]]
        conf[hit] = p.max(axis=-1)
        keep = conf[hit] >= threshold
        classes.reshape(-1)[np.flatnonzero(hit)[keep]] = p.argmax(axis=-1)[keep]
        conf[classes == UNLABELED] = 0.0
        out.append((classes, conf, img.xyz, img.range))
    return out


def test_pseudolabels_match_lookup_oracle(labelset):
    """Equal classes, confidence, xyz and range as the (N, C) lookup form,
    on a map with dynamic classes, over window sizes, thresholds 0/0.8/1
    (one-hot voxels seen in several scans reach confidence 1); every scan
    also holds points that miss the map. An empty map
    gives the oracle's all-unlabeled images, and on a map of static classes
    only no scan point is a dynamic candidate."""
    rng = np.random.default_rng(3)
    C = labelset.num_classes
    model = SphericalModel(width=64, height=16)
    base = rng.uniform([-8, -8, -2], [8, 8, 2], size=(400, 3))
    base_p = rng.dirichlet(np.full(C, 0.2), size=400)
    base_p[::2] = np.eye(C)[rng.integers(0, C, 200)]
    vm = VoxelMap(voxel_size=0.5, num_classes=C)
    scans = []
    for k in range(6):
        mover = rng.uniform([-6, -6, -1], [6, 6, 1], size=(40, 3))
        mover_p = rng.dirichlet(np.full(C, 0.2), size=40)
        mover_p[:, list(labelset.dynamic_indices)] += 2.0
        mover_p /= mover_p.sum(axis=1, keepdims=True)
        world = np.concatenate([base, mover])
        vm.integrate_scan(SemanticCloud(world, np.concatenate([base_p, mover_p])), k)
        pose = pose_at(t=float(k), xyz=(0.3 * k, -0.2 * k, 0.1))
        miss = rng.uniform([20, 20, -1], [25, 25, 1], size=(15, 3))
        seen = np.concatenate([world, miss])[rng.permutation(455)]
        scans.append(ScanRecord(apply(invert(pose.matrix()), seen), pose, k))
    empty = VoxelMap(voxel_size=0.5, num_classes=C)
    static_only = VoxelMap(voxel_size=0.5, num_classes=C)
    static_classes = np.setdiff1d(np.arange(C), labelset.dynamic_indices)
    for k, scan in enumerate(scans[:2]):
        world = apply(scan.pose.matrix(), scan.xyz)
        one_hots = np.eye(C)[rng.choice(static_classes, len(world))]
        static_only.integrate_scan(SemanticCloud(world, one_hots), k)
    assert len(static_only) and not np.isin(static_only.voxel_classes(
        np.arange(len(static_only))),
                                            labelset.dynamic_indices).any()
    labeled = {}
    for vmap in (vm, empty, static_only):
        for window in (0, 1, 2, 5):
            for threshold in (0.0, 0.8, 1.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore" if vmap is empty else "error")
                    got = generate_pseudolabels(
                        vmap, scans, labelset, model,
                        policy=ScanWindowPolicy(window), threshold=threshold)
                expect = pseudolabels_by_lookup(vmap, scans, labelset, model,
                                                window, threshold)
                for img, (classes, conf, xyz, rng_img) in zip(got, expect):
                    np.testing.assert_array_equal(img.classes, classes)
                    np.testing.assert_array_equal(img.confidence, conf)
                    np.testing.assert_array_equal(img.xyz, xyz)
                    np.testing.assert_array_equal(img.range, rng_img)
                if vmap is vm:
                    labeled[window, threshold] = [
                        np.isin(img.classes, labelset.dynamic_indices).sum()
                        for img in got]
    assert all(n > 0 for n in labeled[2, 1.0])
    assert sum(labeled[0, 0.0]) < sum(labeled[5, 0.0])


def test_pseudolabels_follow_map_changes(labelset):
    """Pseudo-labels equal the per-row oracle on a map read for the first
    time, on the same map read again, and after each new scan."""
    rng = np.random.default_rng(8)
    C = labelset.num_classes
    model = SphericalModel(width=64, height=16)
    vm = VoxelMap(voxel_size=0.5, num_classes=C)
    scans = []
    for k in range(4):
        world = rng.uniform([-6 + 2 * k, -6, -1], [6 + 2 * k, 6, 1], size=(400, 3))
        probs = rng.dirichlet(np.full(C, 0.2), size=400)
        probs[::4, list(labelset.dynamic_indices)] += 2.0
        probs /= probs.sum(axis=1, keepdims=True)
        vm.integrate_scan(SemanticCloud(world, probs), k)
        pose = pose_at(t=float(k), xyz=(2.0 * k, 0.0, 0.1))
        scans.append(ScanRecord(apply(invert(pose.matrix()), world), pose, k))
        expect = pseudolabels_by_lookup(vm, scans, labelset, model, 1, 0.5)
        for _ in range(2):
            got = generate_pseudolabels(vm, scans, labelset, model,
                                        policy=ScanWindowPolicy(1), threshold=0.5)
            for img, (classes, conf, _, _) in zip(got, expect):
                np.testing.assert_array_equal(img.classes, classes)
                np.testing.assert_array_equal(img.confidence, conf)
        assert any(img.labeled.any() for img in got)


# --- ground-plane correction ------------------------------------------------


def plane_scene_image(labelset, stray_class, n_side=40):
    """A dense ground plane labeled 'road' with a few on-plane cells
    mislabeled as `stray_class`."""
    C = labelset.num_classes
    model = SphericalModel(width=128, height=32, f_up=np.deg2rad(5),
                           f_down=np.deg2rad(40))
    g = np.linspace(2.0, 12.0, n_side)
    gx, gy = np.meshgrid(g, np.linspace(-4, 4, n_side))
    pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, -1.5)], axis=1)
    road = labelset.index("road")
    probs = np.tile(one_hot(road, C), (len(pts), 1))
    cloud = SemanticCloud(pts, probs)
    img = single_overlay_pseudolabels(cloud, pose_at(), model, threshold=0.5)
    # corrupt some labeled on-plane cells
    labeled = np.argwhere(img.labeled)
    corrupt = labeled[::17]
    img.classes[corrupt[:, 0], corrupt[:, 1]] = stray_class
    return img, corrupt, road


def test_ground_plane_resets_stray_labels(labelset):
    stray = labelset.index("person")
    img, corrupt, road = plane_scene_image(labelset, stray)
    fixed = ground_plane_correction(img, labelset)
    assert (fixed.classes[corrupt[:, 0], corrupt[:, 1]] == UNLABELED).all()
    assert (fixed.confidence[corrupt[:, 0], corrupt[:, 1]] == 0.0).all()
    # genuine road labels survive
    still_road = fixed.classes == road
    assert still_road.sum() > 0.8 * (img.classes == road).sum()


def test_ground_plane_keeps_ground_classes(labelset):
    stray = labelset.index("sidewalk")  # a ground class: must not be reset
    img, corrupt, _ = plane_scene_image(labelset, stray)
    fixed = ground_plane_correction(img, labelset)
    assert (fixed.classes[corrupt[:, 0], corrupt[:, 1]] == stray).all()


def test_ground_plane_idempotent(labelset):
    stray = labelset.index("vehicle")
    img, _, _ = plane_scene_image(labelset, stray)
    once = ground_plane_correction(img, labelset)
    twice = ground_plane_correction(once, labelset)
    np.testing.assert_array_equal(once.classes, twice.classes)


def test_ground_plane_warns_on_candidate_shortage(labelset):
    C = labelset.num_classes
    model = SphericalModel(width=16, height=4)
    pts = ring_points(n=8)
    cloud = SemanticCloud(pts, np.tile(one_hot(0, C), (8, 1)))
    img = single_overlay_pseudolabels(cloud, pose_at(), model)
    with pytest.warns(UserWarning):
        out = ground_plane_correction(img, labelset)
    np.testing.assert_array_equal(out.classes, img.classes)


def test_ground_plane_requires_geometry(labelset):
    img = PseudoLabelImage(np.full((4, 4), UNLABELED, np.uint8),
                           np.zeros((4, 4)), "fused_map", pose_at())
    with pytest.raises(InvalidInputError):
        ground_plane_correction(img, labelset)


# --- training pair I/O ------------------------------------------------------


def test_training_pair_round_trip(tmp_path, labelset):
    C = labelset.num_classes
    model = SphericalModel(width=32, height=8)
    pts = ring_points(n=48)
    cloud = SemanticCloud(pts, np.tile(one_hot(4, C), (len(pts), 1)))
    scan_img = render_range_image(pts, model)
    label_img = single_overlay_pseudolabels(cloud, pose_at(1.5, (1, 2, 3)),
                                            model)
    out = export_training_pair(scan_img, label_img, str(tmp_path / "s0"),
                               labelset)
    channels, classes, meta = load_training_pair(out)
    assert channels.shape == (8, 32, 4)
    np.testing.assert_allclose(channels[..., 0],
                               scan_img.range.astype(np.float32))
    np.testing.assert_allclose(channels[..., 1:4],
                               scan_img.xyz.astype(np.float32))
    np.testing.assert_array_equal(classes, label_img.classes)
    assert meta["labelset_hash"] == labelset.config_hash()
    assert meta["unlabeled"] == UNLABELED
    assert meta["viewpoint"]["translation"] == [1, 2, 3]


def test_training_pair_intensity_channel(tmp_path, labelset):
    model = SphericalModel(width=16, height=4)
    pts = ring_points(n=16)
    intensity = np.linspace(0, 1, 16)
    scan_img = render_range_image(pts, model)
    scan_img.intensity = np.zeros((4, 16), dtype=np.float64)
    hit = scan_img.cell_index >= 0
    scan_img.intensity[hit] = intensity[scan_img.cell_index[hit]]
    cloud = SemanticCloud(pts, np.tile(one_hot(2, labelset.num_classes),
                                       (16, 1)))
    label_img = single_overlay_pseudolabels(cloud, pose_at(), model)
    out = export_training_pair(scan_img, label_img, str(tmp_path / "s1"),
                               labelset, include_intensity=True)
    channels, _, meta = load_training_pair(out)
    assert channels.shape[-1] == 5
    assert meta["channels"] == 5


def test_training_pair_shape_mismatch(tmp_path, labelset):
    model = SphericalModel(width=16, height=4)
    other = SphericalModel(width=8, height=4)
    pts = ring_points(n=16)
    scan_img = render_range_image(pts, model)
    cloud = SemanticCloud(pts, np.tile(one_hot(2, labelset.num_classes),
                                       (16, 1)))
    label_img = single_overlay_pseudolabels(cloud, pose_at(), other)
    with pytest.raises(InvalidInputError):
        export_training_pair(scan_img, label_img, str(tmp_path / "s2"),
                             labelset)
