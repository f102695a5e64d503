import json

import numpy as np
import pytest

from semfuse.evaluation import (CameraFrustum, ConfigurationError,
                                ConfusionAccumulator, IoUResult,
                                accumulate_scan_vs_map, format_report,
                                iou_map_vs_map, iou_scan_vs_map,
                                write_json_report)
from semfuse.fusion import SemanticCloud
from semfuse.geometry import CameraModel, Pose
from semfuse.labels import LabelSet
from semfuse.voxelmap import VoxelMap
from tests.conftest import parent_classes, parent_distributions

IDENTITY_Q = np.array([1.0, 0, 0, 0])


def one_hot(i, C, p=0.9):
    out = np.full(C, (1 - p) / (C - 1))
    out[i] = p
    return out


def tiny_labelset():
    return LabelSet(("a", "b", "c"), (False, False, False), unknown_name=None)


# --- confusion arithmetic ----------------------------------------------------


def test_iou_hand_counted_simple():
    """Class 0: 8 of 10 points right, the 2 wrong ones predicted as class 1.
    IoU(0) = 8 / (8 + 0 + 2) = 0.8; IoU(1) = 0 / (0 + 2 + 0) = 0."""
    acc = ConfusionAccumulator(3)
    pred = np.array([0] * 8 + [1] * 2)
    ref = np.zeros(10, dtype=np.int64)
    acc.add(pred, ref)
    iou = acc.iou()
    assert iou[0] == pytest.approx(0.8)
    assert iou[1] == pytest.approx(0.0)
    assert np.isnan(iou[2])


def test_iou_hand_counted_tp_fp_fn():
    """TP=1, FP=1, FN=2 for class 0 gives IoU 1/4."""
    acc = ConfusionAccumulator(2)
    acc.add(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 0]))
    assert acc.iou()[0] == pytest.approx(0.25)


def test_perfect_prediction_is_one():
    acc = ConfusionAccumulator(4)
    labels = np.array([0, 1, 2, 3, 2, 1])
    acc.add(labels, labels)
    np.testing.assert_allclose(acc.iou(), 1.0)


def test_mean_skips_unobserved_by_default():
    res = IoUResult(np.array([0.5, np.nan, 1.0]), tiny_labelset())
    assert res.mean() == pytest.approx(0.75)
    assert np.isnan(IoUResult(np.full(3, np.nan), tiny_labelset()).mean())


# --- scan vs map -------------------------------------------------------------


def ref_map(C=3):
    vm = VoxelMap(voxel_size=1.0, num_classes=C)
    xyz = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [2.5, 0.5, 0.5]])
    probs = np.stack([one_hot(0, C), one_hot(1, C), one_hot(2, C)])
    vm.integrate_scan(SemanticCloud(xyz, probs), 0)
    return vm


def test_scan_vs_map_self_comparison_perfect():
    vm = ref_map()
    cloud = vm.export_cloud()
    res = iou_scan_vs_map([cloud], vm, tiny_labelset())
    np.testing.assert_allclose(res.per_class, 1.0)
    assert res.mean() == 1.0


def test_scan_vs_map_unobserved_points_excluded():
    vm = ref_map()
    xyz = np.array([[0.5, 0.5, 0.5], [50.0, 50.0, 50.0]])
    probs = np.stack([one_hot(0, 3), one_hot(0, 3)])
    res = iou_scan_vs_map([SemanticCloud(xyz, probs)], vm, tiny_labelset())
    assert res.per_class[0] == pytest.approx(1.0)


def test_scan_vs_map_unknown_reference_skipped(labelset):
    C = labelset.num_classes
    vm = VoxelMap(voxel_size=1.0, num_classes=C)
    unk = labelset.unknown_index
    xyz = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
    vm.integrate_scan(SemanticCloud(xyz, np.stack([one_hot(0, C),
                                                   one_hot(unk, C)])), 0)
    cloud = SemanticCloud(xyz, np.stack([one_hot(0, C), one_hot(3, C)]))
    res = iou_scan_vs_map([cloud], vm, labelset)
    # the unknown-reference point contributes nothing at all
    assert res.per_class[0] == pytest.approx(1.0)
    assert np.isnan(res.per_class[3])


def test_scan_vs_map_class_count_mismatch():
    vm = ref_map(C=3)
    cloud = SemanticCloud(np.array([[0.5, 0.5, 0.5]]),
                          np.array([[0.25, 0.25, 0.25, 0.25]]))
    with pytest.raises(ConfigurationError):
        iou_scan_vs_map([cloud], vm, tiny_labelset())


def test_frustum_restriction():
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    frustum = CameraFrustum(cam, Pose(0.0, np.zeros(3), IDENTITY_Q))
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    # one voxel ahead of the camera (+z), one behind
    xyz = np.array([[0.2, 0.2, 5.0], [0.2, 0.2, -5.0]])
    vm.integrate_scan(SemanticCloud(xyz, np.stack([one_hot(0, 3),
                                                   one_hot(1, 3)])), 0)
    # predict the behind-camera voxel wrong; it must not count
    cloud = SemanticCloud(xyz, np.stack([one_hot(0, 3), one_hot(2, 3)]))
    acc = ConfusionAccumulator(3)
    accumulate_scan_vs_map(acc, cloud, vm, tiny_labelset(), frustum)
    iou = acc.iou()
    assert iou[0] == pytest.approx(1.0)
    assert np.isnan(iou[1]) and np.isnan(iou[2])


def test_accumulate_over_multiple_clouds():
    vm = ref_map()
    acc = ConfusionAccumulator(3)
    cloud = vm.export_cloud()
    accumulate_scan_vs_map(acc, cloud, vm, tiny_labelset())
    accumulate_scan_vs_map(acc, cloud, vm, tiny_labelset())
    np.testing.assert_array_equal(acc.tp, [2, 2, 2])


def accumulate_by_lookup(acc, cloud, reference, labelset, restrict=None):
    """Reference: each point gathers its reference voxel's (N, C)
    distribution through `lookup_points` and takes its argmax."""
    xyz = np.asarray(cloud.xyz, dtype=np.float64)
    pred = np.argmax(cloud.probs, axis=-1)
    keep = np.ones(len(xyz), dtype=bool)
    if restrict is not None:
        keep &= restrict.contains(xyz)
    ref_probs, found = reference.lookup_points(xyz)
    keep &= found
    ref = np.argmax(ref_probs, axis=-1)
    if labelset.unknown_index is not None:
        keep &= ref != labelset.unknown_index
    acc.add(pred[keep], ref[keep])


def test_scan_vs_map_matches_lookup_oracle(labelset, rng):
    """Equal TP/FP/FN and IoU vectors as the (N, C) lookup form, over
    several clouds with points that miss the reference, unknown-class
    reference voxels, an empty cloud, an empty reference, and a frustum."""
    C = labelset.num_classes
    ref = VoxelMap(voxel_size=0.5, num_classes=C)
    for k in range(3):
        xyz = rng.uniform(0, 6, (500, 3))
        cls = rng.integers(0, C, 500)
        cls[:60] = labelset.unknown_index
        ref.integrate_scan(SemanticCloud(xyz, rng.dirichlet(np.full(C, 0.3), 500)
                                         + 3 * np.eye(C)[cls]), k)
    clouds = [SemanticCloud(rng.uniform(-2, 8, (n, 3)),
                            rng.dirichlet(np.full(C, 0.3), n)) for n in (700, 0, 300)]
    cam = CameraModel(fx=100, fy=100, cx=50, cy=50, width=100, height=100)
    frustum = CameraFrustum(cam, Pose(0.0, np.array([3.0, 3.0, -4.0]), IDENTITY_Q))
    empty = VoxelMap(voxel_size=0.5, num_classes=C)
    for reference in (ref, empty):
        for restrict in (None, frustum):
            acc, expect = ConfusionAccumulator(C), ConfusionAccumulator(C)
            for cloud in clouds:
                accumulate_scan_vs_map(acc, cloud, reference, labelset, restrict)
                accumulate_by_lookup(expect, cloud, reference, labelset, restrict)
            np.testing.assert_array_equal(acc.tp, expect.tp)
            np.testing.assert_array_equal(acc.fp, expect.fp)
            np.testing.assert_array_equal(acc.fn, expect.fn)
            if restrict is None:
                res = iou_scan_vs_map(clouds, reference, labelset)
                np.testing.assert_array_equal(res.per_class, expect.iou())
            if reference is ref:
                assert 0 < expect.tp.sum() < expect.fp.sum()


# --- map vs map --------------------------------------------------------------


def test_map_vs_map_identical_is_one():
    vm = ref_map()
    res = iou_map_vs_map(vm, vm, tiny_labelset())
    np.testing.assert_allclose(res.per_class, 1.0)


def test_map_vs_map_disjoint_is_zero():
    a = VoxelMap(voxel_size=1.0, num_classes=3)
    b = VoxelMap(voxel_size=1.0, num_classes=3)
    a.integrate_scan(SemanticCloud(np.array([[0.5, 0.5, 0.5]]),
                                   np.array([one_hot(0, 3)])), 0)
    b.integrate_scan(SemanticCloud(np.array([[9.5, 0.5, 0.5]]),
                                   np.array([one_hot(0, 3)])), 0)
    res = iou_map_vs_map(a, b, tiny_labelset())
    assert res.per_class[0] == pytest.approx(0.0)


def test_map_vs_map_three_voxel_toy():
    """Shared voxel agrees (TP for class 0), one reference-only voxel of
    class 1 (FN), one prediction-only voxel of class 1 (FP):
    IoU(0)=1, IoU(1)=0/(0+1+1)=0."""
    ref = VoxelMap(voxel_size=1.0, num_classes=3)
    ref.integrate_scan(SemanticCloud(
        np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]),
        np.stack([one_hot(0, 3), one_hot(1, 3)])), 0)
    pred = VoxelMap(voxel_size=1.0, num_classes=3)
    pred.integrate_scan(SemanticCloud(
        np.array([[0.5, 0.5, 0.5], [5.5, 0.5, 0.5]]),
        np.stack([one_hot(0, 3), one_hot(1, 3)])), 0)
    res = iou_map_vs_map(pred, ref, tiny_labelset())
    assert res.per_class[0] == pytest.approx(1.0)
    assert res.per_class[1] == pytest.approx(0.0)


def test_map_vs_map_voxel_size_mismatch():
    a = VoxelMap(voxel_size=0.25, num_classes=3)
    b = VoxelMap(voxel_size=0.5, num_classes=3)
    with pytest.raises(ConfigurationError):
        iou_map_vs_map(a, b, tiny_labelset())


def test_map_vs_map_class_count_mismatch():
    a = VoxelMap(voxel_size=1.0, num_classes=3)
    b = VoxelMap(voxel_size=1.0, num_classes=4)
    with pytest.raises(ConfigurationError):
        iou_map_vs_map(a, b, tiny_labelset())


def test_map_vs_map_unknown_reference_voxels_skipped(labelset):
    C = labelset.num_classes
    unk = labelset.unknown_index
    ref = VoxelMap(voxel_size=1.0, num_classes=C)
    ref.integrate_scan(SemanticCloud(
        np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]),
        np.stack([one_hot(0, C), one_hot(unk, C)])), 0)
    pred = VoxelMap(voxel_size=1.0, num_classes=C)
    pred.integrate_scan(SemanticCloud(
        np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]]),
        np.stack([one_hot(0, C), one_hot(2, C)])), 0)
    res = iou_map_vs_map(pred, ref, labelset)
    assert res.per_class[0] == pytest.approx(1.0)
    assert np.isnan(res.per_class[2])


def iou_map_vs_map_by_key_sets(pred, reference, labelset):
    """Reference algorithm: Python sets of key tuples, sorted, then one row
    lookup per set, each set's rows normalized alone."""
    acc = ConfusionAccumulator(reference.num_classes)
    unknown = labelset.unknown_index
    pred_keys = {tuple(k) for k in pred.keys_array}
    ref_keys = {tuple(k) for k in reference.keys_array}

    def argmax(vmap, keys):
        if not keys:
            return np.zeros(0, dtype=np.int64)
        rows = vmap.rows_for_keys(np.array(sorted(keys)))
        return np.argmax(parent_distributions(vmap, rows), axis=-1)

    both = pred_keys & ref_keys
    p_both, r_both = argmax(pred, both), argmax(reference, both)
    if unknown is not None:
        keep = r_both != unknown
        p_both, r_both = p_both[keep], r_both[keep]
    acc.add(p_both, r_both)
    r_only = argmax(reference, ref_keys - pred_keys)
    if unknown is not None:
        r_only = r_only[r_only != unknown]
    acc.fn += np.bincount(r_only, minlength=acc.num_classes)
    acc.fp += np.bincount(argmax(pred, pred_keys - ref_keys),
                          minlength=acc.num_classes)
    return acc.iou()


def random_map(rng, C, lo, hi, n_scans=3, n=400):
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for k in range(n_scans):
        xyz = rng.uniform(lo, hi, size=(n, 3))
        vm.integrate_scan(SemanticCloud(xyz, rng.dirichlet(np.full(C, 0.3), n)), k)
    return vm


def test_map_vs_map_equals_key_set_algorithm(labelset, rng):
    """Exact per-class IoU of the key-set algorithm on partially overlapping
    maps, with an empty map on either side, and with reference voxels of
    the unknown class."""
    C = labelset.num_classes
    pred = random_map(rng, C, -2.0, 3.0)
    ref = random_map(rng, C, 0.0, 5.0)
    unknown_ref = VoxelMap(voxel_size=0.5, num_classes=C)
    xyz = rng.uniform(0.0, 4.0, size=(300, 3))
    cls = rng.integers(0, C, size=300)
    cls[:100] = labelset.unknown_index
    unknown_ref.integrate_scan(SemanticCloud(xyz, np.eye(C)[cls]), 0)
    empty = VoxelMap(voxel_size=0.5, num_classes=C)
    cases = [(pred, ref), (ref, pred), (pred, unknown_ref), (pred, empty),
             (empty, ref), (empty, empty), (pred, pred)]
    for a, b in cases:
        np.testing.assert_array_equal(iou_map_vs_map(a, b, labelset).per_class,
                                      iou_map_vs_map_by_key_sets(a, b, labelset))
    assert (labelset.unknown_index in
            np.argmax(unknown_ref.export_cloud().probs, axis=-1))


def parent_scan_vs_map(clouds, reference, labelset):
    """IoU of clouds against a reference whose classes come from the per-row
    computation, each cloud's kept rows copied before their argmax."""
    acc = ConfusionAccumulator(reference.num_classes)
    ref_cls = parent_classes(reference)
    for cloud in clouds:
        rows = reference.rows_for_points(cloud.xyz)
        keep = rows >= 0
        pred, ref = np.argmax(cloud.probs[keep], axis=-1), ref_cls[rows[keep]]
        known = ref != labelset.unknown_index
        acc.add(pred[known], ref[known])
    return acc.iou()


def test_iou_reads_follow_map_changes(labelset, rng):
    """Both IoU forms equal the per-row computation bit for bit on maps
    without views, on the same maps read again, and after a scan changes a
    map whose views an earlier evaluation built."""
    C = labelset.num_classes
    pred = random_map(rng, C, -2.0, 3.0)
    ref = random_map(rng, C, 0.0, 5.0)
    third = VoxelMap(voxel_size=0.5, num_classes=C)
    for k in range(2):
        third.integrate_scan(SemanticCloud(rng.uniform(k, 4 + k, (400, 3)),
                                           rng.dirichlet(np.full(C, 0.3), 400)), k)
    clouds = [SemanticCloud(rng.uniform(-2, 6, (n, 3)),
                            rng.dirichlet(np.full(C, 0.3), n)) for n in (600, 0, 200)]
    results = set()
    for step in range(4):
        for a, b in ((pred, ref), (ref, pred), (third, ref), (pred, third)):
            for _ in range(2):
                got = iou_map_vs_map(a, b, labelset).per_class
                np.testing.assert_array_equal(
                    got, iou_map_vs_map_by_key_sets(a, b, labelset))
            results.add(got.tobytes())
        for reference in (ref, third):
            for _ in range(2):
                np.testing.assert_array_equal(
                    iou_scan_vs_map(clouds, reference, labelset).per_class,
                    parent_scan_vs_map(clouds, reference, labelset))
        # each step changes all three maps
        for m in (pred, ref, third):
            m.integrate_scan(SemanticCloud(rng.uniform(-2 + step, 2 + step, (300, 3)),
                                           rng.dirichlet(np.full(C, 0.3), 300)),
                             m.last_scan_id + 1)
    assert len(results) > 4


# --- reporting ---------------------------------------------------------------


def test_format_report_contains_observed_classes():
    res = IoUResult(np.array([0.5, np.nan, 1.0]), tiny_labelset())
    text = format_report(res)
    assert "a" in text and "c" in text
    assert "b " not in text
    assert "50.00" in text and "100.00" in text
    assert "mean" in text and "75.00" in text


def test_format_report_empty():
    res = IoUResult(np.full(3, np.nan), tiny_labelset())
    assert format_report(res) == ""


def test_json_report_round_trip(tmp_path):
    res = IoUResult(np.array([0.5, np.nan, 1.0]), tiny_labelset(),
                    restricted_fov=True)
    path = tmp_path / "iou.json"
    write_json_report(res, str(path))
    data = json.loads(path.read_text())
    assert data["per_class"] == {"a": 0.5, "c": 1.0}
    assert data["mean"] == pytest.approx(0.75)
    assert data["restricted_fov"] is True
