import json
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import runner
from semfuse.fusion import SemanticCloud
from semfuse.labels import (InvalidInputError, bayes_fuse, log_from_prob,
                            log_normalize, uniform)
from semfuse.runner import RunConfig
from semfuse.voxelmap import (VoxelMap, pack_keys, unpack_keys, voxel_keys)
from tests.conftest import scene_path


def cloud(xyz, probs):
    return SemanticCloud(np.asarray(xyz, float), np.asarray(probs, float))


def one_hot(i, C, p=0.9):
    out = np.full(C, (1 - p) / (C - 1))
    out[i] = p
    return out


def longdouble_fuse(prob_list):
    """Probability-space Bayesian fusion in extended precision."""
    acc = np.ones(len(prob_list[0]), dtype=np.longdouble)
    for p in prob_list:
        acc *= np.asarray(p, dtype=np.longdouble)
        acc /= acc.sum()
    return np.asarray(acc, dtype=np.float64)


# --- keying -----------------------------------------------------------------


def test_voxel_keys_floor_not_truncate():
    keys = voxel_keys(np.array([[-0.1, 0.1, -0.26]]), 0.25)
    np.testing.assert_array_equal(keys, [[-1, 0, -2]])


def test_voxel_keys_boundary_goes_up():
    keys = voxel_keys(np.array([[0.25, 0.0, 0.4999]]), 0.25)
    np.testing.assert_array_equal(keys, [[1, 0, 1]])


def test_pack_unpack_round_trip(rng):
    keys = rng.integers(-(1 << 19), 1 << 19, size=(200, 3))
    np.testing.assert_array_equal(unpack_keys(pack_keys(keys)), keys)


def test_pack_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        pack_keys(np.array([[1 << 21, 0, 0]]))


def test_pack_order_matches_lexicographic(rng):
    keys = rng.integers(-100, 100, size=(300, 3))
    packed = pack_keys(keys)
    lex = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    np.testing.assert_array_equal(np.argsort(packed, kind="stable"), lex)


# --- construction and validation --------------------------------------------


def test_rejects_bad_params():
    with pytest.raises(InvalidInputError):
        VoxelMap(voxel_size=0.0)
    with pytest.raises(InvalidInputError):
        VoxelMap(n_horizon=0)


def test_default_map_keeps_no_ring():
    vm = VoxelMap(num_classes=3)
    assert vm.n_horizon is None
    assert not hasattr(vm, "_ring") and not hasattr(vm, "_n_scans")
    # growth and eviction run on the ring-less columns alike
    vm = VoxelMap(voxel_size=1.0, num_classes=3, max_voxels=1500)
    for k in range(3):
        vm.integrate_scan(cloud(np.c_[np.arange(1000.0) + 1000 * k,
                                      np.zeros((1000, 2))],
                                np.tile(one_hot(k, 3), (1000, 1))), k)
    assert len(vm) == 1500 and not hasattr(vm, "_ring")
    assert vm.query_voxel((2500, 0, 0)).probs.argmax() == 2


@pytest.mark.parametrize("empty", [False, True])
def test_finite_query_on_default_map_raises(tmp_path, empty):
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    if not empty:
        vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(1, 3)]), 0)
    path = tmp_path / "map.svx"
    calls = [lambda: vm.query_voxel((0, 0, 0), "finite"),
             lambda: vm.lookup_points(np.array([[0.5, 0.5, 0.5]]), "finite"),
             lambda: vm.export_cloud("finite"),
             lambda: vm.save(path, horizon="finite"),
             lambda: vm.per_class_voxel_counts("finite")]
    for call in calls:
        with pytest.raises(InvalidInputError, match="without n_horizon"):
            call()
    assert not path.exists()
    # the infinite horizon answers, and its snapshot answers both horizons
    vm.save(path)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    assert json.loads(data[8: 8 + hlen])["n_horizon"] is None
    loaded = VoxelMap.load(path)
    for horizon in ("infinite", "finite"):
        np.testing.assert_array_equal(loaded.export_cloud(horizon).probs,
                                      loaded.export_cloud().probs)


def test_scan_id_must_increase():
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0, 0, 0]], [one_hot(0, 3)]), 5)
    with pytest.raises(InvalidInputError):
        vm.integrate_scan(cloud([[0, 0, 0]], [one_hot(0, 3)]), 5)


@pytest.mark.parametrize("name, row, col, value", [
    ("probs", 1, 0, np.nan),
    ("xyz", 1, 2, np.nan),
    ("xyz", 0, 0, np.inf),
])
def test_non_finite_scan_is_rejected_and_leaves_map_unchanged(name, row, col,
                                                              value, rng):
    C = 3
    vm = VoxelMap(voxel_size=1.0, num_classes=C)
    vm.integrate_scan(cloud(rng.uniform(0, 3, (20, 3)),
                            rng.dirichlet(np.ones(C), 20)), 0)
    before = vm.export_cloud()
    scan = {"xyz": rng.uniform(0, 5, (10, 3)), "probs": rng.dirichlet(np.ones(C), 10)}
    bad = {k: v.copy() for k, v in scan.items()}
    bad[name][row, col] = value
    with pytest.raises(InvalidInputError, match=name):
        vm.integrate_scan(cloud(bad["xyz"], bad["probs"]), 1)
    assert len(vm) == len(before.xyz)
    assert vm.last_scan_id == 0
    after = vm.export_cloud()
    np.testing.assert_array_equal(after.xyz, before.xyz)
    np.testing.assert_array_equal(after.probs, before.probs)
    vm.integrate_scan(cloud(scan["xyz"], scan["probs"]), 1)
    assert vm.last_scan_id == 1


def test_out_of_range_scan_is_rejected_before_scan_id_moves():
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    with pytest.raises(InvalidInputError, match="21-bit"):
        vm.integrate_scan(cloud([[0.5, 0, 0], [2.0 ** 21, 0, 0]],
                                [one_hot(0, 3)] * 2), 0)
    assert vm.last_scan_id is None and len(vm) == 0
    vm.integrate_scan(cloud([[0.5, 0, 0]], [one_hot(0, 3)]), 0)
    assert vm.last_scan_id == 0 and len(vm) == 1


def test_contains_and_len():
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1], [1.1, 0, 0]],
                            [one_hot(0, 3), one_hot(1, 3)]), 0)
    assert len(vm) == 2
    assert (0, 0, 0) in vm
    assert (9, 9, 9) not in vm


# --- per-scan merge and horizons --------------------------------------------


def test_same_scan_points_merge_by_product():
    """Two co-voxel points in one scan fuse into a single per-scan state."""
    C = 3
    vm = VoxelMap(num_classes=C)
    a, b = one_hot(0, C, 0.8), one_hot(1, C, 0.6)
    vm.integrate_scan(cloud([[0.05, 0.05, 0.05], [0.2, 0.2, 0.2]], [a, b]), 0)
    q = vm.query_voxel((0, 0, 0))
    np.testing.assert_allclose(q.probs, bayes_fuse(a, b), atol=1e-9)
    assert q.n_points == 2


def test_finite_horizon_drops_old_scans():
    """With n_horizon=2 the finite state fuses only the last two scans while
    the infinite state fuses all three."""
    C = 4
    vm = VoxelMap(num_classes=C, n_horizon=2)
    ps = [one_hot(0, C, 0.7), one_hot(1, C, 0.7), one_hot(2, C, 0.7)]
    for k, p in enumerate(ps):
        vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [p]), k)
    fin = vm.query_voxel((0, 0, 0), horizon="finite").probs
    inf = vm.query_voxel((0, 0, 0), horizon="infinite").probs
    np.testing.assert_allclose(fin, bayes_fuse(ps[1], ps[2]), atol=1e-9)
    np.testing.assert_allclose(inf, longdouble_fuse(ps), atol=1e-9)


def test_matches_longdouble_oracle(rng):
    C, n_scans = 5, 25
    vm = VoxelMap(num_classes=C, n_horizon=4)
    history = []
    for k in range(n_scans):
        p = rng.dirichlet(np.ones(C) * 0.5)
        history.append(p)
        vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [p]), k)
    inf = vm.query_voxel((0, 0, 0), horizon="infinite").probs
    np.testing.assert_allclose(inf, longdouble_fuse(history), atol=1e-9)
    fin = vm.query_voxel((0, 0, 0), horizon="finite").probs
    np.testing.assert_allclose(fin, longdouble_fuse(history[-4:]), atol=1e-9)


def reference_scan_states(xyz, probs, voxel_size):
    """Sorted packed keys of one cloud with each voxel's per-scan log state
    and position sum: points are grouped by a stable sort, so np.add.at adds
    a voxel's clamped logs and positions in input order; states of voxels
    with several points are renormalized."""
    packed = pack_keys(voxel_keys(xyz, voxel_size))
    order = np.argsort(packed, kind="stable")
    sp = packed[order]
    starts = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
    counts = np.diff(np.r_[starts, len(sp)])
    group = np.repeat(np.arange(len(starts)), counts)
    extra = np.ones(len(sp), dtype=bool)
    extra[starts] = False
    sums = []
    for values in (log_from_prob(probs)[order], xyz[order]):
        total = values[starts].copy()
        np.add.at(total, group[extra], values[extra])
        sums.append(total)
    states, pos = sums
    states[counts > 1] = log_normalize(states[counts > 1], axis=-1)
    return sp[starts], states, pos


def test_shared_voxels_sum_in_input_order_exactly(rng):
    """With many points per voxel in scrambled order, finite and infinite
    distributions and mean positions equal, bit for bit, those built from
    per-scan states that add each voxel's points in input order."""
    C, H, size = 5, 3, 1.0
    vm = VoxelMap(voxel_size=size, num_classes=C, n_horizon=H)
    history = {}  # packed key -> [(state, position sum), ...], oldest first
    for k in range(7):
        xyz = rng.uniform(0, 3, size=(400, 3))  # 27 voxels, ~15 points each
        probs = rng.dirichlet(np.full(C, 0.1), 400)  # some below the clamp
        vm.integrate_scan(cloud(xyz, probs), k)
        for key, state, pos in zip(*reference_scan_states(xyz, probs, size)):
            history.setdefault(key, []).append((state, pos))

    keys = np.array(sorted(history))
    finite, infinite, pos_sum = [], [], []
    for key in keys:
        scans = history[key]
        ring = np.zeros((H, C))
        for j, (state, _) in enumerate(scans):
            ring[j % H] = state
        ring_sum = sum(ring[1:], ring[0])
        total, pos = np.zeros(C), np.zeros(3)
        # the infinite state adds every scan as it arrives
        for state, p in scans:
            total = total + state
            pos = pos + p
        finite.append(ring_sum)
        infinite.append(total)
        pos_sum.append(pos)

    rows = vm.rows_for_keys(unpack_keys(keys))
    for horizon, L in (("finite", finite), ("infinite", infinite)):
        expect = np.exp(log_normalize(np.array(L), axis=-1))
        expect /= expect.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(vm.distributions(rows, horizon), expect)
    out = vm.export_cloud()  # rows in packed-key order, as `keys`
    n_points = np.array([vm.query_voxel(k).n_points for k in unpack_keys(keys)])
    np.testing.assert_array_equal(out.xyz, np.array(pos_sum) / n_points[:, None])


def test_no_underflow_over_many_scans():
    """10k alternating near-one-hot scans keep the state normalized while a
    naive probability-space product underflows to zero."""
    C = 3
    vm = VoxelMap(num_classes=C, n_horizon=2)
    naive = np.ones(C, dtype=np.float64)
    ps = [one_hot(0, C, 0.999), one_hot(1, C, 0.999)]
    for k in range(10_000):
        p = ps[k % 2]
        vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [p]), k)
        naive *= p  # no renormalization
    assert naive.sum() == 0.0
    q = vm.query_voxel((0, 0, 0))
    assert np.all(np.isfinite(q.probs))
    assert q.probs.sum() == pytest.approx(1.0, abs=1e-9)
    # classes 0 and 1 saw identical evidence; class 2 never did
    assert q.probs[2] < q.probs[0]


# --- queries ----------------------------------------------------------------


def test_query_missing_voxel_is_none():
    vm = VoxelMap(num_classes=3)
    assert vm.query_voxel((1, 2, 3)) is None


def test_mean_pos_inside_voxel_cube(rng):
    vm = VoxelMap(voxel_size=0.5, num_classes=3)
    pts = rng.uniform(0, 0.5, size=(40, 3))
    vm.integrate_scan(cloud(pts, np.tile(one_hot(0, 3), (40, 1))), 0)
    q = vm.query_voxel((0, 0, 0))
    np.testing.assert_allclose(q.mean_pos, pts.mean(axis=0), atol=1e-9)
    assert np.all(q.mean_pos >= 0) and np.all(q.mean_pos < 0.5)
    assert q.n_points == 40


def test_lookup_points_hits_and_misses():
    vm = VoxelMap(num_classes=4)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(2, 4)]), 0)
    probs, found = vm.lookup_points(np.array([[0.2, 0.2, 0.2], [5, 5, 5]]))
    assert found.tolist() == [True, False]
    np.testing.assert_allclose(probs[0], one_hot(2, 4), atol=1e-9)
    np.testing.assert_allclose(probs[1], uniform(4), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected_by_name(value):
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    point = np.array([[0.5, 0.5, 0.5], [0.5, value, 0.5]])
    key = (0, value, 0)
    calls = [lambda: vm.lookup_points(point),
             lambda: vm.rows_for_keys(np.array([key])),
             lambda: vm.query_voxel(key),
             lambda: key in vm]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInputError, match="non-finite coordinate"):
                call()


@pytest.mark.parametrize("key", [(-0.5, 0, 0), (0.9, 0.2, 0.7), (0, 0, 1e-9)])
def test_non_integral_key_is_rejected_by_name(key):
    """A fractional key names no voxel: truncating it toward zero would
    answer voxel (0, 0, 0) for (-0.5, 0, 0), which `lookup_points` (flooring
    the point) rightly places in voxel -1."""
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    calls = [lambda: pack_keys(np.array([key])),
             lambda: vm.rows_for_keys(np.array([(0, 0, 0), key])),
             lambda: vm.query_voxel(key),
             lambda: key in vm]
    for call in calls:
        with pytest.raises(InvalidInputError, match="non-integral voxel key"):
            call()
    _, found = vm.lookup_points(np.array([[-0.5, 0.5, 0.5]]))
    assert not found[0]


def test_integral_float_keys_are_accepted():
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[1.5, -0.5, 0.5]], [one_hot(0, 3)]), 0)
    assert (1.0, -1.0, 0.0) in vm
    assert vm.query_voxel((1.0, -1.0, -0.0)).n_points == 1
    assert vm.rows_for_keys(np.array([[1.0, -1.0, 0.0], [2.0, 0.0, 0.0]])).tolist() == [0, -1]
    np.testing.assert_array_equal(pack_keys(np.array([[1.0, -1.0, 0.0]])),
                                  pack_keys(np.array([[1, -1, 0]])))


def test_rows_for_points_hits_misses_and_empty():
    vm = VoxelMap(voxel_size=0.5, num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1], [-0.1, 0.7, 2.0], [3.0, 3.0, 3.0]],
                            [one_hot(0, 3)] * 3), 0)
    pts = np.array([[0.4, 0.2, 0.0], [5.0, 5.0, 5.0], [-0.4, 0.99, 2.2],
                    [0.1, 0.1, -0.1], [3.2, 3.4, 3.1], [0.1, 0.1, 0.1]])
    rows = vm.rows_for_points(pts)
    a, b, c = vm.rows_for_keys(np.array([[0, 0, 0], [-1, 1, 4], [6, 6, 6]]))
    assert rows.tolist() == [a, -1, b, -1, c, a]
    assert sorted([a, b, c]) == [0, 1, 2]
    empty = vm.rows_for_points(np.zeros((0, 3)))
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert VoxelMap(num_classes=3).rows_for_points(pts).tolist() == [-1] * 6


def test_rows_for_points_rejects_nan_by_name():
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"non-finite coordinate xyz\[1, 2\]"):
            vm.rows_for_points(np.array([[0.5, 0.5, 0.5], [0.5, 0.5, np.nan]]))


@pytest.mark.parametrize("horizon", ["infinite", "finite"])
def test_voxel_classes_and_lookup_agree_with_distributions(horizon, rng):
    """Per-row classes are the argmax of each row's distribution;
    `lookup_points` gathers the same rows per point."""
    C = 6
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for k in range(4):
        xyz = rng.uniform(-2, 2, (300, 3))
        vm.integrate_scan(cloud(xyz, rng.dirichlet(np.full(C, 0.4), 300)), k)
    p = vm.distributions(np.arange(len(vm)), horizon)
    cls = vm.voxel_classes(horizon=horizon)
    np.testing.assert_array_equal(cls, np.argmax(p, axis=-1))
    rows = rng.integers(0, len(vm), 50)
    np.testing.assert_array_equal(vm.voxel_classes(rows, horizon), cls[rows])
    np.testing.assert_array_equal(vm.per_class_voxel_counts(horizon),
                                  np.bincount(cls, minlength=C))
    pts = rng.uniform(-3, 3, (500, 3))
    rows = vm.rows_for_points(pts)
    probs, found = vm.lookup_points(pts, horizon)
    np.testing.assert_array_equal(found, rows >= 0)
    np.testing.assert_array_equal(probs[found], p[rows[found]])
    np.testing.assert_array_equal(probs[~found], 1.0 / C)
    assert 0 < found.sum() < len(pts)


def test_lookup_points_empty():
    vm = VoxelMap(num_classes=4)
    probs, found = vm.lookup_points(np.zeros((0, 3)))
    assert probs.shape == (0, 4) and found.shape == (0,)


def test_export_cloud_deterministic_order(rng):
    vm = VoxelMap(num_classes=3)
    pts = rng.uniform(-5, 5, size=(200, 3))
    vm.integrate_scan(cloud(pts, rng.dirichlet(np.ones(3), 200)), 0)
    out = vm.export_cloud()
    keys = voxel_keys(out.xyz, vm.voxel_size)
    lex = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    np.testing.assert_array_equal(lex, np.arange(len(keys)))


def test_export_reintegrate_preserves_distributions(rng):
    """Exporting the map as a cloud and integrating it into a fresh map
    reproduces every voxel distribution (one point lands per voxel)."""
    vm = VoxelMap(num_classes=4)
    pts = rng.uniform(-3, 3, size=(150, 3))
    vm.integrate_scan(cloud(pts, rng.dirichlet(np.ones(4), 150)), 0)
    vm2 = VoxelMap(num_classes=4)
    vm2.integrate_scan(vm.export_cloud(), 0)
    assert len(vm2) == len(vm)
    out1 = vm.export_cloud()
    out2 = vm2.export_cloud()
    np.testing.assert_allclose(out1.probs, out2.probs, atol=1e-9)


def test_per_class_voxel_counts():
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0, 0], [1.1, 0, 0], [2.1, 0, 0]],
                            [one_hot(0, 3), one_hot(0, 3), one_hot(2, 3)]), 0)
    np.testing.assert_array_equal(vm.per_class_voxel_counts(), [2, 0, 1])


# --- snapshot ---------------------------------------------------------------


def test_snapshot_round_trip(tmp_path, rng):
    vm = VoxelMap(voxel_size=0.3, num_classes=5, labelset_hash="abc")
    pts = rng.uniform(-4, 4, size=(300, 3))
    vm.integrate_scan(cloud(pts, rng.dirichlet(np.ones(5), 300)), 0)
    path = tmp_path / "map.svx"
    vm.save(path)
    again = VoxelMap.load(path)
    assert len(again) == len(vm)
    assert again.voxel_size == 0.3
    assert again.labelset_hash == "abc"
    a = vm.export_cloud()
    b = again.export_cloud()
    # snapshot stores float32 log-states and means
    np.testing.assert_allclose(a.xyz, b.xyz, atol=1e-5)
    np.testing.assert_allclose(a.probs, b.probs, atol=1e-5)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.svx"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InvalidInputError):
        VoxelMap.load(path)


def test_snapshot_rejects_truncation(tmp_path, rng):
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud(rng.uniform(-2, 2, (50, 3)),
                            rng.dirichlet(np.ones(3), 50)), 0)
    path = tmp_path / "map.svx"
    vm.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises((InvalidInputError, ValueError)):
        VoxelMap.load(path)


def test_loaded_map_accepts_new_scans(tmp_path):
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(0, 3, 0.8)]), 0)
    path = tmp_path / "map.svx"
    vm.save(path)
    again = VoxelMap.load(path)
    again.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(0, 3, 0.8)]), 0)
    q = again.query_voxel((0, 0, 0))
    expect = bayes_fuse(one_hot(0, 3, 0.8), one_hot(0, 3, 0.8))
    np.testing.assert_allclose(q.probs, expect, atol=1e-5)


def test_snapshot_header_naming_a_policy_still_loads(tmp_path, rng):
    """Older snapshots name a merge policy in their header; it is ignored, so
    they answer both horizons like the same snapshot without the field."""
    vm = VoxelMap(voxel_size=1.0, num_classes=4, n_horizon=2)
    for k in range(3):
        vm.integrate_scan(cloud(rng.uniform(0, 3, (30, 3)),
                                rng.dirichlet(np.ones(4), 30)), k)
    path, old_path = tmp_path / "map.svx", tmp_path / "old.svx"
    vm.save(path)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    header = json.loads(data[8: 8 + hlen])
    assert "merge_policy" not in header
    blob = json.dumps({**header, "merge_policy": "fuse_to_infinite"}).encode()
    old_path.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob
                         + data[8 + hlen:])
    queries = rng.uniform(-1, 4, size=(100, 3))

    def answers(m):
        return [a for h in ("infinite", "finite") for a in m.lookup_points(queries, h)]

    new, old = VoxelMap.load(path), VoxelMap.load(old_path)
    for a, b in zip(answers(new), answers(old)):
        np.testing.assert_array_equal(a, b)
    scan = cloud(rng.uniform(0, 3, (30, 3)), rng.dirichlet(np.ones(4), 30))
    new.integrate_scan(scan, 3)
    old.integrate_scan(scan, 3)
    for a, b in zip(answers(new), answers(old)):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["infinite", "finite"]),
       st.integers(1, 4), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_snapshot_answers_both_horizons_with_saved_state(saved, H, n_scans, seed):
    """A reloaded map answers finite and infinite queries alike with the
    state of the horizon it was saved with."""
    rng = np.random.default_rng(seed)
    C = 4
    vm = VoxelMap(voxel_size=1.0, num_classes=C, n_horizon=H)
    for k in range(n_scans):
        xyz = rng.uniform(0, 3, size=(30, 3))
        vm.integrate_scan(cloud(xyz, rng.dirichlet(np.full(C, 0.3), 30)), k)
    queries = rng.uniform(-1, 4, size=(200, 3))  # some land outside the map
    expect, expect_found = vm.lookup_points(queries, saved)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.svx")
        vm.save(path, horizon=saved)
        again = VoxelMap.load(path)
    for horizon in ("infinite", "finite"):
        probs, found = again.lookup_points(queries, horizon)
        np.testing.assert_array_equal(found, expect_found)
        # the snapshot stores float32 log-probabilities
        np.testing.assert_allclose(probs, expect, atol=1e-5)


def test_pseudolabel_from_finite_horizon_map(tmp_path):
    """A map saved with the finite horizon still labels cells when the
    pseudo-label stage reads it back with that horizon."""
    out = str(tmp_path / "log")
    runner.generate_log(scene_path("person_wall"), out, seed=0)
    cfg = RunConfig.load(os.path.join(out, "config.json"),
                         output_dir=str(tmp_path / "out"), horizon="finite")
    runner.run_fuse(cfg)
    runner.run_map(cfg)
    assert runner.run_pseudolabel(cfg)["labeled_cells"] > 0


# --- memory bound -----------------------------------------------------------


def test_max_voxels_evicts_oldest():
    vm = VoxelMap(voxel_size=1.0, num_classes=3, max_voxels=10)
    for k in range(20):
        vm.integrate_scan(cloud([[k + 0.5, 0.5, 0.5]], [one_hot(0, 3)]), k)
    assert len(vm) == 10
    # recent voxels survive, early ones are gone
    assert (19, 0, 0) in vm
    assert (0, 0, 0) not in vm


def test_max_voxels_keeps_queries_consistent(rng):
    vm = VoxelMap(num_classes=3, max_voxels=50)
    for k in range(8):
        pts = rng.uniform(-6, 6, size=(100, 3))
        vm.integrate_scan(cloud(pts, rng.dirichlet(np.ones(3), 100)), k)
    assert len(vm) <= 50
    out = vm.export_cloud()
    np.testing.assert_allclose(out.probs.sum(axis=-1), 1.0, atol=1e-9)


def test_voxel_allocated_after_eviction_starts_empty():
    """A new voxel reuses an evicted voxel's row without inheriting its
    points, position or class evidence."""
    vm = VoxelMap(voxel_size=1.0, num_classes=3, n_horizon=2, max_voxels=1)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    vm.integrate_scan(cloud([[5.5, 0.5, 0.5]], [one_hot(1, 3)]), 1)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(2, 3)]), 2)
    assert len(vm) == 1
    q = vm.query_voxel((0, 0, 0))
    assert q.n_points == 1
    np.testing.assert_allclose(q.mean_pos, [0.5, 0.5, 0.5])
    for horizon in ("infinite", "finite"):
        np.testing.assert_allclose(vm.query_voxel((0, 0, 0), horizon).probs,
                                   one_hot(2, 3), atol=1e-9)
