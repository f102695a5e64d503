import json
import os
import re
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import labels as labels_module
from semfuse import runner
from semfuse.fusion import SemanticCloud
from semfuse.labels import EPS_FLOOR, InvalidInputError, bayes_fuse, log_normalize
from semfuse.runner import RunConfig
from semfuse.voxelmap import (VoxelMap, pack_keys, unpack_keys, voxel_keys)
from tests.conftest import (assert_same_state, finite_distributions, map_state,
                            parent_classes, parent_distributions, parent_export,
                            parent_lookup, parent_records, scene_path,
                            serial_integrate_scan, snapshot_records)


def cloud(xyz, probs):
    return SemanticCloud(np.asarray(xyz, float), np.asarray(probs, float))


def probs_at(vm, key):
    """Distribution of the voxel at integer key `key`."""
    return vm.distributions(vm.rows_for_keys(np.array([key])))[0]


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


@pytest.mark.parametrize("kwargs, name", [
    ({"voxel_size": np.nan}, "voxel_size"),
    ({"voxel_size": np.inf}, "voxel_size"),
    ({"voxel_size": -0.5}, "voxel_size"),
    ({"num_classes": 0}, "num_classes"),
    ({"num_classes": 1}, "num_classes"),
])
def test_constructor_rejects_out_of_contract_by_name(kwargs, name):
    with pytest.raises(InvalidInputError, match=name):
        VoxelMap(**kwargs)


def test_smallest_valid_parameters_work():
    vm = VoxelMap(voxel_size=1e-3, num_classes=2)
    vm.integrate_scan(cloud([[0.0, 0, 0], [1.0, 0, 0]], [[0.9, 0.1]] * 2), 0)
    assert len(vm) == 2


def test_default_map_keeps_no_ring():
    vm = VoxelMap(num_classes=3)
    assert vm.n_horizon is None
    assert not hasattr(vm, "_ring") and not hasattr(vm, "_n_scans")
    # growth runs on the ring-less columns alike
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    for k in range(3):
        vm.integrate_scan(cloud(np.c_[np.arange(1000.0) + 1000 * k,
                                      np.zeros((1000, 2))],
                                np.tile(one_hot(k, 3), (1000, 1))), k)
    assert len(vm) == 3000 and not hasattr(vm, "_ring")
    assert probs_at(vm, (2500, 0, 0)).argmax() == 2


def assert_finite_reads_raise(vm, path):
    """Both finite-horizon reads of `vm` raise by name, and a finite save
    writes no file."""
    calls = [lambda: vm.save(path, horizon="finite"),
             lambda: vm.per_class_voxel_counts("finite")]
    for call in calls:
        with pytest.raises(InvalidInputError, match="without n_horizon") as info:
            call()
        assert "a snapshot holds one state" in str(info.value)
    assert not os.path.exists(path)


@pytest.mark.parametrize("empty", [False, True])
def test_finite_query_on_default_map_raises(tmp_path, empty):
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    if not empty:
        vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(1, 3)]), 0)
    assert_finite_reads_raise(vm, tmp_path / "finite.svx")
    # the infinite horizon answers; its snapshot, loaded, keeps no ring either
    path = tmp_path / "map.svx"
    vm.save(path)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    assert json.loads(data[8: 8 + hlen])["n_horizon"] is None
    loaded = VoxelMap.load(path)
    assert loaded.n_horizon is None and not hasattr(loaded, "_ring")
    # the snapshot stores float32 log-probabilities
    np.testing.assert_allclose(loaded.export_cloud().probs, vm.export_cloud().probs,
                               atol=1e-6)
    assert_finite_reads_raise(loaded, tmp_path / "finite.svx")


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


def oracle_scan(kind, rng, C, size):
    """(xyz, probs) of a scan of `kind`: a few points, or only lone voxels
    (one point each), only shared voxels (2-9 points each) or a mix."""
    few = {"empty": 0, "one": 1, "two": 2, "three": 3}
    if kind in few:
        xyz = rng.uniform(0, 2 * size, (few[kind], 3))
    elif kind == "lone":
        keys = rng.choice(40 ** 3, 3000, replace=False)
        xyz = (np.column_stack(np.unravel_index(keys, (40, 40, 40))) + 0.5) * size
    elif kind == "shared":
        keys = rng.integers(-20, 20, (400, 3))
        xyz = np.repeat(keys + 0.5, rng.integers(2, 10, 400), axis=0) * size
        xyz = rng.permutation(xyz + rng.uniform(-0.4, 0.4, xyz.shape) * size)
    else:
        xyz = rng.uniform(-8, 8, (20_000, 3)) * size
    return xyz, rng.dirichlet(np.full(C, 0.1), len(xyz))


@pytest.mark.parametrize("kind", ["empty", "one", "two", "three", "lone", "shared", "mixed"])
@pytest.mark.parametrize("n_horizon", [None, 2])
def test_integrate_scan_matches_the_serial_oracle(kind, n_horizon):
    """Scan after scan, the map's state has the bits of the serial
    integration: for 0-3 points, and for scans of only lone voxels, only
    shared voxels or both."""
    C, size = 6, 0.5
    rng = np.random.default_rng(len(kind))
    vm, ref = (VoxelMap(voxel_size=size, num_classes=C, n_horizon=n_horizon)
               for _ in range(2))
    for k in range(4):
        scan = cloud(*oracle_scan(kind, rng, C, size))
        vm.integrate_scan(scan, k)
        serial_integrate_scan(ref, scan, k)
        assert_same_state(map_state(vm), map_state(ref))


def test_out_of_range_scan_is_rejected_before_scan_id_moves():
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    with pytest.raises(InvalidInputError, match="21-bit"):
        vm.integrate_scan(cloud([[0.5, 0, 0], [2.0 ** 21, 0, 0]],
                                [one_hot(0, 3)] * 2), 0)
    assert vm.last_scan_id is None and len(vm) == 0
    vm.integrate_scan(cloud([[0.5, 0, 0]], [one_hot(0, 3)]), 0)
    assert vm.last_scan_id == 0 and len(vm) == 1


@pytest.mark.parametrize("shape", [(2, 4), (2, 2), (3, 3), (2,)])
def test_probs_of_another_shape_are_rejected_before_scan_id_moves(shape):
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    with pytest.raises(InvalidInputError, match=r"probs shape .* != \(2, 3\)"):
        vm.integrate_scan(cloud([[0.5, 0, 0], [2.5, 0, 0]], np.full(shape, 0.25)), 0)
    assert vm.last_scan_id is None and len(vm) == 0


def test_contains_and_len():
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1], [1.1, 0, 0]],
                            [one_hot(0, 3), one_hot(1, 3)]), 0)
    assert len(vm) == 2
    found, missing = vm.rows_for_keys(np.array([[0, 0, 0], [9, 9, 9]]))
    assert found >= 0 and missing == -1


@pytest.mark.parametrize("shape", [(3, 2), (6, 2), (3, 4), (3,), (2, 3, 3)])
def test_points_of_another_width_are_rejected_before_scan_id_moves(shape):
    """Points and keys are (N, 3): another shape is rejected by name at the
    key boundary, by every read and by `integrate_scan`, which then accepts
    the scan under the same id."""
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    bad = np.full(shape, 0.5)
    calls = [lambda: voxel_keys(bad, 1.0),
             lambda: vm.rows_for_points(bad),
             lambda: vm.rows_for_points(bad, among=np.array([0])),
             lambda: vm.lookup_points(bad),
             lambda: vm.integrate_scan(SemanticCloud(bad, np.full((len(bad), 3), 1 / 3)), 1),
             lambda: pack_keys(np.zeros(shape, dtype=np.int64)),
             lambda: vm.rows_for_keys(np.zeros(shape, dtype=np.int64))]
    for call in calls:
        with pytest.raises(InvalidInputError, match=r"shape \(N, 3\), got " + re.escape(str(shape))):
            call()
    assert vm.last_scan_id == 0 and len(vm) == 1
    vm.integrate_scan(cloud([[1.5, 0.5, 0.5]], [one_hot(1, 3)]), 1)
    assert vm.last_scan_id == 1 and len(vm) == 2
    assert vm.rows_for_points(np.zeros((0, 3))).shape == (0,)
    assert pack_keys(np.zeros((0, 3), dtype=np.int64)).shape == (0,)


# --- per-scan merge and horizons --------------------------------------------


def test_same_scan_points_merge_by_product():
    """Two co-voxel points in one scan fuse into a single per-scan state."""
    C = 3
    vm = VoxelMap(num_classes=C)
    a, b = one_hot(0, C, 0.8), one_hot(1, C, 0.6)
    vm.integrate_scan(cloud([[0.05, 0.05, 0.05], [0.2, 0.2, 0.2]], [a, b]), 0)
    assert len(vm) == 1
    np.testing.assert_allclose(probs_at(vm, (0, 0, 0)), bayes_fuse(a, b), atol=1e-9)
    assert vm._n_points[0] == 2


def test_finite_horizon_drops_old_scans(tmp_path):
    """With n_horizon=2 the finite state fuses only the last two scans while
    the infinite state fuses all three."""
    C = 4
    vm = VoxelMap(num_classes=C, n_horizon=2)
    ps = [one_hot(0, C, 0.7), one_hot(1, C, 0.7), one_hot(2, C, 0.7)]
    for k, p in enumerate(ps):
        vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [p]), k)
    fin = finite_distributions(vm, [(0, 0, 0)], tmp_path / "map.svx")[0]
    np.testing.assert_allclose(fin, bayes_fuse(ps[1], ps[2]), atol=1e-9)
    np.testing.assert_allclose(probs_at(vm, (0, 0, 0)), longdouble_fuse(ps), atol=1e-9)


def test_matches_longdouble_oracle(rng, tmp_path):
    C, n_scans = 5, 25
    vm = VoxelMap(num_classes=C, n_horizon=4)
    history = []
    for k in range(n_scans):
        p = rng.dirichlet(np.ones(C) * 0.5)
        history.append(p)
        vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [p]), k)
    np.testing.assert_allclose(probs_at(vm, (0, 0, 0)), longdouble_fuse(history), atol=1e-9)
    fin = finite_distributions(vm, [(0, 0, 0)], tmp_path / "map.svx")[0]
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
    for values in (np.log(np.maximum(probs, EPS_FLOOR))[order], xyz[order]):
        total = values[starts].copy()
        np.add.at(total, group[extra], values[extra])
        sums.append(total)
    states, pos = sums
    states[counts > 1] = log_normalize(states[counts > 1], axis=-1)
    return sp[starts], states, pos


def test_shared_voxels_sum_in_input_order_exactly(rng, tmp_path):
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
    got = {"finite": finite_distributions(vm, unpack_keys(keys), tmp_path / "map.svx"),
           "infinite": vm.distributions(rows)}
    for horizon, L in (("finite", finite), ("infinite", infinite)):
        expect = np.exp(log_normalize(np.array(L), axis=-1))
        expect /= expect.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(got[horizon], expect)
    out = vm.export_cloud()  # rows in packed-key order, as `keys`
    np.testing.assert_array_equal(out.xyz, np.array(pos_sum) / vm._n_points[rows][:, None])


def merge_case(kind, rng, C):
    """One scan's (xyz, probs) for voxel size 1, in scrambled order."""
    if kind == "one_crowded_voxel":
        xyz = np.concatenate([rng.uniform(0.01, 0.99, size=(500, 3)),
                              rng.uniform(1, 4, size=(60, 3))])
    elif kind == "all_alone":
        grid = np.stack(np.meshgrid(*[np.arange(-3, 4)] * 3), axis=-1)
        xyz = grid.reshape(-1, 3) + rng.uniform(0.01, 0.99, size=(343, 3))
    elif kind == "single_voxel":
        xyz = rng.uniform(-1.99, -1.01, size=(300, 3))
    elif kind == "clamp_edges":
        xyz = rng.uniform(0, 2, size=(80, 3))
    else:  # "negative_zero": a lone point on -0.0 among shared voxels
        xyz = np.concatenate([[[-0.0, 0.5, -0.0]], rng.uniform(1, 3, size=(60, 3))])
    n = len(xyz)
    probs = rng.dirichlet(np.full(C, 0.1), n)
    if kind == "clamp_edges":
        # exact one-hot rows: one entry at the top, the others below the clamp
        hot = rng.random(n) < 0.5
        probs[hot] = np.eye(C)[rng.integers(0, C, size=int(hot.sum()))]
    order = rng.permutation(n)
    if kind == "negative_zero":
        order = order[order != 0]
        order = np.concatenate([order[:30], [0], order[30:]])
    return xyz[order], probs[order]


@pytest.mark.parametrize("kind", ["one_crowded_voxel", "all_alone", "single_voxel",
                                  "clamp_edges", "negative_zero"])
def test_scan_merge_edge_cases_match_input_order_oracle(kind, rng):
    """One scan's stored log state, ring slot, position sum and point count
    equal, bit for bit (signs of zero included), the input-order oracle's
    per-scan sums added onto an empty voxel."""
    C = 5
    xyz, probs = merge_case(kind, rng, C)
    vm = VoxelMap(voxel_size=1.0, num_classes=C, n_horizon=2)
    vm.integrate_scan(cloud(xyz, probs), 0)
    keys, states, pos = reference_scan_states(xyz, probs, 1.0)
    rows = vm.rows_for_keys(unpack_keys(keys))
    assert len(vm) == len(keys) and (rows >= 0).all()
    packed = pack_keys(voxel_keys(xyz, 1.0))
    counts = np.array([np.count_nonzero(packed == k) for k in keys])
    for stored, expect in ((vm._L_inf[rows], 0.0 + states),
                           (vm._ring[rows, 0], states),
                           (vm._pos_sum[rows], 0.0 + pos),
                           (vm._n_points[rows], counts)):
        assert stored.tobytes() == expect.tobytes()
    if kind == "negative_zero":
        lone = vm.rows_for_keys(np.zeros((1, 3), dtype=np.int64))[0]
        assert vm._n_points[lone] == 1
        assert not np.signbit(vm._pos_sum[lone]).any()


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
    q = probs_at(vm, (0, 0, 0))
    assert np.all(np.isfinite(q))
    assert q.sum() == pytest.approx(1.0, abs=1e-9)
    # classes 0 and 1 saw identical evidence; class 2 never did
    assert q[2] < q[0]


# --- queries ----------------------------------------------------------------


def test_query_missing_voxel_is_none():
    vm = VoxelMap(num_classes=3)
    assert vm.rows_for_keys(np.array([[1, 2, 3]])).tolist() == [-1]


def test_mean_pos_inside_voxel_cube(rng):
    vm = VoxelMap(voxel_size=0.5, num_classes=3)
    pts = rng.uniform(0, 0.5, size=(40, 3))
    vm.integrate_scan(cloud(pts, np.tile(one_hot(0, 3), (40, 1))), 0)
    (mean_pos,) = vm.export_cloud().xyz
    np.testing.assert_allclose(mean_pos, pts.mean(axis=0), atol=1e-9)
    assert np.all(mean_pos >= 0) and np.all(mean_pos < 0.5)
    assert vm._n_points[0] == 40


def test_lookup_points_hits_and_misses():
    vm = VoxelMap(num_classes=4)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(2, 4)]), 0)
    probs, found = vm.lookup_points(np.array([[0.2, 0.2, 0.2], [5, 5, 5]]))
    assert found.tolist() == [True, False]
    np.testing.assert_allclose(probs[0], one_hot(2, 4), atol=1e-9)
    np.testing.assert_allclose(probs[1], np.full(4, 0.25), atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_query_is_rejected_by_name(value):
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5]], [one_hot(0, 3)]), 0)
    point = np.array([[0.5, 0.5, 0.5], [0.5, value, 0.5]])
    calls = [lambda: vm.lookup_points(point),
             lambda: vm.rows_for_points(point)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInputError, match="non-finite coordinate"):
                call()


@pytest.mark.parametrize("key", [(-0.5, 0, 0), (0.9, 0.2, 0.7), (0, np.nan, 0),
                                 pytest.param((1.0, -1.0, 0.0), id="integral-float")])
def test_non_integral_key_is_rejected_by_name(key):
    """Keys are of an integer dtype: a fractional float key names no voxel
    (truncating (-0.5, 0, 0) toward zero would answer voxel (0, 0, 0), which
    `lookup_points`, flooring the point, rightly places in voxel -1), and
    float keys of integral value such as 1.0 are refused like any other.
    The same key as integers is found."""
    vm = VoxelMap(voxel_size=1.0, num_classes=3)
    vm.integrate_scan(cloud([[1.5, -0.5, 0.5]], [one_hot(0, 3)]), 0)
    calls = [lambda: pack_keys(np.array([key])),
             lambda: vm.rows_for_keys(np.array([key])),
             lambda: vm.rows_for_keys(np.array([(1, -1, 0), key]))]
    for call in calls:
        with pytest.raises(InvalidInputError, match="keys must be integers, got dtype float64"):
            call()
    assert vm.rows_for_keys(np.array([[1, -1, 0], [0, 0, 0]])).tolist() == [0, -1]
    _, found = vm.lookup_points(np.array([[-0.5, 0.5, 0.5]]))
    assert not found[0]


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


def test_rows_for_points_among_rows_equals_masked_full_lookup(rng):
    """Searching only `among` gives the full lookup's rows where they are in
    `among` and -1 elsewhere: for subsets, duplicates, no rows and every
    row."""
    vm = VoxelMap(voxel_size=0.5, num_classes=3)
    for k in range(3):
        xyz = rng.uniform([-3 + k, -3, -1], [3 + k, 3, 1], (400, 3))
        vm.integrate_scan(cloud(xyz, [one_hot(k % 3, 3)] * 400), k)
    pts = rng.uniform([-4, -4, -1.5], [6, 4, 1.5], (2000, 3))
    full = vm.rows_for_points(pts)
    n = len(vm)
    for among in (rng.choice(n, n // 3, replace=False), rng.integers(0, n, 40),
                  np.array([n - 1, 0]), np.zeros(0, dtype=np.int64), np.arange(n)):
        got = vm.rows_for_points(pts, among=among)
        expect = np.where(np.isin(full, among), full, -1)
        np.testing.assert_array_equal(got, expect)
        assert got.dtype == np.int64
    assert 0 < (vm.rows_for_points(pts, among=np.arange(0, n, 2)) >= 0).sum() < (full >= 0).sum()
    for bad in ([-1], [n]):
        with pytest.raises(InvalidInputError, match="rows to search"):
            vm.rows_for_points(pts, among=np.array(bad))
    empty = VoxelMap(num_classes=3).rows_for_points(pts[:5], among=np.zeros(0, dtype=np.int64))
    assert empty.tolist() == [-1] * 5


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
    `lookup_points` gathers the same rows per point. On a map with a ring
    they answer from the infinite state, also after a read of `horizon`
    came first; the per-class counts of `horizon` follow the same rule."""
    C = 6
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for k in range(4):
        xyz = rng.uniform(-2, 2, (300, 3))
        vm.integrate_scan(cloud(xyz, rng.dirichlet(np.full(C, 0.4), 300)), k)
    np.testing.assert_array_equal(vm.per_class_voxel_counts(horizon),
                                  np.bincount(parent_classes(vm, horizon), minlength=C))
    p = vm.distributions(np.arange(len(vm)))
    np.testing.assert_array_equal(p, parent_distributions(vm, np.arange(len(vm))))
    cls = vm.voxel_classes(np.arange(len(vm)))
    np.testing.assert_array_equal(cls, np.argmax(p, axis=-1))
    rows = rng.integers(0, len(vm), 50)
    np.testing.assert_array_equal(vm.voxel_classes(rows), cls[rows])
    np.testing.assert_array_equal(vm.per_class_voxel_counts(),
                                  np.bincount(cls, minlength=C))
    pts = rng.uniform(-3, 3, (500, 3))
    rows = vm.rows_for_points(pts)
    probs, found = vm.lookup_points(pts)
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
    for x, y in zip(again.sorted_index(), vm.sorted_index()):
        np.testing.assert_array_equal(x, y)
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


def saved_snapshot(path, C=3):
    """A three-voxel snapshot: (header length, header dict, records copy)."""
    vm = VoxelMap(voxel_size=1.0, num_classes=C)
    vm.integrate_scan(cloud([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5], [2.5, 0.5, 0.5]],
                            [one_hot(k, C) for k in range(3)]), 0)
    vm.save(path)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    rec = np.frombuffer(data[8 + hlen:], dtype=vm._record_dtype(vm.num_classes)).copy()
    return data, hlen, json.loads(data[8: 8 + hlen]), rec


def with_records(data, hlen, rec):
    return data[: 8 + hlen] + rec.tobytes()


def without_field(data, hlen, name):
    header = json.loads(data[8: 8 + hlen])
    del header[name]
    blob = json.dumps(header).encode()
    return data[:4] + struct.pack("<I", len(blob)) + blob + data[8 + hlen:]


def spoiled(field, value):
    def edit(data, hlen, rec):
        rec[field][1] = value
        return with_records(data, hlen, rec)
    return edit


def duplicated(data, hlen, rec):
    rec["key"][2] = rec["key"][0]
    return with_records(data, hlen, rec)


def swapped(data, hlen, rec):
    rec[[1, 2]] = rec[[2, 1]]
    return with_records(data, hlen, rec)


def negative_key(data, hlen, rec):
    rec["key"][0] = -1
    return with_records(data, hlen, rec)


def old_magic(data, hlen, rec):
    """The layout before packed keys: int32 ix iy iz per record."""
    old = np.zeros(len(rec), dtype=[("key", "<i4", 3)] + rec.dtype.descr[1:])
    old["key"] = unpack_keys(rec["key"])
    for name in rec.dtype.names[1:]:
        old[name] = rec[name]
    return b"SFVX" + data[4: 8 + hlen] + old.tobytes()


@pytest.mark.parametrize("edit, what", [
    pytest.param(lambda d, h, r: d[:6], "truncated snapshot header",
                 id="cut-length-field"),
    pytest.param(lambda d, h, r: d[: 8 + h // 2], "truncated snapshot header",
                 id="cut-header"),
    pytest.param(lambda d, h, r: d[: 8 + h - 3] + d[8 + h:], "line 1",
                 id="cut-json"),
    pytest.param(lambda d, h, r: d[:-10], "partial record", id="partial-record"),
    pytest.param(lambda d, h, r: d[: 8 + h] + r[:2].tobytes(), "2 of 3 records",
                 id="missing-record"),
    pytest.param(lambda d, h, r: without_field(d, h, "voxel_size"),
                 "no 'voxel_size' field", id="no-voxel-size"),
    pytest.param(lambda d, h, r: without_field(d, h, "count"), "no 'count' field",
                 id="no-count"),
    pytest.param(spoiled("logp", np.nan), "record 1: non-finite logp", id="nan-logp"),
    pytest.param(spoiled("mean", np.nan), "record 1: non-finite mean", id="nan-mean"),
    pytest.param(spoiled("n_points", 0), "record 1: no points", id="no-points"),
    pytest.param(duplicated, "duplicate voxel key", id="duplicate-key"),
    pytest.param(swapped, "record 2: out-of-order voxel key", id="out-of-order-key"),
    pytest.param(negative_key, "record 0: negative voxel key", id="negative-key"),
    pytest.param(old_magic, "rebuild it", id="old-magic"),
])
def test_malformed_snapshot_raises_invalid_input_naming_file(tmp_path, edit, what):
    path = tmp_path / "map.svx"
    data, hlen, _, rec = saved_snapshot(path)
    bad = tmp_path / "bad.svx"
    bad.write_bytes(edit(data, hlen, rec))
    with pytest.raises(InvalidInputError) as info:
        VoxelMap.load(bad)
    assert str(bad) in str(info.value) and what in str(info.value)


def test_malformed_header_values_raise_invalid_input_naming_file(tmp_path):
    path = tmp_path / "map.svx"
    data, hlen, header, _ = saved_snapshot(path)
    records = data[8 + hlen:]
    # a header too wide for any map is refused before a map is sized by it,
    # with or without records behind it
    for change, body in (({"voxel_size": float("nan")}, records),
                         ({"voxel_size": "big"}, records),
                         ({"num_classes": 1}, records),
                         ({"num_classes": 3.0}, records),
                         ({"num_classes": 10**9}, records),
                         ({"num_classes": 10**9, "count": 0}, b""),
                         ({"num_classes": 256, "count": 0}, b""),
                         ({"count": -1}, b""),
                         ({"count": "3"}, records),
                         ([1, 2], records)):
        blob = json.dumps(change if isinstance(change, list)
                          else {**header, **change}).encode()
        path.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob + body)
        with pytest.raises(InvalidInputError, match=str(path)):
            VoxelMap.load(path)
    # the widest accepted header still loads
    blob = json.dumps({**header, "num_classes": 255, "count": 0}).encode()
    path.write_bytes(data[:4] + struct.pack("<I", len(blob)) + blob)
    assert VoxelMap.load(path).num_classes == 255


def test_loaded_map_accepts_new_scans(tmp_path):
    vm = VoxelMap(num_classes=3)
    vm.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(0, 3, 0.8)]), 0)
    path = tmp_path / "map.svx"
    vm.save(path)
    again = VoxelMap.load(path)
    again.integrate_scan(cloud([[0.1, 0.1, 0.1]], [one_hot(0, 3, 0.8)]), 0)
    expect = bayes_fuse(one_hot(0, 3, 0.8), one_hot(0, 3, 0.8))
    np.testing.assert_allclose(probs_at(again, (0, 0, 0)), expect, atol=1e-5)


def test_load_keeps_the_decoded_columns_without_a_second_copy(tmp_path, rng):
    """The decoded snapshot columns become the map's own arrays: a load
    peaks below twice the bytes the loaded map keeps (copying the columns
    into fresh capacity arrays peaked at about 2.5 times)."""
    vm = VoxelMap(voxel_size=0.25, num_classes=15)
    n = 20_000
    vm.integrate_scan(cloud(rng.uniform(0, 40, (n, 3)),
                            rng.dirichlet(np.ones(15), n)), 0)
    path = tmp_path / "map.svx"
    vm.save(path)
    tracemalloc.start()
    try:
        again = VoxelMap.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = again._PER_VOXEL + ("_sorted_packed", "_sorted_rows")
    kept = sum(getattr(again, name).nbytes for name in names)
    assert len(again) == len(vm) > 0.9 * n
    assert peak < 2 * kept, (peak, kept)
    assert not np.shares_memory(again._sorted_packed, again._row_packed)


def test_snapshot_header_naming_a_policy_still_loads(tmp_path, rng):
    """Older snapshots name a merge policy in their header; it is ignored, so
    they answer like the same snapshot without the field."""
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
        return m.lookup_points(queries)

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
def test_snapshot_answers_infinite_reads_with_saved_state(saved, H, n_scans, seed):
    """A reloaded map answers infinite queries with the state of the
    horizon it was saved with; it keeps no ring, so a finite query raises."""
    rng = np.random.default_rng(seed)
    C = 4
    vm = VoxelMap(voxel_size=1.0, num_classes=C, n_horizon=H)
    for k in range(n_scans):
        xyz = rng.uniform(0, 3, size=(30, 3))
        vm.integrate_scan(cloud(xyz, rng.dirichlet(np.full(C, 0.3), 30)), k)
    queries = rng.uniform(-1, 4, size=(200, 3))  # some land outside the map
    expect, expect_found = parent_lookup(vm, queries, saved)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.svx")
        vm.save(path, horizon=saved)
        again = VoxelMap.load(path)
    probs, found = again.lookup_points(queries)
    np.testing.assert_array_equal(found, expect_found)
    # the snapshot stores float32 log-probabilities
    np.testing.assert_allclose(probs, expect, atol=1e-5)
    with pytest.raises(InvalidInputError, match="without n_horizon"):
        again.per_class_voxel_counts("finite")


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


# --- whole-map views ---------------------------------------------------------


@pytest.fixture
def normalized_shapes(monkeypatch):
    """Shapes of the arrays passed to `labels.log_normalize`, in call order."""
    shapes = []
    original = labels_module.log_normalize

    def recording(L, axis=-1):
        shapes.append(np.shape(L))
        return original(L, axis=axis)

    monkeypatch.setattr(labels_module, "log_normalize", recording)
    return shapes


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def read_probes(vm, rng):
    """Rows (with repeats), points (some off the map) and keys to read."""
    n = len(vm)
    rows = rng.integers(0, n, 40) if n else np.zeros(0, dtype=np.int64)
    lo, hi = ((vm.keys_array.min(), vm.keys_array.max() + 1) if n else (0, 1))
    pts = rng.uniform(lo - 1, hi + 1, (300, 3)) * vm.voxel_size
    keys = vm.keys_array[rows[:5]]
    return rows, pts, keys


def subset_reads(vm, rows, pts, keys) -> dict:
    """Reads of some rows, points and keys; each answers from the infinite
    state."""
    probs, found = vm.lookup_points(pts)
    return {"distributions": vm.distributions(rows),
            "voxel_classes(rows)": vm.voxel_classes(rows),
            "lookup_points.probs": probs, "lookup_points.found": found,
            "rows_for_keys.distributions": vm.distributions(vm.rows_for_keys(keys))}


WHOLE_READS = ("save", "export_cloud", "voxel_classes", "per_class_voxel_counts")


def whole_reads(vm, horizon, path, first="save") -> dict:
    """Reads of the whole map: `save` and `per_class_voxel_counts` of
    `horizon`, the others of the infinite state."""
    def one(name):
        if name == "save":
            vm.save(path, horizon=horizon)
            return {"save": np.frombuffer(snapshot_records(path), dtype=np.uint8)}
        if name == "export_cloud":
            out = vm.export_cloud()
            return {"export_cloud.xyz": out.xyz, "export_cloud.probs": out.probs}
        if name == "voxel_classes":
            return {"voxel_classes()": vm.voxel_classes(np.arange(len(vm)))}
        return {"per_class_voxel_counts": vm.per_class_voxel_counts(horizon)}
    out = one(first)
    for name in WHOLE_READS:
        if name != first:
            out.update(one(name))
    return out


def parent_reads(vm, horizon, rows, pts, keys) -> dict:
    probs, found = parent_lookup(vm, pts)
    key_rows = vm.rows_for_keys(keys) if len(keys) else np.zeros(0, dtype=np.int64)
    dist = parent_distributions(vm, rows)
    cls = parent_classes(vm)
    xyz, export_probs = parent_export(vm)
    return {"distributions": dist,
            "voxel_classes(rows)": np.argmax(dist, axis=-1),
            "lookup_points.probs": probs, "lookup_points.found": found,
            "rows_for_keys.distributions": parent_distributions(vm, key_rows),
            "save": np.frombuffer(parent_records(vm, horizon), dtype=np.uint8),
            "export_cloud.xyz": xyz if len(vm) else np.zeros((0, 3)),
            "export_cloud.probs": export_probs,
            "voxel_classes()": cls,
            "per_class_voxel_counts": np.bincount(parent_classes(vm, horizon),
                                                  minlength=vm.num_classes)}


def assert_reads_match_parent(vm, horizon, rng, path, first="save"):
    """Subset reads on a map without views, whole-map reads (`first`
    leading), then the subset reads again, gathered from the views: all
    equal the per-row computation bit for bit."""
    rows, pts, keys = read_probes(vm, rng)
    expect = parent_reads(vm, horizon, rows, pts, keys)
    got = {"cold " + k: v for k, v in subset_reads(vm, rows, pts, keys).items()}
    got.update(whole_reads(vm, horizon, path, first))
    got.update({"warm " + k: v for k, v in subset_reads(vm, rows, pts, keys).items()})
    assert len(got) == 2 * 5 + 5
    for name, value in got.items():
        same(value, expect[name.split(" ")[-1]])
    return expect


def random_scans(rng, C, n_scans, lo=-3.0, hi=3.0, n=400, start=0):
    for k in range(start, start + n_scans):
        xyz = rng.uniform(lo, hi, (n, 3))
        probs = rng.dirichlet(np.full(C, 0.3), n)
        probs[::3] = rng.dirichlet(np.full(C, 30.0), len(probs[::3]))  # near-ties
        yield cloud(xyz, probs), k


def memo_map(case, rng, tmp_path):
    C = 5
    if case == "empty":
        return VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=3)
    for scan, k in random_scans(rng, C, 5):
        vm.integrate_scan(scan, k)
    if case == "loaded":
        vm.save(tmp_path / "source.svx", horizon="finite")
        vm = VoxelMap.load(tmp_path / "source.svx")
    return vm


@pytest.mark.parametrize("first", WHOLE_READS)
@pytest.mark.parametrize("horizon", ["infinite", "finite"])
@pytest.mark.parametrize("case", ["random", "loaded", "empty"])
def test_reads_equal_per_row_computation(case, horizon, first, tmp_path):
    rng = np.random.default_rng(7)
    vm = memo_map(case, rng, tmp_path)
    if case == "loaded" and horizon == "finite":
        # a snapshot holds one state: the loaded map keeps no ring
        assert not hasattr(vm, "_ring")
        assert_finite_reads_raise(vm, tmp_path / "map.svx")
        return
    expect = assert_reads_match_parent(vm, horizon, rng, tmp_path / "map.svx", first)
    if case != "empty":
        assert 0 < expect["lookup_points.found"].sum() < 300
    # a second round reads the views only
    assert_reads_match_parent(vm, horizon, rng, tmp_path / "map.svx", first)


def test_reads_on_random_maps_without_ring(tmp_path):
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        vm = VoxelMap(voxel_size=0.3, num_classes=2 + seed * 4)
        for scan, k in random_scans(rng, vm.num_classes, 1 + seed):
            vm.integrate_scan(scan, k)
        assert_reads_match_parent(vm, "infinite", rng, tmp_path / "map.svx")


def test_reads_follow_each_scan(tmp_path):
    """Views built before a scan are dropped by it."""
    rng = np.random.default_rng(11)
    C = 4
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    path = tmp_path / "map.svx"
    sizes = []
    # later scans reach new ground, so the map grows
    for scan, k in random_scans(rng, C, 4, n=300):
        scan.xyz[:, 0] += 2.0 * k
        vm.integrate_scan(scan, k)
        sizes.append(len(vm))
        for horizon in ("infinite", "finite"):
            assert_reads_match_parent(vm, horizon, rng, path)
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    # an empty scan moves last_scan_id and changes nothing
    before = vm.export_cloud().probs
    vm.integrate_scan(cloud(np.zeros((0, 3)), np.zeros((0, C))), 10)
    same(vm.export_cloud().probs, before)


@pytest.mark.parametrize("bad", ["nan probs", "nan xyz", "out of range", "old scan id"])
def test_rejected_scan_keeps_reads_and_views(bad, tmp_path, normalized_shapes):
    rng = np.random.default_rng(5)
    C = 4
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for scan, k in random_scans(rng, C, 3):
        vm.integrate_scan(scan, k)
    path = tmp_path / "map.svx"
    rows, pts, keys = read_probes(vm, rng)
    before = {h: {**whole_reads(vm, h, path), **subset_reads(vm, rows, pts, keys)}
              for h in ("infinite", "finite")}
    xyz, probs = rng.uniform(-3, 3, (50, 3)), rng.dirichlet(np.ones(C), 50)
    scan_id = 3
    if bad == "nan probs":
        probs[7, 1] = np.nan
    elif bad == "nan xyz":
        xyz[9, 2] = np.nan
    elif bad == "out of range":
        xyz[0, 0] = 2.0 ** 22
    else:
        scan_id = 2
    with pytest.raises(InvalidInputError):
        vm.integrate_scan(cloud(xyz, probs), scan_id)
    assert vm.last_scan_id == 2
    del normalized_shapes[:]
    for h in ("infinite", "finite"):
        after = {**whole_reads(vm, h, path), **subset_reads(vm, rows, pts, keys)}
        for name in before[h]:
            same(after[name], before[h][name])
    assert normalized_shapes == []  # every read came from the kept views


def test_writing_into_returned_arrays_changes_no_later_read(tmp_path):
    rng = np.random.default_rng(9)
    C = 4
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for scan, k in random_scans(rng, C, 3):
        vm.integrate_scan(scan, k)
    path = tmp_path / "map.svx"
    for horizon in ("infinite", "finite"):
        rows, pts, keys = read_probes(vm, rng)
        expect = parent_reads(vm, horizon, rows, pts, keys)
        for _ in range(2):
            got = {**whole_reads(vm, horizon, path),
                   **subset_reads(vm, rows, pts, keys)}
            for name, value in got.items():
                same(value, expect[name])
                if value.flags.writeable:
                    value[...] = 3 if value.dtype.kind != "b" else False


def test_one_normalization_serves_every_read_of_a_state(normalized_shapes, tmp_path):
    rng = np.random.default_rng(1)
    C = 6
    vm = VoxelMap(voxel_size=0.5, num_classes=C, n_horizon=2)
    for scan, k in random_scans(rng, C, 2):
        vm.integrate_scan(scan, k)
    V = len(vm)
    centres = vm.export_cloud().xyz
    pts = centres[[0, 0, 5, 9, 9, 9]]
    vm.integrate_scan(cloud(centres[:20], rng.dirichlet(np.ones(C), 20)), 2)
    assert len(vm) == V  # the new scan lands inside the map; views are gone

    def read_everything(m):
        m.distributions(np.array([4, 1, 4]))
        m.voxel_classes(np.array([2, 3]))
        m.distributions(m.rows_for_keys(m.keys_array[7:8]))
        m.lookup_points(pts)
        m.voxel_classes(np.arange(len(m)))
        m.save(os.devnull)
        m.export_cloud()
        m.per_class_voxel_counts()

    # the first read of a horizon, even of a few rows, normalizes every row
    # once; later reads of any kind gather from that
    del normalized_shapes[:]
    read_everything(vm)
    assert normalized_shapes == [(V, C)]
    # the finite horizon has its own view, which its two reads share
    vm.per_class_voxel_counts("finite")
    vm.save(os.devnull, horizon="finite")
    assert normalized_shapes == [(V, C), (V, C)]
    # a loaded map keeps the stored state as it is, and its first read
    # normalizes it once
    path = tmp_path / "map.svx"
    vm.save(path)
    del normalized_shapes[:]
    read_everything(VoxelMap.load(path))
    assert normalized_shapes == [(V, C)]
