import os
import struct

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from semfuse.fusion import DEFAULT_CLUSTER_FACTOR, cluster_bbox_points, detection_distribution
from semfuse.geometry import APPLY_BLOCK_ROWS, invert, project_pinhole
from semfuse.labels import EPS_FLOOR, LabelSet, bayes_fuse, log_normalize
from semfuse.voxelmap import pack_keys, voxel_keys

SCENES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                          "semfuse", "scenes")


def scene_path(name: str) -> str:
    return os.path.abspath(os.path.join(SCENES_DIR, name + ".json"))


@pytest.fixture(scope="session")
def labelset() -> LabelSet:
    return LabelSet.default()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


def assert_blank_range_image(img, model):
    """A range image with no valid cell: every field at its fill value."""
    H, W = model.height, model.width
    assert img.range.dtype == np.float64 and img.range.shape == (H, W)
    assert (img.range == -1.0).all()
    assert img.xyz.dtype == np.float64 and img.xyz.shape == (H, W, 3)
    assert not img.xyz.any()
    assert img.cell_index.dtype == np.int64 and (img.cell_index == -1).all()
    assert img.intensity is None


# --- the per-row read computation, kept as an oracle --------------------------
# Before reads shared a whole-map view, every read of a VoxelMap normalized
# the rows it read on their own. These helpers keep that computation, from
# the map's private state, so tests can check reads bit for bit against it.


def parent_log_state(vm, rows, horizon="infinite") -> np.ndarray:
    if horizon == "infinite":
        L = np.take(vm._L_inf, rows, axis=0)
    else:
        L = np.take(vm._ring, rows, axis=0).sum(axis=1)
    return log_normalize(L, axis=-1)


def parent_distributions(vm, rows, horizon="infinite") -> np.ndarray:
    p = parent_log_state(vm, rows, horizon)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def parent_classes(vm, horizon="infinite") -> np.ndarray:
    """Class of every row, in row order."""
    return np.argmax(parent_distributions(vm, np.arange(len(vm)), horizon), axis=-1)


def parent_export(vm, horizon="infinite") -> tuple[np.ndarray, np.ndarray]:
    """(xyz, probs) of `export_cloud`, in sorted-key order."""
    _, rows = vm.sorted_index()
    return (vm._pos_sum[rows] / vm._n_points[rows][:, None],
            parent_distributions(vm, rows, horizon))


def parent_lookup(vm, xyz, horizon="infinite") -> tuple[np.ndarray, np.ndarray]:
    """(probs, found) of `lookup_points`."""
    rows = vm.rows_for_points(xyz)
    found = rows >= 0
    probs = np.full((len(rows), vm.num_classes), 1.0 / vm.num_classes)
    hit_rows, inv = np.unique(rows[found], return_inverse=True)
    probs[found] = parent_distributions(vm, hit_rows, horizon)[inv]
    return probs, found


def snapshot_records(path) -> bytes:
    """The record bytes of a snapshot file, after its header."""
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    return data[8 + hlen:]


def parent_records(vm, horizon="infinite") -> bytes:
    """The records `save` wrote when it normalized the sorted rows alone."""
    _, rows = vm.sorted_index()
    rec = np.zeros(len(rows), dtype=vm._record_dtype(vm.num_classes))
    rec["key"] = vm._row_packed[rows]
    rec["mean"] = (vm._pos_sum[rows] / vm._n_points[rows][:, None]).astype(np.float32)
    rec["n_points"] = vm._n_points[rows].astype(np.uint32)
    rec["logp"] = parent_log_state(vm, rows, horizon).astype(np.float32)
    return rec.tobytes()


def finite_distributions(vm, keys, path) -> np.ndarray:
    """Finite-horizon distributions of the voxels of `keys`. The map's one
    finite read of them is its finite snapshot: its records equal the
    per-row computation's bit for bit, so that computation's float64 rows
    are the state `save` wrote before the float32 cast."""
    vm.save(path, horizon="finite")
    assert snapshot_records(path) == parent_records(vm, "finite")
    return parent_distributions(vm, vm.rows_for_keys(np.asarray(keys)), "finite")


# --- the serial scan path, kept as an oracle ----------------------------------
# Before the scan path ran its independent parts on a worker thread, every
# kernel of `apply`, `sample_bilinear`, `fuse_cloud` and `integrate_scan` ran
# on the calling thread in the order below. These copies keep that
# computation, so tests can check the split code bit for bit against it.


def serial_apply(T, points):
    p = np.asarray(points, dtype=np.float64)
    R = T[:3, :3].T
    out = np.empty(p.shape)
    for i in range(0, len(p), APPLY_BLOCK_ROWS):
        np.matmul(p[i:i + APPLY_BLOCK_ROWS], R, out=out[i:i + APPLY_BLOCK_ROWS])
    out += T[:3, 3]
    return out


def serial_sample_bilinear(grid, u, v):
    H, W, C = grid.shape
    uc = np.clip(u, 0.0, W - 1.0)
    vc = np.clip(v, 0.0, H - 1.0)
    u0 = np.floor(uc).astype(int)
    v0 = np.floor(vc).astype(int)
    u1 = np.minimum(u0 + 1, W - 1)
    v1 = np.minimum(v0 + 1, H - 1)
    fu = (uc - u0)[..., None]
    fv = (vc - v0)[..., None]
    cells = grid.reshape(H * W, C)
    v0 *= W
    v1 *= W
    gu, gv = 1 - fu, 1 - fv
    val = np.take(cells, v0 + u0, axis=0).astype(np.float64, copy=False)
    val *= gu
    val *= gv
    for row, col, wu, wv in ((v0, u1, fu, gv), (v1, u0, gu, fv), (v1, u1, fu, fv)):
        term = np.take(cells, row + col, axis=0).astype(np.float64, copy=False)
        term *= wu
        term *= wv
        val += term
    return val


def serial_fuse_cloud(xyz, t_scan, lidar_probs, views, traj, T_base_lidar, model,
                      num_classes, s=DEFAULT_CLUSTER_FACTOR, intensity=None):
    """(xyz, probs, intensity) of the cloud `fuse_cloud` returns."""
    xyz = np.asarray(xyz, dtype=np.float64)
    n = len(xyz)
    if lidar_probs is None:
        probs = np.full((n, num_classes), 1.0 / num_classes)
    else:
        probs = np.array(lidar_probs, dtype=np.float64)
    cams = []
    for view in views:
        T_w_base_l = traj.interpolate(t_scan).matrix()
        if view.t == t_scan:
            T_motion = np.eye(4)
        else:
            T_motion = invert(traj.interpolate(view.t).matrix()) @ T_w_base_l
        p_cam = serial_apply(view.cam.T_cam_base @ T_motion @ T_base_lidar, xyz)
        u, v, inside = project_pinhole(p_cam, view.cam)
        idx = np.flatnonzero(inside)
        u, v = np.take(u, idx), np.take(v, idx)
        cams.append((idx, u, v, p_cam[idx, 2]))
        img_p = serial_sample_bilinear(view.frame.probs, u, v)
        img_p /= img_p.sum(axis=-1, keepdims=True)
        probs[idx] = bayes_fuse(np.take(probs, idx, axis=0), img_p)
    pre_detection = [np.take(probs, idx, axis=0) if view.detections else None
                     for view, (idx, _, _, _) in zip(views, cams)]
    for view, (rows, u, v, depth), pre in zip(views, cams, pre_detection):
        dets = sorted(view.detections, key=lambda d: (0 if d.source == "rgb" else 1, -d.score))
        for det in dets:
            in_bbox = np.flatnonzero(det.contains(u, v))
            if len(in_bbox) == 0:
                continue
            idx = rows[in_bbox]
            member, _, _ = cluster_bbox_points(xyz[idx], depth[in_bbox], model, s)
            mem = in_bbox[member]
            det_p = detection_distribution(det, u[mem], v[mem], num_classes)
            probs[rows[mem]] = bayes_fuse(probs[rows[mem]], det_p)
            out = in_bbox[~member]
            out = out[np.argmax(probs[rows[out]], axis=-1) == det.class_index]
            probs[rows[out]] = pre[out]
    if intensity is not None:
        intensity = np.asarray(intensity, dtype=np.float64)
    return xyz, probs, intensity


def serial_integrate_scan(vm, cloud, scan_id):
    """`vm.integrate_scan(cloud, scan_id)` of a valid scan, through the map's
    private state."""
    xyz = np.asarray(cloud.xyz, dtype=np.float64)
    probs = np.asarray(cloud.probs, dtype=np.float64)
    packed = pack_keys(voxel_keys(xyz, vm.voxel_size))
    vm.last_scan_id = scan_id
    vm._views.clear()
    vm._classes.clear()
    n = len(xyz)
    if n == 0:
        return
    order = np.argsort(packed)
    sp = np.take(packed, order)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sp[1:], sp[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    counts = np.diff(starts, append=n)
    logs = np.maximum(probs, EPS_FLOOR)
    np.log(logs, out=logs)
    first = np.take(order, starts)
    scan_L = np.take(logs, first, axis=0)
    pos = np.take(xyz, first, axis=0)
    shared = counts > 1
    several = np.flatnonzero(shared)
    indptr = np.zeros(len(several) + 1, dtype=np.int64)
    np.cumsum(np.take(counts, several), out=indptr[1:])
    M = csr_matrix((np.ones(indptr[-1]), order[np.repeat(shared, counts)], indptr),
                   shape=(len(several), n))
    M.sort_indices()
    scan_L[several] = log_normalize(M @ logs, axis=-1)
    pos[several] = M @ xyz
    rows = vm._rows_for(np.take(sp, starts))
    for axis in range(3):
        total, column = vm._pos_sum[:, axis], pos[:, axis]
        column += total[rows]
        total[rows] = column
    vm._n_points[rows] += counts
    L = np.take(vm._L_inf, rows, axis=0)
    L += scan_L
    vm._L_inf[rows] = L
    H = vm.n_horizon
    if H is not None:
        n_scans = np.take(vm._n_scans, rows)
        slot = rows * H
        slot += n_scans % H
        vm._ring.reshape(-1, vm.num_classes)[slot] = scan_L
        n_scans += 1
        vm._n_scans[rows] = n_scans


def map_state(vm) -> dict:
    """Every per-voxel array of the map up to its size, its sorted index and
    its last scan id."""
    n = len(vm)
    state = {name: getattr(vm, name)[:n].copy() for name in vm._PER_VOXEL}
    state.update(sorted_packed=vm._sorted_packed.copy(), sorted_rows=vm._sorted_rows.copy(),
                 last_scan_id=vm.last_scan_id)
    return state


def assert_same_bits(a, b, what="") -> None:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0 here."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape), what
    assert a.tobytes() == b.tobytes(), what


def assert_same_state(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for name in a:
        assert_same_bits(a[name], b[name], name)
