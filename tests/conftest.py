import os
import struct

import numpy as np
import pytest

from semfuse.labels import LabelSet, log_normalize

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
