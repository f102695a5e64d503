import os

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
