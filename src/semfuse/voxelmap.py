"""Sparse allocentric semantic voxel map with log-space Bayesian fusion.

Voxels accumulate per-scan log class states; probability-space products of
many near-one-hot distributions underflow, so all fusion happens in log space
with factorized log-sum-exp normalization. A map built with `n_horizon`
also keeps a per-voxel ring buffer of the last n per-scan states for
finite-horizon snapshots and class counts; every other read answers from
the infinite-horizon state.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
from scipy.sparse import csr_matrix

from . import labels as lb
from .fusion import SemanticCloud
from .geometry import _point_rows
from .labels import InvalidInputError
from .parallel import beside, split_rows

SNAPSHOT_MAGIC = b"SFV2"
# the layout before records held packed keys (int32 ix iy iz per record)
_OLD_SNAPSHOT_MAGIC = b"SFVX"
# class ids leave the pipeline as uint8, with 255 kept for "unlabeled"; the
# bound keeps a corrupt snapshot header from sizing a map of absurd width
_MAX_SNAPSHOT_CLASSES = 255

DEFAULT_VOXEL_SIZE = 0.25

# voxel indices are packed into one int64 (21 bits per axis) so hashing and
# grouping stay on flat integer arrays
_KEY_BITS = 21
_KEY_OFFSET = 1 << (_KEY_BITS - 1)
_KEY_MASK = (1 << _KEY_BITS) - 1


def voxel_keys(xyz: np.ndarray, voxel_size: float) -> np.ndarray:
    """Integer voxel index per (N, 3) point, floor division (not truncation)
    so negative coordinates bin consistently. Other shapes are rejected by
    name, and so is a NaN or inf coordinate, which has no voxel (the cast
    would warn and wrap)."""
    scaled = _point_rows(xyz) / voxel_size
    bad = ~np.isfinite(scaled)
    if bad.any():
        at = tuple(np.argwhere(bad)[0])
        raise InvalidInputError(
            f"non-finite coordinate xyz{list(map(int, at))} = {scaled[at]}")
    return np.floor(scaled, out=scaled).astype(np.int64)


def pack_keys(keys: np.ndarray) -> np.ndarray:
    """One int64 per integer (N, 3) voxel key. Keys of another shape, and
    float keys, which `voxel_keys` would floor but a cast would truncate,
    are rejected by name."""
    keys = np.asarray(keys)
    if keys.ndim != 2 or keys.shape[1] != 3:
        raise InvalidInputError(f"voxel keys must have shape (N, 3), got {keys.shape}")
    if keys.dtype.kind not in "iu":
        raise InvalidInputError(f"voxel keys must be integers, got dtype {keys.dtype}")
    flat = keys.astype(np.int64, copy=False)
    if flat.size and (flat.min() < -_KEY_OFFSET or flat.max() > _KEY_MASK - _KEY_OFFSET):
        raise InvalidInputError("voxel index exceeds the 21-bit packing range")
    # offset fields are non-negative and disjoint, so shift-and-add packs them
    packed = flat[:, 0] + _KEY_OFFSET
    for axis in (1, 2):
        packed <<= _KEY_BITS
        packed += flat[:, axis]
        packed += _KEY_OFFSET
    return packed


def unpack_keys(packed: np.ndarray) -> np.ndarray:
    p = np.asarray(packed, dtype=np.int64)
    out = np.stack([(p >> (2 * _KEY_BITS)) & _KEY_MASK,
                    (p >> _KEY_BITS) & _KEY_MASK,
                    p & _KEY_MASK], axis=-1)
    return out - _KEY_OFFSET


def _clamped_logs(probs: np.ndarray, finite: np.ndarray, logs: np.ndarray,
                  scan_id: int) -> None:
    """log(max(probs, EPS_FLOOR)) into `logs`; NaN or infinite probs are
    rejected, with `finite` as scratch."""
    if not np.isfinite(probs, out=finite).all():
        raise InvalidInputError(f"scan {scan_id}: cloud probs has non-finite entries")
    np.maximum(probs, lb.EPS_FLOOR, out=logs)
    np.log(logs, out=logs)


def _merged_logs(M, logs: np.ndarray) -> np.ndarray:
    """The normalized sum of the logs each row of M lists."""
    return lb.log_normalize(M @ logs, axis=-1)


class VoxelMap:
    """Sparse hash from integer voxel index to fused semantic state.

    Storage is columnar (one row per voxel) so scan integration and queries
    stay vectorized; the key index is a sorted packed-int64 array queried by
    binary search. The infinite-horizon state accumulates every scan at
    integration time, so it equals Bayesian fusion of all scans that ever
    touched the voxel, and every read answers from it except two: `save`
    and `per_class_voxel_counts` also take `horizon="finite"`. Only a map
    built with `n_horizon` has that state: its ring holds the last
    `n_horizon` per-scan states, and older scans leave it. The default map
    keeps no ring (it would cost 8 * n_horizon * num_classes bytes per voxel
    and a write per scan), and a finite-horizon read of it raises
    InvalidInputError. The accumulated log state is kept unnormalized
    internally and reads normalize it via log-sum-exp. Reads of an unchanged
    map share one normalization: the first read of a horizon keeps that
    horizon's normalized log state in row order (8 * num_classes bytes per
    voxel), and the first read of classes keeps each row's class (8 bytes
    per voxel), until the next `integrate_scan` that moves `last_scan_id`.
    Every read, of one row or of all, gathers from them; normalization works
    row by row, so a gathered row has the bits of that row normalized alone.
    Every read returns a fresh array. A voxel keeps its row for the life of
    the map.
    """

    # the per-voxel arrays; row i of each describes one voxel. A map with a
    # finite horizon adds its ring arrays to its own copy of this tuple.
    _PER_VOXEL = ("_row_packed", "_L_inf", "_pos_sum", "_n_points")

    def __init__(self, voxel_size: float = DEFAULT_VOXEL_SIZE, num_classes: int = 15,
                 n_horizon: int | None = None, labelset_hash: str = ""):
        if not (math.isfinite(voxel_size) and voxel_size > 0):
            raise InvalidInputError(
                f"voxel_size must be finite and positive, got {voxel_size}")
        if num_classes < 2:
            raise InvalidInputError(f"num_classes must be >= 2, got {num_classes}")
        if n_horizon is not None and n_horizon < 1:
            raise InvalidInputError("n_horizon must be >= 1")
        self.voxel_size = float(voxel_size)
        self.num_classes = int(num_classes)
        self.n_horizon = None if n_horizon is None else int(n_horizon)
        self.labelset_hash = labelset_hash
        self.last_scan_id: int | None = None

        # sorted packed keys with their row numbers, for binary-search lookup
        self._sorted_packed = np.zeros(0, dtype=np.int64)
        self._sorted_rows = np.zeros(0, dtype=np.int64)

        cap = 1024
        C, H = self.num_classes, self.n_horizon
        self._row_packed = np.zeros(cap, dtype=np.int64)
        self._L_inf = np.zeros((cap, C))
        self._pos_sum = np.zeros((cap, 3))
        self._n_points = np.zeros(cap, dtype=np.int64)
        if H is not None:
            # ring is (voxel, horizon, class), so a voxel's slots are
            # contiguous; a voxel's k-th scan goes to slot k % H, and slots it
            # has not yet filled hold zeros, so summing all H slots sums the
            # scans it holds
            self._ring = np.zeros((cap, H, C))
            self._n_scans = np.zeros(cap, dtype=np.int64)
            self._PER_VOXEL = self._PER_VOXEL + ("_ring", "_n_scans")
        self._size = 0
        # whole-map views of the current state, per horizon: the normalized
        # log state and each row's class, in row order
        self._views: dict[str, np.ndarray] = {}
        self._classes: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self._size

    @property
    def keys_array(self) -> np.ndarray:
        return unpack_keys(self._row_packed[: self._size])

    def rows_for_keys(self, keys: np.ndarray) -> np.ndarray:
        """Row index per integer (N, 3) voxel key; -1 where the voxel is
        absent."""
        return self._lookup_packed(pack_keys(keys))

    def _lookup_packed(self, packed: np.ndarray,
                       among: np.ndarray | None = None) -> np.ndarray:
        """Row per packed key; -1 where the voxel is absent or, with `among`,
        its row is not one of `among`. Restricted, the search runs over a
        sorted index of those rows' keys only."""
        index, index_rows = self._sorted_packed, self._sorted_rows
        if among is not None:
            among = np.asarray(among, dtype=np.int64)
            if among.size and (among.min() < 0 or among.max() >= self._size):
                raise InvalidInputError(
                    f"rows to search must lie in [0, {self._size}), got "
                    f"{among.min()}..{among.max()}")
            index = np.take(self._row_packed, among)
            order = np.argsort(index)
            index, index_rows = np.take(index, order), np.take(among, order)
        if len(index) == 0:
            return np.full(len(packed), -1, dtype=np.int64)
        pos = np.searchsorted(index, packed)
        np.minimum(pos, len(index) - 1, out=pos)
        rows = np.take(index_rows, pos)
        rows[np.take(index, pos) != packed] = -1
        return rows

    def _grow(self, need: int):
        cap = len(self._n_points)
        if self._size + need <= cap:
            return
        new_cap = max(cap * 2, self._size + need)
        for name in self._PER_VOXEL:
            old = getattr(self, name)
            fresh = np.zeros((new_cap,) + old.shape[1:], dtype=old.dtype)
            fresh[: self._size] = old[: self._size]
            setattr(self, name, fresh)

    def _rows_for(self, unique_packed: np.ndarray) -> np.ndarray:
        """Rows for sorted unique packed keys, allocating missing voxels."""
        rows = self._lookup_packed(unique_packed)
        missing = rows < 0
        n_new = int(missing.sum())
        if n_new:
            self._grow(n_new)
            new_rows = np.arange(self._size, self._size + n_new)
            rows[missing] = new_rows
            new_packed = unique_packed[missing]
            self._row_packed[new_rows] = new_packed
            at = np.searchsorted(self._sorted_packed, new_packed)
            self._sorted_packed = np.insert(self._sorted_packed, at, new_packed)
            self._sorted_rows = np.insert(self._sorted_rows, at, new_rows)
            self._size += n_new
        return rows

    def integrate_scan(self, cloud, scan_id: int) -> None:
        """Fuse one semantic cloud (map frame) into the voxel grid.

        All of a scan's points falling in one voxel are first merged into a
        single per-scan log state (sum of clamped logs, renormalized), which
        is added to the voxel's infinite-horizon state and, with a finite
        horizon, pushed onto its ring buffer. A rejected scan (points not of
        shape (N, 3) included) leaves the map as it was.
        """
        if self.last_scan_id is not None and scan_id <= self.last_scan_id:
            raise InvalidInputError(
                f"scan_id {scan_id} not increasing (last {self.last_scan_id})")
        xyz = np.asarray(cloud.xyz, dtype=np.float64)
        probs = np.asarray(cloud.probs, dtype=np.float64)
        if probs.shape != (len(xyz), self.num_classes):
            raise InvalidInputError(
                f"scan {scan_id}: cloud probs shape {probs.shape} != "
                f"({len(xyz)}, {self.num_classes})")
        n = len(xyz)
        logs = np.empty(probs.shape)
        # the worker checks probs and takes their clamped logs while the
        # caller groups co-voxel points by sorting the packed keys; its
        # rejection comes first, as in serial order
        with beside(_clamped_logs, probs, np.empty(probs.shape, dtype=bool), logs,
                    scan_id):
            # rejects non-finite or out-of-range coordinates
            packed = pack_keys(voxel_keys(xyz, self.voxel_size))
            order = np.argsort(packed)
            sp = np.take(packed, order)
            boundary = np.empty(n, dtype=bool)
            boundary[:1] = True
            np.not_equal(sp[1:], sp[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            counts = np.diff(starts, append=n)
            # a shared voxel sums its points in input order: row j of M lists
            # the points of voxel several[j] in ascending (input) order, and a
            # product with M adds 1.0 * each listed row onto zeros in that
            # order (a -0.0 position sum reads +0.0, as it does once added to
            # the stored total)
            shared = counts > 1
            several = np.flatnonzero(shared)
            indptr = np.zeros(len(several) + 1, dtype=np.int64)
            np.cumsum(np.take(counts, several), out=indptr[1:])
            M = csr_matrix((np.ones(indptr[-1]), order[np.repeat(shared, counts)], indptr),
                           shape=(len(several), n))
            M.sort_indices()
        self.last_scan_id = scan_id
        self._views.clear()
        self._classes.clear()

        # the worker merges the shared voxels' logs while the caller gathers
        # the lone ones and updates positions: a lone point's clamped log of
        # a unit-sum row is already normalized up to float rounding, so a
        # lone voxel's state is its point's
        with beside(_merged_logs, M, logs) as merged:
            first = np.take(order, starts)
            scan_L = np.take(logs, first, axis=0)
            pos = np.take(xyz, first, axis=0)
            pos[several] = M @ xyz
            rows = self._rows_for(np.take(sp, starts))
            # positions column by column: 1-D gathers and scatters beat
            # row-wise ones on a 3-column array
            for axis in range(3):
                total, column = self._pos_sum[:, axis], pos[:, axis]
                column += total[rows]
                total[rows] = column
            self._n_points[rows] += counts
        scan_L[several] = merged.result()

        def accumulate(lo, hi):
            at = rows[lo:hi]
            L = np.take(self._L_inf, at, axis=0)
            L += scan_L[lo:hi]
            self._L_inf[at] = L

        # each voxel has one row, so the halves write disjoint rows
        split_rows(accumulate, len(rows))
        H = self.n_horizon
        if H is not None:
            n_scans = np.take(self._n_scans, rows)
            slot = rows * H
            slot += n_scans % H
            self._ring.reshape(-1, self.num_classes)[slot] = scan_L
            n_scans += 1
            self._n_scans[rows] = n_scans

    def _check_horizon(self, horizon: str) -> None:
        if horizon not in ("infinite", "finite"):
            raise InvalidInputError(f"unknown horizon {horizon!r}")
        if horizon == "finite" and self.n_horizon is None:
            raise InvalidInputError(
                "finite-horizon query on a map built without n_horizon; "
                "pass n_horizon to VoxelMap to keep the last scans, or read a "
                "loaded map as infinite: a snapshot holds one state")

    def _view(self, horizon: str = "infinite") -> np.ndarray:
        """Normalized log state of every row, in row order, kept until the
        map changes. The map's own array: readers copy out of it."""
        self._check_horizon(horizon)
        view = self._views.get(horizon)
        if view is None:
            n = self._size
            L = self._L_inf[:n] if horizon == "infinite" else self._ring[:n].sum(axis=1)
            view = self._views[horizon] = lb.log_normalize(L, axis=-1)
        return view

    def _row_classes(self, horizon: str = "infinite") -> np.ndarray:
        """Class of every row, in row order, kept like `_view`."""
        cls = self._classes.get(horizon)
        if cls is None:
            p = lb.exp_normalized(self._view(horizon).copy())
            cls = self._classes[horizon] = np.argmax(p, axis=-1)
        return cls

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        """Class distribution (len(rows), C) of each row in `rows`, gathered
        from the whole-map view."""
        return lb.exp_normalized(np.take(self._view(), rows, axis=0))

    def rows_for_points(self, xyz: np.ndarray,
                        among: np.ndarray | None = None) -> np.ndarray:
        """Row of the voxel holding each (N, 3) point; -1 where the voxel is
        unobserved. Index per-row views such as `voxel_classes` with it.

        `among` restricts the search to those rows: a point whose voxel has
        another row gets -1, and the points are searched among len(among)
        keys instead of the whole map's."""
        return self._lookup_packed(pack_keys(voxel_keys(xyz, self.voxel_size)), among)

    def voxel_classes(self, rows: np.ndarray) -> np.ndarray:
        """Class of each row in `rows`: the argmax of the voxel's
        distribution, not of its log state, since near-ties can resolve
        differently after exp. Every row's class is computed once per map
        state, by the first call."""
        return np.take(self._row_classes(), rows)

    def lookup_points(self, xyz: np.ndarray):
        """Per-point voxel distribution; returns (probs (N, C), found (N,)).

        Unobserved voxels yield found=False and a uniform placeholder row.
        Callers that need only each point's class read `rows_for_points`
        and `voxel_classes` instead of gathering (N, C) rows.
        """
        rows = self.rows_for_points(xyz)
        found = rows >= 0
        probs = np.full((len(rows), self.num_classes), 1.0 / self.num_classes)
        probs[found] = self.distributions(rows[found])
        return probs, found

    def export_cloud(self):
        """One point per voxel at its mean position, deterministic key order."""
        _, rows = self.sorted_index()
        probs = self.distributions(rows)
        mean = self._pos_sum[rows] / self._n_points[rows][:, None]
        return SemanticCloud(mean, probs, frame_id="map")

    def sorted_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed keys in ascending order and the row of each. Packed order is
        lexicographic (ix, iy, iz) key order because each axis occupies a
        fixed bit field. The arrays are the map's own: do not modify them."""
        return self._sorted_packed, self._sorted_rows

    def per_class_voxel_counts(self, horizon: str = "infinite") -> np.ndarray:
        """Voxels per class, by the `voxel_classes` rule."""
        return np.bincount(self._row_classes(horizon), minlength=self.num_classes)

    # --- snapshot format: one JSON header line, then fixed-size little-endian
    # records in ascending key order (int64 packed voxel key, float32 mean
    # xyz, uint32 n_points, C float32 log-probabilities) ---

    def save(self, path, horizon: str = "infinite") -> None:
        """Write one normalized state per voxel, from `horizon`. The header's
        `n_horizon` is null for a map built without one; `load` ignores it."""
        self._check_horizon(horizon)
        header = {
            "voxel_size": self.voxel_size,
            "num_classes": self.num_classes,
            "n_horizon": self.n_horizon,
            "labelset_hash": self.labelset_hash,
            "horizon": horizon,
            "count": int(self._size),
        }
        with open(path, "wb") as f:
            f.write(SNAPSHOT_MAGIC)
            blob = json.dumps(header).encode()
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            packed, rows = self.sorted_index()
            L = np.take(self._view(horizon), rows, axis=0).astype(np.float32)
            mean = (self._pos_sum[rows] / self._n_points[rows][:, None]
                    ).astype(np.float32)
            rec = np.zeros(len(rows), dtype=self._record_dtype(self.num_classes))
            rec["key"] = packed
            rec["mean"] = mean
            rec["n_points"] = self._n_points[rows].astype(np.uint32)
            rec["logp"] = L
            f.write(rec.tobytes())

    @staticmethod
    def _record_dtype(num_classes: int):
        return np.dtype([("key", "<i8"), ("mean", "<f4", 3),
                         ("n_points", "<u4"), ("logp", "<f4", num_classes)])

    @classmethod
    def load(cls, path) -> "VoxelMap":
        """Read a snapshot written by `save`.

        A snapshot holds one normalized state per voxel, from the horizon it
        was saved with. The loaded map keeps no ring: that state is its
        infinite state, which infinite reads answer with and new scans fuse
        on top of, and a finite-horizon read raises InvalidInputError. A
        malformed snapshot, or one of more than 255 classes, raises
        InvalidInputError naming the file; so does one of the layout before
        packed keys, which must be rebuilt.
        """
        with open(path, "rb") as f:
            data = f.read()
        try:
            return cls._from_snapshot(data)
        except KeyError as e:
            raise InvalidInputError(f"{path}: snapshot header has no {e} field") from e
        except (TypeError, ValueError) as e:
            raise InvalidInputError(f"{path}: {e}") from e

    @classmethod
    def _from_snapshot(cls, data: bytes) -> "VoxelMap":
        if data[:4] == _OLD_SNAPSHOT_MAGIC:
            raise InvalidInputError(
                "snapshot of the old layout (int32 voxel keys); rebuild it "
                "with `semfuse map`")
        if data[:4] != SNAPSHOT_MAGIC:
            raise InvalidInputError("not a voxel map snapshot")
        # a file cut inside the length field reads as a header it lacks
        end = 8 + (struct.unpack_from("<I", data, 4)[0] if len(data) >= 8 else 0)
        if len(data) < end:
            raise InvalidInputError("truncated snapshot header")
        header = json.loads(data[8:end])
        if not isinstance(header, dict):
            raise InvalidInputError("snapshot header is not a JSON object")
        # check the header against the file before the map is sized by it
        C, count = header["num_classes"], header["count"]
        if type(C) is not int or not 2 <= C <= _MAX_SNAPSHOT_CLASSES:
            raise InvalidInputError(
                f"num_classes must be an integer in [2, {_MAX_SNAPSHOT_CLASSES}], got {C!r}")
        if type(count) is not int or count < 0:
            raise InvalidInputError(f"count must be a non-negative integer, got {count!r}")
        dtype = cls._record_dtype(C)
        n_rec, partial = divmod(len(data) - end, dtype.itemsize)
        if partial:
            raise InvalidInputError("truncated snapshot: partial record")
        if n_rec != count:
            raise InvalidInputError(f"truncated snapshot: {n_rec} of {count} records")
        vm = cls(voxel_size=header["voxel_size"], num_classes=C,
                 labelset_hash=header.get("labelset_hash", ""))
        rec = np.frombuffer(data, dtype=dtype, offset=end)
        n = rec["n_points"].astype(np.int64)
        mean = rec["mean"].astype(np.float64)
        logp = rec["logp"].astype(np.float64)
        for name, values in (("mean", mean), ("logp", logp)):
            finite = np.isfinite(values)
            if not finite.all():
                raise InvalidInputError(
                    f"record {np.argwhere(~finite)[0, 0]}: non-finite {name}")
        if not n.all():
            raise InvalidInputError(f"record {np.argmin(n)}: no points")
        # packed keys are non-negative, and sorted records make them the index
        keys = rec["key"].astype(np.int64)
        unsorted = keys[1:] <= keys[:-1]
        if unsorted.any():
            i = np.argmax(unsorted) + 1
            what = "duplicate" if keys[i] in keys[:i] else "out-of-order"
            raise InvalidInputError(f"record {i}: {what} voxel key {keys[i]}")
        if (keys[:1] < 0).any():
            raise InvalidInputError(f"record 0: negative voxel key {keys[0]}")
        # the decoded columns are fresh arrays, so they become the map's own
        # at capacity len(rec); the sorted index is a copy of the row keys
        vm._L_inf = logp
        vm._pos_sum = mean * n[:, None]
        vm._n_points = n
        vm._row_packed = keys
        vm._sorted_packed = keys.copy()
        vm._sorted_rows = np.arange(len(rec))
        vm._size = len(rec)
        return vm
