"""File formats for sensor logs: calibration, trajectories, detections,
scans, and segmentation frames."""

from __future__ import annotations

import csv
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .fusion import Detection, SegmentationFrame, SemanticCloud
from .geometry import CameraModel, Pose, SphericalModel, Trajectory, check_finite, invert
from .labels import InvalidInputError


class ParseError(InvalidInputError):
    """Input file failed to parse or validate; message carries file context."""


@dataclass
class Calibration:
    camera: CameraModel
    lidar_model: SphericalModel
    T_base_lidar: np.ndarray

    def __post_init__(self):
        check_finite("lidar", T_base_lidar=self.T_base_lidar)

    def world_T_lidar(self, traj: Trajectory, t: float) -> np.ndarray:
        """The LiDAR's pose in the world at time `t`."""
        return traj.interpolate(t).matrix() @ self.T_base_lidar

    def world_T_cam(self, traj: Trajectory, t: float) -> np.ndarray:
        """The camera's (optical frame) pose in the world at time `t`."""
        return traj.interpolate(t).matrix() @ invert(self.camera.T_cam_base)


def sensor_calibration(block: dict, T_cam_base, T_base_lidar) -> Calibration:
    """The rig of a sensor block, a calibration file's or a scene's
    `sensors`, with the given extrinsics; a missing key raises KeyError."""
    c, l = block["camera"], block["lidar"]
    cam = CameraModel(fx=c["fx"], fy=c["fy"], cx=c["cx"], cy=c["cy"],
                      width=int(c["width"]), height=int(c["height"]),
                      T_cam_base=T_cam_base)
    model = SphericalModel(width=int(l["w"]), height=int(l["h"]),
                           f_up=np.deg2rad(l["f_up_deg"]),
                           f_down=np.deg2rad(l["f_down_deg"]),
                           r_max=l["r_max_m"])
    return Calibration(cam, model, T_base_lidar)


def load_calibration(path) -> Calibration:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    try:
        dist = cfg["camera"].get("distortion")
        if dist is not None and any(abs(d) > 0 for d in dist):
            raise InvalidInputError(
                "nonzero distortion is not supported; rectify inputs first")
        return sensor_calibration(
            cfg, np.array(cfg["camera"]["T_cam_base"], dtype=np.float64).reshape(4, 4),
            np.array(cfg["lidar"]["T_base_lidar"], dtype=np.float64).reshape(4, 4))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: invalid calibration: {e}") from e


def save_calibration(calib: Calibration, path) -> None:
    cam, model = calib.camera, calib.lidar_model
    cfg = {
        "camera": {
            "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "width": cam.width, "height": cam.height,
            "T_cam_base": np.asarray(cam.T_cam_base).reshape(-1).tolist(),
        },
        "lidar": {
            "T_base_lidar": np.asarray(calib.T_base_lidar).reshape(-1).tolist(),
            "w": model.width, "h": model.height,
            "f_up_deg": float(np.rad2deg(model.f_up)),
            "f_down_deg": float(np.rad2deg(model.f_down)),
            "r_max_m": model.r_max,
        },
    }
    with open(path, "w") as f:
        json.dump(cfg, f, indent=2)


TRAJECTORY_HEADER = ["t", "tx", "ty", "tz", "qw", "qx", "qy", "qz"]


def load_trajectory(path) -> Trajectory:
    poses = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty trajectory file") from None
        if [h.strip() for h in header] != TRAJECTORY_HEADER:
            raise ParseError(f"{path}:1: expected header {','.join(TRAJECTORY_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals = [float(x) for x in row]
                poses.append(Pose(vals[0], np.array(vals[1:4]), np.array(vals[4:8])))
            except (ValueError, IndexError, InvalidInputError) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    try:
        return Trajectory(poses)
    except InvalidInputError as e:
        raise ParseError(f"{path}: {e}") from e


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAJECTORY_HEADER)
        for p in traj.poses:
            writer.writerow([p.t, *p.translation, *p.rotation])


def load_detections(path, labelset) -> list[tuple[float, Detection]]:
    """JSON-lines detections: (timestamp, Detection) sorted by time."""
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                det = Detection(
                    class_index=labelset.index(obj["class"]),
                    score=obj["score"],
                    bbox=tuple(obj["bbox"]),
                    source=obj.get("source", "rgb"),
                )
                out.append((float(obj["t"]), det))
            except (json.JSONDecodeError, KeyError, ValueError,
                    InvalidInputError) as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    out.sort(key=lambda x: x[0])
    return out


def save_detections(dets: list[tuple[float, Detection]], labelset, path) -> None:
    with open(path, "w") as f:
        for t, d in dets:
            f.write(json.dumps({
                "t": t, "source": d.source,
                "class": labelset.names[d.class_index],
                "score": d.score, "bbox": list(d.bbox),
            }) + "\n")


def _write_npz(path, arrays: dict) -> None:
    """Write `arrays` as an npz that `np.load` reads, cheaper than
    `np.savez_compressed`: `xyz` barely compresses (about 1.1x) yet costs the
    most to deflate, so it is stored raw; every other entry is deflated at
    level 1, where probabilities and depth still compress 22x or more.
    Each entry is the bytes `np.lib.format.write_array` writes for a
    C-contiguous array, but its data goes to the archive from the array's
    own memory, with no chunked copy. Like numpy, appends ".npz" to a path
    that lacks it."""
    if not hasattr(path, "write"):
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for key, value in arrays.items():
            if key == "xyz":
                entry = zipfile.ZipInfo("xyz.npy")
                entry.compress_type = zipfile.ZIP_STORED
            else:
                entry = key + ".npy"  # by name, so it takes the archive's level
            a = np.asanyarray(value)
            if not a.flags.c_contiguous:
                a = np.ascontiguousarray(a)
            with zf.open(entry, "w", force_zip64=True) as f:
                np.lib.format.write_array_header_1_0(
                    f, np.lib.format.header_data_from_array_1_0(a))
                if a.size:
                    f.write(memoryview(a).cast("B"))


@contextmanager
def _read_npz(path):
    """Open an npz for a loader; any failure to read or decode it, a missing
    field included, becomes a ParseError that names the file."""
    try:
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as z:
            yield z
    except ParseError:
        raise
    except (OSError, EOFError, KeyError, ValueError, NotImplementedError,
            zipfile.BadZipFile, zlib.error) as e:
        raise ParseError(f"{path}: {e}") from e


def _finite(z, name: str, path) -> np.ndarray:
    """Field `name` as stored; a float field is rejected if any value is NaN
    or infinite."""
    a = z[name]
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ParseError(f"{path}: non-finite values in '{name}'")
    return a


def _per_point(z, name: str, path, xyz: np.ndarray) -> np.ndarray:
    """Field `name` as `_finite` reads it; rejected unless it has one row
    per row of `xyz`."""
    a = _finite(z, name, path)
    if a.shape[:1] != xyz.shape[:1]:
        raise ParseError(f"{path}: '{name}' has shape {a.shape}, 'xyz' has {xyz.shape}")
    return a


def save_scan(path, xyz: np.ndarray, intensity: np.ndarray | None,
              timestamp: float, scan_id: int,
              lidar_probs: np.ndarray | None = None,
              gt_class: np.ndarray | None = None,
              labelset_hash: str = "") -> None:
    data = {
        "xyz": np.asarray(xyz, dtype=np.float32),
        "t": np.float64(timestamp),
        "scan_id": np.int64(scan_id),
        "labelset_hash": np.str_(labelset_hash),
    }
    if intensity is not None:
        data["intensity"] = np.asarray(intensity, dtype=np.float32)
    if lidar_probs is not None:
        data["lidar_probs"] = np.asarray(lidar_probs, dtype=np.float32)
    if gt_class is not None:
        data["gt_class"] = np.asarray(gt_class, dtype=np.int16)
    _write_npz(path, data)


def _load_scan(path, optional: tuple[str, ...]) -> dict:
    """A scan's points, time, id and label-set hash, and each field of
    `optional` that it holds; the other fields stay unread."""
    with _read_npz(path) as z:
        xyz = _finite(z, "xyz", path)
        out = {"xyz": xyz, "t": float(z["t"]),
               "scan_id": int(z["scan_id"]), "labelset_hash": str(z["labelset_hash"])}
        for name in optional:
            if name in z:
                out[name] = _per_point(z, name, path, xyz)
    return out


def load_scan(path) -> dict:
    return _load_scan(path, ("intensity", "lidar_probs", "gt_class"))


def load_scan_points(path) -> dict:
    """`load_scan` without `lidar_probs` and `gt_class`, which stay unread."""
    return _load_scan(path, ("intensity",))


def save_frame(path, frame: SegmentationFrame, labelset_hash: str = "") -> None:
    data = {
        "probs": frame.probs.astype(np.float32, copy=False),
        "t": np.float64(frame.timestamp),
        "labelset_hash": np.str_(labelset_hash),
    }
    if frame.depth is not None:
        data["depth"] = frame.depth.astype(np.float32, copy=False)
    _write_npz(path, data)


def load_frame(path) -> tuple[SegmentationFrame, str]:
    # NaN depth means "no return", so depth is not checked
    with _read_npz(path) as z:
        depth = z["depth"] if "depth" in z else None
        frame = SegmentationFrame(_finite(z, "probs", path), depth=depth,
                                  timestamp=float(z["t"]))
        return frame, str(z["labelset_hash"])


def save_semantic_cloud(path, cloud, labelset_hash: str) -> None:
    data = {
        "xyz": cloud.xyz.astype(np.float32, copy=False),
        "probs": cloud.probs.astype(np.float32, copy=False),
        "t": np.float64(cloud.timestamp),
        "frame_id": np.str_(cloud.frame_id),
        "labelset_hash": np.str_(labelset_hash),
    }
    if cloud.intensity is not None:
        data["intensity"] = cloud.intensity.astype(np.float32, copy=False)
    _write_npz(path, data)


def load_semantic_cloud(path):
    with _read_npz(path) as z:
        xyz = _finite(z, "xyz", path)
        cloud = SemanticCloud(
            xyz=xyz,
            probs=_per_point(z, "probs", path, xyz),
            intensity=_per_point(z, "intensity", path, xyz) if "intensity" in z else None,
            frame_id=str(z["frame_id"]),
            timestamp=float(z["t"]),
        )
        return cloud, str(z["labelset_hash"])


def check_hash(expected: str, found: str, path) -> None:
    if expected and found and expected != found:
        raise ParseError(f"{path}: label-set hash {found} does not match {expected}")


def list_sorted(directory, suffix: str) -> list[str]:
    return sorted(os.path.join(directory, n) for n in os.listdir(directory)
                  if n.endswith(suffix))
