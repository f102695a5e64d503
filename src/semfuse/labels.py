"""Label-set definition and the categorical probability primitives shared by all modules.

Distributions are plain float64 numpy arrays of length C. Log states store
natural-log probabilities with logsumexp(L) == 0 after normalization.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np

# Probabilities are clamped to this floor before taking logs so log states
# never hold -inf.
EPS_FLOOR = 1e-30

DEFAULT_CLASSES = [
    ("person", True),
    ("bicycle", True),
    ("vehicle", True),
    ("building", False),
    ("road", False),
    ("sidewalk", False),
    ("vegetation", False),
    ("barrier", False),
    ("pole", False),
    ("traffic_sign", False),
    ("water", False),
    ("sky", False),
    ("terrain", False),
    ("object", False),
    ("unknown", False),
]

GROUND_CLASS_NAMES = ("road", "sidewalk", "vegetation")


class InvalidInputError(ValueError):
    """Raised when an operation receives values outside its contract."""


class DegenerateFusionWarning(RuntimeWarning):
    """Fusing two distributions with (near-)zero overlap; result fell back to uniform."""


@dataclass(frozen=True)
class LabelSet:
    """Ordered class identifiers with dynamic-foreground flags.

    The order is fixed by the config file and hashed; the hash is embedded in
    every output header so mismatched label sets are always detected.
    """

    names: tuple[str, ...]
    dynamic_mask: tuple[bool, ...]
    unknown_name: str | None = "unknown"

    def __post_init__(self):
        if len(self.names) < 2:
            raise InvalidInputError("label set needs at least 2 classes")
        if len(set(self.names)) != len(self.names):
            raise InvalidInputError("duplicate class names in label set")
        if len(self.dynamic_mask) != len(self.names):
            raise InvalidInputError("dynamic_mask length must match names")
        if self.unknown_name is not None and self.unknown_name not in self.names:
            raise InvalidInputError(f"unknown class {self.unknown_name!r} not in names")

    @property
    def num_classes(self) -> int:
        return len(self.names)

    @property
    def unknown_index(self) -> int | None:
        if self.unknown_name is None:
            return None
        return self.names.index(self.unknown_name)

    @property
    def dynamic_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.dynamic_mask) if d)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def config_dict(self) -> dict:
        return {
            "classes": [
                {
                    "name": n,
                    "dynamic": bool(d),
                    "unknown": n == self.unknown_name,
                }
                for n, d in zip(self.names, self.dynamic_mask)
            ]
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def default(cls) -> "LabelSet":
        names = tuple(n for n, _ in DEFAULT_CLASSES)
        dyn = tuple(d for _, d in DEFAULT_CLASSES)
        return cls(names, dyn)

    @classmethod
    def from_config(cls, cfg: dict) -> "LabelSet":
        classes = cfg["classes"]
        names = tuple(c["name"] for c in classes)
        dyn = tuple(bool(c.get("dynamic", False)) for c in classes)
        unknown = [c["name"] for c in classes if c.get("unknown", False)]
        if len(unknown) > 1:
            raise InvalidInputError("at most one class may be marked unknown")
        return cls(names, dyn, unknown[0] if unknown else None)

    @classmethod
    def load(cls, path) -> "LabelSet":
        """A label set saved by `save`; a file that is not JSON, lacks a
        key or breaks a rule of the label set raises InvalidInputError
        naming it."""
        with open(path) as f:
            try:
                return cls.from_config(json.load(f))
            except KeyError as e:
                raise InvalidInputError(f"{path}: label set has no {e} key") from e
            except (TypeError, ValueError) as e:
                raise InvalidInputError(f"{path}: {e}") from e

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.config_dict(), f, indent=2)


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalized exponential with max-subtraction for overflow safety."""
    c = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(c)):
        raise InvalidInputError("softmax input has non-finite entries")
    shifted = c - np.max(c, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def bayes_fuse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise product of independent class distributions, renormalized.

    Falls back to uniform (with a DegenerateFusionWarning) when the overlap
    mass is below EPS_FLOOR, e.g. for one-hot distributions on different
    classes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidInputError("distributions over different label sets")
    prod = a * b
    s = prod.sum(axis=-1, keepdims=True)
    degenerate = s[..., 0] < EPS_FLOOR
    if np.any(degenerate):
        warnings.warn("degenerate fusion: zero overlap, returning uniform",
                      DegenerateFusionWarning, stacklevel=2)
        prod = np.where(degenerate[..., None], 1.0, prod)
        s = prod.sum(axis=-1, keepdims=True)
    prod /= s
    return prod


def logsumexp(L: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(L))) factorizing out the largest summand."""
    L = np.asarray(L, dtype=np.float64)
    m = np.max(L, axis=axis, keepdims=True)
    rest = L - m
    np.exp(rest, out=rest)
    # the m-th summand contributes exactly 1; log1p of the remainder keeps
    # precision when the rest is tiny
    total = rest.sum(axis=axis, keepdims=True) - 1.0
    out = m + np.log1p(np.maximum(total, -1.0 + 1e-300))
    return np.squeeze(out, axis=axis)


def log_normalize(L: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift log values so that logsumexp == 0 along `axis`."""
    L = np.asarray(L, dtype=np.float64)
    if not np.all(np.isfinite(L)):
        raise InvalidInputError("log state has non-finite entries")
    return L - np.expand_dims(logsumexp(L, axis=axis), axis)


def exp_normalized(Ln: np.ndarray) -> np.ndarray:
    """Distributions from normalized log states along the last axis, in
    place: exp, then divide by each row's sum so that rounding leaves it
    summing to 1."""
    np.exp(Ln, out=Ln)
    Ln /= Ln.sum(axis=-1, keepdims=True)
    return Ln
