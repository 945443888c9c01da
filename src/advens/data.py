"""Classification tasks on the unit box.

Two seeded synthetic generators (Gaussian blobs with a controllable margin,
concentric rings for a curved boundary) plus an IDX reader/writer for
MNIST-format files. Every dataset this module emits has inputs in [0,1]^d.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ConsistencyError, DomainError, FormatError, ShapeError, TruncatedFileError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Immutable (inputs, labels) pair with inputs in the unit box."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int
    name: str
    seed: int

    def __post_init__(self):
        x, y = self.inputs, self.labels
        if x.ndim != 2 or y.ndim != 1:
            raise ShapeError("inputs must be 2-d and labels 1-d")
        if x.shape[0] != y.shape[0]:
            raise ConsistencyError(
                f"{x.shape[0]} input rows but {y.shape[0]} labels"
            )
        if not np.isfinite(x).all():
            raise DomainError("inputs contain non-finite values")
        if x.size and (x.min() < 0.0 or x.max() > 1.0):
            raise DomainError("inputs must lie in [0, 1]")
        if not np.issubdtype(y.dtype, np.integer):
            raise DomainError("labels must be integers")
        if y.size and (y.min() < 0 or y.max() >= self.num_classes):
            raise DomainError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def dim(self):
        return self.inputs.shape[1]


# ---------------------------------------------------------------------------
# generators


def gen_blobs(seed, n_per_class, num_classes, dim, separation):
    """Isotropic Gaussian clusters, one per class, clipped to the box.

    Centers sit on a circle of radius 0.3 in the first two coordinates
    (all other coordinates 0.5). The cluster sigma is chosen as
    (minimum center distance) / separation, so separation is the margin
    between neighboring centers measured in sigmas.
    """
    if num_classes < 2:
        raise DomainError("num_classes must be >= 2")
    if dim < 2:
        raise DomainError("dim must be >= 2")
    if n_per_class < 1:
        raise DomainError("n_per_class must be >= 1")
    if not (np.isfinite(separation) and separation > 0):
        raise DomainError("separation must be a positive real")
    rng = np.random.default_rng(seed)
    angles = 2 * np.pi * np.arange(num_classes) / num_classes
    centers = np.full((num_classes, dim), 0.5)
    centers[:, 0] += 0.3 * np.cos(angles)
    centers[:, 1] += 0.3 * np.sin(angles)
    min_center_dist = 2 * 0.3 * np.sin(np.pi / num_classes)
    sigma = min_center_dist / separation
    labels = np.repeat(np.arange(num_classes), n_per_class)
    points = rng.normal(loc=centers[labels], scale=sigma)
    points = np.clip(points, 0.0, 1.0)
    return Dataset(
        inputs=points,
        labels=labels.astype(np.int64),
        num_classes=int(num_classes),
        name=f"blobs-m{num_classes}-d{dim}",
        seed=int(seed),
    )


def gen_rings(seed, n_per_class, num_classes, noise):
    """Concentric 2-d annuli centered at (0.5, 0.5); class c has radius
    0.4*(c+1)/num_classes, plus radial Gaussian noise."""
    if num_classes < 2:
        raise DomainError("num_classes must be >= 2")
    if n_per_class < 1:
        raise DomainError("n_per_class must be >= 1")
    if not (np.isfinite(noise) and noise >= 0):
        raise DomainError("noise must be a non-negative real")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    radii = 0.4 * (labels + 1) / num_classes
    theta = rng.uniform(0.0, 2 * np.pi, size=labels.shape[0])
    r = radii + noise * rng.normal(size=labels.shape[0])
    points = 0.5 + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    points = np.clip(points, 0.0, 1.0)
    return Dataset(
        inputs=points,
        labels=labels.astype(np.int64),
        num_classes=int(num_classes),
        name=f"rings-m{num_classes}",
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# IDX files


def _read_exact(f, n, path):
    # check a header-declared size against the file before asking for it,
    # so an untrusted header cannot request an arbitrary allocation
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left < n:
        raise TruncatedFileError(f"{path}: expected {n} more bytes, got {left}")
    return f.read(n)


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair into a Dataset.

    Pixels are scaled by 1/255 into [0,1]; images are flattened row-major.
    num_classes is taken as max(label)+1 (at least 2).
    """
    with open(images_path, "rb") as f:
        # >II: magic, image count; then rows, cols (all big-endian uint32)
        magic, count = struct.unpack(">II", _read_exact(f, 8, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad images magic 0x{magic:08x}")
        rows, cols = struct.unpack(">II", _read_exact(f, 8, images_path))
        if 0 in (count, rows, cols):
            raise FormatError(f"{images_path}: header declares {count} images of {rows}x{cols} pixels")
        raw = _read_exact(f, count * rows * cols, images_path)
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad labels magic 0x{magic:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, labels_path), dtype=np.uint8)
    if count != label_count:
        raise ConsistencyError(
            f"{count} images in {images_path} but {label_count} labels in {labels_path}"
        )
    labels = labels.astype(np.int64)
    num_classes = max(2, int(labels.max()) + 1) if labels.size else 2
    return Dataset(
        inputs=pixels.astype(np.float64) / 255.0,
        labels=labels,
        num_classes=num_classes,
        name="idx",
        seed=0,
    )


def save_idx(dataset, images_path, labels_path, rows, cols):
    """Write a Dataset as an IDX image/label pair.

    Pixels are quantized to round(x*255); the round trip through load_idx
    is exact only when inputs are multiples of 1/255.
    """
    if rows * cols != dataset.dim:
        raise ShapeError(f"rows*cols = {rows * cols} != input dim {dataset.dim}")
    if dataset.num_classes > 256 or (len(dataset) and dataset.labels.max() > 255):
        raise DomainError("IDX labels are single bytes; labels must be < 256")
    pixels = np.round(dataset.inputs * 255.0).astype(np.uint8)
    with atomic_write(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        f.write(pixels.tobytes())
    with atomic_write(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(dataset)))
        f.write(dataset.labels.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# iteration and export


def batches(dataset, batch_size, seed):
    """Yield (inputs, labels) over a seeded permutation; the last batch may
    be short; every example appears exactly once."""
    if batch_size < 1:
        raise DomainError("batch_size must be >= 1")
    order = np.random.default_rng(seed).permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        idx = order[start : start + batch_size]
        yield dataset.inputs[idx], dataset.labels[idx]


def split(dataset, fraction, seed):
    """Seeded split into (first, second) with first holding round(N*fraction)
    examples."""
    if not 0.0 <= fraction <= 1.0:
        raise DomainError("fraction must lie in [0, 1]")
    order = np.random.default_rng(seed).permutation(len(dataset))
    cut = int(round(len(dataset) * fraction))
    parts = []
    for idx in (order[:cut], order[cut:]):
        parts.append(
            Dataset(
                inputs=dataset.inputs[idx],
                labels=dataset.labels[idx],
                num_classes=dataset.num_classes,
                name=dataset.name,
                seed=dataset.seed,
            )
        )
    return parts[0], parts[1]


def save_csv(dataset, path):
    """Export as CSV with header x0,...,x{d-1},label."""
    d = dataset.dim
    with atomic_write(path, newline="") as f:
        f.write(",".join([f"x{i}" for i in range(d)] + ["label"]) + "\n")
        for row, label in zip(dataset.inputs, dataset.labels):
            f.write(",".join(repr(float(v)) for v in row) + f",{label}\n")
