"""Datasets: the engineered robust/non-robust 2-D Gaussian task, IDX-format
image ingestion, padding/cropping augmentation, and Rademacher directions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# Toy task defaults: the y coordinate separates the classes almost perfectly
# (2.5 sigma margin) yet flips under an 0.1-radius attack; the x coordinate
# is weaker per-sample but robust (margin 1.0 >> 0.1).
DEFAULT_TOY_MU = (1.0, 0.05)
DEFAULT_TOY_SIGMA = (0.5, 0.02)


class BadMagic(Exception):
    pass


class TruncatedFile(Exception):
    pass


class CountMismatch(Exception):
    pass


class EmptyDataset(Exception):
    pass


@dataclass
class ToySpec:
    mu: tuple = DEFAULT_TOY_MU
    sigma: tuple = DEFAULT_TOY_SIGMA   # per-axis std devs (diagonal covariance)
    n_per_class: int = 500
    seed: int = 0

    def __post_init__(self):
        if min(self.sigma) <= 0:
            raise ValueError("sigma entries must be > 0")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")


@dataclass
class LabeledDataset:
    xs: np.ndarray                 # [N, ...], float64
    ys: np.ndarray                 # [N], int64
    input_scale: tuple | None = None   # (lo, hi) clamp range of the inputs

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise CountMismatch(f"{len(self.xs)} inputs vs {len(self.ys)} labels")

    def __len__(self):
        return len(self.xs)

    def subset(self, idx):
        return LabeledDataset(self.xs[idx], self.ys[idx], self.input_scale)


def gen_toy(spec: ToySpec):
    """Class 1 ~ N(mu, diag(sigma^2)), class 0 ~ N(-mu, diag(sigma^2))."""
    rng = np.random.default_rng(spec.seed)
    mu = np.asarray(spec.mu, dtype=np.float64)
    sigma = np.asarray(spec.sigma, dtype=np.float64)
    pos = mu + rng.standard_normal((spec.n_per_class, 2)) * sigma
    neg = -mu + rng.standard_normal((spec.n_per_class, 2)) * sigma
    xs = np.concatenate([pos, neg])
    ys = np.concatenate([np.ones(spec.n_per_class, dtype=np.int64),
                         np.zeros(spec.n_per_class, dtype=np.int64)])
    return LabeledDataset(xs, ys)


def _read_idx(path, want_magic, want_rank):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 * (1 + want_rank):
        raise TruncatedFile(f"{path}: header short")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != want_magic:
        raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{want_magic:08x}")
    dims = struct.unpack_from(f">{want_rank}I", blob, 4)
    start = 4 * (1 + want_rank)
    count = math.prod(dims)
    if len(blob) - start < count:
        raise TruncatedFile(f"{path}: {len(blob) - start} data bytes, "
                            f"header implies {count}")
    if len(blob) - start > count:
        raise TruncatedFile(f"{path}: {len(blob) - start - count} trailing bytes")
    data = np.frombuffer(blob, dtype=np.uint8, count=count, offset=start)
    return data.reshape(dims)


def load_idx(images_path, labels_path):
    """IDX image/label pair -> dataset with pixels scaled into [0, 1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, 3)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    if len(labels) == 0:
        raise EmptyDataset(f"{images_path}, {labels_path}: no examples")
    xs = images.astype(np.float64)[:, None, :, :] / 255.0
    return LabeledDataset(xs, labels.astype(np.int64), input_scale=(0.0, 1.0))


def write_idx_images(images_u8, path):
    images_u8 = np.ascontiguousarray(images_u8, dtype=np.uint8)
    n, h, w = images_u8.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, h, w))
        fh.write(images_u8.tobytes())


def write_idx_labels(labels_u8, path):
    labels_u8 = np.ascontiguousarray(labels_u8, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, labels_u8.shape[0]))
        fh.write(labels_u8.tobytes())


def augment_pad_crop(x, pad, rng):
    """Zero-pad each spatial side by `pad`, crop back at a random offset."""
    if pad == 0:
        return x
    x = np.asarray(x)
    b, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    offs = rng.integers(0, 2 * pad + 1, size=(b, 2))
    out = np.empty_like(x)
    for i in range(b):
        oy, ox = offs[i]
        out[i] = xp[i, :, oy:oy + h, ox:ox + w]
    return out


def rademacher(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
