"""Seeded, numpy-only synthetic digit corpus for the benchmark.

Each digit is a skeleton of polylines in a unit box. An image places the
skeleton under a random affine map (scale, rotation, shear, shift), draws it
with a random stroke half-width, and anti-aliases by distance to the nearest
segment. The same seed always gives the same bytes.
"""

from __future__ import annotations

import numpy as np

SIZE = 28


def _arc(cx, cy, rx, ry, a0, a1, n=10):
    """Points on an elliptic arc; angles in degrees, 0 = right, 90 = down."""
    t = np.radians(np.linspace(a0, a1, n))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _line(*pts):
    return np.asarray(pts, dtype=np.float64)


# Skeletons in a unit box: x to the right, y downwards.
_SKELETONS = {
    0: [_arc(0.5, 0.5, 0.32, 0.45, 0, 360, 16)],
    1: [_line((0.35, 0.25), (0.55, 0.05), (0.55, 0.95)),
        _line((0.35, 0.95), (0.75, 0.95))],
    2: [_arc(0.5, 0.3, 0.3, 0.25, 180, 380, 9),
        _line((0.78, 0.38), (0.2, 0.95), (0.82, 0.95))],
    3: [_arc(0.48, 0.28, 0.3, 0.23, 200, 450, 10),
        _arc(0.48, 0.73, 0.33, 0.24, 270, 520, 10)],
    4: [_line((0.65, 0.95), (0.65, 0.05), (0.15, 0.68), (0.88, 0.68))],
    5: [_line((0.8, 0.05), (0.25, 0.05), (0.22, 0.45)),
        _arc(0.48, 0.66, 0.32, 0.29, 235, 505, 11)],
    6: [_arc(0.5, 0.68, 0.3, 0.27, 0, 360, 12),
        _line((0.2, 0.68), (0.35, 0.28), (0.68, 0.05))],
    7: [_line((0.15, 0.05), (0.85, 0.05), (0.4, 0.95))],
    8: [_arc(0.5, 0.27, 0.24, 0.22, 0, 360, 12),
        _arc(0.5, 0.72, 0.3, 0.23, 0, 360, 12)],
    9: [_arc(0.5, 0.32, 0.3, 0.27, 0, 360, 12),
        _line((0.8, 0.32), (0.65, 0.72), (0.32, 0.95))],
}


def _segments(digit):
    segs = [np.stack([p[:-1], p[1:]], axis=1) for p in _SKELETONS[digit]]
    return np.concatenate(segs)          # [S, 2 endpoints, 2 coords]


_SEGS = [_segments(d) for d in range(10)]
_MAX_SEGS = max(len(s) for s in _SEGS)
# Pad every digit to the same segment count by repeating its first segment;
# a repeated segment never lowers the distance to the stroke.
_PADDED = np.stack([np.concatenate([s, np.repeat(s[:1], _MAX_SEGS - len(s), 0)])
                    for s in _SEGS])     # [10, S, 2, 2]


def _render(segs, half_width, size):
    """Anti-aliased stroke images: segs [n, S, 2, 2] in pixel units."""
    c = np.arange(size) + 0.5
    px = np.tile(c, size)[None, None, :]                 # [1, 1, P]
    py = np.repeat(c, size)[None, None, :]
    ax, ay = segs[:, :, 0, 0, None], segs[:, :, 0, 1, None]   # [n, S, 1]
    bx, by = segs[:, :, 1, 0, None] - ax, segs[:, :, 1, 1, None] - ay
    dx, dy = px - ax, py - ay                            # [n, S, P]
    t = np.clip((dx * bx + dy * by) / np.maximum(bx * bx + by * by, 1e-12),
                0.0, 1.0)
    dx -= t * bx
    dy -= t * by
    d = np.sqrt((dx * dx + dy * dy).min(axis=1))         # [n, P]
    ink = np.clip(half_width[:, None] + 0.5 - d, 0.0, 1.0)
    return ink.reshape(len(segs), size, size)


def make_digits(n, seed, size=SIZE, chunk=64):
    """(images uint8 [n, size, size], labels uint8 [n]) from one seed."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    scale = rng.uniform(0.9, 1.05, size=n) * size * 0.62
    angle = np.radians(rng.uniform(-6.0, 6.0, size=n))
    shear = rng.uniform(-0.08, 0.08, size=n)
    shift = rng.uniform(-1.0, 1.0, size=(n, 2))
    half_width = rng.uniform(1.3, 1.8, size=n)
    noise = rng.normal(0.0, 0.03, size=(n, size, size))

    cos, sin = np.cos(angle), np.sin(angle)
    # unit box -> centred, sheared, rotated, scaled, shifted pixel coordinates
    lin = np.empty((n, 2, 2))
    lin[:, 0, 0] = cos * scale * 0.8
    lin[:, 0, 1] = (cos * shear - sin) * scale
    lin[:, 1, 0] = sin * scale * 0.8
    lin[:, 1, 1] = (sin * shear + cos) * scale
    offset = size / 2 + shift

    images = np.empty((n, size, size), dtype=np.uint8)
    for lo in range(0, n, chunk):
        sl = slice(lo, lo + chunk)
        pts = _PADDED[labels[sl]] - 0.5                          # [m, S, 2, 2]
        pts = np.einsum("mij,msej->msei", lin[sl], pts) + offset[sl, None, None, :]
        ink = _render(pts, half_width[sl], size) + noise[sl]
        images[sl] = np.round(255.0 * np.clip(ink, 0.0, 1.0)).astype(np.uint8)
    return images, labels.astype(np.uint8)
